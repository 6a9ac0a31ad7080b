//! Benchmark-side sinks and writers.

use std::io::{self, Write};
use std::time::{Duration, Instant};

use bncg_dynamics::sink::{MetricsSink, RoundRecord};

/// Timestamps every [`RoundRecord`] the service emits (after the inner
/// sink has taken it, so a round's latency includes its record I/O),
/// keeps a copy, and delegates to `inner`.
pub struct StampSink<S: MetricsSink> {
    pub inner: S,
    stamps: Vec<(Instant, usize)>,
    pub records: Vec<RoundRecord>,
}

impl<S: MetricsSink> StampSink<S> {
    pub fn new(inner: S) -> Self {
        StampSink {
            inner,
            stamps: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Latencies of the session's barrier rounds (rounds that applied at
    /// least one swap): the gap between a round's record and the previous
    /// record, or `session_start` for the first. Clears the session.
    pub fn drain_round_gaps(&mut self, session_start: Instant, out: &mut Vec<Duration>) {
        let mut prev = session_start;
        for &(t, applied) in &self.stamps {
            if applied > 0 {
                out.push(t - prev);
            }
            prev = t;
        }
        self.clear();
    }

    /// Forgets the session's stamps and records.
    pub fn clear(&mut self) {
        self.stamps.clear();
        self.records.clear();
    }
}

impl<S: MetricsSink> MetricsSink for StampSink<S> {
    fn record_round(&mut self, record: &RoundRecord) {
        self.inner.record_round(record);
        self.stamps.push((Instant::now(), record.applied));
        self.records.push(*record);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Counts the bytes written through it.
pub struct CountingWriter<W: Write> {
    inner: W,
    pub bytes: u64,
}

impl<W: Write> CountingWriter<W> {
    pub fn new(inner: W) -> Self {
        CountingWriter { inner, bytes: 0 }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Records equal in every field but the process-global phase timings.
pub fn same_record(a: &RoundRecord, b: &RoundRecord) -> bool {
    RoundRecord {
        phases: Default::default(),
        ..*a
    } == RoundRecord {
        phases: Default::default(),
        ..*b
    }
}

/// Index of the first record where two streams differ (`None` if equal).
pub fn first_divergence(a: &[RoundRecord], b: &[RoundRecord]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| match (a.get(i), b.get(i)) {
        (Some(x), Some(y)) => !same_record(x, y),
        _ => true,
    })
}
