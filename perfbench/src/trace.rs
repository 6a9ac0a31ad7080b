//! The traced run: untraced service sessions interleaved with a
//! re-enactment of the same rounds through the layers' public
//! functions, in the service's serial order (sweep, resolve, apply,
//! journal commit, barrier repair, checkpoint, cycle check, record).
//! Each layer call is wrapped in a span kept in memory and written out
//! at exit; the re-enactment must end in the service's graph and emit
//! its records (phase timings aside), or the session fails.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use bncg_core::context::EvalContext;
use bncg_core::objective::{MaxObjective, SumObjective};
use bncg_core::rules::GameRules;
use bncg_core::swap::SwapMove;
use bncg_dynamics::convergence::StateLog;
use bncg_dynamics::recovery::{graph_crc, matrix_crc};
use bncg_dynamics::service::{AuditPolicy, JournalOptions, RoundService, ServiceConfig};
use bncg_dynamics::sink::{JsonlSink, MemorySink, MetricsSink, NullSink, RoundRecord};
use bncg_dynamics::{Journal, JournalRecord, Outcome, Response, RoundConfig};
use bncg_graph::adjacency::SwapApplied;
use bncg_graph::dynamic::{repair_phase_totals, RepairPhases, RepairStats};
use bncg_graph::{graph6, Graph, V};
use bncg_telemetry::json::{self, Json};
use bncg_telemetry::MetricsSnapshot;

use crate::measure::{
    churn_inputs, churn_service, converge_inputs, journal_path, open, perturbation, pick,
    replay_inputs, replay_service,
};
use crate::report::{iqm, ms, num, obj, RunResult};
use crate::sinks::{first_divergence, CountingWriter, StampSink};
use crate::{Opts, Workload, PALINDROMES};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Traced session the span belongs to (`0` = set-up and end-of-run).
    pub session: u32,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    session: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            session: self.session,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now();
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Opens a new traced session; its spans carry the next session id.
    pub fn begin_session(&mut self) {
        self.session += 1;
        self.enter("session");
    }

    /// Closes the session and returns its wall time.
    pub fn end_session(&mut self) -> Duration {
        let i = *self.open.last().expect("a session is open");
        self.exit();
        Duration::from_nanos(self.spans[i].ns())
    }

    /// Each span's duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| num(p as f64));
            let line = obj([
                ("name", Json::Str(s.name.into())),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
                ("parent", parent),
                ("session", num(f64::from(s.session))),
            ]);
            writeln!(w, "{}", json::write(&line))?;
        }
        w.flush()
    }
}

/// The shadow's write-ahead journal, mirroring the service's.
struct ShadowJournal {
    journal: Journal,
    checkpoint_every: usize,
    since_checkpoint: usize,
    rounds: u64,
}

/// Work counts the re-enactment books itself.
#[derive(Default)]
struct Counts {
    proposed: u64,
    applied: u64,
    barrier_swaps: u64,
    rows_repaired: u64,
    rebuilds: u64,
    records: u64,
    journaled_rounds: u64,
}

/// A benchmark-side re-enactment of one service: its own graph, context
/// and cycle log, stepped through the layers' public functions.
struct Shadow<R: GameRules> {
    rules: R,
    config: RoundConfig,
    g: Graph,
    ctx: EvalContext,
    log: StateLog,
    journal: Option<ShadowJournal>,
    /// Records emitted in the current session.
    emitted: Vec<RoundRecord>,
    counts: Counts,
}

/// Per-session record bookkeeping, as the service keeps it.
struct Book {
    prev_cost: Option<u64>,
    stats: RepairStats,
    phases: RepairPhases,
}

impl<R: GameRules> Shadow<R> {
    fn new(tr: &mut Tracer, rules: R, g: &Graph, config: RoundConfig) -> Self {
        let g = g.clone();
        let ctx = tr.span("apsp_build", || {
            let ctx = EvalContext::new(&g);
            if rules.needs_apsp() {
                ctx.base();
            }
            ctx
        });
        Shadow {
            rules,
            config,
            g,
            ctx,
            log: StateLog::new(),
            journal: None,
            emitted: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// `RoundService::attach_journal`, re-enacted.
    fn attach_journal(&mut self, path: &Path, opts: JournalOptions) -> io::Result<()> {
        let mut journal = Journal::create(path)?;
        journal.append_synced(&JournalRecord::Seed {
            objective: self.rules.name().to_string(),
            response: self.config.response,
            max_rounds: self.config.max_rounds,
            detect_cycles: self.config.detect_cycles,
            pipelined: false,
            checkpoint_every: opts.checkpoint_every,
            graph6: graph6::encode(&self.g),
        });
        self.journal = Some(ShadowJournal {
            journal,
            checkpoint_every: opts.checkpoint_every,
            since_checkpoint: 0,
            rounds: 0,
        });
        Ok(())
    }

    /// Journaled rounds after the last checkpoint: what a resume repairs.
    fn rounds_since_checkpoint(&self) -> u64 {
        self.journal
            .as_ref()
            .map_or(0, |j| j.since_checkpoint as u64)
    }

    fn journal_error(&self) -> Option<&io::Error> {
        self.journal.as_ref().and_then(|j| j.journal.error())
    }

    fn commit(tr: &mut Tracer, journal: &mut Journal, rec: &JournalRecord) {
        tr.span("journal.append", || journal.append(rec));
        tr.span("journal.sync", || journal.sync());
    }

    fn journal_marker(&mut self, tr: &mut Tracer, rec: JournalRecord) {
        if let Some(j) = self.journal.as_mut() {
            Self::commit(tr, &mut j.journal, &rec);
        }
    }

    /// The write-ahead round commit: after the graph mutation, before the
    /// matrix repair.
    fn journal_round(&mut self, tr: &mut Tracer, round: usize, moves: Vec<SwapMove>) {
        if let Some(j) = self.journal.as_mut() {
            j.rounds += 1;
            self.counts.journaled_rounds += 1;
            let g = &self.g;
            let rec = tr.span("journal.append", || JournalRecord::Round {
                round,
                moves,
                graph_crc: graph_crc(g),
            });
            Self::commit(tr, &mut j.journal, &rec);
        }
    }

    fn maybe_checkpoint(&mut self, tr: &mut Tracer) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if j.checkpoint_every == 0 {
            return;
        }
        j.since_checkpoint += 1;
        if j.since_checkpoint < j.checkpoint_every {
            return;
        }
        j.since_checkpoint = 0;
        let (g, ctx, needs_apsp) = (&self.g, &self.ctx, self.rules.needs_apsp());
        let rec = tr.span("checkpoint", || JournalRecord::Checkpoint {
            rounds_logged: j.rounds,
            graph6: graph6::encode(g),
            matrix_crc: if needs_apsp {
                matrix_crc(ctx.base())
            } else {
                0
            },
        });
        Self::commit(tr, &mut j.journal, &rec);
    }

    fn barrier(&mut self, tr: &mut Tracer, batch: &[SwapApplied]) {
        let before = self.ctx.dynamic_stats_snapshot();
        let (g, ctx) = (&self.g, &mut self.ctx);
        tr.span("barrier", || ctx.refresh_after_batch(g, batch));
        let d = self.ctx.dynamic_stats_snapshot().delta_since(&before);
        self.counts.barrier_swaps += batch.len() as u64;
        self.counts.rows_repaired += d.rows_repaired;
        self.counts.rebuilds += d.full_rebuilds;
    }

    fn open_book(&self) -> Book {
        Book {
            prev_cost: self.rules.social_cost(&self.ctx),
            stats: self.ctx.dynamic_stats_snapshot(),
            phases: repair_phase_totals(),
        }
    }

    /// The service's record emission, then the sink write.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        tr: &mut Tracer,
        sink: &mut dyn MetricsSink,
        book: &mut Book,
        round: usize,
        proposed: usize,
        applied: usize,
        ended: Option<(Outcome, Option<usize>)>,
    ) {
        tr.enter("record");
        let stats = self.ctx.dynamic_stats_snapshot();
        let phases = repair_phase_totals();
        let cost = self.rules.social_cost(&self.ctx);
        let rec = RoundRecord {
            round,
            proposed,
            applied,
            conflicted: proposed - applied,
            social_cost: cost,
            cost_delta: match (book.prev_cost, cost) {
                (Some(a), Some(b)) => Some(b as i64 - a as i64),
                _ => None,
            },
            cycle_period: ended.and_then(|(_, period)| period),
            converged: matches!(ended, Some((Outcome::Converged, _))),
            repair: stats.delta_since(&book.stats),
            phases: phases.delta_since(&book.phases),
        };
        book.stats = stats;
        book.phases = phases;
        book.prev_cost = cost;
        tr.span("sink", || sink.record_round(&rec));
        tr.exit();
        self.emitted.push(rec);
        self.counts.records += 1;
    }

    /// `RoundService::perturb`, re-enacted on the one context.
    fn perturb(&mut self, tr: &mut Tracer, swaps: &[SwapMove]) {
        let (g, ctx) = (&mut self.g, &mut self.ctx);
        let applied = tr.span("perturb", || {
            let mut applied = 0;
            for mv in swaps {
                let rec = mv.apply(g);
                if matches!(rec, SwapApplied::Noop) {
                    continue;
                }
                ctx.refresh_after(g, &rec);
                applied += 1;
            }
            applied
        });
        if applied > 0 {
            self.log.clear();
        }
    }

    /// A live session in the serial service's order (without a journal).
    /// Returns its outcome.
    fn live_session(&mut self, tr: &mut Tracer, sink: &mut dyn MetricsSink) -> Outcome {
        self.emitted.clear();
        self.log.clear();
        if self.config.detect_cycles {
            self.log.record_period(&self.g);
        }
        let mut book = self.open_book();
        let mut outcome = Outcome::Capped;
        for round in 1..=self.config.max_rounds {
            tr.enter("round");
            let (rules, ctx) = (&self.rules, &self.ctx);
            let proposals = tr.span("sweep", || match self.config.response {
                Response::Best => rules.best_responses_par(ctx),
                Response::FirstImproving => rules.first_improving_responses_par(ctx),
            });
            let proposed = proposals.iter().flatten().count();
            let accepted = tr.span("resolve", || {
                bncg_dynamics::resolve_round_with(rules, ctx, &proposals)
            });
            let g = &mut self.g;
            let batch: Vec<SwapApplied> =
                tr.span("apply", || accepted.iter().map(|s| s.mv.apply(g)).collect());
            self.counts.proposed += proposed as u64;
            self.counts.applied += batch.len() as u64;
            // Live workloads run without a journal, so no commit sits
            // between the apply and the barrier here.
            if !batch.is_empty() {
                self.barrier(tr, &batch);
            }
            let ended = if proposed == 0 {
                Some((Outcome::Converged, None))
            } else if self.config.detect_cycles {
                let (log, g) = (&mut self.log, &self.g);
                tr.span("cycle", || log.record_period(g))
                    .map(|p| (Outcome::Cycled, Some(p)))
            } else {
                None
            };
            self.record(tr, sink, &mut book, round, proposed, batch.len(), ended);
            tr.exit();
            if let Some((o, _)) = ended {
                outcome = o;
                break;
            }
        }
        sink.finish();
        outcome
    }

    /// `RoundService::replay_session`, re-enacted.
    fn replay_session(
        &mut self,
        tr: &mut Tracer,
        stream: &[Vec<SwapMove>],
        sink: &mut dyn MetricsSink,
    ) {
        self.emitted.clear();
        self.log.clear();
        self.journal_marker(tr, JournalRecord::SessionStart { replay: true });
        let mut book = self.open_book();
        for (i, moves) in stream.iter().enumerate() {
            let round = i + 1;
            tr.enter("round");
            let g = &mut self.g;
            let batch: Vec<SwapApplied> =
                tr.span("apply", || moves.iter().map(|mv| mv.apply(g)).collect());
            let applied = batch.len();
            self.counts.proposed += moves.len() as u64;
            self.counts.applied += applied as u64;
            if batch.is_empty() {
                self.record(tr, sink, &mut book, round, 0, 0, None);
            } else {
                self.journal_round(tr, round, moves.clone());
                self.barrier(tr, &batch);
                self.maybe_checkpoint(tr);
                self.record(tr, sink, &mut book, round, applied, applied, None);
            }
            tr.exit();
        }
        sink.finish();
        self.journal_marker(
            tr,
            JournalRecord::SessionEnd {
                outcome: Outcome::Capped,
            },
        );
    }

    /// Full-matrix audit at the end of the run; returns divergent rows.
    fn full_audit(&self, tr: &mut Tracer) -> (usize, usize) {
        let rows: Vec<V> = (0..self.g.n() as V).collect();
        let ctx = &self.ctx;
        let bad = tr.span("audit", || ctx.audit_rows(&rows));
        (rows.len(), bad.len())
    }
}

/// Telemetry counters the per-layer metrics read, summed over windows.
#[derive(Default)]
struct Telemetry {
    candidates: u64,
    improving: u64,
    pool_jobs: u64,
    pool_steals: u64,
    journal_bytes: u64,
    overlap_ns: u64,
    stall_ns: u64,
}

impl Telemetry {
    fn add_traced(&mut self, d: &MetricsSnapshot) {
        let c = |name| d.counter(name).unwrap_or(0);
        self.candidates += c("swap_scan.candidates");
        self.improving += c("swap_scan.improving");
        self.pool_jobs += c("pool.jobs");
        self.pool_steals += c("pool.steals");
        self.journal_bytes += c("journal.bytes");
    }

    fn add_untraced(&mut self, d: &MetricsSnapshot) {
        let h = |name| d.histogram(name).map_or(0, |h| h.sum);
        self.overlap_ns += h("service.overlap_ns");
        self.stall_ns += h("service.stall_ns");
    }
}

/// State shared by the three traced workloads.
#[derive(Default)]
struct Traced {
    tr: Tracer,
    tel: Telemetry,
    untraced: Vec<Duration>,
    traced: Vec<Duration>,
    out: RunResult,
    sink_bytes: u64,
    audit_rows: usize,
    /// Rounds the resume re-applied after the journal's last checkpoint.
    resume_rounds: u64,
}

impl Traced {
    /// Times one untraced service session.
    fn untraced<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = bncg_telemetry::snapshot();
        let t0 = Instant::now();
        let out = f();
        self.untraced.push(t0.elapsed());
        self.tel
            .add_untraced(&bncg_telemetry::snapshot().delta_since(&before));
        out
    }

    /// Runs one traced session.
    fn traced<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let before = bncg_telemetry::snapshot();
        self.tr.begin_session();
        let out = f(&mut self.tr);
        self.traced.push(self.tr.end_session());
        self.tel
            .add_traced(&bncg_telemetry::snapshot().delta_since(&before));
        out
    }

    /// Books the faithfulness check of the latest session pair.
    fn faithful(&mut self, svc: &[RoundRecord], shadow: &[RoundRecord], same_graph: bool) {
        let session = self.traced.len();
        let diverged = first_divergence(svc, shadow);
        self.out
            .check(diverged.is_none() && same_graph, || match diverged {
                Some(i) => format!(
                "traced session {session}: record {i} differs (service {:?}, re-enactment {:?})",
                svc.get(i),
                shadow.get(i)
            ),
                None => format!("traced session {session}: final graphs differ"),
            });
    }
}

/// Runs `opts.workload` traced.
pub fn run(opts: &Opts) -> io::Result<RunResult> {
    let mut t = Traced::default();
    let counts = match opts.workload {
        Workload::ConvergeErSum => converge(opts, &mut t)?,
        Workload::ChurnTreeMax => churn(opts, &mut t)?,
        Workload::ReplayTreeJournaled => replay(opts, &mut t)?,
    };
    t.tr.write(&opts.out_file("spans.jsonl"))?;
    let mut out = layer_metrics(&t, &counts);
    for &name in opts.workload.exercised() {
        let value = out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        out.check_end(value.is_some_and(|v| v > 0.0), || {
            format!("{name} reads {value:?}, but this workload exercises it")
        });
    }
    out.attempted += t.out.attempted;
    out.failed += t.out.failed;
    out.failures.append(&mut t.out.failures);
    Ok(out)
}

fn converge(opts: &Opts, t: &mut Traced) -> io::Result<Counts> {
    let inputs = converge_inputs(opts);
    let mut counts = Counts::default();
    let mut sink = StampSink::new(NullSink);
    let mut last: Option<Shadow<SumObjective>> = None;
    let start = Instant::now();
    while open(start, t.traced.len(), opts.seconds) {
        let (g, want) = &inputs[pick(t.traced.len(), inputs.len(), 1).0];
        let (rep, svc) = t.untraced(|| {
            let mut svc = RoundService::<SumObjective>::new(g, ServiceConfig::default());
            (svc.run_session(&mut sink), svc)
        });
        let got = graph6::encode(svc.graph());
        t.out.check(
            rep.result.outcome == Outcome::Converged && !rep.interrupted && &got == want,
            || "untraced converge session missed the reference".into(),
        );
        let mut mem = MemorySink::new();
        let shadow = t.traced(|tr| {
            let mut sh = Shadow::new(tr, SumObjective, g, RoundConfig::default());
            sh.live_session(tr, &mut mem);
            sh
        });
        let same = graph6::encode(&shadow.g) == got;
        t.faithful(&sink.records, &shadow.emitted, same);
        sink.clear();
        counts += &shadow.counts;
        last = Some(shadow);
    }
    if let Some(shadow) = last {
        end_audit(t, &shadow);
    }
    Ok(counts)
}

fn churn(opts: &Opts, t: &mut Traced) -> io::Result<Counts> {
    let s = opts.sizes();
    let (trees, mut rng) = churn_inputs(opts);
    let mut services = Vec::new();
    let mut shadows = Vec::new();
    for (i, g) in trees.iter().enumerate() {
        let (svc, _, ok) = churn_service(g);
        t.out
            .check_end(ok, || format!("churn set-up {i} was interrupted"));
        shadows.push(Shadow::new(
            &mut t.tr,
            MaxObjective,
            svc.graph(),
            RoundConfig::default(),
        ));
        services.push(svc);
    }
    let svc_file = File::create(opts.out_file("records.jsonl"))?;
    let mut svc_sink = StampSink::new(JsonlSink::new(BufWriter::new(svc_file)));
    let shadow_file = File::create(opts.out_file("shadow-records.jsonl"))?;
    let mut shadow_sink = JsonlSink::new(CountingWriter::new(BufWriter::new(shadow_file)));
    let start = Instant::now();
    while open(start, t.traced.len(), opts.seconds) {
        let i = pick(t.traced.len(), trees.len(), 1).0;
        let (svc, shadow) = (&mut services[i], &mut shadows[i]);
        let swaps = perturbation(&mut rng, svc.graph());
        let rep = t.untraced(|| {
            svc.perturb(&swaps);
            svc.run_session(&mut svc_sink)
        });
        t.out
            .check(!rep.interrupted, || "churn session was interrupted".into());
        t.traced(|tr| {
            shadow.perturb(tr, &swaps);
            shadow.live_session(tr, &mut shadow_sink)
        });
        let same = &shadow.g == svc.graph();
        t.faithful(&svc_sink.records, &shadow.emitted, same);
        svc_sink.clear();
    }
    t.out.check_end(
        svc_sink.inner.error().is_none() && shadow_sink.error().is_none(),
        || "churn record stream failed".into(),
    );
    t.sink_bytes = shadow_sink.into_inner().bytes;
    let mut counts = Counts::default();
    for (i, (svc, shadow)) in services.iter_mut().zip(&shadows).enumerate() {
        svc.set_audit_policy(AuditPolicy {
            every_rounds: 0,
            stripe_rows: s.n,
        });
        let divergent = svc.run_audit();
        t.out.check_end(divergent == 0, || {
            format!("churn service {i}: full-matrix audit found {divergent} divergent rows")
        });
        end_audit(t, shadow);
        counts += &shadow.counts;
    }
    Ok(counts)
}

fn replay(opts: &Opts, t: &mut Traced) -> io::Result<Counts> {
    let inputs = replay_inputs(opts);
    let shadow_path = |i: usize| opts.out_file(&format!("shadow-journal-{i}.jsonl"));
    let mut services = Vec::new();
    let mut shadows = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        services.push(replay_service(&input.g0, &journal_path(opts, i))?);
        let mut shadow = Shadow::new(&mut t.tr, SumObjective, &input.g0, RoundConfig::default());
        shadow.attach_journal(&shadow_path(i), JournalOptions::default())?;
        shadows.push(shadow);
    }
    let mut sink = StampSink::new(NullSink);
    let start = Instant::now();
    while open(start, t.traced.len(), opts.seconds) {
        let (i, k) = pick(t.traced.len(), inputs.len(), PALINDROMES);
        let (svc, shadow) = (&mut services[i], &mut shadows[i]);
        let (g0, stream) = (&inputs[i].g0, &inputs[i].streams[k]);
        let rep = t.untraced(|| svc.replay_session(stream, &mut sink));
        t.out.check(!rep.interrupted && svc.graph() == g0, || {
            "untraced replay session did not restore the start graph".into()
        });
        let mut mem = MemorySink::new();
        t.traced(|tr| shadow.replay_session(tr, stream, &mut mem));
        let same = &shadow.g == svc.graph();
        t.faithful(&sink.records, &shadow.emitted, same);
        sink.clear();
    }
    let mut counts = Counts::default();
    for (i, (svc, shadow)) in services.iter().zip(&shadows).enumerate() {
        t.out.check_end(
            svc.journal_error().is_none() && shadow.journal_error().is_none(),
            || format!("replay journal {i} failed"),
        );
        let same_journal = fs::read(journal_path(opts, i))? == fs::read(shadow_path(i))?;
        t.out.check_end(same_journal, || {
            format!("re-enacted journal {i} differs from the service's")
        });
        if i == 0 {
            // As in the untraced run, only the first journal is resumed.
            let path = journal_path(opts, 0);
            let resumed =
                t.tr.span("resume", || RoundService::<SumObjective>::resume(&path));
            match resumed {
                Ok((back, _)) => t.out.check_end(back.graph() == svc.graph(), || {
                    "resume from replay journal 0 reached another graph".into()
                }),
                Err(e) => t
                    .out
                    .check_end(false, || format!("resume from journal 0 failed: {e}")),
            }
            t.resume_rounds = shadow.rounds_since_checkpoint();
        }
        end_audit(t, shadow);
        counts += &shadow.counts;
    }
    Ok(counts)
}

fn end_audit<R: GameRules>(t: &mut Traced, shadow: &Shadow<R>) {
    let (rows, bad) = shadow.full_audit(&mut t.tr);
    t.audit_rows = rows;
    t.out.check_end(bad == 0, || {
        format!("re-enacted context audit found {bad} divergent rows")
    });
}

impl std::ops::AddAssign<&Counts> for Counts {
    fn add_assign(&mut self, c: &Counts) {
        self.proposed += c.proposed;
        self.applied += c.applied;
        self.barrier_swaps += c.barrier_swaps;
        self.rows_repaired += c.rows_repaired;
        self.rebuilds += c.rebuilds;
        self.records += c.records;
        self.journaled_rounds += c.journaled_rounds;
    }
}

/// Turns spans, counts and telemetry deltas into the per-layer metrics.
fn layer_metrics(t: &Traced, c: &Counts) -> RunResult {
    let selfs = t.tr.self_times();
    // Self time of every span named `name` inside traced sessions, in ns.
    let self_ns = |name: &str| -> u64 {
        t.tr.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && s.session > 0)
            .map(|(_, &ns)| ns)
            .sum()
    };
    // Mean duration of the spans named `name` anywhere, in ms.
    let mean_ms = |name: &str| -> f64 {
        let ds: Vec<u64> =
            t.tr.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::ns)
                .collect();
        ds.iter().sum::<u64>() as f64 / ds.len().max(1) as f64 / 1e6
    };
    let sessions = t.traced.len().max(1) as f64;
    let traced_ns: f64 = t.traced.iter().map(|d| d.as_nanos() as f64).sum();
    let per_session_ms = |name: &str| self_ns(name) as f64 / sessions / 1e6;
    let share = |name: &str| self_ns(name) as f64 / traced_ns.max(1.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (round_self, round_wall) =
        t.tr.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "round")
            .fold((0u64, 0u64), |(a, b), (s, &own)| (a + own, b + s.ns()));
    let to_ms = |v: &[Duration]| v.iter().map(|&d| ms(d)).collect::<Vec<f64>>();
    let (traced_iqm, untraced_iqm) = (iqm(&to_ms(&t.traced)), iqm(&to_ms(&t.untraced)));
    let untraced_sessions = t.untraced.len().max(1) as f64;

    let mut out = RunResult::default();
    out.metric("sweep.ms", per_session_ms("sweep"), "ms");
    out.metric("sweep.share", share("sweep"), "fraction");
    out.metric(
        "sweep.candidates",
        t.tel.candidates as f64 / sessions,
        "count",
    );
    out.metric(
        "sweep.improving",
        t.tel.improving as f64 / sessions,
        "count",
    );
    out.metric(
        "sweep.ns_per_candidate",
        ratio(self_ns("sweep") as f64, t.tel.candidates as f64),
        "ns",
    );
    out.metric("resolve.ms", per_session_ms("resolve"), "ms");
    out.metric(
        "resolve.accept_ratio",
        ratio(c.applied as f64, c.proposed as f64),
        "fraction",
    );
    out.metric("apply.ms", per_session_ms("apply"), "ms");
    out.metric("barrier.ms", per_session_ms("barrier"), "ms");
    out.metric("barrier.share", share("barrier"), "fraction");
    out.metric("barrier.swaps", c.barrier_swaps as f64 / sessions, "count");
    out.metric(
        "barrier.ms_per_swap",
        ratio(self_ns("barrier") as f64 / 1e6, c.barrier_swaps as f64),
        "ms",
    );
    out.metric(
        "barrier.rows_repaired",
        c.rows_repaired as f64 / sessions,
        "count",
    );
    out.metric("barrier.rebuilds", c.rebuilds as f64 / sessions, "count");
    out.metric("apsp_build.ms", mean_ms("apsp_build"), "ms");
    out.metric("perturb.ms", per_session_ms("perturb"), "ms");
    out.metric("cycle.ms", per_session_ms("cycle"), "ms");
    out.metric("record.ms", per_session_ms("record"), "ms");
    out.metric("checkpoint.ms", per_session_ms("checkpoint"), "ms");
    out.metric("journal.append_ms", per_session_ms("journal.append"), "ms");
    out.metric("journal.sync_ms", per_session_ms("journal.sync"), "ms");
    out.metric(
        "journal.bytes_per_round",
        ratio(t.tel.journal_bytes as f64, c.journaled_rounds as f64),
        "B",
    );
    out.metric("resume.ms", mean_ms("resume"), "ms");
    out.metric("resume.rounds", t.resume_rounds as f64, "count");
    out.metric("audit.ms", mean_ms("audit"), "ms");
    out.metric("audit.rows", t.audit_rows as f64, "count");
    out.metric("sink.ms", per_session_ms("sink"), "ms");
    out.metric(
        "sink.bytes_per_round",
        ratio(t.sink_bytes as f64, c.records as f64),
        "B",
    );
    out.metric(
        "pipeline.overlap_ms",
        t.tel.overlap_ns as f64 / untraced_sessions / 1e6,
        "ms",
    );
    out.metric(
        "pipeline.stall_ms",
        t.tel.stall_ns as f64 / untraced_sessions / 1e6,
        "ms",
    );
    out.metric("pool.jobs", t.tel.pool_jobs as f64 / sessions, "count");
    out.metric("pool.steals", t.tel.pool_steals as f64 / sessions, "count");
    out.metric("trace.sessions", t.traced.len() as f64, "count");
    out.metric(
        "trace.residual_frac",
        ratio(round_self as f64, round_wall as f64),
        "fraction",
    );
    out.metric(
        "trace.overhead_frac",
        ratio(traced_iqm, untraced_iqm) - 1.0,
        "fraction",
    );
    out.detail(
        "traced",
        obj([
            ("sessions", num(t.traced.len() as f64)),
            ("untraced_session_ms_iqm", num(untraced_iqm)),
            ("traced_session_ms_iqm", num(traced_iqm)),
            ("spans", num(t.tr.spans.len() as f64)),
        ]),
    );
    out
}
