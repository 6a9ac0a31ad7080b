//! Round-service benchmark.
//!
//! For one workload and seed, [`run`] generates the inputs, drives the
//! shipped [`bncg_dynamics::service::RoundService`] through its public
//! API in one process, checks the outputs, and returns every metric by
//! name and unit. The untraced run (`measure`) yields the end-to-end
//! metrics; the traced run (`trace`) interleaves untraced service
//! sessions with a span-recording re-enactment of the same rounds
//! through the layers' public functions and yields the per-layer
//! metrics. See `LAYERS.md` for what each workload loads and which
//! end-to-end metric each layer metric should move.

mod measure;
mod report;
mod sinks;
mod trace;

use std::path::{Path, PathBuf};

pub use report::{Metric, RunResult};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold start: fresh serial `RoundService<SumObjective>` on an ER
    /// graph, run to convergence, once per session.
    ConvergeErSum,
    /// Warm perturb-and-settle on a pipelined `RoundService<MaxObjective>`
    /// over a random tree, records streamed to a JSONL file.
    ChurnTreeMax,
    /// Journaled replay of a palindromic swap stream on a large tree.
    ReplayTreeJournaled,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ConvergeErSum,
        Workload::ChurnTreeMax,
        Workload::ReplayTreeJournaled,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvergeErSum => "converge_er_sum",
            Workload::ChurnTreeMax => "churn_tree_max",
            Workload::ReplayTreeJournaled => "replay_tree_journaled",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The per-layer metrics this workload exercises. A traced run fails
    /// a check when any of them reads 0: telemetry reads default a
    /// missing counter to 0, so a renamed counter or a layer the workload
    /// stopped reaching would otherwise pass unnoticed.
    pub fn exercised(self) -> &'static [&'static str] {
        match self {
            Workload::ConvergeErSum => &[
                "sweep.ms",
                "sweep.share",
                "sweep.candidates",
                "sweep.improving",
                "sweep.ns_per_candidate",
                "resolve.ms",
                "resolve.accept_ratio",
                "apply.ms",
                "barrier.ms",
                "barrier.share",
                "barrier.swaps",
                "barrier.ms_per_swap",
                "barrier.rows_repaired",
                "apsp_build.ms",
                "cycle.ms",
                "record.ms",
                "audit.ms",
                "audit.rows",
                "pool.jobs",
                "trace.sessions",
            ],
            Workload::ChurnTreeMax => &[
                "sweep.ms",
                "sweep.share",
                "sweep.candidates",
                "sweep.ns_per_candidate",
                "resolve.ms",
                "apply.ms",
                "barrier.ms",
                "barrier.swaps",
                "barrier.rows_repaired",
                "apsp_build.ms",
                "perturb.ms",
                "cycle.ms",
                "record.ms",
                "audit.ms",
                "audit.rows",
                "sink.ms",
                "sink.bytes_per_round",
                "pipeline.overlap_ms",
                "pipeline.stall_ms",
                "pool.jobs",
                "trace.sessions",
            ],
            Workload::ReplayTreeJournaled => &[
                "resolve.accept_ratio",
                "apply.ms",
                "barrier.ms",
                "barrier.share",
                "barrier.swaps",
                "barrier.ms_per_swap",
                "barrier.rows_repaired",
                "apsp_build.ms",
                "record.ms",
                "journal.append_ms",
                "journal.sync_ms",
                "journal.bytes_per_round",
                "resume.ms",
                "audit.ms",
                "audit.rows",
                "trace.sessions",
            ],
        }
    }
}

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("session_ms_iqm", "ms"),
    ("session_ms_tail", "ms"),
    ("session_cpu_ms_iqm", "ms"),
    ("sessions_per_s", "1/s"),
    ("round_ms_iqm", "ms"),
    ("round_ms_tail", "ms"),
    ("rounds_per_s", "1/s"),
    ("swaps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep.ms", "ms"),
    ("sweep.share", "fraction"),
    ("sweep.candidates", "count"),
    ("sweep.improving", "count"),
    ("sweep.ns_per_candidate", "ns"),
    ("resolve.ms", "ms"),
    ("resolve.accept_ratio", "fraction"),
    ("apply.ms", "ms"),
    ("barrier.ms", "ms"),
    ("barrier.share", "fraction"),
    ("barrier.swaps", "count"),
    ("barrier.ms_per_swap", "ms"),
    ("barrier.rows_repaired", "count"),
    ("barrier.rebuilds", "count"),
    ("apsp_build.ms", "ms"),
    ("perturb.ms", "ms"),
    ("cycle.ms", "ms"),
    ("record.ms", "ms"),
    ("checkpoint.ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.sync_ms", "ms"),
    ("journal.bytes_per_round", "B"),
    ("resume.ms", "ms"),
    ("resume.rounds", "count"),
    ("audit.ms", "ms"),
    ("audit.rows", "count"),
    ("sink.ms", "ms"),
    ("sink.bytes_per_round", "B"),
    ("pipeline.overlap_ms", "ms"),
    ("pipeline.stall_ms", "ms"),
    ("pool.jobs", "count"),
    ("pool.steals", "count"),
    ("trace.sessions", "count"),
    ("trace.residual_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Footprint-disjoint swaps injected before each churn session.
pub const PERTURB_SWAPS: usize = 4;
/// Forward rounds of a replay palindrome (a session replays twice as
/// many).
pub const REPLAY_ROUNDS: usize = 4;
/// Swaps per replayed round.
pub const REPLAY_K: usize = 16;
/// Replay palindromes per start tree, cycled across its sessions.
pub const PALINDROMES: usize = 4;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Vertices of each start graph.
    pub n: usize,
    /// Independent start graphs (one service each) a run cycles its
    /// sessions through, so that a run's statistics rest on many graph
    /// shapes rather than on one. Their set-up times give the `setup_s`
    /// median (converge builds one service per session instead and
    /// reports the median of those).
    pub instances: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` measures, or the small smoke sizes.
    ///
    /// Converge runs at n = 256 so that a 25 s window holds about a
    /// hundred sessions over 16 graphs; at n = 512 a session takes about
    /// 1 s and a window held some 25 sessions over 4 graphs, too few for
    /// a steady centre or a real tail. Churn sets up 8 services because
    /// a set-up (the first convergence of a random tree) takes 1.3–3.5 s
    /// depending on the tree, and `setup_s` is their median. Replay's
    /// barrier cost depends on the tree and the swaps drawn, so its
    /// sessions cycle 8 trees with `PALINDROMES` streams each.
    pub fn for_workload(w: Workload, smoke: bool) -> Sizes {
        let (n, instances) = match w {
            _ if smoke => (64, 2),
            Workload::ConvergeErSum => (256, 16),
            Workload::ChurnTreeMax => (512, 8),
            Workload::ReplayTreeJournaled => (2048, 8),
        };
        Sizes { n, instances }
    }
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
    /// Small inputs (n = 64) for the benchmark's own tests.
    pub smoke: bool,
    /// Directory for the journal, the JSONL record streams and the span
    /// dump.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Sizes for this run.
    pub fn sizes(&self) -> Sizes {
        Sizes::for_workload(self.workload, self.smoke)
    }

    /// `<out_dir>/<workload>-seed<seed>-<what>`.
    pub fn out_file(&self, what: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}-seed{}-{what}", self.workload.name(), self.seed))
    }
}

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives one level below the repository root")
}

/// Runs one workload, untraced or traced.
pub fn run(opts: &Opts) -> std::io::Result<RunResult> {
    std::fs::create_dir_all(&opts.out_dir)?;
    if opts.trace {
        trace::run(opts)
    } else {
        measure::run(opts)
    }
}
