//! The untraced run: drives the service through its public API and
//! reports the end-to-end metrics.
//!
//! Each run builds `Sizes::instances` independent start graphs from its
//! seed, one service each, and cycles its sessions through them.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bncg_bench::workload::{synth_round, synth_round_palindrome};
use bncg_core::objective::{MaxObjective, SumObjective};
use bncg_core::swap::SwapMove;
use bncg_dynamics::service::{AuditPolicy, JournalOptions, RoundService, ServiceConfig};
use bncg_dynamics::sink::{JsonlSink, NullSink};
use bncg_dynamics::{Outcome, RoundConfig, RoundDynamics};
use bncg_graph::components::{connected_components, is_connected};
use bncg_graph::generators::random::{random_connected, random_tree};
use bncg_graph::{graph6, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{
    host_steal, iqm, median, ms, num, obj, peak_rss_mib, process_cpu, tail, RunResult,
};
use crate::sinks::StampSink;
use crate::{Opts, Workload, PALINDROMES, PERTURB_SWAPS, REPLAY_K, REPLAY_ROUNDS};

/// Runs `opts.workload` untraced.
pub fn run(opts: &Opts) -> io::Result<RunResult> {
    match opts.workload {
        Workload::ConvergeErSum => converge(opts),
        Workload::ChurnTreeMax => churn(opts),
        Workload::ReplayTreeJournaled => replay(opts),
    }
}

/// Converge inputs: `random_connected(n, n/4)` start graphs, each with
/// the graph6 of the graph `RoundDynamics::run` converges to — the
/// reference every session on it must reproduce.
pub fn converge_inputs(opts: &Opts) -> Vec<(Graph, String)> {
    let s = opts.sizes();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    (0..s.instances)
        .map(|_| {
            let g = random_connected(&mut rng, s.n, s.n / 4);
            let r = RoundDynamics::<SumObjective>::new(RoundConfig::default()).run(&g);
            (g, graph6::encode(&r.graph))
        })
        .collect()
}

/// Churn inputs: random start trees, plus the generator the
/// perturbations are drawn from.
pub fn churn_inputs(opts: &Opts) -> (Vec<Graph>, StdRng) {
    let s = opts.sizes();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let trees = (0..s.instances)
        .map(|_| random_tree(&mut rng, s.n))
        .collect();
    (trees, rng)
}

/// A churn perturbation: the first `synth_round` draw of
/// `PERTURB_SWAPS` swaps that does not split `g` into more components.
/// A swap on a tree often disconnects it, and swaps can never reconnect
/// a forest (each deletes a bridge for the edge it adds), so under the
/// Max objective every agent's cost would stay infinite, nobody would
/// move, and the service would idle through the rest of the run.
///
/// The draw is not required to leave `g` connected: the round dynamics
/// itself sometimes disconnects a tree (two swaps that are each
/// improving alone cut it together, and the session then reports
/// `Converged` at infinite cost). Reconnecting such a graph takes about
/// one draw in a million, which would stall a run for tens of seconds
/// outside any timed session, so that service is served as it is.
pub fn perturbation(rng: &mut StdRng, g: &Graph) -> Vec<SwapMove> {
    let parts = connected_components(g).1;
    loop {
        let swaps = synth_round(rng, g, PERTURB_SWAPS);
        let mut after = g.clone();
        for mv in &swaps {
            mv.apply(&mut after);
        }
        if connected_components(&after).1 <= parts {
            return swaps;
        }
    }
}

/// The pipelined churn service on `g`, converged once; returns it, its
/// set-up time, and whether the set-up session ran to its end.
pub fn churn_service(g: &Graph) -> (RoundService<MaxObjective>, Duration, bool) {
    let t0 = Instant::now();
    let cfg = ServiceConfig {
        rounds: RoundConfig::default(),
        pipelined: true,
    };
    let mut svc = RoundService::<MaxObjective>::new(g, cfg);
    let rep = svc.run_session_plain();
    (svc, t0.elapsed(), !rep.interrupted)
}

/// One replay start tree and its palindromic round streams.
pub struct ReplayInput {
    pub g0: Graph,
    pub streams: Vec<Vec<Vec<SwapMove>>>,
}

/// Replay inputs: random start trees, each with palindromes of
/// footprint-disjoint rounds that return it to its start.
pub fn replay_inputs(opts: &Opts) -> Vec<ReplayInput> {
    let s = opts.sizes();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    (0..s.instances)
        .map(|_| {
            let g0 = random_tree(&mut rng, s.n);
            let streams = (0..PALINDROMES)
                .map(|_| synth_round_palindrome(&mut rng, &g0, REPLAY_ROUNDS, REPLAY_K))
                .collect();
            ReplayInput { g0, streams }
        })
        .collect()
}

/// Journal file of replay instance `i`.
pub fn journal_path(opts: &Opts, i: usize) -> PathBuf {
    opts.out_file(&format!("journal-{i}.jsonl"))
}

/// The journaled serial replay service on `g0`.
pub fn replay_service(
    g0: &Graph,
    journal: &std::path::Path,
) -> io::Result<RoundService<SumObjective>> {
    let mut svc = RoundService::<SumObjective>::new(g0, ServiceConfig::default());
    svc.attach_journal(journal, JournalOptions::default())?;
    svc.set_audit_policy(AuditPolicy {
        every_rounds: 1,
        stripe_rows: 16,
    });
    Ok(svc)
}

/// Which instance and stream session `i` uses when a run cycles through
/// `instances` services with `streams` streams each.
pub fn pick(i: usize, instances: usize, streams: usize) -> (usize, usize) {
    (i % instances, (i / instances) % streams.max(1))
}

/// Samples of one measured window.
#[derive(Default)]
struct Window {
    setup: Vec<Duration>,
    session: Vec<Duration>,
    /// Process CPU time (all threads) per session.
    session_cpu: Vec<Duration>,
    /// Swaps the dynamics or the replay applied, per session.
    session_swaps: Vec<u64>,
    round: Vec<Duration>,
    rounds: u64,
    wall: Duration,
    peak_rss_mib: f64,
    /// Host steal share over the window.
    steal_frac: f64,
}

impl Window {
    fn session(&mut self, took: Duration, cpu: Duration, rounds: usize, swaps: usize) {
        self.session.push(took);
        self.session_cpu.push(cpu);
        self.session_swaps.push(swaps as u64);
        self.rounds += rounds as u64;
    }

    /// Closes the window: its wall time, the host steal share over it
    /// (`steal0` read when it opened), and the peak RSS so far (read
    /// before the end-of-run checks, which build extra contexts).
    fn close(&mut self, start: Instant, steal0: (u64, u64)) {
        self.wall = start.elapsed();
        let (steal, total) = host_steal();
        self.steal_frac =
            steal.saturating_sub(steal0.0) as f64 / total.saturating_sub(steal0.1).max(1) as f64;
        self.peak_rss_mib = peak_rss_mib();
    }

    fn report(self, out: &mut RunResult) {
        let f = |ds: &[Duration]| ds.iter().map(|&d| ms(d)).collect::<Vec<f64>>();
        let (session, round) = (f(&self.session), f(&self.round));
        let session_cpu = f(&self.session_cpu);
        let setup_s: Vec<f64> = self.setup.iter().map(Duration::as_secs_f64).collect();
        let swap_rates: Vec<f64> = self
            .session_swaps
            .iter()
            .zip(&self.session)
            .map(|(&k, d)| k as f64 / d.as_secs_f64().max(f64::MIN_POSITIVE))
            .collect();
        let secs = self.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let (session_p, session_tail) = tail(&session);
        let (round_p, round_tail) = tail(&round);
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("session_ms_iqm", iqm(&session), "ms");
        out.metric("session_ms_tail", session_tail, "ms");
        out.metric("session_cpu_ms_iqm", iqm(&session_cpu), "ms");
        out.metric("sessions_per_s", session.len() as f64 / secs, "1/s");
        out.metric("round_ms_iqm", iqm(&round), "ms");
        out.metric("round_ms_tail", round_tail, "ms");
        out.metric("rounds_per_s", self.rounds as f64 / secs, "1/s");
        out.metric("swaps_per_s", iqm(&swap_rates), "1/s");
        out.metric("peak_rss_mb", self.peak_rss_mib, "MiB");
        out.detail(
            "samples",
            obj([
                ("setup", num(setup_s.len() as f64)),
                ("sessions", num(session.len() as f64)),
                ("barrier_rounds", num(round.len() as f64)),
                ("rounds", num(self.rounds as f64)),
                ("swaps", num(self.session_swaps.iter().sum::<u64>() as f64)),
                ("window_s", num(secs)),
                ("host_steal_frac", num(self.steal_frac)),
            ]),
        );
        out.detail(
            "tail_percentiles",
            obj([
                ("session_ms_tail", num(f64::from(session_p))),
                ("round_ms_tail", num(f64::from(round_p))),
            ]),
        );
    }
}

/// Whether the measured window is still open (at least one session).
pub fn open(start: Instant, sessions: usize, seconds: f64) -> bool {
    sessions == 0 || start.elapsed().as_secs_f64() < seconds
}

fn converge(opts: &Opts) -> io::Result<RunResult> {
    let inputs = converge_inputs(opts);
    let mut out = RunResult::default();
    let mut w = Window::default();
    let mut sink = StampSink::new(NullSink);
    let (start, steal0) = (Instant::now(), host_steal());
    while open(start, w.session.len(), opts.seconds) {
        let (g, want) = &inputs[pick(w.session.len(), inputs.len(), 1).0];
        let (t0, cpu0) = (Instant::now(), process_cpu());
        let mut svc = RoundService::<SumObjective>::new(g, ServiceConfig::default());
        let built = t0.elapsed();
        let t1 = Instant::now();
        let rep = svc.run_session(&mut sink);
        let (took, cpu) = (t0.elapsed(), process_cpu() - cpu0);
        w.setup.push(built);
        w.session(took, cpu, rep.result.rounds, rep.result.moves_applied);
        sink.drain_round_gaps(t1, &mut w.round);
        let got = graph6::encode(svc.graph());
        out.check(
            rep.result.outcome == Outcome::Converged && !rep.interrupted && &got == want,
            || {
                format!(
                    "converge session {}: outcome {:?}, interrupted {}, graph equals reference {}",
                    w.session.len(),
                    rep.result.outcome,
                    rep.interrupted,
                    &got == want
                )
            },
        );
    }
    w.close(start, steal0);
    w.report(&mut out);
    Ok(out)
}

fn churn(opts: &Opts) -> io::Result<RunResult> {
    let s = opts.sizes();
    let (trees, mut rng) = churn_inputs(opts);
    let mut out = RunResult::default();
    let mut w = Window::default();
    let mut services = Vec::new();
    for (i, g) in trees.iter().enumerate() {
        let (svc, took, ok) = churn_service(g);
        out.check_end(ok, || format!("churn set-up {i} was interrupted"));
        w.setup.push(took);
        services.push(svc);
    }
    let disconnected = |services: &[RoundService<MaxObjective>]| {
        num(services.iter().filter(|s| !is_connected(s.graph())).count() as f64)
    };
    let after_setup = disconnected(&services);
    let file = File::create(opts.out_file("records.jsonl"))?;
    let mut sink = StampSink::new(JsonlSink::new(BufWriter::new(file)));
    let (start, steal0) = (Instant::now(), host_steal());
    while open(start, w.session.len(), opts.seconds) {
        let svc = &mut services[pick(w.session.len(), trees.len(), 1).0];
        let swaps = perturbation(&mut rng, svc.graph());
        let (t0, cpu0) = (Instant::now(), process_cpu());
        svc.perturb(&swaps);
        let t1 = Instant::now();
        let rep = svc.run_session(&mut sink);
        let (took, cpu) = (t0.elapsed(), process_cpu() - cpu0);
        w.session(took, cpu, rep.result.rounds, rep.result.moves_applied);
        sink.drain_round_gaps(t1, &mut w.round);
        out.check(!rep.interrupted, || {
            format!("churn session {} was interrupted", w.session.len())
        });
    }
    w.close(start, steal0);
    out.detail(
        "disconnected_services",
        obj([
            ("after_setup", after_setup),
            ("at_end", disconnected(&services)),
        ]),
    );
    out.check_end(sink.inner.error().is_none(), || {
        format!("churn record stream failed: {:?}", sink.inner.error())
    });
    for (i, svc) in services.iter_mut().enumerate() {
        svc.set_audit_policy(AuditPolicy {
            every_rounds: 0,
            stripe_rows: s.n,
        });
        let divergent = svc.run_audit();
        out.check_end(divergent == 0, || {
            format!("churn service {i}: full-matrix audit found {divergent} divergent rows")
        });
    }
    w.report(&mut out);
    Ok(out)
}

fn replay(opts: &Opts) -> io::Result<RunResult> {
    let inputs = replay_inputs(opts);
    let mut out = RunResult::default();
    let mut w = Window::default();
    let mut services = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        services.push(replay_service(&input.g0, &journal_path(opts, i))?);
        w.setup.push(t0.elapsed());
    }
    let mut sink = StampSink::new(NullSink);
    let (start, steal0) = (Instant::now(), host_steal());
    while open(start, w.session.len(), opts.seconds) {
        let (i, k) = pick(w.session.len(), inputs.len(), PALINDROMES);
        let svc = &mut services[i];
        let (t0, cpu0) = (Instant::now(), process_cpu());
        let rep = svc.replay_session(&inputs[i].streams[k], &mut sink);
        let (took, cpu) = (t0.elapsed(), process_cpu() - cpu0);
        w.session(took, cpu, rep.result.rounds, rep.result.moves_applied);
        sink.drain_round_gaps(t0, &mut w.round);
        let restored = svc.graph() == &inputs[i].g0;
        out.check(!rep.interrupted && restored, || {
            format!(
                "replay session {}: interrupted {}, start graph restored {restored}",
                w.session.len(),
                rep.interrupted,
            )
        });
    }
    w.close(start, steal0);
    for (i, svc) in services.iter().enumerate() {
        out.check_end(svc.journal_error().is_none(), || {
            format!("replay journal {i} failed: {:?}", svc.journal_error())
        });
    }
    // Resume re-applies every round since the journal's last checkpoint
    // at barrier cost, so only the first journal is resumed.
    match RoundService::<SumObjective>::resume(&journal_path(opts, 0)) {
        Ok((back, _)) => out.check_end(back.graph() == services[0].graph(), || {
            "resume from replay journal 0 reached another graph".into()
        }),
        Err(e) => out.check_end(false, || {
            format!("resume from replay journal 0 failed: {e}")
        }),
    }
    w.report(&mut out);
    Ok(out)
}
