//! Paper-sanity properties of the shipped game variants.
//!
//! One test family per rule set:
//! - **Bounded budgets** — no accepted move (in any engine, batched or
//!   sequential) ever pushes a vertex past its edge budget.
//! - **Communication interests** — the masked-kernel agent cost equals a
//!   brute-force BFS sum over the interest set, reachable or not.
//! - **Edge-major sweeps** — `best_responses_par` of the bounded-budget
//!   and interest games equals their sequential `best_response` mapped
//!   over every agent.
//! - **k-swap move sets** — [`single_swap_moves`] enumerates exactly the
//!   candidate set the evaluator's swap scan visits, `GameRules::moves`
//!   at `k = 1` is that set under the basic game, and 1-swap stability
//!   from the k-swap auditor coincides with "no improving response".
//!
//! The 2-neighborhood game's no-APSP guarantee lives in its own binary
//! (`tests/game_telemetry.rs`) because it asserts on process-global
//! telemetry counters.

use std::collections::VecDeque;

use bncg::dynamics::engine::Response;
use bncg::dynamics::rounds::{step_round, RoundConfig, RoundDynamics};
use bncg::game::context::EvalContext;
use bncg::game::kswap::{is_k_swap_stable, k_swap_audit, single_swap_moves};
use bncg::game::objective::{MaxObjective, SumObjective, INFINITE_COST};
use bncg::game::rules::{BoundedBudgetGame, GameRules, InterestGame};
use bncg::graph::generators::classic;
use bncg::graph::generators::random::{gnp, random_tree};
use bncg::graph::{Graph, V};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// Bounded budgets.

/// Runs round dynamics under `rules` and asserts, after every single
/// round barrier, that no vertex exceeds its budget (the start graph is
/// within budget by construction via `from_degrees`).
fn assert_budgets_hold(start: &Graph, slack: u32, response: Response, label: &str) {
    let rules: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::from_degrees(start, slack);
    let mut g = start.clone();
    let mut ctx = EvalContext::new(&g);
    ctx.base();
    for round in 1..=40 {
        let step = step_round(&rules, &mut ctx, &mut g, response);
        for v in 0..g.n() as V {
            let deg = g.neighbors(v).len() as u32;
            assert!(
                deg <= rules.budget(v),
                "round {round}: vertex {v} at degree {deg} > budget {} ({label})",
                rules.budget(v)
            );
        }
        if step.proposed == 0 {
            break;
        }
    }
    // The engine wrapper takes the same path; pin its final state too.
    let res = RoundDynamics::with_rules(
        RoundConfig {
            response,
            ..RoundConfig::default()
        },
        rules.clone(),
    )
    .run(start);
    for v in 0..res.graph.n() as V {
        let deg = res.graph.neighbors(v).len() as u32;
        assert!(deg <= rules.budget(v), "engine final state ({label})");
    }
}

#[test]
fn budgets_are_never_exceeded_by_accepted_moves() {
    let mut rng = StdRng::seed_from_u64(0xB0D9);
    for i in 0..4 {
        let er = gnp(&mut rng, 18 + 2 * i, 0.18);
        assert_budgets_hold(&er, 1, Response::Best, "er/slack1/best");
        assert_budgets_hold(&er, 2, Response::FirstImproving, "er/slack2/first");
        let t = random_tree(&mut rng, 16 + 2 * i);
        assert_budgets_hold(&t, 1, Response::Best, "tree/slack1/best");
    }
}

#[test]
fn zero_slack_budget_freezes_a_path() {
    // With zero headroom every insertion target is full, so the budget
    // game converges immediately where the basic game would rewire.
    let g = classic::path(10);
    let rules: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::from_degrees(&g, 0);
    let res = RoundDynamics::with_rules(RoundConfig::default(), rules).run(&g);
    assert_eq!(res.graph, g, "zero-slack path must be frozen");
    assert_eq!(res.moves_applied, 0);
}

// ---------------------------------------------------------------------------
// Communication interests.

/// Unweighted BFS distances from `src` (`None` = unreachable).
fn bfs(g: &Graph, src: V) -> Vec<Option<u32>> {
    let n = g.n();
    let mut dist = vec![None; n];
    dist[src as usize] = Some(0);
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize].unwrap();
        for &w in g.neighbors(u) {
            if dist[w as usize].is_none() {
                dist[w as usize] = Some(du + 1);
                q.push_back(w);
            }
        }
    }
    dist
}

fn brute_interest_cost(g: &Graph, v: V, interests: &[V]) -> u64 {
    let dist = bfs(g, v);
    let mut sum = 0u64;
    for &x in interests {
        match dist[x as usize] {
            Some(d) => sum += u64::from(d),
            None => return INFINITE_COST,
        }
    }
    sum
}

#[test]
fn interest_cost_equals_brute_force_bfs_sum() {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    for i in 0..6 {
        // gnp graphs are frequently disconnected at this density, which
        // is the point: unreachable interests must price as infinite on
        // both sides.
        let g = gnp(&mut rng, 16 + 2 * i, 0.12);
        let rules = InterestGame::ring(g.n(), 3);
        let ctx = EvalContext::new(&g);
        for v in 0..g.n() as V {
            assert_eq!(
                rules.agent_cost(&ctx, v),
                brute_interest_cost(&g, v, rules.interests(v)),
                "agent {v} on graph {i}"
            );
        }
    }
}

#[test]
fn empty_interest_sets_cost_nothing_and_never_move() {
    let g = classic::path(7);
    let ctx = EvalContext::new(&g);
    let rules = InterestGame::new(vec![Vec::new(); 7]);
    for v in 0..7 {
        assert_eq!(rules.agent_cost(&ctx, v), 0);
        assert_eq!(rules.best_response(&ctx, v), None);
        assert_eq!(rules.first_improving_response(&ctx, v), None);
    }
    assert_eq!(rules.social_cost(&ctx), Some(0));
}

// ---------------------------------------------------------------------------
// Edge-major sweeps of the variant games.

/// `best_responses_par` (the edge-major sweep) must equal the sequential
/// `best_response` mapped over every agent, slot for slot.
fn assert_sweep_matches_per_agent<R: GameRules>(rules: &R, g: &Graph, label: &str) {
    let ctx = EvalContext::new(g);
    let per_agent: Vec<_> = (0..g.n() as V)
        .map(|v| rules.best_response(&ctx, v))
        .collect();
    assert_eq!(rules.best_responses_par(&ctx), per_agent, "{label}");
}

#[test]
fn variant_sweeps_match_per_agent_best_responses() {
    let mut graphs: Vec<Graph> = Vec::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xED9E + seed);
        graphs.push(gnp(&mut rng, 20 + 4 * seed as usize, 0.15));
        graphs.push(random_tree(&mut rng, 18 + 3 * seed as usize));
    }
    let mut forest = classic::path(16);
    forest.remove_edge(5, 6);
    forest.remove_edge(11, 12);
    graphs.push(forest);
    for (i, g) in graphs.iter().enumerate() {
        let n = g.n();
        let tight: BoundedBudgetGame<SumObjective> = BoundedBudgetGame::from_degrees(g, 1);
        assert_sweep_matches_per_agent(&tight, g, &format!("budget-sum, graph {i}"));
        let capped: BoundedBudgetGame<MaxObjective> = BoundedBudgetGame::uniform(n, 3);
        assert_sweep_matches_per_agent(&capped, g, &format!("budget-max, graph {i}"));
        let ring = InterestGame::ring(n, 3);
        assert_sweep_matches_per_agent(&ring, g, &format!("interest ring, graph {i}"));
        // Every third agent has no interests: edges between two such
        // agents are skipped by the sweep without changing any slot.
        let sparse = InterestGame::new(
            (0..n)
                .map(|v| {
                    if v % 3 == 0 {
                        Vec::new()
                    } else {
                        vec![((v * 7 + 1) % n) as V, ((v * 5 + 2) % n) as V]
                    }
                })
                .collect(),
        );
        assert_sweep_matches_per_agent(&sparse, g, &format!("interest sparse, graph {i}"));
    }
}

// ---------------------------------------------------------------------------
// k-swap move sets through `GameRules::moves`.

#[test]
fn single_swap_moves_match_the_scan_enumeration_order() {
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    for i in 0..4 {
        let g = gnp(&mut rng, 14 + i, 0.25);
        let csr = g.to_csr();
        let n = g.n() as V;
        for v in 0..n {
            // The reference enumeration: incident edges in CSR order,
            // replacement endpoints ascending, skipping {v, w} — exactly
            // what EdgeSwapScan's candidate sweep visits.
            let mut reference = Vec::new();
            for &w in csr.neighbors(v) {
                for w2 in 0..n {
                    if w2 != v && w2 != w {
                        reference.push((v, w, w2));
                    }
                }
            }
            let moves: Vec<_> = single_swap_moves(&csr, v)
                .into_iter()
                .map(|m| (m.v, m.w, m.w2))
                .collect();
            assert_eq!(moves, reference, "agent {v} on graph {i}");
        }
    }
}

#[test]
fn basic_game_moves_are_the_unfiltered_single_swap_set() {
    let mut rng = StdRng::seed_from_u64(0x5CA8);
    let g = gnp(&mut rng, 16, 0.2);
    let ctx = EvalContext::new(&g);
    for v in 0..g.n() as V {
        assert_eq!(
            GameRules::moves(&SumObjective, &ctx, v),
            single_swap_moves(&g.to_csr(), v)
        );
        assert_eq!(
            GameRules::moves(&MaxObjective, &ctx, v),
            single_swap_moves(&g.to_csr(), v)
        );
    }
}

#[test]
fn one_swap_stability_coincides_with_no_improving_response() {
    let mut rng = StdRng::seed_from_u64(0x5CA9);
    for i in 0..4 {
        // k_swap_audit requires connectivity; trees guarantee it.
        let g = random_tree(&mut rng, 12 + i);
        let ctx = EvalContext::new(&g);
        for v in 0..g.n() as V {
            let stable = k_swap_audit(&g, v, 1).is_stable();
            let response = GameRules::best_response(&MaxObjective, &ctx, v);
            assert_eq!(
                stable,
                response.is_none(),
                "agent {v} on tree {i}: audit and response rule disagree"
            );
        }
        assert_eq!(
            is_k_swap_stable(&g, 1),
            (0..g.n() as V).all(|v| GameRules::best_response(&MaxObjective, &ctx, v).is_none())
        );
    }
}
