//! Swap-move representation.
//!
//! A move belongs to one agent `v` and replaces the existing incident edge
//! `vw` with the incident edge `vw'`. Following the paper, `w' = w` is a
//! no-op and a swap onto an already existing edge `vw'` is a deletion.

use bncg_graph::adjacency::Edge;
use bncg_graph::{Graph, V};
use serde::{Deserialize, Serialize};

/// An edge swap by agent `v`: replace `vw` with `vw2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SwapMove {
    /// The acting agent.
    pub v: V,
    /// Neighbor losing its edge to `v`.
    pub w: V,
    /// Vertex gaining an edge to `v` (may already be adjacent — deletion).
    pub w2: V,
}

impl SwapMove {
    /// Whether the move is a pure deletion in `g` (target edge exists).
    pub fn is_deletion_in(&self, g: &Graph) -> bool {
        self.w2 != self.w && g.has_edge(self.v, self.w2)
    }

    /// Applies the move to `g`; returns the undo record.
    pub fn apply(&self, g: &mut Graph) -> bncg_graph::adjacency::SwapApplied {
        g.apply_swap(self.v, self.w, self.w2)
    }

    /// The move's **edge footprint**: the (normalized) deleted edge `vw`
    /// and target edge `vw2`. Round-based dynamics accept a set of
    /// simultaneous moves only when their footprints are pairwise
    /// disjoint, which keeps the accepted batch well-formed against the
    /// frozen snapshot (deleted edges all present and distinct, inserted
    /// edges distinct and never colliding with a deletion).
    pub fn footprint(&self) -> [Edge; 2] {
        [Edge::new(self.v, self.w), Edge::new(self.v, self.w2)]
    }

    /// Whether two simultaneous moves touch a common edge (the conflict
    /// predicate of the round engine's deterministic resolution).
    pub fn conflicts_with(&self, other: &SwapMove) -> bool {
        let a = self.footprint();
        other.footprint().iter().any(|e| a.contains(e))
    }
}

/// A swap together with the agent's costs before and after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoredSwap {
    /// The move.
    pub mv: SwapMove,
    /// Agent's usage cost before the move.
    pub old_cost: u64,
    /// Agent's usage cost after the move.
    pub new_cost: u64,
}

impl ScoredSwap {
    /// Cost decrease (positive for improving moves).
    pub fn improvement(&self) -> i64 {
        // Costs fit well within i64 for the graph sizes in play.
        self.old_cost as i64 - self.new_cost as i64
    }

    /// Whether the move strictly improves the agent's cost.
    pub fn is_improving(&self) -> bool {
        self.new_cost < self.old_cost
    }

    /// Stores `cand` in `best` when it is strictly cheaper than the
    /// current holder. This is the one tie-break of every response scan:
    /// fed candidates in scan order, the earliest of the cheapest wins.
    #[inline]
    pub(crate) fn keep_cheaper(best: &mut Option<ScoredSwap>, cand: ScoredSwap) {
        if best.as_ref().is_none_or(|b| cand.new_cost < b.new_cost) {
            *best = Some(cand);
        }
    }
}

/// Enumerates the agent-edge pairs of `g`: every ordered pair `(v, w)` with
/// `vw ∈ E`. Each undirected edge yields two entries, one per acting agent.
pub fn agent_edge_pairs(g: &Graph) -> Vec<(V, V)> {
    let mut out = Vec::with_capacity(2 * g.m());
    for e in g.edge_vec() {
        out.push((e.u, e.v));
        out.push((e.v, e.u));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bncg_graph::generators::classic;

    #[test]
    fn scored_swap_improvement_sign() {
        let mv = SwapMove { v: 0, w: 1, w2: 2 };
        let better = ScoredSwap {
            mv,
            old_cost: 10,
            new_cost: 7,
        };
        assert!(better.is_improving());
        assert_eq!(better.improvement(), 3);
        let worse = ScoredSwap {
            mv,
            old_cost: 7,
            new_cost: 10,
        };
        assert!(!worse.is_improving());
        assert_eq!(worse.improvement(), -3);
    }

    #[test]
    fn deletion_detection() {
        let g = classic::complete(4);
        let del = SwapMove { v: 0, w: 1, w2: 2 };
        assert!(del.is_deletion_in(&g));
        let g2 = classic::path(4);
        let swp = SwapMove { v: 0, w: 1, w2: 3 };
        assert!(!swp.is_deletion_in(&g2));
    }

    #[test]
    fn agent_edge_pairs_cover_both_directions() {
        let g = classic::path(3);
        let pairs = agent_edge_pairs(&g);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&(0, 1)) && pairs.contains(&(1, 0)));
        assert!(pairs.contains(&(1, 2)) && pairs.contains(&(2, 1)));
    }
}
