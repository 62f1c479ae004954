//! Residual pagerank: topology-driven **pull** (§IV-B: "topology-driven
//! execution for pr (residual based algorithm)").
//!
//! Every round, every vertex pulls `α · residual(u) / outdeg(u)` from each
//! in-neighbor `u`, then folds: `rank += residual; residual = pulled sum`.
//! Convergence when no vertex's new residual exceeds the tolerance. Because
//! work per vertex is its **in-degree**, the paper's huge-max-in-degree web
//! crawls make this the benchmark where ALB beats TWC.

use dirgl_core::{InitCtx, Style, VertexProgram};
use dirgl_graph::csr::VertexId;

/// Per-proxy pagerank state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrState {
    /// Accumulated rank.
    pub rank: f32,
    /// Mass to be both applied to rank and propagated this round.
    pub residual: f32,
    /// Incoming mass pulled this round (the add accumulator).
    pub acc: f32,
    /// Precomputed `α / outdeg` (0 for sinks).
    pub kappa: f32,
}

/// Residual pagerank.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor (the paper's frameworks all use 0.85).
    pub alpha: f32,
    /// Residual threshold below which mass is dropped.
    pub tolerance: f32,
    /// Round cap (Lux-parity runs fix the round count instead).
    pub rounds_cap: u32,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank {
            alpha: 0.85,
            tolerance: 1e-4,
            rounds_cap: 1000,
        }
    }
}

impl PageRank {
    /// Standard configuration.
    pub fn new() -> PageRank {
        Self::default()
    }
}

impl VertexProgram for PageRank {
    type State = PrState;
    type Wire = f32;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn style(&self) -> Style {
        Style::PullTopologyDriven
    }

    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> PrState {
        let d = ctx.out_degrees[gv as usize];
        PrState {
            rank: 0.0,
            residual: 1.0 - self.alpha,
            acc: 0.0,
            kappa: if d == 0 { 0.0 } else { self.alpha / d as f32 },
        }
    }

    fn initially_active(&self, _gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        true // topology-driven: ignored, every vertex computes every round
    }

    fn edge_msg(&self, state: &PrState, _weight: u32) -> Option<f32> {
        // Always a message, so the pull body folds every in-edge without a
        // branch: a zero one is inert (see `accumulate`).
        Some(state.residual * state.kappa)
    }

    fn accumulate(&self, state: &mut PrState, msg: f32) -> bool {
        // Unconditional add: a zero message adds +0.0, which is a bitwise
        // no-op because `acc` is a sum of non-negative contributions and
        // never -0.0 (nor is a message: residual and kappa are
        // non-negative), and it reports no change.
        state.acc += msg;
        msg != 0.0
    }

    fn absorb(&self, state: &mut PrState) -> bool {
        let had = state.residual;
        state.rank += state.residual;
        if state.acc > self.tolerance {
            state.residual = state.acc;
            state.acc = 0.0;
        } else {
            // Park sub-tolerance mass in the accumulator instead of
            // dropping it: asynchronous execution delivers contributions in
            // small fragments, and dropping each fragment would bleed rank
            // mass systematically. Parked mass propagates once later
            // fragments push it over the threshold; at quiescence at most
            // `tolerance` per vertex remains unapplied.
            state.residual = 0.0;
        }
        // "Changed" covers the transition *to* zero as well: mirrors must
        // learn the residual drained, or they would re-serve stale mass
        // forever. The engine broadcasts on true and stops when no master
        // returns true two rounds in a row (0 -> 0 is false).
        had > 0.0 || state.residual > 0.0
    }

    fn take_delta(&self, state: &mut PrState) -> f32 {
        let d = state.acc;
        state.acc = 0.0;
        d
    }

    fn canonical(&self, state: &PrState) -> f32 {
        state.residual
    }

    fn set_canonical(&self, state: &mut PrState, v: f32) -> bool {
        if state.residual != v {
            state.residual = v;
            true
        } else {
            false
        }
    }

    fn merge_canonical_async(&self, state: &mut PrState, v: f32) -> bool {
        // Local rounds are not aligned with the master's: each broadcast
        // carries one residual *generation*, delivered additively and
        // consumed by exactly one local pull round.
        if v != 0.0 {
            state.residual += v;
            true
        } else {
            false
        }
    }

    fn consume_after_pull(&self, state: &mut PrState) {
        state.residual = 0.0;
    }

    fn max_rounds(&self) -> u32 {
        self.rounds_cap
    }

    fn output(&self, state: &PrState) -> f64 {
        state.rank as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_scales_kappa_by_out_degree() {
        let degs = vec![4, 0];
        let c = InitCtx::new(2, &degs);
        let pr = PageRank::new();
        let s = pr.init_state(0, &c);
        assert!((s.kappa - 0.85 / 4.0).abs() < 1e-7);
        assert!((s.residual - 0.15).abs() < 1e-7);
        // Sinks contribute nothing.
        let sink = pr.init_state(1, &c);
        assert_eq!(sink.kappa, 0.0);
        assert_eq!(pr.edge_msg(&sink, 0), Some(0.0));
    }

    #[test]
    fn absorb_moves_residual_to_rank_and_drops_tiny_mass() {
        let pr = PageRank::new();
        let mut s = PrState {
            rank: 0.0,
            residual: 0.15,
            acc: 0.05,
            kappa: 0.1,
        };
        assert!(pr.absorb(&mut s));
        assert!((s.rank - 0.15).abs() < 1e-7);
        assert!((s.residual - 0.05).abs() < 1e-7);
        assert_eq!(s.acc, 0.0);
        // Below-tolerance mass drains; the drain itself still reports
        // "changed" (mirrors must learn the residual went to zero), and the
        // following round is quiet.
        s.acc = 1e-6;
        assert!(pr.absorb(&mut s));
        assert_eq!(s.residual, 0.0);
        assert!(!pr.absorb(&mut s));
    }

    #[test]
    fn async_merge_is_additive_and_consumed() {
        let pr = PageRank::new();
        let mut s = PrState {
            rank: 0.0,
            residual: 0.1,
            acc: 0.0,
            kappa: 0.2,
        };
        assert!(pr.merge_canonical_async(&mut s, 0.05));
        assert!((s.residual - 0.15).abs() < 1e-7);
        assert!(!pr.merge_canonical_async(&mut s, 0.0));
        pr.consume_after_pull(&mut s);
        assert_eq!(s.residual, 0.0);
    }
}
