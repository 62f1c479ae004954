//! Lux's pagerank: plain power iteration, topology-driven pull, fixed
//! round count (§IV-B: "recomputes the rank of each vertex in each round"
//! and "does not have a run until convergence option").

use dirgl_core::{InitCtx, Style, VertexProgram};
use dirgl_graph::csr::VertexId;

/// Per-proxy state for Lux-style pagerank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LuxPrState {
    /// Rank of the previous iteration (what neighbors read).
    pub rank: f32,
    /// Sum pulled this iteration.
    pub acc: f32,
    /// Precomputed `α / outdeg` (0 for sinks).
    pub kappa: f32,
}

/// Power-iteration pagerank with a fixed round budget.
#[derive(Clone, Copy, Debug)]
pub struct LuxPageRank {
    /// Damping factor.
    pub alpha: f32,
    /// Iterations to run (no convergence check, as in Lux).
    pub rounds: u32,
}

impl LuxPageRank {
    /// `rounds` power iterations at α = 0.85.
    pub fn new(rounds: u32) -> LuxPageRank {
        LuxPageRank {
            alpha: 0.85,
            rounds,
        }
    }
}

impl VertexProgram for LuxPageRank {
    type State = LuxPrState;
    type Wire = f32;

    fn name(&self) -> &'static str {
        "pagerank(lux)"
    }

    fn style(&self) -> Style {
        Style::PullTopologyDriven
    }

    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> LuxPrState {
        let d = ctx.out_degrees[gv as usize];
        LuxPrState {
            rank: 1.0 / ctx.num_vertices as f32,
            acc: 0.0,
            kappa: if d == 0 { 0.0 } else { self.alpha / d as f32 },
        }
    }

    fn initially_active(&self, _gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        true
    }

    fn edge_msg(&self, state: &LuxPrState, _weight: u32) -> Option<f32> {
        // A zero message is inert: `accumulate` skips it.
        Some(state.rank * state.kappa)
    }

    fn accumulate(&self, state: &mut LuxPrState, msg: f32) -> bool {
        if msg != 0.0 {
            state.acc += msg;
            true
        } else {
            false
        }
    }

    fn absorb(&self, state: &mut LuxPrState) -> bool {
        // Full recomputation: rank_{t+1} = (1-α)/n-scaled base + pulled sum.
        // The (1-α) base is uniform; since every vertex recomputes each
        // round it is folded in here.
        state.rank = (1.0 - self.alpha) + state.acc;
        state.acc = 0.0;
        true // no convergence check: rounds are capped by max_rounds
    }

    fn take_delta(&self, state: &mut LuxPrState) -> f32 {
        let d = state.acc;
        state.acc = 0.0;
        d
    }

    fn canonical(&self, state: &LuxPrState) -> f32 {
        state.rank
    }

    fn set_canonical(&self, state: &mut LuxPrState, v: f32) -> bool {
        if state.rank != v {
            state.rank = v;
            true
        } else {
            false
        }
    }

    fn max_rounds(&self) -> u32 {
        self.rounds
    }

    fn output(&self, state: &LuxPrState) -> f64 {
        state.rank as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_core::{RunConfig, Runtime, Variant};
    use dirgl_gpusim::{Balancer, Platform};
    use dirgl_partition::Policy;

    #[test]
    fn runs_exactly_the_requested_rounds() {
        let g = dirgl_graph::RmatConfig::new(8, 4).seed(7).generate();
        let rt = Runtime::new(
            Platform::bridges(2),
            RunConfig::new(
                Policy::Iec,
                Variant {
                    balancer: Balancer::Tb,
                    comm: dirgl_comm::CommMode::AllShared,
                    model: dirgl_core::ExecModel::Sync,
                },
            ),
        );
        let out = rt.runner(&g, &LuxPageRank::new(25)).execute().unwrap();
        assert_eq!(out.report.rounds, 25);
    }

    #[test]
    fn hub_outranks_leaves() {
        let mut b = dirgl_graph::csr::CsrBuilder::new(6);
        for i in 1..6 {
            b.add(i, 0);
        }
        let g = b.build();
        let rt = Runtime::new(
            Platform::bridges(2),
            RunConfig::new(Policy::Iec, Variant::var1()),
        );
        let out = rt.runner(&g, &LuxPageRank::new(30)).execute().unwrap();
        assert!(out.values[0] > 2.0 * out.values[1]);
    }
}
