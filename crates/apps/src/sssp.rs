//! Single-source shortest paths: data-driven push over the randomized edge
//! weights, min-reduction on distance (distributed Bellman-Ford).

use dirgl_core::{InitCtx, Lanes, MultiSourceProgram, Style, VertexProgram};
use dirgl_graph::csr::{Csr, VertexId};

use crate::UNREACHED;

/// Per-proxy sssp state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsspState {
    /// Best known distance.
    pub dist: u32,
    /// Best candidate received since the last absorb.
    pub acc: u32,
}

/// Shortest paths from `source`.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// Root vertex.
    pub source: VertexId,
}

impl Sssp {
    /// SSSP from an explicit source.
    pub fn new(source: VertexId) -> Sssp {
        Sssp { source }
    }

    /// The paper's source convention (highest out-degree vertex).
    pub fn from_max_out_degree(g: &Csr) -> Sssp {
        Sssp {
            source: g.max_out_degree_vertex(),
        }
    }
}

impl VertexProgram for Sssp {
    type State = SsspState;
    type Wire = u32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn style(&self) -> Style {
        Style::PushDataDriven
    }

    fn uses_weights(&self) -> bool {
        true
    }

    fn init_state(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> SsspState {
        let d = if gv == self.source { 0 } else { UNREACHED };
        SsspState {
            dist: d,
            acc: UNREACHED,
        }
    }

    fn initially_active(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        gv == self.source
    }

    fn edge_msg(&self, state: &SsspState, weight: u32) -> Option<u32> {
        (state.dist != UNREACHED).then(|| state.dist.saturating_add(weight.max(1)))
    }

    fn accumulate(&self, state: &mut SsspState, msg: u32) -> bool {
        // A compare-and-select: in a relax loop whether a candidate
        // improves follows the edge weights, so a branch on it would
        // mispredict often.
        let better = msg < state.acc.min(state.dist);
        state.acc = std::hint::select_unpredictable(better, msg, state.acc);
        better
    }

    fn absorb(&self, state: &mut SsspState) -> bool {
        if state.acc < state.dist {
            state.dist = state.acc;
            true
        } else {
            false
        }
    }

    fn take_delta(&self, state: &mut SsspState) -> u32 {
        let d = state.acc.min(state.dist);
        state.acc = UNREACHED;
        d
    }

    fn canonical(&self, state: &SsspState) -> u32 {
        state.dist
    }

    fn set_canonical(&self, state: &mut SsspState, v: u32) -> bool {
        if v < state.dist {
            state.dist = v;
            true
        } else {
            false
        }
    }

    fn output(&self, state: &SsspState) -> f64 {
        state.dist as f64
    }
}

/// SSSP semantics depend only on the source, so it batches lane-for-lane.
impl MultiSourceProgram for Sssp {
    type Batched = Lanes<Sssp>;

    fn for_source(&self, source: VertexId) -> Sssp {
        Sssp::new(source)
    }

    fn batched(&self, sources: &[VertexId]) -> Lanes<Sssp> {
        Lanes::new(self, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_applied_with_floor_one() {
        let s = Sssp::new(0);
        let st = SsspState {
            dist: 10,
            acc: UNREACHED,
        };
        assert_eq!(s.edge_msg(&st, 5), Some(15));
        // Zero weights (unweighted graphs) degrade to bfs semantics.
        assert_eq!(s.edge_msg(&st, 0), Some(11));
    }

    #[test]
    fn saturating_distances_never_wrap() {
        let s = Sssp::new(0);
        let st = SsspState {
            dist: u32::MAX - 1,
            acc: UNREACHED,
        };
        assert_eq!(s.edge_msg(&st, 100), Some(u32::MAX));
    }

    /// The branchy form the compare-and-select replaced.
    fn accumulate_branchy(state: &mut SsspState, msg: u32) -> bool {
        if msg < state.acc && msg < state.dist {
            state.acc = msg;
            true
        } else {
            false
        }
    }

    #[test]
    fn accumulate_equals_the_branchy_form() {
        let s = Sssp::new(0);
        let values = [0, 7, 8, 9, UNREACHED - 1, UNREACHED];
        for dist in values {
            for acc in values {
                let st = SsspState { dist, acc };
                // Ties with either field, the unreached sentinel, and one
                // below each field.
                let msgs = [
                    acc,
                    dist,
                    UNREACHED,
                    acc.saturating_sub(1),
                    dist.saturating_sub(1),
                ];
                for msg in msgs {
                    let (mut got, mut want) = (st, st);
                    let took = s.accumulate(&mut got, msg);
                    assert_eq!(took, accumulate_branchy(&mut want, msg), "{st:?} <- {msg}");
                    assert_eq!(got, want, "{st:?} <- {msg}");
                }
            }
        }
        // A tie with either field never improves, nor does the sentinel.
        let mut st = SsspState { dist: 9, acc: 8 };
        assert!(!s.accumulate(&mut st, 8));
        assert!(!s.accumulate(&mut SsspState { dist: 8, acc: 9 }, 8));
        assert!(!s.accumulate(&mut st, UNREACHED));
        assert_eq!(st, SsspState { dist: 9, acc: 8 });
    }

    #[test]
    fn relax_and_absorb() {
        let s = Sssp::new(0);
        let mut st = SsspState {
            dist: 100,
            acc: UNREACHED,
        };
        assert!(s.accumulate(&mut st, 40));
        assert!(s.accumulate(&mut st, 30));
        assert!(s.absorb(&mut st));
        assert_eq!(st.dist, 30);
    }
}
