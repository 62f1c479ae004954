//! Breadth-first search: data-driven push, min-reduction on level.

use dirgl_core::{InitCtx, MsBfs, MultiSourceProgram, Style, VertexProgram};
use dirgl_graph::csr::{Csr, VertexId};

use crate::UNREACHED;

/// Per-proxy bfs state: the canonical level and the min accumulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BfsState {
    /// Best known level (canonical on masters).
    pub dist: u32,
    /// Best candidate received since the last absorb.
    pub acc: u32,
}

/// Breadth-first search from `source`.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// Root vertex of the traversal.
    pub source: VertexId,
}

impl Bfs {
    /// BFS from an explicit source.
    pub fn new(source: VertexId) -> Bfs {
        Bfs { source }
    }

    /// The paper's convention: "the vertex with the highest out-degree is
    /// used as the source vertex for bfs and sssp".
    pub fn from_max_out_degree(g: &Csr) -> Bfs {
        Bfs {
            source: g.max_out_degree_vertex(),
        }
    }
}

impl VertexProgram for Bfs {
    type State = BfsState;
    type Wire = u32;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn style(&self) -> Style {
        Style::PushDataDriven
    }

    fn init_state(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> BfsState {
        let d = if gv == self.source { 0 } else { UNREACHED };
        BfsState {
            dist: d,
            acc: UNREACHED,
        }
    }

    fn initially_active(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        gv == self.source
    }

    fn edge_msg(&self, state: &BfsState, _weight: u32) -> Option<u32> {
        (state.dist != UNREACHED).then(|| state.dist + 1)
    }

    fn accumulate(&self, state: &mut BfsState, msg: u32) -> bool {
        if msg < state.acc && msg < state.dist {
            state.acc = msg;
            true
        } else {
            false
        }
    }

    fn absorb(&self, state: &mut BfsState) -> bool {
        if state.acc < state.dist {
            state.dist = state.acc;
            true
        } else {
            false
        }
    }

    fn take_delta(&self, state: &mut BfsState) -> u32 {
        let d = state.acc.min(state.dist);
        state.acc = UNREACHED;
        d
    }

    fn canonical(&self, state: &BfsState) -> u32 {
        state.dist
    }

    fn set_canonical(&self, state: &mut BfsState, v: u32) -> bool {
        if v < state.dist {
            state.dist = v;
            true
        } else {
            false
        }
    }

    fn output(&self, state: &BfsState) -> f64 {
        state.dist as f64
    }
}

/// BFS batches as [`MsBfs`]: mask-only wires, levels derived from the
/// round clock — see the core docs for why the generic value-lane form
/// is never the right encoding for bfs.
impl MultiSourceProgram for Bfs {
    type Batched = MsBfs;

    fn for_source(&self, source: VertexId) -> Bfs {
        Bfs::new(source)
    }

    fn batched(&self, sources: &[VertexId]) -> MsBfs {
        MsBfs::new(sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Vec<u32> {
        vec![1; 4]
    }

    #[test]
    fn init_and_activation() {
        let degs = ctx();
        let c = InitCtx::new(4, &degs);
        let b = Bfs::new(2);
        assert_eq!(b.init_state(2, &c).dist, 0);
        assert_eq!(b.init_state(0, &c).dist, UNREACHED);
        assert!(b.initially_active(2, &c));
        assert!(!b.initially_active(0, &c));
    }

    #[test]
    fn min_semantics() {
        let b = Bfs::new(0);
        let mut s = BfsState {
            dist: 10,
            acc: UNREACHED,
        };
        assert!(b.accumulate(&mut s, 5));
        assert!(!b.accumulate(&mut s, 7)); // worse than acc
        assert!(b.absorb(&mut s));
        assert_eq!(s.dist, 5);
        assert!(!b.absorb(&mut s)); // idempotent
        assert_eq!(b.edge_msg(&s, 99), Some(6)); // weight ignored
    }

    #[test]
    fn delta_resets_accumulator() {
        let b = Bfs::new(0);
        let mut s = BfsState { dist: 4, acc: 3 };
        assert_eq!(b.take_delta(&mut s), 3);
        assert_eq!(s.acc, UNREACHED);
        // Untouched mirror ships its canonical view.
        let mut t = BfsState {
            dist: 7,
            acc: UNREACHED,
        };
        assert_eq!(b.take_delta(&mut t), 7);
    }

    #[test]
    fn unreached_vertices_push_nothing() {
        let b = Bfs::new(0);
        let s = BfsState {
            dist: UNREACHED,
            acc: UNREACHED,
        };
        assert_eq!(b.edge_msg(&s, 1), None);
    }
}
