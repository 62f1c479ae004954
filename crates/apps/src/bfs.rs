//! Breadth-first search: data-driven push, min-reduction on level.

use dirgl_core::{MinLabel, MsBfs, MultiSourceProgram};
use dirgl_graph::csr::{Csr, VertexId};

use crate::UNREACHED;

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

impl MinLabel for Bfs {
    fn program_name(&self) -> &'static str {
        "bfs"
    }

    #[inline]
    fn seed(&self, gv: VertexId) -> u32 {
        if gv == self.source {
            0
        } else {
            UNREACHED
        }
    }

    #[inline]
    fn relax(&self, level: u32, _weight: u32) -> u32 {
        level + 1
    }
}

/// BFS batches as [`MsBfs`]: mask-only wires, levels derived from the
/// round clock — see the core docs for why the generic value-lane form
/// is never the right encoding for bfs.
impl MultiSourceProgram for Bfs {
    type Batched<const N: usize> = MsBfs<N>;

    fn for_source(&self, source: VertexId) -> Bfs {
        Bfs::new(source)
    }

    fn batched<const N: usize>(&self, sources: &[VertexId]) -> MsBfs<N> {
        MsBfs::new(sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_core::{InitCtx, MinState, VertexProgram};

    #[test]
    fn init_and_activation() {
        let degs = vec![1; 4];
        let c = InitCtx::new(4, &degs);
        let b = Bfs::new(2);
        assert_eq!(b.init_state(2, &c).label, 0);
        assert_eq!(b.init_state(0, &c).label, UNREACHED);
        assert!(b.initially_active(2, &c));
        assert!(!b.initially_active(0, &c));
    }

    #[test]
    fn unreached_vertices_push_nothing_and_weights_are_ignored() {
        let b = Bfs::new(0);
        let unreached = MinState {
            label: UNREACHED,
            acc: UNREACHED,
        };
        assert_eq!(b.edge_msg(&unreached, 1), None);
        let s = MinState {
            label: 5,
            acc: UNREACHED,
        };
        assert_eq!(b.edge_msg(&s, 99), Some(6));
        assert_eq!(b.edge_msg(&s, 0), Some(6));
    }
}
