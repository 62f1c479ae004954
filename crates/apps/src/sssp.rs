//! Single-source shortest paths: data-driven push over the randomized edge
//! weights, min-reduction on distance (distributed Bellman-Ford).

use dirgl_core::{Lanes, MinLabel, MultiSourceProgram};
use dirgl_graph::csr::{Csr, VertexId};

use crate::UNREACHED;

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

impl MinLabel for Sssp {
    fn program_name(&self) -> &'static str {
        "sssp"
    }

    fn weighted(&self) -> bool {
        true
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
    fn relax(&self, dist: u32, weight: u32) -> u32 {
        dist.saturating_add(weight.max(1))
    }
}

/// SSSP semantics depend only on the source, so it batches lane-for-lane.
impl MultiSourceProgram for Sssp {
    type Batched<const N: usize> = Lanes<Sssp, N>;

    fn for_source(&self, source: VertexId) -> Sssp {
        Sssp::new(source)
    }

    fn batched<const N: usize>(&self, sources: &[VertexId]) -> Lanes<Sssp, N> {
        Lanes::new(self, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_core::{MinState, VertexProgram};

    fn at(dist: u32) -> MinState {
        MinState {
            label: dist,
            acc: UNREACHED,
        }
    }

    #[test]
    fn weight_is_applied_with_floor_one() {
        let s = Sssp::new(0);
        assert!(s.uses_weights());
        assert_eq!(s.edge_msg(&at(10), 5), Some(15));
        // Zero weights (unweighted graphs) degrade to bfs semantics.
        assert_eq!(s.edge_msg(&at(10), 0), Some(11));
    }

    #[test]
    fn saturating_distances_never_wrap() {
        let s = Sssp::new(0);
        assert_eq!(s.edge_msg(&at(u32::MAX - 1), 100), Some(u32::MAX));
    }
}
