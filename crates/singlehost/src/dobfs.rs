//! Direction-optimizing BFS (Beamer et al.), Gunrock's bfs algorithm.
//!
//! Top-down (push) while the frontier is small; bottom-up (pull) — every
//! unreached vertex scans its in-edges for a reached parent — while the
//! frontier is more than [`dirgl_core::PULL_THRESHOLD`] of the graph. The
//! engine applies both rules to every [`Style::HybridPushPull`] program, so
//! this one is plain bfs with that style. On low-diameter power-law
//! inputs the bottom-up phase skips the enormous middle-frontier edge
//! expansion, which is exactly Gunrock's Table II advantage.

use dirgl_core::{MinLabel, Style};
use dirgl_graph::csr::{Csr, VertexId};

/// Direction-optimizing BFS from `source`.
#[derive(Clone, Copy, Debug)]
pub struct DoBfs {
    /// Root vertex.
    pub source: VertexId,
}

impl DoBfs {
    /// From an explicit source.
    pub fn new(source: VertexId) -> DoBfs {
        DoBfs { source }
    }

    /// From the paper's source convention.
    pub fn from_max_out_degree(g: &Csr) -> DoBfs {
        DoBfs {
            source: g.max_out_degree_vertex(),
        }
    }

    fn inner(&self) -> dirgl_apps::Bfs {
        dirgl_apps::Bfs::new(self.source)
    }
}

impl MinLabel for DoBfs {
    fn program_name(&self) -> &'static str {
        "bfs(direction-optimizing)"
    }

    fn program_style(&self) -> Style {
        Style::HybridPushPull
    }

    #[inline]
    fn seed(&self, gv: VertexId) -> u32 {
        self.inner().seed(gv)
    }

    #[inline]
    fn relax(&self, level: u32, weight: u32) -> u32 {
        self.inner().relax(level, weight)
    }
}
