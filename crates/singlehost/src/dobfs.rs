//! Direction-optimizing BFS (Beamer et al.), Gunrock's bfs algorithm.
//!
//! Top-down (push) while the frontier is small; bottom-up (pull) — every
//! unreached vertex scans its in-edges for a reached parent — while the
//! frontier is more than [`dirgl_core::PULL_THRESHOLD`] of the graph. The
//! engine applies both rules to every [`Style::HybridPushPull`] program, so
//! this one is plain bfs with that style. On low-diameter power-law
//! inputs the bottom-up phase skips the enormous middle-frontier edge
//! expansion, which is exactly Gunrock's Table II advantage.

use dirgl_apps::bfs::BfsState;
use dirgl_core::{InitCtx, Style, VertexProgram};
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

impl VertexProgram for DoBfs {
    type State = BfsState;
    type Wire = u32;

    fn name(&self) -> &'static str {
        "bfs(direction-optimizing)"
    }

    fn style(&self) -> Style {
        Style::HybridPushPull
    }

    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> BfsState {
        self.inner().init_state(gv, ctx)
    }

    fn initially_active(&self, gv: VertexId, ctx: &InitCtx<'_>) -> bool {
        self.inner().initially_active(gv, ctx)
    }

    fn edge_msg(&self, state: &BfsState, weight: u32) -> Option<u32> {
        self.inner().edge_msg(state, weight)
    }

    fn accumulate(&self, state: &mut BfsState, msg: u32) -> bool {
        self.inner().accumulate(state, msg)
    }

    fn absorb(&self, state: &mut BfsState) -> bool {
        self.inner().absorb(state)
    }

    fn take_delta(&self, state: &mut BfsState) -> u32 {
        self.inner().take_delta(state)
    }

    fn canonical(&self, state: &BfsState) -> u32 {
        self.inner().canonical(state)
    }

    fn set_canonical(&self, state: &mut BfsState, v: u32) -> bool {
        self.inner().set_canonical(state, v)
    }

    fn output(&self, state: &BfsState) -> f64 {
        self.inner().output(state)
    }
}
