//! k-core decomposition: finds the maximal subgraph in which every vertex
//! has degree ≥ k. Data-driven push on the symmetrized graph: when a vertex
//! drops below `k` it dies once and pushes a degree decrement to each
//! neighbor (add-reduction with reset, unlike the idempotent min apps).
//!
//! Death is *monotone*: once `deg < k` a vertex is out regardless of
//! message order, so any proxy may take the death decision locally; each
//! proxy handles the death exactly once for its own local edges, so every
//! edge's decrement is pushed exactly once globally.

use dirgl_core::{InitCtx, Style, VertexProgram};
use dirgl_graph::csr::VertexId;

const ALIVE_BIT: u32 = 1 << 31;
const DEG_MASK: u32 = ALIVE_BIT - 1;

/// Per-proxy kcore state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KCoreState {
    /// Current (synced) degree.
    pub deg: u32,
    /// Decrements accumulated since the last absorb/reduce.
    pub pending: u32,
    /// Still in the candidate core.
    pub alive: bool,
    /// This proxy already pushed its local death decrements.
    pub death_handled: bool,
}

/// k-core with threshold `k`.
#[derive(Clone, Copy, Debug)]
pub struct KCore {
    /// Minimum degree to stay in the core.
    pub k: u32,
}

impl KCore {
    /// k-core with the given threshold.
    pub fn new(k: u32) -> KCore {
        assert!(k >= 1);
        KCore { k }
    }
}

impl VertexProgram for KCore {
    type State = KCoreState;
    type Wire = u32;

    fn name(&self) -> &'static str {
        "kcore"
    }

    fn style(&self) -> Style {
        Style::PushDataDriven
    }

    fn needs_symmetric(&self) -> bool {
        true
    }

    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> KCoreState {
        KCoreState {
            deg: ctx.out_degrees[gv as usize],
            pending: 0,
            alive: true,
            death_handled: false,
        }
    }

    fn initially_active(&self, gv: VertexId, ctx: &InitCtx<'_>) -> bool {
        ctx.out_degrees[gv as usize] < self.k
    }

    fn begin_push(&self, state: &mut KCoreState) -> bool {
        if state.alive && state.deg < self.k {
            state.alive = false;
        }
        if !state.alive && !state.death_handled {
            state.death_handled = true;
            return true;
        }
        false
    }

    fn edge_msg(&self, _state: &KCoreState, _weight: u32) -> Option<u32> {
        Some(1)
    }

    fn accumulate(&self, state: &mut KCoreState, msg: u32) -> bool {
        if msg > 0 {
            state.pending += msg;
            true
        } else {
            false
        }
    }

    fn absorb(&self, state: &mut KCoreState) -> bool {
        if state.pending == 0 {
            return false;
        }
        let was_candidate = state.alive && state.deg >= self.k;
        state.deg = state.deg.saturating_sub(state.pending);
        state.pending = 0;
        was_candidate && state.deg < self.k
    }

    fn take_delta(&self, state: &mut KCoreState) -> u32 {
        let d = state.pending;
        state.pending = 0;
        d
    }

    fn canonical(&self, state: &KCoreState) -> u32 {
        (state.deg & DEG_MASK) | if state.alive { ALIVE_BIT } else { 0 }
    }

    fn set_canonical(&self, state: &mut KCoreState, v: u32) -> bool {
        let alive = v & ALIVE_BIT != 0;
        let deg = v & DEG_MASK;
        let changed = state.deg != deg || state.alive != alive;
        state.deg = deg;
        // Death is monotone: never resurrect a locally-dead proxy.
        state.alive &= alive;
        changed
    }

    fn output(&self, state: &KCoreState) -> f64 {
        if state.alive {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dies_once_and_pushes_once() {
        let kc = KCore::new(3);
        let mut s = KCoreState {
            deg: 2,
            pending: 0,
            alive: true,
            death_handled: false,
        };
        assert!(kc.begin_push(&mut s)); // dies, pushes
        assert!(!s.alive && s.death_handled);
        assert!(!kc.begin_push(&mut s)); // never twice
    }

    #[test]
    fn healthy_vertex_does_not_push() {
        let kc = KCore::new(3);
        let mut s = KCoreState {
            deg: 5,
            pending: 0,
            alive: true,
            death_handled: false,
        };
        assert!(!kc.begin_push(&mut s));
        assert!(s.alive);
    }

    #[test]
    fn decrements_accumulate_and_absorb_detects_death() {
        let kc = KCore::new(3);
        let mut s = KCoreState {
            deg: 4,
            pending: 0,
            alive: true,
            death_handled: false,
        };
        assert!(kc.accumulate(&mut s, 1));
        assert!(kc.accumulate(&mut s, 1));
        assert!(kc.absorb(&mut s)); // 4 - 2 = 2 < 3: newly below threshold
        assert_eq!((s.deg, s.pending), (2, 0));
        // Further decrements on an already-dying vertex do not re-report.
        kc.accumulate(&mut s, 1);
        assert!(!kc.absorb(&mut s));
    }

    #[test]
    fn canonical_roundtrip_preserves_death_monotonicity() {
        let kc = KCore::new(3);
        let master = KCoreState {
            deg: 7,
            pending: 0,
            alive: true,
            death_handled: false,
        };
        let wire = kc.canonical(&master);
        let mut mirror = KCoreState {
            deg: 9,
            pending: 0,
            alive: false,
            death_handled: true,
        };
        assert!(kc.set_canonical(&mut mirror, wire));
        assert_eq!(mirror.deg, 7);
        assert!(!mirror.alive, "broadcast must not resurrect");
    }

    #[test]
    fn delta_is_take_and_reset() {
        let kc = KCore::new(2);
        let mut s = KCoreState {
            deg: 4,
            pending: 3,
            alive: true,
            death_handled: false,
        };
        assert_eq!(kc.take_delta(&mut s), 3);
        assert_eq!(kc.take_delta(&mut s), 0);
    }
}
