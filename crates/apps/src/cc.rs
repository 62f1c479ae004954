//! Weakly connected components: data-driven push label propagation with a
//! min-reduction on component id, run on the symmetrized graph (so weak
//! connectivity is computed for directed inputs, as in Galois/D-IrGL).

use dirgl_core::{InitCtx, Style, VertexProgram};
use dirgl_graph::csr::VertexId;

/// Per-proxy cc state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CcState {
    /// Current component label (min global id seen).
    pub comp: u32,
    /// Min accumulator.
    pub acc: u32,
}

/// Weakly connected components.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cc;

impl VertexProgram for Cc {
    type State = CcState;
    type Wire = u32;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn style(&self) -> Style {
        Style::PushDataDriven
    }

    fn needs_symmetric(&self) -> bool {
        true
    }

    fn init_state(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> CcState {
        CcState {
            comp: gv,
            acc: u32::MAX,
        }
    }

    fn initially_active(&self, _gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        true
    }

    fn edge_msg(&self, state: &CcState, _weight: u32) -> Option<u32> {
        Some(state.comp)
    }

    fn accumulate(&self, state: &mut CcState, msg: u32) -> bool {
        if msg < state.acc && msg < state.comp {
            state.acc = msg;
            true
        } else {
            false
        }
    }

    fn absorb(&self, state: &mut CcState) -> bool {
        if state.acc < state.comp {
            state.comp = state.acc;
            true
        } else {
            false
        }
    }

    fn take_delta(&self, state: &mut CcState) -> u32 {
        let d = state.acc.min(state.comp);
        state.acc = u32::MAX;
        d
    }

    fn canonical(&self, state: &CcState) -> u32 {
        state.comp
    }

    fn set_canonical(&self, state: &mut CcState, v: u32) -> bool {
        if v < state.comp {
            state.comp = v;
            true
        } else {
            false
        }
    }

    fn output(&self, state: &CcState) -> f64 {
        state.comp as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_start_at_own_id_and_all_active() {
        let degs = vec![1; 3];
        let c = InitCtx::new(3, &degs);
        let cc = Cc;
        assert!(cc.needs_symmetric());
        assert_eq!(cc.init_state(2, &c).comp, 2);
        assert!(cc.initially_active(0, &c));
    }

    #[test]
    fn propagates_minimum() {
        let cc = Cc;
        let mut s = CcState {
            comp: 9,
            acc: u32::MAX,
        };
        assert!(cc.accumulate(&mut s, 4));
        assert!(cc.absorb(&mut s));
        assert_eq!(s.comp, 4);
        assert!(!cc.set_canonical(&mut s, 6)); // worse label rejected
        assert!(cc.set_canonical(&mut s, 1));
        assert_eq!(s.comp, 1);
    }
}
