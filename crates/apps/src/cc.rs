//! Weakly connected components: data-driven push label propagation with a
//! min-reduction on component id, run on the symmetrized graph (so weak
//! connectivity is computed for directed inputs, as in Galois/D-IrGL).

use dirgl_core::MinLabel;
use dirgl_graph::csr::VertexId;

/// Weakly connected components.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cc;

impl MinLabel for Cc {
    fn program_name(&self) -> &'static str {
        "cc"
    }

    fn symmetric(&self) -> bool {
        true
    }

    /// Every vertex starts as its own component, so all start active.
    #[inline]
    fn seed(&self, gv: VertexId) -> u32 {
        gv
    }

    #[inline]
    fn relax(&self, comp: u32, _weight: u32) -> u32 {
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_core::{InitCtx, VertexProgram};

    #[test]
    fn labels_start_at_own_id_and_all_active() {
        let degs = vec![1; 3];
        let c = InitCtx::new(3, &degs);
        let cc = Cc;
        assert!(cc.needs_symmetric());
        for gv in 0..3 {
            assert_eq!(cc.init_state(gv, &c).label, gv);
            assert!(cc.initially_active(gv, &c));
        }
    }
}
