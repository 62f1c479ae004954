//! Randomized edge weights.
//!
//! The paper (§IV-A): "For all inputs, we add randomized edge-weights."
//! Weights are drawn uniformly from `[1, max_weight]`; `sssp` consumes them,
//! all other benchmarks ignore them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::Csr;

/// Default weight ceiling, matching common Galois/Lonestar harnesses.
pub const DEFAULT_MAX_WEIGHT: u32 = 100;

/// Returns a copy of `g` with uniformly random weights in `[1, max_weight]`.
///
/// Deterministic in `(seed, graph topology)`: the i-th edge in CSR order
/// always receives the same weight for a given seed.
pub fn randomize_weights(g: &Csr, max_weight: u32, seed: u64) -> Csr {
    assert!(max_weight >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    g.with_weights(
        (0..g.num_edges())
            .map(|_| rng.gen_range(1..=max_weight))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    fn ring(n: u32) -> Csr {
        let mut b = CsrBuilder::new(n);
        for i in 0..n {
            b.add(i, (i + 1) % n);
        }
        b.build()
    }

    #[test]
    fn weights_in_range_and_deterministic() {
        let g = ring(100);
        let w1 = randomize_weights(&g, 50, 9);
        let w2 = randomize_weights(&g, 50, 9);
        assert_eq!(w1, w2);
        assert!(w1.is_weighted());
        for u in 0..w1.num_vertices() {
            for (_, w) in w1.edges(u) {
                assert!((1..=50).contains(&w));
            }
        }
        let w3 = randomize_weights(&g, 50, 10);
        assert_ne!(w1, w3);
    }

    #[test]
    fn topology_unchanged() {
        let g = ring(64);
        let w = randomize_weights(&g, 10, 3);
        assert_eq!(w.num_edges(), g.num_edges());
        for u in 0..g.num_vertices() {
            assert_eq!(w.neighbors(u), g.neighbors(u));
        }
    }
}
