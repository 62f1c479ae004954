//! R-MAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos).
//!
//! The paper's `rmat23` input "is a randomized scale-free graph generated
//! using a rmat generator", so the analogue here is the same generator at a
//! smaller scale. Default probabilities are the Graph500 parameters
//! `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::{Csr, EdgeList};

/// Configuration for an R-MAT generation run.
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average directed edges per vertex requested (before dedup).
    pub edge_factor: u32,
    /// Quadrant probabilities; must sum to ~1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
    /// Remove duplicate edges and self loops (default true).
    pub dedup: bool,
}

impl RmatConfig {
    /// Graph500 parameters at the given scale and edge factor.
    pub fn new(scale: u32, edge_factor: u32) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 1,
            dedup: true,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Streams the raw (pre-dedup) edge sequence without materializing it —
    /// the streaming ingest path feeds this straight into an external sort
    /// ([`crate::stream::EdgeSpill`]). [`RmatConfig::generate_edges`]
    /// collects the identical sequence, so the two paths cannot diverge.
    pub fn for_each_raw_edge(&self, f: &mut dyn FnMut(u32, u32)) {
        let n: u32 = 1 << self.scale;
        let m = (n as u64) * self.edge_factor as u64;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        for _ in 0..m {
            let (mut lo_r, mut hi_r) = (0u32, n);
            let (mut lo_c, mut hi_c) = (0u32, n);
            while hi_r - lo_r > 1 {
                // Small per-level noise keeps the graph from being exactly
                // self-similar, as in the Graph500 reference implementation.
                let ab = self.a + self.b;
                let a_norm = self.a / ab;
                let c_norm = self.c / (1.0 - ab);
                let go_down = rng.gen::<f64>() > ab;
                let go_right = if go_down {
                    rng.gen::<f64>() > c_norm
                } else {
                    rng.gen::<f64>() > a_norm
                };
                let mid_r = (lo_r + hi_r) / 2;
                let mid_c = (lo_c + hi_c) / 2;
                if go_down {
                    lo_r = mid_r;
                } else {
                    hi_r = mid_r;
                }
                if go_right {
                    lo_c = mid_c;
                } else {
                    hi_c = mid_c;
                }
            }
            f(lo_r, lo_c);
        }
    }

    /// Generates the edge list.
    pub fn generate_edges(&self) -> EdgeList {
        let n: u32 = 1 << self.scale;
        let m = (n as u64) * self.edge_factor as u64;
        let mut el = EdgeList::new(n);
        el.edges.reserve(m as usize);
        self.for_each_raw_edge(&mut |u, v| el.edges.push((u, v)));
        if self.dedup {
            el.dedup();
        }
        el
    }

    /// Generates the CSR directly.
    pub fn generate(&self) -> Csr {
        self.generate_edges().into_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let g1 = RmatConfig::new(8, 4).seed(11).generate();
        let g2 = RmatConfig::new(8, 4).seed(11).generate();
        assert_eq!(g1, g2);
        let g3 = RmatConfig::new(8, 4).seed(12).generate();
        assert_ne!(g1, g3);
    }

    #[test]
    fn size_and_skew() {
        let g = RmatConfig::new(12, 8).seed(5).generate();
        assert_eq!(g.num_vertices(), 4096);
        // Dedup removes some of the 32768 generated edges but most survive.
        assert!(g.num_edges() > 20_000, "edges={}", g.num_edges());
        // Power-law: max degree far above the mean.
        let max_deg = (0..g.num_vertices())
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(max_deg as f64 > 8.0 * mean, "max={max_deg} mean={mean}");
    }

    #[test]
    fn no_self_loops_after_dedup() {
        let g = RmatConfig::new(8, 8).seed(3).generate();
        for u in 0..g.num_vertices() {
            assert!(!g.neighbors(u).contains(&u));
        }
    }
}
