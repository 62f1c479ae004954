//! The dataset catalog: scaled synthetic analogues of the paper's Table I.
//!
//! Each [`DatasetId`] carries the *published* properties of the real input
//! ([`PaperProps`]) and a scale divisor. [`DatasetId::load`] generates the
//! analogue: `|V|` and `|E|` divided by the divisor, maximum degrees divided
//! by the same divisor (preserving the degree-to-work ratios that drive the
//! paper's load-balancing results), and the approximate diameter kept at its
//! *paper value* (round counts — e.g. bfs on uk14 running >1000 rounds —
//! depend on diameter directly, so it must not shrink with the graph).
//!
//! Memory and communication-volume accounting elsewhere in the workspace
//! multiplies measured bytes by the divisor to report paper-equivalent GB;
//! see `DESIGN.md` §6.

use crate::compressed::CompressedCsr;
use crate::csr::Csr;
use crate::gen::rmat::RmatConfig;
use crate::gen::social::SocialConfig;
use crate::gen::webcrawl::WebCrawlConfig;
use crate::weights::randomize_weights;

/// Size classes from §IV-A: small graphs run on the single-host platform,
/// medium and large on the multi-host cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Single-host multi-GPU experiments (up to 6 GPUs on Tuxedo).
    Small,
    /// Multi-host experiments on up to 64 GPUs.
    Medium,
    /// Multi-host experiments on 64 GPUs.
    Large,
}

/// The nine inputs of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// Randomized scale-free R-MAT graph (scale 23).
    Rmat23,
    /// Orkut social network.
    Orkut,
    /// Indochina 2004 web crawl.
    Indochina04,
    /// Twitter follower network (2010, 51M vertices).
    Twitter50,
    /// Friendster social network.
    Friendster,
    /// UK 2007 web crawl.
    Uk07,
    /// ClueWeb 2012 web crawl.
    Clueweb12,
    /// UK 2014 web crawl.
    Uk14,
    /// Web Data Commons 2014 hyperlink graph.
    Wdc14,
}

/// Published properties of a real input (the columns of Table I).
#[derive(Clone, Copy, Debug)]
pub struct PaperProps {
    /// |V| of the real dataset.
    pub num_vertices: u64,
    /// |E| of the real dataset.
    pub num_edges: u64,
    /// Maximum out-degree.
    pub max_out_degree: u64,
    /// Maximum in-degree.
    pub max_in_degree: u64,
    /// Approximate diameter.
    pub approx_diameter: u32,
    /// On-disk size in GB as reported by the paper.
    pub size_gb: f64,
}

/// A loaded dataset: the generated analogue plus its scaling metadata.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which Table I input this stands in for.
    pub id: DatasetId,
    /// The generated, weighted graph.
    pub graph: Csr,
    /// Scale divisor actually used (catalog divisor × any override factor).
    pub divisor: u64,
    /// Published properties of the real input.
    pub paper: PaperProps,
}

/// A dataset loaded through the streaming ingest path: the same analogue as
/// [`Dataset`], held as a [`CompressedCsr`] instead of a raw [`Csr`].
#[derive(Clone, Debug)]
pub struct CompressedDataset {
    /// Which Table I input this stands in for.
    pub id: DatasetId,
    /// The generated, weighted graph in compressed-adjacency form.
    pub graph: CompressedCsr,
    /// Scale divisor actually used (catalog divisor × any override factor).
    pub divisor: u64,
    /// Published properties of the real input.
    pub paper: PaperProps,
}

impl DatasetId {
    /// All nine inputs, in Table I order.
    pub const ALL: [DatasetId; 9] = [
        DatasetId::Rmat23,
        DatasetId::Orkut,
        DatasetId::Indochina04,
        DatasetId::Twitter50,
        DatasetId::Friendster,
        DatasetId::Uk07,
        DatasetId::Clueweb12,
        DatasetId::Uk14,
        DatasetId::Wdc14,
    ];

    /// The three small inputs (single-host experiments, Tables II/III).
    pub const SMALL: [DatasetId; 3] = [DatasetId::Rmat23, DatasetId::Orkut, DatasetId::Indochina04];

    /// The three medium inputs (Figures 3, 4, 5, 7, 8).
    pub const MEDIUM: [DatasetId; 3] =
        [DatasetId::Twitter50, DatasetId::Friendster, DatasetId::Uk07];

    /// The three large inputs (Figures 6, 9).
    pub const LARGE: [DatasetId; 3] = [DatasetId::Clueweb12, DatasetId::Uk14, DatasetId::Wdc14];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Rmat23 => "rmat23",
            DatasetId::Orkut => "orkut",
            DatasetId::Indochina04 => "indochina04",
            DatasetId::Twitter50 => "twitter50",
            DatasetId::Friendster => "friendster",
            DatasetId::Uk07 => "uk07",
            DatasetId::Clueweb12 => "clueweb12",
            DatasetId::Uk14 => "uk14",
            DatasetId::Wdc14 => "wdc14",
        }
    }

    /// Size class per §IV-A.
    pub fn size_class(self) -> SizeClass {
        match self {
            DatasetId::Rmat23 | DatasetId::Orkut | DatasetId::Indochina04 => SizeClass::Small,
            DatasetId::Twitter50 | DatasetId::Friendster | DatasetId::Uk07 => SizeClass::Medium,
            DatasetId::Clueweb12 | DatasetId::Uk14 | DatasetId::Wdc14 => SizeClass::Large,
        }
    }

    /// Published properties (Table I).
    pub fn paper_props(self) -> PaperProps {
        // rmat23's |E| is printed as 13.4M but its |E|/|V| row says 16;
        // 2^23 vertices x edge-factor 16 = 134M is the consistent reading
        // (Graph500-style generation), which we adopt.
        match self {
            DatasetId::Rmat23 => PaperProps {
                num_vertices: 8_300_000,
                num_edges: 134_000_000,
                max_out_degree: 350_000,
                max_in_degree: 9_776,
                approx_diameter: 3,
                size_gb: 1.1,
            },
            DatasetId::Orkut => PaperProps {
                num_vertices: 3_100_000,
                num_edges: 234_000_000,
                max_out_degree: 33_313,
                max_in_degree: 33_313,
                approx_diameter: 6,
                size_gb: 1.8,
            },
            DatasetId::Indochina04 => PaperProps {
                num_vertices: 7_400_000,
                num_edges: 194_000_000,
                max_out_degree: 6_985,
                max_in_degree: 256_425,
                approx_diameter: 2,
                size_gb: 1.6,
            },
            DatasetId::Twitter50 => PaperProps {
                num_vertices: 51_000_000,
                num_edges: 1_963_000_000,
                max_out_degree: 779_958,
                max_in_degree: 3_500_000,
                approx_diameter: 12,
                size_gb: 16.0,
            },
            DatasetId::Friendster => PaperProps {
                num_vertices: 66_000_000,
                num_edges: 1_806_000_000,
                max_out_degree: 5_214,
                max_in_degree: 5_214,
                approx_diameter: 21,
                size_gb: 28.0,
            },
            DatasetId::Uk07 => PaperProps {
                num_vertices: 106_000_000,
                num_edges: 3_739_000_000,
                max_out_degree: 15_402,
                max_in_degree: 975_418,
                approx_diameter: 115,
                size_gb: 29.0,
            },
            DatasetId::Clueweb12 => PaperProps {
                num_vertices: 978_000_000,
                num_edges: 42_574_000_000,
                max_out_degree: 7_447,
                max_in_degree: 75_000_000,
                approx_diameter: 501,
                size_gb: 325.0,
            },
            DatasetId::Uk14 => PaperProps {
                num_vertices: 788_000_000,
                num_edges: 47_615_000_000,
                max_out_degree: 16_365,
                max_in_degree: 8_600_000,
                approx_diameter: 2_498,
                size_gb: 361.0,
            },
            DatasetId::Wdc14 => PaperProps {
                num_vertices: 1_725_000_000,
                num_edges: 64_423_000_000,
                max_out_degree: 32_848,
                max_in_degree: 46_000_000,
                approx_diameter: 789,
                size_gb: 493.0,
            },
        }
    }

    /// Default catalog scale divisor: 256 for small inputs, 1024 for medium,
    /// 4096 for large.
    pub fn default_divisor(self) -> u64 {
        match self.size_class() {
            SizeClass::Small => 256,
            SizeClass::Medium => 1024,
            SizeClass::Large => 4096,
        }
    }

    /// Loads (generates) the analogue at the default divisor with randomized
    /// edge weights.
    pub fn load(self) -> Dataset {
        self.load_scaled(1)
    }

    /// Loads the undirected view used by cc/kcore: the analogue is
    /// generated at half the directed edge budget and then symmetrized, so
    /// the undirected closure matches Table I's |E| (the working set the
    /// paper's memory-bound runs are constrained by) instead of doubling
    /// it.
    pub fn load_undirected_scaled(self, extra_divisor: u64) -> Dataset {
        let directed = self.load_scaled(extra_divisor);
        let sym = half_edges(&directed.graph).symmetrize();
        Dataset {
            graph: sym,
            ..directed
        }
    }

    /// Loads at `default_divisor() * extra_divisor` — bench binaries expose
    /// this as `--scale` so the full sweep can be run quickly or at higher
    /// fidelity.
    pub fn load_scaled(self, extra_divisor: u64) -> Dataset {
        let ScaledParams {
            divisor,
            n,
            m,
            dout,
            din,
            seed,
        } = self.scaled_params(extra_divisor);
        let p = self.paper_props();
        let graph = match self {
            DatasetId::Rmat23 => {
                // Keep R-MAT generation native: pick the scale whose 2^s is
                // closest to the target vertex count.
                let scale = (n as f64).log2().round() as u32;
                let ef = (m / (1u64 << scale)).max(1) as u32;
                RmatConfig::new(scale, ef).seed(seed).generate()
            }
            DatasetId::Orkut | DatasetId::Twitter50 | DatasetId::Friendster => {
                SocialConfig::new(n, m, dout, din)
                    .diameter(p.approx_diameter.max(4))
                    .seed(seed)
                    .generate()
            }
            DatasetId::Indochina04
            | DatasetId::Uk07
            | DatasetId::Clueweb12
            | DatasetId::Uk14
            | DatasetId::Wdc14 => {
                // Diameter stays at the paper value (min 6 so the chain is
                // non-degenerate; Table I lists indochina04 as 2).
                let diam = p.approx_diameter.max(6).min(n / 8);
                WebCrawlConfig::new(n, m, dout, din, diam)
                    .seed(seed)
                    .generate()
            }
        };
        let graph = randomize_weights(&graph, crate::weights::DEFAULT_MAX_WEIGHT, seed ^ 0xFFFF);
        Dataset {
            id: self,
            graph,
            divisor,
            paper: p,
        }
    }

    /// Loads the same analogue [`DatasetId::load_scaled`] produces, but as a
    /// delta-gap varint [`CompressedCsr`] built through the streaming ingest
    /// path: the generator's raw edges flow through a `chunk_edges`-bounded
    /// external sort ([`crate::stream::EdgeSpill`]) and weights are drawn
    /// inline during the merge, so neither the full edge list nor the raw
    /// CSR is ever resident. Contract (pinned by tests):
    /// `load_scaled_compressed(x, c).graph.to_csr() == load_scaled(x).graph`
    /// for every `x`, `c`.
    ///
    /// The social analogues (orkut / twitter50 / friendster) fall back to
    /// in-memory generation + compression: their generator builds global
    /// degree plans that need the full vertex range anyway, so streaming
    /// would not reduce the peak.
    pub fn load_scaled_compressed(
        self,
        extra_divisor: u64,
        chunk_edges: usize,
    ) -> CompressedDataset {
        let ScaledParams {
            divisor,
            n,
            m,
            dout,
            din,
            seed,
        } = self.scaled_params(extra_divisor);
        let p = self.paper_props();
        let wseed = seed ^ 0xFFFF;
        let weights = Some((crate::weights::DEFAULT_MAX_WEIGHT, wseed));
        let graph = match self {
            DatasetId::Rmat23 => {
                let scale = (n as f64).log2().round() as u32;
                let ef = (m / (1u64 << scale)).max(1) as u32;
                let cfg = RmatConfig::new(scale, ef).seed(seed);
                crate::stream::compress_via_spill(1 << scale, chunk_edges, weights, |f| {
                    cfg.for_each_raw_edge(f)
                })
            }
            DatasetId::Orkut | DatasetId::Twitter50 | DatasetId::Friendster => {
                CompressedCsr::from_csr(&self.load_scaled(extra_divisor).graph)
            }
            DatasetId::Indochina04
            | DatasetId::Uk07
            | DatasetId::Clueweb12
            | DatasetId::Uk14
            | DatasetId::Wdc14 => {
                let diam = p.approx_diameter.max(6).min(n / 8);
                let cfg = WebCrawlConfig::new(n, m, dout, din, diam).seed(seed);
                crate::stream::compress_via_spill(n, chunk_edges, weights, |f| {
                    cfg.for_each_raw_edge(f)
                })
            }
        };
        CompressedDataset {
            id: self,
            graph,
            divisor,
            paper: p,
        }
    }

    /// Shared scale arithmetic for [`DatasetId::load_scaled`] and
    /// [`DatasetId::load_scaled_compressed`]: one computation, so the plain
    /// and streamed loaders cannot disagree on the generated analogue.
    fn scaled_params(self, extra_divisor: u64) -> ScaledParams {
        assert!(extra_divisor >= 1);
        let divisor = self.default_divisor() * extra_divisor;
        let p = self.paper_props();
        let n = (p.num_vertices / divisor).max(1024) as u32;
        let m = (p.num_edges / divisor).max(4096);
        ScaledParams {
            divisor,
            n,
            m,
            dout: clamp_degree((p.max_out_degree / divisor) as u32, n),
            din: clamp_degree((p.max_in_degree / divisor) as u32, n),
            seed: 0xD1_46_1B_00 ^ self as u64 ^ divisor.wrapping_shl(32),
        }
    }
}

/// Scale arithmetic shared by the plain and compressed loaders.
struct ScaledParams {
    divisor: u64,
    n: u32,
    m: u64,
    dout: u32,
    din: u32,
    seed: u64,
}

/// Degree-target clamp for scaled analogues: floor of 8 (so tiny analogues
/// keep some skew), capped at `n / 2` (so the target is realizable). The
/// floor is kept low because a larger one would inflate the paper-equivalent
/// degree (scaled degree × divisor) past the real maximum and manufacture
/// thread-block imbalance the real input does not have.
///
/// Ordering matters at extreme divisors: when `n / 2` drops below the floor,
/// the cap must win — `max(8).min(cap)` happened to resolve that way, but
/// only because of evaluation order; `clamp` would panic outright with
/// `min > max`. Making the floor `8.min(cap)` states the intent explicitly
/// and keeps the pair a valid clamp range for any `n`.
fn clamp_degree(raw: u32, n: u32) -> u32 {
    let cap = (n / 2).max(1);
    raw.clamp(8.min(cap), cap)
}

/// Deterministically keeps every other edge of each adjacency list (a
/// topology-preserving half-sample used by the undirected view).
fn half_edges(g: &Csr) -> Csr {
    let mut b =
        crate::csr::CsrBuilder::with_capacity(g.num_vertices(), g.num_edges() as usize / 2 + 1);
    for u in 0..g.num_vertices() {
        for (i, (v, w)) in g.edges(u).enumerate() {
            // Keep the first edge of every list (connectivity) and every
            // other edge after that.
            if i % 2 == 0 {
                b.add_weighted(u, v, w);
            }
        }
    }
    b.build()
}

impl Dataset {
    /// Paper-equivalent bytes for `measured` bytes on this dataset's scale.
    pub fn paper_equivalent_bytes(&self, measured: u64) -> u64 {
        measured * self.divisor
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn catalog_partitions_into_size_classes() {
        assert_eq!(DatasetId::ALL.len(), 9);
        let small = DatasetId::ALL
            .iter()
            .filter(|d| d.size_class() == SizeClass::Small)
            .count();
        let medium = DatasetId::ALL
            .iter()
            .filter(|d| d.size_class() == SizeClass::Medium)
            .count();
        let large = DatasetId::ALL
            .iter()
            .filter(|d| d.size_class() == SizeClass::Large)
            .count();
        assert_eq!((small, medium, large), (3, 3, 3));
    }

    #[test]
    fn small_analogues_match_paper_shape() {
        for id in DatasetId::SMALL {
            let ds = id.load_scaled(4); // extra-small for test speed
            let st = GraphStats::compute(&ds.graph);
            let p = id.paper_props();
            let target_ratio = p.num_edges as f64 / p.num_vertices as f64;
            assert!(
                st.avg_degree > 0.4 * target_ratio && st.avg_degree < 2.0 * target_ratio,
                "{id}: avg {} vs paper ratio {target_ratio}",
                st.avg_degree
            );
            assert!(ds.graph.is_weighted(), "{id}: weights missing");
        }
    }

    #[test]
    fn webcrawl_analogue_keeps_paper_diameter() {
        let ds = DatasetId::Uk07.load_scaled(8);
        let st = GraphStats::compute(&ds.graph);
        // uk07 approx diameter is 115; the analogue must be in that band,
        // not scaled down with the graph.
        assert!(
            st.approx_diameter >= 100 && st.approx_diameter <= 135,
            "diam={}",
            st.approx_diameter
        );
    }

    #[test]
    fn paper_equivalent_accounting() {
        let ds = DatasetId::Orkut.load_scaled(4);
        assert_eq!(ds.divisor, 1024);
        assert_eq!(ds.paper_equivalent_bytes(1000), 1_024_000);
    }

    #[test]
    fn undirected_view_matches_paper_edge_budget() {
        let directed = DatasetId::Uk07.load_scaled(8);
        let undirected = DatasetId::Uk07.load_undirected_scaled(8);
        // The symmetric closure stays close to the directed |E| budget
        // (half-sampled then doubled), not twice it.
        let e = undirected.graph.num_edges() as f64;
        let target = directed.graph.num_edges() as f64;
        assert!(
            e < 1.25 * target && e > 0.6 * target,
            "e={e} target={target}"
        );
        // And it is actually symmetric.
        assert_eq!(undirected.graph.symmetrize(), undirected.graph);
    }

    #[test]
    fn deterministic_loads() {
        let a = DatasetId::Rmat23.load_scaled(8);
        let b = DatasetId::Rmat23.load_scaled(8);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn degree_clamp_is_explicit_at_extreme_divisors() {
        // Normal regime: floor 8, cap n/2, raw value passes through.
        assert_eq!(clamp_degree(100, 1024), 100);
        assert_eq!(clamp_degree(3, 1024), 8);
        assert_eq!(clamp_degree(9_999, 1024), 512);
        // Tiny n: the cap drops below the 8-floor — the cap must win and
        // the pair must stay a valid clamp range (no panic).
        assert_eq!(clamp_degree(100, 10), 5);
        assert_eq!(clamp_degree(0, 10), 5);
        assert_eq!(clamp_degree(100, 4), 2);
        assert_eq!(clamp_degree(100, 1), 1);
        assert_eq!(clamp_degree(0, 0), 1);
    }

    #[test]
    fn extreme_divisor_load_hits_the_floors() {
        // A divisor far past the catalog range: |V| and |E| bottom out at
        // their floors (1024 / 4096) and the degree clamps stay consistent.
        let ds = DatasetId::Wdc14.load_scaled(1 << 20);
        assert_eq!(ds.graph.num_vertices(), 1024);
        assert!(ds.graph.num_edges() >= 1024);
        let max_out = (0..ds.graph.num_vertices())
            .map(|v| ds.graph.out_degree(v))
            .max()
            .unwrap();
        assert!(max_out <= 512 + 1, "max_out={max_out}"); // cap n/2 (+hub mesh slack)
    }

    #[test]
    fn compressed_loader_matches_plain_loader() {
        // Streamed external-sort ingest ≡ in-memory generation, for a
        // web-crawl analogue (native streaming), rmat (native streaming)
        // and a social analogue (compress-after-generate fallback).
        for id in [DatasetId::Uk07, DatasetId::Rmat23, DatasetId::Orkut] {
            let plain = id.load_scaled(32);
            // Small chunk to force multi-run merges on the streamed path.
            let comp = id.load_scaled_compressed(32, 8 * 1024);
            assert_eq!(comp.divisor, plain.divisor);
            assert_eq!(comp.graph.to_csr(), plain.graph, "{id}");
            // And the whole point: the compressed form is smaller.
            assert!(comp.graph.memory_bytes() < plain.graph.bytes());
        }
    }
}
