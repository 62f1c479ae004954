//! The five benchmarks of the paper (§IV-A), implemented as `dirgl`
//! vertex programs exactly as D-IrGL implements them (§IV-B):
//!
//! * [`Bfs`] — breadth-first search, data-driven push, source = highest
//!   out-degree vertex;
//! * [`Cc`] — weakly connected components, data-driven push label
//!   propagation on the symmetrized graph;
//! * [`KCore`] — k-core decomposition, data-driven push of degree
//!   decrements on the symmetrized graph;
//! * [`PageRank`] — residual pagerank, topology-driven **pull** (the one
//!   benchmark whose load profile is driven by in-degrees — the paper's
//!   TWC-vs-ALB story);
//! * [`Sssp`] — single-source shortest paths over the randomized edge
//!   weights, data-driven push.
//!
//! [`mod@reference`] holds simple sequential implementations every framework
//! result is verified against.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod kcore;
pub mod pagerank;
pub mod reference;
pub mod sssp;

pub use bc::{
    batched_betweenness_centrality_prepared, betweenness_centrality,
    betweenness_centrality_footprint, betweenness_centrality_prepared, BcBackward, BcForward,
    BcOutput,
};
pub use bfs::Bfs;
pub use cc::Cc;
pub use kcore::KCore;
pub use pagerank::PageRank;
pub use sssp::Sssp;

/// The five benchmark names in the paper's order.
pub const BENCHMARKS: [&str; 5] = ["bfs", "cc", "kcore", "pagerank", "sssp"];

/// Unreachable-distance sentinel shared by bfs/sssp and their references.
pub const UNREACHED: u32 = u32::MAX;
