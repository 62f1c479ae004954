//! Graph substrate for the `dirgl` workspace.
//!
//! Provides:
//!
//! * [`Csr`] — a compact compressed-sparse-row graph with optional edge
//!   weights, the storage format every other crate consumes;
//! * edge-list building, transposition and symmetrization;
//! * synthetic generators ([`gen`]) that reproduce the *shape* of the nine
//!   inputs in the paper's Table I (R-MAT, social networks, web crawls);
//! * the [`datasets`] catalog mapping each paper input to a scaled synthetic
//!   analogue with paper-equivalent size accounting;
//! * [`stats`] — degree distributions and approximate diameter, used to
//!   validate that generated analogues match the published properties.

pub mod compressed;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod stats;
pub mod stream;
pub mod weights;

pub use compressed::{CompressedCsr, CompressedCsrBuilder};
pub use csr::{Csr, CsrBuilder, EdgeList, VertexId, INVALID_VERTEX};
pub use datasets::{CompressedDataset, Dataset, DatasetId, PaperProps, SizeClass};
pub use gen::rmat::RmatConfig;
pub use gen::social::SocialConfig;
pub use gen::webcrawl::WebCrawlConfig;
pub use stats::GraphStats;
pub use stream::{compress_via_spill, EdgeSource, EdgeSpill, SortedEdges};
