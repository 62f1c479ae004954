//! # dirgl — distributed multi-GPU graph analytics, reproduced in Rust
//!
//! This is the facade crate of the `dirgl` workspace, a full reproduction of
//! *"A Study of Graph Analytics for Massive Datasets on Distributed
//! Multi-GPUs"* (Jatala et al., IPDPS-W 2020). It re-exports every subsystem:
//!
//! * [`graph`] — CSR graphs, synthetic dataset generators, the paper's
//!   Table I input catalog.
//! * [`partition`] — the CuSP-style streaming partitioner with the OEC, IEC,
//!   HVC and CVC policies (plus Gunrock-style random and Groute-style
//!   METIS-like baselines).
//! * [`gpusim`] — the virtual-time GPU execution model with the TWC, ALB,
//!   LB and per-vertex-thread-block edge schedulers.
//! * [`comm`] — the Gluon-style communication substrate: update bitsets,
//!   reduce/broadcast with structural-invariant elision, PCIe + network
//!   virtual-time transport, seeded fault injection and a retry/ack
//!   reliable-delivery layer.
//! * [`core`] — the D-IrGL-equivalent engine: BSP and BASP drivers, the
//!   Var1–Var4 optimization variants, execution reports, and the K-lane
//!   multi-source batching layer (up to 64 sources per engine pass).
//! * [`apps`] — bfs, cc, kcore, pagerank and sssp, plus sequential
//!   reference implementations.
//! * [`serve`] — the resident analytics job-server: load a dataset once,
//!   answer many concurrent queries against the shared prepared partition,
//!   with admission control and a keyed result cache.
//! * [`lux`] — the Lux-like distributed baseline.
//! * [`singlehost`] — Gunrock-like and Groute-like single-host baselines.
//!
//! ## Quickstart
//!
//! ```
//! use dirgl::prelude::*;
//!
//! // Generate a small R-MAT graph and run BFS on 4 simulated GPUs.
//! let graph = RmatConfig::new(10, 8).seed(42).generate();
//! let platform = Platform::homogeneous(4, GpuSpec::p100(), ClusterSpec::bridges());
//! let runtime = Runtime::new(platform, RunConfig::var4(Policy::Cvc));
//! let out = runtime.runner(&graph, &Bfs::from_max_out_degree(&graph)).execute().unwrap();
//! assert!(out.report.total_time.as_secs_f64() > 0.0);
//! ```

pub use dirgl_apps as apps;
pub use dirgl_comm as comm;
pub use dirgl_core as core;
pub use dirgl_gpusim as gpusim;
pub use dirgl_graph as graph;
pub use dirgl_partition as partition;
pub use dirgl_serve as serve;
pub use lux_sim as lux;
pub use singlehost_sim as singlehost;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use dirgl_apps::{betweenness_centrality, reference, Bfs, Cc, KCore, PageRank, Sssp};
    pub use dirgl_comm::{CommMode, FaultPlan, SimTime};
    pub use dirgl_core::{
        Backend, CollectingSink, ExecutionReport, JsonLinesSink, Lanes, LayoutChoice,
        MultiSourceProgram, PreparedPartition, RunConfig, RunError, Runtime, Variant,
    };
    pub use dirgl_gpusim::{ClusterSpec, GpuSpec, Platform};
    pub use dirgl_graph::{
        Csr, Dataset, DatasetId, GraphStats, RmatConfig, SocialConfig, WebCrawlConfig,
    };
    pub use dirgl_partition::{Partition, PartitionMetrics, Policy};
    pub use dirgl_serve::{JobRequest, JobServer, JobSpec, ServeConfig};
    pub use lux_sim::LuxRuntime;
    pub use singlehost_sim::{GrouteSim, GunrockSim};
}
