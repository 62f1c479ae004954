//! # dirgl-serve — the resident analytics service
//!
//! The one-shot harness pays the full residency cost — load, partition,
//! sync-plan construction — on every `runner(...).execute()` call. This
//! crate turns that around for the interactive-analytics shape the paper's
//! framework ultimately serves: load a dataset **once** into a
//! [`JobServer`], keep the partitioned graph, per-device local graphs and
//! communication plans resident behind `Arc`-shared immutable state, and
//! answer many concurrent queries (bfs/sssp/bc from arbitrary sources,
//! pagerank, cc, kcore) against it.
//!
//! Four layers:
//!
//! * [`JobSpec`]/[`JobRequest`]/[`JobHandle`] (the `job` module) —
//!   the client vocabulary: what to compute, at which [`Priority`], with
//!   what deadline; the handle to block on.
//! * the result cache — completed outcomes keyed by
//!   `(graph epoch × program × params)` with LRU eviction, so repeated
//!   queries return the very bytes the cold run produced.
//! * [`JobServer`] — admission control (source validation, bounded queue
//!   with reject-with-reason), a priority queue, a fixed executor pool
//!   bounding jobs in flight, and counters ([`ServerStats`]).
//! * the admission governor (the `governor` module) — the one place a
//!   job's lane width is picked: before the job's single launch it
//!   predicts the per-device memory footprint with the engine's own
//!   formula, checks it against health-shrunk residual capacity and walks
//!   the lane-width degradation ladder (64 → 32 → … → scalar) until it
//!   fits, shedding Low-priority work under pressure; deadlines are
//!   enforced while a job waits for admission, and every result carries
//!   its [`JobResilience`] record.
//!
//! Traversal specs (bfs/sssp/bc) carry a *set* of sources and run them as
//! lanes of one K-lane batched engine pass (K ≤ 64). At dequeue, a worker
//! additionally widens its job into a **coalescing window**: queued
//! single-source jobs of the same kind and epoch merge into one batched
//! launch, each job keeps its own handle and outcome, and the result cache
//! is filled per source — later identical singletons hit without running.
//!
//! Determinism carries over: each served job is byte-identical to its
//! serial `runner(...).execute()` equivalent, because the server's
//! prepared views are built by the exact same path
//! ([`dirgl_core::Runtime::prepare`]) the one-shot runner uses.
//!
//! ```
//! use dirgl_serve::{JobServer, JobSpec, ServeConfig};
//! use dirgl_core::{RunConfig, Runtime};
//! use dirgl_gpusim::Platform;
//! use dirgl_partition::Policy;
//!
//! let g = dirgl_graph::RmatConfig::new(8, 6).seed(7).generate();
//! let server = JobServer::load(
//!     &g,
//!     Platform::bridges(4),
//!     RunConfig::var4(Policy::Cvc),
//!     ServeConfig::default(),
//! )
//! .unwrap();
//! let src = server.default_source().unwrap();
//! let h = server.submit_spec(JobSpec::bfs(src)).unwrap();
//! let r = h.wait().unwrap();
//! assert!(!r.outcome.values().is_empty());
//! ```

#![warn(missing_docs)]

mod cache;
mod governor;
mod job;
mod server;

pub use dirgl_gpusim::DeviceHealth;
pub use governor::{DeviceStatus, RejectReason};
pub use job::{
    JobError, JobHandle, JobOutcome, JobRequest, JobResilience, JobResult, JobSpec, Priority,
    SubmitError,
};
pub use server::{JobServer, ServeConfig, ServerStats, ServerStatus};
