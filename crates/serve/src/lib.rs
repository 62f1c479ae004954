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
//!   job's lane width is picked: before the job runs it predicts the
//!   per-device memory footprint with the engine's own formula, checks it
//!   against health-shrunk residual capacity and walks the lane-width
//!   degradation ladder (64 → 32 → … → scalar) until it fits, shedding
//!   Low-priority work under pressure; a job that launches alone keeps its
//!   deadline while it waits for admission, and every result carries its
//!   [`JobResilience`] record.
//!
//! Traversal specs (bfs/sssp/bc) carry a *set* of sources. Only a family
//! whose batched form is bit-parallel is served batched: bfs runs its
//! sources as lanes of K-lane `MsBfs` engine passes (K ≤ 64), a single
//! source being a batch of one. sssp and bc batch through the value-lane
//! adapter, which on the host costs more than running the sources one by
//! one, so they run one scalar launch per source under the job's one
//! admission grant. At dequeue, a worker widens its job into a
//! **coalescing window** (a lone job is a window of one): queued
//! single-source jobs of the same kind and epoch merge into one
//! multi-source job, which waits for admission without a deadline, each
//! job keeps its own handle and outcome, and the result cache is filled
//! per source — later identical singletons hit without running.
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
