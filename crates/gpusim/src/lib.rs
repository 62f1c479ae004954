//! Virtual-time GPU execution model.
//!
//! The paper's computation results hinge on *how work is distributed over
//! thread blocks*, not on absolute GPU speed. This crate models exactly
//! that: device specifications ([`GpuSpec`]), device-memory tracking with
//! OOM errors ([`memory`]), and the four edge-to-thread-block schedulers
//! the paper compares ([`sched`]):
//!
//! * **TWC** — Thread/Warp/CTA expansion (Merrill et al.): balances within
//!   a thread block but a high-degree vertex still lands wholly on one
//!   block;
//! * **ALB** — the Adaptive Load Balancer (Jatala et al.): splits very
//!   high-degree vertices across *all* blocks, otherwise TWC;
//! * **LB** — Gunrock's load balancer: every vertex's edges spread across
//!   all blocks, at a constant search overhead;
//! * **TB** — Lux's scheme: each vertex's edges go to the threads of one
//!   block regardless of degree.
//!
//! [`kernel::KernelModel`] converts per-block work into simulated kernel
//! time; actual label updates are executed for real by the engine crates.
//!
//! All work quantities are expressed in **paper-equivalent edge units**
//! (scaled degree × dataset divisor) so scheduler thresholds and reported
//! times land on the paper's scale; see `DESIGN.md` §6.

pub mod health;
pub mod kernel;
pub mod memory;
pub mod platform;
pub mod sched;
pub mod spec;

pub use health::{DeviceHealth, HealthTracker};
pub use kernel::{KernelModel, KernelResult};
pub use memory::{MemoryTracker, OomError};
pub use platform::{ClusterSpec, Platform};
pub use sched::Balancer;
pub use spec::GpuSpec;
