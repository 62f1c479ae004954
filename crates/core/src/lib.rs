//! The D-IrGL-equivalent engine: vertex programs executed bulk-
//! synchronously or bulk-asynchronously over simulated distributed GPUs.
//!
//! The moving parts:
//!
//! * [`program::VertexProgram`] — the operator abstraction: one edge
//!   operator, applied by push, pull or bottom-up rounds as the program's
//!   [`program::Style`] says (§III-E);
//! * [`config::Variant`] — the four optimization variants of §IV-C
//!   (TWC/ALB × AS/UO × Sync/Async);
//! * [`device`] — one device's state, its three compute bodies (push,
//!   pull, bottom-up), and the sync-message core both engines use:
//!   [`device::SyncMsg`], [`device::DeviceRun::build_sync`],
//!   [`device::DeviceRun::apply_sync`];
//! * [`bsp`] / [`basp`] — the two execution models of §III-B, each reduced
//!   to its schedule (global rounds vs. a virtual-time event heap),
//!   dispatched through [`engine::run_engine`] by
//!   [`config::ExecModel`]; [`engine`] also holds what they share
//!   of the one transport (the retry/ack `ReliableNet` every message goes
//!   through) and of the fault layer (crash firing, checkpoint capture and
//!   restore, the rejoin-or-rehome recovery tail);
//! * [`trace`] — the per-round, per-device observability layer: both
//!   engines emit [`trace::RoundRecord`]s through a [`trace::TraceSink`]
//!   (no-op by default, collecting for tests, JSON-lines for benches);
//! * [`resilience`] — checkpoint/rollback recovery and graceful
//!   degradation, driven by the fault layer in `dirgl_comm::faults` when
//!   [`config::RunConfig::faults`] schedules a crash or checkpoints are
//!   asked for;
//! * [`runtime::Runtime`] — partition, load, execute, and report; the
//!   load check ([`runtime::Runtime::footprint`]) is the one place a
//!   device's memory is costed;
//! * [`report::ExecutionReport`] — the Max Compute / Min Wait / Device
//!   Comm. decomposition with volume, rounds, work items and per-device
//!   memory, feeding every figure and table of the evaluation.

pub mod basp;
pub mod bsp;
pub mod config;
pub mod device;
pub mod engine;
pub mod multi;
pub mod program;
pub mod report;
pub mod resilience;
pub mod runtime;
pub mod trace;

pub use config::{ExecModel, RunConfig, Variant};
pub use engine::{run_engine, EngineOutcome};
pub use multi::{
    at_width_class, lanes_of, AtWidth, BatchedProgram, LaneState, LaneWire, Lanes, MsBfs,
    MsBfsState, MultiSourceProgram, LANE_WIDTH, MS_UNREACHED,
};
pub use program::{InitCtx, MinLabel, MinState, Style, VertexProgram, PULL_THRESHOLD};
pub use report::{ExecutionReport, RoundSummary};
pub use resilience::ResilienceStats;
pub use runtime::{
    Backend, LaneOutput, LaneSummary, LayoutChoice, MultiRunOutput, MultiRunner, PartitionArg,
    PreparedPartition, RunError, RunOutput, Runner, Runtime,
};
pub use trace::{
    CollectingSink, EngineKind, FaultEvent, JsonLinesSink, NoopSink, RoundRecord, TraceDirection,
    TraceSink,
};
