//! Gluon-style communication substrate (§III-D of the paper).
//!
//! Responsibilities:
//!
//! * [`clock`] — deterministic virtual time ([`SimTime`]);
//! * [`bitset`] — dense update-tracking bitsets (the UO optimization's
//!   data structure) with a modelled GPU prefix-scan extraction cost;
//! * [`message`] — message size accounting for the AS (all-shared) and UO
//!   (updated-only) modes, including the memoized-order encoding that
//!   elides global ids (§III-D2);
//! * [`plan`] — the synchronization planner: which link entries
//!   participate in the mirror→master *reduce* and master→mirror
//!   *broadcast*, derived purely from the partition's structure so the
//!   paper's per-policy elisions (OEC skips broadcast, IEC skips reduce,
//!   CVC stays inside grid rows/columns) emerge rather than being
//!   special-cased;
//! * [`net`] — the virtual-time link model producing the
//!   Max Compute / Min Wait / Device Comm. decomposition of Figs. 4–6/8–9;
//! * [`faults`] — seeded, deterministic fault schedules (link drop /
//!   duplication / delay, device crash / straggler);
//! * [`reliable`] — the transport both engines send through: retry/ack
//!   delivery layered over [`net`] (per-link sequence numbers,
//!   exponential-backoff retransmission with a bounded budget, duplicate
//!   suppression). Without link faults a send is one [`net`] send.

pub mod bitset;
pub mod clock;
pub mod faults;
pub mod message;
pub mod net;
pub mod plan;
pub mod reliable;

pub use bitset::{live_mask, DenseBitset};
pub use clock::SimTime;
pub use faults::{
    CrashSpec, FaultCounters, FaultInjector, FaultPlan, LinkFate, RetryConfig, StragglerSpec,
    RETRY_LADDER,
};
pub use message::{as_message_bytes, message_bytes_sized, uo_message_bytes, CommMode, VAL_BYTES};
pub use net::{Delivery, ExchangeOutcome, NetModel, NetState, SendDesc};
pub use plan::{ExtractIndex, Partner, SyncPlan};
pub use reliable::{
    Failure, LinkEvent, LinkEventKind, ReliableExchange, ReliableNet, ReliableState, SendVerdict,
};
