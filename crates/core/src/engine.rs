//! What the two execution models share: one entry point, the run outcome,
//! the round records, the transport context, and the fault-layer steps
//! that do not depend on the schedule.
//!
//! [`run_engine`] dispatches a prepared device set to [`crate::bsp`] or
//! [`crate::basp`] by [`ExecModel`], with the trace sink always in the
//! signature (pass a [`crate::trace::NoopSink`] for untraced runs — a
//! disabled sink skips all record assembly, so the untraced path costs
//! nothing).
//!
//! BSP and BASP are one Gluon substrate under two schedules (§III-B): the
//! sync messages are built and applied by [`DeviceRun::build_sync`] /
//! [`DeviceRun::apply_sync`], a crash is fired, checkpointed against and
//! recovered from by the helpers here, and every round record is tallied
//! and assembled by `RoundTally`. Each engine module keeps only what its
//! schedule decides — when a device computes, when its messages depart,
//! and how a crash is detected.
//!
//! Both engines send through one transport, the retry/ack
//! [`ReliableNet`] held in `FaultCtx`; under the default
//! [`dirgl_comm::FaultPlan::none`] a send is one link-model send. The two
//! schedules stay two loops because they price communication differently.
//! BSP prices each exchange as one batch
//! ([`ReliableNet::exchange_reliable`]: service order, with a per-host
//! send floor) and takes host wait from that exchange. BASP prices
//! messages one at a time as they depart ([`ReliableNet::send_reliable`])
//! and takes host wait from device idle time. One event schedule for both
//! would move every BSP report hash and the BSP wait figures.

use dirgl_comm::{
    CrashSpec, FaultInjector, LinkEvent, LinkEventKind, NetModel, ReliableExchange, ReliableNet,
    ReliableState, SimTime, SyncPlan,
};
use dirgl_gpusim::HealthTracker;
use dirgl_partition::Partition;

use crate::basp::run_basp;
use crate::bsp::run_bsp;
use crate::config::{ExecModel, RunConfig};
use crate::device::DeviceRun;
use crate::program::VertexProgram;
use crate::resilience::{checkpoint_transfer, DeviceSnapshot, HomeMap, ResilienceStats};
use crate::trace::{EngineKind, FaultEvent, RoundRecord, TraceDirection, TraceSink};

/// Runs `program` on the prepared `devices` under the chosen execution
/// model, emitting per-round records into `sink`.
#[allow(clippy::too_many_arguments)]
pub fn run_engine<P: VertexProgram>(
    model: ExecModel,
    program: &P,
    devices: &mut [DeviceRun<'_, P>],
    part: &Partition,
    plan: &SyncPlan,
    net: &NetModel,
    config: &RunConfig,
    sink: &mut dyn TraceSink,
) -> EngineOutcome {
    match model {
        ExecModel::Sync => run_bsp(program, devices, part, plan, net, config, sink),
        ExecModel::Async => run_basp(program, devices, part, plan, net, config, sink),
    }
}

/// Raw outcome of a BSP/BASP run, consumed by the runtime's report
/// assembly.
pub struct EngineOutcome {
    /// Final per-device clocks; the max is the execution time.
    pub clocks: Vec<SimTime>,
    /// Accumulated per-host blocking time.
    pub host_wait: Vec<SimTime>,
    /// Paper-equivalent bytes moved.
    pub comm_bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Headline round count. Under BSP this is the number of global
    /// rounds. Under BASP there are no global rounds, so this equals
    /// [`EngineOutcome::min_rounds`], the minimum per-device local round
    /// count — the conservative "every device got at least this far"
    /// statistic. (BASP's work inflation from stale reads shows up in
    /// [`EngineOutcome::max_rounds`], not here.) This field is the single
    /// source of truth for that convention; `ExecutionReport::rounds`
    /// copies it verbatim.
    pub rounds: u32,
    /// Minimum per-device local round count. Under BSP a device with no
    /// active work skips its compute kernel, so this can be *below* the
    /// global round count.
    pub min_rounds: u32,
    /// Maximum per-device local round count.
    pub max_rounds: u32,
    /// Fault, retry and recovery counters (all zero on a healthy run).
    pub resilience: ResilienceStats,
}

/// What one device did since its previous round record.
#[derive(Clone, Copy, Default)]
pub(crate) struct DeviceTally {
    /// Active vertices when its compute phase started.
    pub frontier: u64,
    /// Pack time charged.
    pub pack: SimTime,
    /// Time blocked on inbound messages.
    pub wait: SimTime,
    /// (bytes, messages) sent.
    pub sent: (u64, u64),
    /// (bytes, messages) received.
    pub received: (u64, u64),
}

/// The per-device tallies behind both engines' round records, and the one
/// place a [`RoundRecord`] is assembled. With a disabled sink `devices` is
/// empty, so every update is a no-op and nothing is assembled.
#[derive(Clone)]
pub(crate) struct RoundTally {
    engine: EngineKind,
    /// Direction stamped on the records emitted next.
    pub direction: TraceDirection,
    /// One tally per device; empty when not tracing.
    pub devices: Vec<DeviceTally>,
}

impl RoundTally {
    pub(crate) fn new(
        engine: EngineKind,
        direction: TraceDirection,
        p: usize,
        sink: &dyn TraceSink,
    ) -> RoundTally {
        let p = if sink.enabled() { p } else { 0 };
        RoundTally {
            engine,
            direction,
            devices: vec![DeviceTally::default(); p],
        }
    }

    /// Applies `f` to device `d`'s tally when tracing.
    pub(crate) fn update(&mut self, d: usize, f: impl FnOnce(&mut DeviceTally)) {
        if let Some(t) = self.devices.get_mut(d) {
            f(t);
        }
    }

    /// Emits device `d`'s record of `round` from its tally, and starts its
    /// next tally from zero.
    #[inline]
    pub(crate) fn emit(
        &mut self,
        sink: &mut dyn TraceSink,
        d: usize,
        round: u32,
        compute: SimTime,
        absorb_changed: u32,
        clock_end: SimTime,
    ) {
        let Some(t) = self.devices.get_mut(d).map(std::mem::take) else {
            return;
        };
        sink.record(RoundRecord {
            engine: self.engine,
            round,
            device: d as u32,
            direction: self.direction,
            frontier: t.frontier,
            compute,
            pack: t.pack,
            wait: t.wait,
            bytes_sent: t.sent.0,
            bytes_received: t.received.0,
            messages_sent: t.sent.1,
            messages_received: t.received.1,
            absorb_changed,
            clock_end,
        });
    }
}

/// Per-round cost of the distributed termination check (an allreduce over
/// the hosts).
pub(crate) fn termination_check_cost(net: &NetModel) -> SimTime {
    let hosts = net.platform().num_hosts();
    if hosts <= 1 {
        return SimTime::ZERO;
    }
    let c = net.platform().cluster;
    let hops = (hosts as f64).log2().ceil().max(1.0);
    SimTime::from_secs_f64(c.msg_overhead + c.net_latency * hops)
}

/// The engines' transport context, built once per run under
/// [`RunConfig::faults`]. Bundles the reliable transport with the mutable
/// recovery state every send needs and the buffers BSP's exchanges reuse.
pub(crate) struct FaultCtx<'a> {
    /// Retry/ack transport over the link model.
    pub rnet: ReliableNet<'a>,
    /// Per-link sequence numbers (never checkpointed — replays draw fresh
    /// fault fates).
    pub rstate: ReliableState,
    /// Which physical devices are alive.
    pub health: HealthTracker,
    /// Logical→physical partition placement.
    pub home: HomeMap,
    /// Link-level incident buffer, drained into the trace sink.
    pub events: Vec<LinkEvent>,
    /// The crash already fired.
    pub crash_fired: bool,
    /// The last BSP exchange's outcome and abandoned sends, refilled in
    /// place by every exchange.
    pub ex: ReliableExchange,
}

impl<'a> FaultCtx<'a> {
    pub(crate) fn new(net: &'a NetModel, config: &RunConfig) -> FaultCtx<'a> {
        let p = net.platform().num_devices();
        FaultCtx {
            rnet: ReliableNet::new(net, config.faults.clone()),
            rstate: ReliableState::for_devices(p),
            health: HealthTracker::new(p),
            home: HomeMap::identity(p),
            events: Vec::new(),
            crash_fired: false,
            ex: ReliableExchange::default(),
        }
    }

    pub(crate) fn injector(&self) -> &FaultInjector {
        self.rnet.injector()
    }

    /// True while some logical partition has no live physical host — a
    /// crash happened and recovery has not yet run.
    pub(crate) fn dead_unrecovered(&self, p: usize) -> bool {
        (0..p as u32).any(|l| !self.health.is_alive(self.home.phys(l)))
    }

    /// Whether logical partition `l` can execute right now.
    pub(crate) fn alive_logical(&self, l: u32) -> bool {
        self.health.is_alive(self.home.phys(l))
    }

    /// Fires the scheduled crash: crashes are one-shot even across replays.
    pub(crate) fn fire_crash(
        &mut self,
        cr: CrashSpec,
        at: SimTime,
        stats: &mut ResilienceStats,
        sink: &mut dyn TraceSink,
    ) {
        self.crash_fired = true;
        self.health.mark_dead(cr.device);
        stats.crashes += 1;
        sink.fault(FaultEvent::FaultInjected {
            at,
            device: cr.device,
            kind: "crash",
        });
    }

    /// The tail of a recovery, once the engine has restored the checkpoint
    /// and resumes at `resume`: the crashed device rejoins, or its
    /// partition (`masters` master vertices) is re-homed onto a survivor
    /// for good; then the rollback is announced.
    pub(crate) fn finish_recovery(
        &mut self,
        cr: CrashSpec,
        masters: u64,
        resume: SimTime,
        to_round: u32,
        stats: &mut ResilienceStats,
        sink: &mut dyn TraceSink,
    ) {
        if cr.rejoin {
            self.health.revive(cr.device);
            stats.rejoins += 1;
        } else {
            let adopter = self
                .home
                .pick_adopter(&self.health.alive_flags())
                .expect("at least one survivor");
            self.home.rehome(cr.device, adopter);
            stats.masters_reassigned += masters;
            sink.fault(FaultEvent::MastersReassigned {
                at: resume,
                from_device: cr.device,
                to_device: adopter,
                masters,
            });
        }
        sink.fault(FaultEvent::Rollback {
            at: resume,
            to_round,
            device: cr.device,
        });
    }

    /// Forwards buffered link incidents to the sink as trace events.
    pub(crate) fn drain_events(&mut self, sink: &mut dyn TraceSink) {
        if !sink.enabled() {
            self.events.clear();
            return;
        }
        for e in self.events.drain(..) {
            let ev = match e.kind {
                LinkEventKind::Drop => FaultEvent::FaultInjected {
                    at: e.at,
                    device: e.from,
                    kind: "link-drop",
                },
                LinkEventKind::Duplicate => FaultEvent::FaultInjected {
                    at: e.at,
                    device: e.from,
                    kind: "link-duplicate",
                },
                LinkEventKind::DelaySpike => FaultEvent::FaultInjected {
                    at: e.at,
                    device: e.from,
                    kind: "link-delay",
                },
                LinkEventKind::Timeout => FaultEvent::Timeout {
                    at: e.at,
                    from: e.from,
                    to: e.to,
                    attempt: e.attempt,
                },
                LinkEventKind::Retransmit => FaultEvent::Retransmit {
                    at: e.at,
                    from: e.from,
                    to: e.to,
                    attempt: e.attempt,
                },
                LinkEventKind::GiveUp => FaultEvent::FaultInjected {
                    at: e.at,
                    device: e.from,
                    kind: "delivery-failure",
                },
            };
            sink.fault(ev);
        }
    }
}

/// A compute time under a straggler slowdown factor (1.0 = healthy, and
/// then bit-exact).
pub(crate) fn scale_time(t: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        t
    } else {
        SimTime::from_secs_f64(t.as_secs_f64() * factor)
    }
}

/// Captures every device, charging each device's PCIe dump time to its
/// clock. Returns the instant the slowest dump completes with the
/// snapshots; the engine adds whatever schedule state it must restore.
#[allow(clippy::too_many_arguments)]
pub(crate) fn capture_checkpoint<P: VertexProgram>(
    program: &P,
    devices: &[DeviceRun<'_, P>],
    clocks: &mut [SimTime],
    round: u32,
    divisor: u64,
    net: &NetModel,
    stats: &mut ResilienceStats,
    sink: &mut dyn TraceSink,
) -> (SimTime, Vec<DeviceSnapshot<P>>) {
    let cluster = net.platform().cluster;
    let mut total = 0u64;
    for (clock, dev) in clocks.iter_mut().zip(devices) {
        let (bytes, time) = checkpoint_transfer(dev, program, divisor, &cluster);
        total += bytes;
        *clock += time;
    }
    let at = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
    stats.checkpoints_taken += 1;
    stats.checkpoint_bytes += total;
    sink.fault(FaultEvent::CheckpointTaken {
        at,
        round,
        bytes: total,
    });
    (at, devices.iter().map(DeviceSnapshot::capture).collect())
}

/// Rolls every device back to `snaps` after a crash was detected at
/// `detect_at`: restores its state and sets its clock to the instant its
/// PCIe reload completes. Returns the latest of those, when the run
/// resumes. Monotonic accounting (compute time, work items) is preserved:
/// the lost rounds were really run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn restore_checkpoint<P: VertexProgram>(
    program: &P,
    devices: &mut [DeviceRun<'_, P>],
    snaps: &[DeviceSnapshot<P>],
    clocks: &mut [SimTime],
    detect_at: SimTime,
    divisor: u64,
    net: &NetModel,
    stats: &mut ResilienceStats,
) -> SimTime {
    let cluster = net.platform().cluster;
    let pre_max = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
    let mut resume = detect_at;
    for ((dev, snap), clock) in devices.iter_mut().zip(snaps).zip(clocks.iter_mut()) {
        snap.restore(dev);
        *clock = detect_at + checkpoint_transfer(dev, program, divisor, &cluster).1;
        resume = resume.max(*clock);
    }
    stats.rollbacks += 1;
    stats.recovery_time += resume.saturating_sub(pre_max);
    resume
}
