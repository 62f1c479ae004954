//! The bulk-asynchronous (BASP) driver (§III-B, Gluon-Async).
//!
//! No global rounds: each device alternates between computing on its
//! partition and draining whatever messages have *arrived* by its own
//! clock, tolerating stale reads. Implemented as a deterministic
//! discrete-event simulation over a single event heap ordered by
//! `(virtual time, sequence number)`.
//!
//! The paper's two BASP effects emerge directly:
//!
//! * faster hosts keep computing instead of blocking, shrinking wait time
//!   (bfs/clueweb12 gets faster);
//! * devices compute with stale labels and redo work — local round counts
//!   and work items rise (bfs/uk14 gets slower).
//!
//! Steps: round events that fall on the *same* virtual instant are popped
//! as one step, and the step's rounds run one after another on the calling
//! thread, in pop order — drain, absorb, compute, build, then inject the
//! sends. Two same-instant rounds can never observe each other's output
//! (their arrivals carry strictly larger sequence numbers). The grouping is
//! part of the schedule: a crash scheduled for a member fires before any
//! member runs, and failure detection and checkpoints run once per step.
//!
//! Host parallelism: none. Steps of two or more rounds are rare — devices
//! start together, but their clocks drift apart with their work; on the
//! benchmark's high-diameter sssp crawl (64 devices, ~11 000 round events
//! per run) one happens about once per run — so fanning a step's rounds out
//! across the worker pool bought no measurable time, and its bookkeeping
//! cost allocations on every round event.
//!
//! Resilience: every send goes through the reliable transport under
//! [`RunConfig::faults`] (one link-model send per message when the plan
//! schedules no link faults); a device crash (scheduled by *local* round
//! ordinal) silences its partition, is detected when a sender exhausts its
//! retry budget — or, if no message was in flight, when the drained heap
//! leaves an unrecovered corpse — and recovery restores a full-simulation
//! checkpoint (devices, inboxes, event heap, link occupancy) shifted
//! forward to the detection instant. Without rejoin the dead device's
//! partition is re-homed onto a survivor and the simulation continues
//! degraded.
//!
//! This module owns the BASP *schedule* only: the event heap, same-instant
//! steps, send injection and the time-shifted restore. The messages
//! themselves ([`DeviceRun::build_sync`] / [`DeviceRun::apply_sync`]), the
//! checkpoint / recovery steps and the round records ([`crate::engine`])
//! are shared with the BSP driver.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dirgl_comm::{NetModel, NetState, SendDesc, SimTime, SyncPlan, RETRY_LADDER};
use dirgl_partition::Partition;

use crate::config::RunConfig;
use crate::device::{DeviceRun, SyncDir, SyncMsg};
use crate::engine::{
    capture_checkpoint, restore_checkpoint, scale_time, EngineOutcome, FaultCtx, RoundTally,
};
use crate::program::{Style, VertexProgram};
use crate::resilience::{DeviceSnapshot, ResilienceStats};
use crate::trace::{EngineKind, FaultEvent, TraceDirection, TraceSink};

#[derive(Clone)]
struct Event<W> {
    time: SimTime,
    seq: u64,
    kind: EventKind<W>,
}

#[derive(Clone)]
enum EventKind<W> {
    /// A device's next local round.
    Round(u32),
    /// A sync message reaching `msg.to`.
    Arrive(SyncMsg<W>),
}

impl<W> PartialEq for Event<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for Event<W> {}
impl<W> PartialOrd for Event<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Event<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The discrete-event state of the simulation besides the devices
/// themselves: what a checkpoint captures and a recovery restores
/// (time-shifted). Sequence counters and per-link fault sequence numbers
/// are deliberately *not* here: a replay draws fresh fault fates, so a
/// drop that killed the first timeline cannot recur forever
/// (livelock-freedom).
#[derive(Clone)]
struct Schedule<W> {
    /// When each device's current round (with its sends) ends.
    busy: Vec<SimTime>,
    /// Since when each idle device has been waiting for mail.
    idle_since: Vec<Option<SimTime>>,
    /// Devices with a `Round` event in the heap.
    round_pending: Vec<bool>,
    /// Pull programs: devices whose last round changed nothing.
    converged: Vec<bool>,
    /// Arrived, not yet applied messages per device.
    inbox: Vec<Vec<SyncMsg<W>>>,
    /// In-flight events.
    heap: BinaryHeap<Event<W>>,
    /// Link occupancy.
    net_state: NetState,
    /// What each device waited for and received since its previous local
    /// round, and what its current round does (tracing only).
    tally: RoundTally,
}

/// A restorable point of the whole BASP simulation.
struct BaspCheckpoint<P: VertexProgram> {
    taken_at: SimTime,
    devs: Vec<DeviceSnapshot<P>>,
    sched: Schedule<P::Wire>,
}

/// Runs `program` to quiescence under BASP, emitting one
/// [`crate::trace::RoundRecord`] per *local* device round into `sink`. `round` in each
/// record is the device's own 0-based round ordinal (local rounds are not
/// globally aligned); `wait` is the idle time the device accumulated
/// between its previous round and this one. With a disabled sink (e.g.
/// [`crate::trace::NoopSink`]) no records are assembled.
pub fn run_basp<P: VertexProgram>(
    program: &P,
    devices: &mut [DeviceRun<'_, P>],
    part: &Partition,
    plan: &SyncPlan,
    net: &NetModel,
    config: &RunConfig,
    sink: &mut dyn TraceSink,
) -> EngineOutcome {
    let p = devices.len();
    let divisor = config.scale_divisor;
    let balancer = config.variant.balancer;
    let pull = program.style() == Style::PullTopologyDriven;
    let direction = if pull {
        TraceDirection::Pull
    } else {
        TraceDirection::Push
    };

    let mut seq = 0u64;
    let push_ev = |heap: &mut BinaryHeap<Event<P::Wire>>, seq: &mut u64, time, kind| {
        *seq += 1;
        heap.push(Event {
            time,
            seq: *seq,
            kind,
        });
    };

    let mut sched = Schedule {
        busy: vec![SimTime::ZERO; p],
        idle_since: vec![None; p],
        round_pending: vec![false; p],
        converged: vec![false; p],
        inbox: (0..p).map(|_| Vec::new()).collect(),
        heap: BinaryHeap::new(),
        net_state: net.new_state(),
        tally: RoundTally::new(EngineKind::Basp, direction, p, sink),
    };
    let mut comm_bytes = 0u64;
    let mut messages = 0u64;

    // The transport and the recovery state.
    let mut fctx = FaultCtx::new(net, config);
    let mut stats = ResilienceStats::default();
    let crash_plan = config.faults.crash;
    let ckpt_every = config.checkpoint_every_rounds;
    let recovery_on = crash_plan.is_some() || ckpt_every > 0;
    let mut next_ckpt = if ckpt_every > 0 { ckpt_every } else { u32::MAX };
    // Per-physical-device serialization floor, meaningful only after
    // degradation re-homing put two partitions on one device.
    let mut phys_free = vec![SimTime::ZERO; p];
    let mut pending_failures: Vec<SimTime> = Vec::new();
    let mut straggler_announced = false;

    for d in 0..p as u32 {
        if pull || devices[d as usize].has_work() {
            sched.round_pending[d as usize] = true;
            push_ev(
                &mut sched.heap,
                &mut seq,
                SimTime::ZERO,
                EventKind::Round(d),
            );
        } else {
            sched.idle_since[d as usize] = Some(SimTime::ZERO);
        }
    }

    // Captures the devices (charging each dump to its `busy` clock), then
    // the schedule as it stands after that charge.
    let take_checkpoint = |devices: &[DeviceRun<'_, P>],
                           sched: &mut Schedule<P::Wire>,
                           stats: &mut ResilienceStats,
                           sink: &mut dyn TraceSink| {
        let round = devices.iter().map(|d| d.rounds).min().unwrap_or(0);
        let (taken_at, devs) = capture_checkpoint(
            program,
            devices,
            &mut sched.busy,
            round,
            divisor,
            net,
            stats,
            sink,
        );
        BaspCheckpoint {
            taken_at,
            devs,
            sched: sched.clone(),
        }
    };
    let mut checkpoint: Option<BaspCheckpoint<P>> = None;
    if recovery_on {
        checkpoint = Some(take_checkpoint(devices, &mut sched, &mut stats, sink));
    }

    // Round events of one virtual instant form a step; reused across steps.
    let mut step: Vec<u32> = Vec::with_capacity(p);
    loop {
        let detect_at = match sched.heap.pop() {
            Some(Event {
                time,
                kind: EventKind::Arrive(msg),
                ..
            }) => {
                // Mail for a dead partition evaporates; the sender's
                // failure detection happens on the transport side.
                if !fctx.alive_logical(msg.to) {
                    continue;
                }
                let d = msg.to;
                let du = d as usize;
                sched.tally.update(du, |t| {
                    t.received = (t.received.0 + msg.bytes, t.received.1 + 1)
                });
                // An empty message wakes its receiver like any other but
                // leaves nothing to apply.
                if !msg.data.is_empty() {
                    sched.inbox[du].push(msg);
                }
                if !sched.round_pending[du] {
                    // Wake the device at whichever is later: now or when its
                    // current round ends.
                    let wake = time.max(sched.busy[du]);
                    if let Some(s) = sched.idle_since[du].take() {
                        let blocked = wake.saturating_sub(s);
                        devices[du].idle_time += blocked;
                        sched.tally.update(du, |t| t.wait += blocked);
                    }
                    sched.round_pending[du] = true;
                    push_ev(&mut sched.heap, &mut seq, wake, EventKind::Round(d));
                }
                continue;
            }
            Some(Event {
                time: t,
                kind: EventKind::Round(d),
                ..
            }) => {
                // The step: every Round event sharing this exact instant (an
                // interleaved same-time Arrive ends it: its effect must stay
                // ordered between the rounds around it).
                step.clear();
                step.push(d);
                while let Some(top) = sched.heap.peek() {
                    match top.kind {
                        EventKind::Round(d2) if top.time == t => step.push(d2),
                        _ => break,
                    }
                    sched.heap.pop();
                }
                for &sd in &step {
                    sched.round_pending[sd as usize] = false;
                }

                // Scheduled crash: fires when the victim is about to execute
                // the configured *local* round ordinal, before any member of
                // the step runs. The victim's round (and its step-mates'
                // mail to it) simply stops happening.
                if let Some(cr) = crash_plan {
                    if !fctx.crash_fired
                        && step.contains(&cr.device)
                        && devices[cr.device as usize].rounds == cr.round
                    {
                        fctx.fire_crash(cr, t, &mut stats, sink);
                    }
                    step.retain(|&sd| fctx.alive_logical(sd));
                    if step.is_empty() {
                        continue;
                    }
                }

                for &sd in &step {
                    let du = sd as usize;
                    let dev = &mut devices[du];
                    // 1. Drain arrived messages. Only payloads that actually
                    // change state un-converge the device: header-only sync
                    // messages must not cause compute chatter. Applied
                    // payload vectors recycle into this device's pool.
                    let mut conv = sched.converged[du];
                    for msg in sched.inbox[du].drain(..) {
                        if dev.apply_sync(program, part, &msg, true) {
                            conv = false;
                        }
                        dev.scratch.recycle(msg.data);
                    }
                    // 2. Pre-compute absorb (data-driven): reduced deltas may
                    // activate masters. Idempotent against an empty
                    // accumulator. Masters it changes stay marked for the
                    // broadcast in step 5.
                    let mut changed = if pull { 0 } else { dev.absorb_masters(program) };
                    let work = if pull { !conv } else { dev.has_work() };
                    if !work || dev.rounds >= program.max_rounds() {
                        sched.converged[du] = conv;
                        sched.idle_since[du] = Some(t);
                        continue;
                    }
                    sched.tally.update(du, |r| r.frontier = dev.active_count());

                    // 3. Compute one local round. Pull programs then consume
                    // the mirror values read this round: local rounds are not
                    // globally aligned, so an unconsumed mirror residual would
                    // be re-read by the next local round (mass duplication).
                    let dt = dev.compute(program, balancer, divisor);
                    if pull {
                        dev.consume_mirrors_after_pull(program);
                    }

                    // 4. Absorb (masters fold local accumulations).
                    let absorbed = dev.absorb_masters(program);
                    changed += absorbed;
                    if pull {
                        conv = absorbed == 0;
                    }
                    sched.converged[du] = conv;

                    // 5. Build and send. Every computing round syncs with
                    // every partner, as Gluon(-Async) does: this device's
                    // mirror deltas to their masters, and its updated masters
                    // to their mirrors.
                    let pack = dev.build_sync(
                        program,
                        &[SyncDir::Reduce, SyncDir::Broadcast],
                        part,
                        plan,
                        config,
                    );
                    dev.clear_sync_marks(program);
                    // Straggler: scale this round's kernel time when the
                    // hosting physical device is inside its slow window.
                    let phys = fctx.home.phys(sd);
                    let f = fctx.injector().slowdown(phys, dev.rounds - 1);
                    if f != 1.0 && !straggler_announced {
                        straggler_announced = true;
                        sink.fault(FaultEvent::FaultInjected {
                            at: t,
                            device: phys,
                            kind: "straggler",
                        });
                    }
                    let dt = scale_time(dt, f);
                    // On a healthy identity mapping `t >= busy[du]` always
                    // holds and `start == t`, the healthy schedule. The maxes
                    // matter after a checkpoint charge pushed `busy` past an
                    // already-scheduled round, and for partitions sharing a
                    // physical device after re-homing (they serialize on the
                    // `phys_free` floor).
                    let start = if fctx.home.is_identity() {
                        t.max(sched.busy[du])
                    } else {
                        t.max(sched.busy[du]).max(phys_free[phys as usize])
                    };
                    let mut depart = start + dt;
                    let mut sender_free = depart;
                    depart += pack;
                    sched.tally.update(du, |r| {
                        r.pack = pack;
                        let built = &dev.scratch.built;
                        r.sent = (built.iter().map(|m| m.bytes).sum(), built.len() as u64);
                    });
                    for msg in dev.scratch.built.drain(..) {
                        let (other, bytes) = (msg.to, msg.bytes);
                        messages += 1;
                        // When the message arrives; `None` when its
                        // receiver is dead.
                        let pt = fctx.home.phys(other);
                        let arrival = if phys == pt {
                            // Co-homed after degradation: the payload
                            // never leaves device memory.
                            Some(depart)
                        } else {
                            let alive = fctx.health.is_alive(pt);
                            let v = fctx.rnet.send_reliable(
                                &mut sched.net_state,
                                &mut fctx.rstate,
                                SendDesc {
                                    from: phys,
                                    to: pt,
                                    bytes,
                                    depart,
                                },
                                alive,
                                &mut stats.faults,
                                &mut fctx.events,
                            );
                            comm_bytes += v.wire_bytes;
                            sender_free = sender_free.max(v.sender_free);
                            // Alive receiver, every attempt lost: escalate
                            // out-of-band and deliver at the give-up
                            // instant (correctness must not depend on
                            // luck).
                            v.arrival.or_else(|| {
                                let gave = v.gave_up_at.expect("no arrival implies give-up");
                                if !alive {
                                    pending_failures.push(gave);
                                }
                                alive.then_some(gave)
                            })
                        };
                        if let Some(at) = arrival {
                            push_ev(&mut sched.heap, &mut seq, at, EventKind::Arrive(msg));
                        }
                    }
                    sched.busy[du] = depart.max(sender_free);
                    if !fctx.home.is_identity() {
                        let pd = phys as usize;
                        phys_free[pd] = phys_free[pd].max(sched.busy[du]);
                    }
                    let round = dev.rounds - 1;
                    sched
                        .tally
                        .emit(sink, du, round, dt, changed, sched.busy[du]);

                    // 6. Keep rounding while local work remains; otherwise
                    // idle.
                    let more = if pull { !conv } else { dev.has_work() };
                    if more && dev.rounds < program.max_rounds() {
                        // Throttled BASP: insert a gap so arrivals batch into
                        // the next round instead of each triggering redundant
                        // recomputation (the paper's §VII recommendation).
                        let next =
                            sched.busy[du] + SimTime::from_secs_f64(config.basp_round_gap_secs);
                        sched.round_pending[du] = true;
                        push_ev(&mut sched.heap, &mut seq, next, EventKind::Round(sd));
                    } else {
                        sched.idle_since[du] = Some(sched.busy[du]);
                    }
                }

                fctx.drain_events(sink);
                if pending_failures.is_empty() {
                    // Scheduled checkpoint: once every device's local round
                    // ordinal has crossed the next interval boundary.
                    if recovery_on && ckpt_every > 0 {
                        let minr = devices.iter().map(|d| d.rounds).min().unwrap_or(0);
                        if minr >= next_ckpt && !fctx.dead_unrecovered(p) {
                            checkpoint =
                                Some(take_checkpoint(devices, &mut sched, &mut stats, sink));
                            next_ckpt = (minr / ckpt_every + 1) * ckpt_every;
                        }
                    }
                    continue;
                }
                // A sender detected the crashed device: its retry budget ran
                // out.
                pending_failures
                    .drain(..)
                    .max()
                    .expect("non-empty failures")
            }
            // Heap drained with a crashed device never detected through a
            // failed send (nothing was due to it): the quiescence check
            // itself is the failure detector. The lease on the silent peer
            // expires one full retry ladder past the last activity.
            None if fctx.dead_unrecovered(p) => {
                sched.busy.iter().copied().max().unwrap_or(SimTime::ZERO)
                    + RETRY_LADDER.give_up_after()
            }
            None => break,
        };

        // Recovery, for both detectors: roll the whole simulation back to
        // the last checkpoint, shifted forward so it resumes at the
        // detection instant, then revive the dead device (rejoin) or
        // re-home its partition onto a survivor.
        let cr = crash_plan.expect("only a scheduled crash kills devices");
        let ckpt = checkpoint
            .as_ref()
            .expect("recovery_on guarantees an initial checkpoint");
        stats.rounds_replayed += devices
            .iter()
            .zip(&ckpt.devs)
            .map(|(d, s)| d.rounds.saturating_sub(s.rounds()))
            .sum::<u32>();
        // Every device reloads its snapshot over PCIe; the simulation
        // resumes once the slowest reload completes.
        let resume = restore_checkpoint(
            program,
            devices,
            &ckpt.devs,
            &mut sched.busy,
            detect_at,
            divisor,
            net,
            &mut stats,
        );
        // Restore, time-shifted: everything the snapshot scheduled `x`
        // seconds into its future stays `x` seconds into the resumed run's
        // future. Original sequence numbers are kept: relative event order
        // inside the snapshot is part of the restored state. The live
        // counter was never rolled back, so post-recovery events sort after
        // all restored ones at equal instants.
        let delta = resume.saturating_sub(ckpt.taken_at);
        sched = ckpt.sched.clone();
        sched.busy.iter_mut().for_each(|b| *b += delta);
        for t in sched.idle_since.iter_mut().flatten() {
            *t += delta;
        }
        sched.net_state.shift(delta);
        sched.heap = std::mem::take(&mut sched.heap)
            .into_iter()
            .map(|e| Event {
                time: e.time + delta,
                ..e
            })
            .collect();
        let masters = devices[cr.device as usize].lg.num_masters as u64;
        let to_round = ckpt.devs.iter().map(|s| s.rounds()).min().unwrap_or(0);
        fctx.finish_recovery(cr, masters, resume, to_round, &mut stats, sink);
        phys_free.fill(SimTime::ZERO);
        for (l, &b) in sched.busy.iter().enumerate() {
            let pd = fctx.home.phys(l as u32) as usize;
            phys_free[pd] = phys_free[pd].max(b);
        }
    }
    sink.finish();

    // Quiescent: no events left, every device idle.
    let hosts = net.platform().num_hosts() as usize;
    let mut host_wait = vec![SimTime(u64::MAX); hosts];
    for d in 0..p as u32 {
        let h = net.platform().host_of(d) as usize;
        host_wait[h] = host_wait[h].min(devices[d as usize].idle_time);
    }
    for w in host_wait.iter_mut() {
        if *w == SimTime(u64::MAX) {
            *w = SimTime::ZERO;
        }
    }
    let min_rounds = devices.iter().map(|d| d.rounds).min().unwrap_or(0);
    EngineOutcome {
        clocks: sched.busy,
        host_wait,
        comm_bytes,
        messages,
        rounds: min_rounds,
        min_rounds,
        max_rounds: devices.iter().map(|d| d.rounds).max().unwrap_or(0),
        resilience: stats,
    }
}
