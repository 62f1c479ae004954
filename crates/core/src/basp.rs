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
//! Host parallelism: round events that fall on the *same* virtual instant
//! are popped as one batch. That is not the common case: devices start
//! together, but their clocks drift apart with their work. On the
//! benchmark's high-diameter sssp crawl (64 devices, ~11 000 round events
//! per run) a batch of two or more happens about once per run, and a batch
//! of one runs inline on the calling thread. In a larger batch the
//! device-local half of each round (drain, absorb, compute, payload build)
//! fans out across the worker pool; everything that orders the simulation
//! — network sends, sequence numbers, heap pushes, trace records — then
//! runs sequentially in the original pop order. Two same-instant rounds can never observe each
//! other's output (their arrivals carry strictly larger sequence numbers),
//! so the batched schedule is bit-identical to the sequential one.
//!
//! Resilience: with [`RunConfig::faults`] set, sends go through the
//! reliable transport; a device crash (scheduled by *local* round ordinal)
//! silences its partition, is detected when a sender exhausts its retry
//! budget — or, if no message was in flight, when the drained heap leaves
//! an unrecovered corpse — and recovery restores a full-simulation
//! checkpoint (devices, inboxes, event heap, link occupancy) shifted
//! forward to the detection instant. Without rejoin the dead device's
//! partition is re-homed onto a survivor and the simulation continues
//! degraded.
//!
//! This module owns the BASP *schedule* only: the event heap, same-instant
//! batching, send injection and the time-shifted restore. The messages
//! themselves ([`DeviceRun::build_sync`] / [`DeviceRun::apply_sync`]) and
//! the checkpoint / recovery steps ([`crate::engine`]) are shared with
//! the BSP driver.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use dirgl_comm::{CrashSpec, NetModel, NetState, SendDesc, SimTime, SyncPlan};
use dirgl_partition::Partition;

use crate::config::RunConfig;
use crate::device::{DeviceRun, SyncDir, SyncMsg};
use crate::engine::{capture_checkpoint, restore_checkpoint, scale_time, EngineOutcome, FaultCtx};
use crate::program::{Style, VertexProgram};
use crate::resilience::{DeviceSnapshot, ResilienceStats};
use crate::trace::{EngineKind, FaultEvent, RoundRecord, TraceDirection, TraceSink};

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
    /// Trace accumulator: wait since each device's previous local round.
    tr_wait: Vec<SimTime>,
    /// Trace accumulator: (bytes, messages) received since then.
    tr_recv: Vec<(u64, u64)>,
}

/// Device-local outcome of one round, produced by the parallel phase and
/// consumed by the sequential injection phase. The outgoing messages stay
/// in the device's `scratch.built`.
struct LocalRound<W> {
    /// Post-round convergence flag (pull programs).
    conv: bool,
    /// The round ended before computing (no work, or round-capped).
    idle: bool,
    /// Active vertices when compute started (tracing only).
    frontier: u64,
    /// Kernel time of the compute phase.
    dt: SimTime,
    /// Pack time; zero when nothing was sent.
    pack: SimTime,
    /// Masters changed across the pre- and post-compute absorbs.
    absorb_changed: u32,
    /// The device's drained inbox vector, returned (emptied) so phase B
    /// can hand it back to `inbox[d]` instead of allocating a fresh one.
    mail: Vec<SyncMsg<W>>,
}

/// One unit of parallel phase-A work: batch index, device id, the device's
/// exclusive slot, its drained mail, and its going-in convergence flag.
type PhaseAWork<'a, 'g, P> = (
    usize,
    u32,
    &'a mut DeviceRun<'g, P>,
    Vec<SyncMsg<<P as VertexProgram>::Wire>>,
    bool,
);

/// A restorable point of the whole BASP simulation.
struct BaspCheckpoint<P: VertexProgram> {
    taken_at: SimTime,
    devs: Vec<DeviceSnapshot<P>>,
    sched: Schedule<P::Wire>,
}

/// Rolls the whole simulation back to `ckpt`, shifted forward so it
/// resumes at the crash-detection instant, then either revives the dead
/// device (rejoin) or re-homes its partition onto a survivor.
#[allow(clippy::too_many_arguments)]
fn recover_basp<P: VertexProgram>(
    program: &P,
    net: &NetModel,
    divisor: u64,
    cr: CrashSpec,
    ckpt: &BaspCheckpoint<P>,
    detect_at: SimTime,
    devices: &mut [DeviceRun<'_, P>],
    sched: &mut Schedule<P::Wire>,
    phys_free: &mut [SimTime],
    ctx: &mut FaultCtx<'_>,
    stats: &mut ResilienceStats,
    sink: &mut dyn TraceSink,
) {
    stats.rounds_replayed += devices
        .iter()
        .zip(&ckpt.devs)
        .map(|(d, s)| d.rounds.saturating_sub(s.rounds()))
        .sum::<u32>();
    // Every device reloads its snapshot over PCIe; the simulation resumes
    // once the slowest reload completes.
    let resume = restore_checkpoint(
        program,
        devices,
        &ckpt.devs,
        &mut sched.busy,
        detect_at,
        divisor,
        net,
        stats,
    );

    // Restore, time-shifted: everything the snapshot scheduled `x` seconds
    // into its future stays `x` seconds into the resumed run's future.
    // Original sequence numbers are kept: relative event order inside the
    // snapshot is part of the restored state. The live counter was never
    // rolled back, so post-recovery events sort after all restored ones at
    // equal instants.
    let delta = resume.saturating_sub(ckpt.taken_at);
    *sched = ckpt.sched.clone();
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
    ctx.finish_recovery(cr, masters, resume, to_round, stats, sink);
    for f in phys_free.iter_mut() {
        *f = SimTime::ZERO;
    }
    for (l, &b) in sched.busy.iter().enumerate() {
        let pd = ctx.home.phys(l as u32) as usize;
        phys_free[pd] = phys_free[pd].max(b);
    }
}

/// Runs `program` to quiescence under BASP, emitting one
/// [`RoundRecord`] per *local* device round into `sink`. `round` in each
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
    let tracing = sink.enabled();

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
        tr_wait: vec![SimTime::ZERO; p],
        tr_recv: vec![(0u64, 0u64); p],
    };
    let mut comm_bytes = 0u64;
    let mut messages = 0u64;

    // Fault layer (None unless configured; a none-plan context is inert
    // and byte-identical to the raw path — pinned by tests).
    let mut fctx = FaultCtx::new(net, config);
    let mut stats = ResilienceStats::default();
    let crash_plan = config.faults.as_ref().and_then(|f| f.crash);
    let ckpt_every = config.checkpoint_every_rounds;
    let recovery_on = fctx.is_some() && (crash_plan.is_some() || ckpt_every > 0);
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

    'sim: loop {
        while let Some(ev) = sched.heap.pop() {
            match ev.kind {
                EventKind::Arrive(msg) => {
                    // Mail for a dead partition evaporates; the sender's
                    // failure detection happens on the transport side.
                    if fctx.as_ref().is_some_and(|c| !c.alive_logical(msg.to)) {
                        continue;
                    }
                    let d = msg.to;
                    let du = d as usize;
                    if tracing {
                        sched.tr_recv[du].0 += msg.bytes;
                        sched.tr_recv[du].1 += 1;
                    }
                    // An empty message wakes its receiver like any other
                    // but leaves nothing to apply.
                    if !msg.data.is_empty() {
                        sched.inbox[du].push(msg);
                    }
                    if !sched.round_pending[du] {
                        // Wake the device at whichever is later: now or when its
                        // current round ends.
                        let wake = ev.time.max(sched.busy[du]);
                        if let Some(s) = sched.idle_since[du].take() {
                            let blocked = wake.saturating_sub(s);
                            devices[du].idle_time += blocked;
                            sched.tr_wait[du] += blocked;
                        }
                        sched.round_pending[du] = true;
                        push_ev(&mut sched.heap, &mut seq, wake, EventKind::Round(d));
                    }
                }
                EventKind::Round(d) => {
                    let t = ev.time;
                    // Batch every Round event sharing this exact instant (an
                    // interleaved same-time Arrive ends the batch: its effect
                    // must stay ordered between the rounds around it).
                    let mut batch: Vec<u32> = vec![d];
                    while let Some(top) = sched.heap.peek() {
                        if top.time != t || !matches!(top.kind, EventKind::Round(_)) {
                            break;
                        }
                        match sched.heap.pop() {
                            Some(Event {
                                kind: EventKind::Round(d2),
                                ..
                            }) => batch.push(d2),
                            _ => unreachable!("peeked a Round event"),
                        }
                    }
                    for &bd in &batch {
                        sched.round_pending[bd as usize] = false;
                    }

                    // Scheduled crash: fires when the victim is about to
                    // execute the configured *local* round ordinal. The
                    // victim's round (and any batch-mates' mail to it) simply
                    // stops happening.
                    if let (Some(ctx), Some(cr)) = (fctx.as_mut(), crash_plan) {
                        if !ctx.crash_fired
                            && batch.contains(&cr.device)
                            && devices[cr.device as usize].rounds == cr.round
                        {
                            ctx.fire_crash(cr, t, &mut stats, sink);
                        }
                        batch.retain(|&bd| ctx.alive_logical(bd));
                        if batch.is_empty() {
                            continue;
                        }
                    }

                    // Phase A: the device-local round — drain arrivals, absorb,
                    // compute, build outgoing payloads. Nothing here reads or
                    // writes another device or the simulation's shared order
                    // (net state, seq, heap), so batched devices fan out across
                    // the pool.
                    let phase_a = |dev: &mut DeviceRun<'_, P>,
                                   mut mail: Vec<SyncMsg<P::Wire>>,
                                   mut conv: bool|
                     -> LocalRound<P::Wire> {
                        // 1. Drain arrived messages. Only payloads that actually
                        // change state un-converge the device: header-only sync
                        // messages must not cause compute chatter. Applied
                        // payload vectors recycle into this device's pool.
                        for msg in mail.drain(..) {
                            if dev.apply_sync(program, part, &msg, true) {
                                conv = false;
                            }
                            dev.scratch.recycle(msg.data);
                        }
                        // 2. Pre-compute absorb (data-driven): reduced deltas may
                        // activate masters. Idempotent against an empty accumulator.
                        // Masters it changes stay marked for the broadcast in
                        // step 5.
                        let mut pre_changed = 0;
                        if !pull {
                            pre_changed = dev.absorb_masters(program);
                        }

                        let capped = dev.rounds >= program.max_rounds();
                        let work = if pull { !conv } else { dev.has_work() };
                        if !work || capped {
                            return LocalRound {
                                conv,
                                idle: true,
                                frontier: 0,
                                dt: SimTime::ZERO,
                                pack: SimTime::ZERO,
                                absorb_changed: 0,
                                mail,
                            };
                        }

                        let frontier = if tracing { dev.active_count() } else { 0 };

                        // 3. Compute one local round. Pull programs then consume
                        // the mirror values read this round: local rounds are not
                        // globally aligned, so an unconsumed mirror residual would
                        // be re-read by the next local round (mass duplication).
                        let dt = dev.compute(program, balancer, divisor);
                        if pull {
                            dev.consume_mirrors_after_pull(program);
                        }

                        // 4. Absorb (masters fold local accumulations).
                        let changed = dev.absorb_masters(program);
                        if pull {
                            conv = changed == 0;
                        }

                        // 5a. Build outgoing messages into `scratch.built`
                        // (timing and injection happen in the sequential phase
                        // below). Every computing round syncs with every
                        // partner, as Gluon(-Async) does: this device's mirror
                        // deltas to their masters, and its updated masters to
                        // their mirrors.
                        let pack = dev.build_sync(
                            program,
                            &[SyncDir::Reduce, SyncDir::Broadcast],
                            part,
                            plan,
                            config,
                        );
                        dev.clear_sync_marks(program);
                        LocalRound {
                            conv,
                            idle: false,
                            frontier,
                            dt,
                            pack,
                            absorb_changed: pre_changed + changed,
                            mail,
                        }
                    };

                    let outs: Vec<(u32, LocalRound<P::Wire>)> = if batch.len() == 1 {
                        let d = batch[0];
                        let du = d as usize;
                        let mail = std::mem::take(&mut sched.inbox[du]);
                        vec![(d, phase_a(&mut devices[du], mail, sched.converged[du]))]
                    } else {
                        // Select disjoint `&mut` device slots in ascending index
                        // order, then fan out. Results return to pop order via
                        // the carried batch index.
                        let mut order: Vec<usize> = (0..batch.len()).collect();
                        order.sort_unstable_by_key(|&i| batch[i]);
                        let mut work: Vec<PhaseAWork<'_, '_, P>> = Vec::with_capacity(batch.len());
                        let mut rest: &mut [DeviceRun<'_, P>] = devices;
                        let mut base = 0usize;
                        for &i in &order {
                            let du = batch[i] as usize;
                            let r = std::mem::take(&mut rest);
                            let (_, tail) = r.split_at_mut(du - base);
                            let (dev, tail2) = tail.split_first_mut().expect("device in range");
                            rest = tail2;
                            base = du + 1;
                            work.push((
                                i,
                                batch[i],
                                dev,
                                std::mem::take(&mut sched.inbox[du]),
                                sched.converged[du],
                            ));
                        }
                        let mut outs: Vec<(usize, u32, LocalRound<P::Wire>)> = work
                            .into_par_iter()
                            .map(|(bi, bd, dev, mail, conv)| (bi, bd, phase_a(dev, mail, conv)))
                            .collect();
                        outs.sort_unstable_by_key(|o| o.0);
                        outs.into_iter().map(|(_, bd, a)| (bd, a)).collect()
                    };

                    // Phase B: inject sends into the shared network/heap state
                    // and emit trace records, sequentially in pop order —
                    // sequence numbers, link occupancy and the JSONL stream
                    // come out exactly as in an unbatched run.
                    for (bd, mut a) in outs {
                        let du = bd as usize;
                        // Hand the drained (now empty) inbox vector back:
                        // no Arrive event is processed between the take in
                        // phase A and this point, so nothing was pushed to
                        // the placeholder.
                        sched.inbox[du] = std::mem::take(&mut a.mail);
                        sched.converged[du] = a.conv;
                        if a.idle {
                            sched.idle_since[du] = Some(t);
                            continue;
                        }
                        // Straggler: scale this round's kernel time when the
                        // hosting physical device is inside its slow window.
                        let dt = match &fctx {
                            Some(ctx) => {
                                let phys = ctx.home.phys(bd);
                                let f = ctx
                                    .injector()
                                    .slowdown(phys, devices[du].rounds.saturating_sub(1));
                                if f != 1.0 && !straggler_announced {
                                    straggler_announced = true;
                                    sink.fault(FaultEvent::FaultInjected {
                                        at: t,
                                        device: phys,
                                        kind: "straggler",
                                    });
                                }
                                scale_time(a.dt, f)
                            }
                            None => a.dt,
                        };
                        // On a healthy identity mapping `t >= busy[du]` always
                        // holds and `start == t`, the raw schedule. The maxes
                        // matter after a checkpoint charge pushed `busy` past
                        // an already-scheduled round, and for partitions
                        // sharing a physical device after re-homing (they
                        // serialize on the `phys_free` floor).
                        let start = match &fctx {
                            Some(ctx) if !ctx.home.is_identity() => {
                                let pd = ctx.home.phys(bd) as usize;
                                t.max(sched.busy[du]).max(phys_free[pd])
                            }
                            _ => t.max(sched.busy[du]),
                        };
                        let mut depart = start + dt;
                        let mut sender_free = depart;
                        depart += a.pack;
                        let mut sent_bytes = 0u64;
                        let mut sent_msgs = 0u64;
                        let mut built = std::mem::take(&mut devices[du].scratch.built);
                        for msg in built.drain(..) {
                            let (other, bytes) = (msg.to, msg.bytes);
                            messages += 1;
                            sent_bytes += bytes;
                            sent_msgs += 1;
                            // When the message arrives; `None` when its
                            // receiver is dead.
                            let arrival = match fctx.as_mut() {
                                None => {
                                    let delivery = net.send(
                                        &mut sched.net_state,
                                        SendDesc {
                                            from: bd,
                                            to: other,
                                            bytes,
                                            depart,
                                        },
                                    );
                                    comm_bytes += bytes;
                                    sender_free = sender_free.max(delivery.sender_free);
                                    Some(delivery.arrival)
                                }
                                Some(ctx) => {
                                    let pf = ctx.home.phys(bd);
                                    let pt = ctx.home.phys(other);
                                    if pf == pt {
                                        // Co-homed after degradation: the
                                        // payload never leaves device memory.
                                        Some(depart)
                                    } else {
                                        let alive = ctx.health.is_alive(pt);
                                        let v = ctx.rnet.send_reliable(
                                            &mut sched.net_state,
                                            &mut ctx.rstate,
                                            SendDesc {
                                                from: pf,
                                                to: pt,
                                                bytes,
                                                depart,
                                            },
                                            alive,
                                            &mut stats.faults,
                                            &mut ctx.events,
                                        );
                                        comm_bytes += v.wire_bytes;
                                        sender_free = sender_free.max(v.sender_free);
                                        // Alive receiver, every attempt lost:
                                        // escalate out-of-band and deliver at
                                        // the give-up instant (correctness
                                        // must not depend on luck).
                                        v.arrival.or_else(|| {
                                            let gave =
                                                v.gave_up_at.expect("no arrival implies give-up");
                                            if !alive {
                                                pending_failures.push(gave);
                                            }
                                            alive.then_some(gave)
                                        })
                                    }
                                }
                            };
                            if let Some(at) = arrival {
                                push_ev(&mut sched.heap, &mut seq, at, EventKind::Arrive(msg));
                            }
                        }
                        devices[du].scratch.built = built;
                        sched.busy[du] = depart.max(sender_free);
                        if let Some(ctx) = &fctx {
                            if !ctx.home.is_identity() {
                                let pd = ctx.home.phys(bd) as usize;
                                phys_free[pd] = phys_free[pd].max(sched.busy[du]);
                            }
                        }

                        if tracing {
                            sink.record(RoundRecord {
                                engine: EngineKind::Basp,
                                round: devices[du].rounds - 1,
                                device: bd,
                                direction: if pull {
                                    TraceDirection::Pull
                                } else {
                                    TraceDirection::Push
                                },
                                frontier: a.frontier,
                                compute: dt,
                                pack: a.pack,
                                wait: sched.tr_wait[du],
                                bytes_sent: sent_bytes,
                                bytes_received: sched.tr_recv[du].0,
                                messages_sent: sent_msgs,
                                messages_received: sched.tr_recv[du].1,
                                absorb_changed: a.absorb_changed,
                                clock_end: sched.busy[du],
                            });
                            sched.tr_wait[du] = SimTime::ZERO;
                            sched.tr_recv[du] = (0, 0);
                        }

                        // 6. Keep rounding while local work remains; otherwise idle.
                        let more = if pull {
                            !sched.converged[du]
                        } else {
                            devices[du].has_work()
                        };
                        if more && devices[du].rounds < program.max_rounds() {
                            // Throttled BASP: insert a gap so arrivals batch into
                            // the next round instead of each triggering redundant
                            // recomputation (the paper's §VII recommendation).
                            let next =
                                sched.busy[du] + SimTime::from_secs_f64(config.basp_round_gap_secs);
                            sched.round_pending[du] = true;
                            push_ev(&mut sched.heap, &mut seq, next, EventKind::Round(bd));
                        } else {
                            sched.idle_since[du] = Some(sched.busy[du]);
                        }
                    }

                    if let Some(ctx) = fctx.as_mut() {
                        ctx.drain_events(sink, tracing);
                    }

                    // A sender detected the crashed device (retry budget
                    // exhausted): roll the whole simulation back.
                    if !pending_failures.is_empty() {
                        let detect_at = pending_failures
                            .drain(..)
                            .max()
                            .expect("non-empty failures");
                        recover_basp(
                            program,
                            net,
                            divisor,
                            crash_plan.expect("only a scheduled crash kills devices"),
                            checkpoint
                                .as_ref()
                                .expect("recovery_on guarantees an initial checkpoint"),
                            detect_at,
                            devices,
                            &mut sched,
                            &mut phys_free,
                            fctx.as_mut().expect("failures imply a fault context"),
                            &mut stats,
                            sink,
                        );
                        continue;
                    }

                    // Scheduled checkpoint: once every device's local round
                    // ordinal has crossed the next interval boundary.
                    if recovery_on && ckpt_every > 0 {
                        let minr = devices.iter().map(|d| d.rounds).min().unwrap_or(0);
                        if minr >= next_ckpt && fctx.as_ref().is_none_or(|c| !c.dead_unrecovered(p))
                        {
                            checkpoint =
                                Some(take_checkpoint(devices, &mut sched, &mut stats, sink));
                            next_ckpt = (minr / ckpt_every + 1) * ckpt_every;
                        }
                    }
                }
            }
        }

        // Heap drained. If a crashed device was never detected through a
        // failed send (nothing was due to it), the quiescence check itself
        // is the failure detector: the lease on the silent peer expires one
        // full retry ladder past the last activity.
        if fctx.as_ref().is_some_and(|c| c.dead_unrecovered(p)) {
            let detect_at = sched.busy.iter().copied().max().unwrap_or(SimTime::ZERO)
                + config.retry.give_up_after();
            recover_basp(
                program,
                net,
                divisor,
                crash_plan.expect("only a scheduled crash kills devices"),
                checkpoint
                    .as_ref()
                    .expect("recovery_on guarantees an initial checkpoint"),
                detect_at,
                devices,
                &mut sched,
                &mut phys_free,
                fctx.as_mut().expect("dead device implies a fault context"),
                &mut stats,
                sink,
            );
            continue 'sim;
        }
        break 'sim;
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
