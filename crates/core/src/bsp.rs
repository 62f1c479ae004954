//! The bulk-synchronous (BSP) driver (§III-B).
//!
//! Execution proceeds in global rounds: every device computes on its
//! partition, then a reduce exchange (mirror→master), a master absorb, and
//! a broadcast exchange (master→mirror) synchronize the proxies. There is
//! no explicit global barrier — stragglers propagate through message
//! arrival times, exactly as in MPI-based Gluon — but round *content* is
//! globally aligned, which is what makes BSP deterministic.
//!
//! Host parallelism: the compute, payload-build, apply and absorb phases
//! all fan out per device across the worker pool. Everything order- or
//! clock-sensitive — pack charging, `SendDesc` stamping, the network
//! exchange, trace emission — stays sequential in device-major order, so
//! the result is bit-identical at any thread count.
//!
//! Host cost: a round costs what its frontier and its messages cost. The
//! loop keeps, per device, whether it can have active vertices and whether
//! it can hold sync marks; a device with neither and no mail — most
//! devices, in most rounds of a high-diameter run — is passed over with a
//! branch in each phase, sends its (empty) messages inline, and never
//! becomes a pool task. Only messages that carry a payload travel on to
//! the apply stage.
//!
//! Resilience: every exchange goes through the retry/ack
//! [`dirgl_comm::ReliableNet`] under [`RunConfig::faults`] (one link-model
//! send per message when the plan schedules no link faults), device
//! crashes are detected through exhausted retry budgets — the BSP barrier
//! itself is the failure detector: a silent peer times out every partner —
//! and
//! recovery either rolls every device back to the last checkpoint (crash
//! with rejoin) or permanently re-homes the dead device's partition onto a
//! survivor (graceful degradation). Logical partitions are unchanged by
//! re-homing; only the transport addressing and compute serialization
//! change, which is why a degraded run still converges to reference values.
//!
//! This module owns the BSP *schedule* only: the global round loop, send
//! stamping, the exchange and barrier-side crash detection. The messages
//! themselves ([`DeviceRun::build_sync`] / [`DeviceRun::apply_sync`]) and
//! the checkpoint / recovery steps ([`crate::engine`]) are shared with
//! the BASP driver.

use rayon::prelude::*;

use dirgl_comm::{
    CommMode, FaultCounters, NetModel, NetState, SendDesc, SimTime, SyncPlan, RETRY_LADDER,
};
use dirgl_partition::Partition;

use crate::config::RunConfig;
use crate::device::{DeviceRun, SyncDir, SyncMsg};
use crate::engine::{
    capture_checkpoint, restore_checkpoint, scale_time, termination_check_cost, DeviceTally,
    EngineOutcome, FaultCtx, RoundTally,
};
use crate::program::{Style, VertexProgram, PULL_THRESHOLD};
use crate::resilience::{DeviceSnapshot, ResilienceStats};
use crate::trace::{EngineKind, FaultEvent, TraceDirection, TraceSink};

/// Runs `program` to convergence under BSP, emitting one
/// [`crate::trace::RoundRecord`] per (round, device) into `sink`. With a
/// disabled sink (e.g. [`crate::trace::NoopSink`]) no records are
/// assembled.
pub fn run_bsp<P: VertexProgram>(
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
    let hybrid = program.style() == Style::HybridPushPull;
    let topo = matches!(
        program.style(),
        Style::PullTopologyDriven | Style::PushTopologyDriven
    );
    let pull_topo = program.style() == Style::PullTopologyDriven;
    // Under AS a device with nothing marked still ships every entry, so
    // every live device builds in earnest.
    let all_shared = config.variant.comm == CommMode::AllShared;
    let total_vertices: u64 = devices.iter().map(|d| d.lg.num_masters as u64).sum();
    let term_cost =
        termination_check_cost(net) + SimTime::from_secs_f64(config.runtime_round_overhead_secs);
    let mut tally = RoundTally::new(EngineKind::Bsp, TraceDirection::Push, p, sink);

    let mut clocks = vec![SimTime::ZERO; p];
    let mut host_wait = vec![SimTime::ZERO; net.platform().num_hosts() as usize];
    let mut comm_bytes = 0u64;
    let mut messages = 0u64;
    let mut rounds = 0u32;
    // Congestion carries across rounds: one link state for the whole run.
    let mut net_state = net.new_state();

    // The transport and the recovery state.
    let mut fctx = FaultCtx::new(net, config);
    let mut stats = ResilienceStats::default();
    let crash_plan = config.faults.crash;
    let straggler_plan = config.faults.straggler;
    let ckpt_every = config.checkpoint_every_rounds;
    let recovery_on = crash_plan.is_some() || ckpt_every > 0;
    // A restorable point of the run: the round it was taken at, and every
    // device's state.
    let mut checkpoint: Option<(u32, Vec<DeviceSnapshot<P>>)> = None;

    // Round-lived vectors, hoisted out of the loop and refilled in place.
    let mut alive = vec![true; p];
    // May have active vertices: every device until a compute phase has
    // looked, then those whose masters absorbed a change or that got a
    // broadcast payload. Nothing else activates a vertex.
    let mut cand = vec![true; p];
    // Computes this round.
    let mut runs = vec![false; p];
    // May hold sync marks: it computed this round, or got a reduce payload.
    // Marks are cleared at round end, so nothing else holds any.
    let mut marks = vec![false; p];
    let mut times = vec![SimTime::ZERO; p];
    let mut absorbed = vec![0u32; p];
    let mut sends: Vec<SendDesc> = Vec::new();
    // The messages that carry a payload, each with its index into `sends`.
    let mut mail: Vec<(usize, SyncMsg<P::Wire>)> = Vec::new();
    let mut round_failures: Vec<SimTime> = Vec::new();
    // The sends of an exchange whose payload never arrived, ascending.
    let mut lost: Vec<usize> = Vec::new();
    loop {
        round_failures.clear();
        // --- Scheduled checkpoint (skipped when a rollback just restored
        // this very round); round 0 always gets one.
        if recovery_on
            && (rounds == 0 || ckpt_every > 0 && rounds.is_multiple_of(ckpt_every))
            && checkpoint.as_ref().is_none_or(|c| c.0 != rounds)
        {
            let (_, devs) = capture_checkpoint(
                program,
                devices,
                &mut clocks,
                rounds,
                divisor,
                net,
                &mut stats,
                sink,
            );
            checkpoint = Some((rounds, devs));
        }
        // --- Scheduled device faults fire at round start.
        if let Some(cr) = crash_plan {
            if !fctx.crash_fired && rounds == cr.round {
                fctx.fire_crash(cr, clocks[cr.device as usize], &mut stats, sink);
            }
        }
        if let Some(sg) = straggler_plan {
            if rounds == sg.from_round {
                sink.fault(FaultEvent::FaultInjected {
                    at: clocks[sg.device as usize],
                    device: sg.device,
                    kind: "straggler",
                });
            } else if rounds == sg.from_round.saturating_add(sg.rounds) {
                sink.fault(FaultEvent::FaultInjected {
                    at: clocks[sg.device as usize],
                    device: sg.device,
                    kind: "straggler-end",
                });
            }
        }
        for (l, a) in alive.iter_mut().enumerate() {
            *a = fctx.alive_logical(l as u32);
        }

        program.on_round_start(rounds);
        for (d, t) in tally.devices.iter_mut().enumerate() {
            t.frontier = if cand[d] {
                devices[d].active_count()
            } else {
                0
            };
        }
        // --- Direction decision (hybrid programs): a global per-round
        // choice, like Gunrock's direction-optimizing alpha test.
        let use_pull = hybrid && {
            let frontier: u64 = devices
                .iter()
                .zip(&cand)
                .filter(|(_, &c)| c)
                .map(|(d, _)| d.active_count())
                .sum();
            frontier as f64 > PULL_THRESHOLD * total_vertices as f64
        };
        // --- Compute phase (devices in parallel; each sequential inside).
        for d in 0..p {
            runs[d] = alive[d] && (use_pull || topo || cand[d] && devices[d].has_work());
            // A live device's frontier is consumed below, or it has none.
            cand[d] &= !alive[d];
        }
        for_each_picked(
            devices,
            |i, _| runs[i],
            |d| {
                d.scratch.compute_t = if use_pull {
                    d.compute_bottom_up(program, balancer, divisor)
                } else {
                    d.compute(program, balancer, divisor)
                };
            },
        );
        for d in 0..p {
            times[d] = if runs[d] {
                devices[d].scratch.compute_t
            } else {
                SimTime::ZERO
            };
        }
        marks.copy_from_slice(&runs);
        advance_compute_clocks(&mut clocks, &times, &fctx, rounds);

        // --- One exchange of the messages the devices just built: pack
        // charging and send stamping run sequentially in builder-major
        // order (identical clocks and `SendDesc` order to a sequential
        // build), then the network, then the grouped apply, which flags in
        // `got` every device a payload reached.
        let mut exchange = |devices: &mut [DeviceRun<'_, P>], got: &mut [bool]| {
            stamp_sends(
                &mut clocks,
                devices,
                &mut sends,
                &mut mail,
                &mut tally.devices,
            );
            run_exchange(
                &mut net_state,
                &mut clocks,
                &mut host_wait,
                &mut comm_bytes,
                &mut messages,
                &sends,
                &mut tally.devices,
                &mut fctx,
                &mut stats.faults,
                &mut round_failures,
                &mut lost,
            );
            fctx.drain_events(sink);
            apply_grouped(program, part, devices, &mut mail, &lost, got);
        };

        // --- Reduce exchange: mirrors -> masters.
        build_all(
            devices,
            &alive,
            if all_shared { &alive } else { &marks },
            |dev| dev.build_sync(program, &[SyncDir::Reduce], part, plan, config),
        );
        exchange(devices, &mut marks);

        // --- Absorb: masters fold accumulators once per round (only
        // marked masters can, but for pull programs, whose masters all do).
        let absorbs = if pull_topo { &alive } else { &marks };
        for_each_picked(
            devices,
            |i, _| absorbs[i],
            |d| d.scratch.absorbed = d.absorb_masters(program),
        );
        for d in 0..p {
            absorbed[d] = if absorbs[d] {
                devices[d].scratch.absorbed
            } else {
                0
            };
            cand[d] |= absorbed[d] > 0;
        }
        let changed: u32 = absorbed.iter().sum();

        // --- Broadcast exchange: masters -> mirrors.
        build_all(
            devices,
            &alive,
            if all_shared { &alive } else { &marks },
            |dev| dev.build_sync(program, &[SyncDir::Broadcast], part, plan, config),
        );
        exchange(devices, &mut cand);

        // --- Round end: clear update tracking, pay the termination check.
        for (d, _) in marks.iter().enumerate().filter(|(_, &m)| m) {
            devices[d].clear_sync_marks(program);
        }
        for c in clocks.iter_mut() {
            *c += term_cost;
        }
        tally.direction = if use_pull || pull_topo {
            TraceDirection::Pull
        } else {
            TraceDirection::Push
        };
        for d in 0..p {
            tally.emit(sink, d, rounds, times[d], absorbed[d], clocks[d]);
        }

        // --- Recovery: a crashed device was detected this round, either
        // by senders exhausting their retry budget or — when no message
        // happened to be due — by the barrier timing out on the silent
        // peer.
        if fctx.dead_unrecovered(p) {
            let cr = crash_plan.expect("only a scheduled crash kills devices");
            let (ckpt_round, snaps) = checkpoint
                .as_ref()
                .expect("recovery_on guarantees an initial checkpoint");
            stats.rounds_replayed += rounds.saturating_sub(*ckpt_round);
            let pre_max = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
            let detect_at = round_failures
                .iter()
                .copied()
                .max()
                .unwrap_or(pre_max + RETRY_LADDER.give_up_after());
            let resume = restore_checkpoint(
                program,
                devices,
                snaps,
                &mut clocks,
                detect_at,
                divisor,
                net,
                &mut stats,
            );
            // Old link occupancy all predates the detection instant.
            net_state = net.new_state();
            // The restored worklists are whatever the checkpoint held.
            cand.fill(true);
            rounds = *ckpt_round;
            let masters = devices[cr.device as usize].lg.num_masters as u64;
            fctx.finish_recovery(cr, masters, resume, rounds, &mut stats, sink);
            continue;
        }

        rounds += 1;

        let work_left = match program.style() {
            Style::PullTopologyDriven => changed > 0,
            // Round-gated: runs for exactly max_rounds rounds.
            Style::PushTopologyDriven => true,
            _ => devices.iter().zip(&cand).any(|(d, &c)| c && d.has_work()),
        };
        if !work_left || rounds >= program.max_rounds() {
            break;
        }
    }
    sink.finish();

    EngineOutcome {
        clocks,
        host_wait,
        comm_bytes,
        messages,
        rounds,
        min_rounds: devices.iter().map(|d| d.rounds).min().unwrap_or(0),
        max_rounds: devices.iter().map(|d| d.rounds).max().unwrap_or(0),
        resilience: stats,
    }
}

/// Advances device clocks past the compute phase of `round`. Healthy
/// identity-mapped runs reduce to `clock += time`; a straggler window
/// multiplies the affected device's time, and after graceful degradation
/// the partitions sharing a physical device execute serially on it (in
/// ascending logical order, from the latest resident clock).
fn advance_compute_clocks(
    clocks: &mut [SimTime],
    times: &[SimTime],
    ctx: &FaultCtx<'_>,
    round: u32,
) {
    let factor = |phys: u32| ctx.injector().slowdown(phys, round);
    if ctx.home.is_identity() {
        for (d, (c, t)) in clocks.iter_mut().zip(times).enumerate() {
            *c += scale_time(*t, factor(d as u32));
        }
        return;
    }
    for d in 0..clocks.len() as u32 {
        let residents = ctx.home.residents(d);
        if residents.is_empty() {
            continue;
        }
        let f = factor(d);
        let mut cur = residents
            .iter()
            .map(|&l| clocks[l as usize])
            .max()
            .expect("non-empty residents");
        for &l in &residents {
            cur += scale_time(times[l as usize], f);
            clocks[l as usize] = cur;
        }
    }
}

/// Runs `f` on every device `pick` selects: inline while fewer than two are
/// selected, fanned out across the pool otherwise. Devices not selected
/// cost the call to `pick`.
fn for_each_picked<'g, P: VertexProgram>(
    devices: &mut [DeviceRun<'g, P>],
    pick: impl Fn(usize, &DeviceRun<'g, P>) -> bool,
    f: impl Fn(&mut DeviceRun<'g, P>) + Sync,
) {
    let mut picked = devices
        .iter_mut()
        .enumerate()
        .filter(|(i, d)| pick(*i, d))
        .map(|(_, d)| d);
    let Some(first) = picked.next() else {
        return;
    };
    match picked.next() {
        None => f(first),
        Some(second) => {
            let all: Vec<_> = [first, second].into_iter().chain(picked).collect();
            all.into_par_iter().for_each(f);
        }
    }
}

/// Parallel half of a payload build: every live builder extracts all of
/// its partner payloads from its own device state (`build` is
/// [`DeviceRun::build_sync`] with the exchange's direction fixed at the
/// call site) into its `scratch.built`, which is empty on entry: the
/// previous stamping drained it. The builders flagged in `marked` fan out;
/// the others hold no mark, so every message of theirs is the empty one,
/// and they are served inline.
fn build_all<'g, P: VertexProgram>(
    devices: &mut [DeviceRun<'g, P>],
    alive: &[bool],
    marked: &[bool],
    build: impl Fn(&mut DeviceRun<'g, P>) -> SimTime + Sync,
) {
    for_each_picked(
        devices,
        |i, _| marked[i],
        |dev| dev.scratch.pack_t = build(dev),
    );
    for (i, dev) in devices.iter_mut().enumerate() {
        if alive[i] && !marked[i] {
            dev.scratch.pack_t = build(dev);
        }
    }
}

/// Sequential half of a payload build: walks builders in device order,
/// charges each non-idle builder's pack time, and stamps every send with
/// the builder's post-pack clock. Drains each device's `scratch.built`:
/// every message gives a `SendDesc` (the model prices them all), and those
/// with a payload move on into `mail` with the index of their send. When
/// tracing (`tally` is empty otherwise), each builder's pack and sends are
/// counted here, while its sends are still in cache, with the sends summed
/// before the builder's tally is touched.
fn stamp_sends<P: VertexProgram>(
    clocks: &mut [SimTime],
    devices: &mut [DeviceRun<'_, P>],
    sends: &mut Vec<SendDesc>,
    mail: &mut Vec<(usize, SyncMsg<P::Wire>)>,
    tally: &mut [DeviceTally],
) {
    sends.clear();
    mail.clear();
    for (builder, dev) in devices.iter_mut().enumerate() {
        if dev.scratch.built.is_empty() {
            continue;
        }
        let pack = dev.scratch.pack_t;
        clocks[builder] += pack;
        let first = sends.len();
        for msg in dev.scratch.built.drain(..) {
            sends.push(SendDesc {
                from: msg.from,
                to: msg.to,
                bytes: msg.bytes,
                depart: clocks[builder],
            });
            if !msg.data.is_empty() {
                mail.push((sends.len() - 1, msg));
            }
        }
        if !tally.is_empty() {
            let mine = &sends[first..];
            let t = &mut tally[builder];
            t.pack += pack;
            t.sent.0 += mine.iter().map(|s| s.bytes).sum::<u64>();
            t.sent.1 += mine.len() as u64;
            for s in mine {
                let t = &mut tally[s.to as usize];
                t.received = (t.received.0 + s.bytes, t.received.1 + 1);
            }
        }
    }
}

/// Applies the payloads in `mail` in parallel across the devices that got
/// any. Each receiver sees its messages in the same (ascending-builder)
/// order a sequential apply loop would deliver them, so accumulation order
/// per device — and with it every float result — is unchanged.
/// The payloads of the sends listed in `lost` (ascending; their receiver
/// is dead) are skipped. Every device a payload reached is
/// flagged in `got`. Grouping bins live in each receiver's `scratch.inbox`,
/// and consumed payload vectors recycle into the receiver's own pool — no
/// cross-device sharing, no locking.
fn apply_grouped<P: VertexProgram>(
    program: &P,
    part: &Partition,
    devices: &mut [DeviceRun<'_, P>],
    mail: &mut Vec<(usize, SyncMsg<P::Wire>)>,
    lost: &[usize],
    got: &mut [bool],
) {
    for (i, msg) in mail.drain(..) {
        let to = msg.to as usize;
        if lost.binary_search(&i).is_err() {
            got[to] = true;
            devices[to].scratch.inbox.push(msg);
        } else {
            devices[to].scratch.recycle(msg.data);
        }
    }
    for_each_picked(
        devices,
        |_, dev| !dev.scratch.inbox.is_empty(),
        |dev| {
            let mut items = std::mem::take(&mut dev.scratch.inbox);
            for msg in items.drain(..) {
                dev.apply_sync(program, part, &msg, false);
                dev.scratch.recycle(msg.data);
            }
            dev.scratch.inbox = items;
        },
    );
}

/// Runs one exchange through the transport and folds its timing into the
/// running clocks/waits, and each device's wait into its trace tally
/// (`tally` is empty when not tracing). Messages are addressed by
/// *physical* device: while no partition has moved, that is the logical
/// one and `sends` and `clocks` go to the wire as they are. Sends
/// abandoned because their receiver is dead are listed in `lost` (indices
/// into `sends`, ascending) and their give-up instants in `failures`; the
/// outcome is left in `ctx.ex`, which every exchange refills.
#[allow(clippy::too_many_arguments)]
fn run_exchange(
    st: &mut NetState,
    clocks: &mut [SimTime],
    host_wait: &mut [SimTime],
    comm_bytes: &mut u64,
    messages: &mut u64,
    sends: &[SendDesc],
    tally: &mut [DeviceTally],
    ctx: &mut FaultCtx<'_>,
    counters: &mut FaultCounters,
    failures: &mut Vec<SimTime>,
    lost: &mut Vec<usize>,
) {
    lost.clear();
    if sends.is_empty() {
        return;
    }
    let p = clocks.len();
    let FaultCtx {
        rnet,
        rstate,
        health,
        home,
        events,
        ex,
        ..
    } = ctx;
    // After degradation re-homing: translate logical endpoints to physical
    // devices. Co-homed pairs never touch the wire: both partitions live in
    // the same device memory.
    let mut phys_index: Vec<usize> = Vec::new();
    let mut phys_sends: Vec<SendDesc> = Vec::new();
    let mut phys_clock: Vec<SimTime> = Vec::new();
    let (wire, wire_clock) = if home.is_identity() {
        (sends, &*clocks)
    } else {
        for (i, s) in sends.iter().enumerate() {
            let (pf, pt) = (home.phys(s.from), home.phys(s.to));
            if pf != pt {
                phys_index.push(i);
                phys_sends.push(SendDesc {
                    from: pf,
                    to: pt,
                    ..*s
                });
            }
        }
        phys_clock.extend((0..p as u32).map(|d| {
            home.residents(d)
                .iter()
                .map(|&l| clocks[l as usize])
                .max()
                .unwrap_or(SimTime::ZERO)
        }));
        (&phys_sends[..], &phys_clock[..])
    };
    rnet.exchange_reliable(st, rstate, wire_clock, wire, health, counters, events, ex);
    let outcome = &ex.outcome;
    for (l, t) in tally.iter_mut().enumerate() {
        let d = home.phys(l as u32) as usize;
        t.wait += outcome.device_done[d].saturating_sub(outcome.sender_free[d]);
    }
    for (l, c) in clocks.iter_mut().enumerate() {
        *c = (*c).max(outcome.device_done[home.phys(l as u32) as usize]);
    }
    for f in &ex.failures {
        if health.is_alive(f.to) {
            // The receiver is alive but every attempt was lost: the
            // transport escalates out-of-band and delivers at the give-up
            // instant (a last-resort reliable path; astronomically rare
            // under sane drop rates, but correctness must not depend on
            // luck). Its receiver blocks until then.
            for (l, c) in clocks.iter_mut().enumerate() {
                if home.phys(l as u32) == f.to {
                    *c = (*c).max(f.gave_up_at);
                }
            }
        } else {
            lost.push(if home.is_identity() {
                f.index
            } else {
                phys_index[f.index]
            });
            failures.push(f.gave_up_at);
        }
    }
    lost.sort_unstable();
    for (w, o) in host_wait.iter_mut().zip(&outcome.host_wait) {
        *w += *o;
    }
    *comm_bytes += outcome.total_bytes;
    *messages += sends.len() as u64;
}
