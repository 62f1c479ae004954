//! Reliable delivery over the lossy transport — the one transport both
//! engines send through.
//!
//! [`ReliableNet`] wraps [`NetModel`] with the machinery a real fabric
//! layers over an unreliable link: per-link sequence numbers, positive
//! acks, an exponential-backoff retransmission timer with a bounded retry
//! budget, and receiver-side duplicate suppression. Each *logical* message
//! becomes one or more wire attempts; the [`FaultInjector`] decides each
//! attempt's fate.
//!
//! A plan that schedules no link faults (the default,
//! [`FaultPlan::none`]) gives every message to a live receiver exactly
//! one attempt, priced by one [`NetModel::send`]: such a send draws no
//! sequence number, since sequence numbers only key fate draws.
//! [`ReliableNet::exchange_reliable`] is the BSP
//! exchange: service order, per-host send floor and per-device/per-host
//! aggregates, written into a [`ReliableExchange`] the caller keeps, so a
//! run's exchanges allocate once.
//!
//! When the retry budget is exhausted the message is *abandoned* and
//! surfaced to the engine as a [`Failure`]; that is the engine's signal
//! that the peer is unreachable (crashed) and recovery must run. Acks are
//! not separately priced on the wire: they are tiny compared to payloads,
//! and their cost is folded into the ack-timeout constant.

use dirgl_gpusim::HealthTracker;

use crate::clock::SimTime;
use crate::faults::{FaultCounters, FaultInjector, FaultPlan, LinkFate, RETRY_LADDER};
use crate::net::{ExchangeOutcome, NetModel, NetState, SendDesc};

/// Receiver/sender bookkeeping for reliable delivery: the next sequence
/// number per ordered device pair. Lives with the caller, like
/// [`NetState`], and — deliberately — is *not* part of any checkpoint:
/// after a rollback, replayed messages draw fresh sequence numbers and
/// therefore fresh fault fates, so a deterministic injector cannot pin a
/// replay into the exact loss pattern that forced the rollback.
#[derive(Clone, Debug)]
pub struct ReliableState {
    seq: Vec<u64>,
    devices: u32,
}

impl ReliableState {
    /// Fresh state for `devices` devices (all sequence numbers at zero).
    pub fn for_devices(devices: u32) -> ReliableState {
        ReliableState {
            seq: vec![0; (devices as usize) * (devices as usize)],
            devices,
        }
    }

    fn next_seq(&mut self, from: u32, to: u32) -> u64 {
        let i = (from * self.devices + to) as usize;
        let s = self.seq[i];
        self.seq[i] += 1;
        s
    }
}

/// What kind of link-level incident a [`LinkEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEventKind {
    /// The injector dropped a transmission attempt.
    Drop,
    /// The injector duplicated a delivery (the copy was suppressed).
    Duplicate,
    /// The injector delayed a delivery.
    DelaySpike,
    /// The sender's ack timer expired.
    Timeout,
    /// The sender retransmitted.
    Retransmit,
    /// The sender exhausted its retry budget and abandoned the message.
    GiveUp,
}

/// One link-level incident, for the trace layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkEvent {
    /// When it happened (simulated time).
    pub at: SimTime,
    /// Sending device.
    pub from: u32,
    /// Receiving device.
    pub to: u32,
    /// Transmission attempt (0 = first send).
    pub attempt: u32,
    /// What happened.
    pub kind: LinkEventKind,
}

/// Outcome of reliably sending one logical message.
#[derive(Clone, Copy, Debug)]
pub struct SendVerdict {
    /// When the payload was applied on the receiver; `None` if the sender
    /// gave up.
    pub arrival: Option<SimTime>,
    /// When the sending device finished its last upload (over all
    /// attempts).
    pub sender_free: SimTime,
    /// When the sending host finished pushing the final attempt.
    pub host_send_done: SimTime,
    /// When the sender declared the receiver unreachable (`Some` iff
    /// `arrival` is `None`).
    pub gave_up_at: Option<SimTime>,
    /// Wire attempts made (1 = no retransmissions).
    pub attempts: u32,
    /// Actual bytes put on the wire, counting every attempt and duplicate.
    pub wire_bytes: u64,
}

/// A message abandoned after the full retry budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Failure {
    /// Index into the caller's send slice.
    pub index: usize,
    /// Sending device.
    pub from: u32,
    /// Unreachable receiving device.
    pub to: u32,
    /// When the sender gave up — the engine's failure-detection instant.
    pub gave_up_at: SimTime,
}

/// Result of a reliable barrier-style exchange, filled in place by
/// [`ReliableNet::exchange_reliable`].
#[derive(Clone, Debug, Default)]
pub struct ReliableExchange {
    /// Per-device / per-host aggregate (`total_bytes` counts wire
    /// attempts).
    pub outcome: ExchangeOutcome,
    /// Messages abandoned after the retry budget, in service order (empty
    /// on healthy runs). Every other message reached its receiver.
    pub failures: Vec<Failure>,
}

/// [`NetModel`] plus retry/ack reliability and fault injection.
#[derive(Clone, Debug)]
pub struct ReliableNet<'a> {
    net: &'a NetModel,
    injector: FaultInjector,
    /// The plan schedules no link fault.
    lossless: bool,
}

impl<'a> ReliableNet<'a> {
    /// Wraps `net` with reliability under `plan`.
    pub fn new(net: &'a NetModel, plan: FaultPlan) -> ReliableNet<'a> {
        ReliableNet {
            net,
            lossless: !plan.has_link_faults(),
            injector: FaultInjector::new(plan),
        }
    }

    /// The fault decision-maker (shared with the engines for device
    /// faults).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Reliably delivers one logical message: transmit, and on loss retry
    /// with exponential backoff until delivery or until the budget is
    /// spent. `dest_alive = false` forces every attempt to be lost — a
    /// crashed receiver acks nothing — so the sender walks the full ladder
    /// and gives up; `gave_up_at` is then the crash-detection instant.
    #[inline]
    pub fn send_reliable(
        &self,
        st: &mut NetState,
        rst: &mut ReliableState,
        msg: SendDesc,
        dest_alive: bool,
        counters: &mut FaultCounters,
        events: &mut Vec<LinkEvent>,
    ) -> SendVerdict {
        if dest_alive && self.lossless {
            // The one-attempt ladder without its bookkeeping.
            let d = self.net.send(st, msg);
            return SendVerdict {
                arrival: Some(d.arrival),
                sender_free: d.sender_free,
                host_send_done: d.host_send_done,
                gave_up_at: None,
                attempts: 1,
                wire_bytes: msg.bytes,
            };
        }
        self.send_with_retries(st, rst, msg, dest_alive, counters, events)
    }

    /// [`ReliableNet::send_reliable`] when an attempt may be lost.
    #[inline(never)]
    fn send_with_retries(
        &self,
        st: &mut NetState,
        rst: &mut ReliableState,
        msg: SendDesc,
        dest_alive: bool,
        counters: &mut FaultCounters,
        events: &mut Vec<LinkEvent>,
    ) -> SendVerdict {
        let seq = rst.next_seq(msg.from, msg.to);
        let mut depart = msg.depart;
        let mut sender_free = msg.depart;
        let mut wire_bytes = 0u64;
        let mut attempt = 0u32;
        loop {
            if attempt > 0 {
                counters.retransmits += 1;
                events.push(LinkEvent {
                    at: depart,
                    from: msg.from,
                    to: msg.to,
                    attempt,
                    kind: LinkEventKind::Retransmit,
                });
            }
            let d = self.net.send(st, SendDesc { depart, ..msg });
            wire_bytes += msg.bytes;
            sender_free = sender_free.max(d.sender_free);
            let fate = if dest_alive {
                self.injector.link_fate(msg.from, msg.to, seq, attempt)
            } else {
                LinkFate::Drop
            };
            match fate {
                LinkFate::Deliver {
                    extra_delay,
                    duplicated,
                } => {
                    if extra_delay > SimTime::ZERO {
                        counters.delays_injected += 1;
                        events.push(LinkEvent {
                            at: d.arrival,
                            from: msg.from,
                            to: msg.to,
                            attempt,
                            kind: LinkEventKind::DelaySpike,
                        });
                    }
                    if duplicated {
                        // The network forked the packet: the extra copy
                        // occupies the links like any message, then the
                        // receiver recognizes the sequence number and
                        // discards it.
                        counters.duplicates_injected += 1;
                        counters.duplicates_suppressed += 1;
                        let dd = self.net.send(st, SendDesc { depart, ..msg });
                        wire_bytes += msg.bytes;
                        sender_free = sender_free.max(dd.sender_free);
                        events.push(LinkEvent {
                            at: dd.arrival,
                            from: msg.from,
                            to: msg.to,
                            attempt,
                            kind: LinkEventKind::Duplicate,
                        });
                    }
                    return SendVerdict {
                        arrival: Some(d.arrival + extra_delay),
                        sender_free,
                        host_send_done: d.host_send_done,
                        gave_up_at: None,
                        attempts: attempt + 1,
                        wire_bytes,
                    };
                }
                LinkFate::Drop => {
                    if dest_alive {
                        counters.drops_injected += 1;
                        events.push(LinkEvent {
                            at: d.arrival,
                            from: msg.from,
                            to: msg.to,
                            attempt,
                            kind: LinkEventKind::Drop,
                        });
                    }
                    counters.timeouts += 1;
                    let wait =
                        RETRY_LADDER.timeout_secs * RETRY_LADDER.backoff.powi(attempt as i32);
                    let timeout_at = d.host_send_done + SimTime::from_secs_f64(wait);
                    events.push(LinkEvent {
                        at: timeout_at,
                        from: msg.from,
                        to: msg.to,
                        attempt,
                        kind: LinkEventKind::Timeout,
                    });
                    if attempt >= RETRY_LADDER.max_retries {
                        counters.delivery_failures += 1;
                        events.push(LinkEvent {
                            at: timeout_at,
                            from: msg.from,
                            to: msg.to,
                            attempt,
                            kind: LinkEventKind::GiveUp,
                        });
                        return SendVerdict {
                            arrival: None,
                            sender_free,
                            host_send_done: d.host_send_done,
                            gave_up_at: Some(timeout_at),
                            attempts: attempt + 1,
                            wire_bytes,
                        };
                    }
                    depart = timeout_at;
                    attempt += 1;
                }
            }
        }
    }

    /// Runs a whole barrier-style exchange (all messages known up front)
    /// against *caller-owned* link state and summarizes it per device/host
    /// into `out` — the BSP communication phase. Messages are served in
    /// ascending `(depart, from, to)` order, each through
    /// [`ReliableNet::send_reliable`]; link occupancy left in `st` by
    /// earlier exchanges delays this one and vice versa. Sends addressed to
    /// a device `health` marks dead exhaust their budget and come back in
    /// `out.failures`. A caller that keeps `st` and `out` across
    /// exchanges pays no allocation after the first.
    #[allow(clippy::too_many_arguments)]
    pub fn exchange_reliable(
        &self,
        st: &mut NetState,
        rst: &mut ReliableState,
        device_clock: &[SimTime],
        sends: &[SendDesc],
        health: &HealthTracker,
        counters: &mut FaultCounters,
        events: &mut Vec<LinkEvent>,
        out: &mut ReliableExchange,
    ) {
        let outcome = &mut out.outcome;
        out.failures.clear();
        let order = self.net.begin_exchange(st, device_clock, sends, outcome);
        for &(start, end) in &order {
            let run = &sends[start as usize..end as usize];
            for (i, &msg) in (start as usize..).zip(run) {
                let v = self.send_reliable(st, rst, msg, health.is_alive(msg.to), counters, events);
                outcome.total_bytes += v.wire_bytes;
                self.net.tally(
                    st,
                    outcome,
                    &msg,
                    v.sender_free,
                    v.host_send_done,
                    v.arrival,
                );
                if v.arrival.is_none() {
                    out.failures.push(Failure {
                        index: i,
                        from: msg.from,
                        to: msg.to,
                        gave_up_at: v.gave_up_at.expect("no arrival implies give-up"),
                    });
                }
            }
        }
        self.net.finish_exchange(st, order, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_gpusim::Platform;

    fn model(n: u32) -> NetModel {
        NetModel::new(Platform::bridges(n))
    }

    fn cross_sends(n: usize) -> Vec<SendDesc> {
        (0..n)
            .map(|i| SendDesc {
                from: (i % 2) as u32,
                to: 2 + (i % 2) as u32,
                bytes: 40_000 + (i as u64) * 1_000,
                depart: SimTime::from_secs_f64(i as f64 * 1e-5),
            })
            .collect()
    }

    #[test]
    fn without_link_faults_every_send_is_one_net_send() {
        // A crash and a straggler schedule no link fault: every send to a
        // live receiver is one attempt, counts nothing, and leaves the
        // links where one `NetModel::send` leaves them.
        let m = model(4);
        let plan = FaultPlan::seeded(9)
            .with_crash(1, 0, true)
            .with_straggler(2, 0, 3, 4.0);
        let r = ReliableNet::new(&m, plan);
        let (mut st, mut raw_st) = (m.new_state(), m.new_state());
        let mut rst = ReliableState::for_devices(4);
        let mut counters = FaultCounters::default();
        let mut events = Vec::new();
        for msg in cross_sends(24) {
            let v = r.send_reliable(&mut st, &mut rst, msg, true, &mut counters, &mut events);
            let d = m.send(&mut raw_st, msg);
            assert_eq!(v.attempts, 1);
            assert_eq!(v.arrival, Some(d.arrival));
            assert_eq!(v.sender_free, d.sender_free);
            assert_eq!(v.host_send_done, d.host_send_done);
            assert_eq!(v.wire_bytes, msg.bytes);
        }
        assert_eq!(counters, FaultCounters::default());
        assert!(events.is_empty());
        assert_eq!(format!("{raw_st:?}"), format!("{st:?}"));
    }

    #[test]
    fn drops_cause_retransmits_but_everything_arrives() {
        let m = model(4);
        let plan = FaultPlan::seeded(0xFA17).with_drop(0.3);
        let r = ReliableNet::new(&m, plan);
        let mut st = m.new_state();
        let mut rst = ReliableState::for_devices(4);
        let mut counters = FaultCounters::default();
        let mut events = Vec::new();
        let sends = cross_sends(64);
        let mut rel = ReliableExchange::default();
        r.exchange_reliable(
            &mut st,
            &mut rst,
            &[SimTime::ZERO; 4],
            &sends,
            &HealthTracker::new(4),
            &mut counters,
            &mut events,
            &mut rel,
        );
        assert!(counters.drops_injected > 0);
        assert_eq!(counters.retransmits, counters.drops_injected);
        assert!(
            rel.failures.is_empty(),
            "30% drop with 5 retries should deliver all 64 under this seed"
        );
        // Retransmitted attempts put extra bytes on the wire.
        let logical: u64 = sends.iter().map(|s| s.bytes).sum();
        assert!(rel.outcome.total_bytes > logical);
        assert!(events.iter().any(|e| e.kind == LinkEventKind::Retransmit));
        assert!(events.iter().any(|e| e.kind == LinkEventKind::Timeout));
    }

    #[test]
    fn dead_receiver_exhausts_the_budget() {
        let m = model(4);
        let r = ReliableNet::new(&m, FaultPlan::none());
        let mut st = m.new_state();
        let mut rst = ReliableState::for_devices(4);
        let mut counters = FaultCounters::default();
        let mut events = Vec::new();
        let msg = SendDesc {
            from: 0,
            to: 2,
            bytes: 1_000,
            depart: SimTime::from_secs_f64(1e-3),
        };
        let v = r.send_reliable(&mut st, &mut rst, msg, false, &mut counters, &mut events);
        assert_eq!(v.arrival, None);
        assert_eq!(v.attempts, RETRY_LADDER.max_retries + 1);
        let gave_up = v.gave_up_at.expect("must give up");
        // Detection happens after the whole backoff ladder.
        assert!(gave_up > msg.depart + RETRY_LADDER.give_up_after());
        assert_eq!(counters.delivery_failures, 1);
        assert_eq!(counters.timeouts as u32, RETRY_LADDER.max_retries + 1);
        assert_eq!(counters.retransmits as u32, RETRY_LADDER.max_retries);
        // A dead receiver is not an "injected" drop.
        assert_eq!(counters.drops_injected, 0);
        assert!(events.iter().any(|e| e.kind == LinkEventKind::GiveUp));
    }

    #[test]
    fn duplicates_are_suppressed_and_charged() {
        let m = model(4);
        let plan = FaultPlan::seeded(7).with_duplicate(0.9);
        let r = ReliableNet::new(&m, plan);
        let mut st = m.new_state();
        let mut rst = ReliableState::for_devices(4);
        let mut counters = FaultCounters::default();
        let mut events = Vec::new();
        let sends = cross_sends(16);
        let mut rel = ReliableExchange::default();
        r.exchange_reliable(
            &mut st,
            &mut rst,
            &[SimTime::ZERO; 4],
            &sends,
            &HealthTracker::new(4),
            &mut counters,
            &mut events,
            &mut rel,
        );
        assert!(counters.duplicates_injected > 0);
        assert_eq!(counters.duplicates_suppressed, counters.duplicates_injected);
        // Every logical message delivered exactly once.
        assert!(rel.failures.is_empty());
        let logical: u64 = sends.iter().map(|s| s.bytes).sum();
        assert!(rel.outcome.total_bytes > logical, "copies occupy the wire");
    }

    #[test]
    fn delay_spikes_push_arrivals_back() {
        let m = model(4);
        let delay = 3e-3;
        let plan = FaultPlan::seeded(3).with_delay(0.999, delay);
        let r = ReliableNet::new(&m, plan);
        let msg = SendDesc {
            from: 0,
            to: 2,
            bytes: 1_000,
            depart: SimTime::ZERO,
        };
        let raw = m.send(&mut m.new_state(), msg);
        let mut st = m.new_state();
        let mut rst = ReliableState::for_devices(4);
        let mut counters = FaultCounters::default();
        let mut events = Vec::new();
        let v = r.send_reliable(&mut st, &mut rst, msg, true, &mut counters, &mut events);
        assert_eq!(
            v.arrival.unwrap(),
            raw.arrival + SimTime::from_secs_f64(delay)
        );
        assert_eq!(counters.delays_injected, 1);
    }

    #[test]
    fn sequence_numbers_advance_per_link() {
        let mut rst = ReliableState::for_devices(3);
        assert_eq!(rst.next_seq(0, 1), 0);
        assert_eq!(rst.next_seq(0, 1), 1);
        assert_eq!(rst.next_seq(1, 0), 0, "links are independent");
        assert_eq!(rst.next_seq(0, 2), 0);
        assert_eq!(rst.next_seq(0, 1), 2);
    }
}
