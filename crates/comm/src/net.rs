//! Virtual-time link model.
//!
//! Every message between two devices follows the path the paper describes
//! (§III-D): sender GPU → sender host over PCIe, sender host → receiver
//! host over the network (hosts "act as a router for the device"), receiver
//! host → receiver GPU over PCIe. Links serialize: a device's PCIe lane and
//! a host's NIC process one message at a time, which is what makes partner
//! count (and therefore CVC's restricted partner sets) matter beyond raw
//! volume.
//!
//! The optional [`NetModel::direct_device`] flag models the paper's
//! conclusion-section recommendation — NVIDIA GPUDirect — by skipping the
//! host staging hops; an ablation benchmark quantifies its effect.
//!
//! The engines do not call [`NetModel::send`] directly: every message goes
//! through [`crate::ReliableNet`], which prices each wire attempt here.

use dirgl_gpusim::Platform;

use crate::clock::SimTime;

/// One message to be injected into the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SendDesc {
    /// Sending device.
    pub from: u32,
    /// Receiving device.
    pub to: u32,
    /// Wire size in (paper-equivalent) bytes.
    pub bytes: u64,
    /// Virtual time at which the sender device has the payload ready.
    pub depart: SimTime,
}

/// Mutable link-occupancy state.
///
/// The engines thread one `NetState` through every exchange of a run, so a
/// NIC still draining round `k` delays round `k+1`, as real hardware does;
/// a fresh state ([`NetModel::new_state`]) times an exchange in isolation.
/// See `state_persists_across_exchanges` for the pinned semantics.
#[derive(Clone, Debug)]
pub struct NetState {
    pcie_out_free: Vec<SimTime>,
    pcie_in_free: Vec<SimTime>,
    nic_free: Vec<SimTime>,
    /// Scratch of the exchange in progress, kept here so that a run's
    /// exchanges allocate once: the service order as index ranges into the
    /// sends, and per host when it finished sending. Means nothing between
    /// exchanges.
    order: Vec<(u32, u32)>,
    host_send_done: Vec<SimTime>,
}

impl NetState {
    /// Fresh idle state for `num_devices` devices on `num_hosts` hosts.
    pub fn new(num_devices: u32, num_hosts: u32) -> NetState {
        NetState {
            pcie_out_free: vec![SimTime::ZERO; num_devices as usize],
            pcie_in_free: vec![SimTime::ZERO; num_devices as usize],
            nic_free: vec![SimTime::ZERO; num_hosts as usize],
            order: Vec::new(),
            host_send_done: Vec::new(),
        }
    }

    /// Shifts every link-free time forward by `dt`. Used when a
    /// checkpointed state is restored at a later point in simulated time:
    /// occupancy that was `x` seconds in the snapshot's future stays `x`
    /// seconds in the resumed run's future.
    pub fn shift(&mut self, dt: SimTime) {
        for t in self
            .pcie_out_free
            .iter_mut()
            .chain(self.pcie_in_free.iter_mut())
            .chain(self.nic_free.iter_mut())
        {
            *t += dt;
        }
    }
}

/// Result of delivering one message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivery {
    /// When the payload is applied on the receiving device.
    pub arrival: SimTime,
    /// When the sending *device* is done with its part (PCIe upload done) —
    /// the device is free to compute again after this.
    pub sender_free: SimTime,
    /// When the sending *host* finished pushing the message into the
    /// network (NIC occupancy end).
    pub host_send_done: SimTime,
}

/// Timing model bound to one platform.
#[derive(Clone, Debug)]
pub struct NetModel {
    platform: Platform,
    /// Model GPUDirect: device↔device transfers bypass host staging.
    pub direct_device: bool,
    /// What every message needs of the platform, worked out once: the host
    /// of each device and the network latency in nanoseconds.
    host_of: Vec<u32>,
    net_latency: SimTime,
}

/// Aggregate outcome of a whole exchange phase (BSP use).
#[derive(Clone, Debug, Default)]
pub struct ExchangeOutcome {
    /// Per device: when all its inbound payloads are applied (its own clock
    /// if it receives nothing).
    pub device_done: Vec<SimTime>,
    /// Per host: blocked time between finishing its sends and the last
    /// inbound arrival.
    pub host_wait: Vec<SimTime>,
    /// Per device: when its last outbound upload left its PCIe lane (its
    /// own clock if it sends nothing). `device_done[d] - sender_free[d]`
    /// is the time device `d` spent blocked on *inbound* traffic.
    pub sender_free: Vec<SimTime>,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Number of messages.
    pub num_messages: u64,
}

impl ExchangeOutcome {
    /// The exchange's makespan: the latest per-device done time, or
    /// [`SimTime::ZERO`] when there are no devices. Callers used to take
    /// `device_done.iter().max().unwrap()`, which panics the whole process
    /// on a zero-device outcome — a resident server cannot afford that, so
    /// the empty case is defined here instead of unwrapped at every site.
    pub fn makespan(&self) -> SimTime {
        self.device_done
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

impl NetModel {
    /// Creates the model (host-staged transfers, as all frameworks in the
    /// paper do).
    pub fn new(platform: Platform) -> NetModel {
        NetModel {
            direct_device: false,
            host_of: (0..platform.num_devices())
                .map(|d| platform.host_of(d))
                .collect(),
            net_latency: SimTime::from_secs_f64(platform.cluster.net_latency),
            platform,
        }
    }

    /// The platform this model times.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Fresh link state for this platform.
    pub fn new_state(&self) -> NetState {
        NetState::new(self.platform.num_devices(), self.platform.num_hosts())
    }

    /// Delivers one message, updating link occupancy.
    pub fn send(&self, st: &mut NetState, msg: SendDesc) -> Delivery {
        let c = &self.platform.cluster;
        let pcie = || SimTime::from_secs_f64(c.pcie_latency + msg.bytes as f64 / c.pcie_bandwidth);
        let nic = || SimTime::from_secs_f64(c.msg_overhead + msg.bytes as f64 / c.net_bandwidth);
        let (hf, ht) = (
            self.host_of[msg.from as usize],
            self.host_of[msg.to as usize],
        );

        if self.direct_device {
            // GPUDirect P2P / RDMA: one hop, no host staging.
            if hf == ht {
                let arrival = msg.depart + pcie();
                return Delivery {
                    arrival,
                    sender_free: arrival,
                    host_send_done: arrival,
                };
            }
            let nic_free = &mut st.nic_free[hf as usize];
            let start = msg.depart.max(*nic_free);
            let done = start + nic();
            *nic_free = done;
            let arrival = done + self.net_latency;
            return Delivery {
                arrival,
                sender_free: done,
                host_send_done: done,
            };
        }

        // Both PCIe hops move the same bytes over the same kind of lane.
        let pcie = pcie();

        // Hop 1: device -> host over the sender's PCIe lane.
        let out = &mut st.pcie_out_free[msg.from as usize];
        let up_start = msg.depart.max(*out);
        let up_done = up_start + pcie;
        *out = up_done;

        // Hop 2: host -> host (skipped within a host: staged in pinned
        // host memory, which hop 1/3 already price).
        let (at_recv_host, host_send_done) = if hf == ht {
            (up_done, up_done)
        } else {
            let nic_free = &mut st.nic_free[hf as usize];
            let start = up_done.max(*nic_free);
            let done = start + nic();
            *nic_free = done;
            (done + self.net_latency, done)
        };

        // Hop 3: host -> device over the receiver's PCIe lane.
        let inl = &mut st.pcie_in_free[msg.to as usize];
        let down_start = at_recv_host.max(*inl);
        let down_done = down_start + pcie;
        *inl = down_done;

        Delivery {
            arrival: down_done,
            sender_free: up_done,
            host_send_done,
        }
    }

    /// Opens a [`crate::ReliableNet::exchange_reliable`]: resets `out` to
    /// "nothing sent yet" and returns the service order of
    /// `sends` as index ranges (hand it back to
    /// [`NetModel::finish_exchange`]). `out.host_wait` accumulates each
    /// host's last arrival until the exchange is finished.
    pub(crate) fn begin_exchange(
        &self,
        st: &mut NetState,
        device_clock: &[SimTime],
        sends: &[SendDesc],
        out: &mut ExchangeOutcome,
    ) -> Vec<(u32, u32)> {
        let p = self.host_of.len();
        let h = self.platform.num_hosts() as usize;
        out.device_done.clear();
        out.device_done.extend_from_slice(device_clock);
        out.sender_free.clear();
        out.sender_free.extend_from_slice(device_clock);
        out.host_wait.clear();
        out.host_wait.resize(h, SimTime::ZERO);
        out.total_bytes = 0;
        out.num_messages = sends.len() as u64;
        // The earliest a host can be considered "done with its own work":
        // the latest compute-finish among its devices.
        st.host_send_done.clear();
        st.host_send_done.resize(h, SimTime::ZERO);
        for (&host, &clock) in self.host_of.iter().zip(&device_clock[..p]) {
            let floor = &mut st.host_send_done[host as usize];
            *floor = (*floor).max(clock);
        }
        let mut order = std::mem::take(&mut st.order);
        service_order(sends, &mut order);
        order
    }

    /// Folds one serviced message into the exchange's aggregates. `arrival`
    /// is `None` when the payload never reached its receiver.
    pub(crate) fn tally(
        &self,
        st: &mut NetState,
        out: &mut ExchangeOutcome,
        msg: &SendDesc,
        sender_free: SimTime,
        host_send_done: SimTime,
        arrival: Option<SimTime>,
    ) {
        let (from, to) = (msg.from as usize, msg.to as usize);
        let (hf, ht) = (self.host_of[from] as usize, self.host_of[to] as usize);
        out.sender_free[from] = out.sender_free[from].max(sender_free);
        st.host_send_done[hf] = st.host_send_done[hf].max(host_send_done);
        if let Some(arrival) = arrival {
            out.device_done[to] = out.device_done[to].max(arrival);
            out.host_wait[ht] = out.host_wait[ht].max(arrival);
        }
    }

    /// Closes an exchange opened by [`NetModel::begin_exchange`].
    pub(crate) fn finish_exchange(
        &self,
        st: &mut NetState,
        order: Vec<(u32, u32)>,
        out: &mut ExchangeOutcome,
    ) {
        st.order = order;
        // A sender is not "done" until its uploads finish even if it
        // receives nothing.
        for (done, free) in out.device_done.iter_mut().zip(&out.sender_free) {
            *done = (*done).max(*free);
        }
        for (last_arrival, send_done) in out.host_wait.iter_mut().zip(&st.host_send_done) {
            *last_arrival = last_arrival.saturating_sub(*send_done);
        }
    }
}

/// Fills `order` with the service order of `sends` — ascending
/// `(depart, from, to)`, equal keys in input order — as index ranges into
/// `sends` to be served one after the other.
///
/// The engines hand over one run of messages per builder, constant in
/// `(depart, from)` and ascending in `to`. Such runs are already in order
/// inside, and runs with different `(depart, from)` do not interleave, so
/// ordering the run heads orders the messages. That holds only while no
/// two runs share a `(depart, from)`; an input where they do (which
/// includes any run whose `to` steps down, since the cut makes two) is
/// ordered message by message.
fn service_order(sends: &[SendDesc], order: &mut Vec<(u32, u32)>) {
    let key = |i: u32| (sends[i as usize].depart, sends[i as usize].from);
    let n = sends.len() as u32;
    order.clear();
    let mut start = 0;
    for i in 1..=n {
        if i == n || key(i) != key(i - 1) || sends[i as usize].to < sends[i as usize - 1].to {
            order.push((start, i));
            start = i;
        }
    }
    order.sort_unstable_by_key(|&(s, _)| (key(s), s));
    if order.windows(2).any(|w| key(w[0].0) == key(w[1].0)) {
        order.clear();
        order.extend((0..n).map(|i| (i, i + 1)));
        order.sort_unstable_by_key(|&(i, _)| (key(i), sends[i as usize].to, i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultCounters, FaultPlan};
    use crate::reliable::{ReliableExchange, ReliableNet, ReliableState};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn model(n: u32) -> NetModel {
        NetModel::new(Platform::bridges(n))
    }

    /// One barrier-style exchange through the transport under
    /// [`FaultPlan::none`], against `st`, into `out`.
    fn exchange_into(
        m: &NetModel,
        st: &mut NetState,
        clock: &[SimTime],
        sends: &[SendDesc],
        out: &mut ReliableExchange,
    ) {
        let r = ReliableNet::new(m, FaultPlan::none());
        let mut counters = FaultCounters::default();
        let mut events = Vec::new();
        r.exchange_reliable(
            st,
            &mut ReliableState::for_devices(m.platform().num_devices()),
            clock,
            sends,
            &dirgl_gpusim::HealthTracker::new(m.platform().num_devices()),
            &mut counters,
            &mut events,
            out,
        );
        assert!(out.failures.is_empty() && !counters.any() && events.is_empty());
    }

    /// One barrier-style exchange on fresh link state.
    fn exchange(m: &NetModel, clock: &[SimTime], sends: &[SendDesc]) -> ExchangeOutcome {
        let mut out = ReliableExchange::default();
        exchange_into(m, &mut m.new_state(), clock, sends, &mut out);
        out.outcome
    }

    #[test]
    fn single_message_path_times_add_up() {
        let m = model(4);
        let mut st = m.new_state();
        let c = m.platform().cluster;
        // Cross-host: device 0 (host 0) -> device 2 (host 1).
        let d = m.send(
            &mut st,
            SendDesc {
                from: 0,
                to: 2,
                bytes: 1_000_000,
                depart: SimTime::ZERO,
            },
        );
        let pcie = c.pcie_latency + 1e6 / c.pcie_bandwidth;
        let net = c.msg_overhead + 1e6 / c.net_bandwidth + c.net_latency;
        let expect = 2.0 * pcie + net;
        assert!((d.arrival.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn same_host_skips_the_nic() {
        let m = model(4);
        let mut st1 = m.new_state();
        let mut st2 = m.new_state();
        let same = m.send(
            &mut st1,
            SendDesc {
                from: 0,
                to: 1,
                bytes: 1_000_000,
                depart: SimTime::ZERO,
            },
        );
        let cross = m.send(
            &mut st2,
            SendDesc {
                from: 0,
                to: 2,
                bytes: 1_000_000,
                depart: SimTime::ZERO,
            },
        );
        assert!(same.arrival < cross.arrival);
    }

    /// §V-B3: "there is a threshold below which the overhead of extracting
    /// the updated values outweighs the benefits of volume reduction. This
    /// threshold can be determined using microbenchmarking." Here it is
    /// determined by this model: one 500 000-entry cross-host message on
    /// Bridges, where UO also pays the prefix-scan extraction before it
    /// departs. AS arrives at 1 240.7 µs; UO arrives at 185.5 µs with
    /// nothing updated, 768.8 µs at 50 % and 1 235.5 µs at 90 %, and loses
    /// from 91 % (1 247.1 µs) on: the crossover is near 90.5 %.
    #[test]
    fn uo_wins_below_the_modelled_threshold() {
        use crate::message::{as_message_bytes, uo_message_bytes, VAL_BYTES};
        use dirgl_gpusim::{GpuSpec, KernelModel};

        const ENTRIES: u64 = 500_000;
        let m = model(4);
        let arrival = |bytes: u64, depart: f64| {
            let msg = SendDesc {
                from: 0,
                to: 2,
                bytes,
                depart: SimTime::from_secs_f64(depart),
            };
            m.send(&mut m.new_state(), msg).arrival.as_secs_f64() * 1e6
        };
        let scan = KernelModel::new(GpuSpec::p100()).scan_time(ENTRIES);
        let as_us = arrival(as_message_bytes(ENTRIES, VAL_BYTES), 0.0);
        let uo_us = |pct: u64| {
            arrival(
                uo_message_bytes(ENTRIES, ENTRIES * pct / 100, VAL_BYTES),
                scan,
            )
        };
        assert!((as_us - 1240.7).abs() < 0.1, "AS {as_us} µs");
        assert!(uo_us(90) < as_us, "UO {} µs at 90 %", uo_us(90));
        for pct in [91, 100] {
            assert!(uo_us(pct) > as_us, "UO {} µs at {pct} %", uo_us(pct));
        }
    }

    #[test]
    fn nic_serializes_messages() {
        let m = model(8);
        let mut st = m.new_state();
        let a = m.send(
            &mut st,
            SendDesc {
                from: 0,
                to: 2,
                bytes: 10_000_000,
                depart: SimTime::ZERO,
            },
        );
        // Second message from the same host must queue behind the first on
        // the NIC even though it comes from the other device.
        let b = m.send(
            &mut st,
            SendDesc {
                from: 1,
                to: 4,
                bytes: 10_000_000,
                depart: SimTime::ZERO,
            },
        );
        assert!(b.host_send_done > a.host_send_done);
        assert!(b.arrival > a.arrival);
    }

    #[test]
    fn gpudirect_is_faster() {
        let mut m = model(4);
        let msg = SendDesc {
            from: 0,
            to: 2,
            bytes: 4_000_000,
            depart: SimTime::ZERO,
        };
        let staged = m.send(&mut m.new_state(), msg);
        m.direct_device = true;
        let direct = m.send(&mut m.new_state(), msg);
        assert!(direct.arrival < staged.arrival);
    }

    #[test]
    fn exchange_reports_waits_and_volume() {
        let m = model(4);
        let clocks = vec![SimTime::ZERO; 4];
        let sends = vec![
            SendDesc {
                from: 0,
                to: 2,
                bytes: 1_000_000,
                depart: SimTime::ZERO,
            },
            SendDesc {
                from: 2,
                to: 0,
                bytes: 8_000_000,
                depart: SimTime::ZERO,
            },
        ];
        let out = exchange(&m, &clocks, &sends);
        assert_eq!(out.total_bytes, 9_000_000);
        assert_eq!(out.num_messages, 2);
        // Host 0 receives the big message: it waits longer than host 1.
        assert!(out.host_wait[0] > out.host_wait[1]);
        assert!(out.device_done[0] > out.device_done[1]);
    }

    #[test]
    fn exchange_of_no_messages_is_instant() {
        let m = model(2);
        let clocks = vec![SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(2.0)];
        let out = exchange(&m, &clocks, &[]);
        assert_eq!(out.device_done, clocks);
        assert_eq!(out.total_bytes, 0);
        assert!(out.host_wait.iter().all(|&w| w == SimTime::ZERO));
    }

    #[test]
    fn state_persists_across_exchanges() {
        // Pinned semantics: an exchange leaves link occupancy in the
        // caller's state, so a second exchange queues behind the first;
        // an exchange on fresh state never sees the backlog.
        let m = model(4);
        let clocks = vec![SimTime::ZERO; 4];
        let sends = vec![SendDesc {
            from: 0,
            to: 2,
            bytes: 50_000_000,
            depart: SimTime::ZERO,
        }];

        let mut st = m.new_state();
        let (mut first, mut second) = (ReliableExchange::default(), ReliableExchange::default());
        exchange_into(&m, &mut st, &clocks, &sends, &mut first);
        exchange_into(&m, &mut st, &clocks, &sends, &mut second);
        let (first, second) = (first.outcome, second.outcome);
        assert!(
            second.device_done[2] > first.device_done[2],
            "second exchange must queue behind the first's link occupancy"
        );

        // Fresh state is unaffected by prior traffic.
        let isolated = exchange(&m, &clocks, &sends);
        assert_eq!(isolated.device_done[2], first.device_done[2]);
        let again = exchange(&m, &clocks, &sends);
        assert_eq!(again.device_done[2], first.device_done[2]);
    }

    #[test]
    fn exchange_reports_sender_free_and_inbound_wait() {
        let m = model(4);
        let clocks = vec![SimTime::ZERO; 4];
        // Device 0 sends a small message and receives a big one: its
        // inbound wait (device_done - sender_free) must be positive, and
        // its sender_free must come well before the big arrival.
        let sends = vec![
            SendDesc {
                from: 0,
                to: 2,
                bytes: 1_000,
                depart: SimTime::ZERO,
            },
            SendDesc {
                from: 2,
                to: 0,
                bytes: 20_000_000,
                depart: SimTime::ZERO,
            },
        ];
        let out = exchange(&m, &clocks, &sends);
        let wait0 = out.device_done[0].saturating_sub(out.sender_free[0]);
        assert!(wait0 > SimTime::ZERO);
        assert!(out.sender_free[0] < out.device_done[0]);
        // A device that neither sends nor receives keeps its clock.
        assert_eq!(out.sender_free[1], SimTime::ZERO);
        assert_eq!(out.device_done[1], SimTime::ZERO);
    }

    #[test]
    fn more_partners_cost_more_overhead_at_equal_volume() {
        // Same volume split over 1 vs 7 partners from one host: the
        // per-message overhead makes many partners slower.
        let m = model(16);
        let clocks = vec![SimTime::ZERO; 16];
        let one = exchange(
            &m,
            &clocks,
            &[SendDesc {
                from: 0,
                to: 14,
                bytes: 700_000,
                depart: SimTime::ZERO,
            }],
        );
        let many: Vec<SendDesc> = (1..8)
            .map(|i| SendDesc {
                from: 0,
                to: 2 * i + 1,
                bytes: 100_000,
                depart: SimTime::ZERO,
            })
            .collect();
        let spread = exchange(&m, &clocks, &many);
        let t1 = one.makespan().as_secs_f64();
        let t7 = spread.makespan().as_secs_f64();
        assert!(t7 > t1, "one={t1} seven={t7}");
    }

    #[test]
    fn makespan_of_an_empty_outcome_is_zero() {
        // A zero-device exchange must yield a value, not a panic.
        let empty = ExchangeOutcome::default();
        assert_eq!(empty.makespan(), SimTime::ZERO);
        let m = model(4);
        let out = exchange(&m, &[SimTime::ZERO; 4], &[]);
        assert_eq!(out.makespan(), SimTime::ZERO);
    }

    /// The exchange as first written: one stable sort of every send by
    /// `(depart, from, to)`, fresh vectors, a per-host scan for the floor.
    /// What an exchange under [`FaultPlan::none`] must keep computing.
    fn reference_exchange(
        m: &NetModel,
        st: &mut NetState,
        device_clock: &[SimTime],
        sends: &[SendDesc],
    ) -> ExchangeOutcome {
        let platform = m.platform();
        let h = platform.num_hosts() as usize;
        let mut device_done = device_clock.to_vec();
        let mut sender_free = device_clock.to_vec();
        let mut host_send_done: Vec<SimTime> = (0..h as u32)
            .map(|host| {
                (0..platform.num_devices())
                    .filter(|&d| platform.host_of(d) == host)
                    .map(|d| device_clock[d as usize])
                    .max()
                    .unwrap_or(SimTime::ZERO)
            })
            .collect();
        let mut host_last_arrival = vec![SimTime::ZERO; h];
        let mut total_bytes = 0;
        let mut order: Vec<&SendDesc> = sends.iter().collect();
        order.sort_by_key(|s| (s.depart, s.from, s.to));
        for msg in order {
            let d = m.send(st, *msg);
            total_bytes += msg.bytes;
            let (hf, ht) = (
                platform.host_of(msg.from) as usize,
                platform.host_of(msg.to) as usize,
            );
            device_done[msg.to as usize] = device_done[msg.to as usize].max(d.arrival);
            sender_free[msg.from as usize] = sender_free[msg.from as usize].max(d.sender_free);
            host_send_done[hf] = host_send_done[hf].max(d.host_send_done);
            host_last_arrival[ht] = host_last_arrival[ht].max(d.arrival);
        }
        for (done, free) in device_done.iter_mut().zip(&sender_free) {
            *done = (*done).max(*free);
        }
        ExchangeOutcome {
            host_wait: (0..h)
                .map(|i| host_last_arrival[i].saturating_sub(host_send_done[i]))
                .collect(),
            device_done,
            sender_free,
            total_bytes,
            num_messages: sends.len() as u64,
        }
    }

    /// The sends of one exchange the way the engines hand them over: per
    /// builder in ascending order one run, stamped with the builder's clock
    /// and ascending in `to`. Clocks collide now and then, and bytes are
    /// all different, so that any reordering shows.
    fn engine_shaped(rng: &mut TestRng, p: u32) -> (Vec<SimTime>, Vec<SendDesc>) {
        let clocks: Vec<SimTime> = (0..p).map(|_| SimTime(1_000 * rng.below(6))).collect();
        let mut sends = Vec::new();
        for from in 0..p {
            for to in (0..p).filter(|&to| to != from) {
                if rng.below(3) > 0 {
                    sends.push(SendDesc {
                        from,
                        to,
                        bytes: 64 + 1_000 * sends.len() as u64,
                        depart: clocks[from as usize],
                    });
                }
            }
        }
        (clocks, sends)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the shape of the input — the engines' runs, the same
        /// shuffled or reversed, or with runs that share a `(depart, from)` — two
        /// exchanges in a row give the outcome and the link state of the
        /// full sort.
        #[test]
        fn service_order_is_the_full_sort(
            seed in any::<u64>(),
            p in prop::sample::select(vec![2u32, 4, 8, 16]),
            shape in 0u32..4,
            gpudirect in any::<bool>(),
        ) {
            let mut rng = TestRng::seed(seed);
            let mut m = model(p);
            m.direct_device = gpudirect;
            let (mut st, mut ref_st) = (m.new_state(), m.new_state());
            let mut out = ReliableExchange::default();
            for _ in 0..2 {
                let (clocks, mut sends) = engine_shaped(&mut rng, p);
                match shape {
                    0 => {}
                    // Any order at all.
                    1 => {
                        for i in (1..sends.len()).rev() {
                            sends.swap(i, rng.below(i as u64 + 1) as usize);
                        }
                    }
                    // One run per builder still, each descending in `to`.
                    2 => sends.reverse(),
                    // A second run of some builders (what two partitions
                    // re-homed onto one device send), whose receivers fall
                    // between and upon those of the first.
                    _ => {
                        let again: Vec<SendDesc> = sends
                            .iter()
                            .filter(|s| s.from % 2 == 0 && rng.below(2) == 0)
                            .map(|s| SendDesc { bytes: s.bytes + 7, ..*s })
                            .collect();
                        sends.extend(again);
                    }
                }
                exchange_into(&m, &mut st, &clocks, &sends, &mut out);
                let want = reference_exchange(&m, &mut ref_st, &clocks, &sends);
                prop_assert_eq!(format!("{:?}", out.outcome), format!("{want:?}"));
                prop_assert_eq!(&st.pcie_out_free, &ref_st.pcie_out_free);
                prop_assert_eq!(&st.pcie_in_free, &ref_st.pcie_in_free);
                prop_assert_eq!(&st.nic_free, &ref_st.nic_free);
            }
        }
    }

    #[test]
    fn engine_shaped_sends_are_served_run_by_run() {
        // The premise of the test above: the engines' shape takes the
        // short way (one range per builder), anything else the long one.
        let mut rng = TestRng::seed(7);
        let (_, mut sends) = engine_shaped(&mut rng, 8);
        let mut order = Vec::new();
        service_order(&sends, &mut order);
        assert!(order.len() <= 8, "{} ranges for 8 builders", order.len());
        assert_eq!(
            order.iter().map(|&(s, e)| (e - s) as usize).sum::<usize>(),
            sends.len()
        );
        let last = sends.len() - 1;
        sends.swap(0, last);
        service_order(&sends, &mut order);
        assert_eq!(order.len(), sends.len(), "one range per message");
    }
}
