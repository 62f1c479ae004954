//! Execution reports — the decomposition plotted in Figs. 4–6 and 8–9 and
//! the balance columns of Table IV.

use dirgl_comm::SimTime;
use dirgl_partition::metrics::max_over_mean_f64;

use crate::resilience::ResilienceStats;
use crate::trace::RoundRecord;

/// One round's cross-device summary, distilled from the trace records of
/// that round (global round under BSP; same local ordinal under BASP).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundSummary {
    /// Round number the summary covers.
    pub round: u32,
    /// Devices that executed this round.
    pub devices: u32,
    /// Largest per-device compute time in the round.
    pub max_compute: SimTime,
    /// Largest per-device inbound-blocking time in the round.
    pub max_wait: SimTime,
    /// Wire bytes sent in the round (all devices).
    pub bytes: u64,
    /// Messages sent in the round (all devices).
    pub messages: u64,
    /// Total active vertices at round start (all devices).
    pub frontier: u64,
    /// Masters whose canonical value changed (all devices).
    pub absorb_changed: u64,
}

impl RoundSummary {
    /// Groups per-device records into one summary per round number,
    /// ordered by round.
    pub fn from_records(records: &[RoundRecord]) -> Vec<RoundSummary> {
        let mut rounds: Vec<RoundSummary> = Vec::new();
        for r in records {
            let idx = r.round as usize;
            if rounds.len() <= idx {
                rounds.resize(
                    idx + 1,
                    RoundSummary {
                        round: 0,
                        devices: 0,
                        max_compute: SimTime::ZERO,
                        max_wait: SimTime::ZERO,
                        bytes: 0,
                        messages: 0,
                        frontier: 0,
                        absorb_changed: 0,
                    },
                );
            }
            let s = &mut rounds[idx];
            s.round = r.round;
            s.devices += 1;
            s.max_compute = s.max_compute.max(r.compute);
            s.max_wait = s.max_wait.max(r.wait);
            s.bytes += r.bytes_sent;
            s.messages += r.messages_sent;
            s.frontier += r.frontier;
            s.absorb_changed += r.absorb_changed as u64;
        }
        rounds.retain(|s| s.devices > 0);
        rounds
    }
}

/// Everything measured about one application run.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// End-to-end simulated execution time (excludes partitioning and
    /// loading, like the paper's reported times).
    pub total_time: SimTime,
    /// Per-device accumulated kernel time.
    pub compute_per_device: Vec<SimTime>,
    /// Per-host accumulated blocking-receive time.
    pub wait_per_host: Vec<SimTime>,
    /// Paper-equivalent communication volume in bytes.
    pub comm_bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// Headline round count, copied verbatim from
    /// [`crate::engine::EngineOutcome::rounds`] (the single place that
    /// convention is defined): global rounds under BSP, minimum local
    /// rounds under BASP.
    pub rounds: u32,
    /// Minimum local rounds across devices. Under BSP a device whose
    /// partition never activates skips its kernel, so this can be below
    /// `rounds`.
    pub min_rounds: u32,
    /// Maximum local rounds across devices (== `rounds` under BSP for at
    /// least one device).
    pub max_rounds: u32,
    /// Paper-equivalent work items (edges processed, including redundant
    /// re-processing under BASP).
    pub work_items: u64,
    /// Peak device-memory bytes per device (paper-equivalent).
    pub memory_per_device: Vec<u64>,
    /// Per-round summaries, populated only when the run was traced (empty
    /// otherwise — assembling them costs per-round work).
    pub rounds_detail: Vec<RoundSummary>,
    /// Fault, retry and recovery counters (all zero on a healthy run).
    pub resilience: ResilienceStats,
}

impl ExecutionReport {
    /// "Max Compute": the maximum per-device computation time (the paper
    /// "measure\[s\] the computation time on each device and report\[s\] the
    /// maximum among them").
    pub fn max_compute(&self) -> SimTime {
        self.compute_per_device
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// "Min Wait": the minimum per-host blocking time.
    pub fn min_wait(&self) -> SimTime {
        self.wait_per_host
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
    }

    /// "Device Comm.": the non-overlapping device↔host communication time —
    /// the paper reports "the rest of the execution time" after compute and
    /// wait.
    pub fn device_comm(&self) -> SimTime {
        self.total_time
            .saturating_sub(self.max_compute())
            .saturating_sub(self.min_wait())
    }

    /// Dynamic load balance: max/mean of per-device compute time (Table IV
    /// "Dynamic").
    pub fn dynamic_balance(&self) -> f64 {
        let times: Vec<f64> = self
            .compute_per_device
            .iter()
            .map(|t| t.as_secs_f64())
            .collect();
        max_over_mean_f64(&times)
    }

    /// Memory balance: max/mean of per-device peak memory (Table IV
    /// "Memory").
    pub fn memory_balance(&self) -> f64 {
        let max = self.memory_per_device.iter().copied().max().unwrap_or(0) as f64;
        let mean = if self.memory_per_device.is_empty() {
            0.0
        } else {
            self.memory_per_device.iter().sum::<u64>() as f64 / self.memory_per_device.len() as f64
        };
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Maximum per-device peak memory (Table III's statistic).
    pub fn max_memory(&self) -> u64 {
        self.memory_per_device.iter().copied().max().unwrap_or(0)
    }

    /// Communication volume in GB, as annotated on the paper's bars.
    pub fn comm_gb(&self) -> f64 {
        self.comm_bytes as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            total_time: SimTime::from_secs_f64(10.0),
            compute_per_device: vec![SimTime::from_secs_f64(4.0), SimTime::from_secs_f64(2.0)],
            wait_per_host: vec![SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(1.0)],
            comm_bytes: 2_000_000_000,
            messages: 10,
            rounds: 7,
            min_rounds: 7,
            max_rounds: 7,
            work_items: 1000,
            memory_per_device: vec![300, 100],
            rounds_detail: Vec::new(),
            resilience: ResilienceStats::default(),
        }
    }

    #[test]
    fn decomposition_sums_to_total() {
        let r = report();
        assert_eq!(r.max_compute(), SimTime::from_secs_f64(4.0));
        assert_eq!(r.min_wait(), SimTime::from_secs_f64(1.0));
        assert_eq!(r.device_comm(), SimTime::from_secs_f64(5.0));
        let sum = r.max_compute() + r.min_wait() + r.device_comm();
        assert_eq!(sum, r.total_time);
    }

    #[test]
    fn balances() {
        let r = report();
        assert!((r.dynamic_balance() - 4.0 / 3.0).abs() < 1e-12);
        assert!((r.memory_balance() - 1.5).abs() < 1e-12);
        assert_eq!(r.max_memory(), 300);
        assert!((r.comm_gb() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn device_comm_saturates() {
        let mut r = report();
        r.total_time = SimTime::from_secs_f64(2.0);
        assert_eq!(r.device_comm(), SimTime::ZERO);
    }

    #[test]
    fn round_summaries_group_per_round() {
        use crate::trace::{EngineKind, TraceDirection};
        let rec = |round: u32, device: u32, compute: f64, bytes: u64| RoundRecord {
            engine: EngineKind::Bsp,
            round,
            device,
            direction: TraceDirection::Push,
            frontier: 10,
            compute: SimTime::from_secs_f64(compute),
            pack: SimTime::ZERO,
            wait: SimTime::from_secs_f64(0.1),
            bytes_sent: bytes,
            bytes_received: 0,
            messages_sent: 1,
            messages_received: 0,
            absorb_changed: 2,
            clock_end: SimTime::ZERO,
        };
        let records = vec![rec(0, 0, 1.0, 100), rec(0, 1, 3.0, 50), rec(1, 0, 2.0, 10)];
        let sums = RoundSummary::from_records(&records);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].round, 0);
        assert_eq!(sums[0].devices, 2);
        assert_eq!(sums[0].max_compute, SimTime::from_secs_f64(3.0));
        assert_eq!(sums[0].bytes, 150);
        assert_eq!(sums[0].frontier, 20);
        assert_eq!(sums[0].absorb_changed, 4);
        assert_eq!(sums[1].devices, 1);
        assert_eq!(sums[1].bytes, 10);
    }
}
