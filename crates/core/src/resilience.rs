//! Checkpointing, rollback and graceful degradation — what the engines do
//! when the fault layer takes a device away.
//!
//! Three pieces:
//!
//! * `DeviceSnapshot` — a copy of one device's *logical* execution state
//!   (labels, worklists, sync marks, round ordinal). Monotonic accounting
//!   (accumulated compute time, work items, idle time) is deliberately
//!   *not* part of a snapshot: work lost to a rollback was still
//!   performed, and the report should say so.
//! * `HomeMap` — the logical→physical device mapping that graceful
//!   degradation rewrites. Engines compute on *logical* partitions; the
//!   transport is addressed by *physical* device. Killing device `d`
//!   without rejoin re-homes logical partition `d` onto a surviving
//!   physical device, which then executes both partitions (serially, like
//!   the real oversubscribed GPU would).
//! * [`ResilienceStats`] — the recovery counters surfaced through
//!   [`crate::report::ExecutionReport`].

use dirgl_comm::{FaultCounters, SimTime};
use dirgl_gpusim::ClusterSpec;

use crate::device::DeviceRun;
use crate::program::VertexProgram;

/// Fault, retry and recovery counters for one run. All zero on a healthy
/// run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResilienceStats {
    /// Link-level injection and retry counters from the reliable
    /// transport.
    pub faults: FaultCounters,
    /// Device crashes that occurred.
    pub crashes: u32,
    /// Checkpoints taken.
    pub checkpoints_taken: u32,
    /// Total paper-equivalent bytes captured across all checkpoints.
    pub checkpoint_bytes: u64,
    /// Rollbacks performed (each restores every device from the last
    /// checkpoint).
    pub rollbacks: u32,
    /// Device-rounds re-executed because of rollbacks (replay overhead;
    /// the headline round counts stay logical).
    pub rounds_replayed: u32,
    /// Crashed devices that rejoined after a rollback.
    pub rejoins: u32,
    /// Master vertices permanently reassigned to a surviving device
    /// (graceful degradation; 0 when every crash rejoined).
    pub masters_reassigned: u64,
    /// Simulated time spent detecting failures and restoring state.
    pub recovery_time: SimTime,
}

impl ResilienceStats {
    /// Folds another run's counters into this one.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.faults.merge(&other.faults);
        self.crashes += other.crashes;
        self.checkpoints_taken += other.checkpoints_taken;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.rollbacks += other.rollbacks;
        self.rounds_replayed += other.rounds_replayed;
        self.rejoins += other.rejoins;
        self.masters_reassigned += other.masters_reassigned;
        self.recovery_time += other.recovery_time;
    }
}

/// One device's restorable execution state.
pub(crate) struct DeviceSnapshot<P: VertexProgram> {
    state: Vec<P::State>,
    active: dirgl_comm::DenseBitset,
    updated: dirgl_comm::DenseBitset,
    bcast_dirty: dirgl_comm::DenseBitset,
    rounds: u32,
}

impl<P: VertexProgram> DeviceSnapshot<P> {
    /// Captures `dev`'s logical state.
    pub(crate) fn capture(dev: &DeviceRun<'_, P>) -> DeviceSnapshot<P> {
        DeviceSnapshot {
            state: dev.state.clone(),
            active: dev.active.clone(),
            updated: dev.updated.clone(),
            bcast_dirty: dev.bcast_dirty.clone(),
            rounds: dev.rounds,
        }
    }

    /// Restores the captured state into `dev`, leaving monotonic
    /// accounting (compute/idle time, work items, peak memory) untouched.
    pub(crate) fn restore(&self, dev: &mut DeviceRun<'_, P>) {
        dev.state.clone_from(&self.state);
        dev.active = self.active.clone();
        dev.updated = self.updated.clone();
        dev.bcast_dirty = self.bcast_dirty.clone();
        dev.rounds = self.rounds;
    }

    /// Round ordinal the snapshot was taken at.
    pub(crate) fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Size of a checkpoint of `dev` in paper-equivalent bytes (every proxy
/// label plus the three tracking bitsets), and the simulated time to move
/// it over the device's PCIe link — the cost of dumping the checkpoint to
/// host memory, or of restoring it.
pub(crate) fn checkpoint_transfer<P: VertexProgram>(
    dev: &DeviceRun<'_, P>,
    program: &P,
    divisor: u64,
    cluster: &ClusterSpec,
) -> (u64, SimTime) {
    let n = dev.lg.num_vertices() as u64;
    let bytes = (n * program.state_bytes() + 3 * n.div_ceil(8)) * divisor;
    let secs = cluster.pcie_latency + bytes as f64 / cluster.pcie_bandwidth;
    (bytes, SimTime::from_secs_f64(secs))
}

/// Logical→physical device mapping. Starts as the identity; graceful
/// degradation re-homes a dead device's logical partition onto a
/// survivor.
#[derive(Clone, Debug)]
pub(crate) struct HomeMap {
    home: Vec<u32>,
    /// No partition has moved; cleared by the first real re-homing.
    identity: bool,
}

impl HomeMap {
    /// Identity mapping over `n` devices.
    pub(crate) fn identity(n: u32) -> HomeMap {
        HomeMap {
            home: (0..n).collect(),
            identity: true,
        }
    }

    /// Physical device hosting logical partition `l`.
    pub(crate) fn phys(&self, l: u32) -> u32 {
        self.home[l as usize]
    }

    /// True while no partition has moved.
    pub(crate) fn is_identity(&self) -> bool {
        self.identity
    }

    /// Logical partitions hosted on physical device `d`, ascending.
    pub(crate) fn residents(&self, d: u32) -> Vec<u32> {
        (0..self.home.len() as u32)
            .filter(|&l| self.home[l as usize] == d)
            .collect()
    }

    /// Picks the adopter for a failed device's partition: the alive
    /// physical device hosting the fewest logical partitions, lowest index
    /// on ties — deterministic and load-spreading.
    pub(crate) fn pick_adopter(&self, alive: &[bool]) -> Option<u32> {
        (0..self.home.len() as u32)
            .filter(|&d| alive[d as usize])
            .min_by_key(|&d| (self.residents(d).len(), d))
    }

    /// Re-homes every logical partition living on `dead` onto `adopter`.
    pub(crate) fn rehome(&mut self, dead: u32, adopter: u32) {
        if dead == adopter {
            return;
        }
        self.identity = false;
        for h in self.home.iter_mut() {
            if *h == dead {
                *h = adopter;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_map_identity_and_rehoming() {
        // The kept flag against a scan of the map.
        let scanned = |hm: &HomeMap| hm.home.iter().enumerate().all(|(i, &h)| i as u32 == h);
        let mut hm = HomeMap::identity(4);
        assert!(hm.is_identity());
        assert_eq!(hm.phys(2), 2);
        assert_eq!(hm.residents(1), vec![1]);
        // Re-homing a device onto itself moves nothing.
        hm.rehome(3, 3);
        assert!(hm.is_identity() && scanned(&hm));

        // Device 2 dies; 0..=3 alive flags with 2 dead.
        let alive = [true, true, false, true];
        let adopter = hm.pick_adopter(&alive).unwrap();
        assert_eq!(adopter, 0, "lowest index among equally-loaded survivors");
        hm.rehome(2, adopter);
        assert!(!hm.is_identity() && !scanned(&hm));
        assert_eq!(hm.phys(2), 0);
        assert_eq!(hm.residents(0), vec![0, 2]);
        assert_eq!(hm.residents(2), Vec::<u32>::new());

        // Next failure prefers the lighter-loaded survivors.
        let alive = [true, false, false, true];
        assert_eq!(hm.pick_adopter(&alive), Some(3));
    }

    #[test]
    fn stats_default_is_all_zero() {
        let s = ResilienceStats::default();
        assert_eq!(s.crashes, 0);
        assert_eq!(s.rollbacks, 0);
        assert!(!s.faults.any());
        assert_eq!(s.recovery_time, SimTime::ZERO);
    }

    #[test]
    fn merge_into_default_reproduces_every_field() {
        // Struct literals without `..`: a field added later fails to
        // compile here until this test (and so `merge`) covers it.
        let s = ResilienceStats {
            faults: FaultCounters {
                drops_injected: 1,
                duplicates_injected: 2,
                delays_injected: 3,
                timeouts: 4,
                retransmits: 5,
                duplicates_suppressed: 6,
                delivery_failures: 7,
            },
            crashes: 8,
            checkpoints_taken: 9,
            checkpoint_bytes: 10,
            rollbacks: 11,
            rounds_replayed: 12,
            rejoins: 13,
            masters_reassigned: 14,
            recovery_time: SimTime::from_secs_f64(15.0),
        };
        let mut total = ResilienceStats::default();
        total.merge(&s);
        assert_eq!(total, s);
        total.merge(&s);
        assert_eq!(total.crashes, 16);
        assert_eq!(total.faults.delivery_failures, 14);
        assert_eq!(total.recovery_time, SimTime::from_secs_f64(30.0));
    }
}
