//! The admission governor: predict, then admit / degrade / shed / reject.
//!
//! The paper's headline failure mode is the *missing data point* — a run
//! that OOMs simply vanishes from the figure. A resident service cannot
//! afford that shape of failure: a job that would OOM at K = 64 should run
//! degraded at K = 32 (or scalar), not die. The governor closes the loop
//! between the engine's memory model and the scheduler:
//!
//! 1. **Predict.** Before launching, the server computes the job's
//!    per-device footprint with [`dirgl_core::Runtime::footprint`] — the
//!    engine's load check itself (K-scaled `state_bytes`, CSR arrays,
//!    bitsets, comm buffers, and the raw-or-spilled decision), so
//!    prediction and engine admission cannot disagree.
//! 2. **Check.** The predicted bytes are held against each device's
//!    *residual* capacity: raw capacity minus bytes already reserved by
//!    in-flight jobs, shrunk further by health — a dead device contributes
//!    nothing (its load re-homes onto the least-loaded survivor, mirroring
//!    the engine's graceful-degradation adopter rule), a straggler's
//!    effective capacity is scaled down so pressure steers wide batches
//!    away from it. A dead device must still hold its own share at raw
//!    capacity: the engine loads every partition on its home device
//!    before the crash fires.
//! 3. **Decide.** Walk the degradation ladder (requested width, then
//!    halving: 64 → 32 → 16 → … → 2 → scalar) and grant the widest rung
//!    that fits. Low-priority work is shed instead of degraded — under
//!    pressure the cheap-to-rerun background jobs go first. If not even
//!    the scalar rung fits an *idle* server, reject with the offending
//!    device and bytes; if it fits idle capacity but not the current
//!    residual, the denial is transient ([`Denial::Busy`]) and the worker
//!    waits for an in-flight job to release its reservation.
//!
//! Granted footprints are *reserved* until the job releases them, so
//! concurrent workers cannot jointly over-commit a device that each job
//! individually fits.

use std::sync::Mutex;

use dirgl_core::ResilienceStats;
use dirgl_gpusim::{DeviceHealth, HealthTracker, MemoryTracker};

use crate::job::Priority;

/// Effective-capacity multiplier for a straggling device: pressure steers
/// wide batches away from slow devices before they inflate the barrier.
const STRAGGLER_CAPACITY_FACTOR: f64 = 0.9;

/// Why the governor refused to launch an accepted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// No rung of the degradation ladder fits: even the scalar footprint
    /// exceeds some device's effective capacity with zero reservations —
    /// the job can never run on this server as it stands. Names the worst
    /// offender.
    MemoryExceeded {
        /// Device whose capacity the scalar rung still exceeds.
        device: u32,
        /// Predicted bytes on that device at the scalar rung: its own
        /// share, or its load after re-homing.
        predicted: u64,
        /// The capacity those bytes exceed: raw for the device's own
        /// share, effective residual for its re-homed load.
        capacity: u64,
    },
    /// The job fits only degraded, and its priority is [`Priority::Low`]:
    /// background work is shed under pressure instead of competing with
    /// interactive jobs for the narrowed budget.
    Shed {
        /// The width the job asked for (which did not fit).
        requested_width: usize,
    },
    /// Every device is marked dead; nothing can execute.
    NoAliveDevices,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::MemoryExceeded {
                device,
                predicted,
                capacity,
            } => write!(
                f,
                "predicted {predicted} B on device {device} exceeds its effective residual {capacity} B even at scalar width"
            ),
            RejectReason::Shed { requested_width } => write!(
                f,
                "low-priority job shed under memory pressure (width {requested_width} does not fit)"
            ),
            RejectReason::NoAliveDevices => write!(f, "no alive devices"),
        }
    }
}

/// Why [`Governor::decide`] did not grant right now. `Busy` is transient —
/// the job fits an *idle* server but in-flight reservations currently
/// crowd it out, so the caller should wait for a release and ask again
/// (deadline permitting) instead of surfacing a rejection for pressure
/// that clears by itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Denial {
    /// Fits total effective capacity, not the current residual: retry
    /// after in-flight jobs release their reservations.
    Busy,
    /// Terminal: would not fit even with zero reservations (or is shed /
    /// has no alive device to run on).
    Reject(RejectReason),
}

/// What the governor granted for one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Grant {
    /// Lanes per engine launch (1 = the scalar backend).
    pub width: usize,
    /// True when `width` is below the requested width.
    pub degraded: bool,
    /// The per-device bytes reserved for this job (after re-homing); hand
    /// back to [`Governor::release`] when the job finishes.
    pub reserved: Vec<u64>,
}

/// One operator-visible device row of [`crate::JobServer::status`].
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceStatus {
    /// Device id.
    pub device: u32,
    /// Health as last observed from job reports.
    pub health: DeviceHealth,
    /// Compute slowdown factor (1.0 unless straggling).
    pub slow_factor: f64,
    /// Raw device capacity in bytes.
    pub capacity: u64,
    /// Bytes reserved by in-flight jobs.
    pub reserved: u64,
    /// Effective residual bytes the next job is admitted against
    /// (health-shrunk capacity minus reservations; 0 when dead).
    pub residual: u64,
}

struct GovState {
    /// Per-device reservation ledger (capacity = raw device bytes).
    mem: Vec<MemoryTracker>,
    health: HealthTracker,
}

/// The admission governor (see module docs). One per [`crate::JobServer`].
pub(crate) struct Governor {
    state: Mutex<GovState>,
}

impl Governor {
    /// Governor over devices with the given raw `capacities`. A known
    /// straggler window in the server's fault plan pre-registers that
    /// device as slow; crashes are observed from job reports as they
    /// happen.
    pub(crate) fn new(capacities: Vec<u64>, straggler: Option<(u32, f64)>) -> Governor {
        let n = capacities.len() as u32;
        let mut health = HealthTracker::new(n);
        if let Some((dev, factor)) = straggler {
            if dev < n {
                health.set_straggler(dev, factor);
            }
        }
        Governor {
            state: Mutex::new(GovState {
                mem: capacities.into_iter().map(MemoryTracker::new).collect(),
                health,
            }),
        }
    }

    /// Effective capacity of device `d`: 0 when dead, health-scaled
    /// otherwise.
    fn effective_capacity(st: &GovState, d: usize) -> u64 {
        match st.health.health(d as u32) {
            DeviceHealth::Dead => 0,
            DeviceHealth::Straggler => {
                (st.mem[d].capacity() as f64 * STRAGGLER_CAPACITY_FACTOR) as u64
            }
            DeviceHealth::Healthy => st.mem[d].capacity(),
        }
    }

    /// Re-homes predicted load off dead devices onto the least-loaded
    /// survivor (lowest index on ties) — the same adopter rule the
    /// engine's graceful degradation applies to reassigned masters.
    /// `None` when no device is alive.
    fn rehome(st: &GovState, pred: &[u64]) -> Option<Vec<u64>> {
        if st.health.alive_count() == 0 {
            return None;
        }
        let mut out = pred.to_vec();
        for d in 0..out.len() {
            if !st.health.is_alive(d as u32) && out[d] > 0 {
                let load = std::mem::take(&mut out[d]);
                let adopter = (0..out.len())
                    .filter(|&a| st.health.is_alive(a as u32))
                    .min_by_key(|&a| (out[a] + st.mem[a].in_use(), a))
                    .expect("alive_count > 0");
                out[adopter] += load;
            }
        }
        Some(out)
    }

    /// True when every device can load its own share of `pred`. The
    /// engine loads each partition on its home device before a crash
    /// fires, so a dead device must still hold its share at launch even
    /// though re-homing moves that share onto a survivor afterwards.
    fn fits_home(st: &GovState, pred: &[u64]) -> bool {
        pred.iter()
            .enumerate()
            .all(|(d, &need)| need <= st.mem[d].capacity())
    }

    /// True when `pred` loads on its home devices and its re-homed
    /// `mapped` load fits every device's effective residual.
    fn fits(st: &GovState, pred: &[u64], mapped: &[u64]) -> bool {
        Self::fits_home(st, pred)
            && mapped.iter().enumerate().all(|(d, &need)| {
                need == 0
                    || st.mem[d].in_use().saturating_add(need) <= Self::effective_capacity(st, d)
            })
    }

    /// True when `pred`/`mapped` would fit an *idle* server: every
    /// device's effective capacity with zero reservations. Separates
    /// transient pressure (reservations clear) from terminal
    /// infeasibility.
    fn fits_idle(st: &GovState, pred: &[u64], mapped: &[u64]) -> bool {
        Self::fits_home(st, pred)
            && mapped
                .iter()
                .enumerate()
                .all(|(d, &need)| need == 0 || need <= Self::effective_capacity(st, d))
    }

    /// Walks the degradation `ladder` (widest rung first, each a
    /// `(width, per-device prediction)` pair) and atomically grants —
    /// and reserves — the widest rung that fits the current residual.
    ///
    /// Terminal outcomes (shed, memory-exceeded) are judged against an
    /// *idle* server, so concurrent in-flight reservations can only
    /// produce [`Denial::Busy`] — never a spurious rejection of a job
    /// that would run fine a moment later. Low-priority work is never
    /// granted below its requested width: it is shed if even an idle
    /// server would have to degrade it, and waits otherwise.
    pub(crate) fn decide(
        &self,
        priority: Priority,
        ladder: &[(usize, Vec<u64>)],
    ) -> Result<Grant, Denial> {
        let requested = ladder.first().map(|(w, _)| *w).unwrap_or(1);
        let mut st = self.state.lock().unwrap();
        let mut feasible = false; // some rung fits an idle server
        let mut last: Option<(&[u64], Vec<u64>)> = None;
        for (width, pred) in ladder {
            let Some(mapped) = Self::rehome(&st, pred) else {
                return Err(Denial::Reject(RejectReason::NoAliveDevices));
            };
            if !feasible && Self::fits_idle(&st, pred, &mapped) {
                feasible = true;
                if *width < requested && priority == Priority::Low {
                    return Err(Denial::Reject(RejectReason::Shed {
                        requested_width: requested,
                    }));
                }
            }
            if Self::fits(&st, pred, &mapped) {
                if *width < requested && priority == Priority::Low {
                    // Low is never granted degraded width; since the shed
                    // check above passed, the requested width fits an idle
                    // server — wait for it.
                    break;
                }
                for (d, &need) in mapped.iter().enumerate() {
                    // Cannot fail: fits() checked against effective
                    // capacity, which never exceeds the ledger's raw one.
                    st.mem[d].alloc(need).expect("reservation fits capacity");
                }
                return Ok(Grant {
                    width: *width,
                    degraded: *width < requested,
                    reserved: mapped,
                });
            }
            last = Some((pred, mapped));
        }
        if feasible {
            return Err(Denial::Busy);
        }
        // Not even the narrowest rung fits an idle server: name the worst
        // offender, a home device that cannot load its own share or a
        // device whose re-homed load exceeds its residual.
        let (pred, mapped) = last.expect("ladder has at least one rung");
        let home = pred
            .iter()
            .enumerate()
            .map(|(d, &need)| (d as u32, need, st.mem[d].capacity()));
        let residual = mapped.iter().enumerate().map(|(d, &need)| {
            let cap = Self::effective_capacity(&st, d).saturating_sub(st.mem[d].in_use());
            (d as u32, need, cap)
        });
        let (device, predicted, capacity) = home
            .chain(residual)
            .max_by_key(|&(_, need, cap)| need.saturating_sub(cap))
            .expect("platform has devices");
        Err(Denial::Reject(RejectReason::MemoryExceeded {
            device,
            predicted,
            capacity,
        }))
    }

    /// Returns a grant's reservation to the pool.
    pub(crate) fn release(&self, reserved: &[u64]) {
        let mut st = self.state.lock().unwrap();
        for (d, &need) in reserved.iter().enumerate() {
            st.mem[d].free(need);
        }
    }

    /// Folds one finished job's engine-level resilience stats into the
    /// health picture: a crash that never rejoined leaves the scheduled
    /// device dead (its masters were permanently re-homed), a rejoin
    /// restores it.
    pub(crate) fn observe(&self, crash_device: Option<u32>, stats: &ResilienceStats) {
        let Some(dev) = crash_device else { return };
        if stats.crashes == 0 {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if dev >= st.health.num_devices() {
            return;
        }
        if stats.rejoins >= stats.crashes {
            st.health.revive(dev);
        } else {
            st.health.mark_dead(dev);
        }
    }

    /// Per-device operator snapshot.
    pub(crate) fn device_status(&self) -> Vec<DeviceStatus> {
        let st = self.state.lock().unwrap();
        (0..st.mem.len())
            .map(|d| {
                let effective = Self::effective_capacity(&st, d);
                DeviceStatus {
                    device: d as u32,
                    health: st.health.health(d as u32),
                    slow_factor: st.health.factor(d as u32),
                    capacity: st.mem[d].capacity(),
                    reserved: st.mem[d].in_use(),
                    residual: effective.saturating_sub(st.mem[d].in_use()),
                }
            })
            .collect()
    }
}

/// The degradation ladder's widths: `requested`, then halving down to 2,
/// then the scalar rung (width 1).
pub(crate) fn ladder_widths(requested: usize) -> Vec<usize> {
    let mut widths = vec![requested.max(1)];
    let mut w = requested.max(1);
    while w > 1 {
        w /= 2;
        widths.push(w.max(1));
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(crashes: u32, rejoins: u32) -> ResilienceStats {
        ResilienceStats {
            crashes,
            rejoins,
            ..ResilienceStats::default()
        }
    }

    #[test]
    fn ladder_halves_down_to_scalar() {
        assert_eq!(ladder_widths(64), vec![64, 32, 16, 8, 4, 2, 1]);
        assert_eq!(ladder_widths(6), vec![6, 3, 1]);
        assert_eq!(ladder_widths(1), vec![1]);
        assert_eq!(ladder_widths(0), vec![1]);
    }

    #[test]
    fn admits_widest_fitting_rung_and_reserves() {
        let gov = Governor::new(vec![100, 100], None);
        // 64 lanes need 120 B/device, 32 need 60, scalar needs 10.
        let ladder = vec![(64, vec![120, 120]), (32, vec![60, 60]), (1, vec![10, 10])];
        let g = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g.width, 32, "widest fitting rung wins");
        assert!(g.degraded);
        assert_eq!(g.reserved, vec![60, 60]);

        // A second identical job must see the reservation: 60+60 > 100,
        // so only the scalar rung fits now.
        let g2 = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g2.width, 1);

        // A third job needing 40 B sees 70/100 in use: it does not fit
        // the residual, but fits an idle server — transient, not a
        // rejection.
        assert_eq!(
            gov.decide(Priority::Normal, &[(1, vec![40, 40])])
                .unwrap_err(),
            Denial::Busy
        );

        gov.release(&g.reserved);
        gov.release(&g2.reserved);
        let g3 = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g3.width, 32, "released reservations are reusable");
    }

    #[test]
    fn low_priority_is_shed_instead_of_degraded() {
        let gov = Governor::new(vec![100], None);
        let ladder = vec![(64, vec![200]), (32, vec![50])];
        assert_eq!(
            gov.decide(Priority::Low, &ladder).unwrap_err(),
            Denial::Reject(RejectReason::Shed {
                requested_width: 64
            })
        );
        // The same job at Normal priority degrades instead.
        let g = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g.width, 32);
        // A Low job that fits at its requested width is NOT shed.
        gov.release(&g.reserved);
        let fits = vec![(64, vec![80])];
        let low_grant = gov.decide(Priority::Low, &fits).unwrap();
        assert_eq!(low_grant.width, 64);
        // A Low job whose requested width fits idle capacity but is
        // crowded out by a reservation waits rather than taking the
        // narrower rung that would fit the residual right now.
        assert_eq!(
            gov.decide(Priority::Low, &[(64, vec![80]), (32, vec![15])])
                .unwrap_err(),
            Denial::Busy,
            "Low is never granted degraded width; it waits for full width"
        );
        gov.release(&low_grant.reserved);
    }

    #[test]
    fn nothing_fits_rejects_with_worst_device() {
        let gov = Governor::new(vec![100, 40], None);
        let ladder = vec![(2, vec![90, 90]), (1, vec![50, 50])];
        assert_eq!(
            gov.decide(Priority::High, &ladder).unwrap_err(),
            Denial::Reject(RejectReason::MemoryExceeded {
                device: 1,
                predicted: 50,
                capacity: 40
            })
        );
    }

    #[test]
    fn dead_device_rehomes_onto_least_loaded_survivor() {
        let gov = Governor::new(vec![100, 100, 100], None);
        gov.observe(Some(1), &stats_with(1, 0)); // crash, no rejoin
        let status = gov.device_status();
        assert_eq!(status[1].health, DeviceHealth::Dead);
        assert_eq!(status[1].residual, 0);

        // Device 1's 40 B lands on a survivor; 60+40 fits 100.
        let ladder = vec![(2, vec![60, 40, 70])];
        let g = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(
            g.reserved,
            vec![100, 0, 70],
            "dead device's load re-homes onto the least-loaded survivor"
        );
        gov.release(&g.reserved);

        // A rejoin revives it and load stays home.
        gov.observe(Some(1), &stats_with(1, 1));
        let g = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g.reserved, vec![60, 40, 70]);
    }

    #[test]
    fn dead_device_must_load_its_own_share_before_rehoming() {
        // The engine loads device 1's 50 B partition on device 1 (40 B)
        // before the crash fires, so width 2 cannot launch even though
        // its re-homed load (60 B on device 0) would fit.
        let gov = Governor::new(vec![100, 40], None);
        gov.observe(Some(1), &stats_with(1, 0));
        let ladder = vec![(2, vec![10, 50]), (1, vec![10, 30])];
        let g = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g.width, 1);
        assert_eq!(g.reserved, vec![40, 0]);
        gov.release(&g.reserved);

        // No rung loads at home: the rejection names the dead device.
        assert_eq!(
            gov.decide(Priority::Normal, &[(1, vec![10, 50])])
                .unwrap_err(),
            Denial::Reject(RejectReason::MemoryExceeded {
                device: 1,
                predicted: 50,
                capacity: 40
            })
        );
    }

    #[test]
    fn all_dead_rejects() {
        let gov = Governor::new(vec![100], None);
        gov.observe(Some(0), &stats_with(1, 0));
        assert_eq!(
            gov.decide(Priority::Normal, &[(1, vec![10])]).unwrap_err(),
            Denial::Reject(RejectReason::NoAliveDevices)
        );
    }

    #[test]
    fn straggler_shrinks_effective_capacity() {
        let gov = Governor::new(vec![100, 100], Some((1, 4.0)));
        let status = gov.device_status();
        assert_eq!(status[1].health, DeviceHealth::Straggler);
        assert_eq!(status[1].slow_factor, 4.0);
        assert_eq!(status[1].residual, 90, "capacity × straggler factor");

        // 95 B fits device 0 but not the straggler's shrunk 90 B.
        let ladder = vec![(2, vec![95, 95]), (1, vec![30, 30])];
        let g = gov.decide(Priority::Normal, &ladder).unwrap();
        assert_eq!(g.width, 1, "pressure steers wide batches off stragglers");
    }
}
