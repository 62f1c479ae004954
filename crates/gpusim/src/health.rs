//! Device health: which simulated GPUs are alive, slow, or gone.
//!
//! The fault layer (`dirgl-comm::faults`) decides *when* a device crashes
//! or straggles; this tracker records the resulting health so the engines
//! and transport can ask one authoritative question — "is device `d`
//! usable right now, and at what speed?" — without each re-deriving it
//! from the fault schedule.

/// Health of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Computing at full speed.
    #[default]
    Healthy,
    /// Alive but slowed by the recorded factor (stragglers still
    /// participate in every barrier — that is what makes them expensive).
    Straggler,
    /// Crashed: computes nothing, acks nothing.
    Dead,
}

/// Health registry for all devices of a platform.
#[derive(Clone, Debug)]
pub struct HealthTracker {
    status: Vec<DeviceHealth>,
    slow_factor: Vec<f64>,
}

impl HealthTracker {
    /// All devices healthy.
    pub fn new(num_devices: u32) -> HealthTracker {
        HealthTracker {
            status: vec![DeviceHealth::Healthy; num_devices as usize],
            slow_factor: vec![1.0; num_devices as usize],
        }
    }

    /// Current health of `device`.
    pub fn health(&self, device: u32) -> DeviceHealth {
        self.status[device as usize]
    }

    /// True unless `device` is dead.
    #[inline]
    pub fn is_alive(&self, device: u32) -> bool {
        self.status[device as usize] != DeviceHealth::Dead
    }

    /// Records a crash.
    pub fn mark_dead(&mut self, device: u32) {
        self.status[device as usize] = DeviceHealth::Dead;
        self.slow_factor[device as usize] = 1.0;
    }

    /// Brings a crashed device back (post-recovery rejoin).
    pub fn revive(&mut self, device: u32) {
        self.status[device as usize] = DeviceHealth::Healthy;
        self.slow_factor[device as usize] = 1.0;
    }

    /// Marks `device` as a straggler computing `factor`× slower.
    pub fn set_straggler(&mut self, device: u32, factor: f64) {
        if self.status[device as usize] != DeviceHealth::Dead {
            self.status[device as usize] = DeviceHealth::Straggler;
            self.slow_factor[device as usize] = factor;
        }
    }

    /// Compute-time multiplier for `device` (1.0 unless straggling).
    pub fn factor(&self, device: u32) -> f64 {
        self.slow_factor[device as usize]
    }

    /// Number of devices currently alive.
    pub fn alive_count(&self) -> u32 {
        self.status
            .iter()
            .filter(|&&s| s != DeviceHealth::Dead)
            .count() as u32
    }

    /// Per-device liveness flags (index = device id).
    pub fn alive_flags(&self) -> Vec<bool> {
        self.status
            .iter()
            .map(|&s| s != DeviceHealth::Dead)
            .collect()
    }

    /// True when every device is healthy and at full speed.
    pub fn all_healthy(&self) -> bool {
        self.status.iter().all(|&s| s == DeviceHealth::Healthy)
    }

    /// Number of devices tracked (alive or not).
    pub fn num_devices(&self) -> u32 {
        self.status.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut h = HealthTracker::new(4);
        assert!(h.all_healthy());
        assert_eq!(h.alive_count(), 4);

        h.set_straggler(1, 4.0);
        assert_eq!(h.health(1), DeviceHealth::Straggler);
        assert!(h.is_alive(1));
        assert_eq!(h.factor(1), 4.0);
        assert!(!h.all_healthy());
        assert_eq!(h.alive_count(), 4, "stragglers are alive");

        h.mark_dead(2);
        assert!(!h.is_alive(2));
        assert_eq!(h.alive_count(), 3);
        assert_eq!(h.num_devices(), 4);
        assert_eq!(h.alive_flags(), vec![true, true, false, true]);
        // Dead devices can't straggle.
        h.set_straggler(2, 2.0);
        assert_eq!(h.health(2), DeviceHealth::Dead);

        h.revive(2);
        assert!(h.is_alive(2));
        assert_eq!(h.health(2), DeviceHealth::Healthy);
    }
}
