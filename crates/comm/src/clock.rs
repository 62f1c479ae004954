//! Deterministic virtual time.
//!
//! All simulated durations are tracked in integer nanoseconds so event
//! ordering in the BASP discrete-event driver is exact and reproducible
//! across runs and platforms (no float accumulation drift in comparisons).

/// A point (or span) of simulated time, nanosecond resolution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from seconds (rounds to nanoseconds; negatives clamp to 0).
    pub fn from_secs_f64(s: f64) -> SimTime {
        if s <= 0.0 {
            SimTime(0)
        } else {
            SimTime((s * 1e9).round() as u64)
        }
    }

    /// As floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_arithmetic() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(t + SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(2.0));
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime(5).saturating_sub(SimTime(9)), SimTime::ZERO);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_secs_f64(1e-9);
        let b = SimTime::from_secs_f64(2e-9);
        assert!(a < b);
        let s: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(s, SimTime(5));
    }
}
