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

    /// Builds from seconds (rounds to nanoseconds, half away from zero;
    /// negatives and NaN clamp to 0, and it saturates at `u64::MAX` ns).
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimTime {
        SimTime(round_ns(s * 1e9))
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

/// `ns.round() as u64` bit for bit, without the libm `round` call (two
/// per modelled message): truncate, take the exact fraction, round half
/// away from zero, saturate.
#[inline]
fn round_ns(ns: f64) -> u64 {
    // The saturating cast truncates toward zero and maps NaN and
    // negatives to 0. Below 2^53 it is exact and so is `ns - whole`; from
    // 2^53 up `ns` is an integer and the fraction is 0, except past
    // u64::MAX, where the saturating add keeps the cap.
    let whole = ns as u64;
    let half_up = ns - whole as f64 >= 0.5;
    whole.saturating_add(half_up as u64)
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

    /// The libm rounding [`round_ns`] replaces.
    fn libm(ns: f64) -> u64 {
        ns.round() as u64
    }

    #[test]
    fn round_ns_matches_libm_on_edge_cases() {
        let two = |e: i32| 2f64.powi(e);
        let cases = [
            0.5,
            0.499_999_999_999_999_94,
            1.5,
            2.5,
            two(52) - 0.5,
            two(52),
            two(52) + 1.0,
            two(53) - 1.0,
            two(53),
            two(53) + 2.0,
            two(64) - 2048.0,
            two(64),
            two(65),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -0.5,
            -0.7,
            -1.5,
            -two(64),
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        ];
        for ns in cases {
            assert_eq!(round_ns(ns), libm(ns), "{ns:e} ns");
        }
        assert_eq!(round_ns(0.5), 1);
        assert_eq!(round_ns(0.499_999_999_999_999_94), 0);
        assert_eq!(round_ns(f64::INFINITY), u64::MAX);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        #[test]
        fn from_secs_f64_matches_libm_on_random_bits(
            bits in proptest::prelude::any::<u64>(),
            frac_bits in 0u64..0x4330_0000_0000_0000,
        ) {
            // Any bit pattern: every exponent, both signs, NaNs and
            // subnormals. `frac_bits` stays below 2^52 ns, where a
            // fraction exists to round.
            for ns in [f64::from_bits(bits), f64::from_bits(frac_bits)] {
                proptest::prop_assert_eq!(round_ns(ns), libm(ns));
                let s = ns / 1e9;
                proptest::prop_assert_eq!(SimTime::from_secs_f64(s).0, libm(s * 1e9));
            }
        }
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
