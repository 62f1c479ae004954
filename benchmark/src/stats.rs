//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; `xs` need not be sorted. Panics on an empty sample: every
/// caller measures at least one operation.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The arithmetic mean of `xs` (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a over the bit patterns of `values`: two result vectors share a
/// digest exactly when they are bit-identical (up to hash collision).
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shuffles `items` in an order `seed` picks (Fisher-Yates on SplitMix64).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = splitmix(seed);
    for k in (1..items.len()).rev() {
        state = splitmix(state);
        items.swap(k, (state % (k as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..40).collect();
            shuffle(&mut v, seed);
            v
        };
        assert_eq!(shuffled(3), shuffled(3));
        assert_ne!(shuffled(3), shuffled(4));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_eq!(digest(&[1.0, 2.0]), digest(&[1.0, 2.0]));
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
    }
}
