//! Dense bitsets for update tracking.
//!
//! D-IrGL "tracks updates to proxies and only synchronizes the updated
//! values" (§III-D2). On the GPU this is a device-resident bitset that is
//! prefix-scanned to extract the updated values; here it is a `u64`-word
//! bitset whose extraction *cost* is charged through
//! [`dirgl_gpusim::KernelModel::scan_time`].

/// A fixed-capacity dense bitset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBitset {
    words: Vec<u64>,
    len: u32,
}

impl DenseBitset {
    /// An all-zero bitset over `len` positions.
    pub fn new(len: u32) -> DenseBitset {
        DenseBitset {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: u32) {
        debug_assert!(i < self.len);
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Sets bit `i` when `on`, without a branch: a relax loop whose
    /// outcome is data-dependent marks through this instead of
    /// `if on { set(i) }`.
    #[inline]
    pub fn set_if(&mut self, i: u32, on: bool) {
        debug_assert!(i < self.len);
        self.words[(i / 64) as usize] |= (on as u64) << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: u32) {
        debug_assert!(i < self.len);
        self.words[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Zeroes everything.
    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Sets every bit — a word fill rather than `len` single-bit writes.
    /// The tail word is masked so no position past `len` is ever set;
    /// iteration and popcount invariants rely on that.
    pub fn set_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = u64::MAX);
        let tail = self.len % 64;
        if tail != 0 {
            *self.words.last_mut().unwrap() = (1u64 << tail) - 1;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Read-only view of the backing words (64 positions per word, LSB
    /// first). Exposed for rank/intersection structures layered over
    /// bitsets (see `dirgl_comm::plan::ExtractIndex`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Ascending iterator over set bit positions.
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi as u32 * 64;
            BitIter { word: w, base }
        })
    }

    /// Ascending iterator over set positions within `range` (clamped to
    /// the bitset's capacity). Touches only the words overlapping the
    /// range.
    pub fn iter_set_in_range(&self, range: std::ops::Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let lo = range.start.min(self.len);
        let hi = range.end.min(self.len);
        let (w0, w1) = if lo >= hi {
            (0, 0)
        } else {
            ((lo / 64) as usize, (hi as usize).div_ceil(64))
        };
        self.words[w0..w1]
            .iter()
            .enumerate()
            .flat_map(move |(k, &w)| {
                let base = (w0 + k) as u32 * 64;
                BitIter {
                    word: mask_word(w, base, lo, hi),
                    base,
                }
            })
    }

    /// True when any bit is set within `range` (clamped to capacity).
    /// Word-level early exit — the cheap guard in front of a range
    /// iteration.
    pub fn any_in_range(&self, range: std::ops::Range<u32>) -> bool {
        let lo = range.start.min(self.len);
        let hi = range.end.min(self.len);
        if lo >= hi {
            return false;
        }
        let (w0, w1) = ((lo / 64) as usize, (hi as usize).div_ceil(64));
        self.words[w0..w1]
            .iter()
            .enumerate()
            .any(|(k, &w)| mask_word(w, (w0 + k) as u32 * 64, lo, hi) != 0)
    }

    /// Size on the wire: the bitset header UO messages carry.
    pub fn wire_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// The low-`lanes` live mask shared by every K-lane structure
/// (`lanes == 64` must not overflow the shift).
#[inline]
pub fn live_mask(lanes: u32) -> u64 {
    debug_assert!((1..=64).contains(&lanes));
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Masks `word` (whose bit 0 is position `base`) down to the positions in
/// `[lo, hi)`.
#[inline]
fn mask_word(word: u64, base: u32, lo: u32, hi: u32) -> u64 {
    let mut w = word;
    if lo > base {
        w &= !0u64 << (lo - base);
    }
    if hi < base + 64 {
        w &= (1u64 << (hi - base)) - 1;
    }
    w
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = DenseBitset::new(130);
        assert!(b.is_empty());
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
        b.clear_all();
        assert!(b.is_empty());
    }

    #[test]
    fn set_if_sets_only_when_on() {
        let len = 130;
        for i in [0, 63, 64, len - 1] {
            for prior in [false, true] {
                for on in [false, true] {
                    // Neighbours set in the same words must stay as they are.
                    let mut b = DenseBitset::new(len);
                    for j in [1, 62, 65, 128] {
                        b.set(j);
                    }
                    if prior {
                        b.set(i);
                    }
                    let mut want = b.clone();
                    if on {
                        want.set(i);
                    }
                    b.set_if(i, on);
                    assert_eq!(b, want, "bit {i}, set before {prior}, on {on}");
                }
            }
        }
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut b = DenseBitset::new(200);
        let set = [0u32, 5, 63, 64, 65, 127, 128, 199];
        for &i in &set {
            b.set(i);
        }
        let got: Vec<u32> = b.iter_set().collect();
        assert_eq!(got, set);
    }

    #[test]
    fn set_all_fills_exactly_len_bits() {
        for len in [0u32, 1, 63, 64, 65, 130] {
            let mut b = DenseBitset::new(len);
            b.set_all();
            assert_eq!(b.count_ones(), len, "len {len}");
            let got: Vec<u32> = b.iter_set().collect();
            let want: Vec<u32> = (0..len).collect();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn wire_bytes_rounds_up_to_words() {
        assert_eq!(DenseBitset::new(1).wire_bytes(), 8);
        assert_eq!(DenseBitset::new(64).wire_bytes(), 8);
        assert_eq!(DenseBitset::new(65).wire_bytes(), 16);
    }

    #[test]
    fn range_iteration_masks_both_endpoints() {
        let mut b = DenseBitset::new(200);
        for i in [0u32, 5, 63, 64, 65, 100, 127, 128, 199] {
            b.set(i);
        }
        let in_range: Vec<u32> = b.iter_set_in_range(5..128).collect();
        assert_eq!(in_range, [5, 63, 64, 65, 100, 127]);
        // Sub-word range.
        assert_eq!(b.iter_set_in_range(64..66).collect::<Vec<u32>>(), [64, 65]);
        // Empty and inverted ranges.
        assert_eq!(b.iter_set_in_range(6..6).count(), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 10..5;
        assert_eq!(b.iter_set_in_range(inverted).count(), 0);
        // Range clamped to capacity.
        assert_eq!(b.iter_set_in_range(190..999).collect::<Vec<u32>>(), [199]);
    }

    #[test]
    fn any_in_range_agrees_with_iteration() {
        let mut b = DenseBitset::new(200);
        b.set(70);
        b.set(199);
        for lo in 0..20u32 {
            for hi in 0..210u32 {
                assert_eq!(
                    b.any_in_range(lo * 10..hi),
                    b.iter_set_in_range(lo * 10..hi).next().is_some()
                );
            }
        }
    }

    #[test]
    fn live_mask_covers_full_range() {
        assert_eq!(live_mask(1), 1);
        assert_eq!(live_mask(3), 0b111);
        assert_eq!(live_mask(64), u64::MAX);
    }

    #[test]
    fn zero_length_bitset() {
        let b = DenseBitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.iter_set().count(), 0);
        assert_eq!(b.wire_bytes(), 0);
    }
}
