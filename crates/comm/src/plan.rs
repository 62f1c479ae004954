//! The synchronization planner.
//!
//! A reduce (mirror→master) followed by a broadcast (master→mirror) always
//! suffices (§III-D1), but most of it can be elided: a mirror only needs to
//! be **reduced** if the program can have written it, and only needs the
//! **broadcast** if the program will read it. Where writes and reads happen
//! is a property of the operator (push programs read the edge source and
//! write the edge destination), and whether a given mirror has local
//! out-/in-edges is a property of the partition. Filtering the exchange
//! links by those two facts reproduces every optimization in the paper
//! without special cases:
//!
//! * **OEC** (+ push): mirrors never have out-edges → every broadcast list
//!   is empty → broadcast skipped;
//! * **IEC** (+ push): mirrors never have in-edges → reduce skipped;
//! * **CVC**: mirrors with in-edges share the master's grid column and
//!   mirrors with out-edges its grid row → reduce/broadcast partner sets
//!   collapse from all-to-all to one grid column/row.
//!
//! The plan also lists, per device and direction, the partners left after
//! that filtering ([`SyncPlan::reduce_to`], [`SyncPlan::bcast_to`]), so a
//! round walks its real partners and never probes the other devices.

use dirgl_partition::Partition;

use crate::bitset::DenseBitset;

/// Per-link inverse index: local vertex → link entry, plus the participant
/// membership, so Updated-Only extraction can iterate `updated ∧ members`
/// and touch only updated entries instead of probing every link entry
/// bit-by-bit.
///
/// The index exists only when the link's side array is strictly ascending
/// in local ids (which the partition builder guarantees — masters and
/// mirrors are laid out in ascending global-id order on both sides). Then
/// the entry index of a local vertex is its *rank* among the link's local
/// ids, recoverable from per-word prefix popcounts without storing a
/// `local vertex → entry` vector. Hand-built links that violate the
/// ordering get no index ([`ExtractIndex::build`] returns `None`) and fall
/// back to the dense walk.
///
/// Only the *span* is stored: the words of the device's bitsets from the
/// first to the last word holding a participant. Extraction walks those
/// words and no others, so a link whose mirrors sit in a few words of a
/// large device costs a few words, not the device.
#[derive(Clone, Debug)]
pub struct ExtractIndex {
    /// Capacity in bits of the bitsets the index is walked against (the
    /// device's local vertex count).
    local_len: u32,
    /// Word of the device's bitsets where the span starts.
    first: u32,
    /// One record per word of the span, in order.
    span: Vec<SpanWord>,
}

/// One word of an [`ExtractIndex`]'s span, kept together so a hit loads
/// everything it needs from one place.
#[derive(Clone, Copy, Debug, Default)]
struct SpanWord {
    /// Local vertices of this word that participate in this direction's
    /// exchange (the filtered entry subset).
    members: u64,
    /// Local vertices of this word appearing anywhere on the link's side.
    all: u64,
    /// Number of link entries whose local id lies below this word.
    rank: u32,
}

impl ExtractIndex {
    /// Builds the index for one link direction, or `None` when `side` is
    /// not strictly ascending (fallback to the dense walk). `entries`
    /// ascend, as the plan's participant lists do.
    pub fn build(local_len: u32, side: &[u32], entries: &[u32]) -> Option<ExtractIndex> {
        if entries.is_empty() || side.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        debug_assert!(side.last().is_some_and(|&lv| lv < local_len));
        debug_assert!(entries.windows(2).all(|w| w[0] < w[1]));
        let word_of = |e: u32| side[e as usize] / 64;
        let (first, last) = (word_of(entries[0]), word_of(entries[entries.len() - 1]));
        let mut span = vec![SpanWord::default(); (last - first + 1) as usize];
        for &e in entries {
            let lv = side[e as usize];
            span[(lv / 64 - first) as usize].members |= 1u64 << (lv % 64);
        }
        let below = side.partition_point(|&lv| lv / 64 < first);
        for &lv in side[below..].iter().take_while(|&&lv| lv / 64 <= last) {
            span[(lv / 64 - first) as usize].all |= 1u64 << (lv % 64);
        }
        let mut rank = below as u32;
        for w in &mut span {
            w.rank = rank;
            rank += w.all.count_ones();
        }
        Some(ExtractIndex {
            local_len,
            first,
            span,
        })
    }

    /// Word-batched extraction: calls `f(lv, entry)` for every local
    /// vertex set in both `frontier` and the participant membership, in
    /// ascending order. Only the span's words of `frontier` are read, and
    /// a word's rank and link membership are loaded once per 64 positions
    /// instead of once per hit.
    pub fn for_each_entry(&self, frontier: &DenseBitset, mut f: impl FnMut(u32, u32)) {
        assert_eq!(frontier.len(), self.local_len);
        let first = self.first as usize;
        let words = &frontier.words()[first..first + self.span.len()];
        for (wi, (&fw, w)) in (first as u32..).zip(words.iter().zip(&self.span)) {
            let mut hits = fw & w.members;
            while hits != 0 {
                let bit = hits.trailing_zeros();
                hits &= hits - 1;
                let entry = w.rank + (w.all & ((1u64 << bit) - 1)).count_ones();
                f(wi * 64 + bit, entry);
            }
        }
    }
}

/// One sync message a device sends (or receives) every round in one
/// direction: the device at the other end of the link, where the link's
/// participant set lives in the plan, and how many entries it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partner {
    /// The device at the other end.
    pub other: u32,
    /// Index of the link's `(holder, owner)` pair, for
    /// [`SyncPlan::reduce_at`] / [`SyncPlan::bcast_at`].
    pub pair: u32,
    /// Number of participating entries (never zero: a pair with no entry in
    /// a direction exchanges no message in it).
    pub entries: u32,
}

/// Precomputed participant sets for one (program, partition) pairing.
/// [`SyncPlan::build`] is the only constructor.
#[derive(Clone, Debug)]
pub struct SyncPlan {
    num_devices: u32,
    /// For pair `(holder, owner)` at `holder * P + owner`: indices into the
    /// pair's link entries whose mirror may be written — the reduce set.
    reduce_entries: Vec<Vec<u32>>,
    /// Same indexing: entries whose mirror is read — the broadcast set.
    bcast_entries: Vec<Vec<u32>>,
    /// Inverse indexes over the *holder's* local ids for each reduce set
    /// (mirror side extracts). `None` where the pair is empty or unsorted.
    reduce_index: Vec<Option<ExtractIndex>>,
    /// Inverse indexes over the *owner's* local ids for each broadcast set
    /// (master side extracts).
    bcast_index: Vec<Option<ExtractIndex>>,
    /// Per device, ascending by partner: the owners it sends a reduce
    /// message to, as a mirror holder.
    reduce_to: Vec<Vec<Partner>>,
    /// Per device, ascending: the holders it receives a reduce message from.
    reduce_from: Vec<Vec<Partner>>,
    /// Per device, ascending: the holders it sends a broadcast message to,
    /// as a master owner.
    bcast_to: Vec<Vec<Partner>>,
    /// Per device, ascending: the owners it receives a broadcast message
    /// from.
    bcast_from: Vec<Vec<Partner>>,
}

impl SyncPlan {
    /// Builds the plan for a program that reads at the edge source iff
    /// `read_at_src` and writes at the edge destination iff `write_at_dst`.
    /// (All five paper benchmarks read at source and write at destination,
    /// in both their push and pull formulations.)
    pub fn build(part: &Partition, read_at_src: bool, write_at_dst: bool) -> SyncPlan {
        let p = part.num_devices;
        let mut reduce_entries = Vec::with_capacity((p * p) as usize);
        let mut bcast_entries = Vec::with_capacity((p * p) as usize);
        let mut reduce_index = Vec::with_capacity((p * p) as usize);
        let mut bcast_index = Vec::with_capacity((p * p) as usize);
        let lists = || vec![Vec::new(); p as usize];
        let (mut reduce_to, mut reduce_from) = (lists(), lists());
        let (mut bcast_to, mut bcast_from) = (lists(), lists());
        for holder in 0..p {
            for owner in 0..p {
                let link = part.link(holder, owner);
                if holder == owner || link.is_empty() {
                    reduce_entries.push(Vec::new());
                    bcast_entries.push(Vec::new());
                    reduce_index.push(None);
                    bcast_index.push(None);
                    continue;
                }
                let red = link.written_entries(write_at_dst);
                let bc = link.read_entries(read_at_src);
                reduce_index.push(ExtractIndex::build(
                    part.locals[holder as usize].num_vertices(),
                    &link.mirror_side,
                    &red,
                ));
                bcast_index.push(ExtractIndex::build(
                    part.locals[owner as usize].num_vertices(),
                    &link.master_side,
                    &bc,
                ));
                // The partner lists come out ascending because the pairs
                // are visited holder-major, owner-minor: a holder's lists
                // grow while `owner` climbs, an owner's while `holder` does.
                let at = |other: u32, entries: &[u32]| Partner {
                    other,
                    pair: holder * p + owner,
                    entries: entries.len() as u32,
                };
                if !red.is_empty() {
                    reduce_to[holder as usize].push(at(owner, &red));
                    reduce_from[owner as usize].push(at(holder, &red));
                }
                if !bc.is_empty() {
                    bcast_to[owner as usize].push(at(holder, &bc));
                    bcast_from[holder as usize].push(at(owner, &bc));
                }
                reduce_entries.push(red);
                bcast_entries.push(bc);
            }
        }
        SyncPlan {
            num_devices: p,
            reduce_entries,
            bcast_entries,
            reduce_index,
            bcast_index,
            reduce_to,
            reduce_from,
            bcast_to,
            bcast_from,
        }
    }

    /// Reduce participant entries for `(holder, owner)`.
    #[inline]
    pub fn reduce(&self, holder: u32, owner: u32) -> &[u32] {
        &self.reduce_entries[(holder * self.num_devices + owner) as usize]
    }

    /// Broadcast participant entries for `(holder, owner)`.
    #[inline]
    pub fn bcast(&self, holder: u32, owner: u32) -> &[u32] {
        &self.bcast_entries[(holder * self.num_devices + owner) as usize]
    }

    /// The reduce messages `dev` sends each round, ascending by receiver.
    #[inline]
    pub fn reduce_to(&self, dev: u32) -> &[Partner] {
        &self.reduce_to[dev as usize]
    }

    /// The broadcast messages `dev` sends each round, ascending by receiver.
    #[inline]
    pub fn bcast_to(&self, dev: u32) -> &[Partner] {
        &self.bcast_to[dev as usize]
    }

    /// Reduce participant entries of the pair at [`Partner::pair`], and
    /// their inverse index over the holder's local ids: `None` (dense-walk
    /// fallback) for unsorted hand-built links.
    #[inline]
    pub fn reduce_at(&self, pair: u32) -> (&[u32], Option<&ExtractIndex>) {
        let pair = pair as usize;
        (&self.reduce_entries[pair], self.reduce_index[pair].as_ref())
    }

    /// Broadcast participant entries of the pair at [`Partner::pair`], and
    /// their inverse index over the owner's local ids.
    #[inline]
    pub fn bcast_at(&self, pair: u32) -> (&[u32], Option<&ExtractIndex>) {
        let pair = pair as usize;
        (&self.bcast_entries[pair], self.bcast_index[pair].as_ref())
    }

    /// The four partner lists of `dev`: what it sends and what it receives,
    /// in both directions.
    fn partner_lists(&self, dev: u32) -> [&[Partner]; 4] {
        let dev = dev as usize;
        [
            &self.reduce_to[dev],
            &self.reduce_from[dev],
            &self.bcast_to[dev],
            &self.bcast_from[dev],
        ]
    }

    /// Total shared proxies the plan can ever move (both directions), for
    /// communication-buffer memory accounting on each device: every entry
    /// `dev` sends or receives, as mirror holder and as master owner.
    pub fn buffer_entries_for_device(&self, dev: u32) -> u64 {
        self.partner_lists(dev)
            .iter()
            .flat_map(|l| l.iter())
            .map(|pn| pn.entries as u64)
            .sum()
    }

    /// True when no reduce message exists anywhere (e.g. IEC + push).
    pub fn reduce_is_elided(&self) -> bool {
        self.reduce_to.iter().all(|l| l.is_empty())
    }

    /// True when no broadcast message exists anywhere (e.g. OEC + push).
    pub fn bcast_is_elided(&self) -> bool {
        self.bcast_to.iter().all(|l| l.is_empty())
    }

    /// Distinct devices this device exchanges at least one message with.
    pub fn partner_count(&self, dev: u32) -> u32 {
        let mut others: Vec<u32> = self
            .partner_lists(dev)
            .iter()
            .flat_map(|l| l.iter())
            .map(|pn| pn.other)
            .collect();
        others.sort_unstable();
        others.dedup();
        others.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_graph::RmatConfig;
    use dirgl_partition::Policy;
    use proptest::prelude::*;

    fn graph() -> dirgl_graph::Csr {
        RmatConfig::new(10, 8).seed(11).generate()
    }

    #[test]
    fn oec_elides_broadcast_for_push() {
        let part = Partition::build(&graph(), Policy::Oec, 8, 0);
        let plan = SyncPlan::build(&part, true, true);
        assert!(plan.bcast_is_elided());
        assert!(!plan.reduce_is_elided());
    }

    #[test]
    fn iec_elides_reduce_for_push() {
        let part = Partition::build(&graph(), Policy::Iec, 8, 0);
        let plan = SyncPlan::build(&part, true, true);
        assert!(plan.reduce_is_elided());
        assert!(!plan.bcast_is_elided());
    }

    #[test]
    fn hvc_needs_both_directions() {
        let part = Partition::build(&graph(), Policy::Hvc, 8, 0);
        let plan = SyncPlan::build(&part, true, true);
        assert!(!plan.reduce_is_elided());
        assert!(!plan.bcast_is_elided());
    }

    #[test]
    fn cvc_partners_are_fewer_than_all_to_all() {
        let g = graph();
        let cvc = Partition::build(&g, Policy::Cvc, 16, 0);
        let hvc = Partition::build(&g, Policy::Hvc, 16, 0);
        let plan_cvc = SyncPlan::build(&cvc, true, true);
        let plan_hvc = SyncPlan::build(&hvc, true, true);
        // On a 4x4 grid each device talks to its row + column: <= 6 partners
        // versus up to 15 under an unstructured vertex cut.
        let max_cvc = (0..16).map(|d| plan_cvc.partner_count(d)).max().unwrap();
        let max_hvc = (0..16).map(|d| plan_hvc.partner_count(d)).max().unwrap();
        assert!(max_cvc <= 6, "cvc partners {max_cvc}");
        assert!(max_hvc > 10, "hvc partners {max_hvc}");
    }

    #[test]
    fn reduce_and_bcast_reference_valid_entries() {
        let part = Partition::build(&graph(), Policy::Cvc, 8, 0);
        let plan = SyncPlan::build(&part, true, true);
        for holder in 0..8 {
            for owner in 0..8 {
                let link = part.link(holder, owner);
                for &e in plan.reduce(holder, owner) {
                    assert!((e as usize) < link.len());
                    assert!(link.mirror_has_in[e as usize]);
                }
                for &e in plan.bcast(holder, owner) {
                    assert!((e as usize) < link.len());
                    assert!(link.mirror_has_out[e as usize]);
                }
            }
        }
    }

    /// What `for_each_entry` visits for `frontier`: every participant
    /// whose local id is set, as `(local id, entry)`, in ascending order.
    fn visits(idx: &ExtractIndex, frontier: &DenseBitset) -> Vec<(u32, u32)> {
        let mut got = Vec::new();
        idx.for_each_entry(frontier, |lv, e| got.push((lv, e)));
        got
    }

    #[test]
    fn for_each_entry_equals_the_dense_walk() {
        // For every indexed link direction, on a full frontier and on a
        // scattered one, the index visits exactly what the dense walk over
        // the participant entries picks, in the same order; and its span
        // starts and ends on a word holding a participant.
        let mut checked = 0;
        for policy in [Policy::Hvc, Policy::Cvc] {
            let part = Partition::build(&graph(), policy, 8, 0);
            let plan = SyncPlan::build(&part, true, true);
            for holder in 0..8 {
                for owner in 0..8 {
                    let link = part.link(holder, owner);
                    let pair = holder * 8 + owner;
                    let dirs = [
                        (plan.reduce_at(pair), &link.mirror_side, holder),
                        (plan.bcast_at(pair), &link.master_side, owner),
                    ];
                    for ((entries, idx), side, dev) in dirs {
                        let Some(idx) = idx else { continue };
                        let ends = [idx.span.first().unwrap(), idx.span.last().unwrap()];
                        assert!(ends.iter().all(|w| w.members != 0), "span is not tight");
                        let len = part.locals[dev as usize].num_vertices();
                        let mut full = DenseBitset::new(len);
                        full.set_all();
                        let mut scattered = DenseBitset::new(len);
                        for lv in (0..len).filter(|lv| lv % 3 != 1 || lv % 17 == 0) {
                            scattered.set(lv);
                        }
                        for frontier in [full, scattered] {
                            let want: Vec<(u32, u32)> = entries
                                .iter()
                                .map(|&e| (side[e as usize], e))
                                .filter(|&(lv, _)| frontier.get(lv))
                                .collect();
                            assert_eq!(visits(idx, &frontier), want);
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "builder links must be ascending");
    }

    #[test]
    fn extract_index_rejects_unsorted_sides() {
        assert!(ExtractIndex::build(10, &[3, 1, 5], &[0, 1]).is_none());
        assert!(ExtractIndex::build(10, &[3, 3, 5], &[0]).is_none());
        assert!(ExtractIndex::build(10, &[1, 3, 5], &[]).is_none());
        let idx = ExtractIndex::build(10, &[1, 3, 5], &[0, 2]).unwrap();
        let mut all = DenseBitset::new(10);
        all.set_all();
        assert_eq!(visits(&idx, &all), [(1, 0), (5, 2)]);
    }

    #[test]
    fn span_covers_only_the_participants_words() {
        // Link entries below, inside and above the participants' word; the
        // span is that one word, and its rank counts the two entries below.
        let side = [2, 70, 130, 140, 200, 290];
        let idx = ExtractIndex::build(300, &side, &[2, 3]).unwrap();
        assert_eq!((idx.first, idx.span.len()), (2, 1));
        let mut all = DenseBitset::new(300);
        all.set_all();
        assert_eq!(visits(&idx, &all), [(130, 2), (140, 3)]);
        // Only marked participants are visited, whatever else is marked.
        let mut outside = DenseBitset::new(300);
        for lv in side {
            outside.set(lv);
        }
        outside.clear(130);
        assert_eq!(visits(&idx, &outside), [(140, 3)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The partner lists are the brute-force scan of the other devices
        /// for a non-empty participant set, in content and in order.
        #[test]
        fn partner_lists_equal_the_full_scan(
            seed in 0u64..1_000,
            scale in 7u32..10,
            policy in prop::sample::select(vec![Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc]),
            devices in prop::sample::select(vec![4u32, 9, 16]),
        ) {
            let g = RmatConfig::new(scale, 8).seed(seed).generate();
            let part = Partition::build(&g, policy, devices, seed);
            let plan = SyncPlan::build(&part, true, true);
            let scan = |other_of: &dyn Fn(u32) -> (u32, u32), entries: &dyn Fn(u32, u32) -> usize| {
                (0..devices)
                    .map(|o| (o, other_of(o)))
                    .filter(|&(_, (h, w))| entries(h, w) > 0)
                    .map(|(o, (h, w))| Partner {
                        other: o,
                        pair: h * devices + w,
                        entries: entries(h, w) as u32,
                    })
                    .collect::<Vec<_>>()
            };
            let red = |h, o| plan.reduce(h, o).len();
            let bc = |h, o| plan.bcast(h, o).len();
            for d in 0..devices {
                // `d` sends reduce as holder and broadcast as owner, and
                // receives them the other way round.
                prop_assert_eq!(plan.reduce_to(d), scan(&|o| (d, o), &red));
                prop_assert_eq!(plan.bcast_to(d), scan(&|o| (o, d), &bc));
                prop_assert_eq!(&plan.reduce_from[d as usize], &scan(&|o| (o, d), &red));
                prop_assert_eq!(&plan.bcast_from[d as usize], &scan(&|o| (d, o), &bc));
                for pn in plan.reduce_to(d) {
                    prop_assert_eq!(plan.reduce_at(pn.pair).0, plan.reduce(d, pn.other));
                }
                for pn in plan.bcast_to(d) {
                    prop_assert_eq!(plan.bcast_at(pn.pair).0, plan.bcast(pn.other, d));
                }
            }
        }
    }

    #[test]
    fn accounting_equals_the_full_scan() {
        // What the lists replaced: a probe of every other device.
        for policy in [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc] {
            let part = Partition::build(&graph(), policy, 9, 0);
            let plan = SyncPlan::build(&part, true, true);
            for d in 0..9 {
                let sets = |o: u32| {
                    [
                        plan.reduce(d, o).len(),
                        plan.bcast(d, o).len(),
                        plan.reduce(o, d).len(),
                        plan.bcast(o, d).len(),
                    ]
                };
                let entries: usize = (0..9).flat_map(sets).sum();
                let partners = (0..9).filter(|&o| sets(o).iter().any(|&n| n > 0)).count();
                assert_eq!(plan.buffer_entries_for_device(d), entries as u64);
                assert_eq!(plan.partner_count(d), partners as u32);
            }
        }
    }

    #[test]
    fn buffer_accounting_is_symmetric_in_total() {
        let part = Partition::build(&graph(), Policy::Cvc, 4, 0);
        let plan = SyncPlan::build(&part, true, true);
        let total: u64 = (0..4).map(|d| plan.buffer_entries_for_device(d)).sum();
        // Every entry is counted once on the holder side and once on the
        // owner side.
        let mut expect = 0u64;
        for h in 0..4 {
            for o in 0..4 {
                expect += 2 * (plan.reduce(h, o).len() + plan.bcast(h, o).len()) as u64;
            }
        }
        assert_eq!(total, expect);
    }
}
