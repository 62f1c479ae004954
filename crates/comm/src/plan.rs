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
/// membership bitset, so Updated-Only extraction can iterate
/// `updated ∧ members` and touch only updated entries instead of probing
/// every link entry bit-by-bit.
///
/// The index exists only when the link's side array is strictly ascending
/// in local ids (which the partition builder guarantees — masters and
/// mirrors are laid out in ascending global-id order on both sides). Then
/// the entry index of a local vertex is its *rank* in the full-link
/// membership bitset, recoverable from per-word prefix popcounts without
/// storing a `local vertex → entry` vector. Hand-built links that violate
/// the ordering get no index ([`ExtractIndex::build`] returns `None`) and
/// fall back to the dense walk.
#[derive(Clone, Debug)]
pub struct ExtractIndex {
    /// Local vertices that participate in this direction's exchange (the
    /// filtered entry subset, as a bitset over the device's local ids).
    members: DenseBitset,
    /// Local vertices appearing anywhere on this link's side array.
    all: DenseBitset,
    /// Per-word prefix popcounts of `all`: number of link entries whose
    /// local id is below `64 * w`.
    rank: Vec<u32>,
}

impl ExtractIndex {
    /// Builds the index for one link direction, or `None` when `side` is
    /// not strictly ascending (fallback to the dense walk).
    pub fn build(local_len: u32, side: &[u32], entries: &[u32]) -> Option<ExtractIndex> {
        if entries.is_empty() || side.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let mut all = DenseBitset::new(local_len);
        for &lv in side {
            all.set(lv);
        }
        let mut members = DenseBitset::new(local_len);
        for &e in entries {
            members.set(side[e as usize]);
        }
        let mut rank = Vec::with_capacity(all.words().len());
        let mut acc = 0u32;
        for &w in all.words() {
            rank.push(acc);
            acc += w.count_ones();
        }
        Some(ExtractIndex { members, all, rank })
    }

    /// Participant membership over local vertices.
    #[inline]
    pub fn members(&self) -> &DenseBitset {
        &self.members
    }

    /// Link entry index of participating local vertex `lv` (rank of `lv`
    /// in the full-link membership).
    #[inline]
    pub fn entry_of(&self, lv: u32) -> u32 {
        let w = (lv / 64) as usize;
        let below = self.all.words()[w] & ((1u64 << (lv % 64)) - 1);
        self.rank[w] + below.count_ones()
    }

    /// Word-batched extraction: calls `f(lv, entry)` for every local
    /// vertex set in both `frontier` and the participant membership, in
    /// ascending order. Equivalent to `frontier.intersect_iter(members)`
    /// followed by [`ExtractIndex::entry_of`] per hit, but the per-word
    /// rank and the full-link membership word are loaded once per 64
    /// positions instead of once per hit.
    pub fn for_each_entry(&self, frontier: &DenseBitset, mut f: impl FnMut(u32, u32)) {
        assert_eq!(frontier.len(), self.members.len());
        let all_words = self.all.words();
        for (wi, (&fw, &mw)) in frontier
            .words()
            .iter()
            .zip(self.members.words())
            .enumerate()
        {
            let mut hits = fw & mw;
            if hits == 0 {
                continue;
            }
            let base = wi as u32 * 64;
            let all_word = all_words[wi];
            let rank = self.rank[wi];
            while hits != 0 {
                let bit = hits.trailing_zeros();
                hits &= hits - 1;
                let entry = rank + (all_word & ((1u64 << bit) - 1)).count_ones();
                f(base + bit, entry);
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

    #[test]
    fn extract_index_agrees_with_dense_walk() {
        // For every link direction with an index, iterating
        // `members ∧ full` must visit exactly the participant entries in
        // ascending entry order, and `entry_of` must invert the side
        // array.
        let part = Partition::build(&graph(), Policy::Hvc, 8, 0);
        let plan = SyncPlan::build(&part, true, true);
        let mut indexed_links = 0;
        for holder in 0..8 {
            for owner in 0..8 {
                let link = part.link(holder, owner);
                if let Some(idx) = plan.reduce_at(holder * 8 + owner).1 {
                    indexed_links += 1;
                    let via_index: Vec<u32> = idx
                        .members()
                        .iter_set()
                        .map(|lv| idx.entry_of(lv))
                        .collect();
                    assert_eq!(via_index, plan.reduce(holder, owner));
                    for &e in plan.reduce(holder, owner) {
                        assert_eq!(idx.entry_of(link.mirror_side[e as usize]), e);
                    }
                }
                if let Some(idx) = plan.bcast_at(holder * 8 + owner).1 {
                    let via_index: Vec<u32> = idx
                        .members()
                        .iter_set()
                        .map(|lv| idx.entry_of(lv))
                        .collect();
                    assert_eq!(via_index, plan.bcast(holder, owner));
                    for &e in plan.bcast(holder, owner) {
                        assert_eq!(idx.entry_of(link.master_side[e as usize]), e);
                    }
                }
            }
        }
        assert!(indexed_links > 0, "builder links must be ascending");
    }

    #[test]
    fn for_each_entry_matches_per_bit_extraction() {
        let part = Partition::build(&graph(), Policy::Hvc, 8, 0);
        let plan = SyncPlan::build(&part, true, true);
        let mut checked = 0;
        for holder in 0..8 {
            for owner in 0..8 {
                let Some(idx) = plan.reduce_at(holder * 8 + owner).1 else {
                    continue;
                };
                let len = idx.members().len();
                // A frontier hitting a scattered subset of the members
                // plus positions outside the membership.
                let mut frontier = DenseBitset::new(len);
                for (k, lv) in idx.members().iter_set().enumerate() {
                    if k % 3 != 1 {
                        frontier.set(lv);
                    }
                }
                for lv in (0..len).step_by(17) {
                    frontier.set(lv);
                }
                let want: Vec<(u32, u32)> = frontier
                    .intersect_iter(idx.members())
                    .map(|lv| (lv, idx.entry_of(lv)))
                    .collect();
                let mut got = Vec::new();
                idx.for_each_entry(&frontier, |lv, e| got.push((lv, e)));
                assert_eq!(got, want);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn extract_index_rejects_unsorted_sides() {
        assert!(ExtractIndex::build(10, &[3, 1, 5], &[0, 1]).is_none());
        assert!(ExtractIndex::build(10, &[3, 3, 5], &[0]).is_none());
        assert!(ExtractIndex::build(10, &[1, 3, 5], &[]).is_none());
        let idx = ExtractIndex::build(10, &[1, 3, 5], &[0, 2]).unwrap();
        assert_eq!(idx.entry_of(1), 0);
        assert_eq!(idx.entry_of(3), 1);
        assert_eq!(idx.entry_of(5), 2);
        assert!(idx.members().get(1) && !idx.members().get(3) && idx.members().get(5));
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
