//! Cache-conscious per-device kernel layouts.
//!
//! The compute hot loops walk a device's local CSR in whatever vertex
//! order the partitioner produced (masters then mirrors, each ascending
//! by global id). On power-law inputs that order scatters the handful of
//! huge-degree hubs across the id range, so the edge array is traversed
//! with poor locality. A [`LocalLayout`] renames local vertices — within
//! the master range and within the mirror range, never across — so the
//! hot rows pack together:
//!
//! * [`LayoutKind::DegreeSorted`] orders each range by descending total
//!   degree (out + in), the classic GPU frontier layout;
//! * [`LayoutKind::Segmented`] buckets each range by degree class
//!   (⌈log2⌉) and keeps the original order within a class — a segmented
//!   CSR that groups similar-length rows for the load balancer without
//!   fully shuffling the id space.
//!
//! Which kind a device gets is decided by the skew heuristic
//! ([`LocalLayout::select`]): max-degree over mean-degree of the local
//! degree distribution. Near-regular devices keep insertion order (the
//! permutation would churn the caches for nothing), moderately skewed
//! devices get the segmented layout, heavy-tailed devices the full
//! degree sort.
//!
//! **Determinism contract.** A permuted run visits edges in a different
//! order, so only programs whose accumulator is exact and
//! order-independent (integer min/or — bfs, sssp, cc, kcore; see
//! [`VertexProgram::permutation_safe`]) may run permuted under
//! [`LayoutChoice::Auto`]; they produce bit-identical values to the
//! insertion layout. Float-summing programs (pagerank, bc) are left on
//! insertion order by `Auto`; forcing a layout on them
//! ([`LayoutChoice::Force`]) keeps every run of that fixed configuration
//! deterministic but moves values within float-reassociation tolerance.
//! Reports (simulated times) are not pinned across layouts: the load
//! balancer sees a different degree sequence.

use dirgl_comm::SyncPlan;
use dirgl_graph::VertexId;
use dirgl_partition::{LocalGraph, PairLink, Partition};

use crate::program::VertexProgram;

/// A concrete edge ordering for one device-local graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// The partitioner's order (no permutation).
    Insertion,
    /// Descending total degree within the master and mirror ranges.
    DegreeSorted,
    /// Degree-class buckets (descending class, stable within a class).
    Segmented,
}

impl LayoutKind {
    /// Every kind, in heuristic-escalation order.
    pub const ALL: [LayoutKind; 3] = [
        LayoutKind::Insertion,
        LayoutKind::DegreeSorted,
        LayoutKind::Segmented,
    ];

    /// Snake-case display name (stable; used in benchmark output).
    pub fn name(self) -> &'static str {
        match self {
            LayoutKind::Insertion => "insertion",
            LayoutKind::DegreeSorted => "degree_sorted",
            LayoutKind::Segmented => "segmented",
        }
    }
}

/// How [`crate::Runtime::prepare`] selects per-device layouts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LayoutChoice {
    /// No layout work at all (the default — prepared handles carry no
    /// permuted state and every program runs on insertion order).
    #[default]
    Insertion,
    /// Per-device skew heuristic; only permutation-safe programs run
    /// permuted, everything else stays on insertion order.
    Auto,
    /// Force one kind on every device and every program (float programs
    /// included — fixed-config runs stay deterministic, values move
    /// within reassociation tolerance).
    Force(LayoutKind),
}

/// Skew at or above which [`LocalLayout::select`] escalates from
/// insertion order to the segmented layout.
pub const AUTO_SEGMENTED_SKEW: f64 = 8.0;
/// Skew at or above which the full degree sort replaces the segmented
/// layout.
pub const AUTO_DEGREE_SORTED_SKEW: f64 = 64.0;

/// One device's selected layout: the kind, the skew that chose it, and
/// the old↔new local-id permutation (identity for
/// [`LayoutKind::Insertion`]).
#[derive(Clone, Debug)]
pub struct LocalLayout {
    /// The ordering in force.
    pub kind: LayoutKind,
    /// Max-degree / mean-degree of the device's total-degree
    /// distribution.
    pub skew: f64,
    /// `old_of_new[new] = old` local id.
    pub old_of_new: Box<[VertexId]>,
    /// `new_of_old[old] = new` local id (inverse of `old_of_new`).
    pub new_of_old: Box<[VertexId]>,
}

impl LocalLayout {
    /// Selects and builds the layout for one device under `choice`.
    pub fn select(lg: &LocalGraph, choice: LayoutChoice) -> LocalLayout {
        let degrees = total_degrees(lg);
        let skew = skew_of(&degrees);
        let kind = match choice {
            LayoutChoice::Insertion => LayoutKind::Insertion,
            LayoutChoice::Force(k) => k,
            LayoutChoice::Auto => {
                if skew >= AUTO_DEGREE_SORTED_SKEW {
                    LayoutKind::DegreeSorted
                } else if skew >= AUTO_SEGMENTED_SKEW {
                    LayoutKind::Segmented
                } else {
                    LayoutKind::Insertion
                }
            }
        };
        Self::build(lg, kind, skew, &degrees)
    }

    fn build(lg: &LocalGraph, kind: LayoutKind, skew: f64, degrees: &[u64]) -> LocalLayout {
        let n = lg.num_vertices() as usize;
        let masters = lg.num_masters as usize;
        let mut old_of_new: Vec<VertexId> = (0..n as u32).collect();
        // Permute within the master range and within the mirror range
        // only: local id < num_masters is a structural invariant every
        // sync path relies on. Ties break on ascending old id, so the
        // permutation is deterministic and `Insertion` stays the exact
        // identity.
        let key = |lv: &VertexId| -> (std::cmp::Reverse<u64>, VertexId) {
            let d = degrees[*lv as usize];
            let k = match kind {
                LayoutKind::Insertion => 0,
                LayoutKind::DegreeSorted => d,
                LayoutKind::Segmented => 64 - d.leading_zeros() as u64,
            };
            (std::cmp::Reverse(k), *lv)
        };
        old_of_new[..masters].sort_by_key(key);
        old_of_new[masters..].sort_by_key(key);
        let mut new_of_old = vec![0 as VertexId; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as VertexId;
        }
        LocalLayout {
            kind,
            skew,
            old_of_new: old_of_new.into_boxed_slice(),
            new_of_old: new_of_old.into_boxed_slice(),
        }
    }

    /// True when the permutation maps every id to itself.
    pub fn is_identity(&self) -> bool {
        self.old_of_new
            .iter()
            .enumerate()
            .all(|(i, &v)| i as u32 == v)
    }
}

/// Total degree (out + in) of every local vertex — the sort key and the
/// skew statistic. Using the sum keeps one permutation consistent for
/// both traversal directions.
fn total_degrees(lg: &LocalGraph) -> Vec<u64> {
    (0..lg.num_vertices())
        .map(|lv| lg.csr.out_degree(lv) as u64 + lg.in_csr.out_degree(lv) as u64)
        .collect()
}

fn skew_of(degrees: &[u64]) -> f64 {
    let total: u64 = degrees.iter().sum();
    if degrees.is_empty() || total == 0 {
        return 1.0;
    }
    let max = *degrees.iter().max().unwrap();
    max as f64 * degrees.len() as f64 / total as f64
}

/// The cached product of layout selection over a whole partition: the
/// per-device layouts, the permuted partition, and its sync plan.
/// Built once at [`crate::Runtime::prepare`] time (see
/// [`crate::PreparedPartition`]); jobs pick the permuted view or the
/// original per program via [`LayoutPlan::applies_to`].
#[derive(Clone, Debug)]
pub struct LayoutPlan {
    /// Per-device selections, indexed by device.
    pub layouts: Vec<LocalLayout>,
    /// Whether the plan came from [`LayoutChoice::Force`] (applies to
    /// every program) or [`LayoutChoice::Auto`] (permutation-safe
    /// programs only).
    pub forced: bool,
    /// The partition with every device's local graph renamed.
    pub part: Partition,
    /// Sync plan rebuilt over the permuted partition (entry indexes are
    /// link-relative, so they must be regenerated).
    pub plan: SyncPlan,
}

impl LayoutPlan {
    /// Selects layouts for every device and materializes the permuted
    /// partition. Returns `None` when nothing would change —
    /// [`LayoutChoice::Insertion`], or `Auto` on a partition where every
    /// device is below the skew thresholds — so the caller can keep the
    /// layout-free fast path.
    pub fn build(part: &Partition, choice: LayoutChoice) -> Option<LayoutPlan> {
        if choice == LayoutChoice::Insertion {
            return None;
        }
        let layouts: Vec<LocalLayout> = part
            .locals
            .iter()
            .map(|lg| LocalLayout::select(lg, choice))
            .collect();
        if layouts.iter().all(|l| l.is_identity()) {
            return None;
        }
        let permuted = permute_partition(part, &layouts);
        let plan = SyncPlan::build(&permuted, true, true);
        Some(LayoutPlan {
            layouts,
            forced: matches!(choice, LayoutChoice::Force(_)),
            part: permuted,
            plan,
        })
    }

    /// True when `program` should run on the permuted view: always under
    /// a forced choice, only for order-independent accumulators under
    /// `Auto`.
    pub fn applies_to<P: VertexProgram>(&self, program: &P) -> bool {
        self.forced || program.permutation_safe()
    }
}

/// Renames every device's local graph per `layouts` and renames the
/// exchange links through the same permutations: entry `i` of an old link
/// pairs an old mirror id on the holder with an old master id on the
/// owner, and each side's `new_of_old` gives the new id, so no global id
/// is looked up. Mirrors keep their holder and owner, so the link *entry
/// sets* are unchanged as sets; walking a holder's mirrors in ascending new
/// local id restores the strictly ascending mirror side the
/// [`dirgl_comm::ExtractIndex`] fast path requires.
pub fn permute_partition(part: &Partition, layouts: &[LocalLayout]) -> Partition {
    assert_eq!(layouts.len(), part.locals.len());
    let locals: Vec<LocalGraph> = part
        .locals
        .iter()
        .zip(layouts)
        .map(|(lg, lay)| permute_local(lg, lay))
        .collect();
    let p = part.num_devices as usize;
    let mut links = vec![PairLink::default(); p * p];
    for (holder, (lg, lay)) in locals.iter().zip(layouts).enumerate() {
        // Which entry of its old link each old mirror is.
        let mut entry_of = vec![0u32; lg.num_mirrors() as usize];
        for owner in 0..part.num_devices {
            let old = part.link(holder as u32, owner);
            for (i, &mirror) in old.mirror_side.iter().enumerate() {
                entry_of[(mirror - lg.num_masters) as usize] = i as u32;
            }
        }
        for lv in lg.num_masters..lg.num_vertices() {
            let owner = lg.master_device[lv as usize];
            let old = part.link(holder as u32, owner);
            let i = entry_of[(lay.old_of_new[lv as usize] - lg.num_masters) as usize] as usize;
            let link = &mut links[holder * p + owner as usize];
            link.mirror_side.push(lv);
            link.master_side
                .push(layouts[owner as usize].new_of_old[old.master_side[i] as usize]);
            link.mirror_has_out.push(lg.has_out_edges(lv));
            link.mirror_has_in.push(lg.has_in_edges(lv));
        }
    }
    Partition::from_parts(
        part.policy,
        part.num_devices,
        part.grid,
        part.num_global_vertices,
        locals,
        links,
    )
    .expect("permuted partition preserves structural invariants")
}

fn permute_local(lg: &LocalGraph, lay: &LocalLayout) -> LocalGraph {
    if lay.is_identity() {
        return lg.clone();
    }
    let n = lg.num_vertices() as usize;
    let l2g: Vec<VertexId> = (0..n).map(|i| lg.l2g[lay.old_of_new[i] as usize]).collect();
    let master_device: Vec<u32> = (0..n)
        .map(|i| lg.master_device[lay.old_of_new[i] as usize])
        .collect();
    let csr = lg.csr.permute(&lay.old_of_new, &lay.new_of_old);
    // The in-CSR is the transpose of the permuted out-CSR (not the
    // permutation of the old in-CSR): per-destination source order
    // follows the new ids, which is exactly what the builder produces
    // for a freshly built local graph.
    let in_csr = csr.transpose();
    LocalGraph {
        device: lg.device,
        num_masters: lg.num_masters,
        l2g: l2g.into_boxed_slice(),
        master_device: master_device.into_boxed_slice(),
        csr,
        in_csr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_graph::RmatConfig;
    use dirgl_partition::Policy;

    fn part() -> Partition {
        let g = RmatConfig::new(9, 8).seed(42).generate();
        Partition::build(&g, Policy::Hvc, 4, 0)
    }

    #[test]
    fn selection_escalates_with_skew() {
        let p = part();
        for lg in &p.locals {
            let lay = LocalLayout::select(lg, LayoutChoice::Auto);
            let expect = if lay.skew >= AUTO_DEGREE_SORTED_SKEW {
                LayoutKind::DegreeSorted
            } else if lay.skew >= AUTO_SEGMENTED_SKEW {
                LayoutKind::Segmented
            } else {
                LayoutKind::Insertion
            };
            assert_eq!(lay.kind, expect);
            assert!(lay.skew >= 1.0);
        }
        // R-MAT is heavy-tailed: at least one device must escalate.
        assert!(p
            .locals
            .iter()
            .any(|lg| LocalLayout::select(lg, LayoutChoice::Auto).kind != LayoutKind::Insertion));
    }

    #[test]
    fn permutation_is_a_range_preserving_bijection() {
        let p = part();
        for lg in &p.locals {
            for kind in [LayoutKind::DegreeSorted, LayoutKind::Segmented] {
                let lay = LocalLayout::select(lg, LayoutChoice::Force(kind));
                let n = lg.num_vertices();
                let mut seen = vec![false; n as usize];
                for (new, &old) in lay.old_of_new.iter().enumerate() {
                    assert!(!seen[old as usize]);
                    seen[old as usize] = true;
                    assert_eq!(lay.new_of_old[old as usize], new as u32);
                    // Masters map to masters, mirrors to mirrors.
                    assert_eq!((new as u32) < lg.num_masters, old < lg.num_masters);
                }
            }
        }
    }

    #[test]
    fn degree_sorted_rows_are_descending() {
        let p = part();
        let lg = &p.locals[0];
        let lay = LocalLayout::select(lg, LayoutChoice::Force(LayoutKind::DegreeSorted));
        let plg = permute_local(lg, &lay);
        let deg =
            |g: &LocalGraph, lv: u32| g.csr.out_degree(lv) as u64 + g.in_csr.out_degree(lv) as u64;
        for range in [0..lg.num_masters, lg.num_masters..lg.num_vertices()] {
            let degs: Vec<u64> = range.map(|lv| deg(&plg, lv)).collect();
            assert!(degs.windows(2).all(|w| w[0] >= w[1]), "not descending");
        }
    }

    #[test]
    fn permuted_partition_preserves_structure() {
        let p = part();
        let lp = LayoutPlan::build(&p, LayoutChoice::Force(LayoutKind::DegreeSorted)).unwrap();
        assert_eq!(lp.part.total_edges(), p.total_edges());
        assert_eq!(lp.part.num_global_vertices, p.num_global_vertices);
        for (lg, plg) in p.locals.iter().zip(&lp.part.locals) {
            assert_eq!(lg.num_masters, plg.num_masters);
            assert_eq!(lg.num_vertices(), plg.num_vertices());
            // Same global vertex set, same master/mirror split.
            let mut a: Vec<u32> = lg.l2g.to_vec();
            let mut b: Vec<u32> = plg.l2g.to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Every link's sides are strictly ascending again, so the
        // ExtractIndex fast path re-engages on the permuted plan.
        for h in 0..4 {
            for o in 0..4 {
                let link = lp.part.link(h, o);
                assert!(link.mirror_side.windows(2).all(|w| w[0] < w[1]));
                // Same global mirror set as the original link.
                let mut a: Vec<u32> = link
                    .mirror_side
                    .iter()
                    .map(|&lv| lp.part.locals[h as usize].l2g[lv as usize])
                    .collect();
                let mut b: Vec<u32> = p
                    .link(h, o)
                    .mirror_side
                    .iter()
                    .map(|&lv| p.locals[h as usize].l2g[lv as usize])
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn permuted_links_pair_equal_global_ids() {
        let g = RmatConfig::new(9, 8).seed(42).generate();
        for policy in [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc] {
            for devices in [4, 9] {
                let p = Partition::build(&g, policy, devices, 0);
                for kind in [LayoutKind::DegreeSorted, LayoutKind::Segmented] {
                    let lp = LayoutPlan::build(&p, LayoutChoice::Force(kind)).unwrap();
                    for h in 0..devices {
                        for o in 0..devices {
                            let (link, old) = (lp.part.link(h, o), p.link(h, o));
                            let (holder, owner) =
                                (&lp.part.locals[h as usize], &lp.part.locals[o as usize]);
                            assert_eq!(link.len(), old.len());
                            for i in 0..link.len() {
                                assert!(owner.is_master(link.master_side[i]));
                                assert_eq!(
                                    holder.l2g[link.mirror_side[i] as usize],
                                    owner.l2g[link.master_side[i] as usize],
                                    "{policy} p={devices} {kind:?} link {h}->{o} entry {i}"
                                );
                            }
                            // The mirror side ascends again. The master
                            // side cannot in general: holder and owner each
                            // order the shared vertices by their own local
                            // degrees. It stays free of repeats.
                            assert!(link.mirror_side.windows(2).all(|w| w[0] < w[1]));
                            let mut masters = link.master_side.clone();
                            masters.sort_unstable();
                            assert!(masters.windows(2).all(|w| w[0] < w[1]));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn insertion_and_calm_auto_build_nothing() {
        let p = part();
        assert!(LayoutPlan::build(&p, LayoutChoice::Insertion).is_none());
        // A regular ring has skew 1 on every device: Auto stays identity.
        let mut el = dirgl_graph::EdgeList::new(64);
        for v in 0..64u32 {
            el.edges.push((v, (v + 1) % 64));
        }
        let ring = Partition::build(&el.into_csr(), Policy::Oec, 2, 0);
        assert!(LayoutPlan::build(&ring, LayoutChoice::Auto).is_none());
    }
}
