//! Streaming partition construction (CuSP's algorithm, in-memory).

use rayon::prelude::*;

use dirgl_graph::csr::{Csr, CsrBuilder, VertexId};
use dirgl_graph::stream::EdgeSource;

use crate::edges::{default_hvc_threshold, EdgeRule};
use crate::links::PairLink;
use crate::local::LocalGraph;
use crate::masters::{assign_masters, assign_masters_from_degrees, in_degrees};
use crate::policy::{Grid, Policy};

/// A complete partitioning of a graph across `num_devices` devices.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// Policy used.
    pub policy: Policy,
    /// Number of devices.
    pub num_devices: u32,
    /// CVC device grid (present only for [`Policy::Cvc`]).
    pub grid: Option<Grid>,
    /// |V| of the global graph.
    pub num_global_vertices: u32,
    /// Per-device local graphs.
    pub locals: Vec<LocalGraph>,
    /// Exchange links indexed `holder * num_devices + owner`.
    links: Vec<PairLink>,
}

impl Partition {
    /// Partitions `g` with `policy` across `num_devices` devices.
    ///
    /// `seed` feeds the random/BFS-grow master rules; the edge-balanced
    /// policies are fully deterministic.
    pub fn build(g: &Csr, policy: Policy, num_devices: u32, seed: u64) -> Partition {
        assert!(num_devices >= 1);
        let n = g.num_vertices();
        let p = num_devices as usize;
        let ma = assign_masters(g, policy, num_devices, seed);
        let grid = (policy == Policy::Cvc).then(|| Grid::for_devices(num_devices));
        let ind = (policy == Policy::Hvc).then(|| in_degrees(g));
        let avg = if n == 0 {
            0.0
        } else {
            g.num_edges() as f64 / n as f64
        };
        let rule = EdgeRule::new(
            policy,
            &ma.owner,
            grid,
            ind.as_deref(),
            default_hvc_threshold(avg),
        );

        // --- Edge assignment: bucket every edge onto its device. ---
        let mut dev_edges: Vec<Vec<(VertexId, VertexId, u32)>> = vec![Vec::new(); p];
        for u in 0..n {
            for (v, w) in g.edges(u) {
                dev_edges[rule.device_of(u, v) as usize].push((u, v, w));
            }
        }

        let (masters_per_dev, ids) = masters_by_device(&ma.owner, p);

        // --- Local graph construction, one device at a time (parallel). ---
        let weighted = g.is_weighted();
        let locals: Vec<LocalGraph> = dev_edges
            .into_par_iter()
            .zip(masters_per_dev.into_par_iter())
            .enumerate()
            .map(|(d, (edges, masters))| build_local(d as u32, edges, masters, &ids, weighted))
            .collect();

        let links = build_links(&locals, &ids);

        Partition {
            policy,
            num_devices,
            grid,
            num_global_vertices: n,
            locals,
            links,
        }
    }

    /// Two-pass chunked partition build over any [`EdgeSource`] — the
    /// out-of-core counterpart of [`Partition::build`], bit-identical to it
    /// for every supported policy (pinned by tests here and in
    /// `tests/partition_digests.rs` and `tests/golden_digests.rs`).
    ///
    /// Pass 1 streams the edges once to accumulate out/in-degree
    /// histograms, from which
    /// [`crate::masters::assign_masters_from_degrees`]
    /// derives the master assignment — the same computation
    /// [`assign_masters`] performs from the materialized CSR. Pass 2
    /// streams again, routing each edge through the policy's [`EdgeRule`]
    /// into a per-device spill file. Each device's edges are then read back
    /// one device at a time and fed to the same `build_local` the in-memory
    /// builder uses, so the resulting [`LocalGraph`]s cannot differ.
    ///
    /// Peak memory is the degree/owner arrays (`O(|V|)`), one device's edge
    /// set (`~|E| / p`, which the per-device CSR must hold anyway) and the
    /// accumulated local graphs — never the full global edge list. The
    /// traversal-based `MetisLike` needs the whole graph in memory and
    /// panics here; partition it via [`Partition::build`].
    pub fn build_streamed(
        src: &dyn EdgeSource,
        policy: Policy,
        num_devices: u32,
        seed: u64,
    ) -> Partition {
        assert!(num_devices >= 1);
        let n = src.num_vertices();
        let p = num_devices as usize;

        // --- Pass 1: degree histograms → master assignment. ---
        let mut out_deg = vec![0u32; n as usize];
        let mut in_deg = vec![0u32; n as usize];
        let mut m = 0u64;
        src.for_each_edge(&mut |u, v, _| {
            out_deg[u as usize] += 1;
            in_deg[v as usize] += 1;
            m += 1;
        });
        let ma = assign_masters_from_degrees(policy, &out_deg, &in_deg, num_devices, seed);
        drop(out_deg);
        let grid = (policy == Policy::Cvc).then(|| Grid::for_devices(num_devices));
        let ind = (policy == Policy::Hvc).then_some(in_deg.as_slice());
        let avg = if n == 0 { 0.0 } else { m as f64 / n as f64 };
        let rule = EdgeRule::new(policy, &ma.owner, grid, ind, default_hvc_threshold(avg));

        // --- Pass 2: route edges into per-device spill files. ---
        let mut writers: Vec<DeviceEdgeSpill> =
            (0..p).map(|d| DeviceEdgeSpill::create(d as u32)).collect();
        src.for_each_edge(&mut |u, v, w| {
            writers[rule.device_of(u, v) as usize].push(u, v, w);
        });
        drop(in_deg);

        let (masters_per_dev, ids) = masters_by_device(&ma.owner, p);

        // --- Local graphs, one device at a time to bound the peak. ---
        let weighted = src.is_weighted();
        let mut locals: Vec<LocalGraph> = Vec::with_capacity(p);
        for (d, (writer, masters)) in writers.into_iter().zip(masters_per_dev).enumerate() {
            let edges = writer.into_edges();
            locals.push(build_local(d as u32, edges, masters, &ids, weighted));
        }

        let links = build_links(&locals, &ids);

        Partition {
            policy,
            num_devices,
            grid,
            num_global_vertices: n,
            locals,
            links,
        }
    }

    /// The exchange link for mirrors held on `holder` whose masters live on
    /// `owner`.
    #[inline]
    pub fn link(&self, holder: u32, owner: u32) -> &PairLink {
        &self.links[(holder * self.num_devices + owner) as usize]
    }

    /// Average proxies per global vertex (§III-A's replication factor).
    pub fn replication_factor(&self) -> f64 {
        let total: u64 = self.locals.iter().map(|l| l.num_vertices() as u64).sum();
        total as f64 / self.num_global_vertices.max(1) as f64
    }

    /// Total edges across devices (must equal the input graph's edges).
    pub fn total_edges(&self) -> u64 {
        self.locals.iter().map(|l| l.num_edges()).sum()
    }
}

/// Where every global vertex's master lives: the whole of the global→local
/// translation a build needs for masters, as two dense arrays shared by all
/// devices. (A device's mirrors are ranked in a bit map of its own, in
/// `build_local`.) Nothing of it outlives the build.
struct MasterIds<'a> {
    /// Owner device of each global vertex.
    owner: &'a [u32],
    /// Local id of each global vertex on its owner: its index in the
    /// owner's master list.
    local: Vec<VertexId>,
}

/// The masters of each device in ascending global id, with the dense
/// translation that order defines.
fn masters_by_device(owner: &[u32], p: usize) -> (Vec<Vec<VertexId>>, MasterIds<'_>) {
    let mut masters_per_dev: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    let mut local = Vec::with_capacity(owner.len());
    for (v, &d) in owner.iter().enumerate() {
        let masters = &mut masters_per_dev[d as usize];
        local.push(masters.len() as VertexId);
        masters.push(v as VertexId);
    }
    (masters_per_dev, MasterIds { owner, local })
}

/// Exchange links: align mirror lists with master local ids. Shared by the
/// in-memory and chunked builders. A holder's mirrors ascend in local id
/// and in global id at once, and so do the masters they pair with on each
/// owner, so both sides of every link come out strictly ascending.
fn build_links(locals: &[LocalGraph], ids: &MasterIds<'_>) -> Vec<PairLink> {
    let p = locals.len();
    let mut links: Vec<PairLink> = vec![PairLink::default(); p * p];
    for (holder, lg) in locals.iter().enumerate() {
        for lv in lg.num_masters..lg.num_vertices() {
            let ow = lg.master_device[lv as usize] as usize;
            debug_assert_ne!(ow, holder);
            let link = &mut links[holder * p + ow];
            link.mirror_side.push(lv);
            link.mirror_has_out.push(lg.has_out_edges(lv));
            link.mirror_has_in.push(lg.has_in_edges(lv));
            let m = ids.local[lg.l2g[lv as usize] as usize];
            debug_assert!(locals[ow].is_master(m));
            link.master_side.push(m);
        }
    }
    links
}

/// One device's routed edges, spilled to a temp file during the chunked
/// build's second pass so only one device's edge set is ever resident.
/// Records are 12 bytes (`u`, `v`, `w` as LE u32) in stream order — the
/// same order the in-memory builder buckets them — so `build_local` sees an
/// identical sequence. The file goes when the spill is dropped, read back
/// or not.
struct DeviceEdgeSpill {
    path: std::path::PathBuf,
    w: std::io::BufWriter<std::fs::File>,
    count: usize,
}

impl DeviceEdgeSpill {
    fn create(device: u32) -> Self {
        let path = dirgl_graph::stream::spill_file_path(&format!("dev{device}"));
        let file = std::fs::File::create(&path).expect("create device edge spill");
        DeviceEdgeSpill {
            path,
            w: std::io::BufWriter::new(file),
            count: 0,
        }
    }

    #[inline]
    fn push(&mut self, u: u32, v: u32, w: u32) {
        use std::io::Write;
        let mut rec = [0u8; 12];
        rec[0..4].copy_from_slice(&u.to_le_bytes());
        rec[4..8].copy_from_slice(&v.to_le_bytes());
        rec[8..12].copy_from_slice(&w.to_le_bytes());
        self.w.write_all(&rec).expect("write device edge spill");
        self.count += 1;
    }

    /// Reads the routed edges back, in one read of the whole file.
    fn into_edges(mut self) -> Vec<(VertexId, VertexId, u32)> {
        use std::io::Write;
        self.w.flush().expect("flush device edge spill");
        let bytes = std::fs::read(&self.path).expect("read device edge spill");
        assert_eq!(
            bytes.len(),
            self.count * 12,
            "device edge spill holds other than the {} records written",
            self.count
        );
        let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte field"));
        bytes
            .chunks_exact(12)
            .map(|rec| (word(&rec[0..4]), word(&rec[4..8]), word(&rec[8..12])))
            .collect()
    }
}

impl Drop for DeviceEdgeSpill {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Builds one device's local graph from the edges routed to it, in the
/// order they were routed. Local ids: the device's masters first, then its
/// mirrors (every endpoint of a local edge owned elsewhere), each group in
/// ascending global id.
fn build_local(
    device: u32,
    edges: Vec<(VertexId, VertexId, u32)>,
    masters: Vec<VertexId>,
    ids: &MasterIds<'_>,
    weighted: bool,
) -> LocalGraph {
    let owned = |gid: VertexId| ids.owner[gid as usize] == device;
    let num_masters = masters.len() as VertexId;

    // Mirrors as a bit map over the global ids. A mirror's local id is
    // `num_masters` plus its rank among them: the marks in the words below
    // its own (`below`) plus those under it in its word.
    let mut marks = vec![0u64; ids.owner.len().div_ceil(64)];
    for &(u, v, _) in &edges {
        for gid in [u, v] {
            if !owned(gid) {
                marks[gid as usize / 64] |= 1 << (gid % 64);
            }
        }
    }
    let mut below = Vec::with_capacity(marks.len());
    let mut num_local = num_masters;
    for word in &marks {
        below.push(num_local);
        num_local += word.count_ones();
    }
    let local = |gid: VertexId| {
        if owned(gid) {
            ids.local[gid as usize]
        } else {
            let word = gid as usize / 64;
            below[word] + (marks[word] & ((1 << (gid % 64)) - 1)).count_ones()
        }
    };

    let mut l2g = masters;
    l2g.reserve_exact((num_local - num_masters) as usize);
    for (word, mut bits) in marks.iter().copied().enumerate() {
        while bits != 0 {
            l2g.push(word as VertexId * 64 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }

    let mut b = CsrBuilder::with_capacity(num_local, edges.len());
    for (u, v, w) in edges {
        if weighted {
            b.add_weighted(local(u), local(v), w);
        } else {
            b.add(local(u), local(v));
        }
    }
    let csr = b.build();
    let in_csr = csr.transpose();
    let master_device: Vec<u32> = l2g.iter().map(|&gid| ids.owner[gid as usize]).collect();

    LocalGraph {
        device,
        num_masters,
        l2g: l2g.into_boxed_slice(),
        master_device: master_device.into_boxed_slice(),
        csr,
        in_csr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_graph::{RmatConfig, WebCrawlConfig};

    fn check_partition_invariants(g: &Csr, part: &Partition) {
        let p = part.num_devices;
        // 1. Every edge appears exactly once across devices.
        assert_eq!(part.total_edges(), g.num_edges());
        let mut global_edges: Vec<(u32, u32, u32)> = Vec::new();
        for lg in &part.locals {
            for lu in 0..lg.num_vertices() {
                for (lv, w) in lg.csr.edges(lu) {
                    global_edges.push((lg.l2g[lu as usize], lg.l2g[lv as usize], w));
                }
            }
        }
        global_edges.sort_unstable();
        let mut expected: Vec<(u32, u32, u32)> = g.iter_all_edges().collect();
        expected.sort_unstable();
        assert_eq!(global_edges, expected);

        // 2. Every global vertex has exactly one master.
        let mut master_count = vec![0u32; g.num_vertices() as usize];
        for lg in &part.locals {
            for lv in 0..lg.num_masters {
                master_count[lg.l2g[lv as usize] as usize] += 1;
            }
        }
        assert!(master_count.iter().all(|&c| c == 1));

        // 3. Links are aligned: the global ids match entry by entry.
        for holder in 0..p {
            for ow in 0..p {
                let link = part.link(holder, ow);
                for i in 0..link.len() {
                    let gid_m = part.locals[holder as usize].l2g[link.mirror_side[i] as usize];
                    let gid_o = part.locals[ow as usize].l2g[link.master_side[i] as usize];
                    assert_eq!(gid_m, gid_o);
                    assert!(part.locals[ow as usize].is_master(link.master_side[i]));
                    assert!(!part.locals[holder as usize].is_master(link.mirror_side[i]));
                }
            }
            // A device never links to itself.
            assert!(part.link(holder, holder).is_empty());
        }
    }

    #[test]
    fn all_policies_satisfy_invariants() {
        let g = RmatConfig::new(9, 8).seed(4).generate();
        for policy in [
            Policy::Oec,
            Policy::Iec,
            Policy::Hvc,
            Policy::Cvc,
            Policy::Random,
            Policy::MetisLike,
        ] {
            for p in [1, 2, 4, 8] {
                let part = Partition::build(&g, policy, p, 42);
                check_partition_invariants(&g, &part);
            }
        }
    }

    #[test]
    fn oec_keeps_out_edges_at_master() {
        let g = RmatConfig::new(9, 6).seed(1).generate();
        let part = Partition::build(&g, Policy::Oec, 4, 0);
        for lg in &part.locals {
            for lv in lg.num_masters..lg.num_vertices() {
                assert!(!lg.has_out_edges(lv), "mirror with out-edges under OEC");
            }
        }
    }

    #[test]
    fn iec_keeps_in_edges_at_master() {
        let g = RmatConfig::new(9, 6).seed(1).generate();
        let part = Partition::build(&g, Policy::Iec, 4, 0);
        for lg in &part.locals {
            for lv in lg.num_masters..lg.num_vertices() {
                assert!(!lg.has_in_edges(lv), "mirror with in-edges under IEC");
            }
        }
    }

    #[test]
    fn cvc_structural_invariants() {
        let g = RmatConfig::new(10, 8).seed(7).generate();
        let part = Partition::build(&g, Policy::Cvc, 8, 0);
        let grid = part.grid.unwrap();
        for lg in &part.locals {
            for lv in lg.num_masters..lg.num_vertices() {
                let owner_dev = lg.master_device[lv as usize];
                // Mirrors with out-edges share the master's grid row.
                if lg.has_out_edges(lv) {
                    assert_eq!(grid.row(lg.device), grid.row(owner_dev));
                }
                // Mirrors with in-edges share the master's grid column.
                if lg.has_in_edges(lv) {
                    assert_eq!(grid.col(lg.device), grid.col(owner_dev));
                }
            }
        }
    }

    #[test]
    fn cvc_restricts_communication_partners() {
        let g = RmatConfig::new(10, 8).seed(3).generate();
        let part = Partition::build(&g, Policy::Cvc, 16, 0);
        let grid = part.grid.unwrap();
        // Any device's non-empty links target only its grid row/column.
        for holder in 0..16 {
            for ow in 0..16 {
                if holder != ow && !part.link(holder, ow).is_empty() {
                    let same_row = grid.row(holder) == grid.row(ow);
                    let same_col = grid.col(holder) == grid.col(ow);
                    assert!(same_row || same_col, "link {holder}->{ow} crosses the grid");
                }
            }
        }
    }

    #[test]
    fn single_device_partition_has_no_mirrors() {
        let g = RmatConfig::new(8, 4).seed(2).generate();
        for policy in [Policy::Oec, Policy::Cvc, Policy::Hvc] {
            let part = Partition::build(&g, policy, 1, 0);
            assert_eq!(part.locals[0].num_mirrors(), 0);
            assert!((part.replication_factor() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn vertex_cut_replication_grows_with_devices() {
        let g = RmatConfig::new(10, 8).seed(9).generate();
        let r2 = Partition::build(&g, Policy::Cvc, 2, 0).replication_factor();
        let r16 = Partition::build(&g, Policy::Cvc, 16, 0).replication_factor();
        assert!(r16 > r2, "r2={r2} r16={r16}");
    }

    #[test]
    fn webcrawl_locality_gives_edge_cuts_low_replication() {
        let g = WebCrawlConfig::new(8_000, 120_000, 400, 400, 20)
            .seed(5)
            .generate();
        let iec = Partition::build(&g, Policy::Iec, 8, 0).replication_factor();
        let random = Partition::build(&g, Policy::Random, 8, 0).replication_factor();
        // Contiguous blocks exploit crawl locality; random destroys it.
        assert!(iec < random, "iec={iec} random={random}");
    }

    #[test]
    fn chunked_builder_is_bit_identical_to_in_memory() {
        let g = dirgl_graph::weights::randomize_weights(
            &RmatConfig::new(9, 8).seed(4).generate(),
            100,
            3,
        );
        let compressed = dirgl_graph::CompressedCsr::from_csr(&g);
        for policy in [
            Policy::Oec,
            Policy::Iec,
            Policy::Hvc,
            Policy::Cvc,
            Policy::Random,
        ] {
            for p in [1, 4, 8] {
                let in_mem = Partition::build(&g, policy, p, 42);
                // Streamed from the raw CSR...
                let streamed = Partition::build_streamed(&g, policy, p, 42);
                assert_eq!(streamed, in_mem, "{policy} p={p} (csr source)");
                // ...and from the compressed representation.
                let streamed = Partition::build_streamed(&compressed, policy, p, 42);
                assert_eq!(streamed, in_mem, "{policy} p={p} (compressed source)");
            }
        }
    }

    #[test]
    fn chunked_builder_matches_on_unweighted_webcrawl() {
        let g = WebCrawlConfig::new(6_000, 80_000, 300, 300, 18)
            .seed(11)
            .generate();
        let in_mem = Partition::build(&g, Policy::Iec, 4, 7);
        assert_eq!(Partition::build_streamed(&g, Policy::Iec, 4, 7), in_mem);
    }

    #[test]
    fn device_spill_removes_its_file_read_back_or_not() {
        let mut spill = DeviceEdgeSpill::create(0);
        spill.push(1, 2, 3);
        let path = spill.path.clone();
        assert!(path.exists());
        drop(spill); // as an unwinding build would
        assert!(!path.exists(), "a dropped spill left {path:?} behind");

        let mut spill = DeviceEdgeSpill::create(1);
        spill.push(4, 5, 6);
        spill.push(7, 8, 9);
        let path = spill.path.clone();
        assert_eq!(spill.into_edges(), vec![(4, 5, 6), (7, 8, 9)]);
        assert!(!path.exists(), "a read-back spill left {path:?} behind");
    }

    #[test]
    #[should_panic(expected = "materialized graph")]
    fn chunked_builder_rejects_traversal_policies() {
        let g = RmatConfig::new(6, 4).seed(1).generate();
        let _ = Partition::build_streamed(&g, Policy::MetisLike, 2, 0);
    }

    #[test]
    fn weights_preserved_through_partitioning() {
        let g = dirgl_graph::weights::randomize_weights(
            &RmatConfig::new(8, 4).seed(6).generate(),
            50,
            1,
        );
        let part = Partition::build(&g, Policy::Cvc, 4, 0);
        for lg in &part.locals {
            assert!(lg.csr.is_weighted());
            for lu in 0..lg.num_vertices() {
                for (lv, w) in lg.csr.edges(lu) {
                    let (gu, gv) = (lg.l2g[lu as usize], lg.l2g[lv as usize]);
                    // Weight must match one of gu's edges to gv globally.
                    let found = g.edges(gu).any(|(t, wt)| t == gv && wt == w);
                    assert!(found, "weight mismatch on ({gu},{gv})");
                }
            }
        }
    }
}
