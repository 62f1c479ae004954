//! Master (vertex owner) assignment — the first of CuSP's two decision
//! functions.
//!
//! Edge-balanced policies assign contiguous id blocks whose boundaries
//! balance a per-vertex weight (out-degree for OEC/CVC, in-degree for IEC,
//! total degree for HVC). Web crawls have strong id locality, so contiguous
//! blocks double as locality-preserving cuts, exactly as in CuSP.

use dirgl_graph::csr::{Csr, VertexId};

use crate::policy::Policy;

/// Per-vertex master device assignment plus the block boundaries (empty for
/// non-blocked policies).
#[derive(Clone, Debug)]
pub struct MasterAssignment {
    /// Owner device of each vertex's master proxy.
    pub owner: Vec<u32>,
    /// For blocked policies: vertex-range start per device (length
    /// `num_devices + 1`); empty otherwise.
    pub block_starts: Vec<VertexId>,
}

/// In-degree of every vertex (needed by IEC/HVC rules).
pub fn in_degrees(g: &Csr) -> Vec<u32> {
    let mut deg = vec![0u32; g.num_vertices() as usize];
    for &t in g.targets() {
        deg[t as usize] += 1;
    }
    deg
}

/// Splits `0..n` into `parts` contiguous blocks with approximately equal
/// total `weight`, returning the block start ids (length `parts + 1`).
pub fn balanced_blocks(weights: &[u32], parts: u32) -> Vec<VertexId> {
    let n = weights.len();
    // Every vertex carries a tiny constant weight so zero-degree spans still
    // split, but edges dominate the balance target.
    let total: u64 = weights.iter().map(|&w| w as u64 * 16 + 1).sum();
    let mut starts = Vec::with_capacity(parts as usize + 1);
    starts.push(0);
    let mut acc = 0u64;
    let mut next_cut = 1u64;
    for (v, &w) in weights.iter().enumerate() {
        acc += w as u64 * 16 + 1;
        while starts.len() < parts as usize && acc * parts as u64 >= next_cut * total {
            starts.push(v as VertexId + 1);
            next_cut += 1;
        }
    }
    while starts.len() < parts as usize {
        starts.push(n as VertexId);
    }
    starts.push(n as VertexId);
    starts
}

/// FxHash-style integer mix for the random policy.
#[inline]
pub fn hash_vertex(v: VertexId, seed: u64) -> u64 {
    let mut x = v as u64 ^ seed;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 32;
    x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    x ^= x >> 32;
    x
}

/// BFS-grow clustering: `parts` seeds spaced through the id range grow
/// frontiers round-robin, claiming unowned vertices until each partition
/// holds roughly `|E| / parts` edges. Disconnected leftovers go to the
/// lightest partition. A stand-in for METIS-quality edge-cuts (Groute).
pub fn bfs_grow(g: &Csr, parts: u32, seed: u64) -> Vec<u32> {
    let n = g.num_vertices() as usize;
    let mut owner = vec![u32::MAX; n];
    let target_edges = g.num_edges() / parts as u64 + 1;
    let mut frontiers: Vec<Vec<VertexId>> = Vec::with_capacity(parts as usize);
    let mut edge_load = vec![0u64; parts as usize];
    for p in 0..parts {
        // Seeds spaced through the id range, jittered by the seed.
        let s = ((n as u64 * p as u64 / parts as u64) + hash_vertex(p, seed) % 17) as usize % n;
        // Find the first unclaimed vertex at or after s.
        let mut v = s;
        while owner[v] != u32::MAX {
            v = (v + 1) % n;
        }
        owner[v] = p;
        edge_load[p as usize] += g.out_degree(v as VertexId) as u64;
        frontiers.push(vec![v as VertexId]);
    }
    let mut active = true;
    while active {
        active = false;
        for p in 0..parts as usize {
            if edge_load[p] >= target_edges {
                continue;
            }
            let mut next = Vec::new();
            for &u in &frontiers[p] {
                for &v in g.neighbors(u) {
                    if owner[v as usize] == u32::MAX {
                        owner[v as usize] = p as u32;
                        edge_load[p] += g.out_degree(v) as u64;
                        next.push(v);
                        if edge_load[p] >= target_edges {
                            break;
                        }
                    }
                }
                if edge_load[p] >= target_edges {
                    break;
                }
            }
            if !next.is_empty() {
                active = true;
            }
            frontiers[p] = next;
        }
    }
    // Unreached vertices: assign to the lightest partition.
    for (v, o) in owner.iter_mut().enumerate() {
        if *o == u32::MAX {
            let p = (0..parts as usize).min_by_key(|&p| edge_load[p]).unwrap();
            *o = p as u32;
            edge_load[p] += g.out_degree(v as VertexId) as u64;
        }
    }
    owner
}

/// Assigns masters for `policy` over `num_devices` devices.
pub fn assign_masters(g: &Csr, policy: Policy, num_devices: u32, seed: u64) -> MasterAssignment {
    match policy {
        // Degree-driven policies share one computation with the chunked
        // builder's histogram path, so the two builders cannot diverge.
        Policy::Oec | Policy::Cvc | Policy::Iec | Policy::Hvc | Policy::Random => {
            let n = g.num_vertices();
            let out: Vec<u32> = (0..n).map(|v| g.out_degree(v)).collect();
            let ind = match policy {
                Policy::Iec | Policy::Hvc => in_degrees(g),
                _ => Vec::new(),
            };
            assign_masters_from_degrees(policy, &out, &ind, num_devices, seed)
        }
        Policy::MetisLike => MasterAssignment {
            owner: bfs_grow(g, num_devices, seed),
            block_starts: Vec::new(),
        },
    }
}

/// Degree-histogram master assignment — the subset of [`assign_masters`]
/// that needs only per-vertex degrees, not the materialized graph. This is
/// what the chunked partition builder calls after its first streaming pass;
/// the traversal-based `MetisLike` has no histogram form and panics
/// here.
///
/// `in_deg` may be empty for policies that do not consult it
/// (OEC/CVC/Random).
pub fn assign_masters_from_degrees(
    policy: Policy,
    out_deg: &[u32],
    in_deg: &[u32],
    num_devices: u32,
    seed: u64,
) -> MasterAssignment {
    match policy {
        Policy::Oec | Policy::Cvc => blocked(out_deg, num_devices),
        Policy::Iec => blocked(in_deg, num_devices),
        Policy::Hvc => {
            let w: Vec<u32> = out_deg
                .iter()
                .zip(in_deg)
                .map(|(&o, &i)| o.saturating_add(i))
                .collect();
            blocked(&w, num_devices)
        }
        Policy::Random => {
            let owner = (0..out_deg.len() as u32)
                .map(|v| (hash_vertex(v, seed) % num_devices as u64) as u32)
                .collect();
            MasterAssignment {
                owner,
                block_starts: Vec::new(),
            }
        }
        Policy::MetisLike => panic!(
            "{policy} needs the materialized graph (BFS); \
             the degree-histogram path cannot assign it"
        ),
    }
}

fn blocked(weights: &[u32], parts: u32) -> MasterAssignment {
    let starts = balanced_blocks(weights, parts);
    let mut owner = vec![0u32; weights.len()];
    for p in 0..parts as usize {
        for v in starts[p]..starts[p + 1] {
            owner[v as usize] = p as u32;
        }
    }
    MasterAssignment {
        owner,
        block_starts: starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_graph::RmatConfig;

    #[test]
    fn balanced_blocks_cover_range() {
        let w = vec![1u32; 100];
        let starts = balanced_blocks(&w, 4);
        assert_eq!(starts, vec![0, 25, 50, 75, 100]);
    }

    #[test]
    fn balanced_blocks_balance_skewed_weights() {
        // One huge vertex at the front.
        let mut w = vec![1u32; 1000];
        w[0] = 5000;
        let starts = balanced_blocks(&w, 4);
        assert_eq!(starts.len(), 5);
        assert_eq!(*starts.last().unwrap(), 1000);
        // First block should be tiny (the heavy vertex alone dominates).
        assert!(starts[1] < 300, "starts={starts:?}");
        // All blocks non-degenerate boundaries are monotonic.
        for i in 0..4 {
            assert!(starts[i] <= starts[i + 1]);
        }
    }

    #[test]
    fn balanced_blocks_more_parts_than_vertices() {
        let w = vec![1u32; 3];
        let starts = balanced_blocks(&w, 8);
        assert_eq!(starts.len(), 9);
        assert_eq!(*starts.last().unwrap(), 3);
    }

    #[test]
    fn edge_balanced_oec_assignment() {
        let g = RmatConfig::new(10, 8).seed(3).generate();
        let ma = assign_masters(&g, Policy::Oec, 8, 0);
        // Every vertex owned; owners within range.
        assert!(ma.owner.iter().all(|&o| o < 8));
        // Out-edge counts per device balanced within 30%.
        let mut per_dev = vec![0u64; 8];
        for v in 0..g.num_vertices() {
            per_dev[ma.owner[v as usize] as usize] += g.out_degree(v) as u64;
        }
        let mean = per_dev.iter().sum::<u64>() as f64 / 8.0;
        for &e in &per_dev {
            assert!((e as f64) < 1.5 * mean + 100.0, "per_dev={per_dev:?}");
        }
    }

    #[test]
    fn random_assignment_spreads() {
        let g = RmatConfig::new(10, 4).seed(1).generate();
        let ma = assign_masters(&g, Policy::Random, 4, 7);
        let mut counts = vec![0u32; 4];
        for &o in &ma.owner {
            counts[o as usize] += 1;
        }
        let n = g.num_vertices();
        for &c in &counts {
            assert!((c as f64) > 0.15 * n as f64 && (c as f64) < 0.35 * n as f64);
        }
    }

    #[test]
    fn bfs_grow_produces_connected_ish_clusters() {
        // A web crawl has site locality for BFS-grow to exploit; an R-MAT
        // expander would not.
        let g = dirgl_graph::WebCrawlConfig::new(4_000, 60_000, 300, 200, 12)
            .seed(5)
            .generate();
        let owner = bfs_grow(&g, 4, 1);
        assert!(owner.iter().all(|&o| o < 4));
        // Locality: a healthy fraction of edges stay internal (random
        // assignment would keep only ~25%).
        let mut internal = 0u64;
        for u in 0..g.num_vertices() {
            for &v in g.neighbors(u) {
                if owner[u as usize] == owner[v as usize] {
                    internal += 1;
                }
            }
        }
        let frac = internal as f64 / g.num_edges() as f64;
        assert!(frac > 0.3, "internal fraction {frac}");
    }
}
