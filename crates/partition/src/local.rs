//! Per-device partition: the proxy model of §III-A.
//!
//! Local ids are dense per device, with all **master** proxies first
//! (`0..num_masters`) followed by **mirror** proxies. The local CSR stores
//! the device's edges in local ids; its transpose serves pull-style
//! programs.

use dirgl_graph::csr::{Csr, VertexId};

/// One device's share of the partitioned graph.
///
/// It carries no global→local map. Translation is the builder's business
/// and ends with the build, as Gluon memoizes it away after construction
/// (§III-D2): the exchange links already pair local ids with local ids.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalGraph {
    /// Device index.
    pub device: u32,
    /// Local ids `0..num_masters` are master proxies.
    pub num_masters: u32,
    /// Global id of each local vertex.
    pub l2g: Box<[VertexId]>,
    /// Owner device of each local vertex's master (== `device` for masters).
    pub master_device: Box<[u32]>,
    /// Out-edges in local ids (weights preserved from the input graph).
    pub csr: Csr,
    /// In-edges (transpose of `csr`), for pull-style operators.
    pub in_csr: Csr,
}

impl LocalGraph {
    /// Total proxies (masters + mirrors).
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.l2g.len() as u32
    }

    /// Mirror proxy count.
    #[inline]
    pub fn num_mirrors(&self) -> u32 {
        self.num_vertices() - self.num_masters
    }

    /// True when local vertex `lv` is a master proxy.
    #[inline]
    pub fn is_master(&self, lv: VertexId) -> bool {
        lv < self.num_masters
    }

    /// True when local vertex `lv` has at least one local out-edge (i.e. a
    /// push-style program *reads* it on this device).
    #[inline]
    pub fn has_out_edges(&self, lv: VertexId) -> bool {
        self.csr.out_degree(lv) > 0
    }

    /// True when local vertex `lv` has at least one local in-edge (i.e. a
    /// push-style program may *write* it on this device).
    #[inline]
    pub fn has_in_edges(&self, lv: VertexId) -> bool {
        self.in_csr.out_degree(lv) > 0
    }

    /// Local edge count.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.csr.num_edges()
    }

    /// Device-memory bytes to hold this partition: CSR (+ transpose when the
    /// program pulls) + `label_bytes` per proxy + the l2g table the kernels
    /// index. This is the quantity Table III/IV's memory columns report.
    pub fn device_bytes(&self, label_bytes: u64, needs_pull: bool) -> u64 {
        self.device_bytes_for(label_bytes, true, needs_pull, true)
    }

    /// Fine-grained memory accounting: only the directions and arrays the
    /// program actually loads are charged (a pull-only program loads the
    /// in-CSR alone; only sssp loads the weights).
    pub fn device_bytes_for(
        &self,
        label_bytes: u64,
        needs_out: bool,
        needs_in: bool,
        with_weights: bool,
    ) -> u64 {
        let mut b = 0;
        if needs_out {
            b += self.csr.bytes_with(with_weights);
        }
        if needs_in {
            b += self.in_csr.bytes_with(with_weights);
        }
        b += self.num_vertices() as u64 * (label_bytes + 4); // labels + l2g
        b
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::Partition;
    use crate::policy::Policy;
    use dirgl_graph::RmatConfig;

    #[test]
    fn masters_precede_mirrors_and_flags_match_csr() {
        let g = RmatConfig::new(9, 8).seed(2).generate();
        let part = Partition::build(&g, Policy::Cvc, 4, 0);
        for lg in &part.locals {
            for lv in 0..lg.num_vertices() {
                assert_eq!(lg.is_master(lv), lg.master_device[lv as usize] == lg.device);
                assert_eq!(lg.has_out_edges(lv), lg.csr.out_degree(lv) > 0);
                assert_eq!(lg.has_in_edges(lv), lg.in_csr.out_degree(lv) > 0);
            }
            // Mirrors must have at least one local edge (they only exist
            // because an edge endpoint landed here).
            for lv in lg.num_masters..lg.num_vertices() {
                assert!(
                    lg.has_out_edges(lv) || lg.has_in_edges(lv),
                    "dangling mirror"
                );
            }
        }
    }

    #[test]
    fn device_bytes_counts_pull_csr_only_when_needed() {
        let g = RmatConfig::new(8, 4).seed(2).generate();
        let part = Partition::build(&g, Policy::Oec, 2, 0);
        let lg = &part.locals[0];
        let push = lg.device_bytes(8, false);
        let pull = lg.device_bytes(8, true);
        assert!(pull > push);
        assert_eq!(pull - push, lg.in_csr.bytes());
    }
}
