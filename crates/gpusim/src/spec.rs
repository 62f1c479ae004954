//! GPU device specifications.
//!
//! Three presets cover the paper's hardware: Tesla P100 (Bridges), Tesla
//! K80 and GeForce GTX 1080 (Tuxedo). Edge throughput is the effective
//! memory-bound rate of graph kernels (device bandwidth over ~300 bytes of
//! traffic per processed edge including atomics), the standard back-of-
//! envelope for GPU graph frameworks.

/// Specification of one GPU device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Resident thread blocks per SM for a typical graph kernel.
    pub blocks_per_sm: u32,
    /// Threads per block the frameworks launch with.
    pub threads_per_block: u32,
    /// SIMT warp width.
    pub warp_size: u32,
    /// Device memory in bytes (paper value; the runtime divides by the
    /// dataset's scale divisor).
    pub memory_bytes: u64,
    /// Effective edges processed per second when perfectly balanced.
    pub edge_throughput: f64,
    /// Fixed kernel-launch cost in seconds.
    pub kernel_launch_overhead: f64,
    /// Prefix-scan throughput (items/second) for UO update extraction.
    pub scan_throughput: f64,
    /// Fixed cost of a scan+gather pipeline launch, seconds.
    pub scan_overhead: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla P100 (16 GB, Bridges cluster).
    pub fn p100() -> GpuSpec {
        GpuSpec {
            name: "Tesla P100",
            sm_count: 56,
            blocks_per_sm: 2,
            threads_per_block: 256,
            warp_size: 32,
            memory_bytes: 16_000_000_000,
            edge_throughput: 2.0e9,
            kernel_launch_overhead: 8e-6,
            scan_throughput: 10.0e9,
            scan_overhead: 25e-6,
        }
    }

    /// NVIDIA Tesla K80, one GK210 die (12 GB, Tuxedo).
    pub fn k80() -> GpuSpec {
        GpuSpec {
            name: "Tesla K80",
            sm_count: 13,
            blocks_per_sm: 2,
            threads_per_block: 256,
            warp_size: 32,
            memory_bytes: 12_000_000_000,
            edge_throughput: 0.7e9,
            kernel_launch_overhead: 10e-6,
            scan_throughput: 4.0e9,
            scan_overhead: 30e-6,
        }
    }

    /// NVIDIA GeForce GTX 1080 (8 GB, Tuxedo).
    pub fn gtx1080() -> GpuSpec {
        GpuSpec {
            name: "GTX 1080",
            sm_count: 20,
            blocks_per_sm: 2,
            threads_per_block: 256,
            warp_size: 32,
            memory_bytes: 8_000_000_000,
            edge_throughput: 1.1e9,
            kernel_launch_overhead: 8e-6,
            scan_throughput: 6.0e9,
            scan_overhead: 25e-6,
        }
    }

    /// Concurrent thread blocks resident on the device.
    pub fn num_blocks(&self) -> u32 {
        self.sm_count * self.blocks_per_sm
    }

    /// Per-block edge throughput (edges/second).
    pub fn block_throughput(&self) -> f64 {
        self.edge_throughput / self.num_blocks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_capability() {
        let (p100, k80, gtx) = (GpuSpec::p100(), GpuSpec::k80(), GpuSpec::gtx1080());
        assert!(p100.edge_throughput > gtx.edge_throughput);
        assert!(gtx.edge_throughput > k80.edge_throughput);
        assert!(p100.memory_bytes > k80.memory_bytes);
        assert!(k80.memory_bytes > gtx.memory_bytes);
    }

    #[test]
    fn block_arithmetic() {
        let p = GpuSpec::p100();
        assert_eq!(p.num_blocks(), 112);
        let per_block = p.block_throughput();
        assert!((per_block * 112.0 - p.edge_throughput).abs() < 1.0);
    }
}
