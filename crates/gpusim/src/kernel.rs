//! Kernel timing: converts a work distribution into simulated seconds.

use crate::sched::{distribute, Balancer, WorkDistribution};
use crate::spec::GpuSpec;

/// Outcome of one simulated kernel launch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelResult {
    /// Simulated wall time of the launch, seconds.
    pub time: f64,
    /// Work summary.
    pub work: WorkDistribution,
}

/// Timing model bound to one device specification.
#[derive(Clone, Copy, Debug)]
pub struct KernelModel {
    /// The device this model times.
    pub spec: GpuSpec,
}

impl KernelModel {
    /// Creates a model for `spec`.
    pub fn new(spec: GpuSpec) -> KernelModel {
        KernelModel { spec }
    }

    /// Times one operator kernel over the active vertices.
    ///
    /// Kernel time = launch overhead + slowest block's load at the
    /// per-block throughput; a perfectly balanced kernel therefore runs at
    /// the device's full edge throughput.
    pub fn launch<I>(&self, balancer: Balancer, degrees: I, work_scale: u64) -> KernelResult
    where
        I: IntoIterator<Item = u32>,
    {
        let work = distribute(balancer, degrees, work_scale, self.spec.num_blocks());
        let time = if work.active_vertices == 0 {
            0.0
        } else {
            self.spec.kernel_launch_overhead + work.max_block_load / self.spec.block_throughput()
        };
        KernelResult { time, work }
    }

    /// Times a prefix-scan + gather extraction over `items` paper-equivalent
    /// elements (the UO overhead of §V-B3).
    pub fn scan_time(&self, items: u64) -> f64 {
        if items == 0 {
            return 0.0;
        }
        self.spec.scan_overhead + items as f64 / self.spec.scan_throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_kernel_runs_at_full_throughput() {
        let m = KernelModel::new(GpuSpec::p100());
        // 112k vertices of degree 9 -> exactly 10 units per block per
        // vertex round; total = 1.12M units.
        let degs = vec![9u32; 112_000];
        let r = m.launch(Balancer::Lb, degs, 1);
        let ideal = r.work.total_work as f64 / m.spec.edge_throughput;
        assert!(r.time < 1.3 * ideal + 1e-5, "time={} ideal={ideal}", r.time);
    }

    #[test]
    fn empty_launch_is_free() {
        let m = KernelModel::new(GpuSpec::p100());
        let r = m.launch(Balancer::Twc, std::iter::empty(), 1024);
        assert_eq!(r.time, 0.0);
    }

    #[test]
    fn slower_gpu_takes_longer() {
        let degs = vec![16u32; 10_000];
        let p100 = KernelModel::new(GpuSpec::p100()).launch(Balancer::Alb, degs.clone(), 64);
        let k80 = KernelModel::new(GpuSpec::k80()).launch(Balancer::Alb, degs, 64);
        assert!(k80.time > p100.time);
    }

    #[test]
    fn scan_time_scales_with_items() {
        let m = KernelModel::new(GpuSpec::p100());
        assert_eq!(m.scan_time(0), 0.0);
        let t1 = m.scan_time(1_000_000);
        let t2 = m.scan_time(100_000_000);
        assert!(t2 > t1);
        assert!(t1 >= m.spec.scan_overhead);
    }
}
