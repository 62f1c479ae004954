//! Gunrock-like and Groute-like single-host multi-GPU baselines (§IV-B).
//!
//! Both run on the same substrates as the D-IrGL equivalent but with each
//! framework's published design decisions:
//!
//! * [`GunrockSim`] — random vertex partitioning (Gunrock's recommended
//!   default), the LB load balancer ("balances the edges of a vertex,
//!   irrespective of its degree, among all thread blocks"), BSP rounds,
//!   and **direction-optimizing traversal for bfs** (the algorithmic
//!   advantage behind its Table II bfs wins). Gunrock's pagerank is
//!   omitted, as the paper omits it ("its pr produced incorrect output").
//! * [`GrouteSim`] — METIS-like locality-seeking edge-cut partitioning and
//!   **asynchronous** execution (Groute is "the only framework other than
//!   D-IrGL that supports asynchronous communication between GPUs").
//!   Groute's pointer-jumping cc is approximated by asynchronous label
//!   propagation — a documented substitution (see `EXPERIMENTS.md`):
//!   on the low-diameter small inputs of Table II the round-count
//!   difference between pointer jumping and label propagation is modest.

pub mod dobfs;

use dirgl_apps::{Cc, PageRank, Sssp};
use dirgl_comm::CommMode;
use dirgl_core::{ExecModel, RunConfig, RunError, RunOutput, Runtime, Variant};
use dirgl_gpusim::{Balancer, Platform};
use dirgl_graph::csr::Csr;
use dirgl_partition::Policy;

pub use dobfs::DoBfs;

/// Gunrock keeps double-buffered frontier queues, per-peer staging buffers
/// and partition tables on every GPU on top of the CSR working set
/// (its Table III footprint is ~3x D-IrGL's); modelled as a constant
/// working-set multiplier.
pub const GUNROCK_BUFFER_FACTOR: f64 = 2.2;

/// The Gunrock-like single-host framework.
pub struct GunrockSim {
    /// Devices (a Tuxedo subset in the paper's experiments).
    pub platform: Platform,
    /// Paper-equivalence divisor.
    pub scale_divisor: u64,
}

impl GunrockSim {
    /// Creates the framework simulator.
    pub fn new(platform: Platform, scale_divisor: u64) -> GunrockSim {
        GunrockSim {
            platform,
            scale_divisor,
        }
    }

    fn runtime(&self) -> Runtime {
        Runtime::new(
            self.platform.clone(),
            RunConfig::new(
                Policy::Random,
                Variant {
                    balancer: Balancer::Lb,
                    comm: CommMode::UpdatedOnly, // frontier-based exchange
                    model: ExecModel::Sync,
                },
            )
            .scale(self.scale_divisor),
        )
    }

    fn inflate_memory(mut out: RunOutput) -> RunOutput {
        for m in out.report.memory_per_device.iter_mut() {
            *m = (*m as f64 * GUNROCK_BUFFER_FACTOR) as u64;
        }
        out
    }

    /// Direction-optimizing BFS from the max-out-degree source.
    pub fn run_bfs(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime()
            .runner(g, &DoBfs::from_max_out_degree(g))
            .execute()
            .map(Self::inflate_memory)
    }

    /// Label-propagation connected components (with Gunrock's
    /// app-specific optimizations folded into the shared engine).
    pub fn run_cc(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime()
            .runner(g, &Cc)
            .execute()
            .map(Self::inflate_memory)
    }

    /// Delta-stepping-style sssp (modelled as the shared push program).
    pub fn run_sssp(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime()
            .runner(g, &Sssp::from_max_out_degree(g))
            .execute()
            .map(Self::inflate_memory)
    }
}

/// The Groute-like single-host asynchronous framework.
pub struct GrouteSim {
    /// Devices.
    pub platform: Platform,
    /// Paper-equivalence divisor.
    pub scale_divisor: u64,
}

impl GrouteSim {
    /// Creates the framework simulator.
    pub fn new(platform: Platform, scale_divisor: u64) -> GrouteSim {
        GrouteSim {
            platform,
            scale_divisor,
        }
    }

    fn runtime(&self) -> Runtime {
        Runtime::new(
            self.platform.clone(),
            RunConfig::new(
                Policy::MetisLike,
                Variant {
                    balancer: Balancer::Twc,
                    comm: CommMode::UpdatedOnly,
                    model: ExecModel::Async,
                },
            )
            .scale(self.scale_divisor),
        )
    }

    /// Asynchronous data-driven BFS.
    pub fn run_bfs(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime()
            .runner(g, &dirgl_apps::Bfs::from_max_out_degree(g))
            .execute()
    }

    /// Connected components (pointer jumping approximated by asynchronous
    /// label propagation — see crate docs).
    pub fn run_cc(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime().runner(g, &Cc).execute()
    }

    /// Asynchronous sssp.
    pub fn run_sssp(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime()
            .runner(g, &Sssp::from_max_out_degree(g))
            .execute()
    }

    /// Asynchronous residual pagerank.
    pub fn run_pagerank(&self, g: &Csr) -> Result<RunOutput, RunError> {
        self.runtime().runner(g, &PageRank::new()).execute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_apps::reference;
    use dirgl_graph::weights::randomize_weights;
    use dirgl_graph::RmatConfig;

    fn graph() -> Csr {
        randomize_weights(&RmatConfig::new(9, 8).seed(13).generate(), 100, 2)
    }

    #[test]
    fn gunrock_apps_are_correct() {
        let g = graph();
        let gr = GunrockSim::new(Platform::tuxedo_n(4), 1);
        let bfs = gr.run_bfs(&g).unwrap();
        let want = reference::bfs(&g, g.max_out_degree_vertex());
        for (got, want) in bfs.values.iter().zip(&want) {
            assert_eq!(*got, *want as f64, "gunrock bfs");
        }
        let cc = gr.run_cc(&g).unwrap();
        let want = reference::cc(&g.symmetrize());
        for (got, want) in cc.values.iter().zip(&want) {
            assert_eq!(*got, *want as f64, "gunrock cc");
        }
        let sssp = gr.run_sssp(&g).unwrap();
        let want = reference::sssp(&g, g.max_out_degree_vertex());
        for (got, want) in sssp.values.iter().zip(&want) {
            assert_eq!(*got, *want as f64, "gunrock sssp");
        }
    }

    #[test]
    fn groute_apps_are_correct() {
        let g = graph();
        let gr = GrouteSim::new(Platform::tuxedo_n(4), 1);
        let bfs = gr.run_bfs(&g).unwrap();
        let want = reference::bfs(&g, g.max_out_degree_vertex());
        for (got, want) in bfs.values.iter().zip(&want) {
            assert_eq!(*got, *want as f64, "groute bfs");
        }
        let cc = gr.run_cc(&g).unwrap();
        let want = reference::cc(&g.symmetrize());
        for (got, want) in cc.values.iter().zip(&want) {
            assert_eq!(*got, *want as f64, "groute cc");
        }
    }

    #[test]
    fn direction_optimization_reduces_bfs_work_on_low_diameter_input() {
        // Social-style graph: almost everything is reached in 2-3 hops, so
        // the bottom-up rounds scan far fewer edges than top-down frontier
        // expansion over the hub fan-outs.
        let g = dirgl_graph::SocialConfig::new(8_000, 160_000, 1_500, 2_500)
            .seed(3)
            .generate();
        let hybrid = GunrockSim::new(Platform::tuxedo_n(4), 1)
            .run_bfs(&g)
            .unwrap();
        // Same framework config with plain push bfs.
        let plain = Runtime::new(
            Platform::tuxedo_n(4),
            RunConfig::new(
                Policy::Random,
                Variant {
                    balancer: Balancer::Lb,
                    comm: CommMode::UpdatedOnly,
                    model: ExecModel::Sync,
                },
            ),
        )
        .runner(&g, &dirgl_apps::Bfs::from_max_out_degree(&g))
        .execute()
        .unwrap();
        assert!(
            hybrid.report.work_items < plain.report.work_items,
            "hybrid={} plain={}",
            hybrid.report.work_items,
            plain.report.work_items
        );
        // And identical answers.
        assert_eq!(hybrid.values, plain.values);
    }
}
