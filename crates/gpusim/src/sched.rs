//! Edge-to-thread-block schedulers (§III-E2 of the paper).
//!
//! The scheduler determines the **maximum per-block load**, which in turn
//! determines kernel time: SIMT blocks retire in lock step, so the slowest
//! block is the kernel. The four models reproduce the paper's comparison:
//!
//! |        | within-block balance | across-block balance |
//! |--------|----------------------|----------------------|
//! | TWC    | yes                  | no                   |
//! | ALB    | yes                  | yes (splits giants)  |
//! | LB     | yes                  | yes (splits all)     |
//! | TB     | partial              | no                   |
//!
//! Work is measured in paper-equivalent edge units: a scaled vertex of
//! degree `d` on a dataset with divisor `s` contributes `(d + 1) * s`
//! units (its edges plus per-vertex setup).

/// Computation load balancer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Balancer {
    /// Thread/Warp/CTA expansion (D-IrGL Var1).
    Twc,
    /// Adaptive Load Balancer (D-IrGL default, Var2+).
    Alb,
    /// Gunrock's LB: all edges of all vertices split across blocks.
    Lb,
    /// Lux's per-vertex thread-block assignment.
    Tb,
}

impl Balancer {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Balancer::Twc => "TWC",
            Balancer::Alb => "ALB",
            Balancer::Lb => "LB",
            Balancer::Tb => "TB",
        }
    }
}

impl std::fmt::Display for Balancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// ALB splits a vertex across all blocks when its paper-equivalent edge
/// count exceeds this (a few blocks' worth of threads — the "very high
/// degree vertex" criterion of the ALB paper).
pub const ALB_SPLIT_THRESHOLD: u64 = 4096;

/// Constant inefficiency of LB's per-edge binary searches.
pub const LB_OVERHEAD: f64 = 1.15;

/// Constant inefficiency of TB's missing sub-block expansion (low-degree
/// vertices underfill warps).
pub const TB_OVERHEAD: f64 = 1.10;

/// Work-distribution summary for one kernel launch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkDistribution {
    /// Total paper-equivalent edge units processed.
    pub total_work: u64,
    /// Load of the most-loaded thread block, in the same units, already
    /// including the scheduler's constant overhead factor.
    pub max_block_load: f64,
    /// Number of active vertices scheduled (scaled units).
    pub active_vertices: u64,
}

/// Distributes the active vertices' work over `num_blocks` blocks under
/// `balancer`, returning the resulting load summary.
///
/// `degrees` yields the degree of every *active* vertex; `work_scale` is
/// the dataset's paper-equivalence divisor.
pub fn distribute<I>(
    balancer: Balancer,
    degrees: I,
    work_scale: u64,
    num_blocks: u32,
) -> WorkDistribution
where
    I: IntoIterator<Item = u32>,
{
    let b = num_blocks.max(1) as f64;
    let mut total: u64 = 0;
    let mut active: u64 = 0;
    let mut max_item: u64 = 0;
    // ALB: work carried by vertices above the split threshold.
    let mut spread: u64 = 0;
    let mut rest_total: u64 = 0;
    let mut rest_max: u64 = 0;
    for d in degrees {
        let cost = (d as u64 + 1) * work_scale;
        total += cost;
        active += 1;
        max_item = max_item.max(cost);
        if cost > ALB_SPLIT_THRESHOLD {
            spread += cost;
        } else {
            rest_total += cost;
            rest_max = rest_max.max(cost);
        }
    }

    // Greedy dynamic scheduling puts the giant item on one block and fills
    // the others: max load ~= max(total/B, giant + (total - giant)/B).
    let greedy = |tot: u64, giant: u64| -> f64 {
        let tot = tot as f64;
        let giant = giant as f64;
        (tot / b).max(giant + (tot - giant) / b)
    };

    let max_block_load = match balancer {
        Balancer::Twc => greedy(total, max_item),
        Balancer::Tb => greedy(total, max_item) * TB_OVERHEAD,
        Balancer::Lb => (total as f64 / b) * LB_OVERHEAD,
        Balancer::Alb => {
            // Giants spread evenly (with a small coordination surcharge);
            // the rest behaves like TWC.
            greedy(rest_total, rest_max) + (spread as f64 / b) * 1.05
        }
    };

    WorkDistribution {
        total_work: total,
        max_block_load,
        active_vertices: active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: u32 = 112;

    #[test]
    fn balanced_work_is_scheduler_agnostic_modulo_overhead() {
        // 10k vertices of degree 8, scale 1: nothing to split.
        let degs = vec![8u32; 10_000];
        let twc = distribute(Balancer::Twc, degs.iter().copied(), 1, B);
        let alb = distribute(Balancer::Alb, degs.iter().copied(), 1, B);
        assert_eq!(twc.total_work, 90_000);
        assert!((twc.max_block_load - alb.max_block_load).abs() / twc.max_block_load < 0.06);
    }

    #[test]
    fn giant_vertex_hurts_twc_not_alb() {
        // One vertex with 1M edges among 10k degree-8 vertices.
        let mut degs = vec![8u32; 10_000];
        degs.push(1_000_000);
        let twc = distribute(Balancer::Twc, degs.iter().copied(), 1, B);
        let alb = distribute(Balancer::Alb, degs.iter().copied(), 1, B);
        // TWC: the giant dominates one block.
        assert!(twc.max_block_load > 1_000_000.0);
        // ALB: the giant spreads; max block close to total/B.
        let fair = twc.total_work as f64 / B as f64;
        assert!(
            alb.max_block_load < 1.6 * fair,
            "alb={} fair={fair}",
            alb.max_block_load
        );
        assert!(twc.max_block_load > 5.0 * alb.max_block_load);
    }

    #[test]
    fn work_scale_promotes_modest_degrees_to_giants() {
        // Scaled degree 40 with divisor 1024 = 41984 paper-equivalent
        // edges: above the ALB split threshold, exactly like the original
        // high-degree vertex it stands for.
        let mut degs = vec![2u32; 1000];
        degs.push(40);
        let twc = distribute(Balancer::Twc, degs.iter().copied(), 1024, B);
        let alb = distribute(Balancer::Alb, degs.iter().copied(), 1024, B);
        assert!(twc.max_block_load > 1.8 * alb.max_block_load);
    }

    #[test]
    fn lb_is_flat_but_taxed() {
        let mut degs = vec![8u32; 1000];
        degs.push(100_000);
        let lb = distribute(Balancer::Lb, degs.iter().copied(), 1, B);
        let fair = lb.total_work as f64 / B as f64;
        assert!((lb.max_block_load - fair * LB_OVERHEAD).abs() < 1e-6);
    }

    #[test]
    fn tb_matches_twc_shape_with_surcharge() {
        let degs = vec![4u32; 5000];
        let twc = distribute(Balancer::Twc, degs.iter().copied(), 1, B);
        let tb = distribute(Balancer::Tb, degs.iter().copied(), 1, B);
        assert!((tb.max_block_load / twc.max_block_load - TB_OVERHEAD).abs() < 1e-9);
    }

    #[test]
    fn empty_active_set() {
        let d = distribute(Balancer::Twc, std::iter::empty(), 1, B);
        assert_eq!(d.total_work, 0);
        assert_eq!(d.active_vertices, 0);
        assert_eq!(d.max_block_load, 0.0);
    }
}
