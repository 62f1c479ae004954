//! A lane batch's predicted footprint is the engine's charge: the
//! value-lane adapter's [`MultiRunner::footprint`] costs exactly the bytes
//! the engine's load check charges when the same launch executes, on every
//! partition policy, both engines and every lane count tried.

use dirgl_apps::Sssp;
use dirgl_core::{RunConfig, Runtime, Variant, LANE_WIDTH};
use dirgl_gpusim::Platform;
use dirgl_graph::weights::randomize_weights;
use dirgl_graph::{Csr, RmatConfig};
use dirgl_partition::Policy;

const POLICIES: [Policy; 4] = [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc];

fn graph() -> Csr {
    randomize_weights(&RmatConfig::new(8, 6).seed(13).generate(), 100, 5)
}

/// `k` distinct sources spread across the vertex range.
fn sources(g: &Csr, k: u32) -> Vec<u32> {
    let n = g.num_vertices();
    (0..k).map(|i| (i * n) / k).collect()
}

#[test]
fn sssp_lane_footprint_is_the_engine_charge() {
    let g = graph();
    for policy in POLICIES {
        for variant in [Variant::var1(), Variant::var4()] {
            let rt = Runtime::new(Platform::bridges(4), RunConfig::new(policy, variant));
            let prep = rt.prepare(&g, false).unwrap();
            for k in [1u32, 16, 64] {
                let srcs = sources(&g, k);
                let program = Sssp::new(srcs[0]);
                let batch = || rt.job(&prep, &program).batch(&srcs).lane_width(LANE_WIDTH);
                let predicted = batch().footprint().unwrap();
                let out = batch().execute().unwrap();
                assert_eq!(out.engine_reports.len(), 1, "K={k} is one launch");
                assert_eq!(
                    out.engine_reports[0].memory_per_device,
                    predicted,
                    "{policy:?}/{}/K={k}: prediction must equal the engine's charge",
                    variant.label()
                );
            }
        }
    }
}
