//! Layer probes of the traced run: each public construction step of the
//! `graph`, `partition`, `comm` and `core` layers, called on its own on the
//! workload's input, in a span of its own. Every workload runs the same
//! probes, so every workload reports the same build-side metrics.

use dirgl::comm::SyncPlan;
use dirgl::prelude::*;

use crate::spans::Scope;
use crate::stats::median;
use crate::{Checks, Metrics};

/// Times each step is probed; the metric is the median.
const REPS: usize = 3;

/// Edges the external sort may hold at once. Small enough that the
/// contract's inputs spill several runs each.
pub const CHUNK_EDGES: usize = 65_536;

/// The input and partition shape to probe.
pub struct ProbeSpec {
    /// Input analogue.
    pub dataset: DatasetId,
    /// Extra divisor on the catalog divisor.
    pub extra: u64,
    /// Partitioning policy.
    pub policy: Policy,
    /// Simulated devices.
    pub devices: u32,
    /// Partitioner seed.
    pub seed: u64,
}

/// The median length in milliseconds of [`REPS`] spans named `name` around
/// `f`, with the last result.
fn probe_ms<T>(scope: Scope<'_>, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        drop(last.take());
        let (out, t) = scope.span(name, |_| f());
        secs.push(t);
        last = Some(out);
    }
    (last.expect("REPS is positive"), median(&secs) * 1e3)
}

/// Probes every build-side layer on `spec` and stores the `graph.*`,
/// `partition.*`, `comm.syncplan_build_ms`, `core.prepare_ms` and
/// `core.layout_build_ms` metrics.
pub fn layers(
    scope: Scope<'_>,
    spec: &ProbeSpec,
    rt: &Runtime,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    scope.span("probe", |s| {
        let (ds, ms) = probe_ms(s, "graph.generate", || spec.dataset.load_scaled(spec.extra));
        m.set("graph.generate_ms", ms);
        m.set("graph.edges", ds.graph.num_edges() as f64);
        let g = &ds.graph;

        let (_, ms) = probe_ms(s, "graph.symmetrize", || g.symmetrize());
        m.set("graph.symmetrize_ms", ms);
        let (_, ms) = probe_ms(s, "graph.transpose", || g.transpose());
        m.set("graph.transpose_ms", ms);

        let (cds, ms) = probe_ms(s, "graph.stream_ingest", || {
            spec.dataset.load_scaled_compressed(spec.extra, CHUNK_EDGES)
        });
        m.set("graph.stream_ingest_ms", ms);
        m.set(
            "graph.compress_ratio",
            g.bytes() as f64 / cds.graph.memory_bytes() as f64,
        );

        let (part, ms) = probe_ms(s, "partition.build", || {
            Partition::build(g, spec.policy, spec.devices, spec.seed)
        });
        m.set("partition.build_ms", ms);
        let (streamed, ms) = probe_ms(s, "partition.build_streamed", || {
            Partition::build_streamed(&cds.graph, spec.policy, spec.devices, spec.seed)
        });
        m.set("partition.build_streamed_ms", ms);
        checks.require(streamed == part, || {
            "the streamed partition differs from the in-memory one".into()
        });
        let pm = PartitionMetrics::compute(&part);
        m.set("partition.replication_factor", pm.replication_factor);
        m.set("partition.static_balance", pm.static_balance);

        let (_, ms) = probe_ms(s, "comm.syncplan_build", || {
            SyncPlan::build(&part, true, true)
        });
        m.set("comm.syncplan_build_ms", ms);

        let (_, ms) = probe_ms(s, "core.prepare", || {
            rt.prepare(g, false)
                .expect("the contract's inputs are not degenerate")
        });
        m.set("core.prepare_ms", ms);

        // The runs themselves keep the default (insertion) layout; the probe
        // asks for the automatic choice so that it times a real LayoutPlan.
        let mut secs = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let prep = PreparedPartition::build(g.clone(), spec.policy, spec.devices, spec.seed)
                .expect("the contract's inputs are not degenerate");
            secs.push(
                s.span("core.layout_build", |_| {
                    prep.with_layout(LayoutChoice::Auto)
                })
                .1,
            );
        }
        m.set("core.layout_build_ms", median(&secs) * 1e3);
    });
}
