//! The three engine workloads: one operation is one `Runtime::job` run to
//! convergence against a resident [`PreparedPartition`].

use dirgl::prelude::*;

use super::{finish_traced, platform, probe, repeat_setup, seeded_sources, Serial};
use crate::spans::{Recorder, Scope};
use crate::stats::{digest, mean};
use crate::{Checks, Metrics, Opts, Outcome};

/// The program an engine workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Residual pagerank (no source).
    PageRank,
    /// Breadth-first search from a seeded source.
    Bfs,
    /// Shortest paths from a seeded source.
    Sssp,
}

/// One engine workload.
pub struct EngineSpec {
    /// Contract name.
    pub name: &'static str,
    /// Input analogue.
    pub dataset: DatasetId,
    /// Extra divisor on the catalog divisor.
    pub extra: u64,
    /// Partitioning policy.
    pub policy: Policy,
    /// Var3 runs the BSP engine, Var4 the BASP engine.
    pub variant: fn() -> Variant,
    /// Simulated devices.
    pub devices: u32,
    /// Program.
    pub app: App,
}

/// twitter50 ÷4, IEC, Var3 (BSP), 16 devices, pagerank.
pub const PR_DENSE: EngineSpec = EngineSpec {
    name: "pr_dense",
    dataset: DatasetId::Twitter50,
    extra: 4,
    policy: Policy::Iec,
    variant: Variant::var3,
    devices: 16,
    app: App::PageRank,
};

/// clueweb12 ÷8, CVC, Var3 (BSP), 64 devices, bfs.
pub const BFS_BSP_HIGHDIAM: EngineSpec = EngineSpec {
    name: "bfs_bsp_highdiam",
    dataset: DatasetId::Clueweb12,
    extra: 8,
    policy: Policy::Cvc,
    variant: Variant::var3,
    devices: 64,
    app: App::Bfs,
};

/// The same graph and partition, Var4 (BASP), sssp.
pub const SSSP_BASP_HIGHDIAM: EngineSpec = EngineSpec {
    name: "sssp_basp_highdiam",
    dataset: DatasetId::Clueweb12,
    extra: 8,
    policy: Policy::Cvc,
    variant: Variant::var4,
    devices: 64,
    app: App::Sssp,
};

/// Runs `app` from `source` against `prep`, traced into `sink` if given.
pub fn execute(
    rt: &Runtime,
    prep: &PreparedPartition,
    app: App,
    source: u32,
    sink: Option<&mut CollectingSink>,
) -> Result<dirgl::core::RunOutput, RunError> {
    fn go<P: dirgl::core::VertexProgram>(
        rt: &Runtime,
        prep: &PreparedPartition,
        program: &P,
        sink: Option<&mut CollectingSink>,
    ) -> Result<dirgl::core::RunOutput, RunError> {
        match sink {
            Some(s) => rt.job(prep, program).trace(s).execute(),
            None => rt.job(prep, program).execute(),
        }
    }
    match app {
        App::PageRank => go(rt, prep, &PageRank::new(), sink),
        App::Bfs => go(rt, prep, &Bfs::new(source), sink),
        App::Sssp => go(rt, prep, &Sssp::new(source), sink),
    }
}

/// Largest relative pagerank error the value check allows, with the
/// denominator floored at the teleport mass, as the repository's own
/// convergence tests measure it (the engine holds ranks in f32 and drops
/// residuals below 1e-4; the reference is f64).
const PAGERANK_TOLERANCE: f64 = 0.02;

/// True when the engine's `values` are exactly the reference's integers.
pub fn exactly(want: &[u32], values: &[f64]) -> bool {
    want.len() == values.len() && want.iter().zip(values).all(|(w, v)| *v == *w as f64)
}

/// Compares `values` with the sequential reference for `app`.
pub fn matches_reference(g: &Csr, app: App, source: u32, values: &[f64]) -> bool {
    match app {
        App::Bfs => exactly(&reference::bfs(g, source), values),
        App::Sssp => exactly(&reference::sssp(g, source), values),
        App::PageRank => {
            let p = PageRank::new();
            let want = reference::pagerank(g, p.alpha as f64, p.tolerance as f64, p.rounds_cap);
            want.len() == values.len()
                && want
                    .iter()
                    .zip(values)
                    .all(|(w, v)| (v - w).abs() / w.max(1.0 - p.alpha as f64) < PAGERANK_TOLERANCE)
        }
    }
}

/// What every operation from one source must reproduce bit for bit.
pub struct Golden {
    /// The traversal source (ignored by pagerank).
    pub source: u32,
    /// Digest of the values.
    pub digest: u64,
    /// The untraced run's report.
    pub report: ExecutionReport,
    /// `(round, device)` records a traced run delivers.
    pub device_rounds: usize,
}

impl Golden {
    /// True when `out` reproduces the values and every simulated statistic.
    pub fn reproduced_by(&self, out: &Result<dirgl::core::RunOutput, RunError>) -> bool {
        out.as_ref().is_ok_and(|o| {
            digest(&o.values) == self.digest && same_simulation(&o.report, &self.report)
        })
    }
}

/// True when two runs agree on every simulated statistic.
fn same_simulation(a: &ExecutionReport, b: &ExecutionReport) -> bool {
    a.total_time == b.total_time
        && a.compute_per_device == b.compute_per_device
        && a.wait_per_host == b.wait_per_host
        && a.comm_bytes == b.comm_bytes
        && a.messages == b.messages
        && a.rounds == b.rounds
        && a.work_items == b.work_items
        && a.memory_per_device == b.memory_per_device
}

/// One plain and one traced run of `app` per source: the values are held
/// against the sequential reference, the traced simulation against the
/// plain one. Returns the goldens and the mean reference-check seconds.
pub fn golden_runs(
    rt: &Runtime,
    prep: &PreparedPartition,
    app: App,
    sources: &[u32],
    scope: Scope<'_>,
    checks: &mut Checks,
) -> (Vec<Golden>, f64) {
    let mut ref_check_secs = Vec::new();
    let golden = sources
        .iter()
        .map(|&source| {
            let out = execute(rt, prep, app, source, None)
                .expect("the contract's inputs fit the devices");
            let (ok, t) = scope.span("apps.ref_check", |_| {
                matches_reference(prep.graph(), app, source, &out.values)
            });
            ref_check_secs.push(t);
            checks.require(ok, || {
                format!("{app:?} from {source} differs from apps::reference")
            });
            let mut sink = CollectingSink::new();
            let traced = execute(rt, prep, app, source, Some(&mut sink));
            let golden = Golden {
                source,
                digest: digest(&out.values),
                report: out.report,
                device_rounds: sink.records.len(),
            };
            checks.require(golden.reproduced_by(&traced), || {
                format!("tracing changed {app:?} from {source}")
            });
            golden
        })
        .collect();
    (golden, mean(&ref_check_secs))
}

/// One full set-up: generates `dataset` at `extra` and prepares it on
/// `devices` devices under the configuration `config` builds from the
/// dataset's divisor.
pub fn set_up(
    s: Scope<'_>,
    opts: &Opts,
    (dataset, extra, devices): (DatasetId, u64, u32),
    config: impl FnOnce(u64) -> RunConfig,
) -> (Dataset, Runtime, PreparedPartition) {
    let (ds, _) = s.span("graph.generate", |_| dataset.load_scaled(extra));
    let mut config = config(ds.divisor);
    config.seed = opts.seed;
    let rt = Runtime::new(platform(devices, opts.scale), config);
    let (prep, _) = s.span("core.prepare", |_| {
        rt.prepare(&ds.graph, false)
            .expect("the contract's inputs are not degenerate")
    });
    (ds, rt, prep)
}

/// Runs one engine workload.
pub fn run(spec: &EngineSpec, opts: &Opts) -> Outcome {
    let rec = Recorder::new(opts.trace);
    let root = rec.root(0);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let extra = spec.extra * opts.scale;

    // --- Set-up: generate plus Runtime::prepare, several times over.
    let input = (spec.dataset, extra, spec.devices);
    let ((ds, rt, prep), setup_secs) = repeat_setup(opts, || {
        root.span("setup", |s| {
            set_up(s, opts, input, |divisor| {
                RunConfig::new(spec.policy, (spec.variant)()).scale(divisor)
            })
        })
    });

    let sources = match spec.app {
        App::PageRank => vec![0],
        App::Bfs | App::Sssp => seeded_sources(&ds.graph, opts.seed),
    };
    let (golden, ref_check_secs) = golden_runs(&rt, &prep, spec.app, &sources, root, &mut checks);

    // One operation: the engine run and the check of its result. Returns
    // the wall time of the engine run and whether the check passed.
    let op = |i: usize, traced: bool, scope: Scope<'_>| -> (f64, bool) {
        let g = &golden[i % golden.len()];
        let mut sink = traced.then(CollectingSink::new);
        let (out, secs) = scope.span("core.run", |_| {
            execute(&rt, &prep, spec.app, g.source, sink.as_mut())
        });
        let (ok, _) = scope.span("check.digest", |_| g.reproduced_by(&out));
        (secs, ok)
    };
    let serial = Serial {
        opts,
        rec: &rec,
        setup_secs: &setup_secs,
        golden: &golden,
        divisor: ds.divisor,
        runs_per_op: 1.0,
        ref_check_secs,
    };
    let (attempted, failed) = serial.measure(&mut m, op);

    let mut out = Outcome {
        workload: spec.name,
        attempted,
        failed,
        checks,
        metrics: m,
        notes: vec![
            (
                "dataset".into(),
                format!("{} /{}", spec.dataset.name(), ds.divisor),
            ),
            ("vertices".into(), ds.graph.num_vertices().to_string()),
            ("edges".into(), ds.graph.num_edges().to_string()),
            ("devices".into(), spec.devices.to_string()),
            ("policy".into(), spec.policy.name().to_string()),
            ("variant".into(), (spec.variant)().label()),
            ("timed_ops".into(), attempted.to_string()),
        ],
    };
    let probe = probe::ProbeSpec {
        dataset: spec.dataset,
        extra,
        policy: spec.policy,
        devices: spec.devices,
        seed: opts.seed,
    };
    finish_traced(&mut out, opts, &rec, &probe, &rt);
    out
}
