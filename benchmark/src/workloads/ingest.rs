//! `ingest_cold`: one operation is one cold ingest cycle, the in-memory
//! path and the external-sort path side by side, ending in one bfs on each
//! partition whose values must be bit-identical.

use dirgl::prelude::*;

use super::engine::{execute, golden_runs, set_up, App};
use super::probe::{self, CHUNK_EDGES};
use super::{finish_traced, repeat_setup, seeded_sources, Serial};
use crate::spans::{Recorder, Scope};
use crate::{Checks, Metrics, Opts, Outcome};

const NAME: &str = "ingest_cold";
/// uk07 ÷16, CVC, 16 devices.
const DATASET: DatasetId = DatasetId::Uk07;
const EXTRA: u64 = 16;
const POLICY: Policy = Policy::Cvc;
const DEVICES: u32 = 16;

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let rec = Recorder::new(opts.trace);
    let root = rec.root(0);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let extra = EXTRA * opts.scale;

    // --- Set-up: generate plus Runtime::prepare, to pick the sources and
    // pin what the bfs from each must produce.
    let ((ds, rt, prep), setup_secs) = repeat_setup(opts, || {
        root.span("setup", |s| {
            set_up(s, opts, (DATASET, extra, DEVICES), |divisor| {
                RunConfig::var4(POLICY).scale(divisor)
            })
        })
    });
    let divisor = ds.divisor;
    let sources = seeded_sources(&ds.graph, opts.seed);
    let (golden, ref_check_secs) = golden_runs(&rt, &prep, App::Bfs, &sources, root, &mut checks);
    drop((ds, prep));

    // One cold cycle. Returns the wall time of the two bfs runs and whether
    // both reproduced the golden values.
    let op = |i: usize, traced: bool, s: Scope<'_>| -> (f64, bool) {
        let g = &golden[i % golden.len()];
        let (ds, _) = s.span("graph.generate", |_| DATASET.load_scaled(extra));
        let (directed, _) = s.span("core.prepare", |_| rt.prepare(&ds.graph, false));
        let (symmetric, _) = s.span("core.prepare_symmetric", |_| rt.prepare(&ds.graph, true));
        let (cds, _) = s.span("graph.stream_ingest", |_| {
            DATASET.load_scaled_compressed(extra, CHUNK_EDGES)
        });
        let (streamed, _) = s.span("partition.build_streamed", |_| {
            Partition::build_streamed(&cds.graph, POLICY, DEVICES, opts.seed)
        });
        let (Ok(directed), Ok(_symmetric)) = (directed, symmetric) else {
            return (0.0, false);
        };
        let mut sinks = traced.then(|| (CollectingSink::new(), CollectingSink::new()));
        let (plain, t_plain) = s.span("core.run", |_| {
            let sink = sinks.as_mut().map(|s| &mut s.0);
            execute(&rt, &directed, App::Bfs, g.source, sink)
        });
        let bfs = Bfs::new(g.source);
        let (on_streamed, t_streamed) = s.span("core.run_streamed", |_| {
            let runner = rt.runner(&ds.graph, &bfs).partition(&streamed);
            match sinks.as_mut() {
                Some(s) => runner.trace(&mut s.1).execute(),
                None => runner.execute(),
            }
        });
        let (ok, _) = s.span("check.digest", |_| {
            g.reproduced_by(&plain) && g.reproduced_by(&on_streamed)
        });
        (t_plain + t_streamed, ok)
    };
    let serial = Serial {
        opts,
        rec: &rec,
        setup_secs: &setup_secs,
        golden: &golden,
        divisor,
        runs_per_op: 2.0,
        ref_check_secs,
    };
    let (attempted, failed) = serial.measure(&mut m, op);
    if opts.trace {
        let coverage = m.get("span_coverage_share").unwrap_or(0.0);
        checks.require(coverage >= 0.9, || {
            format!("{NAME}: spans cover only {coverage:.3} of an operation")
        });
    }

    let mut out = Outcome {
        workload: NAME,
        attempted,
        failed,
        checks,
        metrics: m,
        notes: vec![
            ("dataset".into(), format!("{} /{divisor}", DATASET.name())),
            ("devices".into(), DEVICES.to_string()),
            ("policy".into(), POLICY.name().to_string()),
            ("chunk_edges".into(), CHUNK_EDGES.to_string()),
            ("timed_ops".into(), attempted.to_string()),
        ],
    };
    let probe = probe::ProbeSpec {
        dataset: DATASET,
        extra,
        policy: POLICY,
        devices: DEVICES,
        seed: opts.seed,
    };
    finish_traced(&mut out, opts, &rec, &probe, &rt);
    out
}
