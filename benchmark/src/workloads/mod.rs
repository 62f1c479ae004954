//! The five workloads and what they share: seeded source choice, the
//! warm-up and timed-region protocol, and the end-to-end metric arithmetic.

use std::time::Instant;

use dirgl::prelude::*;

use crate::spans::{Recorder, Scope};
use crate::stats::{mean, median, quantile, shuffle};
use crate::{alloc, Metrics, Opts, Outcome};

mod engine;
mod ingest;
mod probe;
mod serve;

/// Runs workload `name` under `opts`; `None` when there is no such
/// workload.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    // `peak_mb` is this workload's own, whatever ran in the process before.
    alloc::reset_peak();
    match name {
        "pr_dense" => Some(engine::run(&engine::PR_DENSE, opts)),
        "bfs_bsp_highdiam" => Some(engine::run(&engine::BFS_BSP_HIGHDIAM, opts)),
        "sssp_basp_highdiam" => Some(engine::run(&engine::SSSP_BASP_HIGHDIAM, opts)),
        "ingest_cold" => Some(ingest::run(opts)),
        "serve_mix" => Some(serve::run(opts)),
        _ => None,
    }
}

/// The simulated cluster: `devices` P100s on the Bridges interconnect. A
/// smoke run that shrinks the inputs by `scale` grows device memory alike,
/// because the modelled per-device overhead does not shrink with the graph
/// and the smallest inputs would no longer fit. At the contract's sizes
/// (`scale` 1) this is `Platform::bridges` unchanged.
fn platform(devices: u32, scale: u64) -> Platform {
    let mut p = Platform::bridges(devices);
    for gpu in &mut p.gpus {
        gpu.memory_bytes *= scale;
    }
    p
}

/// Traversal sources a run cycles through.
const SOURCES: usize = 8;

/// The [`SOURCES`] vertices of highest out-degree (ties to the lower id),
/// in an order `seed` picks. Every run visits all of them equally often, so
/// the distribution of operation times does not depend on the seed; only
/// their order does.
fn seeded_sources(g: &Csr, seed: u64) -> Vec<u32> {
    let mut sources = by_falling_out_degree(g);
    sources.truncate(SOURCES);
    shuffle(&mut sources, seed);
    sources
}

/// The vertices of `g` by falling out-degree, ties to the lower id.
fn by_falling_out_degree(g: &Csr) -> Vec<u32> {
    let mut vs: Vec<u32> = (0..g.num_vertices()).collect();
    vs.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    vs
}

/// Drops the previous state, builds a new one `opts.setups` times and
/// returns the last with every set-up's length in seconds.
fn repeat_setup<T>(opts: &Opts, mut build: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut state = None;
    let mut secs = Vec::with_capacity(opts.setups);
    for _ in 0..opts.setups.max(1) {
        // The old state goes first, so two never count towards the peak.
        drop(state.take());
        let (s, t) = build();
        secs.push(t);
        state = Some(s);
    }
    (state.expect("at least one set-up ran"), secs)
}

/// Runs `op(i)` until at least `opts.warmup_ops` operations and
/// `opts.warmup_secs` seconds have passed.
fn warm_up(opts: &Opts, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < opts.warmup_ops || start.elapsed().as_secs_f64() < opts.warmup_secs {
        op(i);
        i += 1;
    }
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
struct TimedOp {
    /// Its latency in seconds.
    secs: f64,
    /// When it completed, in seconds since the timed region began.
    done_at: f64,
}

/// Runs `op(i)`, which returns its own latency in seconds, until at least
/// `min_ops` operations and `seconds` seconds have passed.
fn timed_region(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> f64) -> Vec<TimedOp> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let secs = op(ops.len());
        ops.push(TimedOp {
            secs,
            done_at: start.elapsed().as_secs_f64(),
        });
    }
    ops
}

/// The end-to-end metrics of a run.
///
/// `ops` are the timed operations in completion order. They are cut into
/// segments of `segment_ops` consecutive operations; each segment gives a
/// median, a p90 and a throughput, and the run reports the median of each
/// over its segments. A burst of interference from outside the process
/// then spoils the segments it hits and not the run: with plain quantiles
/// over all operations, a burst over a tenth of the run moves the p90, and
/// any burst moves the throughput.
///
/// `setup_secs` are the set-ups and `peak_bytes` the allocator's high-water
/// mark when the timed region ended (the output checks that follow are the
/// benchmark's own memory).
fn end_to_end(
    m: &mut Metrics,
    setup_secs: &[f64],
    ops: &[TimedOp],
    segment_ops: usize,
    peak_bytes: u64,
) {
    let segments: Vec<&[TimedOp]> = if ops.len() >= segment_ops {
        ops.chunks_exact(segment_ops).collect()
    } else {
        vec![ops]
    };
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut began = 0.0;
    for seg in segments {
        let secs: Vec<f64> = seg.iter().map(|o| o.secs).collect();
        let ended = seg.last().expect("segments are not empty").done_at;
        p50.push(median(&secs));
        p90.push(quantile(&secs, 0.9));
        rate.push(seg.len() as f64 / (ended - began));
        began = ended;
    }
    m.set("setup_s", median(setup_secs));
    m.set("op_p50_ms", median(&p50) * 1e3);
    m.set("op_p90_ms", median(&p90) * 1e3);
    m.set("ops_per_s", median(&rate));
    m.set("peak_mb", peak_bytes as f64 / 1e6);
}

/// Operations per segment of a serial workload: five segments in the
/// fewest operations a run times.
const SEGMENT_OPS: usize = 20;

/// What a traced run does last: the layer probes on `spec`, then the spans
/// to disk, checked to form a tree. An end-to-end run does neither.
fn finish_traced(
    out: &mut Outcome,
    opts: &Opts,
    rec: &Recorder,
    spec: &probe::ProbeSpec,
    rt: &Runtime,
) {
    if !opts.trace {
        return;
    }
    probe::layers(rec.root(0), spec, rt, &mut out.metrics, &mut out.checks);
    let path = opts
        .out_dir
        .join(format!("{}-seed{}.jsonl", out.workload, opts.seed));
    if let Err(e) = rec.write_jsonl(&path) {
        out.checks
            .fail(format!("writing spans to {}: {e}", path.display()));
    }
    if let Err(e) = crate::spans::check_tree(&rec.spans()) {
        out.checks.fail(e);
    }
}

/// The per-layer metrics an engine run feeds: `run_s` is the host time of
/// one run, `runs` one report per distinct input with the `(round, device)`
/// records a traced run of it delivers, each weighted equally. Counts and
/// simulated times are means over `runs`, so they do not depend on how many
/// operations the timed region fitted.
fn engine_layers(m: &mut Metrics, run_s: f64, divisor: u64, runs: &[(&ExecutionReport, usize)]) {
    let per_run = |f: &dyn Fn(&ExecutionReport) -> f64| {
        mean(&runs.iter().map(|r| f(r.0)).collect::<Vec<_>>())
    };
    let sim_s = per_run(&|r| r.total_time.as_secs_f64());
    let rounds = per_run(&|r| r.max_rounds as f64);
    let device_rounds = mean(&runs.iter().map(|r| r.1 as f64).collect::<Vec<_>>());
    let messages = per_run(&|r| r.messages as f64);
    let work_items = per_run(&|r| r.work_items as f64);
    m.set("core.run_ms", run_s * 1e3);
    m.set("core.rounds", rounds);
    m.set("core.device_rounds", device_rounds);
    m.set("core.us_per_device_round", run_s * 1e6 / device_rounds);
    // `work_items` is paper-equivalent: host edges times the divisor.
    m.set(
        "core.ns_per_edge",
        run_s * 1e9 * divisor as f64 / work_items,
    );
    m.set("core.host_per_sim", run_s / sim_s);
    m.set("comm.messages", messages);
    m.set("comm.bytes", per_run(&|r| r.comm_bytes as f64));
    m.set("comm.msgs_per_round", messages / rounds);
    m.set(
        "comm.min_wait_sim_s",
        per_run(&|r| r.min_wait().as_secs_f64()),
    );
    m.set(
        "comm.device_comm_sim_s",
        per_run(&|r| r.device_comm().as_secs_f64()),
    );
    m.set(
        "gpusim.max_compute_sim_s",
        per_run(&|r| r.max_compute().as_secs_f64()),
    );
    m.set("gpusim.work_items", work_items);
    m.set("gpusim.dynamic_balance", per_run(&|r| r.dynamic_balance()));
    m.set(
        "gpusim.peak_device_bytes",
        per_run(&|r| r.max_memory() as f64),
    );
    m.set("sim_s", sim_s);
}

/// The measuring half of a workload whose operations run one after another
/// on the main thread (all but `serve_mix`).
struct Serial<'a> {
    opts: &'a Opts,
    /// Receives the spans of traced operations.
    rec: &'a Recorder,
    setup_secs: &'a [f64],
    /// What the engine runs inside an operation must reproduce.
    golden: &'a [engine::Golden],
    divisor: u64,
    /// Engine runs inside one operation.
    runs_per_op: f64,
    /// Mean seconds of one check against `apps::reference`.
    ref_check_secs: f64,
}

impl Serial<'_> {
    /// Warms up, then times `op(i, traced, scope)`, which returns the wall
    /// time of its engine runs and whether its output checks passed.
    ///
    /// The end-to-end run times plain operations and stores the end-to-end
    /// metrics. The traced run alternates a plain and a traced operation on
    /// the same input, so that both medians see the same machine state, and
    /// stores the per-layer metrics an operation feeds. Returns operations
    /// attempted and failed.
    fn measure(
        &self,
        m: &mut Metrics,
        op: impl Fn(usize, bool, Scope<'_>) -> (f64, bool),
    ) -> (u64, u64) {
        let Serial { opts, golden, .. } = *self;
        let off = Recorder::new(false);
        let plain = |i: usize| off.root(0).span("op", |s| op(i, false, s));
        warm_up(opts, |i| {
            plain(i);
        });

        let mut failed = 0u64;
        if !opts.trace {
            let ops = timed_region(opts.seconds, opts.min_ops, |i| {
                let ((_, ok), secs) = plain(i);
                failed += u64::from(!ok);
                secs
            });
            end_to_end(m, self.setup_secs, &ops, SEGMENT_OPS, alloc::peak_bytes());
            let sims: Vec<f64> = golden
                .iter()
                .map(|g| g.report.total_time.as_secs_f64())
                .collect();
            m.set("sim_s", mean(&sims));
            return (ops.len() as u64, failed);
        }

        let (mut plain_run, mut plain_op) = (Vec::new(), Vec::new());
        let (mut traced_run, mut traced_op) = (Vec::new(), Vec::new());
        let (mut calls, mut bytes) = (Vec::new(), Vec::new());
        let pairs = timed_region(opts.seconds, opts.min_ops.div_ceil(4), |i| {
            let (c0, b0) = (alloc::calls(), alloc::bytes());
            let ((run, ok), whole) = plain(i);
            calls.push((alloc::calls() - c0) as f64);
            bytes.push((alloc::bytes() - b0) as f64);
            plain_run.push(run);
            plain_op.push(whole);
            failed += u64::from(!ok);
            let ((run, ok), traced_whole) = self.rec.root(0).span("op", |s| op(i, true, s));
            traced_run.push(run);
            traced_op.push(traced_whole);
            failed += u64::from(!ok);
            whole + traced_whole
        });
        let attempted = 2 * pairs.len() as u64;

        let runs: Vec<(&ExecutionReport, usize)> = golden
            .iter()
            .map(|g| (&g.report, g.device_rounds))
            .collect();
        engine_layers(
            m,
            median(&plain_run) / self.runs_per_op,
            self.divisor,
            &runs,
        );
        m.set("core.allocs_per_run", median(&calls));
        m.set("core.alloc_kb_per_run", median(&bytes) / 1e3);
        m.set(
            "core.trace_overhead_share",
            median(&traced_run) / median(&plain_run) - 1.0,
        );
        m.set("apps.ref_check_ms", self.ref_check_secs * 1e3);
        m.set("setup_cold_s", self.setup_secs[0]);
        m.set(
            "trace_overhead_share",
            median(&traced_op) / median(&plain_op) - 1.0,
        );
        m.set(
            "span_coverage_share",
            crate::spans::child_coverage(&self.rec.spans(), "op").0,
        );
        m.set("fail_share", failed as f64 / attempted as f64);
        (attempted, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` back-to-back operations of `secs` each, the ones in `slow` ten
    /// times as long.
    fn serial_ops(n: usize, secs: f64, slow: std::ops::Range<usize>) -> Vec<TimedOp> {
        let mut now = 0.0;
        (0..n)
            .map(|i| {
                let secs = if slow.contains(&i) { secs * 10.0 } else { secs };
                now += secs;
                TimedOp { secs, done_at: now }
            })
            .collect()
    }

    #[test]
    fn a_burst_spoils_its_segment_and_not_the_run() {
        let mut calm = Metrics::default();
        end_to_end(&mut calm, &[1.0], &serial_ops(100, 0.1, 0..0), 20, 0);
        // 15 slow operations in a row: beyond what a plain p90 or a plain
        // mean over the run would shrug off.
        let mut burst = Metrics::default();
        end_to_end(&mut burst, &[1.0], &serial_ops(100, 0.1, 20..35), 20, 0);
        for name in ["op_p50_ms", "op_p90_ms", "ops_per_s"] {
            let (a, b) = (calm.get(name).unwrap(), burst.get(name).unwrap());
            assert!((a - b).abs() < 1e-9 * a, "{name}: {a} vs {b}");
        }
        assert!((calm.get("op_p50_ms").unwrap() - 100.0).abs() < 1e-9);
        assert!((calm.get("ops_per_s").unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fewer_operations_than_a_segment_still_report() {
        let mut m = Metrics::default();
        end_to_end(
            &mut m,
            &[2.0, 1.0, 3.0],
            &serial_ops(5, 0.5, 0..0),
            20,
            3_000_000,
        );
        assert_eq!(m.get("setup_s"), Some(2.0));
        assert_eq!(m.get("peak_mb"), Some(3.0));
        assert!((m.get("ops_per_s").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn every_seed_visits_the_same_sources() {
        let g = RmatConfig::new(8, 8).seed(1).generate();
        let sorted = |seed| {
            let mut s = seeded_sources(&g, seed);
            s.sort_unstable();
            s
        };
        assert_eq!(sorted(1), sorted(2));
        assert_eq!(sorted(1).len(), SOURCES);
        assert_eq!(seeded_sources(&g, 5), seeded_sources(&g, 5));
    }
}
