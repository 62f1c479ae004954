//! `serve_mix`: a resident [`JobServer`] under eight closed-loop jobs. One
//! operation is one job from submit to result.
//!
//! The loop is closed: two clients each keep four jobs outstanding, which
//! is eight slots that each submit, wait for the reply and submit again, so
//! a slower server receives less load. An epoch is a fixed set of
//! [`EPOCH_DRAWS`] jobs, three in ten of them repeats, in an order the seed
//! picks; between epochs the graph epoch is bumped, which invalidates the
//! result cache while other jobs are in flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dirgl::apps::{batched_betweenness_centrality_prepared, betweenness_centrality_prepared};
use dirgl::prelude::*;
use dirgl::serve::ServerStats;

use super::engine::{exactly, matches_reference, App};
use super::probe;
use super::{
    by_falling_out_degree, end_to_end, engine_layers, finish_traced, platform, repeat_setup,
    TimedOp,
};
use crate::catalog::SERVE_KINDS;
use crate::spans::{Recorder, Scope};
use crate::stats::{digest, mean, median, shuffle, splitmix};
use crate::{alloc, Checks, Metrics, Opts, Outcome};

const NAME: &str = "serve_mix";
/// twitter50 ÷16, CVC, Var4, 4 devices.
const DATASET: DatasetId = DatasetId::Twitter50;
const EXTRA: u64 = 16;
const POLICY: Policy = Policy::Cvc;
const DEVICES: u32 = 4;
/// Two clients with four jobs outstanding each.
const SLOTS: u32 = 8;
/// Draws between two epoch bumps: the pool once and [`REPEATS`].
const EPOCH_DRAWS: u64 = 40;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 256,
        ..ServeConfig::default()
    }
}

/// One entry of the job pool.
struct PoolEntry {
    /// Index into [`SERVE_KINDS`].
    kind: usize,
    spec: JobSpec,
}

fn kind_index(name: &str) -> usize {
    SERVE_KINDS
        .iter()
        .position(|k| *k == name)
        .expect("kind is in the catalog")
}

/// The fixed pool of 28 jobs: 12 bfs, 6 sssp and 2 bc single sources, the
/// four parameterless jobs, and four wide traversals. `by_degree` lists
/// vertices by falling out-degree.
fn job_pool(by_degree: &[u32]) -> Vec<PoolEntry> {
    let top = |k: usize| {
        let mut s = by_degree[..k.min(by_degree.len())].to_vec();
        s.sort_unstable();
        s
    };
    let mut pool = Vec::new();
    let mut push = |kind: &str, spec: JobSpec| {
        pool.push(PoolEntry {
            kind: kind_index(kind),
            spec,
        })
    };
    for &s in &top(12) {
        push("bfs", JobSpec::bfs(s));
    }
    for &s in &top(6) {
        push("sssp", JobSpec::sssp(s));
    }
    for &s in &top(2) {
        push("bc", JobSpec::bc(s));
    }
    push("pagerank", JobSpec::Pagerank);
    push("cc", JobSpec::Cc);
    push("kcore", JobSpec::KCore { k: 4 });
    push("kcore", JobSpec::KCore { k: 8 });
    push("bfs_wide", JobSpec::Bfs { sources: top(16) });
    push("bfs_wide", JobSpec::Bfs { sources: top(64) });
    push("sssp_wide", JobSpec::Sssp { sources: top(4) });
    push("bc_wide", JobSpec::Bc { sources: top(4) });
    pool
}

/// Pool entries an epoch asks for a second time: eight of the bfs and two
/// of the sssp single sources, pagerank and cc.
const REPEATS: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 20, 21];

/// The heavy draws of an epoch, a quarter of an epoch apart: pagerank, wide
/// sssp, wide bc, and pagerank again. Each costs ten to a hundred times a
/// light job, so where they fall decides how long the jobs around them
/// queue; left to the seed, that alone moved an epoch's median latency
/// between 20 and 180 ms (measured at ÷4).
const HEAVY: [usize; 4] = [20, 26, 27, 20];

/// The pool entry draw `i` of a run seeded `seed` asks for. Every epoch
/// asks for the same jobs, each pool entry once and [`REPEATS`] twice, so
/// every epoch and every seed carries the same work. The [`HEAVY`] draws
/// keep their places; the seed picks the order of the light ones between
/// them, afresh in every epoch.
fn draw(seed: u64, i: u64, pool_len: usize) -> usize {
    let stride = EPOCH_DRAWS / HEAVY.len() as u64;
    let (epoch, at) = (i / EPOCH_DRAWS, i % EPOCH_DRAWS);
    if at % stride == 0 {
        return HEAVY[(at / stride) as usize];
    }
    // The light draws: every draw of the epoch less one per heavy draw.
    let mut light: Vec<usize> = (0..pool_len).chain(REPEATS).collect();
    for h in HEAVY {
        let found = light.iter().position(|&e| e == h);
        light.swap_remove(found.expect("heavy draws are draws of the epoch"));
    }
    light.sort_unstable();
    shuffle(&mut light, seed ^ splitmix(epoch));
    light[(at - at / stride - 1) as usize]
}

/// Digest of a job's whole output: every source's values, in order.
fn outcome_digest(per_source: &[Vec<f64>]) -> u64 {
    per_source
        .iter()
        .fold(0, |h, values| splitmix(h ^ digest(values)))
}

/// One completed (or refused) job.
struct JobSample {
    entry: usize,
    secs: f64,
    /// When it completed, in seconds since its drive began.
    done_at: f64,
    from_cache: bool,
    /// `None` when the job was refused or errored.
    digest: Option<u64>,
}

/// When a drive stops taking new draws.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many draws.
    Jobs(u64),
    /// After this many seconds, but not before this many draws.
    Secs(f64, u64),
}

/// What one drive of the eight slots produced.
struct Drive {
    samples: Vec<JobSample>,
    bump_secs: Vec<f64>,
    wall_secs: f64,
}

/// Runs the eight slots over draws `first..` until `stop`. A slot that
/// takes a draw on an epoch boundary bumps the epoch first, beside the
/// other slots' jobs in flight.
fn drive(
    server: &JobServer,
    pool: &[PoolEntry],
    seed: u64,
    first: u64,
    stop: Stop,
    rec: &Recorder,
) -> Drive {
    let next = AtomicU64::new(first);
    let samples = Mutex::new(Vec::new());
    let bump_secs = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|threads| {
        for slot in 0..SLOTS {
            let (next, samples, bump_secs) = (&next, &samples, &bump_secs);
            threads.spawn(move || {
                let scope = rec.root(slot + 1);
                let mut mine = Vec::new();
                loop {
                    // Relaxed: the counter only hands out distinct draws.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let done = i - first;
                    let more = match stop {
                        Stop::Jobs(n) => done < n,
                        Stop::Secs(secs, min) => done < min || start.elapsed().as_secs_f64() < secs,
                    };
                    if !more {
                        break;
                    }
                    if i > first && i % EPOCH_DRAWS == 0 {
                        let (_, t) = scope.span("serve.bump_epoch", |_| server.bump_epoch());
                        bump_secs
                            .lock()
                            .expect("a slot panicked while bumping the epoch")
                            .push(t);
                    }
                    let entry = draw(seed, i, pool.len());
                    let (result, secs) = scope.span("serve.job", |s| {
                        let (handle, _) = s.span("serve.submit", |_| {
                            server.submit(JobRequest::new(pool[entry].spec.clone()))
                        });
                        handle
                            .ok()
                            .and_then(|h| s.span("serve.wait", |_| h.wait()).0.ok())
                    });
                    mine.push(JobSample {
                        entry,
                        secs,
                        done_at: start.elapsed().as_secs_f64(),
                        from_cache: result.as_ref().is_some_and(|r| r.from_cache),
                        digest: result.map(|r| outcome_digest(&r.outcome.per_source)),
                    });
                }
                samples
                    .lock()
                    .expect("a slot panicked while storing its samples")
                    .extend(mine);
            });
        }
    });
    Drive {
        wall_secs: start.elapsed().as_secs_f64(),
        samples: samples.into_inner().expect("every slot has been joined"),
        bump_secs: bump_secs.into_inner().expect("every slot has been joined"),
    }
}

/// The views a direct replay runs on: the server's own directed view, and
/// the two the server does not expose, prepared the way it prepares them.
struct Views<'a> {
    rt: &'a Runtime,
    directed: &'a PreparedPartition,
    symmetric: PreparedPartition,
    transpose: PreparedPartition,
}

/// A direct replay of one pool entry.
struct Replay {
    per_source: Vec<Vec<f64>>,
    secs: f64,
    /// More about a job that is a single scalar engine run.
    scalar: Option<ScalarRun>,
}

/// What a single scalar engine run adds to its [`Replay`].
struct ScalarRun {
    report: ExecutionReport,
    /// Allocator calls and bytes of the plain run.
    alloc: (u64, u64),
    /// Host seconds and `(round, device)` records of the same run traced.
    traced: Option<(f64, usize)>,
}

/// Runs `spec` directly through `Runtime::job` (or `.batch`), as the server
/// would, and traced too where the job is a single engine run.
fn replay(
    v: &Views<'_>,
    spec: &JobSpec,
    traced: bool,
    scope: Scope<'_>,
) -> Result<Replay, RunError> {
    fn single<P: dirgl::core::VertexProgram>(
        rt: &Runtime,
        prep: &PreparedPartition,
        program: &P,
        traced: bool,
        scope: Scope<'_>,
    ) -> Result<Replay, RunError> {
        let (c0, b0) = (alloc::calls(), alloc::bytes());
        let (out, secs) = scope.span("core.run", |_| rt.job(prep, program).execute());
        let alloc = (alloc::calls() - c0, alloc::bytes() - b0);
        let out = out?;
        let traced = if traced {
            let mut sink = CollectingSink::new();
            let (t, secs) = scope.span("core.run_traced", |_| {
                rt.job(prep, program).trace(&mut sink).execute()
            });
            t?;
            Some((secs, sink.records.len()))
        } else {
            None
        };
        Ok(Replay {
            per_source: vec![out.values],
            secs,
            scalar: Some(ScalarRun {
                report: out.report,
                alloc,
                traced,
            }),
        })
    }
    fn lanes<P: MultiSourceProgram>(
        v: &Views<'_>,
        program: &P,
        sources: &[u32],
        scope: Scope<'_>,
    ) -> Result<Replay, RunError> {
        let (out, secs) = scope.span("core.run", |_| {
            v.rt.job(v.directed, program)
                .backend(Backend::Lanes)
                .batch(sources)
                .execute()
        });
        Ok(wide(
            out?.lanes.into_iter().map(|l| l.values).collect(),
            secs,
        ))
    }
    fn wide(per_source: Vec<Vec<f64>>, secs: f64) -> Replay {
        Replay {
            per_source,
            secs,
            scalar: None,
        }
    }
    match spec {
        JobSpec::Bfs { sources } if sources.len() == 1 => {
            single(v.rt, v.directed, &Bfs::new(sources[0]), traced, scope)
        }
        JobSpec::Sssp { sources } if sources.len() == 1 => {
            single(v.rt, v.directed, &Sssp::new(sources[0]), traced, scope)
        }
        JobSpec::Pagerank => single(v.rt, v.directed, &PageRank::new(), traced, scope),
        JobSpec::Cc => single(v.rt, &v.symmetric, &Cc, traced, scope),
        JobSpec::KCore { k } => single(v.rt, &v.symmetric, &KCore::new(*k), traced, scope),
        JobSpec::Bfs { sources } => lanes(v, &Bfs::new(sources[0]), sources, scope),
        JobSpec::Sssp { sources } => lanes(v, &Sssp::new(sources[0]), sources, scope),
        JobSpec::Bc { sources } if sources.len() == 1 => {
            let (out, secs) = scope.span("core.run", |_| {
                betweenness_centrality_prepared(v.rt, v.directed, &v.transpose, sources[0])
            });
            Ok(wide(vec![out?.scores], secs))
        }
        JobSpec::Bc { sources } => {
            let (out, secs) = scope.span("core.run", |_| {
                batched_betweenness_centrality_prepared(v.rt, v.directed, &v.transpose, sources)
            });
            Ok(wide(out?.into_iter().map(|b| b.scores).collect(), secs))
        }
    }
}

/// True when the replay of `spec` matches the sequential reference, for
/// the kinds the reference covers (single sources and parameterless jobs).
fn replay_matches_reference(g: &Csr, spec: &JobSpec, values: &[f64]) -> bool {
    match spec {
        JobSpec::Bfs { sources } if sources.len() == 1 => {
            matches_reference(g, App::Bfs, sources[0], values)
        }
        JobSpec::Sssp { sources } if sources.len() == 1 => {
            matches_reference(g, App::Sssp, sources[0], values)
        }
        JobSpec::Pagerank => matches_reference(g, App::PageRank, 0, values),
        JobSpec::Cc => exactly(&reference::cc(g), values),
        _ => true,
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let rec = Recorder::new(opts.trace);
    let plain = Recorder::new(false);
    let root = rec.root(0);
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let extra = EXTRA * opts.scale;

    // --- Set-up: generate plus JobServer::load, several times over.
    let build = |s: Scope<'_>| {
        let (ds, _) = s.span("graph.generate", |_| DATASET.load_scaled(extra));
        let mut config = RunConfig::var4(POLICY).scale(ds.divisor);
        config.seed = opts.seed;
        let (server, _) = s.span("serve.load", |_| {
            JobServer::load(
                &ds.graph,
                platform(DEVICES, opts.scale),
                config.clone(),
                serve_config(),
            )
            .expect("the contract's inputs are not degenerate")
        });
        (ds, config, server)
    };
    let ((ds, config, server), setup_secs) = repeat_setup(opts, || {
        // Dropping the previous server joins its workers.
        root.span("setup", build)
    });

    let pool = job_pool(&by_falling_out_degree(&ds.graph));
    // 240 jobs and 6 epochs for 100 operations elsewhere.
    let min_jobs = (opts.min_ops as u64 * 12).div_ceil(5);

    // --- Warm-up: one epoch's worth of draws no timed epoch repeats.
    drive(
        &server,
        &pool,
        !opts.seed,
        0,
        Stop::Jobs(EPOCH_DRAWS),
        &plain,
    );
    server.bump_epoch();
    let before = server.stats();

    let mut samples = Vec::new();
    let mut bump_secs = Vec::new();
    let mut trace_walls = (0.0, 0.0);
    if !opts.trace {
        let d = drive(
            &server,
            &pool,
            opts.seed,
            0,
            Stop::Secs(opts.seconds, min_jobs),
            &plain,
        );
        samples = d.samples;
        bump_secs = d.bump_secs;
    } else {
        // Epochs alternate plain and traced on the same draws, each from an
        // empty cache, so the two walls compare like with like.
        let start = Instant::now();
        let mut epoch = 0;
        while epoch * 2 * EPOCH_DRAWS < min_jobs.div_ceil(4)
            || start.elapsed().as_secs_f64() < opts.seconds
        {
            for (r, wall) in [(&plain, &mut trace_walls.0), (&rec, &mut trace_walls.1)] {
                let d = drive(
                    &server,
                    &pool,
                    opts.seed,
                    epoch * EPOCH_DRAWS,
                    Stop::Jobs(EPOCH_DRAWS),
                    r,
                );
                *wall += d.wall_secs;
                samples.extend(d.samples);
                bump_secs.push(root.span("serve.bump_epoch", |_| server.bump_epoch()).1);
            }
            epoch += 1;
        }
    }
    let stats = server.stats();
    let peak_bytes = alloc::peak_bytes();

    // --- Every job against its direct replay, and the replays the
    // sequential reference covers against it.
    let rt = Runtime::new(platform(DEVICES, opts.scale), config);
    let views = Views {
        rt: &rt,
        directed: server.directed_view(),
        symmetric: rt
            .prepare(&ds.graph, true)
            .expect("the contract's inputs are not degenerate"),
        transpose: rt
            .prepare(&ds.graph.transpose(), false)
            .expect("the contract's inputs are not degenerate"),
    };
    let mut seen = vec![false; pool.len()];
    for s in &samples {
        seen[s.entry] = true;
    }
    let mut ref_check_secs = Vec::new();
    let replays: Vec<Option<Replay>> = pool
        .iter()
        .zip(&seen)
        .map(|(entry, &seen)| {
            if !seen {
                return None;
            }
            let r = root
                .span("replay", |s| replay(&views, &entry.spec, opts.trace, s))
                .0
                .ok()?;
            let (ok, t) = root.span("apps.ref_check", |_| {
                replay_matches_reference(
                    views_graph(&views, &entry.spec),
                    &entry.spec,
                    &r.per_source[0],
                )
            });
            ref_check_secs.push(t);
            checks.require(ok, || {
                format!("{NAME}: {:?} differs from apps::reference", entry.spec)
            });
            Some(r)
        })
        .collect();
    let replay_digests: Vec<Option<u64>> = replays
        .iter()
        .map(|r| r.as_ref().map(|r| outcome_digest(&r.per_source)))
        .collect();
    let failed = samples
        .iter()
        .filter(|s| s.digest.is_none() || s.digest != replay_digests[s.entry])
        .count() as u64;
    let attempted = samples.len() as u64;

    if !opts.trace {
        // Segments are an epoch's worth of jobs in completion order.
        let mut ops: Vec<TimedOp> = samples
            .iter()
            .map(|s| TimedOp {
                secs: s.secs,
                done_at: s.done_at,
            })
            .collect();
        ops.sort_by(|a, b| a.done_at.total_cmp(&b.done_at));
        end_to_end(&mut m, &setup_secs, &ops, EPOCH_DRAWS as usize, peak_bytes);
    } else {
        serve_layers(&mut m, &samples, &pool, &replays, &before, &stats);
        m.set("serve.bump_epoch_us", median(&bump_secs) * 1e6);
        let loads: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "serve.load")
            .map(|s| s.secs())
            .collect();
        m.set("serve.load_ms", median(&loads) * 1e3);

        // The engine-side layers, per scalar single-engine job of the pool.
        let scalar: Vec<(f64, &ScalarRun)> = replays
            .iter()
            .flatten()
            .filter_map(|r| Some((r.secs, r.scalar.as_ref()?)))
            .collect();
        let runs: Vec<(&ExecutionReport, usize)> = scalar
            .iter()
            .map(|(_, s)| (&s.report, s.traced.map_or(0, |t| t.1)))
            .collect();
        let jobs = scalar.len() as f64;
        let plain_secs: f64 = scalar.iter().map(|(secs, _)| secs).sum();
        let traced_secs: f64 = scalar.iter().filter_map(|(_, s)| Some(s.traced?.0)).sum();
        engine_layers(&mut m, plain_secs / jobs, ds.divisor, &runs);
        let calls: u64 = scalar.iter().map(|(_, s)| s.alloc.0).sum();
        let bytes: u64 = scalar.iter().map(|(_, s)| s.alloc.1).sum();
        m.set("core.allocs_per_run", calls as f64 / jobs);
        m.set("core.alloc_kb_per_run", bytes as f64 / jobs / 1e3);
        m.set("core.trace_overhead_share", traced_secs / plain_secs - 1.0);
        m.set("apps.ref_check_ms", mean(&ref_check_secs) * 1e3);
        m.set("setup_cold_s", setup_secs[0]);
        m.set("trace_overhead_share", trace_walls.1 / trace_walls.0 - 1.0);
        // Over all jobs together: a cache hit lasts microseconds, of which
        // the two clock reads between its spans are a large share.
        m.set(
            "span_coverage_share",
            crate::spans::child_coverage(&rec.spans(), "serve.job").1,
        );
        m.set("fail_share", failed as f64 / attempted as f64);
    }
    drop(views);
    server.shutdown();
    let probe = probe::ProbeSpec {
        dataset: DATASET,
        extra,
        policy: POLICY,
        devices: DEVICES,
        seed: opts.seed,
    };

    let mut out = Outcome {
        workload: NAME,
        attempted,
        failed,
        checks,
        metrics: m,
        notes: vec![
            (
                "dataset".into(),
                format!("{} /{}", DATASET.name(), ds.divisor),
            ),
            ("vertices".into(), ds.graph.num_vertices().to_string()),
            ("edges".into(), ds.graph.num_edges().to_string()),
            ("devices".into(), DEVICES.to_string()),
            ("pool".into(), pool.len().to_string()),
            ("jobs".into(), attempted.to_string()),
            ("epoch_bumps".into(), bump_secs.len().to_string()),
            (
                "cache_hits".into(),
                (stats.cache_hits - before.cache_hits).to_string(),
            ),
            (
                "coalesced".into(),
                (stats.coalesced - before.coalesced).to_string(),
            ),
        ],
    };
    finish_traced(&mut out, opts, &rec, &probe, &rt);
    out
}

/// The graph view `spec`'s reference runs on.
fn views_graph<'a>(v: &'a Views<'_>, spec: &JobSpec) -> &'a Csr {
    if spec.needs_symmetric() {
        v.symmetric.graph()
    } else {
        v.directed.graph()
    }
}

/// The `serve.*` metrics of a traced run, from the jobs' samples, their
/// replays and the server's counters over the timed region.
fn serve_layers(
    m: &mut Metrics,
    samples: &[JobSample],
    pool: &[PoolEntry],
    replays: &[Option<Replay>],
    before: &ServerStats,
    after: &ServerStats,
) {
    let accepted = (after.accepted - before.accepted) as f64;
    m.set(
        "serve.cache_hit_share",
        (after.cache_hits - before.cache_hits) as f64 / accepted,
    );
    m.set(
        "serve.coalesced_share",
        (after.coalesced - before.coalesced) as f64 / accepted,
    );
    m.set("serve.degraded", (after.degraded - before.degraded) as f64);
    m.set("serve.retries", (after.retries - before.retries) as f64);
    m.set(
        "serve.rejected",
        ((after.rejected_saturated + after.rejected_invalid + after.rejected_gov)
            - (before.rejected_saturated + before.rejected_invalid + before.rejected_gov))
            as f64,
    );
    let hits: Vec<f64> = samples
        .iter()
        .filter(|s| s.from_cache)
        .map(|s| s.secs)
        .collect();
    if !hits.is_empty() {
        m.set("serve.hit_p50_us", median(&hits) * 1e6);
    }
    let misses = || {
        samples
            .iter()
            .filter(|s| !s.from_cache && s.digest.is_some())
    };
    let engine_of = |entry: usize| replays[entry].as_ref().map_or(0.0, |r| r.secs);
    let miss_secs: f64 = misses().map(|s| s.secs).sum();
    let engine_secs: f64 = misses().map(|s| engine_of(s.entry)).sum();
    m.set("serve.queue_share", 1.0 - engine_secs / miss_secs);
    for (k, kind) in SERVE_KINDS.iter().enumerate() {
        let lat: Vec<f64> = misses()
            .filter(|s| pool[s.entry].kind == k)
            .map(|s| s.secs)
            .collect();
        if !lat.is_empty() {
            m.set(&format!("serve.miss_p50_ms.{kind}"), median(&lat) * 1e3);
        }
        let engine: Vec<f64> = pool
            .iter()
            .zip(replays)
            .filter(|(e, _)| e.kind == k)
            .filter_map(|(_, r)| r.as_ref().map(|r| r.secs))
            .collect();
        if !engine.is_empty() {
            m.set(&format!("serve.engine_ms.{kind}"), median(&engine) * 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_epoch_of_every_seed_asks_for_the_same_jobs() {
        let order = |seed: u64, epoch: u64| -> Vec<usize> {
            (0..EPOCH_DRAWS)
                .map(|p| draw(seed, epoch * EPOCH_DRAWS + p, 28))
                .collect()
        };
        let mut want: Vec<usize> = (0..28).chain(REPEATS).collect();
        want.sort_unstable();
        for (seed, epoch) in [(1, 0), (1, 1), (2, 0), (u64::MAX, 7)] {
            let mut got = order(seed, epoch);
            got.sort_unstable();
            assert_eq!(got, want);
        }
        assert_ne!(order(1, 0), order(2, 0));
        assert_ne!(order(1, 0), order(1, 1));
        assert_eq!(order(1, 3), order(1, 3));
        for at in [0, 10, 20, 30] {
            assert_eq!(order(5, 2)[at], HEAVY[at / 10]);
        }
    }

    #[test]
    fn the_pool_names_every_kind_of_the_catalog() {
        let g = RmatConfig::new(8, 8).seed(1).generate();
        let pool = job_pool(&by_falling_out_degree(&g));
        assert_eq!(pool.len() + REPEATS.len(), EPOCH_DRAWS as usize);
        for (k, kind) in SERVE_KINDS.iter().enumerate() {
            assert!(pool.iter().any(|e| e.kind == k), "{kind}");
        }
        assert!(REPEATS.iter().all(|&r| r < pool.len()));
    }
}
