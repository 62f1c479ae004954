//! Availability benchmark for the resident job-server under seeded chaos:
//! what fraction of an accepted mixed job stream the service still answers
//! — and at what latency — while links drop/duplicate/delay messages,
//! devices crash and straggle, memory pressure forces lane-width
//! degradation, deadlines churn and the queue saturates.
//!
//! One scenario matrix on twitter50/CVC/Var3 (BSP, checkpoints every 2
//! rounds when faults are armed), 4 devices:
//!
//! * `baseline` — no faults, the mixed 13-job stream.
//! * `link_chaos` — 5% drop + 2% duplicate + 1% delayed links.
//! * `crash_rejoin` / `crash_dead` — device 1 crashes at round 2 (with and
//!   without rejoin) under 5% drop, plus a 4× straggler window on device 2.
//! * `memory_pressure` — device capacities tightened (via the server's own
//!   footprint oracle) so the wide bfs batch must walk the degradation
//!   ladder.
//! * `deadline_churn` — half the stream queued behind a paused server with
//!   already-hopeless deadlines, the rest fresh.
//! * `saturation` — a 2-slot queue against a 12-job burst.
//!
//! Every scenario reports availability = (completed + cache hits) /
//! accepted, the degradation/shed counters, and p50/p99
//! client-observed latencies of the jobs that did complete, on stderr:
//! the latencies are host-clock figures and the degradation counts move
//! with thread timing, so nothing here is committed. Counters must
//! reconcile (`accepted = completed + cache_hits + failed + expired +
//! rejected_gov + shut_down`), and the fault-free baseline must serve
//! every job it accepts, or the binary aborts.
//!
//! ```sh
//! cargo run --release --bin bench_chaos -- [--scale N] [--seed N]
//! ```

use std::num::NonZeroU64;
use std::time::{Duration, Instant};

use dirgl_bench::cli::{or_exit, ArgStream, CliError};
use dirgl_bench::LoadedDataset;
use dirgl_comm::FaultPlan;
use dirgl_core::{RunConfig, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;
use dirgl_serve::{JobRequest, JobServer, JobSpec, ServeConfig, ServerStats};

const DEVICES: u32 = 4;
const USAGE: &str = "usage: bench_chaos [--scale N] [--seed N]";

struct Opts {
    extra_scale: NonZeroU64,
    seed: u64,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        seed: 7,
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--seed" => o.seed = it.parsed("--seed", "a fault seed")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

/// The mixed stream: two wide batches, singleton traversals (coalescible),
/// and the parameterless kinds. 13 distinct jobs.
fn stream(server: &JobServer) -> Vec<JobSpec> {
    let n = server.directed_view().num_vertices();
    let spread = |k: u32, of: u32| (k * n) / of;
    let mut jobs = vec![
        JobSpec::Bfs {
            sources: (0..16).map(|k| spread(k, 16)).collect(),
        },
        JobSpec::Sssp {
            sources: (0..16).map(|k| spread(k, 16)).collect(),
        },
        JobSpec::Pagerank,
        JobSpec::Cc,
        JobSpec::KCore { k: 4 },
    ];
    for k in 0..4 {
        jobs.push(JobSpec::bfs(spread(k, 4) + 1));
    }
    for k in 0..4 {
        jobs.push(JobSpec::sssp(spread(k, 4) + 1));
    }
    jobs
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Submits every request from its own client thread, waits for all, and
/// returns the sorted latencies of the *successful* jobs.
fn run_stream(server: &JobServer, reqs: Vec<JobRequest>) -> Vec<f64> {
    let outcomes: Vec<Option<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .into_iter()
            .map(|req| {
                s.spawn(move || {
                    let t = Instant::now();
                    match server.submit(req) {
                        Ok(h) => h.wait().ok().map(|_| t.elapsed().as_secs_f64()),
                        Err(_) => None,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut lats: Vec<f64> = outcomes.into_iter().flatten().collect();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    lats
}

/// Aborts if the server's books do not balance.
fn reconcile(label: &str, s: &ServerStats) {
    assert_eq!(
        s.submitted,
        s.accepted + s.rejected_saturated + s.rejected_invalid,
        "{label}: submission counters do not reconcile: {s:?}"
    );
    assert_eq!(
        s.accepted,
        s.completed + s.cache_hits + s.failed + s.expired + s.rejected_gov + s.shut_down,
        "{label}: terminal counters do not reconcile: {s:?}"
    );
}

/// Prints one scenario's availability, counters and latencies to stderr.
fn report(label: &str, lats: &[f64], s: &ServerStats) {
    let served = s.completed + s.cache_hits;
    eprintln!(
        "{label:>16}: availability {:.3} ({served}/{} accepted) | degraded {} \
         shed {} rejected {} expired {} failed {} | p50 {:.1}ms p99 {:.1}ms",
        served as f64 / s.accepted.max(1) as f64,
        s.accepted,
        s.degraded,
        s.shed,
        s.rejected_gov + s.rejected_saturated,
        s.expired,
        s.failed,
        percentile(lats, 0.50) * 1e3,
        percentile(lats, 0.99) * 1e3,
    );
}

fn load(g: &dirgl_graph::Csr, platform: Platform, cfg: RunConfig, serve: ServeConfig) -> JobServer {
    JobServer::load(g, platform, cfg, serve).expect("server load failed")
}

fn main() {
    let Opts { extra_scale, seed } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

    let ld = LoadedDataset::load(DatasetId::Twitter50, extra_scale.get());
    let g = &ld.ds.graph;
    let base_cfg = || RunConfig::new(Policy::Cvc, Variant::var3()).scale(ld.ds.divisor);
    let faulty_cfg = |plan: FaultPlan| base_cfg().with_faults(plan).with_checkpoints(2);
    let link_plan = || {
        FaultPlan::seeded(seed)
            .with_drop(0.05)
            .with_duplicate(0.02)
            .with_delay(0.01, 0.005)
    };
    println!(
        "bench_chaos: twitter50 (|V|={} |E|={}), CVC/Var3 @ {DEVICES} devices, seed {seed}\n",
        g.num_vertices(),
        g.num_edges()
    );

    // baseline / link_chaos / crash_rejoin / crash_dead: full stream.
    let storms = [
        ("baseline", base_cfg()),
        ("link_chaos", faulty_cfg(link_plan())),
        (
            "crash_rejoin",
            faulty_cfg(
                link_plan()
                    .with_crash(1, 2, true)
                    .with_straggler(2, 1, 3, 4.0),
            ),
        ),
        (
            "crash_dead",
            faulty_cfg(
                link_plan()
                    .with_crash(1, 2, false)
                    .with_straggler(2, 1, 3, 4.0),
            ),
        ),
    ];
    for (label, cfg) in storms {
        let server = load(g, Platform::bridges(DEVICES), cfg, ServeConfig::default());
        let reqs = stream(&server).into_iter().map(JobRequest::new).collect();
        let lats = run_stream(&server, reqs);
        let stats = server.stats();
        reconcile(label, &stats);
        if label == "baseline" {
            assert_eq!(
                stats.completed + stats.cache_hits,
                stats.accepted,
                "baseline: a fault-free server must serve every job it accepts"
            );
        }
        report(label, &lats, &stats);
        server.shutdown();
    }

    // memory_pressure: tighten capacities between the 4-wide and 16-wide
    // footprints of the wide bfs batch, so it must degrade to fit.
    {
        let probe = load(
            g,
            Platform::bridges(DEVICES),
            base_cfg(),
            ServeConfig::default(),
        );
        let wide = JobSpec::Bfs {
            sources: (0..16).map(|k| (k * g.num_vertices()) / 16).collect(),
        };
        let f16 = *probe
            .predict_footprint(&wide, 16)
            .unwrap()
            .iter()
            .max()
            .unwrap();
        let f4 = *probe
            .predict_footprint(&wide, 4)
            .unwrap()
            .iter()
            .max()
            .unwrap();
        probe.shutdown();
        let mut platform = Platform::bridges(DEVICES);
        for gpu in &mut platform.gpus {
            gpu.memory_bytes = (f4 + f16) / 2;
        }
        let server = load(g, platform, faulty_cfg(link_plan()), ServeConfig::default());
        let reqs = stream(&server).into_iter().map(JobRequest::new).collect();
        let lats = run_stream(&server, reqs);
        let stats = server.stats();
        reconcile("memory_pressure", &stats);
        assert!(stats.degraded >= 1, "pressure scenario must degrade");
        report("memory_pressure", &lats, &stats);
        server.shutdown();
    }

    // deadline_churn: stale half queued behind a paused server with 1ms
    // deadlines, fresh half without; resume and drain.
    {
        let server = load(
            g,
            Platform::bridges(DEVICES),
            faulty_cfg(link_plan()),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        server.pause();
        let jobs = stream(&server);
        let (stale, fresh) = jobs.split_at(jobs.len() / 2);
        let stale_handles: Vec<_> = stale
            .iter()
            .map(|j| {
                server
                    .submit(JobRequest::new(j.clone()).deadline(Duration::from_millis(1)))
                    .expect("queue fits the stream")
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let reqs = fresh.iter().cloned().map(JobRequest::new).collect();
        server.resume();
        let lats = run_stream(&server, reqs);
        for h in &stale_handles {
            let _ = h.wait();
        }
        server.drain();
        let stats = server.stats();
        reconcile("deadline_churn", &stats);
        assert!(stats.expired >= 1, "stale deadlines must expire");
        report("deadline_churn", &lats, &stats);
        server.shutdown();
    }

    // saturation: a 2-slot queue against a 12-job burst while paused.
    {
        let server = load(
            g,
            Platform::bridges(DEVICES),
            faulty_cfg(link_plan()),
            ServeConfig {
                workers: 1,
                queue_capacity: 2,
                cache_capacity: 0,
            },
        );
        server.pause();
        let reqs: Vec<JobRequest> = (1..=12)
            .map(|k| JobRequest::new(JobSpec::KCore { k }))
            .collect();
        let t0 = Instant::now();
        let handles: Vec<_> = reqs.into_iter().map(|r| server.submit(r)).collect();
        server.resume();
        let mut lats = Vec::new();
        for h in handles.into_iter().flatten() {
            if h.wait().is_ok() {
                lats.push(t0.elapsed().as_secs_f64());
            }
        }
        server.drain();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let stats = server.stats();
        reconcile("saturation", &stats);
        assert!(stats.rejected_saturated >= 1, "the burst must overflow");
        report("saturation", &lats, &stats);
        server.shutdown();
    }

    println!("counters reconciled in every scenario; the fault-free baseline served every job");
}
