//! Throughput/latency benchmark for the resident job-server: one
//! [`JobServer`] loads twitter50 once, then a mixed matrix of 16 distinct
//! jobs (bfs/sssp/bc from spread-out sources, pagerank, cc, kcore) is
//! submitted by concurrent clients at server concurrency 1, 4 and 16 —
//! first cold (every job executes), then resubmitted verbatim (every job
//! a cache hit). Client-observed latency (submit → result, queueing
//! included) and jobs/sec go to `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release --bin bench_serve -- [--scale N] [--gpus N] [--out PATH]
//! ```

use std::num::{NonZeroU32, NonZeroU64};
use std::time::Instant;

use dirgl_bench::cli::{or_exit, write_output, ArgStream, CliError};
use dirgl_bench::LoadedDataset;
use dirgl_core::RunConfig;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;
use dirgl_serve::{JobServer, JobSpec, ServeConfig};

const USAGE: &str = "usage: bench_serve [--scale N] [--gpus N] [--out PATH]";
const CONCURRENCY: [usize; 3] = [1, 4, 16];

struct Opts {
    extra_scale: NonZeroU64,
    gpus: NonZeroU32,
    out_path: String,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        gpus: NonZeroU32::new(4).unwrap(),
        out_path: "BENCH_serve.json".to_string(),
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--gpus" => o.gpus = it.parsed("--gpus", "a positive integer")?,
            "--out" => o.out_path = it.value("--out")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

/// The mixed 16-job matrix: traversals from sources spread across the id
/// space (the first is the paper's max-out-degree convention), plus the
/// source-free programs.
fn job_matrix(server: &JobServer) -> Vec<JobSpec> {
    let n = server.directed_view().num_vertices();
    let base = server.default_source().expect("non-empty graph");
    let spread = |k: u32| (base.wrapping_add(k.wrapping_mul(n / 8 + 1))) % n;
    let mut jobs = Vec::new();
    for k in 0..6 {
        jobs.push(JobSpec::bfs(spread(k)));
    }
    for k in 0..4 {
        jobs.push(JobSpec::sssp(spread(k)));
    }
    for k in 0..2 {
        jobs.push(JobSpec::bc(spread(k)));
    }
    jobs.push(JobSpec::Pagerank);
    jobs.push(JobSpec::Cc);
    jobs.push(JobSpec::KCore { k: 4 });
    jobs.push(JobSpec::KCore { k: 8 });
    jobs
}

/// One pass: every job submitted by its own client thread; returns
/// (wall seconds, sorted per-job latencies in seconds).
fn run_pass(server: &JobServer, jobs: &[JobSpec]) -> (f64, Vec<f64>) {
    let t0 = Instant::now();
    let mut lats: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|spec| {
                let spec = spec.clone();
                s.spawn(move || {
                    let t = Instant::now();
                    let h = server.submit_spec(spec).expect("submit refused");
                    h.wait().expect("job failed");
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (wall, lats)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn pass_json(label: &str, wall: f64, lats: &[f64]) -> String {
    format!(
        "\"{label}\": {{\"wall_s\": {wall:.6}, \"jobs_per_s\": {:.3}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
        lats.len() as f64 / wall,
        percentile(lats, 0.50) * 1e3,
        percentile(lats, 0.99) * 1e3,
    )
}

fn main() {
    let Opts {
        extra_scale,
        gpus,
        out_path,
    } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

    let ld = LoadedDataset::load(DatasetId::Twitter50, extra_scale.get());
    let g = &ld.ds.graph;
    println!(
        "bench_serve: twitter50 (|V|={} |E|={}), CVC/Var4 @ {gpus} GPUs\n",
        g.num_vertices(),
        g.num_edges()
    );

    let mut rows = Vec::new();
    for conc in CONCURRENCY {
        let serve_cfg = ServeConfig {
            workers: conc,
            queue_capacity: 256,
            cache_capacity: 128,
            start_paused: false,
            ..ServeConfig::default()
        };
        let t_load = Instant::now();
        let server = JobServer::load(
            g,
            Platform::bridges(gpus.get()),
            RunConfig::var4(Policy::Cvc).scale(ld.ds.divisor),
            serve_cfg,
        )
        .expect("load failed");
        let load_s = t_load.elapsed().as_secs_f64();
        let jobs = job_matrix(&server);

        let (cold_wall, cold_lats) = run_pass(&server, &jobs);
        let after_cold = server.stats();
        assert_eq!(
            after_cold.cache_misses,
            jobs.len() as u64,
            "cold pass must execute every job"
        );
        assert_eq!(after_cold.cache_hits, 0, "cold pass must not hit the cache");

        let (hit_wall, hit_lats) = run_pass(&server, &jobs);
        let after_hit = server.stats();
        assert_eq!(
            after_hit.cache_hits,
            jobs.len() as u64,
            "warm pass must be served entirely from the cache"
        );
        assert_eq!(
            after_hit.cache_misses, after_cold.cache_misses,
            "warm pass must not execute anything"
        );

        println!(
            "concurrency {conc:>2}: load {load_s:.3}s | cold {:.1} jobs/s \
             (p50 {:.0}ms, p99 {:.0}ms) | cache-hit {:.0} jobs/s (p50 {:.2}ms, p99 {:.2}ms)",
            jobs.len() as f64 / cold_wall,
            percentile(&cold_lats, 0.50) * 1e3,
            percentile(&cold_lats, 0.99) * 1e3,
            jobs.len() as f64 / hit_wall,
            percentile(&hit_lats, 0.50) * 1e3,
            percentile(&hit_lats, 0.99) * 1e3,
        );
        rows.push(format!(
            "    {{\"concurrency\": {conc}, \"jobs\": {}, \"load_s\": {load_s:.6}, \
             {}, {}}}",
            jobs.len(),
            pass_json("cold", cold_wall, &cold_lats),
            pass_json("cache_hit", hit_wall, &hit_lats),
        ));
        server.shutdown();
    }

    let json = format!(
        "{{\n  \"dataset\": \"twitter50\",\n  \"policy\": \"cvc\",\n  \"variant\": \"Var4\",\n  \
         \"devices\": {gpus},\n  \"extra_scale\": {extra_scale},\n  \
         \"job_matrix\": \"bfs x6 + sssp x4 + bc x2 + pagerank + cc + kcore x2 (16 distinct jobs)\",\n  \
         \"runs\": [\n{}\n  ],\n  \
         \"note\": \"Resident JobServer: dataset loaded/partitioned once per server, then the \
         16-job matrix submitted by concurrent client threads at server concurrency 1/4/16. \
         Latency is client-observed submit-to-result (queueing included). The cold pass executes \
         every job (asserted via cache_misses); the cache_hit pass resubmits the identical matrix \
         and is served entirely from the keyed result cache (asserted via cache_hits).\"\n}}\n",
        rows.join(",\n")
    );
    or_exit(write_output(&out_path, &json), USAGE);
    println!("\nwrote {out_path}");
}
