//! Wall-clock + allocation + digest benchmark for the host hot path:
//! fig3-style 16-device runs (twitter50, IEC, Var3) of the engine alone
//! (sparsity-proportional [`ExtractIndex`] extraction over each link's
//! participant span, scratch-buffer pooling, word-at-a-time kernel
//! bodies), written to `BENCH_hotpath.json`.
//!
//! Per benchmark the file records `wall_s`, the exact heap-allocation
//! count `allocs` (from the shared
//! [`dirgl_bench::alloc::TrackingAlloc`] wrapper; the
//! top-level `peak_rss_bytes` is the exact byte high-water mark) and
//! `digest`, the FNV-1a-64 hash of the run's `ExecutionReport` `Debug`
//! text and vertex-value bits. `bench_gate` holds a fresh file against the
//! committed one at matched `extra_scale`: the digests must be equal and
//! the allocation counts must not have grown. Wall time is a trend, not a
//! gate.
//!
//! Each timed pass runs `--reps` times (default 1) after one untimed
//! warm-up and reports the minimum wall time; the allocation count and
//! the digest are those of the last pass (every pass of a deterministic
//! engine produces the same ones).
//!
//! ```sh
//! cargo run --release --bin bench_hotpath -- [--scale N] [--reps N] [--out PATH]
//! ```
//!
//! [`ExtractIndex`]: dirgl_comm::ExtractIndex

use std::num::{NonZeroU32, NonZeroU64};
use std::time::Instant;

use dirgl_apps::{Bfs, PageRank};
use dirgl_bench::alloc::{self, TrackingAlloc};
use dirgl_bench::cli::{or_exit, write_output, ArgStream, CliError};
use dirgl_bench::{fnv1a64, BenchId, LoadedDataset};
use dirgl_core::{PreparedPartition, RunConfig, RunOutput, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const DEVICES: u32 = 16;
const BENCHES: [BenchId; 2] = [BenchId::Bfs, BenchId::Pagerank];

const USAGE: &str = "usage: bench_hotpath [--scale N] [--reps N] [--out PATH]";

struct Opts {
    extra_scale: NonZeroU64,
    reps: NonZeroU32,
    out_path: String,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        reps: NonZeroU32::MIN,
        out_path: "BENCH_hotpath.json".to_string(),
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--reps" => o.reps = it.parsed("--reps", "a positive integer")?,
            "--out" => o.out_path = it.value("--out")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

fn run(bench: BenchId, ld: &LoadedDataset, rt: &Runtime, prep: &PreparedPartition) -> RunOutput {
    let g = prep.graph();
    match bench {
        BenchId::Bfs => rt
            .runner(g, &Bfs::from_max_out_degree(&ld.ds.graph))
            .partition(prep)
            .execute(),
        BenchId::Pagerank => rt.runner(g, &PageRank::new()).partition(prep).execute(),
        other => panic!("hot-path bench does not run {other}"),
    }
    .unwrap()
}

fn main() {
    let Opts {
        extra_scale,
        reps,
        out_path,
    } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

    let ld = LoadedDataset::load(DatasetId::Twitter50, extra_scale.get());
    let mut cfg = RunConfig::new(Policy::Iec, Variant::var3());
    cfg.scale_divisor = ld.ds.divisor;
    cfg.seed = 0x5EED;
    let rt = Runtime::new(Platform::bridges(DEVICES), cfg);
    // One prepared partition (plan + degrees), so the timed region is the
    // engine alone — per-run partitioning, sync-plan construction and
    // degree scans all happen once, out here.
    let prep = rt.prepare(&ld.ds.graph, false).unwrap();

    println!("bench_hotpath: twitter50/IEC/Var3 @ {DEVICES} devices\n");

    let mut rows = Vec::new();
    let mut wall_total = 0.0f64;
    for bench in BENCHES {
        // Untimed warm-up: first contact with a workload pays allocator and
        // page-fault costs that would otherwise be billed to the first pass.
        run(bench, &ld, &rt, &prep);

        let mut wall_s = f64::INFINITY;
        let mut allocs = 0;
        let mut last = None;
        for _ in 0..reps.get() {
            let a0 = alloc::alloc_count();
            let t0 = Instant::now();
            let out = run(bench, &ld, &rt, &prep);
            wall_s = wall_s.min(t0.elapsed().as_secs_f64());
            allocs = alloc::alloc_count() - a0;
            last = Some(out);
        }
        let out = last.expect("reps >= 1");
        let report = format!("{:?}", out.report).into_bytes();
        let values = out.values.iter().flat_map(|v| v.to_bits().to_le_bytes());
        let digest = fnv1a64(report.into_iter().chain(values));
        println!(
            "{:>8}: {wall_s:.3}s, {allocs} allocs, digest {digest:016x}",
            bench.name()
        );
        wall_total += wall_s;
        rows.push(format!(
            "    {{\"bench\": \"{}\", \"wall_s\": {wall_s:.6}, \"allocs\": {allocs}, \
             \"digest\": \"{digest:016x}\"}}",
            bench.name()
        ));
    }

    let peak_rss_bytes = alloc::peak_bytes();
    println!("\ntotal: {wall_total:.3}s");

    let json = format!(
        "{{\n  \"dataset\": \"twitter50\",\n  \"policy\": \"iec\",\n  \"variant\": \"Var3\",\n  \
         \"devices\": {DEVICES},\n  \"extra_scale\": {extra_scale},\n  \
         \"peak_rss_bytes\": {peak_rss_bytes},\n  \"wall_s\": {wall_total:.6},\n  \
         \"per_bench\": [\n{}\n  ],\n  \
         \"note\": \"Min-over-reps wall-clock, exact heap-allocation counts and FNV-1a-64 result \
         digests (ExecutionReport Debug text + vertex value bits) for the engine only (prepared \
         partition, sync plan and degrees built once outside the timed region). bench_gate \
         compares digests (equal) and allocs (not grown) with the committed file at matched \
         extra_scale.\"\n}}\n",
        rows.join(",\n")
    );
    or_exit(write_output(&out_path, &json), USAGE);
    println!("wrote {out_path}");
}
