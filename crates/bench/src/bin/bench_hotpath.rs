//! Allocation + digest benchmark for the host hot path: fig3-style
//! 16-device runs (twitter50, IEC, Var3) of the engine alone
//! (sparsity-proportional [`ExtractIndex`] extraction over each link's
//! participant span, scratch-buffer pooling, word-at-a-time kernel
//! bodies).
//!
//! Per benchmark stdout carries the exact heap-allocation count of one
//! run (from the shared [`dirgl_bench::alloc::TrackingAlloc`] wrapper)
//! and `digest`, the FNV-1a-64 hash of the run's `ExecutionReport`
//! `Debug` text and vertex-value bits. At one pool thread those lines
//! repeat byte for byte, and `bench_results/bench_hotpath.txt` holds
//! them: CI diffs a fresh run against it, so a changed result or a
//! changed allocation count fails. Wall time and the allocator byte
//! high-water mark go to stderr; the repo benchmark (`benchmark/`) is
//! what compares host time.
//!
//! Each timed pass runs `--reps` times (default 1) after one untimed
//! warm-up and reports the minimum wall time; the allocation count and
//! the digest are those of the last pass (every pass of a deterministic
//! engine produces the same ones).
//!
//! ```sh
//! RAYON_NUM_THREADS=1 cargo run --release --bin bench_hotpath -- [--scale N] [--reps N]
//! ```
//!
//! [`ExtractIndex`]: dirgl_comm::ExtractIndex

use std::num::{NonZeroU32, NonZeroU64};
use std::time::Instant;

use dirgl_apps::{Bfs, PageRank};
use dirgl_bench::alloc::{self, TrackingAlloc};
use dirgl_bench::cli::{or_exit, ArgStream, CliError};
use dirgl_bench::{fnv1a64, BenchId, LoadedDataset};
use dirgl_core::{PreparedPartition, RunConfig, RunOutput, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const DEVICES: u32 = 16;
const BENCHES: [BenchId; 2] = [BenchId::Bfs, BenchId::Pagerank];

const USAGE: &str = "usage: bench_hotpath [--scale N] [--reps N]";

struct Opts {
    extra_scale: NonZeroU64,
    reps: NonZeroU32,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        reps: NonZeroU32::MIN,
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--reps" => o.reps = it.parsed("--reps", "a positive integer")?,
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
    let Opts { extra_scale, reps } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

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
        println!("{:>8}: {allocs} allocs, digest {digest:016x}", bench.name());
        eprintln!("{:>8}: wall {wall_s:.3}s", bench.name());
        wall_total += wall_s;
    }

    eprintln!(
        "   total: wall {wall_total:.3}s, heap high-water {} bytes",
        alloc::peak_bytes()
    );
}
