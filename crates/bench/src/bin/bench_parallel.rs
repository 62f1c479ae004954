//! Before/after wall-clock benchmark for the host worker pool: a
//! fig3-style 16-device run (twitter50, IEC, Var3) timed under a
//! 1-thread pool and under a multi-thread pool, asserting the two
//! produce byte-identical `ExecutionReport`s, then writing the numbers
//! to `BENCH_parallel.json`.
//!
//! ```sh
//! cargo run --release --bin bench_parallel -- [--scale N] [--threads N] [--out PATH]
//! ```

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Instant;

use dirgl_bench::cli::{or_exit, write_output, ArgStream, CliError};
use dirgl_bench::{run_dirgl, BenchId, LoadedDataset, PartitionCache};
use dirgl_core::Variant;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;
use rayon::ThreadPoolBuilder;

const DEVICES: u32 = 16;
const BENCHES: [BenchId; 3] = [BenchId::Bfs, BenchId::Pagerank, BenchId::Cc];

const USAGE: &str = "usage: bench_parallel [--scale N] [--threads N] [--out PATH]";

struct Opts {
    extra_scale: NonZeroU64,
    threads: NonZeroUsize,
    out_path: String,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        threads: std::thread::available_parallelism()
            .unwrap_or(NonZeroUsize::MIN)
            .max(NonZeroUsize::new(2).unwrap()),
        out_path: "BENCH_parallel.json".to_string(),
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--threads" => o.threads = it.parsed("--threads", "a positive integer")?,
            "--out" => o.out_path = it.value("--out")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

fn main() {
    let Opts {
        extra_scale,
        threads,
        out_path,
    } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let ld = LoadedDataset::load(DatasetId::Twitter50, extra_scale.get());
    let platform = Platform::bridges(DEVICES);
    let mut cache = PartitionCache::new();
    // Warm the partition cache so both timed passes measure only the engine.
    for bench in BENCHES {
        cache.get(&ld, bench, Policy::Iec, DEVICES);
    }

    let seq_pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let par_pool = ThreadPoolBuilder::new()
        .num_threads(threads.get())
        .build()
        .unwrap();

    println!(
        "bench_parallel: twitter50/IEC/Var3 @ {DEVICES} devices, 1 vs {threads} pool threads \
         (host cores: {host_cores})\n"
    );

    let mut rows = Vec::new();
    let mut measured = Vec::new();
    let (mut wall_seq, mut wall_par) = (0.0f64, 0.0f64);
    let mut identical = true;
    for bench in BENCHES {
        // Untimed warm-up: first contact with a workload pays allocator and
        // page-fault costs that would otherwise be billed to the 1-thread pass.
        seq_pool.install(|| {
            run_dirgl(
                bench,
                &ld,
                &mut cache,
                &platform,
                Policy::Iec,
                Variant::var3(),
            )
            .unwrap()
        });

        let t0 = Instant::now();
        let a = seq_pool.install(|| {
            run_dirgl(
                bench,
                &ld,
                &mut cache,
                &platform,
                Policy::Iec,
                Variant::var3(),
            )
            .unwrap()
        });
        let seq_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let b = par_pool.install(|| {
            run_dirgl(
                bench,
                &ld,
                &mut cache,
                &platform,
                Policy::Iec,
                Variant::var3(),
            )
            .unwrap()
        });
        let par_s = t1.elapsed().as_secs_f64();

        let same = format!("{:?}", a.report) == format!("{:?}", b.report)
            && a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                == b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        identical &= same;
        println!(
            "{:>8}: 1-thread {seq_s:.3}s, {threads}-thread {par_s:.3}s, \
             speedup {:.2}x, identical: {same}",
            bench.name(),
            seq_s / par_s
        );
        wall_seq += seq_s;
        wall_par += par_s;
        measured.push(format!("{} {:.2}x", bench.name(), seq_s / par_s));
        rows.push(format!(
            "    {{\"bench\": \"{}\", \"wall_seq_s\": {seq_s:.6}, \"wall_par_s\": {par_s:.6}, \
             \"speedup\": {:.4}, \"identical\": {same}}}",
            bench.name(),
            seq_s / par_s
        ));
    }

    assert!(identical, "multi-thread run diverged from 1-thread run");
    let speedup = wall_seq / wall_par;
    println!(
        "\ntotal: 1-thread {wall_seq:.3}s, {threads}-thread {wall_par:.3}s, speedup {speedup:.2}x"
    );

    let json = format!(
        "{{\n  \"dataset\": \"twitter50\",\n  \"policy\": \"iec\",\n  \"variant\": \"Var3\",\n  \
         \"devices\": {DEVICES},\n  \"extra_scale\": {extra_scale},\n  \
         \"threads_seq\": 1,\n  \"threads_par\": {threads},\n  \"host_cores\": {host_cores},\n  \
         \"wall_seq_s\": {wall_seq:.6},\n  \"wall_par_s\": {wall_par:.6},\n  \
         \"speedup\": {speedup:.4},\n  \"identical_reports\": {identical},\n  \
         \"per_bench\": [\n{}\n  ],\n  \
         \"note\": \"Wall-clock for the engine only (partition cache pre-warmed), one timed \
         run per bench and pool size after one untimed warm-up. Measured on a host of \
         {host_cores} cores: 1 -> {threads} pool threads is {speedup:.2}x overall ({}). A \
         speedup is bounded by the host core count and a single run carries its own noise, \
         so bench_gate holds this file to the identity flags only: identical_reports \
         asserts the byte-identical ExecutionReport + vertex values contract between the \
         two pool sizes.\"\n}}\n",
        rows.join(",\n"),
        measured.join(", ")
    );
    or_exit(write_output(&out_path, &json), USAGE);
    println!("wrote {out_path}");
}
