//! Before/after wall-clock benchmark for the host worker pool: a
//! fig3-style 16-device run (twitter50, IEC, Var3) timed under a
//! 1-thread pool and under a multi-thread pool, asserting the two
//! produce byte-identical `ExecutionReport`s and vertex values. The
//! timings are single-run host figures and go to stderr; nothing here is
//! committed. The repo benchmark (`benchmark/`) is what compares host
//! time, with its own noise bounds.
//!
//! ```sh
//! cargo run --release --bin bench_parallel -- [--scale N] [--threads N]
//! ```

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Instant;

use dirgl_bench::cli::{or_exit, ArgStream, CliError};
use dirgl_bench::{run_dirgl, BenchId, LoadedDataset, PartitionCache};
use dirgl_core::Variant;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;
use rayon::{ThreadPool, ThreadPoolBuilder};

const DEVICES: u32 = 16;
const BENCHES: [BenchId; 3] = [BenchId::Bfs, BenchId::Pagerank, BenchId::Cc];

const USAGE: &str = "usage: bench_parallel [--scale N] [--threads N]";

struct Opts {
    extra_scale: NonZeroU64,
    threads: NonZeroUsize,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        threads: std::thread::available_parallelism()
            .unwrap_or(NonZeroUsize::MIN)
            .max(NonZeroUsize::new(2).unwrap()),
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--threads" => o.threads = it.parsed("--threads", "a positive integer")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

fn main() {
    let Opts {
        extra_scale,
        threads,
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
        "bench_parallel: twitter50/IEC/Var3 @ {DEVICES} devices, 1 vs {threads} pool threads\n"
    );
    eprintln!("host cores: {host_cores}");

    let mut run = |pool: &ThreadPool, bench| {
        let t0 = Instant::now();
        let out = pool.install(|| {
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
        (out, t0.elapsed().as_secs_f64())
    };
    let (mut wall_seq, mut wall_par) = (0.0f64, 0.0f64);
    for bench in BENCHES {
        // Untimed warm-up: first contact with a workload pays allocator and
        // page-fault costs that would otherwise be billed to the 1-thread pass.
        run(&seq_pool, bench);
        let (a, seq_s) = run(&seq_pool, bench);
        let (b, par_s) = run(&par_pool, bench);

        assert!(
            format!("{:?}", a.report) == format!("{:?}", b.report)
                && a.values
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(b.values.iter().map(|v| v.to_bits())),
            "{bench}: {threads}-thread run diverged from 1-thread run"
        );
        eprintln!(
            "{:>8}: 1-thread {seq_s:.3}s, {threads}-thread {par_s:.3}s, speedup {:.2}x",
            bench.name(),
            seq_s / par_s
        );
        wall_seq += seq_s;
        wall_par += par_s;
    }

    eprintln!(
        "\n   total: 1-thread {wall_seq:.3}s, {threads}-thread {wall_par:.3}s, speedup {:.2}x",
        wall_seq / wall_par
    );
    println!("reports and vertex values identical at 1 and {threads} pool threads");
}
