//! Multi-source batching benchmark: how many bfs sources per second does
//! the K-lane bit-matrix backend sustain versus running the same sources
//! as serial scalar jobs — and what does the value-lane adapter cost for
//! sssp on the same input?
//!
//! One partition is built and reused; then for K ∈ {1, 4, 8, 64} the
//! same bfs source set runs twice — `Backend::Scalar` (K one-source engine
//! runs, the baseline) and `Backend::Lanes` (one engine pass advancing all
//! K frontiers). Every lane is asserted byte-identical to its scalar run,
//! so the speedup is never bought with divergent answers. K = 4 and 8 run
//! at the 8-lane width class and K = 64 at the 64-lane one, so both
//! classes appear, one of them part-filled. An sssp block then does the
//! same at K ∈ {1, 4, 8} through the value-lane adapter (`Lanes`), which
//! ships one value per lane where MS-BFS ships one bit.
//!
//! The headline sources/sec and the asserted ≥4× floor are in
//! *paper-equivalent simulated time*, deterministic run to run and at any
//! pool size, so stdout repeats byte for byte and
//! `bench_results/bench_batch.txt` holds it (CI diffs it). Host wall
//! times and the host lanes/scalar ratio go to stderr, for reference: a
//! value-lane batch wins in simulated time but costs more host time than
//! its scalar runs, which is why the job-server batches bfs only. The
//! simulated win is the MS-BFS claim itself: a vertex on many lanes'
//! frontiers is scanned once per round, not once per lane, so one batched
//! pass costs about one scalar pass.
//!
//! ```sh
//! cargo run --release --bin bench_batch -- [--scale N] [--gpus N]
//! ```

use std::num::{NonZeroU32, NonZeroU64};
use std::time::Instant;

use dirgl_bench::cli::{or_exit, ArgStream, CliError};
use dirgl_bench::{run_dirgl_batch, BenchId, LoadedDataset, PartitionCache};
use dirgl_core::{Backend, MultiRunOutput, RunConfig, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

const USAGE: &str = "usage: bench_batch [--scale N] [--gpus N]";
const BFS_LANE_COUNTS: [usize; 4] = [1, 4, 8, 64];
const SSSP_LANE_COUNTS: [usize; 3] = [1, 4, 8];

struct Opts {
    extra_scale: NonZeroU64,
    gpus: NonZeroU32,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        gpus: NonZeroU32::new(4).unwrap(),
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--gpus" => o.gpus = it.parsed("--gpus", "a positive integer")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

/// K distinct sources spread across the id space, first one the paper's
/// max-out-degree convention.
fn spread_sources(n: u32, base: u32, k: usize) -> Vec<u32> {
    assert!(n as usize > k, "graph too small for {k} distinct sources");
    let step = n / k as u32 + 1;
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(k);
    let mut s = base % n;
    while out.len() < k {
        while !seen.insert(s) {
            s = (s + 1) % n;
        }
        out.push(s);
        s = (s + step) % n;
    }
    out
}

/// Aggregate paper-equivalent execution time across a run's engine
/// passes.
fn sim_total(out: &MultiRunOutput) -> f64 {
    out.engine_reports
        .iter()
        .map(|r| r.total_time.as_secs_f64())
        .sum()
}

/// Every lane byte-identical between the two backends: same source
/// labels, same value bits, same digests.
fn identical(lanes: &MultiRunOutput, scalar: &MultiRunOutput) -> bool {
    lanes.lanes.len() == scalar.lanes.len()
        && lanes.lanes.iter().zip(&scalar.lanes).all(|(l, s)| {
            l.source == s.source
                && l.summary == s.summary
                && l.values.len() == s.values.len()
                && l.values
                    .iter()
                    .zip(&s.values)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

fn main() {
    let Opts { extra_scale, gpus } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

    let ld = LoadedDataset::load(DatasetId::Indochina04, extra_scale.get());
    let g = &ld.ds.graph;
    let n = g.num_vertices();
    let base = g.max_out_degree_vertex();
    println!(
        "bench_batch: indochina04 (|V|={} |E|={}), bfs, CVC/Var3 @ {gpus} GPUs\n",
        n,
        g.num_edges()
    );

    let platform = Platform::bridges(gpus.get());
    let cfg = || RunConfig::new(Policy::Cvc, Variant::var3());
    let mut cache = PartitionCache::new();

    // Warm the partition cache so neither timed pass pays the build.
    run_dirgl_batch(
        BenchId::Bfs,
        &ld,
        &mut cache,
        &platform,
        cfg(),
        &[base],
        Backend::Scalar,
    )
    .expect("warmup failed");

    // One K-source comparison of `bench`: both backends, every lane
    // identical, the simulated line on stdout and host times on stderr.
    // Returns the simulated speedup.
    let mut compare = |bench: BenchId, k: usize| {
        let sources = spread_sources(n, base, k);
        let mut run = |backend| {
            let t = Instant::now();
            let out = run_dirgl_batch(bench, &ld, &mut cache, &platform, cfg(), &sources, backend)
                .unwrap_or_else(|e| panic!("{bench} K={k} on {backend:?} failed: {e}"));
            (out, t.elapsed().as_secs_f64())
        };
        let (scalar, scalar_s) = run(Backend::Scalar);
        let (lanes, lanes_s) = run(Backend::Lanes);

        assert!(
            identical(&lanes, &scalar),
            "{bench} K={k}: a lane diverged from its scalar run"
        );
        assert_eq!(
            scalar.engine_reports.len(),
            k,
            "scalar runs once per source"
        );
        let passes = lanes.engine_reports.len();
        assert_eq!(passes, k.div_ceil(64), "lanes chunk by 64");

        let scalar_sim = sim_total(&scalar);
        let lanes_sim = sim_total(&lanes);
        let scalar_sps = k as f64 / scalar_sim;
        let lanes_sps = k as f64 / lanes_sim;
        let speedup = lanes_sps / scalar_sps;
        println!(
            "K={k:>2}: scalar {scalar_sim:.6}s ({scalar_sps:.3} src/s) | lanes \
             {lanes_sim:.6}s ({lanes_sps:.3} src/s) | speedup {speedup:.3}x | \
             engine_passes {passes} | identical",
        );
        eprintln!(
            "{bench} K={k:>2}: host scalar {scalar_s:.6}s, lanes {lanes_s:.6}s \
             (lanes/scalar {:.2}x)",
            lanes_s / scalar_s
        );
        speedup
    };

    let mut speedup_64 = 0.0f64;
    for k in BFS_LANE_COUNTS {
        let speedup = compare(BenchId::Bfs, k);
        if k == 64 {
            speedup_64 = speedup;
        }
    }
    println!("\nK=64 speedup: {speedup_64:.2}x (acceptance floor: 4x)");
    assert!(
        speedup_64 >= 4.0,
        "K=64 batched bfs must sustain >= 4x the serial scalar sources/sec, got {speedup_64:.2}x"
    );

    println!("\nsssp, value lanes, same input and partition:");
    for k in SSSP_LANE_COUNTS {
        compare(BenchId::Sssp, k);
    }
}
