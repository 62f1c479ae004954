//! Out-of-core scale sweep: how deep can ingestion go under a fixed host
//! memory budget, plain vs streamed-compressed?
//!
//! Sweeps the uk07 web-crawl analogue from `--max-divisor` down to
//! `--min-divisor` in 2x steps (smaller divisor = bigger graph). At each
//! step both ingestion paths build a 4-device CVC partition:
//!
//! * **plain** — `DatasetId::load_scaled` (full edge list, raw CSR,
//!   weight randomization pass) followed by `Partition::build`;
//! * **compressed** — `DatasetId::load_scaled_compressed` (generator
//!   edges stream through a `--chunk-edges`-bounded external sort into a
//!   delta-gap varint [`CompressedCsr`], weights drawn inline) followed
//!   by the chunked `Partition::build_streamed`.
//!
//! The byte high-water mark of each path is measured exactly by the
//! shared [`TrackingAlloc`] and compared against `--budget-gb`: once a
//! path's ingest peak exceeds the budget it is retired from deeper
//! steps (its first over-budget step is still recorded). The sweep ends
//! when the compressed path is retired or `--min-divisor` is reached.
//! At every step where both paths fit, bfs runs end-to-end on both
//! partitions and the reports + vertex values must be byte-identical
//! (asserted: the same contract `tests/golden_digests.rs` pins).
//!
//! Sizes, ratios, both peaks and the depth summary go to stdout. At one
//! pool thread they repeat byte for byte (the plain path's peak depends on
//! the pool size), and `bench_results/bench_scale.txt` holds them: CI
//! diffs a fresh run against it, so the two claims — the compressed path
//! reaches at least one 2x step deeper than plain, and compresses the
//! web-crawl analogue at least 2x at its deepest step — are lines a
//! regeneration has to name if it moves them. Build and bfs wall clocks
//! go to stderr.
//!
//! ```sh
//! RAYON_NUM_THREADS=1 cargo run --release --bin bench_scale -- \
//!     [--max-divisor N] [--min-divisor N] [--chunk-edges N] [--budget-gb X]
//! ```
//!
//! [`CompressedCsr`]: dirgl_graph::CompressedCsr
//! [`TrackingAlloc`]: dirgl_bench::alloc::TrackingAlloc

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Instant;

use dirgl_apps::Bfs;
use dirgl_bench::alloc::{self, TrackingAlloc};
use dirgl_bench::cli::{or_exit, ArgStream, CliError};
use dirgl_core::{PreparedPartition, RunConfig, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::{Csr, DatasetId};
use dirgl_partition::{Partition, Policy};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

const DATASET: DatasetId = DatasetId::Uk07;
const DEVICES: u32 = 4;
const SEED: u64 = 0x5EED;

const USAGE: &str =
    "usage: bench_scale [--max-divisor N] [--min-divisor N] [--chunk-edges N] [--budget-gb X]";

struct Opts {
    max_divisor: NonZeroU64,
    min_divisor: NonZeroU64,
    chunk_edges: NonZeroUsize,
    budget_gb: f64,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        max_divisor: NonZeroU64::new(1024).unwrap(),
        min_divisor: NonZeroU64::MIN,
        chunk_edges: NonZeroUsize::new(1 << 20).unwrap(),
        budget_gb: 0.1,
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--max-divisor" => o.max_divisor = it.parsed("--max-divisor", "a positive integer")?,
            "--min-divisor" => o.min_divisor = it.parsed("--min-divisor", "a positive integer")?,
            "--chunk-edges" => o.chunk_edges = it.parsed("--chunk-edges", "a positive integer")?,
            "--budget-gb" => o.budget_gb = it.parsed("--budget-gb", "a number of gigabytes")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    if o.max_divisor < o.min_divisor {
        return Err(CliError::new(format!(
            "--max-divisor {} must be >= --min-divisor {}",
            o.max_divisor, o.min_divisor
        )));
    }
    Ok(o)
}

/// One ingestion measurement: partition in hand, exact byte high-water
/// mark of the build, and its wall clock.
struct Ingest {
    part: Partition,
    graph: Option<Csr>,
    peak_bytes: u64,
    wall_s: f64,
    /// (vertices, edges, raw-CSR byte equivalent, compressed bytes) of
    /// the global graph — reported by the compressed path only.
    stats: Option<(u32, u64, u64, u64)>,
}

/// Plain path: full in-memory analogue, then the in-memory partitioner.
fn ingest_plain(extra: u64) -> Ingest {
    alloc::reset_peak();
    let base = alloc::peak_bytes();
    let t0 = Instant::now();
    let ds = DATASET.load_scaled(extra);
    let part = Partition::build(&ds.graph, Policy::Cvc, DEVICES, SEED);
    Ingest {
        wall_s: t0.elapsed().as_secs_f64(),
        peak_bytes: alloc::peak_bytes() - base,
        graph: Some(ds.graph),
        part,
        stats: None,
    }
}

/// Compressed path: streamed external-sort ingest into a delta-gap
/// varint CSR, then the chunked streaming partitioner. Neither the full
/// edge list nor the global raw CSR is ever resident.
fn ingest_compressed(extra: u64, chunk_edges: usize) -> Ingest {
    alloc::reset_peak();
    let base = alloc::peak_bytes();
    let t0 = Instant::now();
    let ds = DATASET.load_scaled_compressed(extra, chunk_edges);
    let part = Partition::build_streamed(&ds.graph, Policy::Cvc, DEVICES, SEED);
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak_bytes() - base;
    let (n, m) = (ds.graph.num_vertices(), ds.graph.num_edges());
    // Raw-CSR byte equivalent (offsets + targets + weights), without
    // materializing it — mirrors `Csr::bytes`.
    let per_edge = if ds.graph.is_weighted() { 8 } else { 4 };
    let raw_bytes = 8 * (n as u64 + 1) + per_edge * m;
    Ingest {
        wall_s,
        peak_bytes,
        graph: None,
        part,
        stats: Some((n, m, raw_bytes, ds.graph.memory_bytes())),
    }
}

/// Runs bfs on a prepared partition; returns (debug report, value bits,
/// wall seconds). The run exists to pin the byte-identity contract and
/// time the engine, so the scale divisor stays 1 — projecting the
/// clamped small analogues up to paper-equivalent footprints would only
/// trip the simulated GPU capacity, not tell us anything about ingest.
fn run_bfs(prep: &PreparedPartition) -> (String, Vec<u64>, f64) {
    let mut cfg = RunConfig::new(Policy::Cvc, Variant::var1());
    cfg.seed = SEED;
    let rt = Runtime::new(Platform::bridges(DEVICES), cfg);
    let prog = Bfs::from_max_out_degree(prep.graph());
    let t0 = Instant::now();
    let out = rt.job(prep, &prog).execute().unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let bits = out.values.iter().map(|v| v.to_bits()).collect();
    (format!("{:?}", out.report), bits, wall)
}

/// `fits` / `over budget` for a peak against the budget.
fn verdict(ok: bool) -> &'static str {
    if ok {
        "fits"
    } else {
        "over budget"
    }
}

fn main() {
    let Opts {
        max_divisor,
        min_divisor,
        chunk_edges,
        budget_gb,
    } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);
    let budget_bytes = (budget_gb * 1e9) as u64;

    println!(
        "bench_scale: {}/CVC @ {DEVICES} devices, divisors {max_divisor}..{min_divisor}, \
         budget {budget_gb}GB, chunk {chunk_edges} edges\n",
        DATASET.name()
    );

    let mut plain_alive = true;
    // Deepest (smallest) divisor each path completed within budget.
    let (mut plain_deepest, mut compressed_deepest) = (None, None);
    let mut ratio_deepest = 0.0f64;

    let mut divisor = max_divisor.get();
    loop {
        let comp = ingest_compressed(divisor, chunk_edges.get());
        let (n, m, raw_bytes, compressed_bytes) = comp.stats.unwrap();
        let ratio = raw_bytes as f64 / compressed_bytes as f64;
        let comp_ok = comp.peak_bytes <= budget_bytes;
        if comp_ok {
            compressed_deepest = Some(divisor);
            ratio_deepest = ratio;
        }
        print!(
            "/{divisor:>5}: {n:>7} v {m:>8} e  raw {raw_bytes:>8} B  compressed \
             {compressed_bytes:>7} B  ratio {ratio:.4}x | compressed peak {:>9} B {}",
            comp.peak_bytes,
            verdict(comp_ok)
        );
        eprint!("/{divisor:>5}: compressed build {:.6}s", comp.wall_s);

        let plain = plain_alive.then(|| ingest_plain(divisor));
        let plain_ok = plain.as_ref().is_some_and(|p| p.peak_bytes <= budget_bytes);
        if plain_ok {
            plain_deepest = Some(divisor);
        }
        if let Some(p) = &plain {
            print!(" | plain peak {:>9} B {}", p.peak_bytes, verdict(plain_ok));
            // Both partitions in hand: bfs end-to-end must be
            // byte-identical (report and vertex values).
            let g = p.graph.clone().unwrap();
            let prep_plain = PreparedPartition::from_partition(g.clone(), p.part.clone());
            let prep_comp = PreparedPartition::from_partition(g, comp.part.clone());
            let (ra, va, wall_plain) = run_bfs(&prep_plain);
            let (rb, vb, wall_comp) = run_bfs(&prep_comp);
            let values_ok = ra == rb && va == vb;
            print!(" | bfs identical: {values_ok}");
            eprint!(
                ", plain build {:.6}s, bfs plain {wall_plain:.6}s compressed {wall_comp:.6}s",
                p.wall_s
            );
            assert!(
                values_ok,
                "/{divisor}: compressed-streamed ingestion diverged from the plain path"
            );
        }
        println!();
        eprintln!();

        plain_alive = plain_ok;
        if !comp_ok || divisor <= min_divisor.get() {
            break;
        }
        divisor /= 2;
    }

    // How many 2x steps deeper the compressed path reached. When plain
    // never fit at all, credit the whole compressed range.
    let steps_deeper = match (plain_deepest, compressed_deepest) {
        (Some(p), Some(c)) => (p / c.max(1)).max(1).ilog2() as u64,
        (None, Some(c)) => (max_divisor.get() / c.max(1)).max(1).ilog2() as u64 + 1,
        _ => 0,
    };
    let deepest = |d: Option<u64>| d.map_or("-".into(), |d| format!("/{d}"));
    println!(
        "\nplain deepest {}, compressed deepest {}",
        deepest(plain_deepest),
        deepest(compressed_deepest)
    );
    println!("compressed steps deeper: {steps_deeper} (claim: >= 1)");
    println!("deepest compression: {ratio_deepest:.4}x (claim: >= 2x)");
}
