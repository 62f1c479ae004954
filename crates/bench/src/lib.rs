//! Shared harness for the table/figure reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper:
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table I — input properties (generated analogue vs published) |
//! | `table2` | Table II — fastest framework times on Tuxedo |
//! | `table3` | Table III — max memory across 6 GPUs for cc |
//! | `table4` | Table IV — static/dynamic/memory load balance |
//! | `fig3`   | Fig. 3 — strong scaling of D-IrGL variants + Lux, medium graphs |
//! | `fig4`   | Fig. 4 — time breakdown of variants, medium graphs @ 32 GPUs |
//! | `fig5`   | Fig. 5 — breakdown Lux vs Var1 @ 4 GPUs |
//! | `fig6`   | Fig. 6 — breakdown of variants, large graphs @ 64 GPUs |
//! | `fig7`   | Fig. 7 — strong scaling by partitioning policy |
//! | `fig8`   | Fig. 8 — breakdown by policy, medium graphs @ 32 GPUs |
//! | `fig9`   | Fig. 9 — breakdown by policy, large graphs @ 64 GPUs |
//! | `abl_gpudirect` | §VII ablation — GPUDirect device↔device transfers |
//! | `abl_throttle`  | §VII ablation — throttled BASP |
//!
//! All binaries accept `--scale N` (extra divisor on top of the catalog
//! scale; default 1) and `--quick` (shorthand for `--scale 4` plus
//! trimmed sweeps) so the whole suite can run fast while iterating, plus
//! `--trace <path>` to stream per-round, per-device
//! [`dirgl_core::RoundRecord`]s as JSON lines while the figures run.

pub mod alloc;
pub mod cli;

use std::collections::HashMap;
use std::num::NonZeroU64;

use cli::{ArgStream, CliError};
use dirgl_apps::{Bfs, Cc, KCore, PageRank, Sssp};
use dirgl_comm::SimTime;
use dirgl_core::{
    Backend, JsonLinesSink, MultiRunOutput, NoopSink, RunConfig, RunError, RunOutput, Runtime,
    TraceSink, Variant,
};
use dirgl_gpusim::Platform;
use dirgl_graph::{Csr, Dataset, DatasetId};
use dirgl_partition::{Partition, Policy};

/// The concrete sink type behind `--trace`: JSON lines into a buffered
/// file.
pub type TraceFileSink = JsonLinesSink<std::io::BufWriter<std::fs::File>>;

/// FNV-1a-64 of a byte stream: the digest `bench_hotpath` records and the
/// golden-digest corpus (`tests/golden_digests.rs`) pins.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// k for the kcore benchmark across the harness. The paper does not state
/// its threshold; the partitioning study it builds on (Gill et al., PVLDB
/// 2018) uses kcore-100, which triggers deep cascading peeling on every
/// input (average degrees are preserved by the scaling, so the cascade
/// shape is too).
pub const KCORE_K: u32 = 100;

/// Command-line options shared by every binary.
#[derive(Clone, Debug)]
pub struct Args {
    /// Extra scale divisor on top of the dataset catalog divisor.
    pub extra_scale: u64,
    /// Trim sweeps for fast iteration.
    pub quick: bool,
    /// Write per-round trace records (JSON lines) to this path.
    pub trace: Option<String>,
}

impl Args {
    /// Usage line shared by every figure/table binary.
    pub const USAGE: &'static str = "usage: [--scale N] [--quick] [--trace PATH]";

    /// Parses `--scale N`, `--quick` and `--trace <path>` from the process
    /// arguments; a bad flag prints usage and exits nonzero.
    pub fn parse() -> Args {
        cli::or_exit(ArgStream::from_env().and_then(Self::try_parse), Self::USAGE)
    }

    /// The fallible parser behind [`Args::parse`].
    pub fn try_parse(mut it: ArgStream) -> Result<Args, CliError> {
        let mut args = Args {
            extra_scale: 1,
            quick: false,
            trace: None,
        };
        while let Some(a) = it.next_arg() {
            match a.as_str() {
                "--scale" => {
                    args.extra_scale = it
                        .parsed::<NonZeroU64>("--scale", "a positive integer")?
                        .get()
                }
                "--quick" => {
                    args.quick = true;
                    args.extra_scale = args.extra_scale.max(4);
                }
                "--trace" => args.trace = Some(it.value("--trace")?),
                other => return Err(CliError::unknown_arg(other)),
            }
        }
        Ok(args)
    }

    /// Opens the `--trace` file as a JSON-lines sink (`Ok(None)` when the
    /// flag was not given).
    pub fn open_trace(&self) -> Result<Option<TraceFileSink>, CliError> {
        self.trace.as_deref().map(open_trace_file).transpose()
    }
}

/// Opens `path` as a JSON-lines trace sink. A missing parent directory is
/// the common mistake, so it gets a dedicated error naming the directory
/// (plain `File::create` reports only the full path and an OS code).
pub fn open_trace_file(path: &str) -> Result<TraceFileSink, CliError> {
    let parent = std::path::Path::new(path).parent();
    if let Some(dir) = parent.filter(|d| !d.as_os_str().is_empty() && !d.exists()) {
        return Err(CliError::new(format!(
            "cannot create --trace file {path}: parent directory `{}` does not exist",
            dir.display()
        )));
    }
    let f = std::fs::File::create(path)
        .map_err(|e| CliError::new(format!("cannot create --trace file {path}: {e}")))?;
    Ok(JsonLinesSink::new(std::io::BufWriter::new(f)))
}

/// The five benchmarks as harness-dispatchable ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchId {
    /// Breadth-first search.
    Bfs,
    /// Weakly connected components.
    Cc,
    /// k-core decomposition.
    Kcore,
    /// Residual pagerank.
    Pagerank,
    /// Single-source shortest paths.
    Sssp,
}

impl BenchId {
    /// Paper order.
    pub const ALL: [BenchId; 5] = [
        BenchId::Bfs,
        BenchId::Cc,
        BenchId::Kcore,
        BenchId::Pagerank,
        BenchId::Sssp,
    ];

    /// Name as printed by the paper.
    pub fn name(self) -> &'static str {
        match self {
            BenchId::Bfs => "bfs",
            BenchId::Cc => "cc",
            BenchId::Kcore => "kcore",
            BenchId::Pagerank => "pagerank",
            BenchId::Sssp => "sssp",
        }
    }

    /// True when the benchmark runs on the symmetrized view.
    pub fn symmetric(self) -> bool {
        matches!(self, BenchId::Cc | BenchId::Kcore)
    }
}

impl std::fmt::Display for BenchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dataset loaded once: the raw directed weighted analogue and its
/// symmetrized view for cc/kcore.
pub struct LoadedDataset {
    /// Catalog entry + generated graph.
    pub ds: Dataset,
    /// Extra scale divisor used.
    extra: u64,
    /// Undirected view for cc/kcore (half-sampled then symmetrized, so the
    /// closure matches Table I's |E| — see
    /// `DatasetId::load_undirected_scaled`). Built lazily.
    sym: std::cell::OnceCell<Csr>,
}

impl LoadedDataset {
    /// Generates the analogue at `catalog divisor × extra`.
    pub fn load(id: DatasetId, extra: u64) -> LoadedDataset {
        LoadedDataset {
            ds: id.load_scaled(extra),
            extra,
            sym: std::cell::OnceCell::new(),
        }
    }

    /// The graph a benchmark runs on.
    pub fn graph_for(&self, bench: BenchId) -> &Csr {
        if bench.symmetric() {
            self.sym
                .get_or_init(|| self.ds.id.load_undirected_scaled(self.extra).graph)
        } else {
            &self.ds.graph
        }
    }
}

/// Caches partitions so variants reuse the same partition, as the paper's
/// methodology does ("we modified D-IrGL to use the same partitions").
#[derive(Default)]
pub struct PartitionCache {
    map: HashMap<(DatasetId, Policy, u32, bool), Partition>,
}

impl PartitionCache {
    /// New empty cache.
    pub fn new() -> PartitionCache {
        Self::default()
    }

    /// Partition for `(dataset, policy, devices)`, building on first use.
    /// Returns a borrow: runs go through
    /// [`dirgl_core::Runner::partition`], which copies only the per-device
    /// local graphs, never the exchange links.
    pub fn get(
        &mut self,
        ld: &LoadedDataset,
        bench: BenchId,
        policy: Policy,
        devices: u32,
    ) -> &Partition {
        let key = (ld.ds.id, policy, devices, bench.symmetric());
        self.map
            .entry(key)
            .or_insert_with(|| Partition::build(ld.graph_for(bench), policy, devices, 0x5EED))
    }
}

/// Runs one D-IrGL configuration of `bench` on `ld`.
pub fn run_dirgl(
    bench: BenchId,
    ld: &LoadedDataset,
    cache: &mut PartitionCache,
    platform: &Platform,
    policy: Policy,
    variant: Variant,
) -> Result<RunOutput, RunError> {
    run_dirgl_cfg(bench, ld, cache, platform, {
        RunConfig::new(policy, variant).scale(ld.ds.divisor)
    })
}

/// [`run_dirgl`] with per-round trace emission into `sink`. When `sink`
/// is `None` this is exactly [`run_dirgl`]; when `Some`, `label` is
/// stamped into every emitted record's `"run"` field so one trace file
/// can hold many configurations.
#[allow(clippy::too_many_arguments)]
pub fn run_dirgl_maybe_traced(
    bench: BenchId,
    ld: &LoadedDataset,
    cache: &mut PartitionCache,
    platform: &Platform,
    policy: Policy,
    variant: Variant,
    sink: &mut Option<TraceFileSink>,
    label: &str,
) -> Result<RunOutput, RunError> {
    let cfg = RunConfig::new(policy, variant).scale(ld.ds.divisor);
    match sink {
        Some(s) => {
            s.set_label(label);
            run_dirgl_cfg_traced(bench, ld, cache, platform, cfg, s)
        }
        None => run_dirgl_cfg(bench, ld, cache, platform, cfg),
    }
}

/// Runs one D-IrGL configuration with a fully custom [`RunConfig`] (the
/// ablation binaries flip `gpudirect` etc.). The config's scale divisor is
/// forced to the dataset's.
pub fn run_dirgl_cfg(
    bench: BenchId,
    ld: &LoadedDataset,
    cache: &mut PartitionCache,
    platform: &Platform,
    cfg: RunConfig,
) -> Result<RunOutput, RunError> {
    run_dirgl_cfg_traced(bench, ld, cache, platform, cfg, &mut NoopSink)
}

/// [`run_dirgl_cfg`] with per-round trace emission into `sink`.
pub fn run_dirgl_cfg_traced(
    bench: BenchId,
    ld: &LoadedDataset,
    cache: &mut PartitionCache,
    platform: &Platform,
    mut cfg: RunConfig,
    sink: &mut dyn TraceSink,
) -> Result<RunOutput, RunError> {
    cfg.scale_divisor = ld.ds.divisor;
    let part = cache.get(ld, bench, cfg.policy, platform.num_devices());
    let g = ld.graph_for(bench);
    let rt = Runtime::new(platform.clone(), cfg);
    match bench {
        BenchId::Bfs => rt
            .runner(g, &Bfs::from_max_out_degree(&ld.ds.graph))
            .partition(part)
            .trace(sink)
            .execute(),
        BenchId::Cc => rt.runner(g, &Cc).partition(part).trace(sink).execute(),
        BenchId::Kcore => rt
            .runner(g, &KCore::new(KCORE_K))
            .partition(part)
            .trace(sink)
            .execute(),
        BenchId::Pagerank => rt
            .runner(g, &PageRank::new())
            .partition(part)
            .trace(sink)
            .execute(),
        BenchId::Sssp => rt
            .runner(g, &Sssp::from_max_out_degree(&ld.ds.graph))
            .partition(part)
            .trace(sink)
            .execute(),
    }
}

/// Runs `bench` from every source in `sources` under `backend`:
/// [`Backend::Scalar`] executes one engine pass per source;
/// [`Backend::Lanes`] packs up to 64 sources per pass into the K-lane
/// bit-matrix frontier. Only the traversal benchmarks carry a source —
/// the binaries reject `--sources` for the others at the CLI boundary,
/// and this panics on them.
pub fn run_dirgl_batch(
    bench: BenchId,
    ld: &LoadedDataset,
    cache: &mut PartitionCache,
    platform: &Platform,
    mut cfg: RunConfig,
    sources: &[u32],
    backend: Backend,
) -> Result<MultiRunOutput, RunError> {
    cfg.scale_divisor = ld.ds.divisor;
    let part = cache.get(ld, bench, cfg.policy, platform.num_devices());
    let g = ld.graph_for(bench);
    let rt = Runtime::new(platform.clone(), cfg);
    match bench {
        BenchId::Bfs => rt
            .runner(g, &Bfs::new(sources[0]))
            .partition(part)
            .backend(backend)
            .batch(sources)
            .execute(),
        BenchId::Sssp => rt
            .runner(g, &Sssp::new(sources[0]))
            .partition(part)
            .backend(backend)
            .batch(sources)
            .execute(),
        BenchId::Cc | BenchId::Kcore | BenchId::Pagerank => {
            panic!("{bench} takes no source; --sources supports bfs and sssp")
        }
    }
}

/// Formats a simulated time like the paper's tables (seconds).
pub fn fmt_time(t: SimTime) -> String {
    format!("{:.2}", t.as_secs_f64())
}

/// Formats paper-equivalent bytes as the paper's GB annotations.
pub fn fmt_gb(bytes: u64) -> String {
    let gb = bytes as f64 / 1e9;
    if gb < 0.95 {
        format!("{:.1}GB", gb)
    } else {
        format!("{:.0}GB", gb)
    }
}

/// Formats an OOM/err cell like the paper's missing points.
pub fn fmt_result(r: &Result<RunOutput, RunError>) -> String {
    match r {
        Ok(out) => fmt_time(out.report.total_time),
        Err(RunError::Oom { .. }) => "OOM".to_string(),
        Err(RunError::NoDevices | RunError::EmptyGraph) => "ERR".to_string(),
    }
}

/// Prints one row of a fixed-width table.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", c, width = w));
    }
    println!("{}", line.trim_end());
}

/// One bar of a breakdown figure.
pub struct Breakdown {
    /// Series label (Var1..Var4 / policy name / framework).
    pub label: String,
    /// The run (Err = the paper's missing bar).
    pub result: Result<RunOutput, RunError>,
}

/// Prints one breakdown chart (the bars of Figs. 4–6/8–9): total time,
/// the Max Compute / Min Wait / Device Comm. decomposition, and the
/// communication-volume annotation.
pub fn print_breakdown(title: &str, rows: &[Breakdown]) {
    println!("\n== {title} ==");
    let widths = [12, 9, 11, 9, 12, 9, 7, 12];
    print_row(
        &[
            "series",
            "total(s)",
            "compute(s)",
            "wait(s)",
            "devcomm(s)",
            "volume",
            "rounds",
            "workitems",
        ]
        .map(String::from),
        &widths,
    );
    for b in rows {
        match &b.result {
            Ok(out) => {
                let r = &out.report;
                print_row(
                    &[
                        b.label.clone(),
                        fmt_time(r.total_time),
                        fmt_time(r.max_compute()),
                        fmt_time(r.min_wait()),
                        fmt_time(r.device_comm()),
                        fmt_gb(r.comm_bytes),
                        r.rounds.to_string(),
                        format!("{:.1e}", r.work_items as f64),
                    ],
                    &widths,
                );
            }
            Err(_) => {
                print_row(
                    &[
                        b.label.clone(),
                        "OOM".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ],
                    &widths,
                );
            }
        }
    }
}

/// The GPU counts the paper sweeps on Bridges.
pub fn bridges_gpu_counts(quick: bool) -> Vec<u32> {
    if quick {
        vec![4, 16, 64]
    } else {
        vec![2, 4, 8, 16, 32, 64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_catalog() {
        assert_eq!(BenchId::ALL.len(), 5);
        assert!(BenchId::Cc.symmetric());
        assert!(BenchId::Kcore.symmetric());
        assert!(!BenchId::Bfs.symmetric());
    }

    #[test]
    fn partition_cache_reuses() {
        let ld = LoadedDataset::load(DatasetId::Rmat23, 64);
        let mut cache = PartitionCache::new();
        let a = cache.get(&ld, BenchId::Bfs, Policy::Cvc, 4).total_edges();
        let b = cache.get(&ld, BenchId::Bfs, Policy::Cvc, 4).total_edges();
        assert_eq!(a, b);
        assert_eq!(cache.map.len(), 1);
        let _ = cache.get(&ld, BenchId::Cc, Policy::Cvc, 4);
        assert_eq!(cache.map.len(), 2);
    }

    #[test]
    fn dirgl_runs_every_benchmark() {
        let ld = LoadedDataset::load(DatasetId::Rmat23, 64);
        let mut cache = PartitionCache::new();
        let platform = Platform::bridges(4);
        for bench in BenchId::ALL {
            let out = run_dirgl(
                bench,
                &ld,
                &mut cache,
                &platform,
                Policy::Cvc,
                Variant::var3(),
            )
            .unwrap();
            assert!(out.report.total_time.as_secs_f64() > 0.0, "{bench}");
        }
    }

    #[test]
    fn args_try_parse() {
        let a = Args::try_parse(cli::ArgStream::from_tokens(["--scale", "8", "--quick"])).unwrap();
        assert_eq!(a.extra_scale, 8);
        assert!(a.quick);
        let err = Args::try_parse(cli::ArgStream::from_tokens(["--wat"])).unwrap_err();
        assert!(err.message.contains("--wat"), "{}", err.message);
        let err = Args::try_parse(cli::ArgStream::from_tokens(["--scale", "x"])).unwrap_err();
        assert!(err.message.contains("--scale"), "{}", err.message);
        let err = Args::try_parse(cli::ArgStream::from_tokens(["--scale", "0"])).unwrap_err();
        assert_eq!(err.message, "--scale needs a positive integer, got `0`");
    }

    #[test]
    fn trace_missing_parent_names_directory() {
        let err = match open_trace_file("/definitely/not/a/dir/trace.jsonl") {
            Ok(_) => panic!("open_trace_file succeeded on a missing parent"),
            Err(e) => e,
        };
        assert!(
            err.message.contains("/definitely/not/a/dir"),
            "{}",
            err.message
        );
        assert!(err.message.contains("parent directory"), "{}", err.message);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_time(SimTime::from_secs_f64(1.234)), "1.23");
        assert_eq!(fmt_gb(500_000_000), "0.5GB");
        assert_eq!(fmt_gb(21_400_000_000), "21GB");
    }
}
