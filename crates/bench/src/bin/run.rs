//! Single-run driver: run any benchmark on any dataset analogue with any
//! configuration, and print the full execution report — the `lonestar`-app
//! equivalent for this workspace.
//!
//! ```sh
//! cargo run --release -p dirgl-bench --bin run -- \
//!     --bench sssp --input uk07 --gpus 32 --policy cvc --variant var4
//! ```
//!
//! Fault injection rides on `--faults` (see `dirgl_comm::FaultPlan::parse`
//! for the spec grammar):
//!
//! ```sh
//! cargo run --release -p dirgl-bench --bin run -- \
//!     --bench bfs --input rmat25 --faults seed=42,drop=0.05,crash=1@3 \
//!     --checkpoint-every 4
//! ```

use std::num::{NonZeroU32, NonZeroU64};

use dirgl_bench::cli::{or_exit, parse_source_list, ArgStream, CliError};
use dirgl_bench::{open_trace_file, BenchId, LoadedDataset, PartitionCache, TraceFileSink};
use dirgl_comm::FaultPlan;
use dirgl_core::{Backend, ExecModel, ResilienceStats, RunConfig, Variant};
use dirgl_gpusim::{Balancer, Platform};
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

struct Opts {
    bench: BenchId,
    input: DatasetId,
    gpus: NonZeroU32,
    policy: Policy,
    variant: Variant,
    platform: String,
    extra_scale: NonZeroU64,
    gpudirect: bool,
    throttle_ms: f64,
    trace: Option<String>,
    faults: FaultPlan,
    checkpoint_every: u32,
    sources: Option<Vec<u32>>,
    backend: Backend,
}

const USAGE: &str = "usage: run --bench <bfs|cc|kcore|pagerank|sssp> --input <table1 name> \
                     [--gpus N] [--policy <oec|iec|hvc|cvc|random|metis>] \
                     [--variant <var1..var4>] [--platform <bridges|tuxedo>] \
                     [--scale N] [--gpudirect] [--throttle-ms X] [--trace PATH] \
                     [--faults seed=S,drop=P,dup=P,delay=P,crash=D@R[+rejoin],straggler=D@R:N[xF]] \
                     [--checkpoint-every K] \
                     [--sources a,b,c (bfs/sssp: one batched run from every source)] \
                     [--backend <scalar|lanes>]";

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        bench: BenchId::Bfs,
        input: DatasetId::Rmat23,
        gpus: NonZeroU32::new(4).unwrap(),
        policy: Policy::Cvc,
        variant: Variant::var4(),
        platform: "bridges".into(),
        extra_scale: NonZeroU64::MIN,
        gpudirect: false,
        throttle_ms: 0.0,
        trace: None,
        faults: FaultPlan::none(),
        checkpoint_every: 0,
        sources: None,
        backend: Backend::Scalar,
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--bench" => {
                let v = it.value("--bench")?;
                o.bench = *BenchId::ALL
                    .iter()
                    .find(|b| b.name() == v)
                    .ok_or_else(|| CliError::new(format!("unknown benchmark `{v}`")))?;
            }
            "--input" => {
                let v = it.value("--input")?;
                o.input = *DatasetId::ALL
                    .iter()
                    .find(|d| d.name() == v)
                    .ok_or_else(|| CliError::new(format!("unknown input `{v}`")))?;
            }
            "--gpus" => o.gpus = it.parsed("--gpus", "a positive integer")?,
            "--policy" => {
                let v = it.value("--policy")?;
                o.policy = match v.to_lowercase().as_str() {
                    "oec" => Policy::Oec,
                    "iec" => Policy::Iec,
                    "hvc" => Policy::Hvc,
                    "cvc" => Policy::Cvc,
                    "random" => Policy::Random,
                    "metis" | "metislike" => Policy::MetisLike,
                    _ => return Err(CliError::new(format!("unknown policy `{v}`"))),
                };
            }
            "--variant" => {
                let v = it.value("--variant")?;
                o.variant = match v.to_lowercase().as_str() {
                    "var1" => Variant::var1(),
                    "var2" => Variant::var2(),
                    "var3" => Variant::var3(),
                    "var4" => Variant::var4(),
                    _ => return Err(CliError::new(format!("unknown variant `{v}`"))),
                };
            }
            "--platform" => o.platform = it.value("--platform")?,
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--gpudirect" => o.gpudirect = true,
            "--throttle-ms" => o.throttle_ms = it.parsed("--throttle-ms", "a number")?,
            "--trace" => o.trace = Some(it.value("--trace")?),
            "--faults" => {
                let v = it.value("--faults")?;
                o.faults = FaultPlan::parse(&v)
                    .map_err(|e| CliError::new(format!("bad --faults spec: {e}")))?;
            }
            "--checkpoint-every" => {
                o.checkpoint_every = it.parsed("--checkpoint-every", "a round count")?
            }
            "--sources" => {
                let v = it.value("--sources")?;
                o.sources = Some(parse_source_list("--sources", &v)?);
            }
            "--backend" => {
                let v = it.value("--backend")?;
                o.backend = v.parse().map_err(CliError::new)?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

fn main() {
    let o = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);
    let platform = match o.platform.as_str() {
        "bridges" => Platform::bridges(o.gpus.get()),
        "tuxedo" => Platform::tuxedo_n(o.gpus.get()),
        p => or_exit(Err(CliError::new(format!("unknown platform `{p}`"))), USAGE),
    };
    // Open the trace sink before the (slow) dataset generation so a bad
    // path — e.g. a missing parent directory — fails fast and by name.
    let mut trace: Option<TraceFileSink> =
        or_exit(o.trace.as_deref().map(open_trace_file).transpose(), USAGE);
    println!(
        "loading {} (extra scale {}) ...",
        o.input.name(),
        o.extra_scale
    );
    let ld = LoadedDataset::load(o.input, o.extra_scale.get());
    println!(
        "analogue: |V|={} |E|={} divisor={}",
        ld.ds.graph.num_vertices(),
        ld.ds.graph.num_edges(),
        ld.ds.divisor
    );
    let mut cfg = RunConfig::new(o.policy, o.variant);
    cfg.gpudirect = o.gpudirect;
    cfg.basp_round_gap_secs = o.throttle_ms / 1e3;
    cfg.faults = o.faults.clone();
    cfg.checkpoint_every_rounds = o.checkpoint_every;
    let mut cache = PartitionCache::new();
    if let Some(sources) = &o.sources {
        if !matches!(o.bench, BenchId::Bfs | BenchId::Sssp) {
            or_exit::<()>(
                Err(CliError::new(format!(
                    "--sources: {} takes no source (only bfs and sssp batch)",
                    o.bench
                ))),
                USAGE,
            );
        }
        let n = ld.ds.graph.num_vertices();
        if let Some(&bad) = sources.iter().find(|&&s| s >= n) {
            or_exit::<()>(
                Err(CliError::new(format!(
                    "--sources: vertex {bad} out of range (analogue has {n} vertices)"
                ))),
                USAGE,
            );
        }
        println!(
            "running {} from {} sources / {} / {} (backend {}) ...",
            o.bench.name(),
            sources.len(),
            o.policy.name(),
            o.variant.label(),
            o.backend,
        );
        match dirgl_bench::run_dirgl_batch(
            o.bench, &ld, &mut cache, &platform, cfg, sources, o.backend,
        ) {
            Ok(out) => {
                let total: f64 = out
                    .engine_reports
                    .iter()
                    .map(|r| r.total_time.as_secs_f64())
                    .sum();
                let rounds: u32 = out.engine_reports.iter().map(|r| r.max_rounds).sum();
                let msgs: u64 = out.engine_reports.iter().map(|r| r.messages).sum();
                println!("\nbatched multi-source report (paper-equivalent units):");
                println!("  engine passes     : {}", out.engine_reports.len());
                println!("  aggregate time    : {total:.2}s");
                println!("  rounds (sum)      : {rounds}");
                println!("  messages (sum)    : {msgs}");
                println!(
                    "  sources/sec (sim) : {:.3}",
                    out.lanes.len() as f64 / total.max(f64::MIN_POSITIVE)
                );
                println!(
                    "  {:>10}  {:>14}  {:>10}  {:>10}",
                    "source", "sum", "min", "max"
                );
                for l in &out.lanes {
                    println!(
                        "  {:>10}  {:>14.3}  {:>10.3}  {:>10.3}",
                        l.source, l.summary.sum, l.summary.min, l.summary.max
                    );
                }
            }
            Err(e) => println!("run failed: {e}"),
        }
        return;
    }
    println!(
        "running {} / {} / {} ({}{}, {} GPUs on {}) ...",
        o.bench.name(),
        o.policy.name(),
        o.variant.label(),
        format_args!(
            "{}+{}",
            if o.variant.balancer == Balancer::Twc {
                "TWC"
            } else {
                "ALB"
            },
            o.variant.comm
        ),
        if o.variant.model == ExecModel::Sync {
            "+Sync"
        } else {
            "+Async"
        },
        o.gpus,
        o.platform,
    );
    if o.faults != FaultPlan::none() || o.checkpoint_every > 0 {
        let f = &o.faults;
        println!(
            "fault plan: seed={} drop={} dup={} delay={} crash={:?} straggler={:?} \
             checkpoint-every={}",
            f.seed, f.drop, f.duplicate, f.delay, f.crash, f.straggler, o.checkpoint_every
        );
    }
    let result = match trace.as_mut() {
        Some(sink) => {
            dirgl_bench::run_dirgl_cfg_traced(o.bench, &ld, &mut cache, &platform, cfg, sink)
        }
        None => dirgl_bench::run_dirgl_cfg(o.bench, &ld, &mut cache, &platform, cfg),
    };
    match result {
        Ok(out) => {
            let r = &out.report;
            println!("\nexecution report (paper-equivalent units):");
            println!("  total time        : {}", r.total_time);
            println!("  max compute       : {}", r.max_compute());
            println!("  min wait          : {}", r.min_wait());
            println!("  device comm       : {}", r.device_comm());
            println!(
                "  comm volume       : {:.3} GB ({} messages)",
                r.comm_gb(),
                r.messages
            );
            println!("  rounds (min..max) : {}..{}", r.rounds, r.max_rounds);
            println!("  work items        : {:.3e}", r.work_items as f64);
            println!(
                "  max device memory : {:.3} GB",
                r.max_memory() as f64 / 1e9
            );
            println!("  dynamic balance   : {:.3}", r.dynamic_balance());
            println!("  memory balance    : {:.3}", r.memory_balance());
            let s = &r.resilience;
            if *s != ResilienceStats::default() {
                println!("  -- resilience --");
                println!(
                    "  link faults       : {} drops, {} dups, {} delay spikes",
                    s.faults.drops_injected, s.faults.duplicates_injected, s.faults.delays_injected
                );
                println!(
                    "  reliable delivery : {} timeouts, {} retransmits, {} dup-suppressed, \
                     {} failures",
                    s.faults.timeouts,
                    s.faults.retransmits,
                    s.faults.duplicates_suppressed,
                    s.faults.delivery_failures
                );
                println!(
                    "  recovery          : {} crashes, {} checkpoints ({} B), {} rollbacks, \
                     {} rounds replayed, {} rejoins, {} masters reassigned, {} recovering",
                    s.crashes,
                    s.checkpoints_taken,
                    s.checkpoint_bytes,
                    s.rollbacks,
                    s.rounds_replayed,
                    s.rejoins,
                    s.masters_reassigned,
                    s.recovery_time
                );
            }
        }
        Err(e) => println!("run failed: {e}"),
    }
}
