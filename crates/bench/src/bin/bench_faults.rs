//! Resilience benchmark: what fault tolerance costs when nothing fails,
//! and what it absorbs when things do.
//!
//! Three experiments on a fig3-style twitter50/CVC run, for both engines
//! (Var3 = BSP, Var4 = BASP), all on bfs (whose converged labels are
//! exact, so "values_match" is a hard correctness check):
//!
//! 1. **Zero-fault overhead** — the raw transport vs the retry/ack
//!    reliable transport under `FaultPlan::none()`. The two must produce
//!    byte-identical reports and vertex values (the engine guards this
//!    structurally); the wall-clock delta is the bookkeeping overhead.
//! 2. **Drop-rate sweep** — 1%, 5% and 20% per-attempt message loss.
//!    Retransmissions absorb every drop; final values must still match
//!    the fault-free run, and the simulated total time shows the
//!    retry-ladder cost.
//! 3. **Crash + recovery** — device 1 crashes at round 3 under 5% drop,
//!    once with `+rejoin` (rollback to the last checkpoint, device
//!    restored) and once without (graceful degradation: its masters move
//!    to a survivor).
//!
//! Writes `BENCH_faults.json` (schema documented in EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release --bin bench_faults -- [--scale N] [--out PATH]
//! ```

use std::num::NonZeroU64;
use std::time::Instant;

use dirgl_bench::cli::{or_exit, write_output, ArgStream, CliError};
use dirgl_bench::{run_dirgl_cfg, BenchId, LoadedDataset, PartitionCache};
use dirgl_comm::FaultPlan;
use dirgl_core::{RunConfig, RunOutput, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

const DEVICES: u32 = 8;
const BENCH: BenchId = BenchId::Bfs;
const POLICY: Policy = Policy::Cvc;
const DROP_RATES: [f64; 3] = [0.01, 0.05, 0.20];
const SEED: u64 = 42;
const CKPT_EVERY: u32 = 2;

const USAGE: &str = "usage: bench_faults [--scale N] [--out PATH]";

struct Opts {
    extra_scale: NonZeroU64,
    out_path: String,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        extra_scale: NonZeroU64::MIN,
        out_path: "BENCH_faults.json".to_string(),
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => o.extra_scale = it.parsed("--scale", "a positive integer")?,
            "--out" => o.out_path = it.value("--out")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

fn value_bits(out: &RunOutput) -> Vec<u64> {
    out.values.iter().map(|v| v.to_bits()).collect()
}

struct Harness {
    ld: LoadedDataset,
    platform: Platform,
    cache: PartitionCache,
}

impl Harness {
    fn run(&mut self, variant: Variant, faults: Option<FaultPlan>, ckpt: u32) -> RunOutput {
        let mut cfg = RunConfig::new(POLICY, variant);
        cfg.faults = faults;
        cfg.checkpoint_every_rounds = ckpt;
        run_dirgl_cfg(BENCH, &self.ld, &mut self.cache, &self.platform, cfg).unwrap()
    }
}

fn main() {
    let Opts {
        extra_scale,
        out_path,
    } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

    let ld = LoadedDataset::load(DatasetId::Twitter50, extra_scale.get());
    let mut h = Harness {
        ld,
        platform: Platform::bridges(DEVICES),
        cache: PartitionCache::new(),
    };
    h.cache.get(&h.ld, BENCH, POLICY, DEVICES);

    let variants = [
        ("var3_bsp", Variant::var3()),
        ("var4_basp", Variant::var4()),
    ];
    println!(
        "bench_faults: twitter50/{}/bfs @ {DEVICES} devices, seed {SEED}\n",
        POLICY.name()
    );

    let mut overhead_rows = Vec::new();
    let mut sweep_rows = Vec::new();
    let mut crash_rows = Vec::new();

    for (label, variant) in variants {
        // 1. Zero-fault overhead: raw vs FaultPlan::none(), byte-identical.
        h.run(variant, None, 0); // warm-up, untimed
        let t0 = Instant::now();
        let raw = h.run(variant, None, 0);
        let wall_raw = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let null = h.run(variant, Some(FaultPlan::none()), 0);
        let wall_null = t1.elapsed().as_secs_f64();
        let identical = format!("{:?}", raw.report) == format!("{:?}", null.report)
            && value_bits(&raw) == value_bits(&null);
        assert!(
            identical,
            "{label}: FaultPlan::none() diverged from the raw transport"
        );
        let overhead_pct = (wall_null / wall_raw - 1.0) * 100.0;
        println!(
            "{label:>10} overhead: raw {wall_raw:.3}s, reliable {wall_null:.3}s \
             ({overhead_pct:+.1}%), identical: {identical}"
        );
        overhead_rows.push(format!(
            "    {{\"variant\": \"{label}\", \"wall_raw_s\": {wall_raw:.6}, \
             \"wall_reliable_s\": {wall_null:.6}, \"overhead_pct\": {overhead_pct:.2}, \
             \"identical\": {identical}}}"
        ));
        let base_time = raw.report.total_time.as_secs_f64();
        let base_bits = value_bits(&raw);

        // 2. Drop-rate sweep.
        for drop in DROP_RATES {
            let out = h.run(variant, Some(FaultPlan::seeded(SEED).with_drop(drop)), 0);
            let s = &out.report.resilience;
            let values_match = value_bits(&out) == base_bits;
            let total = out.report.total_time.as_secs_f64();
            println!(
                "{label:>10} drop {:>4.0}%: sim {total:.4}s (fault-free {base_time:.4}s), \
                 {} drops, {} retransmits, {} timeouts, values_match: {values_match}",
                drop * 100.0,
                s.faults.drops_injected,
                s.faults.retransmits,
                s.faults.timeouts,
            );
            sweep_rows.push(format!(
                "    {{\"variant\": \"{label}\", \"drop\": {drop}, \
                 \"sim_total_s\": {total:.6}, \"sim_faultfree_s\": {base_time:.6}, \
                 \"drops_injected\": {}, \"retransmits\": {}, \"timeouts\": {}, \
                 \"duplicates_suppressed\": {}, \"values_match\": {values_match}}}",
                s.faults.drops_injected,
                s.faults.retransmits,
                s.faults.timeouts,
                s.faults.duplicates_suppressed,
            ));
        }

        // 3. Crash at round 3 under 5% drop: rejoin, then degradation.
        for (mode, rejoin) in [("rejoin", true), ("degrade", false)] {
            let plan = FaultPlan::seeded(SEED)
                .with_drop(0.05)
                .with_crash(1, 3, rejoin);
            let out = h.run(variant, Some(plan), CKPT_EVERY);
            let s = &out.report.resilience;
            let values_match = value_bits(&out) == base_bits;
            let total = out.report.total_time.as_secs_f64();
            println!(
                "{label:>10} crash/{mode}: sim {total:.4}s, {} checkpoints, {} rollbacks, \
                 {} rejoins, {} masters reassigned, recovery {:.4}s, values_match: \
                 {values_match}",
                s.checkpoints_taken,
                s.rollbacks,
                s.rejoins,
                s.masters_reassigned,
                s.recovery_time.as_secs_f64(),
            );
            crash_rows.push(format!(
                "    {{\"variant\": \"{label}\", \"mode\": \"{mode}\", \
                 \"sim_total_s\": {total:.6}, \"checkpoints_taken\": {}, \
                 \"checkpoint_bytes\": {}, \"rollbacks\": {}, \"rounds_replayed\": {}, \
                 \"rejoins\": {}, \"masters_reassigned\": {}, \"recovery_s\": {:.6}, \
                 \"retransmits\": {}, \"values_match\": {values_match}}}",
                s.checkpoints_taken,
                s.checkpoint_bytes,
                s.rollbacks,
                s.rounds_replayed,
                s.rejoins,
                s.masters_reassigned,
                s.recovery_time.as_secs_f64(),
                s.faults.retransmits,
            ));
        }
        println!();
    }

    let json = format!(
        "{{\n  \"dataset\": \"twitter50\",\n  \"bench\": \"bfs\",\n  \"policy\": \"{}\",\n  \
         \"devices\": {DEVICES},\n  \"extra_scale\": {extra_scale},\n  \"seed\": {SEED},\n  \
         \"checkpoint_every_rounds\": {CKPT_EVERY},\n  \
         \"zero_fault_overhead\": [\n{}\n  ],\n  \
         \"drop_sweep\": [\n{}\n  ],\n  \
         \"crash_recovery\": [\n{}\n  ],\n  \
         \"note\": \"bfs labels are exact, so values_match is a hard correctness check: \
         every faulty run must converge to the fault-free answer. zero_fault_overhead \
         compares the raw transport against the retry/ack transport under an empty fault \
         plan; the engines guarantee byte-identical reports there, so overhead_pct is pure \
         host-side bookkeeping. sim_total_s is simulated (paper-equivalent) time; wall_*_s \
         is host wall-clock.\"\n}}\n",
        POLICY.name(),
        overhead_rows.join(",\n"),
        sweep_rows.join(",\n"),
        crash_rows.join(",\n"),
    );
    or_exit(write_output(&out_path, &json), USAGE);
    println!("wrote {out_path}");
}
