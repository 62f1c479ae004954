//! Resilience benchmark: what the fault-tolerance layer absorbs when
//! things fail.
//!
//! Two experiments on a fig3-style twitter50/CVC run, for both engines
//! (Var3 = BSP, Var4 = BASP), all on bfs (whose converged labels are
//! exact, so matching the fault-free run's values is a hard correctness
//! check, asserted on every faulty run):
//!
//! 1. **Drop-rate sweep** — 1%, 5% and 20% per-attempt message loss.
//!    Retransmissions absorb every drop; final values must still match
//!    the fault-free run, and the simulated total time shows the
//!    retry-ladder cost.
//! 2. **Crash + recovery** — device 1 crashes at round 3 under 5% drop,
//!    once with `+rejoin` (rollback to the last checkpoint, device
//!    restored) and once without (graceful degradation: its masters move
//!    to a survivor).
//!
//! Every row is simulated time and counts, so stdout repeats byte for
//! byte at any pool size; `bench_results/bench_faults.txt` holds it (CI
//! diffs it).
//!
//! ```sh
//! cargo run --release --bin bench_faults -- [--scale N]
//! ```

use std::num::NonZeroU64;

use dirgl_bench::cli::{or_exit, ArgStream, CliError};
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

const USAGE: &str = "usage: bench_faults [--scale N]";

fn try_parse(mut it: ArgStream) -> Result<NonZeroU64, CliError> {
    let mut extra_scale = NonZeroU64::MIN;
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => extra_scale = it.parsed("--scale", "a positive integer")?,
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(extra_scale)
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
    fn run(&mut self, variant: Variant, faults: FaultPlan, ckpt: u32) -> RunOutput {
        let cfg = RunConfig::new(POLICY, variant)
            .with_faults(faults)
            .with_checkpoints(ckpt);
        run_dirgl_cfg(BENCH, &self.ld, &mut self.cache, &self.platform, cfg).unwrap()
    }
}

fn main() {
    let extra_scale = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

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
        "bench_faults: twitter50/{}/bfs @ {DEVICES} devices, seed {SEED}, \
         checkpoints every {CKPT_EVERY} rounds\n",
        POLICY.name()
    );

    for (label, variant) in variants {
        let base = h.run(variant, FaultPlan::none(), 0);
        let base_time = base.report.total_time.as_secs_f64();
        let base_bits = value_bits(&base);
        // Every faulty run must converge to the fault-free answer.
        let assert_converged = |out: &RunOutput, row: &str| {
            assert!(
                value_bits(out) == base_bits,
                "{label} {row}: converged to values that differ from the fault-free run"
            );
        };

        // 1. Drop-rate sweep.
        for drop in DROP_RATES {
            let out = h.run(variant, FaultPlan::seeded(SEED).with_drop(drop), 0);
            let s = &out.report.resilience;
            println!(
                "{label:>10} drop {drop:.2}: sim {:.6}s (fault-free {base_time:.6}s), \
                 {} drops, {} retransmits, {} timeouts, {} duplicates suppressed",
                out.report.total_time.as_secs_f64(),
                s.faults.drops_injected,
                s.faults.retransmits,
                s.faults.timeouts,
                s.faults.duplicates_suppressed,
            );
            assert_converged(&out, &format!("drop {drop}"));
        }

        // 2. Crash at round 3 under 5% drop: rejoin, then degradation.
        for (mode, rejoin) in [("rejoin", true), ("degrade", false)] {
            let plan = FaultPlan::seeded(SEED)
                .with_drop(0.05)
                .with_crash(1, 3, rejoin);
            let out = h.run(variant, plan, CKPT_EVERY);
            let s = &out.report.resilience;
            println!(
                "{label:>10} crash/{mode}: sim {:.6}s, {} checkpoints ({} bytes), \
                 {} rollbacks, {} rounds replayed, {} rejoins, {} masters reassigned, \
                 recovery {:.6}s, {} retransmits",
                out.report.total_time.as_secs_f64(),
                s.checkpoints_taken,
                s.checkpoint_bytes,
                s.rollbacks,
                s.rounds_replayed,
                s.rejoins,
                s.masters_reassigned,
                s.recovery_time.as_secs_f64(),
                s.faults.retransmits,
            );
            assert_converged(&out, &format!("crash/{mode}"));
        }
        println!();
    }
    println!("every faulty run converged to the fault-free values");
}
