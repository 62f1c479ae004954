//! Table IV: static load balance (max/mean edges), dynamic load balance
//! (max/mean compute time) and memory balance (max/mean GPU memory) of
//! D-IrGL for all benchmarks and policies, on uk07 @ 32 GPUs and
//! uk14 @ 64 GPUs. Ends with the claim `static_tracks_memory_not_dynamic`.

use dirgl_bench::{print_claim, print_row, Args, BenchId, LoadedDataset, PartitionCache};
use dirgl_core::Variant;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::{PartitionMetrics, Policy};

fn main() {
    let args = Args::parse();
    println!("Table IV: static / dynamic / memory load balance of D-IrGL (Var4)\n");
    let configs = [(DatasetId::Uk07, 32u32), (DatasetId::Uk14, 64u32)];
    let widths = [10usize, 8, 8, 8, 8];
    // bfs on uk07: the largest |static - memory| and |static - dynamic|
    // over the policies; an OOM cell leaves the claim failing.
    let (mut memory_gap, mut dynamic_gap, mut oom) = (0.0f64, 0.0f64, false);

    for (id, gpus) in configs {
        let ld = LoadedDataset::load(id, args.extra_scale);
        let platform = Platform::bridges(gpus);
        let mut cache = PartitionCache::new();
        println!("--- {} on {gpus} GPUs ---", id.name());
        print_row(
            &[
                "bench".into(),
                "policy".into(),
                "static".into(),
                "dynamic".into(),
                "memory".into(),
            ],
            &widths,
        );
        for bench in BenchId::ALL {
            // pagerank's IEC/OEC rows only, like the paper (it prints no
            // HVC row for pr)? The paper lists CVC/IEC/OEC for pagerank and
            // all four elsewhere; we print all four everywhere for
            // completeness.
            for policy in Policy::DIRGL {
                let part = cache.get(&ld, bench, policy, gpus);
                let static_balance = PartitionMetrics::compute(part).static_balance;
                let row = dirgl_bench::run_dirgl(
                    bench,
                    &ld,
                    &mut cache,
                    &platform,
                    policy,
                    Variant::var4(),
                );
                let claimed = id == DatasetId::Uk07 && bench == BenchId::Bfs;
                oom |= claimed && row.is_err();
                if let (true, Ok(out)) = (claimed, &row) {
                    memory_gap =
                        memory_gap.max((static_balance - out.report.memory_balance()).abs());
                    dynamic_gap =
                        dynamic_gap.max((static_balance - out.report.dynamic_balance()).abs());
                }
                match row {
                    Ok(out) => print_row(
                        &[
                            bench.name().into(),
                            policy.name().into(),
                            format!("{:.2}", static_balance),
                            format!("{:.2}", out.report.dynamic_balance()),
                            format!("{:.2}", out.report.memory_balance()),
                        ],
                        &widths,
                    ),
                    Err(_) => print_row(
                        &[
                            bench.name().into(),
                            policy.name().into(),
                            format!("{:.2}", static_balance),
                            "OOM".into(),
                            "OOM".into(),
                        ],
                        &widths,
                    ),
                }
            }
            println!();
        }
    }
    println!("Paper shape: IEC/OEC static ~1.00; CVC/HVC statically imbalanced;");
    println!("static is NOT correlated with dynamic, but static and memory are.");

    // Static balance tracks memory balance closely (memory is
    // edge-proportional), while dynamic balance strays further from static
    // (active sets are unpredictable).
    print_claim(
        "static_tracks_memory_not_dynamic",
        !oom && memory_gap < 0.12 && dynamic_gap > memory_gap,
        &format!(
            "bfs/uk07 @ 32 GPUs, Var4, all policies: max |static - memory| {memory_gap:.3} \
             (< 0.12), max |static - dynamic| {dynamic_gap:.3}"
        ),
    );
}
