//! Figure 3: strong scaling of the D-IrGL variants (Var1–Var4, IEC) and
//! Lux for the medium graphs on Bridges, 2–64 GPUs. Missing cells are OOM
//! (the paper's missing points). Ends with the claim
//! `lux_trails_and_flattens` (§V-B1).

use std::collections::HashMap;

use dirgl_bench::{
    bridges_gpu_counts, fmt_result, print_claim, print_row, total_secs, Args, BenchId,
    LoadedDataset, PartitionCache,
};
use dirgl_core::Variant;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

/// The series key of the Lux row (the variants are 1..=4).
const LUX: usize = 0;

fn main() {
    let args = Args::parse();
    let counts = bridges_gpu_counts(args.quick);
    let mut trace = dirgl_bench::cli::or_exit(args.open_trace(), Args::USAGE);
    println!("Figure 3: strong scaling (sec), D-IrGL variants (IEC) + Lux, medium graphs\n");
    let mut secs = HashMap::new();

    for id in DatasetId::MEDIUM {
        let ld = LoadedDataset::load(id, args.extra_scale);
        let mut cache = PartitionCache::new();
        for bench in BenchId::ALL {
            println!("--- {} / {} ---", bench.name(), id.name());
            let widths = [8usize; 7];
            let mut header = vec!["series".to_string()];
            header.extend(counts.iter().map(|c| format!("{c} GPUs")));
            print_row(&header, &widths);
            for (vi, variant) in Variant::all().iter().enumerate() {
                let mut row = vec![format!("Var{}", vi + 1)];
                for &n in &counts {
                    let r = dirgl_bench::run_dirgl_maybe_traced(
                        bench,
                        &ld,
                        &mut cache,
                        &Platform::bridges(n),
                        Policy::Iec,
                        *variant,
                        &mut trace,
                        &format!("{}/{}/Var{}/{}gpus", bench.name(), id.name(), vi + 1, n),
                    );
                    row.push(fmt_result(&r));
                    secs.insert((id, bench, vi + 1, n), total_secs(&r));
                }
                print_row(&row, &widths);
            }
            // Lux runs cc and pagerank only.
            if matches!(bench, BenchId::Cc | BenchId::Pagerank) {
                let mut row = vec!["Lux".to_string()];
                for &n in &counts {
                    let r = dirgl_bench::run_lux(bench, &ld, &mut cache, &Platform::bridges(n));
                    row.push(fmt_result(&r));
                    secs.insert((id, bench, LUX, n), total_secs(&r));
                }
                print_row(&row, &widths);
            }
            println!();
        }
    }
    println!("Paper shape: Var1 always beats Lux; Lux stops scaling past 4 GPUs;");
    println!("Var3 generally beats Var2; Var4 is usually (not always) fastest.");

    // D-IrGL's baseline Var1 beats Lux, and Lux's scaling flattens: its
    // 64-GPU time gains less over 16 GPUs than Var1's.
    let cc = |series, n| secs[&(DatasetId::Twitter50, BenchId::Cc, series, n)];
    let (var1, lux) = ([cc(1, 16), cc(1, 64)], [cc(LUX, 16), cc(LUX, 64)]);
    let gain = |t: [f64; 2]| t[0] / t[1];
    print_claim(
        "lux_trails_and_flattens",
        lux[0] > var1[0] && lux[1] > var1[1] && gain(lux) < gain(var1),
        &format!(
            "cc/twitter50, IEC: Lux {:.3} vs Var1 {:.3} s at 16 GPUs, {:.3} vs {:.3} s at 64; \
             16 -> 64 GPUs Lux gains {:.2}x, Var1 {:.2}x",
            lux[0],
            var1[0],
            lux[1],
            var1[1],
            gain(lux),
            gain(var1)
        ),
    );
}
