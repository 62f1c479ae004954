//! Figure 5: breakdown of execution time of Lux and the D-IrGL baseline
//! (Var1) for the medium graphs on 4 P100 GPUs of Bridges (Lux benchmarks:
//! cc, pagerank).

use dirgl_bench::{print_breakdown, Args, BenchId, Breakdown, LoadedDataset, PartitionCache};
use dirgl_core::Variant;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

fn main() {
    let args = Args::parse();
    let platform = Platform::bridges(4);
    println!("Figure 5: breakdown of Lux vs D-IrGL (Var1, IEC), medium graphs @ 4 GPUs");
    for id in DatasetId::MEDIUM {
        let ld = LoadedDataset::load(id, args.extra_scale);
        let mut cache = PartitionCache::new();
        for bench in [BenchId::Cc, BenchId::Pagerank] {
            let rows = [
                Breakdown {
                    label: "Lux".into(),
                    result: dirgl_bench::run_lux(bench, &ld, &mut cache, &platform),
                },
                Breakdown {
                    label: "D-IrGL(Var1)".into(),
                    result: dirgl_bench::run_dirgl(
                        bench,
                        &ld,
                        &mut cache,
                        &platform,
                        Policy::Iec,
                        Variant::var1(),
                    ),
                },
            ];
            print_breakdown(&format!("{} / {} @ 4 GPUs", bench.name(), id.name()), &rows);
        }
    }
    println!("\nPaper shape: compute times are similar (both balance only within a");
    println!("thread block); Lux's time goes to waiting + all-shared transfers.");
}
