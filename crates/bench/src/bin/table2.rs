//! Table II: fastest execution time of all four frameworks on the
//! single-host multi-GPU system (Tuxedo), using each framework's
//! best-performing GPU count out of {1, 2, 4, 6}. D-IrGL additionally
//! searches its partitioning policies.

use dirgl_bench::{fmt_time, print_row, Args, BenchId, LoadedDataset, PartitionCache};
use dirgl_core::{RunError, RunOutput, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;
use singlehost_sim::{GrouteSim, GunrockSim};

/// Best (time, gpus, tag) over a set of candidate runs.
fn best(results: Vec<(Result<RunOutput, RunError>, u32, String)>) -> String {
    let mut best: Option<(f64, u32, String)> = None;
    for (r, gpus, tag) in results {
        if let Ok(out) = r {
            let t = out.report.total_time.as_secs_f64();
            if best.as_ref().is_none_or(|(bt, _, _)| t < *bt) {
                best = Some((t, gpus, tag));
            }
        }
    }
    match best {
        Some((t, gpus, tag)) => {
            let tag = if tag.is_empty() {
                String::new()
            } else {
                format!("({tag}) ")
            };
            format!(
                "{tag}{} ({gpus})",
                fmt_time(dirgl_comm::SimTime::from_secs_f64(t))
            )
        }
        None => "OOM".into(),
    }
}

fn main() {
    let args = Args::parse();
    let counts: Vec<u32> = if args.quick {
        vec![1, 6]
    } else {
        vec![1, 2, 4, 6]
    };
    println!("Table II: fastest execution time (sec) on Tuxedo");
    println!("(best-performing GPU count in parentheses; D-IrGL best policy tagged)\n");

    let datasets: Vec<LoadedDataset> = DatasetId::SMALL
        .iter()
        .map(|&id| LoadedDataset::load(id, args.extra_scale))
        .collect();

    let widths = [9usize, 10, 22, 22, 22];
    let mut header = vec!["bench".to_string(), "platform".to_string()];
    header.extend(datasets.iter().map(|ld| ld.ds.id.name().to_string()));
    print_row(&header, &widths);

    for bench in [BenchId::Bfs, BenchId::Cc, BenchId::Pagerank, BenchId::Sssp] {
        // --- Gunrock (no pagerank: "its pr produced incorrect output").
        if bench != BenchId::Pagerank {
            let mut row = vec![bench.name().to_string(), "Gunrock".to_string()];
            for ld in &datasets {
                let mut cands = Vec::new();
                for &n in &counts {
                    let fw = GunrockSim::new(Platform::tuxedo_n(n), ld.ds.divisor);
                    let r = match bench {
                        BenchId::Bfs => fw.run_bfs(&ld.ds.graph),
                        BenchId::Cc => fw.run_cc(ld.graph_for(BenchId::Cc)),
                        BenchId::Sssp => fw.run_sssp(&ld.ds.graph),
                        _ => unreachable!(),
                    };
                    cands.push((r, n, String::new()));
                }
                row.push(best(cands));
            }
            print_row(&row, &widths);
        }

        // --- Groute.
        let mut row = vec![bench.name().to_string(), "Groute".to_string()];
        for ld in &datasets {
            let mut cands = Vec::new();
            for &n in &counts {
                let fw = GrouteSim::new(Platform::tuxedo_n(n), ld.ds.divisor);
                let r = match bench {
                    BenchId::Bfs => fw.run_bfs(&ld.ds.graph),
                    BenchId::Cc => fw.run_cc(ld.graph_for(BenchId::Cc)),
                    BenchId::Pagerank => fw.run_pagerank(&ld.ds.graph),
                    BenchId::Sssp => fw.run_sssp(&ld.ds.graph),
                    _ => unreachable!(),
                };
                cands.push((r, n, String::new()));
            }
            row.push(best(cands));
        }
        print_row(&row, &widths);

        // --- Lux (cc and pagerank only).
        if matches!(bench, BenchId::Cc | BenchId::Pagerank) {
            let mut row = vec![bench.name().to_string(), "Lux".to_string()];
            for ld in &datasets {
                let mut cands = Vec::new();
                let mut cache = PartitionCache::new();
                for &n in &counts {
                    let r = dirgl_bench::run_lux(bench, ld, &mut cache, &Platform::tuxedo_n(n));
                    cands.push((r, n, "IEC".to_string()));
                }
                row.push(best(cands));
            }
            print_row(&row, &widths);
        }

        // --- D-IrGL: best over policies and GPU counts (Var4 default).
        let mut row = vec![bench.name().to_string(), "D-IrGL".to_string()];
        for ld in &datasets {
            let mut cache = PartitionCache::new();
            let mut cands = Vec::new();
            let policies = if args.quick {
                vec![Policy::Iec, Policy::Cvc]
            } else {
                Policy::DIRGL.to_vec()
            };
            for policy in policies {
                for &n in &counts {
                    let r = dirgl_bench::run_dirgl(
                        bench,
                        ld,
                        &mut cache,
                        &Platform::tuxedo_n(n),
                        policy,
                        Variant::var4(),
                    );
                    cands.push((r, n, policy.name().to_string()));
                }
            }
            row.push(best(cands));
        }
        print_row(&row, &widths);
        println!();
    }
    println!("Paper shape: Gunrock wins bfs (direction optimization); D-IrGL is");
    println!("competitive or best elsewhere; Lux trails on both of its benchmarks.");
}
