//! Figure 4: breakdown of execution time of the D-IrGL variants (IEC) for
//! the medium graphs on 32 P100 GPUs of Bridges, with communication-volume
//! annotations. Ends with the claims `updated_only_cuts_volume` (§V-B3)
//! and `alb_helps_exactly_where_the_paper_says` (§V-B2).

use std::collections::HashMap;

use dirgl_bench::{
    print_breakdown, print_claim, Args, BenchId, Breakdown, LoadedDataset, PartitionCache,
};
use dirgl_core::{ExecutionReport, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;

fn main() {
    let args = Args::parse();
    let platform = Platform::bridges(32);
    let mut trace = dirgl_bench::cli::or_exit(args.open_trace(), Args::USAGE);
    println!("Figure 4: breakdown of D-IrGL variants (IEC), medium graphs @ 32 GPUs");
    let mut reports = Reports::new();
    for id in DatasetId::MEDIUM {
        let ld = LoadedDataset::load(id, args.extra_scale);
        let mut cache = PartitionCache::new();
        for bench in BenchId::ALL {
            let rows: Vec<Breakdown> = Variant::all()
                .iter()
                .enumerate()
                .map(|(vi, variant)| Breakdown {
                    label: format!("Var{}", vi + 1),
                    result: dirgl_bench::run_dirgl_maybe_traced(
                        bench,
                        &ld,
                        &mut cache,
                        &platform,
                        Policy::Iec,
                        *variant,
                        &mut trace,
                        &format!("{}/{}/Var{}", bench.name(), id.name(), vi + 1),
                    ),
                })
                .collect();
            print_breakdown(
                &format!("{} / {} @ 32 GPUs", bench.name(), id.name()),
                &rows,
            );
            for (vi, b) in rows.into_iter().enumerate() {
                if let Ok(out) = b.result {
                    reports.insert((id, bench, vi + 1), out.report);
                }
            }
        }
    }
    println!("\nPaper shape: Var3 cuts volume sharply vs Var2 (UO); Var2 only helps");
    println!("compute where max in-degree is huge (pagerank); Var4 shrinks wait.");

    let oom = || (false, "a cell ran out of memory".to_string());
    let (holds, evidence) = updated_only_cuts_volume(&reports).unwrap_or_else(oom);
    print_claim("updated_only_cuts_volume", holds, &evidence);
    let (holds, evidence) = alb_helps_exactly_where_the_paper_says(&reports).unwrap_or_else(oom);
    print_claim("alb_helps_exactly_where_the_paper_says", holds, &evidence);
}

/// Every cell's report, by dataset, benchmark and variant number.
type Reports = HashMap<(DatasetId, BenchId, usize), ExecutionReport>;

/// UO (Var3) cuts communication volume sharply against AS (Var2), and
/// does not lose time, on the social-network input.
fn updated_only_cuts_volume(reports: &Reports) -> Option<(bool, String)> {
    let report = |bench, var| reports.get(&(DatasetId::Twitter50, bench, var));
    let mut holds = true;
    let mut evidence = vec!["twitter50, Var3 vs Var2".to_string()];
    for bench in [BenchId::Bfs, BenchId::Sssp] {
        let (v2, v3) = (report(bench, 2)?, report(bench, 3)?);
        holds &= (v3.comm_bytes as f64) < 0.5 * v2.comm_bytes as f64;
        holds &= v3.total_time <= v2.total_time;
        evidence.push(format!(
            "{bench} volume ratio {:.3}, time {:.3} vs {:.3} s",
            v3.comm_bytes as f64 / v2.comm_bytes as f64,
            v3.total_time.as_secs_f64(),
            v2.total_time.as_secs_f64()
        ));
    }
    Some((holds, evidence.join("; ")))
}

/// ALB (Var2) only matters where the max in-degree is huge: pagerank
/// (pull) on a web crawl. On push bfs, TWC (Var1) and ALB tie.
fn alb_helps_exactly_where_the_paper_says(reports: &Reports) -> Option<(bool, String)> {
    let compute = |bench, var| {
        let r = reports.get(&(DatasetId::Uk07, bench, var));
        r.map(|r| r.max_compute().as_secs_f64())
    };
    let (pr1, pr2) = (
        compute(BenchId::Pagerank, 1)?,
        compute(BenchId::Pagerank, 2)?,
    );
    let bfs = compute(BenchId::Bfs, 1)? / compute(BenchId::Bfs, 2)?.max(1e-12);
    Some((
        pr1 > 1.5 * pr2 && (0.7..1.6).contains(&bfs),
        format!(
            "uk07, max compute Var1 vs Var2: pagerank {pr1:.2} vs {pr2:.2} s, bfs ratio {bfs:.2}"
        ),
    ))
}
