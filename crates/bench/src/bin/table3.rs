//! Table III: maximum memory usage (GB) across the 6 GPUs of Tuxedo for cc
//! (Lux uses a static memory allocation, so its column is constant).

use dirgl_bench::{print_row, Args, BenchId, LoadedDataset, PartitionCache};
use dirgl_core::Variant;
use dirgl_gpusim::Platform;
use dirgl_graph::DatasetId;
use dirgl_partition::Policy;
use lux_sim::LuxRuntime;
use singlehost_sim::{GrouteSim, GunrockSim};

fn gb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e9)
}

fn main() {
    let args = Args::parse();
    println!("Table III: max memory usage (GB) across 6 GPUs for cc on Tuxedo\n");
    let datasets: Vec<LoadedDataset> = DatasetId::SMALL
        .iter()
        .map(|&id| LoadedDataset::load(id, args.extra_scale))
        .collect();
    let platform = Platform::tuxedo();

    let widths = [10usize, 12, 12, 12];
    let mut header = vec!["system".to_string()];
    header.extend(datasets.iter().map(|ld| ld.ds.id.name().to_string()));
    print_row(&header, &widths);

    let mut rows: Vec<(String, Vec<String>)> = Vec::new();

    let mut gunrock = Vec::new();
    let mut groute = Vec::new();
    let mut lux = Vec::new();
    let mut dirgl = Vec::new();
    for ld in &datasets {
        gunrock.push(
            match GunrockSim::new(platform.clone(), ld.ds.divisor).run_cc(ld.graph_for(BenchId::Cc))
            {
                Ok(o) => gb(o.report.max_memory()),
                Err(_) => "OOM".into(),
            },
        );
        groute.push(
            match GrouteSim::new(platform.clone(), ld.ds.divisor).run_cc(ld.graph_for(BenchId::Cc))
            {
                Ok(o) => gb(o.report.max_memory()),
                Err(_) => "OOM".into(),
            },
        );
        lux.push(
            match LuxRuntime::new(platform.clone(), ld.ds.divisor).run_cc(ld.graph_for(BenchId::Cc))
            {
                Ok(o) => gb(o.report.max_memory()),
                Err(_) => "OOM".into(),
            },
        );
        let mut cache = PartitionCache::new();
        dirgl.push(
            match dirgl_bench::run_dirgl(
                BenchId::Cc,
                ld,
                &mut cache,
                &platform,
                Policy::Cvc,
                Variant::var4(),
            ) {
                Ok(o) => gb(o.report.max_memory()),
                Err(_) => "OOM".into(),
            },
        );
    }
    rows.push(("Gunrock".into(), gunrock));
    rows.push(("Groute".into(), groute));
    rows.push(("Lux".into(), lux));
    rows.push(("D-IrGL".into(), dirgl));
    for (name, cells) in rows {
        let mut row = vec![name];
        row.extend(cells);
        print_row(&row, &widths);
    }
    println!("\nPaper shape: Lux's column is a constant static reservation (5.85 GB);");
    println!("D-IrGL uses the least memory; Gunrock's random partitioning replicates");
    println!("the most among the working-set-sized frameworks.");
}
