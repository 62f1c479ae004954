//! Partitioning-policy study on a web-crawl analogue — a miniature of the
//! paper's §V-C analysis: how OEC/IEC/HVC/CVC trade replication,
//! communication partners, volume, and time as the device count grows.
//!
//! ```sh
//! cargo run --release --example partitioning_study
//! ```

use dirgl::comm::SyncPlan;
use dirgl::prelude::*;

fn main() {
    // A uk07-style web crawl: site locality, a high in-degree hub tail.
    let graph = WebCrawlConfig::new(40_000, 1_200_000, 1_500, 1_000, 40)
        .seed(7)
        .generate();
    let graph = dirgl::graph::weights::randomize_weights(&graph, 100, 7);
    let st = GraphStats::compute(&graph);
    println!(
        "web crawl analogue: |V|={} |E|={} maxDin={} diameter~{}\n",
        st.num_vertices, st.num_edges, st.max_in_degree, st.approx_diameter
    );

    for devices in [4u32, 16, 64] {
        println!("--- {devices} GPUs ---");
        println!(
            "{:>6}  {:>6}  {:>9}  {:>9}  {:>9}  {:>10}  {:>9}",
            "policy", "repl", "static", "partners", "sssp(s)", "volume(GB)", "rounds"
        );
        for policy in [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc] {
            let part = Partition::build(&graph, policy, devices, 1);
            let metrics = PartitionMetrics::compute(&part);
            let plan = SyncPlan::build(&part, true, true);
            let max_partners = (0..devices)
                .map(|d| plan.partner_count(d))
                .max()
                .unwrap_or(0);

            let runtime = Runtime::new(Platform::bridges(devices), RunConfig::var4(policy));
            let app = Sssp::from_max_out_degree(&graph);
            match runtime.runner(&graph, &app).partition(&part).execute() {
                Ok(out) => println!(
                    "{:>6}  {:>6.2}  {:>9.2}  {:>9}  {:>9.3}  {:>10.3}  {:>9}",
                    policy.name(),
                    metrics.replication_factor,
                    metrics.static_balance,
                    max_partners,
                    out.report.total_time.as_secs_f64(),
                    out.report.comm_gb(),
                    out.report.rounds,
                ),
                Err(e) => println!("{:>6}  {e}", policy.name()),
            }
        }
        println!();
    }
    println!("Expected (the paper's §V-C): CVC's partner set collapses to its");
    println!("grid row + column while edge-cuts talk to everyone, and CVC pulls");
    println!("ahead as the device count reaches 16+.");
}
