//! The benchmark's contract: workloads, metrics, units, clocks and bounds.
//!
//! This table is the single source of `BENCHMARK.json` at the root of the
//! repository ([`manifest_json`] prints it; `tests/smoke.rs` checks the
//! committed file against it).

/// Which clock a number is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock: what a user of the library or job-server waits on.
    Host,
    /// Simulated paper-time (`SimTime`): deterministic for fixed inputs.
    Sim,
    /// A count or a ratio of counts; no clock.
    Count,
}

impl Clock {
    /// Label printed after every metric line.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host-clock",
            Clock::Sim => "sim-clock",
            Clock::Count => "count",
        }
    }
}

/// One metric of the contract.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Clock the value is read from.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better,
        bound: Some(bound),
        clock: Clock::Host,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    clock: Clock,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better,
        bound: None,
        clock,
    }
}

/// Seconds one run measures for (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 12;

/// End-to-end metrics: what a user of the system sees. All host-clock.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("op_p50_ms", "ms", true, 0.25),
    e2e("op_p90_ms", "ms", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.25),
    e2e("peak_mb", "MB", true, 0.10),
];

/// The job kinds `serve_mix` draws from, as used in metric names.
pub const SERVE_KINDS: [&str; 9] = [
    "bfs",
    "sssp",
    "bc",
    "pagerank",
    "cc",
    "kcore",
    "bfs_wide",
    "sssp_wide",
    "bc_wide",
];

use Clock::{Count, Host, Sim};

/// Per-layer metrics, from the `--trace 1` run. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // graph
    layer("graph.generate_ms", "ms", true, Host),
    layer("graph.symmetrize_ms", "ms", true, Host),
    layer("graph.transpose_ms", "ms", true, Host),
    layer("graph.stream_ingest_ms", "ms", true, Host),
    layer("graph.compress_ratio", "ratio", false, Count),
    layer("graph.edges", "count", false, Count),
    // partition
    layer("partition.build_ms", "ms", true, Host),
    layer("partition.build_streamed_ms", "ms", true, Host),
    layer("partition.replication_factor", "ratio", true, Count),
    layer("partition.static_balance", "ratio", true, Count),
    // comm
    layer("comm.syncplan_build_ms", "ms", true, Host),
    layer("comm.messages", "count", true, Count),
    layer("comm.bytes", "count", true, Count),
    layer("comm.msgs_per_round", "count", true, Count),
    layer("comm.min_wait_sim_s", "s", true, Sim),
    layer("comm.device_comm_sim_s", "s", true, Sim),
    // gpusim
    layer("gpusim.max_compute_sim_s", "s", true, Sim),
    layer("gpusim.work_items", "count", true, Count),
    layer("gpusim.dynamic_balance", "ratio", true, Count),
    layer("gpusim.peak_device_bytes", "count", true, Count),
    // core
    layer("core.prepare_ms", "ms", true, Host),
    layer("core.layout_build_ms", "ms", true, Host),
    layer("core.run_ms", "ms", true, Host),
    layer("core.rounds", "count", true, Count),
    layer("core.device_rounds", "count", true, Count),
    layer("core.us_per_device_round", "us", true, Host),
    layer("core.ns_per_edge", "ns", true, Host),
    layer("core.allocs_per_run", "count", true, Count),
    layer("core.alloc_kb_per_run", "kB", true, Count),
    layer("core.host_per_sim", "ratio", true, Host),
    layer("core.trace_overhead_share", "ratio", true, Host),
    // apps
    layer("apps.ref_check_ms", "ms", true, Host),
    // serve
    layer("serve.load_ms", "ms", true, Host),
    layer("serve.cache_hit_share", "ratio", false, Count),
    layer("serve.coalesced_share", "ratio", false, Count),
    layer("serve.degraded", "count", true, Count),
    layer("serve.retries", "count", true, Count),
    layer("serve.rejected", "count", true, Count),
    layer("serve.hit_p50_us", "us", true, Host),
    layer("serve.bump_epoch_us", "us", true, Host),
    layer("serve.queue_share", "ratio", true, Host),
    layer("serve.miss_p50_ms.bfs", "ms", true, Host),
    layer("serve.miss_p50_ms.sssp", "ms", true, Host),
    layer("serve.miss_p50_ms.bc", "ms", true, Host),
    layer("serve.miss_p50_ms.pagerank", "ms", true, Host),
    layer("serve.miss_p50_ms.cc", "ms", true, Host),
    layer("serve.miss_p50_ms.kcore", "ms", true, Host),
    layer("serve.miss_p50_ms.bfs_wide", "ms", true, Host),
    layer("serve.miss_p50_ms.sssp_wide", "ms", true, Host),
    layer("serve.miss_p50_ms.bc_wide", "ms", true, Host),
    layer("serve.engine_ms.bfs", "ms", true, Host),
    layer("serve.engine_ms.sssp", "ms", true, Host),
    layer("serve.engine_ms.bc", "ms", true, Host),
    layer("serve.engine_ms.pagerank", "ms", true, Host),
    layer("serve.engine_ms.cc", "ms", true, Host),
    layer("serve.engine_ms.kcore", "ms", true, Host),
    layer("serve.engine_ms.bfs_wide", "ms", true, Host),
    layer("serve.engine_ms.sssp_wide", "ms", true, Host),
    layer("serve.engine_ms.bc_wide", "ms", true, Host),
    // whole run
    layer("sim_s", "s", true, Sim),
    layer("fail_share", "ratio", true, Count),
    layer("setup_cold_s", "s", true, Host),
    layer("span_coverage_share", "ratio", false, Host),
    layer("trace_overhead_share", "ratio", true, Host),
];

/// One workload of the contract.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// One line on why it is in the benchmark.
    pub why: &'static str,
}

/// The five workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pr_dense",
        why: "57 near-dense pull rounds: core::device round bodies, apps and gpusim kernel charging do the work, per-round bookkeeping little",
    },
    WorkloadDef {
        name: "bfs_bsp_highdiam",
        why: "501 BSP rounds on 64 devices of almost no compute: core::bsp barriers, comm sparse extraction and NetModel exchange do the work",
    },
    WorkloadDef {
        name: "sssp_basp_highdiam",
        why: "same graph and partition through core::basp (event heap, push): a change that helps one engine at the other's cost shows",
    },
    WorkloadDef {
        name: "ingest_cold",
        why: "generate, partition, SyncPlan and layout build on the in-memory and external-sort paths side by side; the engines do almost nothing",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "JobServer under 8 closed-loop jobs: queue, governor, coalescing, cache fill, hit and invalidation, and the lane backend run only here",
    },
];

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let better = |m: &MetricDef| if m.lower_is_better { "lower" } else { "higher" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn the_catalog_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = Vec::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name, 64, "_.-"), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name_ok(m.unit, 16, "_/%.-"), "{}", m.unit);
            names.push(m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name, 64, "_.-"));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_serve_kind_has_its_two_metrics() {
        for k in SERVE_KINDS {
            assert!(metric(&format!("serve.miss_p50_ms.{k}")).is_some());
            assert!(metric(&format!("serve.engine_ms.{k}")).is_some());
        }
    }
}
