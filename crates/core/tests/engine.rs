//! Engine-level tests with a controlled min-propagation program on graphs
//! whose behaviour is known in closed form.

use dirgl_comm::{CommMode, SimTime};
use dirgl_core::{
    CollectingSink, EngineKind, ExecModel, LayoutChoice, MinLabel, RunConfig, Runtime, Style,
    Variant,
};
use dirgl_gpusim::{Balancer, Platform};
use dirgl_graph::csr::{Csr, CsrBuilder, VertexId};
use dirgl_partition::Policy;

/// Minimal single-source min-propagation, used to observe engine mechanics
/// precisely: bfs with unit steps, pushed; or with `pull`, shortest paths
/// over edge weights, pulled every round (the only program that reaches the
/// weighted pull body).
struct MinProp {
    source: VertexId,
    pull: bool,
}

impl MinProp {
    fn bfs(source: VertexId) -> MinProp {
        MinProp {
            source,
            pull: false,
        }
    }
}

impl MinLabel for MinProp {
    fn program_name(&self) -> &'static str {
        "minprop"
    }
    fn program_style(&self) -> Style {
        if self.pull {
            Style::PullTopologyDriven
        } else {
            Style::PushDataDriven
        }
    }
    fn weighted(&self) -> bool {
        self.pull
    }
    fn seed(&self, gv: VertexId) -> u32 {
        if gv == self.source {
            0
        } else {
            u32::MAX
        }
    }
    fn relax(&self, dist: u32, w: u32) -> u32 {
        dist + if self.pull { w } else { 1 }
    }
}

fn path(n: u32) -> Csr {
    let mut b = CsrBuilder::new(n);
    for i in 0..n - 1 {
        b.add(i, i + 1);
    }
    b.build()
}

fn run(g: &Csr, cfg: RunConfig, devices: u32) -> dirgl_core::RunOutput {
    Runtime::new(Platform::bridges(devices), cfg)
        .runner(g, &MinProp::bfs(0))
        .execute()
        .unwrap()
}

#[test]
fn bsp_round_count_equals_path_length() {
    // On a path of 17 vertices, the frontier advances one hop per global
    // round: 16 productive rounds + 1 empty detection round.
    let g = path(17);
    let out = run(&g, RunConfig::new(Policy::Oec, Variant::var3()), 4);
    assert_eq!(out.report.rounds, 17);
    for (v, d) in out.values.iter().enumerate() {
        assert_eq!(*d, v as f64);
    }
}

#[test]
fn basp_quiesces_on_path() {
    let g = path(17);
    let out = run(&g, RunConfig::new(Policy::Oec, Variant::var4()), 4);
    for (v, d) in out.values.iter().enumerate() {
        assert_eq!(*d, v as f64);
    }
    // Devices holding later path segments idle while the wave approaches:
    // minimum local rounds is well below the path length.
    assert!(out.report.rounds < 17, "min rounds {}", out.report.rounds);
}

#[test]
fn as_sends_every_round_uo_only_updates() {
    // Wide links are needed: on one-entry links UO's bitset header makes
    // it *bigger* than AS — which is exactly the paper's "threshold below
    // which the extraction overhead outweighs the volume reduction".
    let g = dirgl_graph::RmatConfig::new(10, 8).seed(5).generate();
    let as_run = run(
        &g,
        RunConfig::new(
            Policy::Iec,
            Variant {
                balancer: Balancer::Alb,
                comm: CommMode::AllShared,
                model: ExecModel::Sync,
            },
        ),
        4,
    );
    let uo_run = run(&g, RunConfig::new(Policy::Iec, Variant::var3()), 4);
    assert_eq!(as_run.values, uo_run.values);
    // Same number of messages (one per partner per round under the
    // always-send BSP discipline) but AS moves more bytes.
    assert!(as_run.report.comm_bytes > uo_run.report.comm_bytes);
}

#[test]
fn single_device_runs_have_no_communication() {
    let g = path(9);
    let out = run(&g, RunConfig::new(Policy::Oec, Variant::var3()), 1);
    assert_eq!(out.report.comm_bytes, 0);
    assert_eq!(out.report.messages, 0);
    assert_eq!(out.values, (0..9).map(f64::from).collect::<Vec<_>>());
}

#[test]
fn throttle_reduces_basp_rounds() {
    // A denser graph so unthrottled BASP overlaps work.
    let g = dirgl_graph::RmatConfig::new(10, 8).seed(3).generate();
    let mut free = RunConfig::new(Policy::Iec, Variant::var4()).scale(1024);
    free.basp_round_gap_secs = 0.0;
    let unthrottled = run(&g, free.clone(), 8);
    let mut gap = free;
    gap.basp_round_gap_secs = 0.05;
    let throttled = run(&g, gap, 8);
    assert_eq!(unthrottled.values, throttled.values);
    assert!(
        throttled.report.max_rounds <= unthrottled.report.max_rounds,
        "throttled {} vs {}",
        throttled.report.max_rounds,
        unthrottled.report.max_rounds
    );
}

#[test]
fn work_items_scale_with_divisor() {
    let g = path(9);
    let small = run(&g, RunConfig::new(Policy::Oec, Variant::var3()).scale(1), 2);
    let big = run(
        &g,
        RunConfig::new(Policy::Oec, Variant::var3()).scale(1000),
        2,
    );
    assert_eq!(small.values, big.values);
    assert_eq!(big.report.work_items, 1000 * small.report.work_items);
}

#[test]
fn lux_round_overhead_is_charged_per_round() {
    let g = path(17);
    let mut plain = RunConfig::new(Policy::Iec, Variant::var3());
    let base = run(&g, plain.clone(), 4);
    plain.runtime_round_overhead_secs = 0.010;
    let taxed = run(&g, plain, 4);
    let extra = taxed.report.total_time.as_secs_f64() - base.report.total_time.as_secs_f64();
    let expected = 0.010 * base.report.rounds as f64;
    assert!(
        (extra - expected).abs() < 0.2 * expected,
        "extra {extra} vs expected {expected}"
    );
}

#[test]
fn disconnected_vertices_stay_unreached() {
    // Two components; source in the first.
    let mut b = CsrBuilder::new(6);
    b.add(0, 1);
    b.add(1, 2);
    b.add(4, 5);
    let g = b.build();
    for variant in [Variant::var3(), Variant::var4()] {
        let out = run(&g, RunConfig::new(Policy::Cvc, variant), 3);
        assert_eq!(out.values[2], 2.0);
        assert_eq!(out.values[4], u32::MAX as f64);
        assert_eq!(out.values[5], u32::MAX as f64);
    }
}

#[test]
fn empty_graph_terminates_immediately() {
    let g = Csr::empty(8);
    let out = run(&g, RunConfig::new(Policy::Oec, Variant::var3()), 2);
    assert!(out.report.rounds <= 1);
    assert_eq!(out.values[0], 0.0); // the source itself
    assert!(out.values[1..].iter().all(|&d| d == u32::MAX as f64));
}

fn run_traced(g: &Csr, cfg: RunConfig, devices: u32) -> (dirgl_core::RunOutput, CollectingSink) {
    let mut sink = CollectingSink::new();
    let out = Runtime::new(Platform::bridges(devices), cfg)
        .runner(g, &MinProp::bfs(0))
        .trace(&mut sink)
        .execute()
        .unwrap();
    (out, sink)
}

#[test]
fn bsp_trace_has_one_record_per_round_and_device() {
    let g = path(17);
    let (out, sink) = run_traced(&g, RunConfig::new(Policy::Oec, Variant::var3()), 4);
    assert_eq!(out.report.rounds, 17);

    // One record per (round, device), every round complete.
    assert_eq!(sink.records.len(), 17 * 4);
    for round in 0..17u32 {
        let mut devs: Vec<u32> = sink
            .records
            .iter()
            .filter(|r| r.round == round)
            .map(|r| r.device)
            .collect();
        devs.sort_unstable();
        assert_eq!(devs, vec![0, 1, 2, 3], "round {round}");
    }
    assert!(sink.records.iter().all(|r| r.engine == EngineKind::Bsp));

    // Per-round traffic sums to the run totals, on both ends of the wire.
    let sent: u64 = sink.records.iter().map(|r| r.bytes_sent).sum();
    let received: u64 = sink.records.iter().map(|r| r.bytes_received).sum();
    assert_eq!(sent, out.report.comm_bytes);
    assert_eq!(received, out.report.comm_bytes);
    let msgs: u64 = sink.records.iter().map(|r| r.messages_sent).sum();
    assert_eq!(msgs, out.report.messages);

    // Inbound blocking is attributed per device: receivers of the wave's
    // messages wait; the total is nonzero on a multi-device path.
    assert!(sink.records.iter().any(|r| r.wait > SimTime::ZERO));

    // Per-device clocks never run backwards across rounds.
    for d in 0..4u32 {
        let clocks: Vec<SimTime> = sink
            .records
            .iter()
            .filter(|r| r.device == d)
            .map(|r| r.clock_end)
            .collect();
        assert!(clocks.windows(2).all(|w| w[0] <= w[1]), "device {d}");
    }

    // The report's round summaries come from the same records.
    assert_eq!(out.report.rounds_detail.len(), 17);
    assert_eq!(
        out.report
            .rounds_detail
            .iter()
            .map(|s| s.bytes)
            .sum::<u64>(),
        out.report.comm_bytes
    );
    assert!(out.report.rounds_detail.iter().all(|s| s.devices == 4));
}

#[test]
fn basp_trace_has_one_record_per_local_round() {
    let g = path(17);
    let (out, sink) = run_traced(&g, RunConfig::new(Policy::Oec, Variant::var4()), 4);
    assert!(sink.records.iter().all(|r| r.engine == EngineKind::Basp));

    // Per device: record ordinals are its contiguous local rounds 0..n,
    // and the per-device counts reproduce the report's min/max.
    let mut per_device = [0u32; 4];
    for d in 0..4u32 {
        let ordinals: Vec<u32> = sink
            .records
            .iter()
            .filter(|r| r.device == d)
            .map(|r| r.round)
            .collect();
        for (i, r) in ordinals.iter().enumerate() {
            assert_eq!(*r as usize, i, "device {d}");
        }
        per_device[d as usize] = ordinals.len() as u32;
    }
    assert_eq!(
        per_device.iter().copied().min().unwrap(),
        out.report.min_rounds
    );
    assert_eq!(
        per_device.iter().copied().max().unwrap(),
        out.report.max_rounds
    );

    // Traffic totals agree with the outcome on both ends.
    let sent: u64 = sink.records.iter().map(|r| r.bytes_sent).sum();
    assert_eq!(sent, out.report.comm_bytes);
    let msgs: u64 = sink.records.iter().map(|r| r.messages_sent).sum();
    assert_eq!(msgs, out.report.messages);

    // Devices holding later path segments idle before their first round:
    // wait is attributed to the device that blocked.
    assert!(sink
        .records
        .iter()
        .any(|r| r.device > 0 && r.wait > SimTime::ZERO));

    // Tracing must not perturb the simulation itself.
    let plain = run(&g, RunConfig::new(Policy::Oec, Variant::var4()), 4);
    assert_eq!(plain.values, out.values);
    assert_eq!(plain.report.total_time, out.report.total_time);
}

#[test]
fn basp_reports_true_min_and_max_local_rounds_under_skew() {
    // Device 0 gets the whole path (degree-weighted contiguous blocks);
    // device 1 gets only isolated vertices, never activates, and runs 0
    // local rounds — the per-device spread BASP is about.
    let n = 8u32;
    let isolated = 150u32;
    let mut b = CsrBuilder::new(n + isolated);
    for i in 0..n - 1 {
        b.add(i, i + 1);
    }
    let g = b.build();
    let out = run(&g, RunConfig::new(Policy::Oec, Variant::var4()), 2);
    assert_eq!(
        out.values[..n as usize],
        (0..n).map(f64::from).collect::<Vec<_>>()[..]
    );
    assert!(
        out.report.max_rounds > out.report.min_rounds,
        "skewed BASP run must show a local-round spread: min {} max {}",
        out.report.min_rounds,
        out.report.max_rounds
    );
    assert_eq!(out.report.min_rounds, 0);
    assert!(out.report.max_rounds >= n - 1);
}

#[test]
fn gpudirect_reduces_device_comm_share() {
    let g = dirgl_graph::RmatConfig::new(11, 8).seed(9).generate();
    let mut cfg = RunConfig::new(Policy::Cvc, Variant::var3()).scale(1024);
    let staged = run(&g, cfg.clone(), 8);
    cfg.gpudirect = true;
    let direct = run(&g, cfg, 8);
    assert!(direct.report.total_time < staged.report.total_time);
    assert_eq!(direct.values, staged.values);
}

#[test]
fn with_layout_is_the_identity() {
    // The only thing left of the per-device layouts is a shim that hands
    // the handle back; a job against it is a job against the original.
    let g = dirgl_graph::RmatConfig::new(10, 8).seed(5).generate();
    let bfs = MinProp::bfs(Runtime::max_out_degree_source(&g).unwrap());
    let seen = |out: dirgl_core::RunOutput| {
        let bits: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
        (format!("{:?}", out.report), bits)
    };
    for policy in [Policy::Oec, Policy::Cvc] {
        let rt = Runtime::new(
            Platform::bridges(4),
            RunConfig::new(policy, Variant::var3()).scale(64),
        );
        let prep = rt.prepare(&g, false).unwrap();
        let shim = prep.clone().with_layout(LayoutChoice::Auto);
        assert_eq!(shim.partition(), prep.partition(), "{policy}");
        assert_eq!(
            seen(rt.job(&shim, &bfs).execute().unwrap()),
            seen(rt.job(&prep, &bfs).execute().unwrap()),
            "{policy}"
        );
    }
}

/// Bellman–Ford over every edge of `g`, as the reference distances.
fn bellman_ford(g: &Csr, source: VertexId) -> Vec<f64> {
    let mut dist = vec![u32::MAX; g.num_vertices() as usize];
    dist[source as usize] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..g.num_vertices() {
            let du = dist[u as usize];
            let (targets, weights) = g.edge_window(u);
            for (&v, &w) in targets.iter().zip(weights) {
                if du != u32::MAX && du + w < dist[v as usize] {
                    dist[v as usize] = du + w;
                    changed = true;
                }
            }
        }
    }
    dist.into_iter().map(f64::from).collect()
}

#[test]
fn weighted_pull_matches_bellman_ford() {
    let g = dirgl_graph::RmatConfig::new(9, 8).seed(11).generate();
    let g = dirgl_graph::weights::randomize_weights(&g, 100, 0x5EED);
    let source = Runtime::max_out_degree_source(&g).unwrap();
    let prog = MinProp { source, pull: true };
    let want = bellman_ford(&g, source);
    for policy in [Policy::Iec, Policy::Cvc] {
        for variant in [Variant::var3(), Variant::var4()] {
            let rt = Runtime::new(Platform::bridges(4), RunConfig::new(policy, variant));
            let out = rt.runner(&g, &prog).execute().unwrap();
            assert_eq!(out.values, want, "{policy} {}", variant.label());
        }
    }
}

#[test]
fn checkpoints_without_a_fault_plan_are_taken_and_charged() {
    // `with_checkpoints(k)` promises a checkpoint every k rounds whether or
    // not a fault plan is set; each dump costs PCIe time and changes no
    // value.
    let g = dirgl_graph::RmatConfig::new(9, 8).seed(11).generate();
    let source = Runtime::max_out_degree_source(&g).unwrap();
    for variant in [Variant::var3(), Variant::var4()] {
        let run = |cfg: RunConfig| {
            Runtime::new(Platform::bridges(4), cfg)
                .runner(&g, &MinProp::bfs(source))
                .execute()
                .unwrap()
        };
        let plain = run(RunConfig::new(Policy::Cvc, variant));
        let ckpt = run(RunConfig::new(Policy::Cvc, variant).with_checkpoints(2));
        let label = variant.label();
        assert_eq!(plain.report.resilience.checkpoints_taken, 0, "{label}");
        assert!(
            ckpt.report.resilience.checkpoints_taken > 0,
            "{label}: no checkpoint taken"
        );
        assert!(
            ckpt.report.total_time > plain.report.total_time,
            "{label}: checkpoints charged no time"
        );
        let bits = |out: &dirgl_core::RunOutput| -> Vec<u64> {
            out.values.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&ckpt), bits(&plain), "{label}");
    }
}
