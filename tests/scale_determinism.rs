//! Out-of-core scale determinism: the compressed/streamed ingestion path
//! and the spill execution mode must be invisible in every observable
//! output.
//!
//! Three contracts, workspace-wide:
//!
//! 1. A partition built by the chunked streaming builder from a
//!    *compressed* graph, prepared and executed, produces byte-identical
//!    `ExecutionReport`s, vertex values, and traces to the in-memory
//!    builder on the plain CSR — across four policies and both engines.
//! 2. A spilled run (compressed adjacency decoded per round) produces
//!    bit-identical vertex values and identical round/communication
//!    structure under BSP; only the simulated times and the memory charge
//!    may differ, exactly as the model intends.
//! 3. Spill widens the feasible region: a capacity that OOMs raw is
//!    admitted with `with_spill(true)`, and the recorded memory equals
//!    the spilled footprint oracle.

use dirgl::core::PreparedPartition;
use dirgl::graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl::graph::CompressedCsr;
use dirgl::prelude::*;

fn weighted_graph() -> Csr {
    let g = RmatConfig::new(10, 8).seed(0xA11CE).generate();
    randomize_weights(&g, DEFAULT_MAX_WEIGHT, 0x5EED)
}

/// Runs `bench` on a prepared partition; returns every observable byte:
/// the debug-formatted report, the raw value bits, the trace bytes.
fn run_prepared(
    rt: &Runtime,
    prep: &PreparedPartition,
    bench: &'static str,
) -> (String, Vec<u64>, Vec<u8>) {
    let g = prep.graph();
    let mut buf: Vec<u8> = Vec::new();
    let mut sink = JsonLinesSink::new(&mut buf);
    let out = match bench {
        "bfs" => rt
            .job(prep, &Bfs::from_max_out_degree(g))
            .trace(&mut sink)
            .execute()
            .unwrap(),
        "sssp" => rt
            .job(prep, &Sssp::new(Runtime::max_out_degree_source(g).unwrap()))
            .trace(&mut sink)
            .execute()
            .unwrap(),
        other => panic!("unknown bench {other}"),
    };
    drop(sink);
    let bits = out.values.iter().map(|v| v.to_bits()).collect();
    (format!("{:?}", out.report), bits, buf)
}

/// Contract 1: compressed-streamed partition build ≡ in-memory build, end
/// to end, across 4 policies × both engines.
#[test]
fn compressed_prepared_partitions_agree_end_to_end() {
    let g = weighted_graph();
    let comp = CompressedCsr::from_csr(&g);
    for policy in [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc] {
        let plain = Partition::build(&g, policy, 4, 0);
        let streamed = Partition::build_streamed(&comp, policy, 4, 0);
        let prep_plain = PreparedPartition::from_partition(g.clone(), plain);
        let prep_streamed = PreparedPartition::from_partition(g.clone(), streamed);
        for variant in [Variant::var1(), Variant::var4()] {
            let rt = Runtime::new(Platform::bridges(4), RunConfig::new(policy, variant));
            for bench in ["bfs", "sssp"] {
                let a = run_prepared(&rt, &prep_plain, bench);
                let b = run_prepared(&rt, &prep_streamed, bench);
                assert_eq!(
                    a,
                    b,
                    "{policy:?}/{}/{bench}: compressed-streamed build diverged",
                    variant.label()
                );
            }
        }
    }
}

/// A platform whose devices all have `bytes` of memory.
fn capped(devices: u32, bytes: u64) -> Platform {
    let mut p = Platform::bridges(devices);
    for gpu in &mut p.gpus {
        gpu.memory_bytes = bytes;
    }
    p
}

/// Contracts 2 + 3 under BSP: raw OOMs at the chosen capacity, spill is
/// admitted, values and round structure are bit-identical to the
/// uncapped raw run, memory equals the spilled oracle, and the decode
/// charge makes compute time strictly larger.
#[test]
fn spill_admits_deeper_and_is_value_identical_bsp() {
    let g = weighted_graph();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let rt = Runtime::new(Platform::bridges(4), config.clone());
    let prep = rt.prepare(&g, false).unwrap();
    let prog = Sssp::new(Runtime::max_out_degree_source(prep.graph()).unwrap());

    // Both candidates of every device, from the load check's own costing.
    let costs: Vec<_> = Runtime::new(Platform::bridges(4), config.clone().with_spill(true))
        .footprint(&prep, &prog)
        .iter()
        .map(|fp| fp.cost)
        .collect();
    let raw_max = costs.iter().map(|c| c.raw).max().unwrap();
    let spilled_max = costs.iter().map(|c| c.compressed).max().unwrap();
    assert!(
        spilled_max < raw_max,
        "compressed footprint must be smaller ({spilled_max} !< {raw_max})"
    );
    let cap = spilled_max + (raw_max - spilled_max) / 2;

    let baseline = rt.job(&prep, &prog).execute().unwrap();

    // Raw admission refuses this capacity...
    let rt_capped = Runtime::new(capped(4, cap), config.clone());
    match rt_capped.job(&prep, &prog).execute() {
        Err(RunError::Oom { .. }) => {}
        Err(other) => panic!("expected OOM, got {other:?}"),
        Ok(_) => panic!("expected OOM, but the raw run was admitted"),
    }

    // ...spill admits it, with identical values and round structure.
    let rt_spill = Runtime::new(capped(4, cap), config.clone().with_spill(true));
    let out = rt_spill.job(&prep, &prog).execute().unwrap();
    let bits =
        |o: &dirgl::core::RunOutput| -> Vec<u64> { o.values.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&out), bits(&baseline), "spilled values diverged");
    assert_eq!(out.report.rounds, baseline.report.rounds);
    assert_eq!(out.report.comm_bytes, baseline.report.comm_bytes);
    assert_eq!(out.report.messages, baseline.report.messages);
    assert_eq!(out.report.work_items, baseline.report.work_items);
    // Over-capacity devices are charged the compressed footprint.
    for (d, &mem) in out.report.memory_per_device.iter().enumerate() {
        assert!(mem <= cap, "device {d} over budget: {mem} > {cap}");
        let c = costs[d];
        let want = if c.raw > cap { c.compressed } else { c.raw };
        assert_eq!(mem, want, "device {d} memory charge");
    }
    // At least one device actually spilled, and decoding is not free.
    assert!(
        costs.iter().any(|c| c.raw > cap),
        "premise broken: nothing needed to spill"
    );
    let t_spill: f64 = out
        .report
        .compute_per_device
        .iter()
        .map(|t| t.as_secs_f64())
        .sum();
    let t_raw: f64 = baseline
        .report
        .compute_per_device
        .iter()
        .map(|t| t.as_secs_f64())
        .sum();
    assert!(
        t_spill > t_raw,
        "decode charge missing: {t_spill} !> {t_raw}"
    );

    // With ample capacity the spill flag is inert: raw is preferred and
    // the whole report is byte-identical to the baseline.
    let rt_ample = Runtime::new(Platform::bridges(4), config.with_spill(true));
    let ample = rt_ample.job(&prep, &prog).execute().unwrap();
    assert_eq!(
        format!("{:?}", ample.report),
        format!("{:?}", baseline.report)
    );
    assert_eq!(bits(&ample), bits(&baseline));
}

/// Spilled BASP: the asynchronous engine reaches the same fixed point for
/// monotone programs — bfs values are bit-identical raw vs spilled even
/// though local round pacing may shift under the decode charge.
#[test]
fn spill_reaches_the_same_fixed_point_basp() {
    let g = weighted_graph();
    let config = RunConfig::new(Policy::Oec, Variant::var4());
    let rt = Runtime::new(Platform::bridges(4), config.clone());
    let prep = rt.prepare(&g, false).unwrap();
    let prog = Bfs::from_max_out_degree(prep.graph());

    let costs =
        Runtime::new(Platform::bridges(4), config.clone().with_spill(true)).footprint(&prep, &prog);
    let raw_max = costs.iter().map(|fp| fp.cost.raw).max().unwrap();
    let spilled_max = costs.iter().map(|fp| fp.cost.compressed).max().unwrap();
    let cap = spilled_max + (raw_max - spilled_max) / 2;

    let baseline = rt.job(&prep, &prog).execute().unwrap();
    let rt_spill = Runtime::new(capped(4, cap), config.with_spill(true));
    let out = rt_spill.job(&prep, &prog).execute().unwrap();
    let bits =
        |o: &dirgl::core::RunOutput| -> Vec<u64> { o.values.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&out), bits(&baseline), "BASP spilled bfs diverged");
}
