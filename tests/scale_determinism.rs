//! Spill at tight capacity: what no launch transform of the golden corpus
//! (`tests/golden_digests.rs`) covers. There, spill at ample capacity and a
//! partition streamed from the compressed graph reproduce every committed
//! byte; here, a device too small for its raw partition:
//!
//! 1. refuses the raw run (OOM) and admits it with `with_spill(true)`,
//!    charging exactly the footprint oracle's compressed cost;
//! 2. under BSP, reaches bit-identical vertex values and the same round
//!    and communication structure, and pays a decode charge in compute
//!    time;
//! 3. under BASP, reaches the same fixed point for a monotone program,
//!    though local round pacing may shift under the decode charge.

use dirgl::graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl::prelude::*;

fn weighted_graph() -> Csr {
    let g = RmatConfig::new(10, 8).seed(0xA11CE).generate();
    randomize_weights(&g, DEFAULT_MAX_WEIGHT, 0x5EED)
}

/// A platform whose devices all have `bytes` of memory.
fn capped(devices: u32, bytes: u64) -> Platform {
    let mut p = Platform::bridges(devices);
    for gpu in &mut p.gpus {
        gpu.memory_bytes = bytes;
    }
    p
}

/// Contracts 1 + 2: raw OOMs at the chosen capacity, spill is admitted,
/// values and round structure are bit-identical to the uncapped raw run,
/// memory equals the spilled oracle, and the decode charge makes compute
/// time strictly larger.
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
    let rt_spill = Runtime::new(capped(4, cap), config.with_spill(true));
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
}

/// Contract 3: the asynchronous engine reaches the same fixed point for
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
