//! The determinism contract of the fault layer, pinned by proptest:
//! **seeded-fault reproducibility** — a faulty run is a function of its
//! seed: the same `FaultPlan` twice gives the same report (compared via
//! `Debug`), vertex values (bit for bit) and trace JSONL stream. Fault
//! fates are keyed by message coordinates (link, sequence number,
//! attempt), not by host-side iteration order.
//!
//! What a run under the default `FaultPlan::none()` computes is pinned by
//! the golden corpus (`tests/golden_digests.rs`) and the committed bench
//! texts; there is no second transport to compare it with.

use proptest::prelude::*;

use dirgl::prelude::*;

/// Runs `app` under `cfg` and returns (report Debug, value bits, trace
/// JSONL bytes).
fn run_traced<P: dirgl::core::VertexProgram>(
    g: &Csr,
    app: &P,
    cfg: RunConfig,
    devices: u32,
) -> (String, Vec<u64>, Vec<u8>) {
    let rt = Runtime::new(Platform::bridges(devices), cfg);
    let mut buf = Vec::new();
    let mut sink = JsonLinesSink::new(&mut buf);
    let out = rt.runner(g, app).trace(&mut sink).execute().unwrap();
    let report = format!("{:?}", out.report);
    let bits = out.values.iter().map(|v| v.to_bits()).collect();
    drop(sink);
    (report, bits, buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed, same faults, same bytes — including runs
    /// with drops, duplicates, delays and a crash.
    #[test]
    fn seeded_fault_runs_are_reproducible(
        gseed in 0u64..1_000,
        fseed in 0u64..1_000_000,
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.1,
        crash in any::<bool>(),
        rejoin in any::<bool>(),
        sync in any::<bool>(),
    ) {
        let g = RmatConfig::new(8, 8).seed(gseed).generate();
        let app = Bfs::from_max_out_degree(&g);
        let variant = if sync { Variant::var3() } else { Variant::var4() };
        let mut plan = FaultPlan::seeded(fseed)
            .with_drop(drop)
            .with_duplicate(dup)
            .with_delay(0.02, 0.002);
        if crash {
            plan = plan.with_crash(1, 2, rejoin);
        }
        let cfg = RunConfig::new(Policy::Cvc, variant)
            .with_faults(plan)
            .with_checkpoints(2);
        let a = run_traced(&g, &app, cfg.clone(), 4);
        let b = run_traced(&g, &app, cfg, 4);
        prop_assert_eq!(&a.0, &b.0, "report not reproducible");
        prop_assert_eq!(&a.1, &b.1, "values not reproducible");
        prop_assert_eq!(&a.2, &b.2, "trace not reproducible");
    }
}
