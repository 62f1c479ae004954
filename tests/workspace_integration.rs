//! Cross-crate integration tests exercising the facade the way a
//! downstream user would.

use dirgl::comm::SyncPlan;
use dirgl::prelude::*;

fn graph() -> Csr {
    let g = WebCrawlConfig::new(6_000, 120_000, 400, 300, 30)
        .seed(17)
        .generate();
    dirgl::graph::weights::randomize_weights(&g, 100, 17)
}

#[test]
fn facade_quickstart_flow() {
    let g = RmatConfig::new(10, 8).seed(42).generate();
    let platform = Platform::homogeneous(4, GpuSpec::p100(), ClusterSpec::bridges());
    let runtime = Runtime::new(platform, RunConfig::var4(Policy::Cvc));
    let out = runtime
        .runner(&g, &Bfs::from_max_out_degree(&g))
        .execute()
        .unwrap();
    assert!(out.report.total_time.as_secs_f64() > 0.0);
    assert_eq!(out.values.len(), g.num_vertices() as usize);
}

#[test]
fn oom_surfaces_as_missing_point() {
    let g = graph();
    // An absurd divisor makes the paper-equivalent working set enormous.
    let rt = Runtime::new(
        Platform::bridges(2),
        RunConfig::var4(Policy::Iec).scale(1 << 30),
    );
    match rt.runner(&g, &Cc).execute() {
        Err(RunError::Oom { device, err }) => {
            assert!(device < 2);
            assert!(err.requested > err.capacity);
        }
        other => panic!("expected OOM, got {:?}", other.map(|o| o.report.total_time)),
    }
}

/// Raw admission at its boundary: a device holds exactly its
/// [`Runtime::footprint`] bytes. Capped at the largest footprint, the run
/// is admitted, charges each device its footprint and computes what the
/// uncapped run computes; one byte less refuses it at the first device
/// whose footprint no longer fits.
#[test]
fn raw_admission_at_its_boundary() {
    let g = RmatConfig::new(10, 8).seed(0xA11CE).generate();
    let g = dirgl::graph::weights::randomize_weights(&g, 100, 0x5EED);
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let rt = Runtime::new(Platform::bridges(4), config.clone());
    let prep = rt.prepare(&g, false).unwrap();
    let prog = Sssp::from_max_out_degree(prep.graph());
    let footprint = rt.footprint(&prep, &prog);
    let max = *footprint.iter().max().unwrap();
    let capped = |bytes: u64| {
        let mut p = Platform::bridges(4);
        p.gpus.iter_mut().for_each(|gpu| gpu.memory_bytes = bytes);
        Runtime::new(p, config.clone())
    };

    let out = capped(max).job(&prep, &prog).execute().unwrap();
    assert_eq!(out.report.memory_per_device, footprint);
    assert_eq!(out.values, rt.job(&prep, &prog).execute().unwrap().values);

    let first = footprint.iter().position(|&b| b > max - 1).unwrap();
    match capped(max - 1).job(&prep, &prog).execute() {
        Err(RunError::Oom { device, err }) => {
            assert_eq!(device as usize, first);
            assert_eq!(err.requested, footprint[first]);
            assert_eq!(err.capacity, max - 1);
        }
        other => panic!("expected OOM, got {:?}", other.map(|o| o.report.total_time)),
    }
}

#[test]
fn gpudirect_never_slower() {
    // Synchronous variant: the message multiset is then identical with and
    // without GPUDirect, so the comparison is pure transport (under BASP
    // the changed timing alters staleness and therefore the work itself).
    let g = graph();
    for policy in [Policy::Iec, Policy::Cvc] {
        let mut cfg = RunConfig::new(policy, Variant::var3()).scale(1024);
        let staged = Runtime::new(Platform::bridges(8), cfg.clone())
            .runner(&g, &Sssp::from_max_out_degree(&g))
            .execute()
            .unwrap();
        cfg.gpudirect = true;
        let direct = Runtime::new(Platform::bridges(8), cfg)
            .runner(&g, &Sssp::from_max_out_degree(&g))
            .execute()
            .unwrap();
        assert!(
            direct.report.total_time <= staged.report.total_time,
            "{policy}: direct {} vs staged {}",
            direct.report.total_time,
            staged.report.total_time
        );
        // Same answers either way.
        assert_eq!(direct.values, staged.values);
    }
}

#[test]
fn heterogeneous_tuxedo_platform_runs() {
    let g = graph();
    // 4x K80 + 2x GTX 1080: slower devices straggle, results unchanged.
    let out = Runtime::new(Platform::tuxedo(), RunConfig::var4(Policy::Oec))
        .runner(&g, &Bfs::from_max_out_degree(&g))
        .execute()
        .unwrap();
    let want = reference::bfs(&g, g.max_out_degree_vertex());
    for (got, want) in out.values.iter().zip(&want) {
        assert_eq!(*got, *want as f64);
    }
    // Compute is imbalanced across device types.
    assert!(out.report.dynamic_balance() > 1.05);
}

#[test]
fn sync_plan_reflects_policy_structure_through_facade() {
    let g = graph();
    let cvc = Partition::build(&g, Policy::Cvc, 16, 0);
    let plan = SyncPlan::build(&cvc, true, true);
    for d in 0..16 {
        assert!(plan.partner_count(d) <= 6, "CVC partners exceed row+col");
    }
    let oec = Partition::build(&g, Policy::Oec, 16, 0);
    let plan = SyncPlan::build(&oec, true, true);
    assert!(plan.bcast_is_elided());
}

#[test]
fn dataset_catalog_runs_end_to_end() {
    // Smallest catalog entry at an extra divisor, through the full
    // pipeline: catalog -> partition -> engine -> verify.
    let ds = DatasetId::Rmat23.load_scaled(16);
    let rt = Runtime::new(
        Platform::bridges(4),
        RunConfig::var4(Policy::Cvc).scale(ds.divisor),
    );
    let app = Sssp::from_max_out_degree(&ds.graph);
    let out = rt.runner(&ds.graph, &app).execute().unwrap();
    let want = reference::sssp(&ds.graph, app.source);
    for (got, want) in out.values.iter().zip(&want) {
        assert_eq!(*got, *want as f64);
    }
    // Memory is reported in paper-equivalent units.
    assert!(out.report.max_memory() > ds.graph.bytes());
}

#[test]
fn all_frameworks_agree_on_components() {
    let g = graph();
    let want: Vec<f64> = reference::cc(&g.symmetrize())
        .iter()
        .map(|&c| c as f64)
        .collect();
    let dirgl = Runtime::new(Platform::tuxedo(), RunConfig::var4(Policy::Hvc))
        .runner(&g, &Cc)
        .execute()
        .unwrap();
    let lux = LuxRuntime::new(Platform::tuxedo(), 1).run_cc(&g).unwrap();
    let gunrock = GunrockSim::new(Platform::tuxedo(), 1).run_cc(&g).unwrap();
    let groute = GrouteSim::new(Platform::tuxedo(), 1).run_cc(&g).unwrap();
    for (name, vals) in [
        ("dirgl", &dirgl.values),
        ("lux", &lux.values),
        ("gunrock", &gunrock.values),
        ("groute", &groute.values),
    ] {
        assert_eq!(vals[..], want[..], "{name} components differ");
    }
}
