//! The admission governor end to end: footprint prediction pinned to the
//! engine's memory charge across the policy × lane-width matrix (the
//! uk07/CVC/K=64 OOM of DESIGN §3.12 included), the degradation ladder
//! serving what used to be a missing data point at admission, deadline
//! enforcement during the admission wait, shedding, rejection, and the
//! operator status snapshot. Counters must reconcile after every story:
//! `accepted = completed + cache_hits + failed + expired + rejected_gov +
//! shut_down`.

use std::time::{Duration, Instant};

use dirgl_core::{MultiSourceProgram, RunConfig, Runtime, Variant};
use dirgl_gpusim::{DeviceHealth, Platform};
use dirgl_graph::datasets::DatasetId;
use dirgl_graph::Csr;
use dirgl_partition::Policy;
use dirgl_serve::{
    JobError, JobRequest, JobServer, JobSpec, Priority, RejectReason, ServeConfig, ServerStats,
};

fn graph() -> Csr {
    dirgl_graph::RmatConfig::new(8, 6).seed(13).generate()
}

/// `k` distinct sources spread across the vertex range.
fn sources(g: &Csr, k: u32) -> Vec<u32> {
    let n = g.num_vertices();
    assert!(k <= n);
    (0..k).map(|i| (i * n) / k).collect()
}

fn reconciles(s: &ServerStats) {
    assert_eq!(
        s.submitted,
        s.accepted + s.rejected_saturated + s.rejected_invalid,
        "submission counters must reconcile: {s:?}"
    );
    assert_eq!(
        s.accepted,
        s.completed + s.cache_hits + s.failed + s.expired + s.rejected_gov + s.shut_down,
        "terminal counters must reconcile: {s:?}"
    );
}

/// A platform whose devices all have `bytes` of memory.
fn capped(devices: u32, bytes: u64) -> Platform {
    let mut p = Platform::bridges(devices);
    for g in &mut p.gpus {
        g.memory_bytes = bytes;
    }
    p
}

/// The governor's prediction must be the engine's actual charge — same
/// formula, same program, same partition — across every partition policy
/// and every rung of the lane-width ladder. Exact equality pins both "no
/// false admits" and "no over-estimation" at once.
#[test]
fn predicted_footprint_is_the_engine_charge_across_policy_and_width() {
    let g = graph();
    for policy in [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc] {
        let srv = JobServer::load(
            &g,
            Platform::bridges(4),
            RunConfig::new(policy, Variant::var1()),
            ServeConfig {
                cache_capacity: 0, // every submission must truly execute
                ..ServeConfig::default()
            },
        )
        .unwrap();
        for k in [1u32, 16, 64] {
            for spec in [
                JobSpec::Bfs {
                    sources: sources(&g, k),
                },
                JobSpec::Sssp {
                    sources: sources(&g, k),
                },
            ] {
                let predicted = srv.predict_footprint(&spec, k as usize);
                let r = srv.submit_spec(spec.clone()).unwrap().wait().unwrap();
                assert_eq!(
                    r.resilience.granted_width, k as usize,
                    "{policy:?}/K={k}: nothing should degrade on 16 GB devices"
                );
                assert_eq!(
                    r.outcome.report().memory_per_device,
                    predicted,
                    "{policy:?}/{}/K={k}: prediction must equal the measured peak",
                    spec.name()
                );
            }

            // bc runs two phases on two views; the prediction is the
            // elementwise max of the phase charges.
            let spec = JobSpec::Bc {
                sources: sources(&g, k),
            };
            let predicted = srv.predict_footprint(&spec, k as usize);
            let r = srv.submit_spec(spec).unwrap().wait().unwrap();
            let fwd = &r.outcome.reports[0].memory_per_device;
            let bwd = &r.outcome.reports[1].memory_per_device;
            let peak: Vec<u64> = fwd.iter().zip(bwd).map(|(&a, &b)| a.max(b)).collect();
            assert_eq!(
                peak, predicted,
                "{policy:?}/bc/K={k}: prediction must equal the larger phase's peak"
            );
        }
        // Parameterless kinds predict their scalar footprint.
        for spec in [JobSpec::Pagerank, JobSpec::Cc, JobSpec::KCore { k: 3 }] {
            let predicted = srv.predict_footprint(&spec, 1);
            let r = srv.submit_spec(spec.clone()).unwrap().wait().unwrap();
            assert_eq!(
                r.outcome.report().memory_per_device,
                predicted,
                "{policy:?}/{}: prediction must equal the measured peak",
                spec.name()
            );
        }
        reconciles(&srv.stats());
    }
}

/// DESIGN §3.12's missing data point, served: the uk07 analogue under
/// CVC replication OOMs at K = 64 on 4 devices. The governor must admit
/// the job anyway — degraded down the lane-width ladder until it fits —
/// and every lane's values must be bit-identical to its scalar run.
#[test]
fn uk07_cvc_k64_oom_is_served_degraded_and_bit_identical() {
    let ds = DatasetId::Uk07.load_scaled(8); // extra-small for test speed
    let g = &ds.graph;
    let config = RunConfig::new(Policy::Cvc, Variant::var1()).scale(ds.divisor);
    let srv = JobServer::load(
        g,
        Platform::bridges(4),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();

    let srcs = sources(g, 64);
    let spec = JobSpec::Sssp {
        sources: srcs.clone(),
    };

    // The premise: at full width the predicted footprint exceeds device
    // capacity (this is the run that simply vanished from the paper's
    // figures), while the scalar rung fits.
    let full = srv.predict_footprint(&spec, 64);
    let cap = Platform::bridges(4).gpus[0].memory_bytes;
    assert!(
        full.iter().any(|&b| b > cap),
        "premise broken: K=64 sssp no longer OOMs the uk07 analogue \
         (predicted {full:?} vs capacity {cap})"
    );
    let scalar = srv.predict_footprint(&spec, 1);
    assert!(
        scalar.iter().all(|&b| b <= cap),
        "premise broken: even the scalar rung OOMs ({scalar:?})"
    );

    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert!(r.resilience.degraded, "the job must degrade, not die");
    assert_eq!(r.resilience.requested_width, 64);
    assert!(
        r.resilience.granted_width < 64,
        "granted width must be a narrower rung"
    );
    assert_eq!(r.outcome.per_source.len(), 64);
    let stats = srv.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.degraded, 1);
    reconciles(&stats);

    // Spot-check lanes against scalar single-source runs on an equally
    // prepared partition: bit-identical, per the batching contract.
    let rt = Runtime::new(Platform::bridges(4), config);
    let prep = rt.prepare(g, false).unwrap();
    for &i in &[0usize, 31, 63] {
        let want = rt
            .job(&prep, &dirgl_apps::Sssp::new(srcs[i]))
            .execute()
            .unwrap();
        assert_eq!(
            r.outcome.per_source[i], want.values,
            "lane {i} (source {}) diverged from its scalar run",
            srcs[i]
        );
    }
}

/// The spill fallback: a capacity that raw admission refuses at the
/// requested width is served *at full width* when [`RunConfig::spill`]
/// holds the over-capacity devices compressed — no degradation — and the
/// governor's spill-aware oracle still equals the engine's measured
/// charge exactly. The same pressure without spill must not grant the
/// full width.
#[test]
fn spill_serves_full_width_where_raw_cannot() {
    // Denser than `graph()`: compression pays per *edge* while costing a
    // fixed 4 B per vertex over raw offsets, so the adjacency must carry
    // enough edges per vertex for the compressed footprint to win.
    let g = dirgl_graph::RmatConfig::new(10, 32).seed(13).generate();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let srcs = sources(&g, 16);
    let spec = JobSpec::Sssp {
        sources: srcs.clone(),
    };

    // Probe both representations' footprints with the engine's own load
    // check, on exactly the partition the server prepares.
    let rt = Runtime::new(Platform::bridges(4), config.clone().with_spill(true));
    let prep = rt.prepare(&g, false).unwrap();
    let prog = dirgl_apps::Sssp::new(srcs[0]).batched(&srcs);
    let costs = rt.footprint(&prep, &prog);
    let raw16 = costs.iter().map(|fp| fp.cost.raw).max().unwrap();
    let spilled16 = costs.iter().map(|fp| fp.cost.compressed).max().unwrap();
    assert!(
        spilled16 < raw16,
        "premise broken: compression saved nothing ({spilled16} !< {raw16})"
    );
    let cap = spilled16 + (raw16 - spilled16) / 2;

    // Without spill, this capacity cannot grant the full 16 lanes: the
    // job either degrades to a narrower rung or is rejected outright.
    let raw_srv = JobServer::load(
        &g,
        capped(4, cap),
        config.clone(),
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    match raw_srv.submit_spec(spec.clone()).unwrap().wait() {
        Ok(r) => assert!(
            r.resilience.granted_width < 16,
            "premise broken: raw fits at full width under cap {cap}"
        ),
        Err(JobError::Rejected(RejectReason::MemoryExceeded { .. })) => {}
        Err(other) => panic!("unexpected failure: {other:?}"),
    }
    reconciles(&raw_srv.stats());

    // With spill, the same capacity serves the full width, and the
    // prediction is the engine's exact (compressed) memory charge.
    let srv = JobServer::load(
        &g,
        capped(4, cap),
        config.with_spill(true),
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let predicted = srv.predict_footprint(&spec, 16);
    assert!(predicted.iter().all(|&b| b <= cap), "oracle over cap");
    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(r.resilience.granted_width, 16, "spill must avoid degrading");
    assert!(!r.resilience.degraded);
    assert_eq!(
        r.outcome.report().memory_per_device,
        predicted,
        "spill-aware prediction must equal the measured peak"
    );
    let stats = srv.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.degraded, 0);
    reconciles(&stats);
}

/// The same contract for a batched bc job: both of its phases run K-lane
/// programs, and the prediction must make the engine's spill decision for
/// them too. At a capacity one byte under the job's largest raw footprint
/// the spilling server predicts within capacity, serves all K lanes
/// undegraded, and measures exactly the predicted charge.
#[test]
fn spill_prediction_covers_batched_bc() {
    let g = dirgl_graph::RmatConfig::new(10, 32).seed(13).generate();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let serve_config = || ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    };
    let spec = JobSpec::Bc {
        sources: sources(&g, 4),
    };
    let ample = JobServer::load(&g, Platform::bridges(4), config.clone(), serve_config()).unwrap();
    let cap = *ample.predict_footprint(&spec, 4).iter().max().unwrap() - 1;

    let srv = JobServer::load(&g, capped(4, cap), config.with_spill(true), serve_config()).unwrap();
    let predicted = srv.predict_footprint(&spec, 4);
    assert!(
        predicted.iter().all(|&b| b <= cap),
        "prediction ignores spill: {predicted:?} over cap {cap}"
    );
    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(r.resilience.granted_width, 4, "spill must avoid degrading");
    assert!(!r.resilience.degraded);
    let fwd = &r.outcome.reports[0].memory_per_device;
    let bwd = &r.outcome.reports[1].memory_per_device;
    let peak: Vec<u64> = fwd.iter().zip(bwd).map(|(&a, &b)| a.max(b)).collect();
    assert_eq!(
        peak, predicted,
        "spill-aware prediction must equal the larger phase's measured peak"
    );
    reconciles(&srv.stats());
}

/// Pressure between the 8- and 16-wide footprints never launches a
/// doomed run: the ladder is walked at admission, the job runs once at
/// width 8 and no engine launch fails.
#[test]
fn governor_degrades_without_burning_an_attempt() {
    let g = graph();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let probe = JobServer::load(
        &g,
        Platform::bridges(4),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let spec = JobSpec::Sssp {
        sources: sources(&g, 16),
    };
    let f16 = *probe.predict_footprint(&spec, 16).iter().max().unwrap();
    let f8 = *probe.predict_footprint(&spec, 8).iter().max().unwrap();
    drop(probe);

    let srv = JobServer::load(
        &g,
        capped(4, (f8 + f16) / 2),
        config,
        ServeConfig::default(),
    )
    .unwrap();
    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(r.resilience.granted_width, 8);
    assert!(r.resilience.degraded);
    assert_eq!(r.outcome.per_source.len(), 16);
    let stats = srv.stats();
    assert_eq!(stats.failed, 0, "no engine launch may fail");
    assert_eq!(stats.degraded, 1);
    reconciles(&stats);
}

/// Nothing fits, not even scalar: the job is rejected with the offending
/// device and bytes, and the engine is never invoked.
#[test]
fn impossible_job_is_rejected_with_structured_reason() {
    let g = graph();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let probe = JobServer::load(
        &g,
        Platform::bridges(4),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let spec = JobSpec::Sssp {
        sources: sources(&g, 4),
    };
    let f1 = *probe.predict_footprint(&spec, 1).iter().max().unwrap();
    drop(probe);

    let srv = JobServer::load(&g, capped(4, f1 / 2), config, ServeConfig::default()).unwrap();
    let err = srv.submit_spec(spec).unwrap().wait().unwrap_err();
    match err {
        JobError::Rejected(RejectReason::MemoryExceeded {
            predicted,
            capacity,
            ..
        }) => {
            assert!(predicted > capacity);
        }
        other => panic!("expected a MemoryExceeded rejection, got {other:?}"),
    }
    let stats = srv.stats();
    assert_eq!(stats.rejected_gov, 1);
    assert_eq!(stats.failed, 0, "the engine must never have launched");
    reconciles(&stats);
}

/// Under pressure, Low-priority work is shed rather than degraded; the
/// identical job at Normal priority is served narrow.
#[test]
fn low_priority_is_shed_where_normal_degrades() {
    let g = graph();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let probe = JobServer::load(
        &g,
        Platform::bridges(4),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let spec = JobSpec::Bfs {
        sources: sources(&g, 16),
    };
    let f16 = *probe.predict_footprint(&spec, 16).iter().max().unwrap();
    let f8 = *probe.predict_footprint(&spec, 8).iter().max().unwrap();
    drop(probe);

    let srv = JobServer::load(
        &g,
        capped(4, (f8 + f16) / 2),
        config,
        ServeConfig {
            cache_capacity: 0, // the second submission must re-execute
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let low = srv
        .submit(JobRequest::new(spec.clone()).priority(Priority::Low))
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(
        low,
        JobError::Rejected(RejectReason::Shed {
            requested_width: 16
        })
    );

    let normal = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(normal.resilience.granted_width, 8);

    let stats = srv.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.rejected_gov, 1, "shed is a governor rejection");
    assert_eq!(stats.completed, 1);
    reconciles(&stats);
}

/// A deadline that passes while a job waits for admission expires it,
/// counted exactly once. Job A holds its reservation for its whole run;
/// job B fits an idle server but not beside A, so the governor answers
/// B with a transient denial until B's deadline passes.
#[test]
fn deadline_expires_while_waiting_for_admission() {
    let g = dirgl_graph::RmatConfig::new(14, 16).seed(13).generate();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let probe = JobServer::load(
        &g,
        Platform::bridges(4),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let fp = probe.predict_footprint(&JobSpec::Pagerank, 1);
    // B's deadline is a quarter of a pagerank's run time on this host and
    // build, so A outlives it in debug and release builds alike.
    let t = Instant::now();
    probe
        .submit_spec(JobSpec::Pagerank)
        .unwrap()
        .wait()
        .unwrap();
    let deadline = t.elapsed() / 4;
    drop(probe);

    // Every device holds one pagerank; the fullest cannot hold two.
    let srv = JobServer::load(
        &g,
        capped(4, *fp.iter().max().unwrap()),
        config,
        ServeConfig {
            workers: 2,
            cache_capacity: 0, // B must not be served from A's result
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let a = srv.submit_spec(JobSpec::Pagerank).unwrap();
    while srv.status().devices.iter().all(|d| d.reserved == 0) {
        assert!(!a.is_done(), "premise broken: A finished unobserved");
        std::thread::sleep(Duration::from_millis(1));
    }
    let b = srv
        .submit(JobRequest::new(JobSpec::Pagerank).deadline(deadline))
        .unwrap();
    assert_eq!(b.wait().unwrap_err(), JobError::DeadlineExpired);
    assert!(
        !a.is_done(),
        "B must expire while A still holds its reservation"
    );
    a.wait().unwrap();
    srv.drain();
    let stats = srv.stats();
    assert_eq!(stats.expired, 1, "expiry must be counted exactly once");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
    reconciles(&stats);
}

/// The operator snapshot: healthy devices with full residual capacity at
/// rest, reservations visible as zero once drained, counters embedded.
#[test]
fn status_reports_devices_and_counters() {
    let g = graph();
    let srv = JobServer::load(
        &g,
        Platform::bridges(4),
        RunConfig::new(Policy::Cvc, Variant::var4()),
        ServeConfig::default(),
    )
    .unwrap();
    let src = srv.default_source().unwrap();
    srv.submit_spec(JobSpec::bfs(src)).unwrap().wait().unwrap();
    srv.drain();

    let status = srv.status();
    assert_eq!(status.devices.len(), 4);
    for d in &status.devices {
        assert_eq!(d.health, DeviceHealth::Healthy);
        assert_eq!(d.slow_factor, 1.0);
        assert_eq!(d.reserved, 0, "drained server holds no reservations");
        assert_eq!(d.residual, d.capacity);
    }
    assert_eq!(status.queued, 0);
    assert_eq!(status.in_flight, 0);
    assert_eq!(status.stats.completed, 1);
    reconciles(&status.stats);
}

/// A clean single-source run's resilience record: executed, no
/// degradation, all engine counters zero.
#[test]
fn clean_run_resilience_record_is_quiet() {
    let g = graph();
    let srv = JobServer::load(
        &g,
        Platform::bridges(4),
        RunConfig::new(Policy::Cvc, Variant::var1()),
        ServeConfig::default(),
    )
    .unwrap();
    let r = srv.submit_spec(JobSpec::bfs(0)).unwrap().wait().unwrap();
    assert!(!r.from_cache);
    assert_eq!(r.resilience.requested_width, 1);
    assert_eq!(r.resilience.granted_width, 1);
    assert!(!r.resilience.degraded);
    assert_eq!(r.resilience.engine, Default::default());

    // A cache hit launches nothing, so its record is all default.
    srv.drain();
    let hit = srv.submit_spec(JobSpec::bfs(0)).unwrap().wait().unwrap();
    assert!(hit.from_cache);
    assert_eq!(hit.resilience, Default::default());
}
