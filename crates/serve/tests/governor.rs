//! The admission governor end to end: footprint prediction pinned to the
//! engine's memory charge across the policy × lane-width matrix (the
//! uk07/CVC/K=64 OOM of DESIGN §3.12 included), the degradation ladder
//! serving what used to be a missing data point at admission, deadline
//! enforcement during the admission wait, shedding, rejection, and the
//! operator status snapshot. Counters must reconcile after every story:
//! `accepted = completed + cache_hits + failed + expired + rejected_gov +
//! shut_down`.

use std::time::{Duration, Instant};

use dirgl_core::{RunConfig, Runtime, Variant};
use dirgl_gpusim::{DeviceHealth, Platform};
use dirgl_graph::datasets::DatasetId;
use dirgl_graph::Csr;
use dirgl_partition::Policy;
use dirgl_serve::{
    JobError, JobRequest, JobServer, JobSpec, Priority, RejectReason, ServeConfig, ServerStats,
    SubmitError,
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
/// and every lane count. Exact equality pins both "no false admits" and
/// "no over-estimation" at once. bfs is costed as one K-lane batch; sssp
/// and bc run one scalar launch per source, so every launch charges the
/// prediction, whatever width it is asked at. The value-lane batches'
/// own footprints are pinned in `dirgl-apps`' `lane_footprint` test.
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
            let spec = JobSpec::Bfs {
                sources: sources(&g, k),
            };
            let predicted = srv.predict_footprint(&spec, k as usize).unwrap();
            let r = srv.submit_spec(spec).unwrap().wait().unwrap();
            assert_eq!(
                r.resilience.granted_width, k as usize,
                "{policy:?}/K={k}: nothing should degrade on 16 GB devices"
            );
            assert_eq!(
                r.outcome.report().memory_per_device,
                predicted,
                "{policy:?}/bfs/K={k}: prediction must equal the measured peak"
            );

            let spec = JobSpec::Sssp {
                sources: sources(&g, k),
            };
            let predicted = srv.predict_footprint(&spec, k as usize).unwrap();
            let r = srv.submit_spec(spec).unwrap().wait().unwrap();
            assert_eq!(r.resilience.granted_width, 1, "{policy:?}/sssp/K={k}");
            assert_eq!(r.outcome.reports.len(), k as usize, "one launch per source");
            for report in &r.outcome.reports {
                assert_eq!(
                    report.memory_per_device, predicted,
                    "{policy:?}/sssp/K={k}: prediction must equal every launch's peak"
                );
            }

            // bc runs two phases on two views per source; the prediction
            // is the elementwise max of a launch's phase charges.
            let spec = JobSpec::Bc {
                sources: sources(&g, k),
            };
            let predicted = srv.predict_footprint(&spec, k as usize).unwrap();
            let r = srv.submit_spec(spec).unwrap().wait().unwrap();
            assert_eq!(r.resilience.granted_width, 1, "{policy:?}/bc/K={k}");
            assert_eq!(r.outcome.reports.len(), 2 * k as usize, "two per source");
            for launch in r.outcome.reports.chunks(2) {
                let (fwd, bwd) = (&launch[0].memory_per_device, &launch[1].memory_per_device);
                let peak: Vec<u64> = fwd.iter().zip(bwd).map(|(&a, &b)| a.max(b)).collect();
                assert_eq!(
                    peak, predicted,
                    "{policy:?}/bc/K={k}: prediction must equal the larger phase's peak"
                );
            }
        }
        // Parameterless kinds predict their scalar footprint.
        for spec in [JobSpec::Pagerank, JobSpec::Cc, JobSpec::KCore { k: 3 }] {
            let predicted = srv.predict_footprint(&spec, 1).unwrap();
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

/// Prediction refuses what submission refuses, for the same reasons: an
/// empty source set or an out-of-range source is an error, not a panic.
#[test]
fn predicted_footprint_refuses_what_submission_refuses() {
    let g = graph();
    let n = g.num_vertices();
    let srv = JobServer::load(
        &g,
        Platform::bridges(4),
        RunConfig::new(Policy::Cvc, Variant::var1()),
        ServeConfig::default(),
    )
    .unwrap();
    let empty = JobSpec::Bfs { sources: vec![] };
    assert_eq!(
        srv.predict_footprint(&empty, 1),
        Err(SubmitError::EmptySources)
    );
    let out_of_range = JobSpec::Bc {
        sources: vec![0, n],
    };
    let invalid = SubmitError::InvalidSource {
        source: n,
        num_vertices: n,
    };
    assert_eq!(
        srv.predict_footprint(&out_of_range, 2),
        Err(invalid.clone())
    );
    assert_eq!(
        srv.submit_spec(empty).err(),
        Some(SubmitError::EmptySources)
    );
    assert_eq!(srv.submit_spec(out_of_range).err(), Some(invalid));
    reconciles(&srv.stats());
}

/// DESIGN §3.12's missing data point, served: a 64-source sssp batch on
/// the uk07 analogue under CVC replication OOMs on 4 devices. sssp now
/// asks for width 1 — its value-lane batch costs more host time than its
/// scalar runs — so the job is costed and served as 64 scalar launches,
/// undegraded, each bit-identical to its scalar run. The ladder runs on a
/// 64-lane bfs batch on devices capped between its 32- and 64-wide
/// footprints: the governor must admit it anyway, degraded until it fits,
/// and every lane must be bit-identical to its scalar run.
#[test]
fn uk07_cvc_k64_oom_is_served_degraded_and_bit_identical() {
    // Footprints are paper-equivalent, so the divisor barely moves them
    // (the K=64 sssp batch needs ~105 GB at ÷8 and ~106 GB at ÷32 against
    // a 16 GB device); ÷32 keeps the 64 scalar sssp launches fast.
    let ds = DatasetId::Uk07.load_scaled(32);
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
    // Scalar single-source runs on an equally prepared partition are the
    // oracle: bit-identical, per the batching contract.
    let rt = Runtime::new(Platform::bridges(4), config.clone());
    let prep = rt.prepare(g, false).unwrap();

    // The premise: the 64-lane sssp batch exceeds device capacity (the
    // run that simply vanished from the paper's figures).
    let cap = Platform::bridges(4).gpus[0].memory_bytes;
    let batch = rt
        .job(&prep, &dirgl_apps::Sssp::new(srcs[0]))
        .batch(&srcs)
        .lane_width(64)
        .footprint()
        .unwrap();
    assert!(
        batch.iter().any(|&b| b > cap),
        "premise broken: the K=64 sssp batch no longer OOMs the uk07 analogue"
    );

    // sssp: asked for at any width, costed and run at the scalar one,
    // which fits.
    let spec = JobSpec::Sssp {
        sources: srcs.clone(),
    };
    let scalar = srv.predict_footprint(&spec, 1).unwrap();
    assert_eq!(srv.predict_footprint(&spec, 64).unwrap(), scalar);
    assert!(
        scalar.iter().all(|&b| b <= cap),
        "premise broken: the scalar sssp OOMs ({scalar:?})"
    );
    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(r.resilience.requested_width, 1);
    assert_eq!(r.resilience.granted_width, 1);
    assert!(!r.resilience.degraded);
    assert_eq!(r.outcome.per_source.len(), 64);
    for &i in &[0usize, 31, 63] {
        let want = rt
            .job(&prep, &dirgl_apps::Sssp::new(srcs[i]))
            .execute()
            .unwrap();
        assert_eq!(
            r.outcome.per_source[i], want.values,
            "sssp source {} diverged from its scalar run",
            srcs[i]
        );
    }
    let stats = srv.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.degraded, 0);
    reconciles(&stats);

    // bfs: the ladder, on devices that hold 32 lanes but not 64.
    let spec = JobSpec::Bfs {
        sources: srcs.clone(),
    };
    let widest = |w| {
        *srv.predict_footprint(&spec, w)
            .unwrap()
            .iter()
            .max()
            .unwrap()
    };
    let cap = (widest(32) + widest(64)) / 2;
    let srv = JobServer::load(g, capped(4, cap), config, ServeConfig::default()).unwrap();

    // The premise: at full width the predicted footprint exceeds device
    // capacity (the run that simply vanished from the paper's figures),
    // while the scalar rung fits.
    let full = srv.predict_footprint(&spec, 64).unwrap();
    assert!(
        full.iter().any(|&b| b > cap),
        "premise broken: K=64 bfs fits the capped devices ({full:?} vs {cap})"
    );
    let scalar = srv.predict_footprint(&spec, 1).unwrap();
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

    for &i in &[0usize, 31, 63] {
        let want = rt
            .job(&prep, &dirgl_apps::Bfs::new(srcs[i]))
            .execute()
            .unwrap();
        assert_eq!(
            r.outcome.per_source[i], want.values,
            "lane {i} (source {}) diverged from its scalar run",
            srcs[i]
        );
    }
}

/// Devices whose memory lies halfway between the 8- and the 16-wide
/// footprint of a bfs over `sources(g, 16)`: the governor must narrow
/// that batch to width 8.
fn between_8_and_16_wide(g: &Csr, config: &RunConfig) -> Platform {
    let probe = JobServer::load(
        g,
        Platform::bridges(4),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let spec = JobSpec::Bfs {
        sources: sources(g, 16),
    };
    let f16 = *probe
        .predict_footprint(&spec, 16)
        .unwrap()
        .iter()
        .max()
        .unwrap();
    let f8 = *probe
        .predict_footprint(&spec, 8)
        .unwrap()
        .iter()
        .max()
        .unwrap();
    capped(4, (f8 + f16) / 2)
}

/// Pressure between the 8- and 16-wide footprints never launches a
/// doomed run: the ladder is walked at admission, the job runs once at
/// width 8 and no engine launch fails.
#[test]
fn governor_degrades_without_burning_an_attempt() {
    let g = graph();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let platform = between_8_and_16_wide(&g, &config);
    let srv = JobServer::load(&g, platform, config, ServeConfig::default()).unwrap();
    let spec = JobSpec::Bfs {
        sources: sources(&g, 16),
    };
    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(r.resilience.granted_width, 8);
    assert!(r.resilience.degraded);
    assert_eq!(r.outcome.per_source.len(), 16);
    let stats = srv.stats();
    assert_eq!(stats.failed, 0, "no engine launch may fail");
    assert_eq!(stats.degraded, 1);
    reconciles(&stats);
}

/// `degraded` counts jobs, not launches: 16 queued single-source bfs
/// jobs coalesce into one launch that the governor narrows to width 8,
/// and each of the 16 completes degraded.
#[test]
fn degraded_counts_every_job_of_a_narrowed_window() {
    let g = graph();
    let config = RunConfig::new(Policy::Cvc, Variant::var1());
    let platform = between_8_and_16_wide(&g, &config);
    let serve = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let srv = JobServer::load(&g, platform, config, serve).unwrap();
    srv.pause();
    let handles: Vec<_> = sources(&g, 16)
        .into_iter()
        .map(|s| srv.submit_spec(JobSpec::bfs(s)).unwrap())
        .collect();
    srv.resume();
    for h in &handles {
        let r = h.wait().unwrap();
        assert!(r.resilience.degraded);
        assert_eq!(r.resilience.granted_width, 8);
    }
    srv.drain();
    let stats = srv.stats();
    assert_eq!(stats.coalesced, 16, "premise: one window of 16");
    assert_eq!(stats.degraded, 16);
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
    let f1 = *probe
        .predict_footprint(&spec, 1)
        .unwrap()
        .iter()
        .max()
        .unwrap();
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
    let f16 = *probe
        .predict_footprint(&spec, 16)
        .unwrap()
        .iter()
        .max()
        .unwrap();
    let f8 = *probe
        .predict_footprint(&spec, 8)
        .unwrap()
        .iter()
        .max()
        .unwrap();
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
    let fp = probe.predict_footprint(&JobSpec::Pagerank, 1).unwrap();
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
