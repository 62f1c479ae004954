//! Chaos harness: a mixed concurrent job stream against a server whose
//! world is actively hostile — dropped/duplicated/delayed links, a device
//! crash (both recovery modes), a straggler window, memory pressure via
//! tightened device capacities, deadline churn and queue saturation —
//! all driven by one seed (`DIRGL_FAULT_SEED`, default 7; CI sweeps
//! {7, 42, 1337}).
//!
//! The contract under every storm:
//!
//! * every job that *completes* returns values bit-identical to the
//!   fault-free answer (bfs/sssp/cc are exact programs; pagerank is
//!   tolerance-checked, as in the fault-free suite),
//! * the server never panics and never wedges,
//! * the counters reconcile: `submitted = accepted + rejected_saturated +
//!   rejected_invalid` and `accepted = completed + cache_hits + failed +
//!   expired + rejected_gov + shut_down`.

use std::time::Duration;

use dirgl_apps::betweenness_centrality_prepared;
use dirgl_comm::FaultPlan;
use dirgl_core::{ResilienceStats, RunConfig, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::weights::randomize_weights;
use dirgl_graph::{Csr, RmatConfig};
use dirgl_partition::Policy;
use dirgl_serve::{
    JobError, JobHandle, JobRequest, JobServer, JobSpec, ServeConfig, ServerStats, SubmitError,
};

const DEVICES: u32 = 4;

/// Fault-decision seed; CI sweeps a small fixed matrix via
/// `DIRGL_FAULT_SEED`, local runs default to 7.
fn fault_seed() -> u64 {
    std::env::var("DIRGL_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn rmat() -> Csr {
    randomize_weights(&RmatConfig::new(9, 8).seed(21).generate(), 100, 5)
}

/// `k` distinct sources spread across the vertex range.
fn sources(g: &Csr, k: u32) -> Vec<u32> {
    let n = g.num_vertices();
    (0..k).map(|i| (i * n) / k).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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

fn clean_config() -> RunConfig {
    RunConfig::new(Policy::Cvc, Variant::var3())
}

/// The full link + device chaos plan: lossy, duplicating, delaying links,
/// a crash of device 1 at round 2, and a 4× straggler window on device 2.
fn storm(rejoin: bool) -> FaultPlan {
    FaultPlan::seeded(fault_seed())
        .with_drop(0.05)
        .with_duplicate(0.02)
        .with_delay(0.01, 0.005)
        .with_crash(1, 2, rejoin)
        .with_straggler(2, 1, 3, 4.0)
}

/// The mixed stream both servers run: multi-source traversals, four
/// coalescible singletons, the undirected kinds and pagerank.
fn stream(g: &Csr) -> Vec<JobSpec> {
    let mut jobs = vec![
        JobSpec::Bfs {
            sources: sources(g, 8),
        },
        JobSpec::Sssp {
            sources: sources(g, 8),
        },
        JobSpec::Cc,
        JobSpec::KCore { k: 2 },
        JobSpec::Pagerank,
    ];
    for s in sources(g, 4) {
        jobs.push(JobSpec::bfs(s + 1)); // offset: distinct from lane 0 above
    }
    jobs
}

fn submit_all(srv: &JobServer, jobs: &[JobSpec]) -> Vec<JobHandle> {
    jobs.iter()
        .map(|j| srv.submit_spec(j.clone()).expect("stream fits the queue"))
        .collect()
}

/// Link drops + duplicates + delays + a crash (both recovery modes) + a
/// straggler, against the full concurrent stream: every completed job's
/// values must be bit-identical to the fault-free server's (pagerank
/// within tolerance), and the engine-level recovery must be visible in
/// the per-job resilience records.
#[test]
fn mixed_stream_under_link_and_device_chaos_is_exact() {
    let g = rmat();
    let jobs = stream(&g);

    let clean = JobServer::load(
        &g,
        Platform::bridges(DEVICES),
        clean_config(),
        ServeConfig::default(),
    )
    .unwrap();
    let want: Vec<_> = submit_all(&clean, &jobs)
        .iter()
        .map(|h| h.wait().unwrap())
        .collect();

    for rejoin in [true, false] {
        let chaotic = JobServer::load(
            &g,
            Platform::bridges(DEVICES),
            clean_config()
                .with_faults(storm(rejoin))
                .with_checkpoints(2),
            ServeConfig::default(),
        )
        .unwrap();
        let got: Vec<_> = submit_all(&chaotic, &jobs)
            .iter()
            .map(|h| h.wait().unwrap())
            .collect();

        let mut crashes = 0u32;
        let mut retransmits = 0u64;
        for ((spec, w), r) in jobs.iter().zip(&want).zip(&got) {
            assert_eq!(w.outcome.per_source.len(), r.outcome.per_source.len());
            crashes += r.resilience.engine.crashes;
            retransmits += r.resilience.engine.faults.retransmits;
            for (lane, (wv, rv)) in w
                .outcome
                .per_source
                .iter()
                .zip(&r.outcome.per_source)
                .enumerate()
            {
                if matches!(spec, JobSpec::Pagerank) {
                    let worst = wv
                        .iter()
                        .zip(rv.iter())
                        .map(|(a, b)| (a - b).abs() / a.max(0.15))
                        .fold(0.0f64, f64::max);
                    assert!(
                        worst < 0.02,
                        "pagerank/{rejoin}: worst relative error {worst}"
                    );
                } else {
                    assert_eq!(
                        bits(wv),
                        bits(rv),
                        "{}/lane {lane}/rejoin={rejoin}: chaos changed the answer",
                        spec.name()
                    );
                }
            }
        }
        assert!(
            crashes > 0,
            "rejoin={rejoin}: the crash never fired across the stream"
        );
        assert!(
            retransmits > 0,
            "rejoin={rejoin}: the lossy links never forced a retransmission"
        );
        let stats = chaotic.stats();
        assert_eq!(stats.failed, 0, "no job may die under the storm: {stats:?}");
        reconciles(&stats);
        chaotic.shutdown();
    }
    reconciles(&clean.stats());
}

/// Memory pressure (tightened device capacities) on top of lossy links:
/// a wide bfs batch degrades down the lane-width ladder, still answering
/// bit-identically to the unconstrained fault-free run.
#[test]
fn memory_pressure_degrades_but_answers_do_not_change() {
    let g = rmat();
    let spec = JobSpec::Bfs {
        sources: sources(&g, 16),
    };

    let clean = JobServer::load(
        &g,
        Platform::bridges(DEVICES),
        clean_config(),
        ServeConfig::default(),
    )
    .unwrap();
    let want = clean.submit_spec(spec.clone()).unwrap().wait().unwrap();
    let f16 = *clean
        .predict_footprint(&spec, 16)
        .unwrap()
        .iter()
        .max()
        .unwrap();
    let f4 = *clean
        .predict_footprint(&spec, 4)
        .unwrap()
        .iter()
        .max()
        .unwrap();
    assert!(f4 < f16);

    let mut platform = Platform::bridges(DEVICES);
    for gpu in &mut platform.gpus {
        gpu.memory_bytes = (f4 + f16) / 2; // width 16 cannot fit; 4 can
    }
    let pressured = JobServer::load(
        &g,
        platform,
        clean_config().with_faults(FaultPlan::seeded(fault_seed()).with_drop(0.02)),
        ServeConfig::default(),
    )
    .unwrap();
    let r = pressured.submit_spec(spec).unwrap().wait().unwrap();
    assert!(r.resilience.degraded, "pressure must narrow the batch");
    assert!(r.resilience.granted_width < 16);
    for (lane, (wv, rv)) in want
        .outcome
        .per_source
        .iter()
        .zip(&r.outcome.per_source)
        .enumerate()
    {
        assert_eq!(
            bits(wv),
            bits(rv),
            "lane {lane}: degradation changed values"
        );
    }
    let stats = pressured.stats();
    assert!(stats.degraded >= 1);
    assert_eq!(stats.failed, 0);
    reconciles(&stats);
}

/// A multi-source bc job reports every launch: one scalar launch per
/// source, each a forward and a backward phase, in launch order. So its
/// resilience record sums the faults of every launch, equal to the
/// merged stats of the per-source direct runs under the same fault plan,
/// and every source's scores are bit-identical to its direct run.
#[test]
fn bc_job_reports_every_launch_and_its_faults() {
    let g = rmat();
    let config = clean_config().with_faults(FaultPlan::seeded(fault_seed()).with_drop(0.05));
    let srv = JobServer::load(
        &g,
        Platform::bridges(DEVICES),
        config.clone(),
        ServeConfig::default(),
    )
    .unwrap();
    let srcs = sources(&g, 3);
    let r = srv
        .submit_spec(JobSpec::Bc {
            sources: srcs.clone(),
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        r.outcome.reports.len(),
        6,
        "forward and backward per source"
    );

    let rt = Runtime::new(Platform::bridges(DEVICES), config);
    let fwd = rt.prepare(&g, false).unwrap();
    let bwd = rt.prepare(&g.transpose(), false).unwrap();
    let mut want = ResilienceStats::default();
    for (l, &s) in srcs.iter().enumerate() {
        let direct = betweenness_centrality_prepared(&rt, &fwd, &bwd, s).unwrap();
        want.merge(&direct.forward.resilience);
        want.merge(&direct.backward.resilience);
        assert_eq!(
            bits(&r.outcome.per_source[l]),
            bits(&direct.scores),
            "source {s}"
        );
    }
    assert!(
        want.faults.retransmits > 0,
        "premise: the lossy links forced retransmissions"
    );
    assert_eq!(r.resilience.engine, want);
}

/// Deadline churn: stale work expires (exactly once each), fresh work
/// completes, and nothing leaks from the ledger.
#[test]
fn deadline_churn_expires_stale_work_only() {
    let g = rmat();
    let srv = JobServer::load(
        &g,
        Platform::bridges(DEVICES),
        clean_config().with_faults(FaultPlan::seeded(fault_seed()).with_drop(0.05)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    srv.pause();

    // Three stale jobs: queued with a deadline that passes while paused.
    let stale: Vec<_> = [JobSpec::Cc, JobSpec::KCore { k: 2 }, JobSpec::Pagerank]
        .into_iter()
        .map(|spec| {
            srv.submit(JobRequest::new(spec).deadline(Duration::from_millis(1)))
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    // Three fresh singletons (they may coalesce into one launch).
    let fresh = submit_all(
        &srv,
        &sources(&g, 3)
            .into_iter()
            .map(JobSpec::bfs)
            .collect::<Vec<_>>(),
    );

    srv.resume();
    for h in &stale {
        assert_eq!(h.wait().unwrap_err(), JobError::DeadlineExpired);
    }
    for h in &fresh {
        assert!(h.wait().is_ok(), "fresh work must survive the churn");
    }
    srv.drain();
    let stats = srv.stats();
    assert_eq!(stats.expired, 3, "each stale job expires exactly once");
    assert_eq!(stats.completed, 3);
    reconciles(&stats);
}

/// Queue saturation under chaos: the bounded queue sheds the burst with
/// `Saturated` refusals, everything accepted completes, and the books
/// balance.
#[test]
fn saturation_sheds_the_burst_and_reconciles() {
    let g = rmat();
    let srv = JobServer::load(
        &g,
        Platform::bridges(DEVICES),
        clean_config().with_faults(FaultPlan::seeded(fault_seed()).with_drop(0.05)),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 0,
        },
    )
    .unwrap();
    srv.pause();

    // Six distinct non-coalescible jobs against a 2-slot queue.
    let burst: Vec<JobSpec> = (1..=6).map(|k| JobSpec::KCore { k }).collect();
    let mut handles = Vec::new();
    let mut refused = 0;
    for spec in burst {
        match srv.submit_spec(spec) {
            Ok(h) => handles.push(h),
            Err(SubmitError::Saturated { queued, capacity }) => {
                assert_eq!(capacity, 2);
                assert_eq!(queued, 2);
                refused += 1;
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(refused, 4, "a 2-slot queue takes 2 of 6 while paused");

    srv.resume();
    for h in &handles {
        assert!(h.wait().is_ok());
    }
    srv.drain();
    let stats = srv.stats();
    assert_eq!(stats.rejected_saturated, 4);
    assert_eq!(stats.completed, 2);
    reconciles(&stats);
}

/// Shutdown mid-storm: queued jobs fail with `ShutDown`, the counters
/// record them, and the books still balance.
#[test]
fn shutdown_under_chaos_keeps_the_books() {
    let g = rmat();
    let srv = JobServer::load(
        &g,
        Platform::bridges(DEVICES),
        clean_config().with_faults(storm(true)).with_checkpoints(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    srv.pause();
    let handles = submit_all(
        &srv,
        &[JobSpec::Cc, JobSpec::Pagerank, JobSpec::KCore { k: 2 }],
    );
    let stats_before = srv.stats();
    assert_eq!(stats_before.accepted, 3);
    srv.shutdown();
    for h in &handles {
        assert_eq!(h.wait().unwrap_err(), JobError::ShutDown);
    }
    // The server is gone; its final books were balanced when it left.
    assert_eq!(stats_before.submitted, 3);
}
