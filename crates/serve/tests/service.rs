//! End-to-end contracts of the resident job-server.
//!
//! The load-bearing one: any number of concurrent jobs against one
//! resident prepared partition produce **byte-identical** values to the
//! serial one-shot `runner(...).execute()` path, on both the synchronous
//! (Var1/BSP) and asynchronous (Var4/BASP) engines — including when the
//! server coalesces queued single-source traversals into one K-lane
//! batched launch. Plus the service semantics: cache hits return the cold
//! run's exact bytes, admission control canonicalizes and rejects with a
//! reason, deadlines expire, priorities order the queue, and epoch bumps
//! invalidate cached results.

use std::sync::Arc;
use std::time::Duration;

use dirgl_apps::{betweenness_centrality, Bfs, Cc, PageRank, Sssp};
use dirgl_core::{ExecutionReport, RunConfig, Runtime, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::Csr;
use dirgl_partition::Policy;
use dirgl_serve::{JobError, JobRequest, JobServer, JobSpec, Priority, ServeConfig, SubmitError};

fn graph() -> Csr {
    dirgl_graph::RmatConfig::new(8, 6).seed(13).generate()
}

fn config(variant: Variant) -> RunConfig {
    RunConfig::new(Policy::Cvc, variant)
}

fn server(variant: Variant, serve: ServeConfig) -> JobServer {
    JobServer::load(&graph(), Platform::bridges(4), config(variant), serve).unwrap()
}

fn fingerprint(report: &ExecutionReport, values: &[f64]) -> (String, Vec<u64>) {
    (
        format!("{report:?}"),
        values.iter().map(|v| v.to_bits()).collect(),
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The acceptance matrix: 16 concurrent mixed jobs (bfs from 4 sources ×2
/// submissions, sssp from 2 sources ×2, pagerank ×2, cc ×2) against one
/// resident partition, each value-identical to its serial one-shot
/// equivalent — on both engines. (Traversal jobs may coalesce into a
/// K-lane launch depending on queue timing, which changes their *report*
/// but never their values; the parameterless kinds never coalesce, so
/// their reports stay byte-identical too.)
#[test]
fn sixteen_concurrent_jobs_match_serial_one_shots_on_both_engines() {
    let g = graph();
    let sources: Vec<u32> = {
        let n = g.num_vertices();
        (0..4)
            .map(|k| (g.max_out_degree_vertex() + k * (n / 5 + 1)) % n)
            .collect()
    };

    for variant in [Variant::var1(), Variant::var4()] {
        // Serial one-shot fingerprints, computed the pre-server way (fresh
        // partition per call).
        let rt = Runtime::new(Platform::bridges(4), config(variant));
        let serial: Vec<(JobSpec, (String, Vec<u64>))> = {
            let mut v = Vec::new();
            for &s in &sources {
                let out = rt.runner(&g, &Bfs::new(s)).execute().unwrap();
                v.push((JobSpec::bfs(s), fingerprint(&out.report, &out.values)));
            }
            for &s in &sources[..2] {
                let out = rt.runner(&g, &Sssp::new(s)).execute().unwrap();
                v.push((JobSpec::sssp(s), fingerprint(&out.report, &out.values)));
            }
            let out = rt.runner(&g, &PageRank::new()).execute().unwrap();
            v.push((JobSpec::Pagerank, fingerprint(&out.report, &out.values)));
            let out = rt.runner(&g, &Cc).execute().unwrap();
            v.push((JobSpec::Cc, fingerprint(&out.report, &out.values)));
            v
        };

        // 16 jobs: the 8 distinct specs, each submitted twice, all in
        // flight at once on a 4-executor server.
        let srv = server(variant, ServeConfig::default());
        let jobs: Vec<JobSpec> = serial
            .iter()
            .chain(serial.iter())
            .map(|(spec, _)| spec.clone())
            .collect();
        assert_eq!(jobs.len(), 16);
        let results: Vec<_> = std::thread::scope(|sc| {
            let srv = &srv;
            let handles: Vec<_> = jobs
                .iter()
                .map(|spec| {
                    let spec = spec.clone();
                    sc.spawn(move || srv.submit_spec(spec).unwrap().wait().unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (spec, result) in jobs.iter().zip(&results) {
            let (want_report, want_bits) = &serial.iter().find(|(s, _)| s == spec).unwrap().1;
            assert_eq!(
                &bits(result.outcome.values()),
                want_bits,
                "{} served on {} diverged from its serial one-shot",
                spec.name(),
                variant.label()
            );
            if spec.sources().is_none() {
                assert_eq!(
                    &format!("{:?}", result.outcome.report()),
                    want_report,
                    "{} on {}: non-coalescible reports must stay byte-identical",
                    spec.name(),
                    variant.label()
                );
            }
        }

        // Every duplicate was coalesced, served through the cache, or
        // executed — all are correct; the counters must account for all.
        let stats = srv.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.accepted, 16);
        assert_eq!(stats.cache_hits + stats.completed, 16);
        assert!(stats.completed >= 8, "8 distinct specs must execute");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected_saturated + stats.rejected_invalid, 0);
    }
}

/// The coalescing window end to end: 16 queued single-source bfs jobs
/// merge into ONE 16-lane engine launch whose per-job values are
/// byte-identical to 16 serial one-shots, and the per-source cache fill
/// makes every later singleton resubmission hit.
#[test]
fn coalesced_sixteen_job_batch_matches_serial_and_fills_cache_per_source() {
    let g = graph();
    let n = g.num_vertices();
    let sources: Vec<u32> = (0..16)
        .map(|k| (g.max_out_degree_vertex() + k * (n / 17 + 1)) % n)
        .collect();

    // Serial scalar one-shots (fresh partition per call) are the oracle.
    let rt = Runtime::new(Platform::bridges(4), config(Variant::var4()));
    let serial: Vec<Vec<u64>> = sources
        .iter()
        .map(|&s| bits(&rt.runner(&g, &Bfs::new(s)).execute().unwrap().values))
        .collect();

    // One paused worker: all 16 land in the queue, then resume opens a
    // single coalescing window over the whole batch.
    let srv = server(
        Variant::var4(),
        ServeConfig {
            workers: 1,
            queue_capacity: 32,
            cache_capacity: 64,
        },
    );
    srv.pause();
    let handles: Vec<_> = sources
        .iter()
        .map(|&s| srv.submit_spec(JobSpec::bfs(s)).unwrap())
        .collect();
    srv.resume();
    let results: Vec<_> = handles.iter().map(|h| h.wait().unwrap()).collect();
    srv.drain();

    let first_report = format!("{:?}", results[0].outcome.report());
    for ((r, want), &s) in results.iter().zip(&serial).zip(&sources) {
        assert!(!r.from_cache);
        assert_eq!(
            &bits(r.outcome.values()),
            want,
            "source {s}: coalesced lane diverged from its serial one-shot"
        );
        assert_eq!(
            format!("{:?}", r.outcome.report()),
            first_report,
            "source {s}: every lane shares the one batched engine report"
        );
    }

    let stats = srv.stats();
    assert_eq!(stats.coalesced, 16, "all 16 jobs rode one batched launch");
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.cache_misses, 16);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_entries, 16, "one entry per source");

    // Later singletons hit the per-source fills — same Arc, no execution.
    for (h, &s) in results.iter().zip(&sources) {
        let hit = srv.submit_spec(JobSpec::bfs(s)).unwrap().wait().unwrap();
        assert!(hit.from_cache, "source {s} must be served from the cache");
        assert!(
            Arc::ptr_eq(&h.outcome, &hit.outcome),
            "source {s}: hit must share the batch's allocation"
        );
    }
    assert_eq!(srv.stats().cache_hits, 16);
    assert_eq!(srv.stats().completed, 16, "no further executions");
}

/// A multi-source spec submitted directly: admission canonicalizes
/// (sorts + dedups) the source set, the outcome carries one value vector
/// per source matching the serial scalar runs, and a permuted
/// resubmission is the same cache key.
#[test]
fn multi_source_spec_canonicalizes_and_matches_scalar_runs() {
    let g = graph();
    let n = g.num_vertices();
    let s: Vec<u32> = (0..3)
        .map(|k| (g.max_out_degree_vertex() + k * (n / 4 + 1)) % n)
        .collect();
    let rt = Runtime::new(Platform::bridges(4), config(Variant::var1()));

    let srv = server(Variant::var1(), ServeConfig::default());
    let spec = JobSpec::Sssp {
        sources: vec![s[2], s[0], s[1], s[0]], // unsorted, with a duplicate
    };
    let r = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert_eq!(r.outcome.per_source.len(), 3, "duplicates collapse");
    let mut canon = s.clone();
    canon.sort_unstable();
    for (vals, &src) in r.outcome.per_source.iter().zip(&canon) {
        let want = rt.runner(&g, &Sssp::new(src)).execute().unwrap().values;
        assert_eq!(
            bits(vals),
            bits(&want),
            "source {src}: lane diverged from its scalar run"
        );
    }
    srv.drain();

    // Already-sorted resubmission is the same canonical key: cache hit.
    let hit = srv
        .submit_spec(JobSpec::Sssp {
            sources: canon.clone(),
        })
        .unwrap()
        .wait()
        .unwrap();
    assert!(hit.from_cache);
    assert!(Arc::ptr_eq(&r.outcome, &hit.outcome));
}

/// bc (two-phase, forward + transpose backward) served from the resident
/// views matches the one-shot driver bit for bit.
#[test]
fn served_bc_matches_one_shot_driver() {
    let g = graph();
    let src = g.max_out_degree_vertex();
    let rt = Runtime::new(Platform::bridges(4), config(Variant::var4()));
    let want = betweenness_centrality(&rt, &g, src).unwrap();

    let srv = server(Variant::var4(), ServeConfig::default());
    let r = srv.submit_spec(JobSpec::bc(src)).unwrap().wait().unwrap();
    assert_eq!(
        r.outcome.reports.len(),
        2,
        "bc has forward + backward phases"
    );
    assert_eq!(
        fingerprint(&r.outcome.reports[0], r.outcome.values()),
        fingerprint(&want.forward, &want.scores)
    );
    assert_eq!(
        format!("{:?}", r.outcome.reports[1]),
        format!("{:?}", want.backward)
    );
}

/// A cache hit returns the very bytes of the cold run (the same `Arc`,
/// even) and the hit/miss counters track it.
#[test]
fn cache_hit_is_bit_identical_to_the_cold_run() {
    let srv = server(Variant::var4(), ServeConfig::default());
    let spec = JobSpec::bfs(3);

    let cold = srv.submit_spec(spec.clone()).unwrap().wait().unwrap();
    assert!(!cold.from_cache);
    srv.drain();

    let hit = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert!(hit.from_cache);
    assert!(
        Arc::ptr_eq(&cold.outcome, &hit.outcome),
        "hit must share the cold run's allocation"
    );
    assert_eq!(
        fingerprint(cold.outcome.report(), cold.outcome.values()),
        fingerprint(hit.outcome.report(), hit.outcome.values())
    );

    let stats = srv.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cache_entries, 1);
}

/// A saturated queue refuses with the observed occupancy; accepted work
/// still completes after resume.
#[test]
fn saturation_rejects_with_reason() {
    let srv = server(
        Variant::var1(),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 16,
        },
    );
    srv.pause();
    let h1 = srv.submit_spec(JobSpec::bfs(1)).unwrap();
    let h2 = srv.submit_spec(JobSpec::bfs(2)).unwrap();
    let refused = srv.submit_spec(JobSpec::bfs(3));
    assert_eq!(
        refused.unwrap_err(),
        SubmitError::Saturated {
            queued: 2,
            capacity: 2
        }
    );

    let stats = srv.stats();
    assert_eq!(stats.rejected_saturated, 1);
    assert_eq!(stats.queued, 2);

    srv.resume();
    assert!(h1.wait().is_ok());
    assert!(h2.wait().is_ok());
    assert_eq!(srv.stats().completed, 2);
}

/// An out-of-range source is refused at the door — naming the offending
/// id even when it hides inside a multi-source set — because the resident
/// server must never crash (or queue useless work) for a degenerate job.
#[test]
fn invalid_source_is_refused_at_admission() {
    let srv = server(Variant::var1(), ServeConfig::default());
    let n = srv.directed_view().num_vertices();
    let refused = srv.submit_spec(JobSpec::sssp(n + 7));
    assert_eq!(
        refused.unwrap_err(),
        SubmitError::InvalidSource {
            source: n + 7,
            num_vertices: n
        }
    );
    // In a batch, the error names the offending id, not the whole set.
    let refused = srv.submit_spec(JobSpec::Bfs {
        sources: vec![0, n + 3, 1],
    });
    assert_eq!(
        refused.unwrap_err(),
        SubmitError::InvalidSource {
            source: n + 3,
            num_vertices: n
        }
    );
    let refused = srv.submit_spec(JobSpec::Bfs {
        sources: Vec::new(),
    });
    assert_eq!(refused.unwrap_err(), SubmitError::EmptySources);
    assert_eq!(srv.stats().rejected_invalid, 3);
    assert_eq!(srv.stats().accepted, 0);
}

/// A job whose deadline passes while queued completes with
/// `DeadlineExpired` instead of executing.
#[test]
fn deadline_expires_while_queued() {
    let srv = server(
        Variant::var1(),
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        },
    );
    srv.pause();
    let h = srv
        .submit(JobRequest::new(JobSpec::bfs(1)).deadline(Duration::from_millis(1)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    srv.resume();
    assert_eq!(h.wait().unwrap_err(), JobError::DeadlineExpired);
    let stats = srv.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 0);
}

/// With one executor, a high-priority job submitted after a low-priority
/// one still runs first (observed through completion: when the low job
/// finishes, the high one is already done). Different kinds, so the
/// coalescing window cannot merge them into one launch.
#[test]
fn high_priority_overtakes_low_in_the_queue() {
    let srv = server(
        Variant::var1(),
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0, // no cache: both jobs must truly execute
        },
    );
    srv.pause();
    let low = srv
        .submit(JobRequest::new(JobSpec::sssp(1)).priority(Priority::Low))
        .unwrap();
    let high = srv
        .submit(JobRequest::new(JobSpec::bfs(2)).priority(Priority::High))
        .unwrap();
    srv.resume();
    low.wait().unwrap();
    assert!(
        high.is_done(),
        "single executor finished the low job before the high one"
    );
}

/// Bumping the graph epoch invalidates cached results: the same spec
/// re-executes and lands under the new epoch.
#[test]
fn epoch_bump_invalidates_cached_results() {
    let srv = server(Variant::var4(), ServeConfig::default());
    let spec = JobSpec::Pagerank;
    let first = srv.submit_spec(spec.clone()).unwrap().wait().unwrap();
    assert_eq!(first.epoch, 0);
    srv.drain();

    assert_eq!(srv.bump_epoch(), 1);
    let stats = srv.stats();
    assert_eq!(stats.invalidated, 1);
    assert_eq!(stats.cache_entries, 0);

    let second = srv.submit_spec(spec).unwrap().wait().unwrap();
    assert!(!second.from_cache, "old-epoch result must not be served");
    assert_eq!(second.epoch, 1);
    assert_eq!(srv.stats().cache_misses, 2);
}

/// Shutdown fails queued-but-unstarted jobs with `ShutDown` rather than
/// leaving their waiters hanging.
#[test]
fn shutdown_fails_queued_jobs() {
    let srv = server(
        Variant::var1(),
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 16,
        },
    );
    srv.pause();
    let h = srv.submit_spec(JobSpec::Cc).unwrap();
    drop(srv); // shutdown path
    assert_eq!(h.wait().unwrap_err(), JobError::ShutDown);
}
