//! The resident job-server.
//!
//! [`JobServer::load`] pays the graph-residency cost once — partitioning
//! the dataset under the runtime's policy into three prepared views
//! (directed, symmetrized, transposed), each with its sync plan and
//! extract indexes — then serves any number of concurrent jobs against
//! that `Arc`-shared immutable state. Per job, only the per-device
//! program state (including the round scratch) is materialized, which is
//! exactly what the `(shared partition, program, source)` execution unit
//! of [`dirgl_core::Runtime::job`] needs.
//!
//! Scheduling: submissions pass admission control (source validation and a
//! bounded waiting queue — refusals say why), then wait in a priority
//! queue (higher [`Priority`] first, FIFO within a level). A fixed set of
//! executor threads bounds the jobs in flight; inside a job, the engine's
//! per-device loops fan out over the process-wide worker pool as usual, so
//! concurrent jobs share the same pool the one-shot harness uses.
//!
//! A dequeued job reaches the engine by one path. The worker widens it
//! into a coalescing window (queued single-source traversals of the same
//! kind join it; a lone job is a window of one). Each member is checked
//! for its deadline and for a cached result, and the survivors share one
//! governed execution (admission over the lane-width ladder, then the
//! job's launches under that one grant). A bfs spec runs its sources as
//! lanes of `min(K, 64)`-wide batched launches; sssp and bc run one
//! scalar launch per source (see [`requested_width`]).
//!
//! Completed outcomes land in the keyed result cache
//! (epoch × program × params) with LRU eviction; repeated queries are
//! O(lookup) and return the very bytes the cold run produced.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dirgl_apps::{
    betweenness_centrality_footprint, betweenness_centrality_prepared, Bfs, Cc, KCore, PageRank,
    Sssp,
};
use dirgl_core::{
    ExecutionReport, MultiRunner, PreparedPartition, ResilienceStats, RunConfig, RunError,
    RunOutput, Runtime, LANE_WIDTH,
};
use dirgl_gpusim::Platform;
use dirgl_graph::Csr;

use crate::cache::ResultCache;
use crate::governor::{ladder_widths, Denial, DeviceStatus, Governor, RejectReason};
use crate::job::{
    JobCell, JobError, JobHandle, JobOutcome, JobRequest, JobResilience, JobResult, JobSpec,
    Priority, SubmitError,
};

/// How long a worker waits before asking the governor again after a
/// transient ([`Denial::Busy`]) denial.
const BUSY_PAUSE: Duration = Duration::from_millis(1);

/// The lanes per launch `spec` asks for: `min(K, 64)` for a traversal
/// family whose batched form is bit-parallel, 1 for every other kind.
///
/// Only bfs qualifies: its batched form, `MsBfs`, carries a lane as one
/// bit of a mask word, and on the host a K-lane pass costs 0.3–0.8× its
/// K scalar runs. sssp and bc batch through the value-lane adapter
/// `Lanes`, which moves one value per lane; it wins in simulated time but
/// costs 1.0–4.6× the scalar runs on the host clock a server's users wait
/// on (EXPERIMENTS.md, "Host cost of a lane batch"). So their sources run
/// one scalar launch each, under the job's one governor grant.
fn requested_width(spec: &JobSpec) -> usize {
    match spec {
        JobSpec::Bfs { sources } => sources.len().min(LANE_WIDTH),
        _ => 1,
    }
}

/// Server sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Executor threads = maximum jobs in flight at once.
    pub workers: usize,
    /// Maximum jobs waiting in the queue; submissions beyond it are
    /// rejected with [`SubmitError::Saturated`].
    pub queue_capacity: usize,
    /// Result-cache entries (LRU-evicted; 0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
        }
    }
}

/// Runs one scalar `launch` per source, in order: every launch's phase
/// reports in launch order, and one value vector per source.
fn each_source(
    sources: &[u32],
    mut launch: impl FnMut(u32) -> Result<(Vec<ExecutionReport>, Vec<f64>), RunError>,
) -> Result<JobOutcome, RunError> {
    let mut outcome = JobOutcome {
        reports: Vec::new(),
        per_source: Vec::with_capacity(sources.len()),
    };
    for &s in sources {
        let (reports, values) = launch(s)?;
        outcome.reports.extend(reports);
        outcome.per_source.push(values);
    }
    Ok(outcome)
}

/// Monotonic counters, readable at any time via [`JobServer::stats`].
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected_saturated: AtomicU64,
    rejected_invalid: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    invalidated: AtomicU64,
    coalesced: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    rejected_gov: AtomicU64,
    shut_down: AtomicU64,
}

/// A point-in-time statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Submissions seen (accepted or not).
    pub submitted: u64,
    /// Jobs admitted to the queue (including cache fast-path completions).
    pub accepted: u64,
    /// Submissions refused because the queue was full.
    pub rejected_saturated: u64,
    /// Submissions refused for naming an out-of-range source.
    pub rejected_invalid: u64,
    /// Jobs that executed to completion.
    pub completed: u64,
    /// Jobs whose execution returned a [`RunError`].
    pub failed: u64,
    /// Jobs dropped because their deadline passed while queued.
    pub expired: u64,
    /// Results served from the cache (at submission or at dequeue).
    pub cache_hits: u64,
    /// Jobs that had to execute because no cached result existed.
    pub cache_misses: u64,
    /// Cached results dropped by epoch invalidation.
    pub invalidated: u64,
    /// Jobs served by the shared launches of a coalesced window (counts
    /// every member of a merged window).
    pub coalesced: u64,
    /// Always 0, kept so that code written against the deleted OOM-retry
    /// ladder still compiles (the frozen `benchmark/` workload reads it):
    /// admission picks a job's width before the job runs, so nothing
    /// relaunches.
    pub retries: u64,
    /// Jobs that completed at a lane width below the one they requested
    /// (the governor degraded them at admission).
    pub degraded: u64,
    /// Low-priority jobs the governor shed under memory pressure (a
    /// subset of [`ServerStats::rejected_gov`]).
    pub shed: u64,
    /// Jobs the admission governor refused to launch (no rung of the
    /// degradation ladder fit, all devices dead, or shed).
    pub rejected_gov: u64,
    /// Queued jobs failed because the server shut down first.
    pub shut_down: u64,
    /// Cache entries currently resident.
    pub cache_entries: usize,
    /// LRU evictions so far.
    pub cache_evictions: u64,
    /// Jobs waiting in the queue right now.
    pub queued: usize,
    /// Jobs executing right now.
    pub in_flight: usize,
    /// Current graph epoch.
    pub epoch: u64,
}

/// One queued job. The heap orders by priority (higher first), then by
/// submission sequence (earlier first) — deterministic FIFO within a
/// priority level.
struct Queued {
    priority: Priority,
    seq: u64,
    deadline: Option<Instant>,
    spec: JobSpec,
    epoch: u64,
    cell: Arc<JobCell>,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Mutable scheduler state behind one mutex.
struct Sched {
    queue: BinaryHeap<Queued>,
    in_flight: usize,
    paused: bool,
    shutdown: bool,
    next_seq: u64,
}

struct Inner {
    rt: Runtime,
    /// The dataset as given (bfs, sssp, pagerank, bc forward).
    directed: Arc<PreparedPartition>,
    /// Symmetrized view (cc, kcore).
    symmetric: Arc<PreparedPartition>,
    /// Transposed view (bc backward).
    transpose: Arc<PreparedPartition>,
    queue_capacity: usize,
    /// Memory/health-aware admission (see [`crate::governor`]).
    gov: Governor,
    /// Device the server's fault plan crashes (observed from job reports
    /// to keep the governor's health picture current).
    crash_device: Option<u32>,
    sched: Mutex<Sched>,
    /// Signaled when work arrives, pause state flips, or shutdown begins.
    work: Condvar,
    /// Signaled when the server goes idle (empty queue, nothing in
    /// flight) — what [`JobServer::drain`] waits on.
    idle: Condvar,
    cache: Mutex<ResultCache>,
    epoch: AtomicU64,
    c: Counters,
}

impl Inner {
    /// The prepared view `spec` runs on (bc's second view is handled by
    /// its driver).
    fn view_for(&self, spec: &JobSpec) -> &Arc<PreparedPartition> {
        if spec.needs_symmetric() {
            &self.symmetric
        } else {
            &self.directed
        }
    }

    /// Refuses a degenerate spec — an empty source set or an out-of-range
    /// source (the error names the offending id) — so the resident process
    /// never dies (or even spins) on one.
    fn validate(&self, spec: &JobSpec) -> Result<(), SubmitError> {
        let Some(sources) = spec.sources() else {
            return Ok(());
        };
        if sources.is_empty() {
            return Err(SubmitError::EmptySources);
        }
        let n = self.view_for(spec).num_vertices();
        match sources.iter().find(|&&s| s >= n) {
            Some(&source) => Err(SubmitError::InvalidSource {
                source,
                num_vertices: n,
            }),
            None => Ok(()),
        }
    }

    /// Executes `spec` against the resident views at lane width `width`.
    /// Pure with respect to server state: all shared inputs are immutable,
    /// every mutable buffer is job-local, so any number of these may run
    /// concurrently. A bfs spec runs its sources as a batch in
    /// `width`-source launches; the width alone picks each launch's
    /// program (one source runs the scalar program, exactly the one-shot
    /// run), and every width produces bit-identical per-source values.
    /// Every other traversal kind asks for width 1 ([`requested_width`])
    /// and runs one scalar launch per source.
    fn execute_at(&self, spec: &JobSpec, width: usize) -> Result<JobOutcome, RunError> {
        let single = |out: RunOutput| JobOutcome {
            reports: vec![out.report],
            per_source: vec![out.values],
        };
        match spec {
            JobSpec::Bfs { sources } => {
                let out = self
                    .bfs_batch(&Bfs::new(sources[0]), sources, width)
                    .execute()?;
                Ok(JobOutcome {
                    reports: out.engine_reports,
                    per_source: out.lanes.into_iter().map(|l| l.values).collect(),
                })
            }
            JobSpec::Sssp { sources } => each_source(sources, |s| {
                let out = self.rt.job(&self.directed, &Sssp::new(s)).execute()?;
                Ok((vec![out.report], out.values))
            }),
            JobSpec::Pagerank => self
                .rt
                .job(&self.directed, &PageRank::new())
                .execute()
                .map(single),
            JobSpec::Cc => self.rt.job(&self.symmetric, &Cc).execute().map(single),
            JobSpec::KCore { k } => self
                .rt
                .job(&self.symmetric, &KCore::new(*k))
                .execute()
                .map(single),
            JobSpec::Bc { sources } => each_source(sources, |s| {
                let out =
                    betweenness_centrality_prepared(&self.rt, &self.directed, &self.transpose, s)?;
                Ok((vec![out.forward, out.backward], out.scores))
            }),
        }
    }

    /// The bfs batch [`Inner::execute_at`] runs from every source in
    /// `sources` on the directed view, in `width`-source launches — and
    /// whose first launch [`Inner::predict`] costs.
    fn bfs_batch<'a>(
        &'a self,
        program: &'a Bfs,
        sources: &[u32],
        width: usize,
    ) -> MultiRunner<'a, Bfs> {
        self.rt
            .job(&self.directed, program)
            .batch(sources)
            .lane_width(width)
    }

    /// Predicts `spec`'s per-device footprint at lane width `width` with
    /// the engine's own load check ([`dirgl_core::Runtime::footprint`]),
    /// costing exactly the first launch
    /// [`Inner::execute_at`] makes — launches run sequentially and the
    /// first is the widest, so it is the maximum (a scalar launch costs
    /// the same from every source) — so prediction and the engine's
    /// charge cannot disagree.
    fn predict(&self, spec: &JobSpec, width: usize) -> Vec<u64> {
        let rt = &self.rt;
        // One footprint per engine phase the job's first launch runs.
        let phases = match spec {
            JobSpec::Bfs { sources } => vec![self
                .bfs_batch(&Bfs::new(sources[0]), sources, width)
                .footprint()
                .expect("a resident view always resolves")],
            JobSpec::Sssp { sources } => vec![rt.footprint(&self.directed, &Sssp::new(sources[0]))],
            JobSpec::Pagerank => vec![rt.footprint(&self.directed, &PageRank::new())],
            JobSpec::Cc => vec![rt.footprint(&self.symmetric, &Cc)],
            JobSpec::KCore { k } => vec![rt.footprint(&self.symmetric, &KCore::new(*k))],
            JobSpec::Bc { sources } => Vec::from(betweenness_centrality_footprint(
                rt,
                &self.directed,
                &self.transpose,
                sources[0],
            )),
        };
        // The job's footprint on a device is its largest phase's.
        let mut bytes = vec![0u64; rt.platform.num_devices() as usize];
        for phase in &phases {
            for (b, &fp) in bytes.iter_mut().zip(phase) {
                *b = (*b).max(fp);
            }
        }
        bytes
    }

    /// One engine launch: governor admission over the degradation ladder,
    /// then one execution at the granted width, under `deadline` (checked
    /// across every admission wait and before the launch). Returns the
    /// outcome plus the launch's resilience record; the caller owns
    /// counter bookkeeping.
    fn execute_governed(
        &self,
        spec: &JobSpec,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<(JobOutcome, JobResilience), JobError> {
        let requested = requested_width(spec);
        let ladder: Vec<(usize, Vec<u64>)> = ladder_widths(requested)
            .into_iter()
            .map(|w| (w, self.predict(spec, w)))
            .collect();
        // Transient denials (the job fits an idle server but in-flight
        // reservations crowd it out) wait for a release and ask again;
        // only terminal denials surface as rejections. The wait cannot
        // wedge: `Busy` implies another worker holds a reservation it
        // will release when its launch finishes.
        let grant = loop {
            match self.gov.decide(priority, &ladder) {
                Ok(g) => break g,
                Err(Denial::Reject(r)) => return Err(JobError::Rejected(r)),
                Err(Denial::Busy) => {
                    if let Some(dl) = deadline {
                        let now = Instant::now();
                        if now + BUSY_PAUSE >= dl {
                            std::thread::sleep(dl.saturating_duration_since(now));
                            return Err(JobError::DeadlineExpired);
                        }
                    }
                    std::thread::sleep(BUSY_PAUSE);
                }
            }
        };

        if deadline.is_some_and(|dl| Instant::now() > dl) {
            self.gov.release(&grant.reserved);
            return Err(JobError::DeadlineExpired);
        }
        let result = self.execute_at(spec, grant.width);
        self.gov.release(&grant.reserved);
        let outcome = result.map_err(|error| JobError::Run { error })?;

        let mut engine = ResilienceStats::default();
        for r in &outcome.reports {
            engine.merge(&r.resilience);
        }
        // Keep the health picture current: a crash that never rejoined
        // leaves its device dead for subsequent admissions.
        self.gov.observe(self.crash_device, &engine);

        let resilience = JobResilience {
            requested_width: requested,
            granted_width: grant.width,
            degraded: grant.degraded,
            engine,
        };
        Ok((outcome, resilience))
    }

    /// One-stop failure bookkeeping — every terminal [`JobError`] a
    /// worker produces is counted here, exactly once, so the counters
    /// reconcile (`accepted = completed + cache_hits + failed + expired +
    /// rejected_gov + shut_down`).
    fn count_error(&self, e: &JobError) {
        match e {
            JobError::Run { .. } => {
                self.c.failed.fetch_add(1, Ordering::Relaxed);
            }
            JobError::Rejected(r) => {
                self.c.rejected_gov.fetch_add(1, Ordering::Relaxed);
                if matches!(r, RejectReason::Shed { .. }) {
                    self.c.shed.fetch_add(1, Ordering::Relaxed);
                }
            }
            JobError::DeadlineExpired => {
                self.c.expired.fetch_add(1, Ordering::Relaxed);
            }
            JobError::ShutDown => {
                self.c.shut_down.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The executor loop: pop the highest-priority job, widen it into a
    /// coalescing window (same-kind single-source traversal jobs at the
    /// same epoch merge into one multi-source job, up to [`LANE_WIDTH`]
    /// sources), serve the window, fulfill every handle. Exits on shutdown
    /// after the queue has been drained (drained jobs complete with
    /// [`JobError::ShutDown`]).
    fn worker_loop(self: &Arc<Inner>) {
        loop {
            let window = {
                let mut s = self.sched.lock().unwrap();
                loop {
                    if s.shutdown {
                        // Fail whatever is still queued, exactly once
                        // across workers (whoever holds the lock first).
                        while let Some(q) = s.queue.pop() {
                            self.c.shut_down.fetch_add(1, Ordering::Relaxed);
                            q.cell.fulfill(Err(JobError::ShutDown));
                        }
                        self.idle.notify_all();
                        return;
                    }
                    if !s.paused {
                        if let Some(j) = s.queue.pop() {
                            let window = Self::coalesce_window(&mut s.queue, j);
                            s.in_flight += window.len();
                            break window;
                        }
                    }
                    s = self.work.wait(s).unwrap();
                }
            };

            let n = window.len();
            self.serve_window(window);

            let mut s = self.sched.lock().unwrap();
            s.in_flight -= n;
            if s.in_flight == 0 && s.queue.is_empty() {
                self.idle.notify_all();
            }
        }
    }

    /// The coalescing window: starting from dequeued job `first`, absorbs
    /// every queued job of the same traversal kind with exactly one source
    /// and the same epoch, up to [`LANE_WIDTH`] lanes total. Multi-source
    /// specs and parameterless kinds pass through untouched; everything
    /// not absorbed goes back on the heap.
    fn coalesce_window(queue: &mut BinaryHeap<Queued>, first: Queued) -> Vec<Queued> {
        let coalescible = |q: &Queued| q.spec.sources().is_some_and(|ss| ss.len() == 1);
        if !coalescible(&first) || queue.is_empty() {
            return vec![first];
        }
        let mut batch = vec![first];
        let mut rest = Vec::new();
        for q in std::mem::take(queue).into_sorted_vec().into_iter().rev() {
            let take = batch.len() < LANE_WIDTH
                && q.epoch == batch[0].epoch
                && q.spec.name() == batch[0].spec.name()
                && coalescible(&q);
            if take {
                batch.push(q);
            } else {
                rest.push(q);
            }
        }
        queue.extend(rest);
        batch
    }

    /// Serves a dequeued window (a lone job is a window of one). Each
    /// member is checked for its deadline and then for a cached result
    /// (an identical job may have completed while it queued); the
    /// survivors share one governed launch at their highest priority:
    ///
    /// - one survivor launches its own spec under its own deadline, and
    ///   its outcome is cached under its own key;
    /// - two or more launch the deduplicated batch of their sources with
    ///   no deadline, and the cache is filled per source under the
    ///   canonical singleton spec, with the reports of the launch that ran
    ///   that source, so later single-source queries hit.
    ///
    /// So a batch member whose deadline passes during the admission wait
    /// still receives its (late) result rather than poisoning the shared
    /// launch; multi-source specs never coalesce and always keep their
    /// deadline. Every member gets the launch's resilience record and is
    /// counted as one job (`completed`, `degraded`, `coalesced`).
    fn serve_window(&self, window: Vec<Queued>) {
        let epoch = window[0].epoch;
        let mut run = Vec::with_capacity(window.len());
        for job in window {
            if job.deadline.is_some_and(|dl| Instant::now() > dl) {
                self.c.expired.fetch_add(1, Ordering::Relaxed);
                job.cell.fulfill(Err(JobError::DeadlineExpired));
                continue;
            }
            let hit = self.cache.lock().unwrap().get(&(epoch, job.spec.clone()));
            if let Some(outcome) = hit {
                self.c.cache_hits.fetch_add(1, Ordering::Relaxed);
                job.cell.fulfill(Ok(JobResult {
                    outcome,
                    from_cache: true,
                    epoch,
                    resilience: JobResilience::default(),
                }));
                continue;
            }
            self.c.cache_misses.fetch_add(1, Ordering::Relaxed);
            run.push(job);
        }

        // The launch, and the specs its outcome splits into.
        let (spec, deadline, parts) = match &run[..] {
            [] => return,
            [job] => (job.spec.clone(), job.deadline, vec![job.spec.clone()]),
            [first, ..] => {
                // Distinct sources become lanes; duplicates share one.
                let mut sources: Vec<u32> = run
                    .iter()
                    .map(|q| q.spec.sources().expect("coalesced jobs have sources")[0])
                    .collect();
                sources.sort_unstable();
                sources.dedup();
                let parts = sources
                    .iter()
                    .map(|&s| first.spec.with_sources(vec![s]).expect("traversal spec"))
                    .collect();
                let batch = first.spec.with_sources(sources).expect("traversal spec");
                (batch, None, parts)
            }
        };
        let priority = run.iter().map(|q| q.priority).max().expect("non-empty");

        match self.execute_governed(&spec, priority, deadline) {
            Ok((outcome, resilience)) => {
                let n = run.len() as u64;
                if n > 1 {
                    self.c.coalesced.fetch_add(n, Ordering::Relaxed);
                }
                if resilience.degraded {
                    self.c.degraded.fetch_add(n, Ordering::Relaxed);
                }
                // One outcome per part, shared between the cache, this
                // window's duplicates, and future hits. A part keeps the
                // phase reports of the launch that ran its source: source
                // `i` rode launch `i / width`.
                let outcomes: Vec<Arc<JobOutcome>> = if parts.len() == 1 {
                    vec![Arc::new(outcome)]
                } else {
                    let width = resilience.granted_width;
                    let phases = outcome.reports.len() / parts.len().div_ceil(width);
                    outcome
                        .per_source
                        .into_iter()
                        .enumerate()
                        .map(|(i, values)| {
                            let first = i / width * phases;
                            Arc::new(JobOutcome {
                                reports: outcome.reports[first..first + phases].to_vec(),
                                per_source: vec![values],
                            })
                        })
                        .collect()
                };
                {
                    let mut cache = self.cache.lock().unwrap();
                    for (part, o) in parts.iter().zip(&outcomes) {
                        cache.insert((epoch, part.clone()), Arc::clone(o));
                    }
                }
                for job in run {
                    let i = parts
                        .iter()
                        .position(|p| *p == job.spec)
                        .expect("job is a part");
                    self.c.completed.fetch_add(1, Ordering::Relaxed);
                    job.cell.fulfill(Ok(JobResult {
                        outcome: Arc::clone(&outcomes[i]),
                        from_cache: false,
                        epoch,
                        resilience: resilience.clone(),
                    }));
                }
            }
            Err(e) => {
                for job in run {
                    self.count_error(&e);
                    job.cell.fulfill(Err(e.clone()));
                }
            }
        }
    }
}

/// The operator-facing snapshot [`JobServer::status`] returns: the
/// admission governor's per-device view (health, reserved and residual
/// bytes) plus queue occupancy and the counter set.
#[derive(Clone, Debug)]
pub struct ServerStatus {
    /// One row per device, as the governor admits against it right now.
    pub devices: Vec<DeviceStatus>,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs executing right now.
    pub in_flight: usize,
    /// The full counter snapshot.
    pub stats: ServerStats,
}

/// A long-lived analytics server over one resident dataset. See the
/// module docs for the lifecycle; construct with [`JobServer::load`].
pub struct JobServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Loads `graph` once: builds the three prepared views under
    /// `config`'s policy/seed on `platform`, then starts the executor
    /// threads. The partitions a bare `runner(...).execute()` would build
    /// per call are exactly the ones prepared here, so served results are
    /// byte-identical to their one-shot equivalents.
    pub fn load(
        graph: &Csr,
        platform: Platform,
        config: RunConfig,
        serve: ServeConfig,
    ) -> Result<JobServer, RunError> {
        let rt = Runtime::new(platform, config);
        let directed = Arc::new(rt.prepare(graph, false)?);
        let symmetric = Arc::new(rt.prepare(graph, true)?);
        let transpose = Arc::new(rt.prepare(&graph.transpose(), false)?);
        let capacities: Vec<u64> = rt.platform.gpus.iter().map(|g| g.memory_bytes).collect();
        let faults = &rt.config.faults;
        let straggler = faults.straggler.map(|s| (s.device, s.factor));
        let crash_device = faults.crash.map(|c| c.device);
        let gov = Governor::new(capacities, straggler);
        let inner = Arc::new(Inner {
            rt,
            directed,
            symmetric,
            transpose,
            queue_capacity: serve.queue_capacity,
            gov,
            crash_device,
            sched: Mutex::new(Sched {
                queue: BinaryHeap::new(),
                in_flight: 0,
                paused: false,
                shutdown: false,
                next_seq: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            cache: Mutex::new(ResultCache::new(serve.cache_capacity)),
            epoch: AtomicU64::new(0),
            c: Counters::default(),
        });
        let workers = (0..serve.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dirgl-serve-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("failed to spawn serve worker")
            })
            .collect();
        Ok(JobServer { inner, workers })
    }

    /// Submits one job. Admission control happens here: the source set is
    /// canonicalized (sorted, deduplicated); an empty source set, an
    /// out-of-range source (the error names the offending id) or a full
    /// queue is refused with the reason; a cached result completes
    /// immediately without queueing. Accepted jobs return a [`JobHandle`]
    /// to wait on.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, SubmitError> {
        let inner = &self.inner;
        inner.c.submitted.fetch_add(1, Ordering::Relaxed);

        let mut spec = req.spec;
        spec.canonicalize();

        if let Err(e) = inner.validate(&spec) {
            inner.c.rejected_invalid.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }

        let epoch = inner.epoch.load(Ordering::SeqCst);

        // Cache fast path: a repeated query never occupies a queue slot.
        let hit = inner.cache.lock().unwrap().get(&(epoch, spec.clone()));
        if let Some(outcome) = hit {
            inner.c.cache_hits.fetch_add(1, Ordering::Relaxed);
            inner.c.accepted.fetch_add(1, Ordering::Relaxed);
            return Ok(JobHandle {
                cell: JobCell::completed(Ok(JobResult {
                    outcome,
                    from_cache: true,
                    epoch,
                    resilience: JobResilience::default(),
                })),
            });
        }

        let deadline = req.deadline.map(|d| Instant::now() + d);
        let mut s = inner.sched.lock().unwrap();
        if s.queue.len() >= inner.queue_capacity {
            inner.c.rejected_saturated.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Saturated {
                queued: s.queue.len(),
                capacity: inner.queue_capacity,
            });
        }
        let cell = JobCell::new();
        let seq = s.next_seq;
        s.next_seq += 1;
        s.queue.push(Queued {
            priority: req.priority,
            seq,
            deadline,
            spec,
            epoch,
            cell: Arc::clone(&cell),
        });
        drop(s);
        inner.c.accepted.fetch_add(1, Ordering::Relaxed);
        inner.work.notify_one();
        Ok(JobHandle { cell })
    }

    /// Convenience: submit with default priority and no deadline.
    pub fn submit_spec(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit(JobRequest::new(spec))
    }

    /// Stops dequeueing (in-flight jobs finish; submissions still queue).
    pub fn pause(&self) {
        self.inner.sched.lock().unwrap().paused = true;
        self.inner.work.notify_all();
    }

    /// Resumes dequeueing after [`JobServer::pause`].
    pub fn resume(&self) {
        self.inner.sched.lock().unwrap().paused = false;
        self.inner.work.notify_all();
    }

    /// Blocks until the queue is empty and nothing is in flight. Panics if
    /// called while paused with work queued (it could never return).
    pub fn drain(&self) {
        let mut s = self.inner.sched.lock().unwrap();
        assert!(
            !s.paused || (s.queue.is_empty() && s.in_flight == 0),
            "drain() on a paused server with queued work would block forever"
        );
        while !(s.queue.is_empty() && s.in_flight == 0) {
            s = self.inner.idle.wait(s).unwrap();
        }
    }

    /// Advances the graph epoch (a mutation hook for the streaming path):
    /// all cached results of earlier epochs become unreachable and are
    /// purged; queued jobs keep the epoch they were submitted under.
    pub fn bump_epoch(&self) -> u64 {
        let new = self.inner.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let purged = self.inner.cache.lock().unwrap().purge_before(new);
        self.inner
            .c
            .invalidated
            .fetch_add(purged as u64, Ordering::Relaxed);
        new
    }

    /// The current graph epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// The resident directed view (source of truth for vertex count and
    /// the bfs/sssp source convention).
    pub fn directed_view(&self) -> &Arc<PreparedPartition> {
        &self.inner.directed
    }

    /// The paper's default traversal source (highest out-degree vertex of
    /// the directed view); `None` on an empty graph.
    pub fn default_source(&self) -> Option<u32> {
        self.inner.directed.max_out_degree_source()
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> ServerStats {
        let inner = &self.inner;
        let (queued, in_flight) = {
            let s = inner.sched.lock().unwrap();
            (s.queue.len(), s.in_flight)
        };
        let (cache_entries, cache_evictions) = {
            let c = inner.cache.lock().unwrap();
            (c.len(), c.evictions())
        };
        let c = &inner.c;
        ServerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_saturated: c.rejected_saturated.load(Ordering::Relaxed),
            rejected_invalid: c.rejected_invalid.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            invalidated: c.invalidated.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            retries: 0,
            degraded: c.degraded.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            rejected_gov: c.rejected_gov.load(Ordering::Relaxed),
            shut_down: c.shut_down.load(Ordering::Relaxed),
            cache_entries,
            cache_evictions,
            queued,
            in_flight,
            epoch: inner.epoch.load(Ordering::SeqCst),
        }
    }

    /// Predicts `spec`'s per-device footprint in bytes at lane width
    /// `width` — the exact bytes the engine's load check will charge
    /// (the admission governor's oracle; see
    /// [`dirgl_core::Runtime::footprint`]). `width` is clamped to the
    /// width the spec asks for at submission: `min(K, 64)` for bfs, 1 for
    /// every other kind, which runs one scalar launch per source. The
    /// spec is canonicalized and validated first, mirroring submission,
    /// and refused for the same reasons.
    pub fn predict_footprint(&self, spec: &JobSpec, width: usize) -> Result<Vec<u64>, SubmitError> {
        let mut spec = spec.clone();
        spec.canonicalize();
        self.inner.validate(&spec)?;
        let width = width.clamp(1, requested_width(&spec));
        Ok(self.inner.predict(&spec, width))
    }

    /// Operator snapshot: per-device health and residual memory as the
    /// admission governor currently sees them, queue occupancy, and the
    /// full counter set.
    pub fn status(&self) -> ServerStatus {
        let stats = self.stats();
        ServerStatus {
            devices: self.inner.gov.device_status(),
            queued: stats.queued,
            in_flight: stats.in_flight,
            stats,
        }
    }

    /// Shuts the server down: fails queued jobs with
    /// [`JobError::ShutDown`], lets in-flight jobs finish, joins the
    /// executors. It takes the server, so no submission can follow.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut s = self.inner.sched.lock().unwrap();
            s.shutdown = true;
            // A paused server must still wake workers so they observe
            // shutdown and drain the queue.
            s.paused = false;
        }
        self.inner.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(priority: Priority, seq: u64) -> Queued {
        Queued {
            priority,
            seq,
            deadline: None,
            spec: JobSpec::Pagerank,
            epoch: 0,
            cell: JobCell::new(),
        }
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut h = BinaryHeap::new();
        h.push(q(Priority::Normal, 0));
        h.push(q(Priority::Low, 1));
        h.push(q(Priority::High, 2));
        h.push(q(Priority::High, 3));
        h.push(q(Priority::Low, 4));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|x| x.seq)).collect();
        assert_eq!(order, vec![2, 3, 0, 1, 4]);
    }
}
