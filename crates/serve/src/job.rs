//! Job vocabulary: what a client asks for, how it is prioritized, and the
//! handle it waits on.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dirgl_core::{ExecutionReport, ResilienceStats, RunError};

use crate::governor::RejectReason;

/// One analytics query against the resident graph. The spec is the
/// cache-key payload: two jobs with equal specs (in the same graph epoch)
/// are the same computation and may be served from the result cache.
///
/// The traversal specs carry a *set* of sources, run under one admission
/// grant: bfs runs them as lanes of one K-lane batched pass (K ≤ 64 per
/// engine launch), sssp and bc as one scalar launch per source. The
/// outcome holds one value vector per source, in source order. Sources
/// are canonicalized (sorted, deduplicated) at admission so
/// `bfs from {3, 7}` and `bfs from {7, 3, 3}` are the same cache entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum JobSpec {
    /// Breadth-first search from one or more sources.
    Bfs {
        /// Root vertices (canonicalized at admission).
        sources: Vec<u32>,
    },
    /// Shortest paths from one or more sources.
    Sssp {
        /// Root vertices (canonicalized at admission).
        sources: Vec<u32>,
    },
    /// Residual pagerank (topology-driven pull; no parameters).
    Pagerank,
    /// Weakly connected components (runs on the symmetrized view).
    Cc,
    /// k-core decomposition (runs on the symmetrized view).
    KCore {
        /// Core threshold.
        k: u32,
    },
    /// Betweenness centrality from one or more sources (two phases per
    /// source: forward on the graph, backward on its resident transpose).
    Bc {
        /// Source vertices (canonicalized at admission).
        sources: Vec<u32>,
    },
}

impl JobSpec {
    /// Single-source bfs spec.
    pub fn bfs(source: u32) -> JobSpec {
        JobSpec::Bfs {
            sources: vec![source],
        }
    }

    /// Single-source sssp spec.
    pub fn sssp(source: u32) -> JobSpec {
        JobSpec::Sssp {
            sources: vec![source],
        }
    }

    /// Single-source bc spec.
    pub fn bc(source: u32) -> JobSpec {
        JobSpec::Bc {
            sources: vec![source],
        }
    }

    /// Benchmark-style name (matches the paper's program names).
    pub fn name(&self) -> &'static str {
        match self {
            JobSpec::Bfs { .. } => "bfs",
            JobSpec::Sssp { .. } => "sssp",
            JobSpec::Pagerank => "pagerank",
            JobSpec::Cc => "cc",
            JobSpec::KCore { .. } => "kcore",
            JobSpec::Bc { .. } => "bc",
        }
    }

    /// The source vertices, for specs that traverse from them.
    pub fn sources(&self) -> Option<&[u32]> {
        match self {
            JobSpec::Bfs { sources } | JobSpec::Sssp { sources } | JobSpec::Bc { sources } => {
                Some(sources)
            }
            JobSpec::Pagerank | JobSpec::Cc | JobSpec::KCore { .. } => None,
        }
    }

    /// Sorts and deduplicates the source set so equal queries hash equal.
    /// Called on every spec at admission.
    pub(crate) fn canonicalize(&mut self) {
        match self {
            JobSpec::Bfs { sources } | JobSpec::Sssp { sources } | JobSpec::Bc { sources } => {
                sources.sort_unstable();
                sources.dedup();
            }
            JobSpec::Pagerank | JobSpec::Cc | JobSpec::KCore { .. } => {}
        }
    }

    /// A spec for the same kind of job with a different source set
    /// (`None` for the parameterless/kcore kinds).
    pub(crate) fn with_sources(&self, sources: Vec<u32>) -> Option<JobSpec> {
        match self {
            JobSpec::Bfs { .. } => Some(JobSpec::Bfs { sources }),
            JobSpec::Sssp { .. } => Some(JobSpec::Sssp { sources }),
            JobSpec::Bc { .. } => Some(JobSpec::Bc { sources }),
            JobSpec::Pagerank | JobSpec::Cc | JobSpec::KCore { .. } => None,
        }
    }

    /// True when the job runs on the symmetrized (undirected) view.
    pub fn needs_symmetric(&self) -> bool {
        matches!(self, JobSpec::Cc | JobSpec::KCore { .. })
    }
}

/// Scheduling priority; higher runs first, FIFO within a level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work (cache warming, speculative queries).
    Low,
    /// The default.
    Normal,
    /// Latency-sensitive interactive queries.
    High,
}

/// A submission: the spec plus its scheduling envelope.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// What to compute.
    pub spec: JobSpec,
    /// Queue ordering class.
    pub priority: Priority,
    /// Give-up budget measured from submission: a job still queued when
    /// its deadline passes completes with [`JobError::DeadlineExpired`]
    /// instead of executing (admission control for stale work).
    pub deadline: Option<Duration>,
}

impl JobRequest {
    /// Normal-priority request with no deadline.
    pub fn new(spec: JobSpec) -> JobRequest {
        JobRequest {
            spec,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the priority (builder style).
    pub fn priority(mut self, p: Priority) -> JobRequest {
        self.priority = p;
        self
    }

    /// Sets the deadline (builder style).
    pub fn deadline(mut self, d: Duration) -> JobRequest {
        self.deadline = Some(d);
        self
    }
}

/// A completed job's output: the [`ExecutionReport`] of every engine
/// phase it launched, in launch order (one per launch for the
/// single-phase programs; bc has forward + backward per source), and one
/// per-global-vertex value vector **per source**, in the spec's canonical
/// source order (parameterless jobs have exactly one entry). Shared behind
/// `Arc` between the requester and the result cache, so a cache hit
/// returns the very same bytes the cold run produced.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Per-phase reports of every launch, in launch order.
    pub reports: Vec<ExecutionReport>,
    /// One final value vector per source (canonical source order);
    /// parameterless jobs have exactly one.
    pub per_source: Vec<Vec<f64>>,
}

impl JobOutcome {
    /// The last launch's last-phase report — for a single-source job, the
    /// one whose total time answers "how long did this query take", for
    /// multi-phase jobs too.
    pub fn report(&self) -> &ExecutionReport {
        self.reports
            .last()
            .expect("job outcome has at least one phase")
    }

    /// The value vector of a single-source or parameterless job (the first
    /// source's values otherwise).
    pub fn values(&self) -> &[f64] {
        self.per_source
            .first()
            .expect("job outcome has at least one value vector")
    }
}

/// What a successful [`crate::JobHandle::wait`] returns.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The (possibly cache-shared) output.
    pub outcome: Arc<JobOutcome>,
    /// True when served from the result cache instead of executed.
    pub from_cache: bool,
    /// Graph epoch the result belongs to.
    pub epoch: u64,
    /// How this job was kept alive: lane-width degradation and the
    /// engine-level fault/recovery counters. All default for cache-served
    /// results.
    pub resilience: JobResilience,
}

/// Per-job resilience record: what the admission governor did to keep
/// this job alive, plus the engine-level recovery counters aggregated
/// across every phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobResilience {
    /// Lane width the job asked for: the width its family batches at,
    /// `min(K, 64)` for bfs and 1 (one scalar launch per source) for
    /// every other kind.
    pub requested_width: usize,
    /// Lane width the admission governor granted and the job ran at.
    pub granted_width: usize,
    /// True when `granted_width < requested_width` (the degradation
    /// ladder narrowed the job to fit memory or health pressure).
    pub degraded: bool,
    /// Engine-level fault and recovery counters (link retries, crashes,
    /// rollbacks, re-homed masters), summed over every phase of every
    /// launch.
    pub engine: ResilienceStats,
}

/// Why a submission was refused at the door (admission control). The job
/// never entered the queue; nothing will complete later.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The waiting queue is at capacity. Back off and retry.
    Saturated {
        /// Jobs currently waiting.
        queued: usize,
        /// Configured queue bound.
        capacity: usize,
    },
    /// The spec names a source vertex outside the resident graph — the
    /// degenerate-job class a resident server must refuse, not die on.
    /// Names the first offending id.
    InvalidSource {
        /// Requested source.
        source: u32,
        /// Vertices in the resident graph.
        num_vertices: u32,
    },
    /// A traversal spec arrived with an empty source set.
    EmptySources,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated { queued, capacity } => {
                write!(
                    f,
                    "server saturated: {queued} jobs queued (capacity {capacity})"
                )
            }
            SubmitError::InvalidSource {
                source,
                num_vertices,
            } => write!(
                f,
                "source vertex {source} out of range (graph has {num_vertices} vertices)"
            ),
            SubmitError::EmptySources => write!(f, "traversal spec has no sources"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *accepted* job did not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The engine refused the run. Carries its full [`RunError`] (device,
    /// predicted vs available bytes for OOM).
    Run {
        /// The engine's failure, structure intact.
        error: RunError,
    },
    /// The admission governor refused to launch the job at any lane width
    /// (memory pressure or dead devices); the engine was never invoked.
    Rejected(RejectReason),
    /// The job's deadline passed while it was queued or while it waited
    /// for the admission governor to reserve its memory.
    DeadlineExpired,
    /// The server shut down before the job ran.
    ShutDown,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Run { error } => write!(f, "run failed: {error}"),
            JobError::Rejected(r) => write!(f, "rejected by admission governor: {r}"),
            JobError::DeadlineExpired => write!(f, "deadline expired before execution"),
            JobError::ShutDown => write!(f, "server shut down before the job ran"),
        }
    }
}

impl std::error::Error for JobError {}

/// The slot a worker fulfills and a client waits on.
pub(crate) struct JobCell {
    slot: Mutex<Option<Result<JobResult, JobError>>>,
    done: Condvar,
}

impl JobCell {
    pub(crate) fn new() -> Arc<JobCell> {
        Arc::new(JobCell {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// A cell born completed (cache fast path at submission).
    pub(crate) fn completed(r: Result<JobResult, JobError>) -> Arc<JobCell> {
        Arc::new(JobCell {
            slot: Mutex::new(Some(r)),
            done: Condvar::new(),
        })
    }

    /// Writes the result exactly once and wakes waiters.
    pub(crate) fn fulfill(&self, r: Result<JobResult, JobError>) {
        let mut s = self.slot.lock().unwrap();
        if s.is_none() {
            *s = Some(r);
            self.done.notify_all();
        }
    }
}

/// The client's ticket for one accepted job.
pub struct JobHandle {
    pub(crate) cell: Arc<JobCell>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobHandle {
    /// Blocks until the job completes (or fails), returning its result.
    /// May be called from any thread and more than once.
    pub fn wait(&self) -> Result<JobResult, JobError> {
        let mut s = self.cell.slot.lock().unwrap();
        while s.is_none() {
            s = self.cell.done.wait(s).unwrap();
        }
        s.as_ref().expect("slot filled").clone()
    }

    /// The result if the job already completed, without blocking.
    pub fn try_result(&self) -> Option<Result<JobResult, JobError>> {
        self.cell.slot.lock().unwrap().clone()
    }

    /// True once a result (or error) is available.
    pub fn is_done(&self) -> bool {
        self.cell.slot.lock().unwrap().is_some()
    }
}
