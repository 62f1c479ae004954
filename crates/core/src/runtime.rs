//! The runtime: partition → load (with OOM check) → execute → report.
//!
//! All execution goes through one builder-style entry point,
//! [`Runtime::runner`]:
//!
//! ```text
//! rt.runner(&graph, &program)      // partition built from the config
//!     .partition(&part)            // ...or reuse an existing partition
//!     .aux(&aux)                   // optional per-vertex init data
//!     .trace(&mut sink)            // optional per-round trace emission
//!     .execute()                   // -> RunOutput
//! ```
//!
//! ([`Runner::execute_with_states`] additionally gathers the final master
//! *states* per global vertex, for multi-phase drivers like betweenness
//! centrality.) The former six `run*` entry points have been removed;
//! the builder is the only way in.
//!
//! ## Prepared partitions: build once, execute many
//!
//! A one-shot run pays partition construction, [`SyncPlan`] assembly (with
//! its per-link `ExtractIndex` inverse indexes) and out-degree gathering on
//! every call — fine for a figure harness, wasteful for a service answering
//! many queries against one graph. [`PreparedPartition`] hoists all of that
//! into a build-once handle that is immutable afterwards, so it can sit
//! behind an `Arc` and be shared by any number of concurrent jobs:
//!
//! ```text
//! let prep = rt.prepare(&graph, /*symmetrize=*/ false);   // once
//! let out  = rt.job(&prep, &Bfs::new(src)).execute()?;    // per query
//! ```
//!
//! A job gets its own per-device state (including the round scratch), so
//! `(shared PreparedPartition, program, source)` is the unit of concurrent
//! execution; results are byte-identical to the equivalent one-shot
//! `runner(...).execute()` (pinned by `crates/serve` tests).

use std::borrow::Cow;

use dirgl_comm::{NetModel, SimTime, SyncPlan};
use dirgl_gpusim::{OomError, Platform};
use dirgl_graph::csr::{Csr, VertexId};
use dirgl_partition::{LocalGraph, Partition};

use crate::config::RunConfig;
use crate::device::DeviceRun;
use crate::engine::run_engine;
use crate::multi::{at_width_class, AtWidth, BatchedProgram, MultiSourceProgram, LANE_WIDTH};
use crate::program::{InitCtx, VertexProgram};
use crate::report::{ExecutionReport, RoundSummary};
use crate::trace::{ForkSink, NoopSink, TraceSink};

/// A run failure.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// A device could not hold its partition — the paper's missing points.
    Oom {
        /// Device that failed to load.
        device: u32,
        /// Allocation detail.
        err: OomError,
    },
    /// The platform has no devices to execute on.
    NoDevices,
    /// The input graph has no vertices — nothing to partition or run. A
    /// resident server must refuse the job instead of crashing, so this is
    /// an error value, not a panic.
    EmptyGraph,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Oom { device, err } => write!(f, "device {device}: {err}"),
            RunError::NoDevices => write!(f, "platform has no devices"),
            RunError::EmptyGraph => write!(f, "graph has no vertices"),
        }
    }
}

impl std::error::Error for RunError {}

/// A completed run: the report plus per-global-vertex outputs for
/// verification.
pub struct RunOutput {
    /// Timing, volume, balance and memory measurements.
    pub report: ExecutionReport,
    /// Final output of every global vertex (from its master proxy).
    pub values: Vec<f64>,
}

/// A name for a multi-source batch's lane width (see [`Runner::batch`]).
/// The width alone picks each launch's program: a launch of one source
/// runs the scalar program, a launch of two or more the batched form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Width 1: one scalar engine run per source — the baseline every
    /// lane of a wider launch must reproduce byte for byte.
    #[default]
    Scalar,
    /// Width [`LANE_WIDTH`]: one engine run advances up to 64 sources
    /// through the program's batched form, at the narrowest lane-width
    /// class that holds them ([`crate::multi::at_width_class`]).
    Lanes,
}

impl Backend {
    /// CLI/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Lanes => "lanes",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "scalar" => Ok(Backend::Scalar),
            "lanes" => Ok(Backend::Lanes),
            other => Err(format!(
                "unknown backend `{other}` (expected `scalar` or `lanes`)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic digest of one lane's output vector — computed by the
/// same fold in both backends, so lane agreement implies summary
/// agreement bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaneSummary {
    /// Output vector length (|V|).
    pub vertices: u32,
    /// Sum of all outputs in ascending vertex order.
    pub sum: f64,
    /// Smallest output.
    pub min: f64,
    /// Largest output.
    pub max: f64,
}

impl LaneSummary {
    fn of(values: &[f64]) -> LaneSummary {
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        LaneSummary {
            vertices: values.len() as u32,
            sum,
            min,
            max,
        }
    }
}

/// One source's result within a multi-source run.
#[derive(Clone, Debug)]
pub struct LaneOutput {
    /// The source vertex this lane traversed from.
    pub source: VertexId,
    /// Final output of every global vertex, exactly as the equivalent
    /// single-source [`Runner::execute`] would report it.
    pub values: Vec<f64>,
    /// Digest of `values`.
    pub summary: LaneSummary,
}

/// A completed multi-source run: per-source outputs plus the engine
/// reports that produced them (one per launch: per source at width 1,
/// per ≤64-lane chunk under [`Backend::Lanes`]).
#[derive(Clone, Debug)]
pub struct MultiRunOutput {
    /// Engine-level reports in execution order.
    pub engine_reports: Vec<ExecutionReport>,
    /// Per-source outputs, in the order the sources were given.
    pub lanes: Vec<LaneOutput>,
}

/// Executes vertex programs on a simulated multi-GPU platform with a fixed
/// configuration — the D-IrGL equivalent.
pub struct Runtime {
    /// Devices and interconnect.
    pub platform: Platform,
    /// Policy, variant and scaling.
    pub config: RunConfig,
}

/// Argument of [`PreparedPartition::with_layout`], kept so that code written
/// against the deleted kernel-layout subsystem still compiles (the frozen
/// `benchmark/` probe names it through the prelude). Both variants mean the
/// same thing: local vertices stay in the partitioner's order, masters then
/// mirrors, each ascending by global id. A per-device renaming was tried
/// and measured slower (EXPERIMENTS.md, "Layout trial").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LayoutChoice {
    /// The partitioner's order.
    #[default]
    Insertion,
    /// Formerly a per-device skew heuristic; now also the partitioner's
    /// order.
    Auto,
}

/// Everything about a partitioned graph that is independent of the program
/// being run: the resolved graph view, its partition, the sync plan (with
/// the per-link `ExtractIndex` inverse indexes), and the per-vertex
/// out-degrees the programs' init contexts need.
///
/// Build once with [`PreparedPartition::build`] (or [`Runtime::prepare`]),
/// then execute any number of jobs against it via [`Runtime::job`]; the
/// handle is never mutated by execution, so `Arc<PreparedPartition>` is
/// safe to share across concurrently running jobs.
#[derive(Clone, Debug)]
pub struct PreparedPartition {
    graph: Csr,
    part: Partition,
    plan: SyncPlan,
    out_degrees: Vec<u32>,
}

impl PreparedPartition {
    /// Partitions `graph` under `policy` across `devices` devices (seeded
    /// like [`Partition::build`]) and precomputes the sync plan and
    /// out-degrees. Fails on degenerate inputs a panic would otherwise hide
    /// until deep inside a run.
    pub fn build(
        graph: Csr,
        policy: dirgl_partition::Policy,
        devices: u32,
        seed: u64,
    ) -> Result<PreparedPartition, RunError> {
        if devices == 0 {
            return Err(RunError::NoDevices);
        }
        if graph.num_vertices() == 0 {
            return Err(RunError::EmptyGraph);
        }
        let part = Partition::build(&graph, policy, devices, seed);
        Ok(Self::from_partition(graph, part))
    }

    /// Wraps an existing partition of `graph` (the caller vouches they
    /// match, as the `Runner::partition` contract already requires).
    pub fn from_partition(graph: Csr, part: Partition) -> PreparedPartition {
        let plan = SyncPlan::build(&part, true, true);
        let out_degrees = compute_out_degrees(&graph);
        PreparedPartition {
            graph,
            part,
            plan,
            out_degrees,
        }
    }

    /// Returns the handle unchanged. Compile-compatibility shim: callers
    /// written against the deleted per-device layouts (the frozen
    /// `benchmark/` probe) keep building, and every choice now means the
    /// partitioner's order (see [`LayoutChoice`]).
    pub fn with_layout(self, _choice: LayoutChoice) -> PreparedPartition {
        self
    }

    /// The resolved graph view jobs run on.
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The resident partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The resident sync plan (with its extract indexes).
    pub fn plan(&self) -> &SyncPlan {
        &self.plan
    }

    /// Number of global vertices in this view.
    pub fn num_vertices(&self) -> u32 {
        self.graph.num_vertices()
    }

    /// The paper's bfs/sssp source convention (highest out-degree vertex),
    /// without rescanning the graph; `None` on an empty view.
    pub fn max_out_degree_source(&self) -> Option<u32> {
        self.out_degrees
            .iter()
            .enumerate()
            .max_by(|(ia, da), (ib, db)| da.cmp(db).then(ib.cmp(ia)))
            .map(|(v, _)| v as u32)
    }
}

/// How a [`Runner`] receives its partition: borrowed (harnesses reusing a
/// cached partition across variants; the run builds only the sync plan
/// and the out-degrees, and copies neither graph nor partition) or
/// prepared (a resident [`PreparedPartition`] whose plan and degrees are
/// reused as well — the handle's graph view overrides the runner's graph
/// argument). A run only ever reads the partition, whichever way it came.
pub enum PartitionArg<'a> {
    /// Reuse a caller-held partition.
    Borrowed(&'a Partition),
    /// Run against a resident prepared handle (see [`Runtime::job`]).
    Prepared(&'a PreparedPartition),
}

impl<'a> From<&'a Partition> for PartitionArg<'a> {
    fn from(p: &'a Partition) -> PartitionArg<'a> {
        PartitionArg::Borrowed(p)
    }
}

impl<'a> From<&'a PreparedPartition> for PartitionArg<'a> {
    fn from(p: &'a PreparedPartition) -> PartitionArg<'a> {
        PartitionArg::Prepared(p)
    }
}

/// One configured execution, built by [`Runtime::runner`].
///
/// Defaults: partition freshly built per the runtime's policy (after
/// symmetrizing the input when the program needs the undirected view), no
/// auxiliary init data, no tracing.
pub struct Runner<'a, P: VertexProgram> {
    rt: &'a Runtime,
    graph: &'a Csr,
    program: &'a P,
    part: Option<PartitionArg<'a>>,
    aux: Option<&'a [u64]>,
    sink: Option<&'a mut dyn TraceSink>,
    lane_width: usize,
}

impl<'a, P: VertexProgram> Runner<'a, P> {
    /// Runs on an existing partition instead of building one: a borrowed
    /// [`Partition`] or a [`PreparedPartition`]. The graph is used as
    /// given (no symmetrization): a caller-supplied partition is taken to
    /// already match the intended graph view, as the former
    /// `run_partitioned` contract did. Passing a [`PreparedPartition`]
    /// additionally substitutes the handle's own graph view.
    pub fn partition(mut self, part: impl Into<PartitionArg<'a>>) -> Self {
        self.part = Some(part.into());
        self
    }

    /// Supplies per-vertex auxiliary data to the program's initialization
    /// (e.g. betweenness centrality's forward-pass counts).
    pub fn aux(mut self, aux: &'a [u64]) -> Self {
        self.aux = Some(aux);
        self
    }

    /// Emits one [`crate::trace::RoundRecord`] per (round, device) into
    /// `sink`; an enabled sink also populates
    /// [`ExecutionReport::rounds_detail`].
    pub fn trace(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Sets the lane width [`Runner::batch`] starts from to the one
    /// `backend` names (default [`Backend::Scalar`], width 1).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.lane_width = match backend {
            Backend::Scalar => 1,
            Backend::Lanes => LANE_WIDTH,
        };
        self
    }

    /// Turns this run into a multi-source batch over `sources` (in the
    /// given order; the serve layer canonicalizes, the core does not).
    /// Tracing does not carry over — a batched engine run has no single
    /// per-source round stream to emit.
    pub fn batch(self, sources: &[VertexId]) -> MultiRunner<'a, P>
    where
        P: MultiSourceProgram,
    {
        MultiRunner {
            rt: self.rt,
            graph: self.graph,
            program: self.program,
            part: self.part,
            aux: self.aux,
            sources: sources.to_vec(),
            lane_width: self.lane_width,
        }
    }

    /// Executes to convergence. Reported time excludes partitioning and
    /// loading, matching §IV-A.
    pub fn execute(self) -> Result<RunOutput, RunError> {
        self.execute_with_states().map(|(out, _)| out)
    }

    /// [`Runner::execute`], additionally gathering the final master state
    /// of every global vertex — the building block of multi-phase drivers
    /// (betweenness centrality).
    pub fn execute_with_states(self) -> Result<(RunOutput, Vec<P::State>), RunError> {
        let Runner {
            rt,
            graph,
            program,
            part,
            aux,
            sink,
            lane_width: _,
        } = self;
        let view = resolve(rt, graph, program, part)?;
        execute_job(rt, &view, program, aux, sink)
    }
}

/// A configured multi-source batch, built by [`Runner::batch`].
///
/// The partition, sync plan and out-degrees are resolved **once** and
/// shared by every launch the batch performs — one per `lane_width`
/// chunk of the sources — so every width traverses the identical
/// partitioned view and its per-lane values can be compared bit for bit.
/// The width alone picks a launch's program: a chunk of one source runs
/// [`MultiSourceProgram::for_source`], a longer chunk
/// [`MultiSourceProgram::batched`] at the chunk's width class
/// ([`at_width_class`]).
pub struct MultiRunner<'a, P: VertexProgram> {
    rt: &'a Runtime,
    graph: &'a Csr,
    program: &'a P,
    part: Option<PartitionArg<'a>>,
    aux: Option<&'a [u64]>,
    sources: Vec<VertexId>,
    lane_width: usize,
}

impl<'a, P> MultiRunner<'a, P>
where
    P: MultiSourceProgram,
{
    /// Caps the lanes per engine launch (clamped to `1..=`[`LANE_WIDTH`];
    /// the default is the width [`Runner::backend`] named). Narrower
    /// launches trade scan amortization for a smaller per-device working
    /// set — the serve layer's admission ladder splits a K=64 batch into
    /// 2×32 / 4×16 / … launches until the footprint fits. Per-lane values
    /// are unaffected: every chunking of the same source list produces
    /// bit-identical lane outputs.
    pub fn lane_width(mut self, width: usize) -> Self {
        self.lane_width = width.clamp(1, LANE_WIDTH);
        self
    }

    /// The per-device footprint of the batch's first launch — the widest,
    /// since a full chunk dominates its narrower tail — costed by the
    /// engine's own load check ([`Runtime::footprint`]) for the very
    /// program [`MultiRunner::execute`] launches first. Panics on an
    /// empty source list, as `execute` does.
    pub fn footprint(self) -> Result<Vec<u64>, RunError> {
        let first = self.first_chunk().to_vec();
        let (rt, program) = (self.rt, self.program);
        let view = resolve(rt, self.graph, program, self.part)?;
        let (locals, plan) = (&view.part.locals[..], &*view.plan);
        Ok(match first[..] {
            [s] => rt.footprint_of(locals, plan, &program.for_source(s)),
            _ => at_width_class(
                first.len(),
                BatchFootprint(BatchLaunch {
                    rt,
                    view: &view,
                    program,
                    aux: self.aux,
                    sources: &first,
                }),
            ),
        })
    }

    /// Executes every source to convergence, one launch per `lane_width`
    /// chunk. Panics on an empty source list (the serve layer refuses
    /// those at admission; a direct caller passing none is a bug, not a
    /// runtime condition).
    pub fn execute(self) -> Result<MultiRunOutput, RunError> {
        // Refuse an empty batch before resolving anything.
        self.first_chunk();
        let MultiRunner {
            rt,
            graph,
            program,
            part,
            aux,
            sources,
            lane_width,
        } = self;
        // Resolve the partitioned view once, for every launch in the batch.
        let view = resolve(rt, graph, program, part)?;

        let mut engine_reports = Vec::new();
        let mut lanes: Vec<LaneOutput> = Vec::with_capacity(sources.len());
        for chunk in sources.chunks(lane_width) {
            let (report, values) = match *chunk {
                [s] => {
                    let (out, _) = execute_job(rt, &view, &program.for_source(s), aux, None)?;
                    (out.report, vec![out.values])
                }
                _ => at_width_class(
                    chunk.len(),
                    BatchLaunch {
                        rt,
                        view: &view,
                        program,
                        aux,
                        sources: chunk,
                    },
                )?,
            };
            engine_reports.push(report);
            for (&source, values) in chunk.iter().zip(values) {
                lanes.push(LaneOutput {
                    source,
                    summary: LaneSummary::of(&values),
                    values,
                });
            }
        }
        Ok(MultiRunOutput {
            engine_reports,
            lanes,
        })
    }

    /// The sources of the first launch; panics on an empty source list.
    fn first_chunk(&self) -> &[VertexId] {
        self.sources
            .chunks(self.lane_width)
            .next()
            .expect("multi-source batch needs at least one source")
    }
}

/// One batched launch of [`MultiRunner::execute`]: its report and one
/// value vector per lane.
struct BatchLaunch<'r, 'a, P> {
    rt: &'r Runtime,
    view: &'r View<'a>,
    program: &'r P,
    aux: Option<&'r [u64]>,
    sources: &'r [VertexId],
}

impl<P: MultiSourceProgram> AtWidth for BatchLaunch<'_, '_, P> {
    type Output = Result<(ExecutionReport, Vec<Vec<f64>>), RunError>;

    fn at<const N: usize>(self) -> Self::Output {
        let batched = self.program.batched::<N>(self.sources);
        let (out, states) = execute_job(self.rt, self.view, &batched, self.aux, None)?;
        let lane = |l| states.iter().map(|st| batched.lane_output(l, st)).collect();
        Ok((out.report, (0..self.sources.len()).map(lane).collect()))
    }
}

/// The footprint of a [`BatchLaunch`] ([`MultiRunner::footprint`]).
struct BatchFootprint<'r, 'a, P>(BatchLaunch<'r, 'a, P>);

impl<P: MultiSourceProgram> AtWidth for BatchFootprint<'_, '_, P> {
    type Output = Vec<u64>;

    fn at<const N: usize>(self) -> Vec<u64> {
        let BatchLaunch {
            rt,
            view,
            program,
            sources,
            ..
        } = self.0;
        let locals = &view.part.locals[..];
        rt.footprint_of(locals, &view.plan, &program.batched::<N>(sources))
    }
}

/// Per-vertex out-degrees of `g`, as the programs' init contexts expect.
fn compute_out_degrees(g: &Csr) -> Vec<u32> {
    (0..g.num_vertices()).map(|v| g.out_degree(v)).collect()
}

/// The partitioned view one run (or one batch of runs) executes on.
struct View<'a> {
    graph: Cow<'a, Csr>,
    part: Cow<'a, Partition>,
    plan: Cow<'a, SyncPlan>,
    out_degrees: Cow<'a, [u32]>,
}

/// Resolves a runner's partition argument — the one way both
/// [`Runner`] and [`MultiRunner`] reach their view. A prepared handle
/// lends everything; a borrowed partition lends graph and partition and
/// builds the plan and degrees; no argument builds the partition too,
/// after symmetrizing `graph` when `program` needs the undirected view.
fn resolve<'a, P: VertexProgram>(
    rt: &Runtime,
    graph: &'a Csr,
    program: &P,
    part: Option<PartitionArg<'a>>,
) -> Result<View<'a>, RunError> {
    if rt.platform.num_devices() == 0 {
        return Err(RunError::NoDevices);
    }
    let (graph, part) = match part {
        Some(PartitionArg::Prepared(prep)) => {
            return Ok(View {
                graph: Cow::Borrowed(&prep.graph),
                part: Cow::Borrowed(&prep.part),
                plan: Cow::Borrowed(&prep.plan),
                out_degrees: Cow::Borrowed(&prep.out_degrees),
            });
        }
        _ if graph.num_vertices() == 0 => return Err(RunError::EmptyGraph),
        Some(PartitionArg::Borrowed(p)) => (Cow::Borrowed(graph), Cow::Borrowed(p)),
        None => {
            let g = if program.needs_symmetric() {
                Cow::Owned(graph.symmetrize())
            } else {
                Cow::Borrowed(graph)
            };
            let p = Partition::build(
                &g,
                rt.config.policy,
                rt.platform.num_devices(),
                rt.config.seed,
            );
            (g, Cow::Owned(p))
        }
    };
    Ok(View {
        plan: Cow::Owned(SyncPlan::build(&part, true, true)),
        out_degrees: Cow::Owned(compute_out_degrees(&graph)),
        graph,
        part,
    })
}

/// The per-job execution path: OOM admission, device-state initialization
/// (each job gets its own `DeviceRun`s — and thus its own round scratch —
/// over the partition's one set of local graphs), engine dispatch, and
/// master gather. Everything passed in is shared immutable state a
/// resident service keeps loaded; nothing here mutates or copies it.
fn execute_job<P: VertexProgram>(
    rt: &Runtime,
    view: &View<'_>,
    program: &P,
    aux: Option<&[u64]>,
    sink: Option<&mut dyn TraceSink>,
) -> Result<(RunOutput, Vec<P::State>), RunError> {
    let config = &rt.config;
    let (g, part, plan) = (&*view.graph, &*view.part, &*view.plan);
    let locals = &part.locals[..];

    // --- Load check: every device must hold its partition.
    let footprint = rt.footprint_of(locals, plan, program);
    for (lg, &requested) in locals.iter().zip(&footprint) {
        let capacity = rt.platform.gpus[lg.device as usize].memory_bytes;
        if requested > capacity {
            return Err(RunError::Oom {
                device: lg.device,
                err: OomError {
                    requested,
                    in_use: 0,
                    capacity,
                },
            });
        }
    }

    // --- Initialize device state.
    let ctx = InitCtx {
        num_vertices: g.num_vertices(),
        out_degrees: &view.out_degrees,
        aux,
    };
    let mut devices: Vec<DeviceRun<'_, P>> = locals
        .iter()
        .zip(&footprint)
        .map(|(lg, &bytes)| {
            let spec = rt.platform.gpus[lg.device as usize];
            let mut d = DeviceRun::new(lg, spec, program, &ctx);
            d.peak_memory = bytes;
            d
        })
        .collect();

    // --- Execute.
    let mut net = NetModel::new(rt.platform.clone());
    net.direct_device = config.gpudirect;
    // Programs that cannot run asynchronously fall back to BSP, as
    // D-IrGL does for benchmarks that "can[not] be run asynchronously"
    // (SIII-B).
    let model = if program.supports_async() {
        config.variant.model
    } else {
        crate::config::ExecModel::Sync
    };
    // Enabled sinks are forked so the same records both reach the
    // caller and feed the report's round summaries; the disabled
    // (no-op) path keeps zero per-round assembly cost.
    let mut noop = NoopSink;
    let sink: &mut dyn TraceSink = match sink {
        Some(s) => s,
        None => &mut noop,
    };
    let (outcome, rounds_detail) = if sink.enabled() {
        let mut fork = ForkSink {
            outer: sink,
            collected: Default::default(),
        };
        let o = run_engine(
            model,
            program,
            &mut devices,
            part,
            plan,
            &net,
            config,
            &mut fork,
        );
        (o, RoundSummary::from_records(&fork.collected.records))
    } else {
        (
            run_engine(model, program, &mut devices, part, plan, &net, config, sink),
            Vec::new(),
        )
    };

    // --- Gather outputs and states from masters.
    let mut values = vec![0.0f64; g.num_vertices() as usize];
    let mut states: Vec<P::State> = Vec::with_capacity(g.num_vertices() as usize);
    // Seed with any master's copy; overwritten per global vertex below.
    let template = devices
        .iter()
        .find_map(|d| d.state.first().copied())
        .unwrap_or_else(|| program.init_state(0, &ctx));
    states.resize(g.num_vertices() as usize, template);
    for d in &devices {
        for lv in 0..d.lg.num_masters {
            let gv = d.lg.l2g[lv as usize] as usize;
            values[gv] = program.output(&d.state[lv as usize]);
            states[gv] = d.state[lv as usize];
        }
    }

    let report = ExecutionReport {
        total_time: outcome
            .clocks
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO),
        compute_per_device: devices.iter().map(|d| d.compute_time).collect(),
        wait_per_host: outcome.host_wait,
        comm_bytes: outcome.comm_bytes,
        messages: outcome.messages,
        rounds: outcome.rounds,
        min_rounds: outcome.min_rounds,
        max_rounds: outcome.max_rounds,
        work_items: devices.iter().map(|d| d.work_items).sum(),
        memory_per_device: devices.iter().map(|d| d.peak_memory).collect(),
        rounds_detail,
        resilience: outcome.resilience,
    };
    Ok((RunOutput { report, values }, states))
}

impl Runtime {
    /// Creates a runtime.
    pub fn new(platform: Platform, config: RunConfig) -> Runtime {
        Runtime { platform, config }
    }

    /// Starts building a run of `program` on `graph`; see [`Runner`].
    pub fn runner<'a, P: VertexProgram>(&'a self, graph: &'a Csr, program: &'a P) -> Runner<'a, P> {
        Runner {
            rt: self,
            graph,
            program,
            part: None,
            aux: None,
            sink: None,
            lane_width: 1,
        }
    }

    /// Builds a resident [`PreparedPartition`] of `graph` under this
    /// runtime's policy, device count and seed — exactly the partition a
    /// bare `runner(...).execute()` would build, so jobs against the
    /// handle reproduce one-shot results byte for byte. Pass
    /// `symmetrize = true` for programs that run on the undirected view
    /// (cc, kcore).
    pub fn prepare(&self, graph: &Csr, symmetrize: bool) -> Result<PreparedPartition, RunError> {
        let g = if symmetrize {
            graph.symmetrize()
        } else {
            graph.clone()
        };
        PreparedPartition::build(
            g,
            self.config.policy,
            self.platform.num_devices(),
            self.config.seed,
        )
    }

    /// Predicts the per-device memory footprint of running `program`
    /// against `prep`. This is the computation the load check of every
    /// run performs (`Runtime::footprint_of`), so `footprint(...)[d]`
    /// equals what a run records in
    /// [`ExecutionReport::memory_per_device`] for device `d`, and the run
    /// OOMs iff some `footprint(...)[d]` exceeds that device's capacity
    /// (a [`RunError::Oom`] naming the first such device). The admission
    /// governor predicts with it: prediction and engine admission cannot
    /// disagree because they are one computation.
    pub fn footprint<P: VertexProgram>(&self, prep: &PreparedPartition, program: &P) -> Vec<u64> {
        self.footprint_of(&prep.part.locals, &prep.plan, program)
    }

    /// The bytes every device of `locals` is charged for `program`
    /// (including the K-scaled `state_bytes` of batched programs).
    fn footprint_of<P: VertexProgram>(
        &self,
        locals: &[LocalGraph],
        plan: &SyncPlan,
        program: &P,
    ) -> Vec<u64> {
        let divisor = self.config.scale_divisor;
        locals
            .iter()
            .map(|lg| DeviceRun::required_bytes(lg, plan, program, divisor))
            .collect()
    }

    /// Starts building one job of `program` against a resident prepared
    /// handle: the service-shaped execution unit `(shared partition,
    /// program, source)`. Sugar for
    /// `runner(prep.graph(), program).partition(prep)`.
    pub fn job<'a, P: VertexProgram>(
        &'a self,
        prep: &'a PreparedPartition,
        program: &'a P,
    ) -> Runner<'a, P> {
        Runner {
            rt: self,
            graph: &prep.graph,
            program,
            part: Some(PartitionArg::Prepared(prep)),
            aux: None,
            sink: None,
            lane_width: 1,
        }
    }

    /// The benchmark source convention (bfs, sssp traverse from the vertex
    /// with the highest out-degree). `None` when the graph has no vertices
    /// — callers must treat a degenerate input as an error, not a panic.
    pub fn max_out_degree_source(g: &Csr) -> Option<u32> {
        (g.num_vertices() > 0).then(|| g.max_out_degree_vertex())
    }
}
