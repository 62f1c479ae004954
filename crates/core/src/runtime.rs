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

use dirgl_comm::{NetModel, SimTime, SyncPlan};
use dirgl_gpusim::{GraphRepr, OomError, Platform, ReprCost};
use dirgl_graph::csr::{Csr, VertexId};
use dirgl_partition::{LocalGraph, Partition};

use crate::config::RunConfig;
use crate::device::DeviceRun;
use crate::engine::run_engine;
use crate::multi::{BatchedProgram, MultiSourceProgram, LANE_WIDTH};
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

/// One device's memory cost for one job (see [`Runtime::footprint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceFootprint {
    /// Bytes under each adjacency representation. The compressed candidate
    /// is costed only under [`RunConfig::spill`]; without it, it repeats
    /// the raw one.
    pub cost: ReprCost,
    /// The representation the load check picks, `None` when the device
    /// cannot hold the partition (the run OOMs).
    pub repr: Option<GraphRepr>,
}

impl DeviceFootprint {
    /// Bytes the device is charged — or, when nothing fits, the smallest
    /// footprint that was refused.
    pub fn bytes(&self) -> u64 {
        match self.repr {
            Some(repr) => self.cost.bytes(repr),
            None => self.cost.raw.min(self.cost.compressed),
        }
    }
}

/// A completed run: the report plus per-global-vertex outputs for
/// verification.
pub struct RunOutput {
    /// Timing, volume, balance and memory measurements.
    pub report: ExecutionReport,
    /// Final output of every global vertex (from its master proxy).
    pub values: Vec<f64>,
}

/// How a multi-source batch executes (see [`Runner::batch`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// One scalar engine run per source — the baseline every lane of the
    /// batched backend must reproduce byte for byte.
    #[default]
    Scalar,
    /// K-lane bit-matrix batching: one engine run advances up to
    /// [`LANE_WIDTH`] sources through [`crate::multi::Lanes`].
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
/// reports that produced them (one per source under
/// [`Backend::Scalar`], one per ≤64-lane chunk under
/// [`Backend::Lanes`]).
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
        let out_degrees = (0..graph.num_vertices())
            .map(|v| graph.out_degree(v))
            .collect();
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
/// cached partition across variants), owned (built for this run), or
/// prepared (a resident [`PreparedPartition`] whose plan and degrees are
/// reused as well — the handle's graph view overrides the runner's graph
/// argument). A run only ever reads the partition, whichever way it came.
pub enum PartitionArg<'a> {
    /// Reuse a caller-held partition.
    Borrowed(&'a Partition),
    /// Consume a partition built for this run.
    Owned(Partition),
    /// Run against a resident prepared handle (see [`Runtime::job`]).
    Prepared(&'a PreparedPartition),
}

impl<'a> From<&'a Partition> for PartitionArg<'a> {
    fn from(p: &'a Partition) -> PartitionArg<'a> {
        PartitionArg::Borrowed(p)
    }
}

impl From<Partition> for PartitionArg<'_> {
    fn from(p: Partition) -> PartitionArg<'static> {
        PartitionArg::Owned(p)
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
    backend: Backend,
}

impl<'a, P: VertexProgram> Runner<'a, P> {
    /// Runs on an existing partition instead of building one. The graph is
    /// used as given (no symmetrization): a caller-supplied partition is
    /// taken to already match the intended graph view, as the former
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

    /// Selects the multi-source execution backend (default
    /// [`Backend::Scalar`]); only consulted by [`Runner::batch`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
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
            backend: self.backend,
            sources: sources.to_vec(),
            lane_width: LANE_WIDTH,
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
            backend: _,
        } = self;
        if rt.platform.num_devices() == 0 {
            return Err(RunError::NoDevices);
        }

        // --- Resolve the graph view, partition, plan and degrees. The
        // prepared path reuses everything; the other paths build what they
        // are missing. Storage for the owned variants lives here so the
        // borrows handed to `execute_job` all have one lifetime.
        let sym;
        let owned_part;
        let built_plan;
        let built_degrees;

        let (g, part_ref, plan, out_degrees): (&Csr, &Partition, &SyncPlan, &[u32]) = match part {
            Some(PartitionArg::Prepared(prep)) => {
                (&prep.graph, &prep.part, &prep.plan, &prep.out_degrees[..])
            }
            Some(PartitionArg::Borrowed(p)) => {
                if graph.num_vertices() == 0 {
                    return Err(RunError::EmptyGraph);
                }
                built_plan = SyncPlan::build(p, true, true);
                built_degrees = compute_out_degrees(graph);
                (graph, p, &built_plan, &built_degrees)
            }
            Some(PartitionArg::Owned(p)) => {
                if graph.num_vertices() == 0 {
                    return Err(RunError::EmptyGraph);
                }
                owned_part = p;
                built_plan = SyncPlan::build(&owned_part, true, true);
                built_degrees = compute_out_degrees(graph);
                (graph, &owned_part, &built_plan, &built_degrees)
            }
            None => {
                if graph.num_vertices() == 0 {
                    return Err(RunError::EmptyGraph);
                }
                let g = if program.needs_symmetric() {
                    sym = graph.symmetrize();
                    &sym
                } else {
                    graph
                };
                owned_part = Partition::build(
                    g,
                    rt.config.policy,
                    rt.platform.num_devices(),
                    rt.config.seed,
                );
                built_plan = SyncPlan::build(&owned_part, true, true);
                built_degrees = compute_out_degrees(g);
                (g, &owned_part, &built_plan, &built_degrees)
            }
        };

        execute_job(rt, g, part_ref, plan, out_degrees, program, aux, sink)
    }
}

/// A configured multi-source batch, built by [`Runner::batch`].
///
/// The partition, sync plan and out-degrees are resolved **once** and
/// shared by every run the batch performs — one engine run per source
/// under [`Backend::Scalar`], one per ≤64-lane chunk under
/// [`Backend::Lanes`] — so both backends traverse the identical
/// partitioned view and their per-lane values can be compared bit for
/// bit.
pub struct MultiRunner<'a, P: VertexProgram> {
    rt: &'a Runtime,
    graph: &'a Csr,
    program: &'a P,
    part: Option<PartitionArg<'a>>,
    aux: Option<&'a [u64]>,
    backend: Backend,
    sources: Vec<VertexId>,
    lane_width: usize,
}

impl<'a, P> MultiRunner<'a, P>
where
    P: MultiSourceProgram,
{
    /// Selects the execution backend (default [`Backend::Scalar`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Caps the lanes per engine launch under [`Backend::Lanes`]
    /// (clamped to `1..=`[`LANE_WIDTH`], default [`LANE_WIDTH`]).
    /// Narrower launches trade scan amortization for a smaller per-device
    /// working set — the serve layer's degradation ladder splits a K=64
    /// batch into 2×32 / 4×16 / … launches until the footprint fits.
    /// Per-lane values are unaffected: every chunking of the same source
    /// list produces bit-identical lane outputs.
    pub fn lane_width(mut self, width: usize) -> Self {
        self.lane_width = width.clamp(1, LANE_WIDTH);
        self
    }

    /// Executes every source to convergence. Panics on an empty source
    /// list (the serve layer refuses those at admission; a direct caller
    /// passing none is a bug, not a runtime condition).
    pub fn execute(self) -> Result<MultiRunOutput, RunError> {
        assert!(
            !self.sources.is_empty(),
            "multi-source batch needs at least one source"
        );
        let MultiRunner {
            rt,
            graph,
            program,
            part,
            aux,
            backend,
            sources,
            lane_width,
        } = self;
        if rt.platform.num_devices() == 0 {
            return Err(RunError::NoDevices);
        }

        // Resolve the partitioned view once, for every run in the batch.
        // Non-prepared arguments are promoted to a PreparedPartition so
        // the whole batch shares one plan and one degree vector.
        let prep_storage;
        let prep: &PreparedPartition = match part {
            Some(PartitionArg::Prepared(p)) => p,
            Some(PartitionArg::Borrowed(p)) => {
                if graph.num_vertices() == 0 {
                    return Err(RunError::EmptyGraph);
                }
                prep_storage = PreparedPartition::from_partition(graph.clone(), p.clone());
                &prep_storage
            }
            Some(PartitionArg::Owned(p)) => {
                if graph.num_vertices() == 0 {
                    return Err(RunError::EmptyGraph);
                }
                prep_storage = PreparedPartition::from_partition(graph.clone(), p);
                &prep_storage
            }
            None => {
                prep_storage = rt.prepare(graph, program.needs_symmetric())?;
                &prep_storage
            }
        };

        let mut engine_reports = Vec::new();
        let mut lanes: Vec<LaneOutput> = Vec::with_capacity(sources.len());
        match backend {
            Backend::Scalar => {
                for &s in &sources {
                    let prog = program.for_source(s);
                    let (out, _) = execute_job(
                        rt,
                        &prep.graph,
                        &prep.part,
                        &prep.plan,
                        &prep.out_degrees,
                        &prog,
                        aux,
                        None,
                    )?;
                    lanes.push(LaneOutput {
                        source: s,
                        summary: LaneSummary::of(&out.values),
                        values: out.values,
                    });
                    engine_reports.push(out.report);
                }
            }
            Backend::Lanes => {
                for chunk in sources.chunks(lane_width) {
                    let batched = program.batched(chunk);
                    let (out, states) = execute_job(
                        rt,
                        &prep.graph,
                        &prep.part,
                        &prep.plan,
                        &prep.out_degrees,
                        &batched,
                        aux,
                        None,
                    )?;
                    for (l, &s) in chunk.iter().enumerate() {
                        let values: Vec<f64> =
                            states.iter().map(|st| batched.lane_output(l, st)).collect();
                        lanes.push(LaneOutput {
                            source: s,
                            summary: LaneSummary::of(&values),
                            values,
                        });
                    }
                    engine_reports.push(out.report);
                }
            }
        }
        Ok(MultiRunOutput {
            engine_reports,
            lanes,
        })
    }
}

/// Per-vertex out-degrees of `g`, as the programs' init contexts expect.
fn compute_out_degrees(g: &Csr) -> Vec<u32> {
    (0..g.num_vertices()).map(|v| g.out_degree(v)).collect()
}

/// The per-job execution path: OOM admission, device-state initialization
/// (each job gets its own `DeviceRun`s — and thus its own round scratch —
/// over the partition's one set of local graphs), engine dispatch, and
/// master gather. Everything passed in is shared immutable state a
/// resident service keeps loaded; nothing here mutates or copies it.
#[allow(clippy::too_many_arguments)]
fn execute_job<P: VertexProgram>(
    rt: &Runtime,
    g: &Csr,
    part: &Partition,
    plan: &SyncPlan,
    out_degrees: &[u32],
    program: &P,
    aux: Option<&[u64]>,
    sink: Option<&mut dyn TraceSink>,
) -> Result<(RunOutput, Vec<P::State>), RunError> {
    let config = &rt.config;
    let locals = &part.locals[..];

    // --- Load check: every device must hold its partition, raw or (with
    // `config.spill`) compressed.
    let footprint = rt.footprint_of(locals, plan, program);
    if let Some((lg, fp)) = locals
        .iter()
        .zip(&footprint)
        .find(|(_, fp)| fp.repr.is_none())
    {
        return Err(RunError::Oom {
            device: lg.device,
            err: OomError {
                requested: fp.bytes(),
                in_use: 0,
                capacity: rt.platform.gpus[lg.device as usize].memory_bytes,
            },
        });
    }

    // --- Initialize device state.
    let ctx = InitCtx {
        num_vertices: g.num_vertices(),
        out_degrees,
        aux,
    };
    let mut devices: Vec<DeviceRun<'_, P>> = locals
        .iter()
        .zip(&footprint)
        .map(|(lg, fp)| {
            let spec = rt.platform.gpus[lg.device as usize];
            let mut d = DeviceRun::new(lg, spec, program, &ctx);
            d.peak_memory = fp.bytes();
            if fp.repr == Some(GraphRepr::Compressed) {
                d.enable_spill();
            }
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
            backend: Backend::Scalar,
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
    /// run performs (`Runtime::footprint_of`), so `footprint(...)[d]
    /// .bytes()` equals what a run records in
    /// [`ExecutionReport::memory_per_device`] for device `d`, and the run
    /// OOMs iff some `footprint(...)[d].repr` is `None`. The admission
    /// governor predicts with it: prediction and engine admission cannot
    /// disagree because they are one computation.
    pub fn footprint<P: VertexProgram>(
        &self,
        prep: &PreparedPartition,
        program: &P,
    ) -> Vec<DeviceFootprint> {
        self.footprint_of(&prep.part.locals, &prep.plan, program)
    }

    /// Costs every device of `locals` for `program` (including the
    /// K-scaled `state_bytes` of batched programs) and picks its adjacency
    /// representation: raw whenever raw fits the device's capacity, else —
    /// only with [`RunConfig::spill`] — compressed
    /// ([`crate::device::SpillState`]) when that fits. Spill only widens
    /// the feasible region; it never changes an admitted raw run.
    fn footprint_of<P: VertexProgram>(
        &self,
        locals: &[LocalGraph],
        plan: &SyncPlan,
        program: &P,
    ) -> Vec<DeviceFootprint> {
        let divisor = self.config.scale_divisor;
        locals
            .iter()
            .map(|lg| {
                let raw = DeviceRun::required_bytes(lg, plan, program, divisor, false);
                let compressed = if self.config.spill {
                    DeviceRun::required_bytes(lg, plan, program, divisor, true)
                } else {
                    raw
                };
                let cost = ReprCost { raw, compressed };
                let capacity = self.platform.gpus[lg.device as usize].memory_bytes;
                DeviceFootprint {
                    cost,
                    repr: cost.choose(capacity),
                }
            })
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
            backend: Backend::Scalar,
        }
    }

    /// The benchmark source convention (bfs, sssp traverse from the vertex
    /// with the highest out-degree). `None` when the graph has no vertices
    /// — callers must treat a degenerate input as an error, not a panic.
    pub fn max_out_degree_source(g: &Csr) -> Option<u32> {
        (g.num_vertices() > 0).then(|| g.max_out_degree_vertex())
    }
}
