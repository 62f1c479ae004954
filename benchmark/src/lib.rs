//! # The dirgl benchmark
//!
//! One benchmark, judged by every later performance or simplicity claim:
//! five workloads that stress different layers of `dirgl`, five end-to-end
//! metrics on the host clock, and per-layer metrics (host clock, simulated
//! clock and counts) from a separate traced run. It drives only stable
//! public entry points of the `dirgl` facade; see `README.md` beside this
//! crate for the tables and the reasoning.
//!
//! The end-to-end run records no spans and passes no trace sink. The
//! traced run (`--trace 1`) alternates plain and traced operations, so the
//! tracing overhead is measured inside one process on one warm state.

#![warn(missing_docs)]

pub mod alloc;
pub mod catalog;
pub mod cli;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The counting allocator serves the whole process, tests included.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Threads the vendored worker pool is pinned to. With 2, the `nproc` of
/// the host the contract was measured on, the pool runs 2 workers and the
/// submitting thread helps, so 3 threads share 2 cores: the median operation
/// of the pool-heavy workloads then moved by 18 to 30 % from run to run,
/// against 2 to 5 % with 1, where every parallel loop runs inline.
/// `serve_mix` still keeps both cores busy through its 2 server workers.
pub const POOL_THREADS: usize = 1;

/// How one run is shaped. [`Opts::contract`] is what the driver runs; the
/// smoke test shrinks the counts.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Picks the order of traversal sources, `RunConfig.seed` and the
    /// job-stream order.
    pub seed: u64,
    /// Length of the timed region in seconds.
    pub seconds: f64,
    /// Record spans and per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Extra divisor on every dataset (1 = the contract's sizes).
    pub scale: u64,
    /// Fewest timed operations, whatever `seconds` says: the p90 needs ten
    /// samples beyond it.
    pub min_ops: usize,
    /// Fewest warm-up operations.
    pub warmup_ops: usize,
    /// Fewest warm-up seconds.
    pub warmup_secs: f64,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Where the traced run writes its spans, and where the library's spill
    /// files go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// The protocol the contract fixes: at least 100 timed operations, a
    /// warm-up of at least 4 operations and 2 s, 9 set-ups.
    pub fn contract(seed: u64, seconds: f64, trace: bool) -> Opts {
        Opts {
            seed,
            seconds,
            trace,
            scale: 1,
            min_ops: 100,
            warmup_ops: 4,
            warmup_secs: 2.0,
            setups: 9,
            out_dir: PathBuf::from("benchmark/out"),
        }
    }
}

/// Metric values of one run, keyed by catalog name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Stores `value` under `name`. Panics when the catalog does not list
    /// `name`: the contract and the code would have drifted apart.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::metric(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
        self.0.insert(def.name, value);
    }

    /// The value stored under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Keeps exactly the metrics of `defs`, in catalog order; one the
    /// workload did not measure reads 0 (the layer is not exercised).
    pub fn project(
        &self,
        defs: &'static [catalog::MetricDef],
    ) -> Vec<(&'static catalog::MetricDef, f64)> {
        defs.iter()
            .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}

/// Failed checks of one run, by message.
#[derive(Clone, Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Records a failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.0.push(msg.into());
    }

    /// Records `msg` unless `ok`.
    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.0.push(msg());
        }
    }

    /// The messages recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.0
    }
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: &'static str,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that errored, were refused or failed a value check.
    pub failed: u64,
    /// Checks outside single operations (reference values, span tree,
    /// determinism) that failed.
    pub checks: Checks,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Facts about the inputs, printed as `# key value` lines.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// True when no operation and no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.failures().is_empty()
    }

    /// The metrics this run reports under the contract: end-to-end ones
    /// from a plain run, per-layer ones from a traced run.
    pub fn reported(&self, trace: bool) -> Vec<(&'static catalog::MetricDef, f64)> {
        self.metrics.project(if trace {
            catalog::PER_LAYER
        } else {
            catalog::END_TO_END
        })
    }

    /// The result line of the contract: one JSON object.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .reported(trace)
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(*v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` with all its digits, as a JSON number (JSON has no NaN or infinity;
/// a value that is not finite reads 0 and the run is already incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
