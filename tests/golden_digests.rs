//! Golden digests: every observable byte of a fixed corpus of runs, pinned
//! as three FNV-1a-64 hashes per case in `tests/golden_digests.txt`.
//!
//! The test compares a live run with a committed number, so a refactor of
//! the round bodies, the sync-message path or the recovery code cannot
//! change what the engines compute without a visible diff of the data
//! file. Per case:
//!
//! * `report` — the `Debug` text of the `ExecutionReport`(s);
//! * `values` — the bit patterns of every gathered vertex value;
//! * `trace`  — the JSONL trace stream, fault events included (batched
//!   runs emit no trace, so theirs is the hash of no bytes).
//!
//! The corpus is {bfs, cc, kcore, pagerank, sssp} × {OEC, IEC, HVC, CVC} ×
//! {Var1, Var3, Var4} on a weighted R-MAT scale-10 graph over 8 devices,
//! plus direction-optimizing bfs, K=3 lane batches, Lux's pagerank, and
//! crash recovery (rejoin and re-home) under both engines; then bfs and
//! sssp on a long-tail web crawl over 32 devices (100+ rounds of mostly
//! idle devices and empty messages), plain and through a mid-run crash
//! with message drops; last, BASP pagerank through a crash that fires
//! inside a step of same-instant rounds.
//!
//! Every determinism contract is a [`Transform`] of how a case launches,
//! and each must reproduce the committed line: a pool of 1, 2 or 4
//! threads, a prepared partition, and a partition streamed from the
//! compressed graph. The tier-1 test runs case `i` under transform
//! `i mod 5`; the ignored `every_case_under_every_transform` runs
//! all of them:
//!
//! ```sh
//! cargo test --release --test golden_digests -- --ignored --exact every_case_under_every_transform
//! ```
//!
//! After an *intended* change of behaviour, regenerate the file (from
//! plain launches) with
//!
//! ```sh
//! cargo test --test golden_digests -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use dirgl::core::{PreparedPartition, Runner, VertexProgram};
use dirgl::graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl::graph::CompressedCsr;
use dirgl::lux::LuxPageRank;
use dirgl::prelude::*;
use dirgl::singlehost::DoBfs;
use dirgl_bench::fnv1a64;
use rayon::{ThreadPool, ThreadPoolBuilder};

const POLICIES: [Policy; 4] = [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc];
const HASHES: [&str; 3] = ["report", "values", "trace"];

/// A way of launching a case that must not change a byte of it.
#[derive(Clone, Copy, Debug)]
enum Transform {
    /// `Runtime::runner` in the process's pool: what `regenerate` records.
    Plain,
    /// The run inside a pool of this many threads.
    Pool(usize),
    /// `Runtime::prepare`, then `Runtime::job` on the handle.
    Prepared,
    /// The same view, partitioned by the streaming builder from its
    /// compressed form.
    Compressed,
}

use Transform::*;

const TRANSFORMS: [Transform; 5] = [Pool(1), Pool(2), Pool(4), Prepared, Compressed];

/// What a transform sets up before its case runs.
struct Launch<'r> {
    rt: &'r Runtime,
    /// The process's own thread count unless the transform names one.
    pool: ThreadPool,
    prep: Option<PreparedPartition>,
}

impl Transform {
    /// Sets up a launch of a program on `g` on `rt`; `symmetric` is the
    /// program's `needs_symmetric`.
    fn launch<'r>(self, rt: &'r Runtime, g: &Csr, symmetric: bool) -> Launch<'r> {
        let mut launch = Launch {
            rt,
            pool: ThreadPoolBuilder::new().build().unwrap(),
            prep: None,
        };
        match self {
            Plain => {}
            Pool(n) => launch.pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap(),
            Prepared => launch.prep = Some(rt.prepare(g, symmetric).unwrap()),
            Compressed => {
                let view = if symmetric { g.symmetrize() } else { g.clone() };
                let part = Partition::build_streamed(
                    &CompressedCsr::from_csr(&view),
                    rt.config.policy,
                    rt.platform.num_devices(),
                    rt.config.seed,
                );
                launch.prep = Some(PreparedPartition::from_partition(view, part));
            }
        }
        launch
    }
}

impl Launch<'_> {
    /// Hands `run` the runner of `program` on `g` (or on the prepared
    /// view), inside the launch's pool.
    fn run<'a, P: VertexProgram, T>(
        &'a self,
        g: &'a Csr,
        program: &'a P,
        run: impl FnOnce(Runner<'a, P>) -> T,
    ) -> T {
        let runner = match &self.prep {
            Some(prep) => self.rt.job(prep, program),
            None => self.rt.runner(g, program),
        };
        self.pool.install(|| run(runner))
    }
}

fn value_hash<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    fnv1a64(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn graph() -> Csr {
    let g = RmatConfig::new(10, 8).seed(0xD5).generate();
    randomize_weights(&g, DEFAULT_MAX_WEIGHT, 0x5EED)
}

/// One traced run under `t`: the report (for the cases' premise checks),
/// the trace text, and the three digests.
fn traced<P: VertexProgram>(
    t: Transform,
    rt: &Runtime,
    g: &Csr,
    program: &P,
) -> (ExecutionReport, String, [u64; 3]) {
    let launch = t.launch(rt, g, program.needs_symmetric());
    let mut buf: Vec<u8> = Vec::new();
    let mut sink = JsonLinesSink::new(&mut buf);
    let out = launch
        .run(g, program, |r| r.trace(&mut sink).execute())
        .unwrap();
    drop(sink);
    let digest = [
        fnv1a64(format!("{:?}", out.report).bytes()),
        value_hash(&out.values),
        fnv1a64(buf.iter().copied()),
    ];
    let trace = String::from_utf8(buf).expect("JSONL is UTF-8");
    (out.report, trace, digest)
}

fn batch<P: MultiSourceProgram>(
    t: Transform,
    rt: &Runtime,
    g: &Csr,
    program: &P,
    sources: &[u32],
) -> [u64; 3] {
    let launch = t.launch(rt, g, program.needs_symmetric());
    let out = launch
        .run(g, program, |r| {
            r.backend(Backend::Lanes).batch(sources).execute()
        })
        .unwrap();
    [
        fnv1a64(format!("{:?}", out.engine_reports).bytes()),
        value_hash(out.lanes.iter().flat_map(|l| &l.values)),
        fnv1a64([]),
    ]
}

/// The transform case `i` runs under in the pass of `rotation`: every case
/// is plain in the pass of `None`.
fn transform(rotation: Option<usize>, i: usize) -> Transform {
    rotation.map_or(Plain, |r| TRANSFORMS[(i + r) % TRANSFORMS.len()])
}

/// Runs the whole corpus, in file order, each case under its transform.
fn corpus(rotation: Option<usize>) -> Vec<(String, [u64; 3])> {
    let g = graph();
    let src = Runtime::max_out_degree_source(&g).unwrap();
    let mut cases: Vec<(String, [u64; 3])> = Vec::new();
    let next = |cases: &Vec<_>| transform(rotation, cases.len());

    for bench in ["bfs", "cc", "kcore", "pagerank", "sssp"] {
        for policy in POLICIES {
            for variant in [Variant::var1(), Variant::var3(), Variant::var4()] {
                let rt = Runtime::new(Platform::bridges(8), RunConfig::new(policy, variant));
                let (_, _, digest) = match bench {
                    "bfs" => traced(next(&cases), &rt, &g, &Bfs::new(src)),
                    "cc" => traced(next(&cases), &rt, &g, &Cc),
                    "kcore" => traced(next(&cases), &rt, &g, &KCore::new(4)),
                    "pagerank" => traced(next(&cases), &rt, &g, &PageRank::new()),
                    _ => traced(next(&cases), &rt, &g, &Sssp::new(src)),
                };
                cases.push((
                    format!("{bench}/{}/{}", policy.name(), variant.label()),
                    digest,
                ));
            }
        }
    }

    // Direction-optimizing bfs: the only hybrid program, so the only one
    // that runs bottom-up rounds. Every policy under UO, and CVC under AS.
    for (policy, variant) in [
        (Policy::Oec, Variant::var3()),
        (Policy::Iec, Variant::var3()),
        (Policy::Hvc, Variant::var3()),
        (Policy::Cvc, Variant::var3()),
        (Policy::Cvc, Variant::var1()),
    ] {
        let rt = Runtime::new(Platform::bridges(8), RunConfig::new(policy, variant));
        let (_, trace, digest) = traced(next(&cases), &rt, &g, &DoBfs::new(src));
        assert!(
            trace.contains(r#""direction":"pull""#),
            "premise broken: no bottom-up round ran"
        );
        cases.push((
            format!("dobfs/{}/{}", policy.name(), variant.label()),
            digest,
        ));
    }

    // K=3 lane batches: the dense MS-BFS encoding under BSP, the generic
    // value-lane adapter under BASP.
    let rt = Runtime::new(
        Platform::bridges(8),
        RunConfig::new(Policy::Cvc, Variant::var3()),
    );
    let sources = [src, 1, g.num_vertices() / 2];
    cases.push((
        "lanes3/bfs/CVC/Var3".into(),
        batch(next(&cases), &rt, &g, &Bfs::new(src), &sources),
    ));
    let rt = Runtime::new(
        Platform::bridges(8),
        RunConfig::new(Policy::Cvc, Variant::var4()),
    );
    cases.push((
        "lanes3/sssp/CVC/Var4".into(),
        batch(next(&cases), &rt, &g, &Sssp::new(src), &sources),
    ));

    // Lux's power-iteration pagerank: the second pull program, whose
    // `accumulate` skips zero contributions instead of adding them.
    for variant in [Variant::var1(), Variant::var3()] {
        let rt = Runtime::new(Platform::bridges(8), RunConfig::new(Policy::Iec, variant));
        let (_, _, digest) = traced(next(&cases), &rt, &g, &LuxPageRank::new(20));
        cases.push((format!("lux-pagerank/IEC/{}", variant.label()), digest));
    }

    // Crash recovery, both tails (rejoin, re-home) under both engines, with
    // lossy links and a straggler window on top.
    for variant in [Variant::var3(), Variant::var4()] {
        for rejoin in [true, false] {
            let plan = FaultPlan::seeded(7)
                .with_drop(0.05)
                .with_crash(1, 2, rejoin)
                .with_straggler(2, 1, 3, 4.0);
            let rt = Runtime::new(
                Platform::bridges(8),
                RunConfig::new(Policy::Cvc, variant)
                    .with_faults(plan)
                    .with_checkpoints(2),
            );
            let (report, _, digest) = traced(next(&cases), &rt, &g, &Bfs::new(src));
            let r = &report.resilience;
            assert!(r.crashes == 1 && r.rollbacks >= 1, "no recovery ran: {r:?}");
            assert_eq!(r.rejoins > 0, rejoin, "wrong recovery tail: {r:?}");
            cases.push((
                format!(
                    "crash-{}/bfs/CVC/{}",
                    if rejoin { "rejoin" } else { "rehome" },
                    variant.label()
                ),
                digest,
            ));
        }
    }

    // High-diameter runs: a long-tail web crawl on 32 devices, where bfs
    // takes over a hundred rounds and in most of them most devices have no
    // active vertex, no mark and no mail, so nearly every sync message is
    // empty. The R-MAT cases above converge in a handful of rounds and
    // barely reach that regime. Var1 sends All-Shared payloads: there an
    // unmarked direction still ships every entry.
    let hg = highdiam_graph();
    let hsrc = Runtime::max_out_degree_source(&hg).unwrap();
    for variant in [Variant::var1(), Variant::var3(), Variant::var4()] {
        let rt = Runtime::new(Platform::bridges(32), RunConfig::new(Policy::Cvc, variant));
        let (report, _, digest) = traced(next(&cases), &rt, &hg, &Bfs::new(hsrc));
        assert!(
            report.max_rounds >= 100,
            "premise broken: bfs ran {} rounds",
            report.max_rounds
        );
        cases.push((format!("highdiam/bfs/CVC/{}", variant.label()), digest));
    }
    let rt = Runtime::new(
        Platform::bridges(32),
        RunConfig::new(Policy::Cvc, Variant::var4()),
    );
    let (_, _, digest) = traced(next(&cases), &rt, &hg, &Sssp::new(hsrc));
    cases.push(("highdiam/sssp/CVC/Var4".into(), digest));

    // The same bfs through a mid-run crash with lossy links: every exchange
    // takes the reliable path, so which payload each delivery flag belongs
    // to is pinned over a hundred mostly-empty rounds, before and after a
    // rollback and after a re-homing.
    for rejoin in [true, false] {
        let plan = FaultPlan::seeded(11)
            .with_drop(0.05)
            .with_crash(5, 60, rejoin);
        let rt = Runtime::new(
            Platform::bridges(32),
            RunConfig::new(Policy::Cvc, Variant::var3())
                .with_faults(plan)
                .with_checkpoints(25),
        );
        let (report, _, digest) = traced(next(&cases), &rt, &hg, &Bfs::new(hsrc));
        let r = &report.resilience;
        assert!(r.crashes == 1 && r.rollbacks >= 1, "no recovery ran: {r:?}");
        assert!(r.faults.drops_injected > 0, "no message was dropped: {r:?}");
        assert_eq!(r.rejoins > 0, rejoin, "wrong recovery tail: {r:?}");
        cases.push((
            format!(
                "highdiam-crash-{}/bfs/CVC/Var3",
                if rejoin { "rejoin" } else { "rehome" }
            ),
            digest,
        ));
    }

    // A crash inside a same-instant BASP step: a pull program starts every
    // device's round 0 at t = 0, so the crash fires before any member of
    // that step has run, and the victim's silence is detected by a failed
    // send rather than by the lease at quiescence.
    for rejoin in [true, false] {
        let rt = Runtime::new(
            Platform::bridges(8),
            RunConfig::new(Policy::Cvc, Variant::var4())
                .with_faults(FaultPlan::seeded(7).with_crash(1, 0, rejoin))
                .with_checkpoints(2),
        );
        let (report, _, digest) = traced(next(&cases), &rt, &g, &PageRank::new());
        let r = &report.resilience;
        assert!(r.crashes == 1 && r.rollbacks >= 1, "no recovery ran: {r:?}");
        assert!(r.faults.delivery_failures > 0, "no send failed: {r:?}");
        assert_eq!(r.rejoins > 0, rejoin, "wrong recovery tail: {r:?}");
        cases.push((
            format!(
                "instant-crash-{}/pagerank/CVC/Var4",
                if rejoin { "rejoin" } else { "rehome" }
            ),
            digest,
        ));
    }
    cases
}

/// A weighted web crawl of 4 000 pages with a 150-page tail.
fn highdiam_graph() -> Csr {
    let g = WebCrawlConfig::new(4_000, 48_000, 200, 150, 150)
        .seed(0xD1A)
        .generate();
    randomize_weights(&g, DEFAULT_MAX_WEIGHT, 0x5EED)
}

fn data_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_digests.txt")
}

fn render(cases: &[(String, [u64; 3])]) -> String {
    let mut text = String::from("# case report values trace (FNV-1a-64; see golden_digests.rs)\n");
    for (name, d) in cases {
        writeln!(text, "{name} {:016x} {:016x} {:016x}", d[0], d[1], d[2]).unwrap();
    }
    text
}

/// The committed cases, in file order.
fn committed() -> Vec<(String, [u64; 3])> {
    let text = std::fs::read_to_string(data_file()).expect("tests/golden_digests.txt is committed");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "malformed line `{l}`");
            let h = |s| u64::from_str_radix(s, 16).expect("hex digest");
            (f[0].to_string(), [h(f[1]), h(f[2]), h(f[3])])
        })
        .collect()
}

/// Runs the pass of `rotation` and names every hash that differs from
/// `want`, with the case and the transform it ran under.
fn moved(rotation: usize, want: &[(String, [u64; 3])]) -> String {
    let have = corpus(Some(rotation));
    assert_eq!(
        have.iter().map(|c| &c.0).collect::<Vec<_>>(),
        want.iter().map(|c| &c.0).collect::<Vec<_>>(),
        "the corpus and the data file list different cases"
    );
    let mut moved = String::new();
    for (i, ((name, h), (_, w))) in have.iter().zip(want).enumerate() {
        for k in 0..3 {
            if h[k] != w[k] {
                writeln!(
                    moved,
                    "  {name} under {:?}: {} hash moved ({:016x}, committed {:016x})",
                    transform(Some(rotation), i),
                    HASHES[k],
                    h[k],
                    w[k]
                )
                .unwrap();
            }
        }
    }
    moved
}

#[test]
fn corpus_matches_committed_digests() {
    let moved = moved(0, &committed());
    assert!(moved.is_empty(), "golden digests moved:\n{moved}");
}

#[test]
#[ignore = "runs the corpus five times; CI runs it in release"]
fn every_case_under_every_transform() {
    let want = committed();
    let moved: String = (0..TRANSFORMS.len()).map(|r| moved(r, &want)).collect();
    assert!(moved.is_empty(), "golden digests moved:\n{moved}");
}

#[test]
#[ignore = "rewrites tests/golden_digests.txt; run only after an intended change of behaviour"]
fn regenerate() {
    std::fs::write(data_file(), render(&corpus(None))).unwrap();
}
