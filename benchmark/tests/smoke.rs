//! Self-test of the benchmark: every workload at 1/16 of the contract's
//! input sizes with small operation counts, in both modes.
//!
//! Run it optimized (`cargo test --release --offline`): the workloads are
//! the real ones, only smaller.

use std::path::{Path, PathBuf};

use dirgl_benchmark::catalog::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use dirgl_benchmark::{workloads, Opts, Outcome, POOL_THREADS};

fn smoke_opts(trace: bool, out_dir: &Path) -> Opts {
    Opts {
        scale: 16,
        min_ops: 40,
        warmup_ops: 2,
        warmup_secs: 0.0,
        setups: 2,
        out_dir: out_dir.to_path_buf(),
        ..Opts::contract(7, 0.2, trace)
    }
}

/// `"key": "value"` pairs of `text`, in order.
fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

fn assert_reports_exactly(out: &Outcome, trace: bool, defs: &[MetricDef]) {
    let json = out.result_json(trace);
    for d in defs {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        assert_eq!(
            json.matches(&key).count(),
            1,
            "{}: `{}` is not reported exactly once",
            out.workload,
            d.name
        );
        let after = &json[json.find(&key).unwrap() + key.len()..];
        let unit = format!("\"unit\": \"{}\"}}", d.unit);
        assert!(
            after[..after.find('}').unwrap() + 1].ends_with(&unit),
            "{}: `{}` is not reported in {}",
            out.workload,
            d.name,
            d.unit
        );
    }
    assert_eq!(
        json.matches("{\"value\": ").count(),
        defs.len(),
        "{}: metrics outside the contract are reported",
        out.workload
    );
}

#[test]
fn the_committed_manifest_is_the_catalog() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(
        committed == catalog::manifest_json(),
        "BENCHMARK.json is stale: regenerate it with `dirgl-benchmark --manifest > BENCHMARK.json`"
    );
    // Read back independently of the catalog: names and units as the
    // contract spells them.
    let names = string_fields(&committed, "name");
    assert_eq!(
        names.len(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for n in names {
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
}

#[test]
fn every_workload_meets_the_contract() {
    // The only test that runs workloads, so nothing else reads the
    // environment while it is changed.
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let tmp = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_var("TMPDIR", &tmp);
    std::env::set_var("RAYON_NUM_THREADS", POOL_THREADS.to_string());

    for w in WORKLOADS {
        let plain = workloads::run(w.name, &smoke_opts(false, &out_dir)).unwrap();
        assert!(plain.correct(), "{}: {:?}", w.name, plain.checks.failures());
        assert!(plain.attempted >= 40 && plain.failed == 0, "{}", w.name);
        assert_reports_exactly(&plain, false, END_TO_END);
        for (d, v) in plain.reported(false) {
            assert!(v > 0.0 && v.is_finite(), "{}: {} reads {v}", w.name, d.name);
        }

        let traced = workloads::run(w.name, &smoke_opts(true, &out_dir)).unwrap();
        assert!(
            traced.correct(),
            "{}: {:?}",
            w.name,
            traced.checks.failures()
        );
        assert_reports_exactly(&traced, true, PER_LAYER);
        for (d, v) in traced.reported(true) {
            assert!(v.is_finite(), "{}: {} reads {v}", w.name, d.name);
        }
        assert_eq!(traced.metrics.get("fail_share"), Some(0.0));

        // The spans on disk form a tree in which no child leaves its
        // parent.
        let path = out_dir.join(format!("{}-seed7.jsonl", w.name));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 10, "{}: too few spans", w.name);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));

        // The simulated clock repeats exactly; the serve mix coalesces by
        // arrival order and reports none end to end.
        if w.name != "serve_mix" {
            let again = workloads::run(w.name, &smoke_opts(false, &out_dir)).unwrap();
            let (a, b) = (plain.metrics.get("sim_s"), again.metrics.get("sim_s"));
            assert!(a.is_some_and(|s| s > 0.0), "{}", w.name);
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{}", w.name);
            assert_eq!(a, traced.metrics.get("sim_s"), "{}", w.name);
        }
    }
    assert!(
        std::fs::read_dir(&tmp).unwrap().next().is_none(),
        "the library left spill files behind"
    );
}
