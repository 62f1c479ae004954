//! Nothing is committed under `bench_results/` that CI does not diff.
//!
//! Every `bench_results/<bin>.txt` is a bin's stdout, and CI checks it by
//! piping a fresh run of `<bin>` into `diff bench_results/<bin>.txt -`,
//! either as one line or inside a `for b in …; do … done` loop over bin
//! names. This test reads `.github/workflows/ci.yml` and fails when a
//! committed text has no such step, so a new text cannot land ungated.

use std::collections::BTreeSet;
use std::path::Path;

/// Texts that no longer match what their bins print and so are not
/// diffed yet. Regenerating one means adding its diff step to CI and
/// taking it off this list (the test fails until both are done).
const NOT_YET_DIFFED: [&str; 5] = ["table4", "fig4", "fig6", "fig8", "fig9"];

/// Bin names whose committed text a workflow diffs against the bin's
/// stdout.
fn diffed_in(workflow: &str) -> BTreeSet<String> {
    let mut diffed = BTreeSet::new();
    let mut loop_bins: Vec<&str> = Vec::new();
    for line in workflow.lines().map(str::trim) {
        if let Some(list) = line
            .strip_prefix("for b in ")
            .and_then(|l| l.strip_suffix("; do"))
        {
            loop_bins = list.split_whitespace().collect();
        } else if line == "done" {
            loop_bins.clear();
        } else if let Some((_, target)) = line.split_once("| diff ") {
            match target.trim_matches('"').split_once(".txt") {
                Some(("bench_results/$b", _)) => {
                    diffed.extend(loop_bins.iter().map(|b| b.to_string()))
                }
                Some((path, _)) => {
                    if let Some(bin) = path.strip_prefix("bench_results/") {
                        diffed.insert(bin.to_string());
                    }
                }
                None => {}
            }
        }
    }
    diffed
}

#[test]
fn every_committed_text_is_diffed_in_ci() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed: BTreeSet<String> = std::fs::read_dir(root.join("bench_results"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter_map(|f| f.strip_suffix(".txt").map(str::to_string))
        .collect();
    let diffed =
        diffed_in(&std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap());
    let waiting: BTreeSet<String> = NOT_YET_DIFFED.iter().map(|s| s.to_string()).collect();

    let ungated: Vec<_> = committed
        .difference(&diffed)
        .filter(|f| !waiting.contains(*f))
        .collect();
    assert!(
        ungated.is_empty(),
        "committed but not diffed in CI: {ungated:?}"
    );
    let missing: Vec<_> = diffed.difference(&committed).collect();
    assert!(
        missing.is_empty(),
        "diffed in CI but not committed: {missing:?}"
    );
    let stale: Vec<_> = waiting
        .iter()
        .filter(|f| !committed.contains(*f) || diffed.contains(*f))
        .collect();
    assert!(
        stale.is_empty(),
        "NOT_YET_DIFFED lists texts that are diffed or gone: {stale:?}"
    );
}

#[test]
fn loop_and_single_line_diffs_are_both_read() {
    let ci = r#"
        run: |
          for b in table2 fig5; do
            cargo run --release -p dirgl-bench --bin "$b" | diff "bench_results/$b.txt" -
          done
          cargo run --release -p dirgl-bench --bin fig3 | diff bench_results/fig3.txt -
          diff <(grep -v '^#' tests/bench_counts.txt) fresh_counts.txt
    "#;
    let got: Vec<String> = diffed_in(ci).into_iter().collect();
    assert_eq!(got, ["fig3", "fig5", "table2"]);
    // A loop's bins count only for the diff inside it.
    assert!(diffed_in("for b in table1; do\n  echo $b\ndone\n").is_empty());
}
