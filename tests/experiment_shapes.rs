//! Shape checks: the paper's headline findings hold in the committed
//! figure texts. Each claim is computed once, by the bin that prints its
//! cells, and printed after them as a `claim <name>: holds|fails (…)` line
//! (`dirgl_bench::print_claim`). CI diffs every `bench_results/*.txt`
//! against its bin's stdout, so a claim line here is what the bin prints
//! today; these tests read the lines and run no simulation.

use std::path::Path;

use dirgl_bench::parse_claim;

/// The six claims and the bin whose text prints each one.
const CLAIMS: [(&str, &str); 6] = [
    // §V-C / Fig. 7: CVC is critical to scale out.
    ("cvc_wins_at_scale", "fig7"),
    // §V-B3 / Fig. 4: UO cuts volume against AS and loses no time.
    ("updated_only_cuts_volume", "fig4"),
    // §V-B2: ALB pays off only where the max in-degree is huge.
    ("alb_helps_exactly_where_the_paper_says", "fig4"),
    // §V-B1 / Fig. 3: Var1 beats Lux, and Lux's scaling flattens.
    ("lux_trails_and_flattens", "fig3"),
    // Table III: Lux's memory is a constant; D-IrGL's is below it.
    ("lux_memory_constant_dirgl_below_lux", "table3"),
    // Table IV: static balance tracks memory balance, not dynamic.
    ("static_tracks_memory_not_dynamic", "table4"),
];

/// Every claim line of every committed text, as `(bin, name, holds)`.
fn claim_lines() -> Vec<(String, String, bool)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_results");
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let bin = path.file_stem().unwrap().to_string_lossy().into_owned();
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            if let Some((name, holds)) = parse_claim(line) {
                lines.push((bin.clone(), name.to_string(), holds));
            }
        }
    }
    lines
}

/// `name` is printed once, by its bin, and holds.
fn assert_holds(name: &str) {
    let (_, bin) = CLAIMS.iter().find(|c| c.0 == name).unwrap();
    let found: Vec<_> = claim_lines().into_iter().filter(|c| c.1 == name).collect();
    assert_eq!(
        found,
        [(bin.to_string(), name.to_string(), true)],
        "claim {name} must read `holds` once, in bench_results/{bin}.txt"
    );
}

#[test]
fn cvc_wins_at_scale() {
    assert_holds("cvc_wins_at_scale");
}

#[test]
fn updated_only_cuts_volume() {
    assert_holds("updated_only_cuts_volume");
}

#[test]
fn alb_helps_exactly_where_the_paper_says() {
    assert_holds("alb_helps_exactly_where_the_paper_says");
}

#[test]
fn lux_trails_and_flattens() {
    assert_holds("lux_trails_and_flattens");
}

#[test]
fn lux_memory_constant_dirgl_below_lux() {
    assert_holds("lux_memory_constant_dirgl_below_lux");
}

#[test]
fn static_tracks_memory_not_dynamic() {
    assert_holds("static_tracks_memory_not_dynamic");
}

/// No claim line is printed that this file does not check.
#[test]
fn every_claim_line_is_a_known_claim() {
    let unknown: Vec<_> = claim_lines()
        .into_iter()
        .filter(|c| !CLAIMS.iter().any(|k| k.0 == c.1))
        .collect();
    assert!(unknown.is_empty(), "unchecked claim lines: {unknown:?}");
}
