//! Committed-baseline regression checks for the `BENCH_*.json` files.
//!
//! The repo commits one JSON baseline per benchmark binary (hot path,
//! parallel, batch, faults, chaos, serve, scale). This module gives the
//! `bench_gate` binary what it needs to keep them honest:
//!
//! * a dependency-free JSON parser ([`Json::parse`]) sized for the flat
//!   schemas those files use — objects, arrays, numbers, strings, bools;
//! * a dotted-path reader ([`Json::path`]) with `[]` array expansion, so
//!   a check can say `per_bench[].identical` and mean every row;
//! * the per-file check sets ([`check_file`]): correctness invariants
//!   (identity flags, availability floors) that must hold in both the
//!   committed file and a freshly regenerated one, plus the hot path's
//!   committed-vs-fresh gate — equal result digests, no more heap
//!   allocations — which only engages when the two files were produced at
//!   the same `extra_scale`.

/// A parsed JSON value (no escapes beyond `\"` and `\\` — the baseline
/// files contain none).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all baseline numerics fit f64 exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = parse_value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at byte {i}"));
        }
        Ok(v)
    }

    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Resolves a dotted path like `per_bench[].identical`: each segment
    /// indexes an object member, and a `[]` suffix fans out over every
    /// element of an array member. Returns every leaf the path reaches
    /// (empty when any segment is missing).
    pub fn path<'a>(&'a self, path: &str) -> Vec<&'a Json> {
        let mut cur = vec![self];
        for seg in path.split('.') {
            let (key, fan_out) = match seg.strip_suffix("[]") {
                Some(k) => (k, true),
                None => (seg, false),
            };
            let mut next = Vec::new();
            for v in cur {
                let Some(m) = v.get(key) else { continue };
                if fan_out {
                    if let Json::Arr(items) = m {
                        next.extend(items.iter());
                    }
                } else {
                    next.push(m);
                }
            }
            cur = next;
        }
        cur
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *i += 1;
            let mut m = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, i);
                let Json::Str(k) = parse_value(b, i)? else {
                    return Err(format!("object key is not a string at byte {i}"));
                };
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected `:` at byte {i}"));
                }
                *i += 1;
                m.push((k, parse_value(b, i)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut a = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(a));
            }
            loop {
                a.push(parse_value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(a));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {i}")),
                }
            }
        }
        Some(b'"') => {
            *i += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*i) {
                *i += 1;
                match c {
                    b'"' => return Ok(Json::Str(s)),
                    b'\\' => match b.get(*i) {
                        Some(&e @ (b'"' | b'\\' | b'/')) => {
                            s.push(e as char);
                            *i += 1;
                        }
                        Some(b'n') => {
                            s.push('\n');
                            *i += 1;
                        }
                        _ => return Err(format!("unsupported escape at byte {i}")),
                    },
                    _ => s.push(c as char),
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *i;
            *i += 1;
            while b.get(*i).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                *i += 1;
            }
            std::str::from_utf8(&b[start..*i])
                .ok()
                .and_then(|t| t.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        _ => {
            for (lit, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*i..].starts_with(lit.as_bytes()) {
                    *i += lit.len();
                    return Ok(v);
                }
            }
            Err(format!("unexpected byte at {i}"))
        }
    }
}

/// The committed baseline files the gate covers.
pub const BASELINE_FILES: [&str; 7] = [
    "BENCH_hotpath.json",
    "BENCH_parallel.json",
    "BENCH_batch.json",
    "BENCH_faults.json",
    "BENCH_chaos.json",
    "BENCH_serve.json",
    "BENCH_scale.json",
];

fn require_true(j: &Json, path: &str, who: &str, problems: &mut Vec<String>) {
    let leaves = j.path(path);
    if leaves.is_empty() {
        problems.push(format!("{who}: `{path}` is missing"));
        return;
    }
    for (idx, v) in leaves.iter().enumerate() {
        if v.as_bool() != Some(true) {
            problems.push(format!("{who}: `{path}`[{idx}] is {v:?}, expected true"));
        }
    }
}

fn require_min(j: &Json, path: &str, floor: f64, who: &str, problems: &mut Vec<String>) {
    let leaves = j.path(path);
    if leaves.is_empty() {
        problems.push(format!("{who}: `{path}` is missing"));
        return;
    }
    for (idx, v) in leaves.iter().enumerate() {
        match v.as_f64() {
            Some(n) if n >= floor => {}
            other => problems.push(format!(
                "{who}: `{path}`[{idx}] = {:?}, expected >= {floor}",
                other.map_or_else(|| format!("{v:?}"), |n| n.to_string())
            )),
        }
    }
}

/// True when both files record the same `extra_scale` — the precondition
/// for comparing their wall clocks at all.
fn same_scale(committed: &Json, fresh: &Json) -> bool {
    let c = committed
        .path("extra_scale")
        .first()
        .and_then(|v| v.as_f64());
    let f = fresh.path("extra_scale").first().and_then(|v| v.as_f64());
    c.is_some() && c == f
}

/// The hot path's committed-vs-fresh gate, per benchmark row at matched
/// scale: the run must still compute the same bytes (`digest` equal) and
/// must not have started allocating more (`allocs` not above committed).
/// Wall time is recorded as a trend only — on shared hosts it is noise.
fn check_hotpath_against(committed: &Json, fresh: &Json, problems: &mut Vec<String>) {
    if !same_scale(committed, fresh) {
        return;
    }
    let (c, f) = (committed.path("per_bench[]"), fresh.path("per_bench[]"));
    if c.len() != f.len() {
        problems.push(format!(
            "fresh: `per_bench` shape mismatch (committed {} rows, fresh {})",
            c.len(),
            f.len()
        ));
        return;
    }
    for (cr, fr) in c.iter().zip(&f) {
        let bench = cr.get("bench").and_then(Json::as_str).unwrap_or("?");
        let (cd, fd) = (cr.get("digest"), fr.get("digest"));
        if cd.is_none() || cd != fd {
            problems.push(format!(
                "fresh: per_bench {bench} digest {fd:?} differs from committed {cd:?}"
            ));
        }
        let allocs = |row: &Json| row.get("allocs").and_then(Json::as_f64);
        match (allocs(cr), allocs(fr)) {
            (Some(c), Some(f)) if f <= c => {}
            (c, f) => problems.push(format!(
                "fresh: per_bench {bench} allocs {f:?} above committed {c:?}"
            )),
        }
    }
}

/// Invariants that must hold in *any* copy of `file` (committed or
/// fresh, any scale).
fn check_invariants(file: &str, j: &Json, who: &str, problems: &mut Vec<String>) {
    match file {
        "BENCH_hotpath.json" => {
            // Every row carries its digest and allocation count.
            require_min(j, "per_bench[].allocs", 0.0, who, problems);
            for (idx, row) in j.path("per_bench[]").iter().enumerate() {
                if row.get("digest").and_then(Json::as_str).is_none() {
                    problems.push(format!("{who}: `per_bench`[{idx}] has no digest"));
                }
            }
        }
        "BENCH_parallel.json" => {
            require_true(j, "identical_reports", who, problems);
            require_true(j, "per_bench[].identical", who, problems);
        }
        "BENCH_batch.json" => {
            require_true(j, "runs[].identical_reports", who, problems);
        }
        "BENCH_faults.json" => {
            require_true(j, "zero_fault_overhead[].identical", who, problems);
        }
        "BENCH_chaos.json" => {
            // The no-chaos scenario must complete everything it admits.
            let ok = j.path("scenarios[]").iter().any(|s| {
                s.get("scenario").and_then(Json::as_str) == Some("baseline")
                    && s.get("availability").and_then(Json::as_f64) >= Some(0.999)
            });
            if !ok {
                problems.push(format!(
                    "{who}: baseline scenario missing or availability < 1"
                ));
            }
        }
        "BENCH_serve.json" => {
            // Cache hits must beat cold execution at every concurrency.
            for (idx, run) in j.path("runs[]").iter().enumerate() {
                let cold = run.path("cold.jobs_per_s").first().and_then(|v| v.as_f64());
                let hit = run
                    .path("cache_hit.jobs_per_s")
                    .first()
                    .and_then(|v| v.as_f64());
                match (cold, hit) {
                    (Some(c), Some(h)) if h > c => {}
                    _ => problems.push(format!(
                        "{who}: runs[{idx}] cache_hit.jobs_per_s does not beat cold"
                    )),
                }
            }
        }
        "BENCH_scale.json" => {
            // Wherever both ingestion paths fit the budget, the runs must
            // be byte-identical (the key absent at compressed-only steps).
            require_true(j, "steps[].values_ok", who, problems);
            // The out-of-core claims: the streamed-compressed path reaches
            // at least one 2x divisor step deeper than the plain path under
            // the same host budget, and the web-crawl analogue compresses
            // at least 2x at the deepest step it reached.
            require_min(j, "compressed_steps_deeper", 1.0, who, problems);
            require_min(j, "compression_ratio_deepest", 2.0, who, problems);
            // The measured ingest high-water mark must grow (weakly) as the
            // divisor shrinks, i.e. down the steps array — a shrinking peak
            // means the byte accounting or the sweep order broke. 10% slack
            // absorbs thread-interleaving wobble at clamped tiny scales.
            let peaks: Vec<f64> = j
                .path("steps[].compressed.ingest_peak_bytes")
                .iter()
                .filter_map(|v| v.as_f64())
                .collect();
            if peaks.is_empty() {
                problems.push(format!(
                    "{who}: `steps[].compressed.ingest_peak_bytes` is missing"
                ));
            }
            for (idx, w) in peaks.windows(2).enumerate() {
                if w[1] < w[0] * 0.9 {
                    problems.push(format!(
                        "{who}: compressed ingest peak shrank as the graph grew \
                         (step {idx}: {} -> step {}: {})",
                        w[0],
                        idx + 1,
                        w[1]
                    ));
                }
            }
        }
        other => problems.push(format!("unknown baseline file `{other}`")),
    }
}

/// Full check set for one baseline file. `fresh` is `None` when the gate
/// run did not regenerate this file; the committed copy is still checked.
pub fn check_file(file: &str, committed: &Json, fresh: Option<&Json>) -> Vec<String> {
    let mut problems = Vec::new();
    check_invariants(file, committed, "committed", &mut problems);
    if let Some(f) = fresh {
        check_invariants(file, f, "fresh", &mut problems);
        if file == "BENCH_hotpath.json" {
            check_hotpath_against(committed, f, &mut problems);
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_shapes() {
        let j = Json::parse(r#"{"a": 1.5, "b": [true, "x", null], "c": {"d": -2e3}}"#).unwrap();
        assert_eq!(j.path("a")[0].as_f64(), Some(1.5));
        assert_eq!(j.path("c.d")[0].as_f64(), Some(-2000.0));
        let Json::Arr(b) = &j.path("b")[0] else {
            panic!()
        };
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1].as_str(), Some("x"));
        assert_eq!(b[2], Json::Null);
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn path_array_fanout() {
        let j = Json::parse(r#"{"rows": [{"ok": true}, {"ok": false}], "n": 3}"#).unwrap();
        let leaves = j.path("rows[].ok");
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].as_bool(), Some(true));
        assert_eq!(leaves[1].as_bool(), Some(false));
        assert!(j.path("rows[].missing").is_empty());
        assert!(j.path("nope").is_empty());
    }

    fn hotpath(scale: f64, pr_allocs: u64, pr_digest: &str) -> Json {
        Json::parse(&format!(
            r#"{{"extra_scale": {scale}, "wall_s": 0.8,
                "per_bench": [
                  {{"bench": "bfs", "wall_s": 0.1, "allocs": 6349, "digest": "00000000deadbeef"}},
                  {{"bench": "pagerank", "wall_s": 0.7, "allocs": {pr_allocs},
                    "digest": "{pr_digest}"}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn hotpath_gate_passes_and_fails() {
        let committed = hotpath(1.0, 5301, "0123456789abcdef");
        assert!(check_file("BENCH_hotpath.json", &committed, None).is_empty());
        assert!(check_file("BENCH_hotpath.json", &committed, Some(&committed)).is_empty());

        // Fewer allocations at matched scale are welcome.
        let leaner = hotpath(1.0, 5000, "0123456789abcdef");
        assert!(check_file("BENCH_hotpath.json", &committed, Some(&leaner)).is_empty());

        // The fresh run computes different bytes.
        let moved = hotpath(1.0, 5301, "fedcba9876543210");
        let p = check_file("BENCH_hotpath.json", &committed, Some(&moved));
        assert!(p.iter().any(|m| m.contains("pagerank digest")), "{p:?}");

        // Per-round allocation crept back in.
        let leaky = hotpath(1.0, 142857, "0123456789abcdef");
        let p = check_file("BENCH_hotpath.json", &committed, Some(&leaky));
        assert!(p.iter().any(|m| m.contains("pagerank allocs")), "{p:?}");

        // Both at a different scale: a different graph, nothing comparable.
        let small = hotpath(64.0, 142857, "fedcba9876543210");
        let p = check_file("BENCH_hotpath.json", &committed, Some(&small));
        assert!(p.is_empty(), "{p:?}");

        // A row without its digest is malformed at any scale.
        let bare =
            Json::parse(r#"{"extra_scale": 64, "per_bench": [{"bench": "bfs", "allocs": 1}]}"#)
                .unwrap();
        let p = check_file("BENCH_hotpath.json", &committed, Some(&bare));
        assert!(p.iter().any(|m| m.contains("no digest")), "{p:?}");
    }

    fn scale(steps_deeper: u64, ratio: f64, peaks: &[u64], values_ok: bool) -> Json {
        let steps: Vec<String> = peaks
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // Last step mimics a compressed-only row: no values_ok key.
                if i + 1 == peaks.len() {
                    format!(r#"{{"compressed": {{"ingest_peak_bytes": {p}}}}}"#)
                } else {
                    format!(
                        r#"{{"compressed": {{"ingest_peak_bytes": {p}}}, "values_ok": {values_ok}}}"#
                    )
                }
            })
            .collect();
        Json::parse(&format!(
            r#"{{"compressed_steps_deeper": {steps_deeper},
                 "compression_ratio_deepest": {ratio},
                 "steps": [{}]}}"#,
            steps.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn scale_gate() {
        let good = scale(1, 3.2, &[1_000, 2_100, 4_500], true);
        assert!(check_file("BENCH_scale.json", &good, Some(&good)).is_empty());

        // No depth advantage over the plain path.
        let p = check_file(
            "BENCH_scale.json",
            &scale(0, 3.2, &[1_000, 2_100], true),
            None,
        );
        assert!(
            p.iter().any(|m| m.contains("compressed_steps_deeper")),
            "{p:?}"
        );

        // Compression collapsed below the 2x web-crawl floor.
        let p = check_file(
            "BENCH_scale.json",
            &scale(1, 1.4, &[1_000, 2_100], true),
            None,
        );
        assert!(
            p.iter().any(|m| m.contains("compression_ratio_deepest")),
            "{p:?}"
        );

        // Ingest peak shrank while the graph grew.
        let p = check_file(
            "BENCH_scale.json",
            &scale(1, 3.2, &[4_500, 2_100], true),
            None,
        );
        assert!(p.iter().any(|m| m.contains("peak shrank")), "{p:?}");

        // A diverged run at a both-paths step.
        let p = check_file(
            "BENCH_scale.json",
            &scale(1, 3.2, &[1_000, 2_100], false),
            None,
        );
        assert!(p.iter().any(|m| m.contains("values_ok")), "{p:?}");
    }

    #[test]
    fn committed_baselines_in_repo_pass() {
        // The gate must know exactly the baselines that exist (a deleted
        // arm with a lingering file, or the reverse, fails here) and accept
        // each of them as committed.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..");
        let mut on_disk: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        on_disk.sort();
        let mut gated = BASELINE_FILES.to_vec();
        gated.sort();
        assert_eq!(
            on_disk, gated,
            "BENCH_*.json at the repo root vs BASELINE_FILES"
        );
        for file in BASELINE_FILES {
            let text = std::fs::read_to_string(root.join(file)).unwrap();
            let j = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let problems = check_file(file, &j, None);
            assert!(problems.is_empty(), "{file}: {problems:?}");
        }
    }
}
