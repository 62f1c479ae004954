//! Bench-regression gate over the committed `BENCH_*.json` baselines.
//!
//! Checks every baseline file in `--committed` (default `.`) against the
//! invariant + floor sets in `dirgl_bench::baseline`, and — when a
//! matching file exists under `--fresh` — checks the freshly regenerated
//! copy too, including committed-vs-fresh wall-clock ratio floors when
//! the two were produced at the same `--scale`. Exits nonzero on any
//! failure, so CI can run it directly:
//!
//! ```sh
//! bench_hotpath --out /tmp/fresh/BENCH_hotpath.json
//! bench_gate --committed . --fresh /tmp/fresh
//! ```
//!
//! A baseline file missing from `--committed` fails the gate; one
//! missing from `--fresh` is skipped (the gate does not require every
//! benchmark to be regenerated on every run).

use std::path::Path;

use dirgl_bench::baseline::{check_file, Json, BASELINE_FILES};
use dirgl_bench::cli::{or_exit, ArgStream, CliError};

const USAGE: &str = "usage: bench_gate [--committed DIR] [--fresh DIR]";

struct Opts {
    committed: String,
    fresh: Option<String>,
}

fn try_parse(mut it: ArgStream) -> Result<Opts, CliError> {
    let mut o = Opts {
        committed: ".".to_string(),
        fresh: None,
    };
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--committed" => o.committed = it.value("--committed")?,
            "--fresh" => o.fresh = Some(it.value("--fresh")?),
            other => return Err(CliError::unknown_arg(other)),
        }
    }
    Ok(o)
}

fn load(dir: &str, file: &str) -> Result<Option<Json>, String> {
    let path = Path::new(dir).join(file);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    Json::parse(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let Opts { committed, fresh } = or_exit(ArgStream::from_env().and_then(try_parse), USAGE);

    let mut failures = 0usize;
    for file in BASELINE_FILES {
        let cj = match load(&committed, file) {
            Ok(Some(j)) => j,
            Ok(None) => {
                println!("FAIL {file}: missing from --committed {committed}");
                failures += 1;
                continue;
            }
            Err(e) => {
                println!("FAIL {file}: {e}");
                failures += 1;
                continue;
            }
        };
        let fj = match fresh.as_deref().map(|d| load(d, file)).transpose() {
            Ok(o) => o.flatten(),
            Err(e) => {
                println!("FAIL {file}: {e}");
                failures += 1;
                continue;
            }
        };
        let checked_fresh = fj.is_some();
        let problems = check_file(file, &cj, fj.as_ref());
        if problems.is_empty() {
            println!(
                "  ok {file}{}",
                if checked_fresh { " (+fresh)" } else { "" }
            );
        } else {
            for p in &problems {
                println!("FAIL {file}: {p}");
            }
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("bench_gate: {failures} baseline file(s) failed");
        std::process::exit(1);
    }
    println!("bench_gate: all baselines pass");
}
