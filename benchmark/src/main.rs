//! `dirgl-benchmark`: prints every metric of the chosen workloads as
//! `workload name unit value clock`, then one JSON result line per
//! workload, and exits non-zero when an output check fails.

use std::process::ExitCode;

use dirgl_benchmark::catalog;
use dirgl_benchmark::cli::{self, Command, RunArgs};
use dirgl_benchmark::{workloads, Opts, Outcome, POOL_THREADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Manifest => {
            print!("{}", catalog::manifest_json());
            ExitCode::SUCCESS
        }
        Command::Run(run) => {
            let opts = prepare(&run);
            print_header(&run);
            let mut ok = true;
            for name in &run.workloads {
                let out = run_one(name, &opts);
                report(&out, run.trace);
                ok &= out.correct();
            }
            exit_code(ok)
        }
        Command::Agree(run) => {
            let opts = prepare(&run);
            print_header(&run);
            exit_code(agree(&run, &opts))
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pins the worker pool, points the library's spill files into the output
/// directory, and builds the run's options. Runs before any other thread
/// exists, which is what makes changing the environment sound.
fn prepare(run: &RunArgs) -> Opts {
    let mut opts = Opts::contract(run.seed, run.seconds, run.trace);
    opts.scale = run.scale;
    opts.out_dir = run.out_dir.clone();
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", POOL_THREADS.to_string());
    }
    let tmp = opts.out_dir.join("tmp");
    match std::fs::create_dir_all(&tmp).and_then(|()| std::fs::canonicalize(&tmp)) {
        Ok(dir) => std::env::set_var("TMPDIR", dir),
        Err(e) => eprintln!("warning: cannot create {}: {e}", tmp.display()),
    }
    opts
}

fn print_header(run: &RunArgs) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("# host_cores {cores}");
    println!(
        "# pool_threads {}",
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default()
    );
    println!("# rustc {}", env!("BENCH_RUSTC"));
    println!("# commit {commit}");
    println!(
        "# seed {} seconds {} trace {} scale {}",
        run.seed, run.seconds, run.trace as u8, run.scale
    );
}

fn run_one(name: &str, opts: &Opts) -> Outcome {
    workloads::run(name, opts).expect("the command line only admits catalog workloads")
}

/// Prints one workload's notes, metric lines, failed checks and result
/// line.
fn report(out: &Outcome, trace: bool) {
    for (k, v) in &out.notes {
        println!("# {} {k} {v}", out.workload);
    }
    for (def, v) in out.reported(trace) {
        println!(
            "{} {} {} {v} {}",
            out.workload,
            def.name,
            def.unit,
            def.clock.label()
        );
    }
    for f in out.checks.failures() {
        eprintln!("FAILED CHECK {}: {f}", out.workload);
    }
    println!("{}", out.result_json(trace));
}

/// Runs every workload twice and compares each end-to-end metric against
/// its bound; the simulated time must repeat exactly.
fn agree(run: &RunArgs, opts: &Opts) -> bool {
    let opts = Opts {
        trace: false,
        ..opts.clone()
    };
    let sets: Vec<Vec<Outcome>> = (0..2)
        .map(|_| run.workloads.iter().map(|w| run_one(w, &opts)).collect())
        .collect();
    let mut ok = true;
    println!("# workload metric first second rel_diff bound verdict");
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for out in [a, b] {
            for f in out.checks.failures() {
                eprintln!("FAILED CHECK {}: {f}", out.workload);
            }
            ok &= out.correct();
        }
        for ((def, x), (_, y)) in a.reported(false).into_iter().zip(b.reported(false)) {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let rel = (y - x).abs() / x.abs();
            let within = rel <= bound;
            ok &= within;
            println!(
                "{} {} {x} {y} {rel:.4} {bound} {}",
                a.workload,
                def.name,
                if within { "ok" } else { "DISAGREE" }
            );
        }
        let (x, y) = (a.metrics.get("sim_s"), b.metrics.get("sim_s"));
        let same = x.map(f64::to_bits) == y.map(f64::to_bits);
        ok &= same;
        println!(
            "{} sim_s {} {} {}",
            a.workload,
            x.unwrap_or(0.0),
            y.unwrap_or(0.0),
            if same { "ok" } else { "DISAGREE" }
        );
    }
    ok
}
