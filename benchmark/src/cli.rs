//! Command-line parsing. Bad arguments are an error value, never a panic.

use crate::catalog::{RUN_SECONDS, WORKLOADS};

/// What the command line asked for.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print `BENCHMARK.json` and exit.
    Manifest,
    /// Run workloads and print their metrics.
    Run(RunArgs),
    /// Run two full sets and compare them against the bounds.
    Agree(RunArgs),
}

/// Arguments of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload names, in run order.
    pub workloads: Vec<&'static str>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--scale`.
    pub scale: u64,
    /// `--out`: where spans and the library's spill files go.
    pub out_dir: std::path::PathBuf,
}

/// One line per option, for error output.
pub const USAGE: &str =
    "usage: dirgl-benchmark --workload <name|all> [--seed <n>] [--seconds <s>] \
[--trace [0|1]] [--scale <k>] [--out <dir>] [--agree]\n       dirgl-benchmark --manifest";

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a valid number"))
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: 1,
        out_dir: "benchmark/out".into(),
    };
    let mut agree = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => return Ok(Command::Manifest),
            "--agree" => agree = true,
            "--workload" => {
                let name = value("--workload", &mut it)?;
                run.workloads = if name == "all" {
                    WORKLOADS.iter().map(|w| w.name).collect()
                } else {
                    let w = WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?;
                    vec![w.name]
                };
            }
            "--seed" => run.seed = number("--seed", value("--seed", &mut it)?)?,
            "--seconds" => {
                run.seconds = number("--seconds", value("--seconds", &mut it)?)?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--scale" => {
                run.scale = number("--scale", value("--scale", &mut it)?)?;
                if !(1..=1024).contains(&run.scale) {
                    return Err("--scale must be in 1..=1024".into());
                }
            }
            "--out" => run.out_dir = value("--out", &mut it)?.into(),
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if agree && run.workloads.is_empty() {
        run.workloads = WORKLOADS.iter().map(|w| w.name).collect();
    }
    if run.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(if agree {
        Command::Agree(run)
    } else {
        Command::Run(run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_form_parses() {
        let c = parse(&args("--workload pr_dense --seed 7 --seconds 12 --trace 1")).unwrap();
        let Command::Run(r) = c else { panic!() };
        assert_eq!(r.workloads, vec!["pr_dense"]);
        assert_eq!((r.seed, r.seconds, r.trace, r.scale), (7, 12.0, true, 1));
        let Command::Run(r) = parse(&args("--trace 0 --workload all")).unwrap() else {
            panic!()
        };
        assert!(!r.trace);
        assert_eq!(r.workloads.len(), WORKLOADS.len());
    }

    #[test]
    fn a_bare_trace_flag_turns_tracing_on() {
        let Command::Run(r) = parse(&args("--workload serve_mix --trace --seed 3")).unwrap() else {
            panic!()
        };
        assert!(r.trace);
        assert_eq!(r.seed, 3);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload all --seed x",
            "--workload all --seconds 0",
            "--workload all --scale 0",
            "--workload all --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
