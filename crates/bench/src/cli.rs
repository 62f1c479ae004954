//! Shared `Result`-based command-line parsing for the harness binaries.
//!
//! The binaries used to `panic!` on a bad flag, which prints a backtrace
//! hint instead of usage and exits with the panic status. Everything now
//! funnels through here: parsers return `Result<_, CliError>`, and
//! [`or_exit`] turns an error into a `error: …` + usage message on stderr
//! and a nonzero (status 2) exit.

use std::fmt;
use std::str::FromStr;

/// A command-line parse failure: what was wrong, human-readable.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError {
    /// The message printed after `error:`.
    pub message: String,
}

impl CliError {
    /// Error with the given message.
    pub fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }

    /// The standard unknown-argument error.
    pub fn unknown_arg(arg: &str) -> CliError {
        CliError::new(format!("unknown argument `{arg}`"))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Token stream over a binary's arguments (program name already skipped).
///
/// The parsers built on it let a repeated flag's last value win:
/// `--scale 2 --scale 3` runs at scale 3.
pub struct ArgStream {
    it: std::vec::IntoIter<String>,
}

impl ArgStream {
    /// Stream over the process arguments, program name skipped. A token
    /// that is not valid UTF-8 is an error that names it.
    pub fn from_env() -> Result<ArgStream, CliError> {
        let tokens = std::env::args_os()
            .skip(1)
            .map(|a| {
                a.into_string()
                    .map_err(|a| CliError::new(format!("argument {a:?} is not valid UTF-8")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ArgStream::from_tokens(tokens))
    }

    /// Stream over explicit tokens (tests).
    pub fn from_tokens<S: Into<String>>(tokens: impl IntoIterator<Item = S>) -> ArgStream {
        ArgStream {
            it: tokens
                .into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        }
    }

    /// Next raw token, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.it.next()
    }

    /// The value token following `flag`, or a "needs a value" error.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.it
            .next()
            .ok_or_else(|| CliError::new(format!("{flag} needs a value")))
    }

    /// The value token following `flag`, parsed as `T`; `what` names the
    /// expected shape in the error (e.g. "a positive integer").
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T, CliError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| CliError::new(format!("{flag} needs {what}, got `{v}`")))
    }
}

/// Parses a comma-separated vertex-id list (`--sources 3,17,99`). Rejects
/// an empty list and names the offending token on a parse failure.
pub fn parse_source_list(flag: &str, v: &str) -> Result<Vec<u32>, CliError> {
    let mut out = Vec::new();
    for tok in v.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            return Err(CliError::new(format!(
                "{flag} has an empty vertex id in `{v}`"
            )));
        }
        out.push(
            tok.parse()
                .map_err(|_| CliError::new(format!("{flag}: `{tok}` is not a vertex id")))?,
        );
    }
    Ok(out)
}

/// Unwraps a parse result; on error prints the message and `usage` to
/// stderr and exits with status 2.
pub fn or_exit<T>(r: Result<T, CliError>, usage: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_parsed() {
        let mut s = ArgStream::from_tokens(["--scale", "8", "--name", "x", "--bad", "zz"]);
        assert_eq!(s.next_arg().as_deref(), Some("--scale"));
        assert_eq!(s.parsed::<u64>("--scale", "a positive integer"), Ok(8));
        assert_eq!(s.next_arg().as_deref(), Some("--name"));
        assert_eq!(s.value("--name").as_deref(), Ok("x"));
        assert_eq!(s.next_arg().as_deref(), Some("--bad"));
        let err = s.parsed::<u64>("--bad", "a positive integer").unwrap_err();
        assert!(err.message.contains("--bad"), "{}", err.message);
        assert!(err.message.contains("zz"), "{}", err.message);
    }

    #[test]
    fn source_lists() {
        assert_eq!(
            parse_source_list("--sources", "3, 17,99"),
            Ok(vec![3, 17, 99])
        );
        assert_eq!(parse_source_list("--sources", "0"), Ok(vec![0]));
        let err = parse_source_list("--sources", "3,,9").unwrap_err();
        assert!(err.message.contains("empty vertex id"), "{}", err.message);
        let err = parse_source_list("--sources", "3,x").unwrap_err();
        assert!(err.message.contains("`x`"), "{}", err.message);
    }

    #[test]
    fn missing_value_and_unknown() {
        let mut s = ArgStream::from_tokens(["--trace"]);
        s.next_arg();
        let err = s.value("--trace").unwrap_err();
        assert_eq!(err.message, "--trace needs a value");
        assert_eq!(
            CliError::unknown_arg("--wat").message,
            "unknown argument `--wat`"
        );
    }
}
