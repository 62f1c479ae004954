//! Command-line edge cases, driven through a real binary: whatever a user
//! can type, a harness binary answers with a result or a usage error
//! (exit 2), never a panic (exit 101).

use std::ffi::OsString;
use std::process::{Command, Output};

use dirgl_bench::cli::ArgStream;
use dirgl_bench::Args;

fn table3(args: impl IntoIterator<Item = OsString>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table3"))
        .args(args)
        .output()
        .expect("table3 runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[cfg(unix)]
#[test]
fn non_utf8_argument_is_a_usage_error_naming_it() {
    use std::os::unix::ffi::OsStringExt;
    let out = table3([OsString::from_vec(vec![b'-', b'-', 0xff])]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains(r#""--\xFF""#), "{err}");
    assert!(err.contains("not valid UTF-8"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn flag_as_last_token_needs_a_value() {
    for flag in ["--scale", "--trace"] {
        let out = table3([OsString::from(flag)]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(&format!("{flag} needs a value")), "{err}");
    }
}

#[test]
fn repeated_flag_takes_the_last_value() {
    let args = Args::try_parse(ArgStream::from_tokens(["--scale", "2", "--scale", "3"])).unwrap();
    assert_eq!(args.extra_scale, 3);
    let out = table3(["--scale", "2", "--scale", "3"].map(OsString::from));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}
