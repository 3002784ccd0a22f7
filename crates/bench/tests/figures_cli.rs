//! Argument checks of the `figures` binary. Each case fails while parsing,
//! before any evaluation runs, so the whole file takes milliseconds.

use std::process::Command;

#[test]
fn bad_numeric_flags_exit_1_before_evaluating() {
    for (args, msg) in [
        (["--flags", "0"], "error: bad --flags (need a positive count)"),
        (["--flags", "abc"], "error: bad --flags (need a positive count)"),
        (["--epochs", "abc"], "error: bad --epochs (need a count)"),
        (["--epochs", "-1"], "error: bad --epochs (need a count)"),
        (["--hidden", "0"], "error: bad --hidden (need a positive width)"),
        (["--hidden", "wide"], "error: bad --hidden (need a positive width)"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg("--smoke")
            .args(args)
            .arg("summary")
            .output()
            .expect("figures runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }

    // A flag with no value at all is the same error.
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--smoke", "--flags"])
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --flags"));
}
