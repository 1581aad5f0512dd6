//! The `experiments` driver's flags: a bad scale or an unknown name
//! prints the usage and exits with status 2 instead of running anything,
//! and `--only table1` runs Table 1 alone.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs the driver in a directory of its own, since it writes `results/`
/// under its working directory.
fn experiments(args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("experiments-cli-{run}"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn assert_usage(args: &[&str]) {
    let out = experiments(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("usage: experiments"), "{args:?}: {err}");
    assert!(err.contains("table1, fig4_trace, fig5_nasbench"), "{err}");
}

#[test]
fn a_bad_budget_divisor_is_refused() {
    for div in ["0.5", "0", "-8", "abc", "NaN", "inf", "-inf", ""] {
        assert_usage(&["--only", "table1", "--budget-div", div]);
    }
    assert_usage(&["--budget-div"]);
}

#[test]
fn an_unknown_name_or_flag_is_refused() {
    assert_usage(&["--only", "fig10"]);
    assert_usage(&["--only"]);
    assert_usage(&["--list"]);
    assert_usage(&["table1"]);
}

#[test]
fn only_table1_runs_table1() {
    let out = experiments(&["--only", "table1", "--budget-div", "8", "--full"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("=== Table 1: (n_i, r_i) per bracket, R = 27, eta = 3 ==="));
    assert!(text.ends_with("schedule matches Figure 2: 27 -> 9 -> 3 -> 1.\n"));
    assert!(!text.contains("Figure 4"));
}
