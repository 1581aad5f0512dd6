//! The `hypertune` binary refuses out-of-range numeric flags with its
//! usage text and exit code 2, before any of them reaches an assert.

use std::process::Command;

#[test]
fn out_of_range_counts_and_budgets_are_usage_errors() {
    let cases: &[&[&str]] = &[
        &["run", "--workers", "0"],
        &["run", "--budget-hours", "0"],
        &["run", "--budget-hours", "-1"],
        &["run", "--budget-hours", "NaN"],
        &["run", "--budget-hours", "inf"],
        &["serve", "--pool", "0"],
        // Flags are parsed before any dial: the address is never contacted.
        &["cluster", "--workers", "127.0.0.1:1", "--max-evals", "0"],
        &["cluster", "--workers", "127.0.0.1:1", "--lease-secs", "-1"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_hypertune"))
            .args(*args)
            .output()
            .expect("the hypertune binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage:") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
}
