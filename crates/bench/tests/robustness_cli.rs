//! The `robustness` bin runs from any working directory: its churn
//! sweep writes the chaos trace under `target/`, which it creates.

use std::process::Command;

#[test]
fn robustness_runs_from_a_directory_without_target() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("robustness-cli");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_robustness"))
        .env("HYPERTUNE_BUDGET_DIV", "96")
        .env_remove("HYPERTUNE_FULL")
        .env_remove("HYPERTUNE_CHAOS_ONLY")
        .env_remove("HYPERTUNE_CHAOS_TRACE")
        .current_dir(&dir)
        .output()
        .unwrap();
    let trace = std::fs::metadata(dir.join("target/chaos-trace.jsonl"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.unwrap().len() > 0, "the churn sweep wrote its trace");
}
