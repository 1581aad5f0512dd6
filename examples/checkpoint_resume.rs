//! Checkpointing and resuming a tuning run.
//!
//! Long tuning jobs must survive restarts. A run's durable state is its
//! write-ahead log: every dispatched job with its evaluation result, and
//! every completed measurement (`D_1..D_K`). Everything else — the
//! surrogates, the precision weights θ, the bracket distribution, the
//! incumbent — is recomputed from it. This example runs Hyper-Tune with a
//! checkpoint every 10 completions, simulates a crash by dropping every
//! in-memory object, reads the log back, and resumes: the replay reuses
//! the logged results instead of re-evaluating, then continues live, and
//! the resumed run's measurement stream is bit-identical to an
//! uninterrupted one.
//!
//! Run with: `cargo run --release --example checkpoint_resume`

use hypertune::prelude::*;

fn main() {
    let bench = tasks::nas_cifar10_valid(0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let cfg = RunConfig::new(8, 4.0 * 3600.0, 7);
    let path =
        std::env::temp_dir().join(format!("hypertune-checkpoint-{}.wal", std::process::id()));

    // The reference: the same run, never interrupted.
    let mut method = MethodKind::HyperTune.build(&levels, 7);
    let uninterrupted = run(method.as_mut(), &bench, &cfg);
    println!(
        "uninterrupted: {} evaluations, incumbent {:.4}",
        uninterrupted.total_evals, uninterrupted.best_value
    );

    // Phase 1: tune with a checkpoint every 10 completions. Each
    // checkpoint appends what happened since the previous one.
    {
        let mut method = MethodKind::HyperTune.build(&levels, 7);
        let policy = CheckpointPolicy::new(&path, 10);
        run_checkpointed(method.as_mut(), &bench, &cfg, &policy).expect("write checkpoints");
        // --- simulated crash: the method and the run are dropped here ---
    }

    // Phase 2: read the log back and resume from it.
    let snapshot = RunSnapshot::load(&path).expect("read the log");
    println!(
        "log at {}: {} dispatches, {} measurements",
        path.display(),
        snapshot.submissions.len(),
        snapshot.measurements.len()
    );
    let mut method = MethodKind::HyperTune.build(&levels, 7);
    let resumed = resume(method.as_mut(), &bench, &cfg, &snapshot).expect("replay matches the log");
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.measurements, uninterrupted.measurements);
    assert_eq!(resumed.curve, uninterrupted.curve);
    println!(
        "resumed: {} evaluations, incumbent {:.4} — measurement stream bit-identical",
        resumed.total_evals, resumed.best_value
    );
}
