//! Integration tests for checkpoint/resume across the full stack.

use hypertune::core::History;
use hypertune::prelude::*;

/// Runs `kind` with a checkpoint after every completion, so the log
/// holds the whole measurement stream. Returns the live history and the
/// one rebuilt from the log alone.
fn live_and_restored(bench: &dyn Benchmark, kind: MethodKind, cfg: &RunConfig) -> [History; 2] {
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let dir = std::env::temp_dir().join(format!(
        "hypertune-it-log-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let path = dir.join("run.wal");
    let mut method = kind.build(&levels, cfg.seed);
    let r = run_checkpointed(
        method.as_mut(),
        bench,
        cfg,
        &CheckpointPolicy::new(&path, 1),
    )
    .unwrap();
    let logged = RunSnapshot::load(&path).unwrap().measurements;
    std::fs::remove_dir_all(&dir).ok();
    [r.measurements, logged].map(|ms| {
        let mut h = History::new(levels.clone());
        ms.into_iter().for_each(|m| h.record(m));
        h
    })
}

#[test]
fn checkpoint_roundtrips_a_real_run_history() {
    // Run Hyper-Tune with its log on, rebuild a history from the log
    // alone, and verify it matches the live run.
    let bench = tasks::nas_cifar10_valid(0);
    let cfg = RunConfig::new(4, 5000.0, 5);
    let [history, restored] = live_and_restored(&bench, MethodKind::HyperTune, &cfg);
    assert_eq!(restored.len(), history.len());
    assert_eq!(
        restored.incumbent().map(|m| m.value),
        history.incumbent().map(|m| m.value)
    );
}

#[test]
fn resumed_theta_matches_uninterrupted_theta() {
    // θ is a pure function of the history, so computing it on a history
    // restored from the log must give the same weights as on the live one.
    use hypertune::core::ranking::compute_theta;
    let bench = tasks::xgboost_covertype(0);
    let cfg = RunConfig::new(8, 2.0 * 3600.0, 9);
    let [live, restored] = live_and_restored(&bench, MethodKind::AHyperband, &cfg);
    let a = compute_theta(&live, bench.space(), 3);
    let b = compute_theta(&restored, bench.space(), 3);
    assert_eq!(a, b);
}

#[test]
fn measurements_in_runresult_match_evals_per_level() {
    let bench = tasks::lstm_ptb(0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut method = MethodKind::Asha.build(&levels, 2);
    let r = run(method.as_mut(), &bench, &RunConfig::new(4, 2.0 * 3600.0, 2));
    let mut per_level = vec![0usize; levels.k()];
    for m in &r.measurements {
        per_level[m.level] += 1;
    }
    assert_eq!(per_level, r.evals_per_level);
    // Completion order is time-ordered.
    for w in r.measurements.windows(2) {
        assert!(w[0].finished_at <= w[1].finished_at);
    }
}

#[test]
fn snapshot_resume_is_bit_identical_on_a_real_task() {
    // The full WAL-replay path on a realistic benchmark with faults on:
    // run, checkpoint mid-flight, "crash", resume from disk, and compare
    // every measurement bit-for-bit.
    let bench = tasks::nas_cifar10_valid(0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut cfg = RunConfig::new(4, 4000.0, 17);
    cfg.faults = Some(FaultSpec::crashes(0.1));

    let mut m_full = MethodKind::HyperTune.build(&levels, 17);
    let full = run(m_full.as_mut(), &bench, &cfg);
    assert!(full.n_failed_attempts > 0, "faults should have fired");

    let dir = std::env::temp_dir().join("hypertune-it-snapshot-resume");
    let path = dir.join("snap.json");
    let policy = CheckpointPolicy::new(&path, 10);
    let mut m_ckpt = MethodKind::HyperTune.build(&levels, 17);
    run_checkpointed(m_ckpt.as_mut(), &bench, &cfg, &policy).unwrap();

    let snapshot = RunSnapshot::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(snapshot.seed, 17);
    assert!(!snapshot.submissions.is_empty());

    let mut m_res = MethodKind::HyperTune.build(&levels, 17);
    let resumed = resume(m_res.as_mut(), &bench, &cfg, &snapshot).unwrap();
    assert_eq!(resumed.measurements, full.measurements);
    assert_eq!(resumed.curve, full.curve);
    assert_eq!(resumed.n_quarantined, full.n_quarantined);
}

#[test]
fn resume_with_wrong_method_diverges() {
    // Replay verification catches resuming under a different method: the
    // first dispatch that differs from the log is reported, instead of
    // silently producing a franken-run.
    let bench = CountingOnes::new(4, 4, 7);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let cfg = RunConfig::new(4, 800.0, 3);
    let dir = std::env::temp_dir().join("hypertune-it-wrong-method");
    let path = dir.join("snap.json");
    let policy = CheckpointPolicy::new(&path, 5);
    let mut m = MethodKind::Asha.build(&levels, 3);
    run_checkpointed(m.as_mut(), &bench, &cfg, &policy).unwrap();
    let snapshot = RunSnapshot::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let mut wrong = MethodKind::ARandom.build(&levels, 3);
    match resume(wrong.as_mut(), &bench, &cfg, &snapshot) {
        Err(ResumeError::Diverged { .. }) => {}
        other => panic!("expected Diverged, got {other:?}"),
    }
}
