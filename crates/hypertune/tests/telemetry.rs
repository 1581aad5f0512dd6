//! Telemetry integration: the disabled/enabled bit-identity guarantee,
//! same-seed trace determinism, and agreement between the event log, the
//! metrics registry, and the method's own diagnostics.

use std::sync::Arc;

use hypertune::core::methods::{AsyncHb, BracketPolicy};
use hypertune::core::sampler::MfesSampler;
use hypertune::core::{run_threaded, ThreadedRunConfig};
use hypertune::prelude::*;
use proptest::prelude::*;

/// Zeroes the wall-clock parts of a trace (span durations and the close
/// timestamps derived from them) so two same-seed runs compare equal.
fn scrub_spans(records: Vec<EventRecord>) -> Vec<EventRecord> {
    records
        .into_iter()
        .map(|mut r| {
            if let Event::SpanClosed { duration, .. } = &mut r.event {
                *duration = 0.0;
                r.time = 0.0;
            }
            r
        })
        .collect()
}

#[test]
fn enabled_telemetry_leaves_sim_run_bit_identical() {
    // Tracing must observe, never perturb: a traced run (ring sink) and
    // an untraced run with the same seed agree on every measurement bit,
    // with fault injection and retries in the mix.
    let bench = CountingOnes::new(4, 4, 0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut cfg = RunConfig::new(6, 1500.0, 11);
    cfg.faults = Some(FaultSpec::crashes(0.1));

    let mut m_plain = MethodKind::HyperTune.build(&levels, 11);
    let plain = run(m_plain.as_mut(), &bench, &cfg);

    let ring = RingBufferSink::new(1 << 16);
    let mut traced_cfg = cfg.clone();
    traced_cfg.telemetry = Telemetry::new().with_sink(ring.clone()).build();
    let mut m_traced = MethodKind::HyperTune.build(&levels, 11);
    let traced = run(m_traced.as_mut(), &bench, &traced_cfg);

    assert_eq!(traced.measurements, plain.measurements);
    assert_eq!(traced.curve, plain.curve);
    assert_eq!(traced.best_value.to_bits(), plain.best_value.to_bits());
    assert_eq!(traced.n_failed_attempts, plain.n_failed_attempts);
    assert_eq!(traced.n_quarantined, plain.n_quarantined);
    assert_eq!(traced.failure_counts, plain.failure_counts);
    assert!(plain.n_failed_attempts > 0, "faults should have fired");
    assert!(!ring.snapshot().is_empty(), "the trace should be non-empty");
}

#[test]
fn enabled_telemetry_leaves_threaded_run_bit_identical() {
    // Same guarantee on the OS-thread substrate. One worker keeps the
    // completion order deterministic; timestamps are wall-clock there, so
    // the comparison covers everything except `finished_at`.
    let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 0));
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let cfg = ThreadedRunConfig::new(1, 40, 7);

    let mut m_plain = MethodKind::HyperTune.build(&levels, 7);
    let plain = run_threaded(m_plain.as_mut(), Arc::clone(&bench), &cfg);

    let ring = RingBufferSink::new(1 << 16);
    let mut traced_cfg = ThreadedRunConfig::new(1, 40, 7);
    traced_cfg.telemetry = Telemetry::new().with_sink(ring.clone()).build();
    let mut m_traced = MethodKind::HyperTune.build(&levels, 7);
    let traced = run_threaded(m_traced.as_mut(), bench, &traced_cfg);

    let key = |r: &hypertune::core::Measurement| {
        (
            r.config.clone(),
            r.level,
            r.resource.to_bits(),
            r.value.to_bits(),
            r.test_value.to_bits(),
            r.cost.to_bits(),
        )
    };
    assert_eq!(
        traced.measurements.iter().map(key).collect::<Vec<_>>(),
        plain.measurements.iter().map(key).collect::<Vec<_>>()
    );
    assert_eq!(traced.best_value.to_bits(), plain.best_value.to_bits());
    assert_eq!(traced.total_evals, plain.total_evals);
    assert_eq!(traced.evals_per_level, plain.evals_per_level);
    assert!(!ring.snapshot().is_empty());
}

#[test]
fn trace_summary_matches_run_and_diagnostics() {
    // The reconstruction guarantee behind `trace-report`: folding the
    // JSONL log back recovers the run's promotion counts, retry and
    // quarantine tallies, and the full bracket-weight (θ) trajectory, all
    // of which the engine also tracks internally.
    let bench = CountingOnes::new(4, 4, 0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut method = AsyncHb::new(
        "Hyper-Tune".into(),
        &levels,
        BracketPolicy::learned(&levels),
        true,
        Box::new(MfesSampler::new(5)),
        5,
    );

    let dir = std::env::temp_dir().join("hypertune-it-telemetry-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let mut cfg = RunConfig::new(6, 1200.0, 5);
    cfg.faults = Some(FaultSpec::crashes(0.15));
    cfg.telemetry = Telemetry::new()
        .with_sink(JsonlSink::create(&path).unwrap())
        .build();
    let result = run(&mut method, &bench, &cfg);

    let records = read_jsonl(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Sequence numbers are strictly monotone over the whole log.
    assert!(records.windows(2).all(|w| w[1].seq > w[0].seq));

    let summary = TraceSummary::from_records(&records);
    let diag = method.diagnostics();

    for (b, &n) in diag.bracket_promotions.iter().enumerate() {
        assert_eq!(summary.promotions_by_bracket(b), n, "bracket {b}");
    }
    let completed: usize = summary.levels.values().map(|f| f.completed).sum();
    assert_eq!(completed, result.total_evals);
    let retried: usize = summary.levels.values().map(|f| f.retried).sum();
    assert_eq!(retried, result.n_retries);
    let quarantined: usize = summary.levels.values().map(|f| f.quarantined).sum();
    assert_eq!(quarantined, result.n_quarantined);
    let faults: usize = summary.faults.values().sum();
    assert_eq!(faults, result.n_failed_attempts);
    assert_eq!(result.failure_counts.total(), result.n_failed_attempts);

    // The weight trajectory in the log is exactly the θ history.
    assert_eq!(summary.weight_rounds.len(), diag.theta_history.len());
    for (round, (n_full, theta)) in summary.weight_rounds.iter().zip(&diag.theta_history) {
        assert_eq!(round.n_full, *n_full);
        assert_eq!(&round.theta, theta);
    }
    assert!(
        !summary.weight_rounds.is_empty(),
        "θ should have refreshed at least once"
    );
}

#[test]
fn theta_is_estimated_only_where_something_consumes_it() {
    // θ costs K forest fits plus cross-validation per refresh, so the
    // engines estimate it only for a learned bracket policy or an MFES
    // sampler. Every other method must leave no trace of it.
    let consumers = [
        MethodKind::HyperTune,
        MethodKind::HyperTuneNoBs,
        MethodKind::HyperTuneNoDasha,
        MethodKind::HyperTuneNoMfes,
        MethodKind::HyperTuneTpe,
        MethodKind::AHyperbandBs,
        MethodKind::ABohbBs,
    ];
    let bench = CountingOnes::new(4, 4, 0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    for &kind in MethodKind::all() {
        let ring = RingBufferSink::new(1 << 16);
        let mut cfg = RunConfig::new(4, 1e9, 9);
        cfg.max_evals = 120;
        cfg.telemetry = Telemetry::new().with_sink(ring.clone()).build();
        let mut method = kind.build(&levels, 9);
        let result = run(method.as_mut(), &bench, &cfg);
        assert_eq!(result.total_evals, 120, "{kind:?}");
        let records = ring.snapshot();
        let updated = records
            .iter()
            .any(|r| matches!(r.event, Event::BracketWeightsUpdated { .. }));
        let refresh_spans = records
            .iter()
            .any(|r| matches!(&r.event, Event::SpanClosed { name, .. } if name == "theta_refresh"));
        assert_eq!(updated, consumers.contains(&kind), "{kind:?}");
        assert_eq!(refresh_spans, updated, "{kind:?}");
    }
}

#[test]
fn metrics_registry_matches_run_accounting() {
    let bench = CountingOnes::new(4, 4, 0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut cfg = RunConfig::new(4, 1000.0, 3);
    cfg.faults = Some(FaultSpec::crashes(0.1));
    cfg.telemetry = Telemetry::new().build();
    let mut method = MethodKind::HyperTune.build(&levels, 3);
    let result = run(method.as_mut(), &bench, &cfg);

    // An untouched counter has no entry, so compare through unwrap_or(0).
    let snap = cfg.telemetry.snapshot().unwrap();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("trials.completed"), result.total_evals as u64);
    assert_eq!(
        counter("trials.failed_attempts"),
        result.n_failed_attempts as u64
    );
    assert_eq!(counter("trials.retried"), result.n_retries as u64);
    assert_eq!(counter("trials.quarantined"), result.n_quarantined as u64);
    assert!(result.n_failed_attempts > 0, "faults should have fired");
    // Attempts are fresh dispatches plus retry resubmissions; every one
    // either completes, fails, or is still in flight when the budget runs
    // out (at most one job per worker).
    let attempts = counter("trials.dispatched") as usize + result.n_retries;
    let finished = result.total_evals + result.n_failed_attempts;
    assert!(attempts >= finished);
    assert!(attempts <= finished + 4);
    let costs = snap.histogram("trial.cost").unwrap();
    assert_eq!(costs.count, result.total_evals as u64);
}

proptest! {
    /// Same seed, same trace: two traced runs emit identical event
    /// sequences (sequence numbers, virtual timestamps, payloads) modulo
    /// wall-clock span durations, across seeds and fault rates.
    #[test]
    fn same_seed_runs_emit_identical_event_sequences(seed in 0u64..500, crash in 0.0f64..0.2) {
        let bench = CountingOnes::new(3, 3, 9);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut cfg = RunConfig::new(3, 400.0, seed);
        if crash > 0.02 {
            cfg.faults = Some(FaultSpec::crashes(crash));
        }
        let mut logs = Vec::new();
        for _ in 0..2 {
            let ring = RingBufferSink::new(1 << 16);
            let mut c = cfg.clone();
            c.telemetry = Telemetry::new().with_sink(ring.clone()).build();
            let mut m = MethodKind::HyperTune.build(&levels, seed);
            let _ = run(m.as_mut(), &bench, &c);
            logs.push(scrub_spans(ring.snapshot()));
        }
        prop_assert!(!logs[0].is_empty());
        prop_assert_eq!(&logs[0], &logs[1]);
        prop_assert!(logs[0].windows(2).all(|w| w[1].seq == w[0].seq + 1));
    }
}
