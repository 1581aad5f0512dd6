//! Determinism probe for the flat-dispatch refactor: runs the simulated
//! runner for every registered method and prints an FNV-1a fingerprint of
//! the full measurement stream (configs, levels, values, costs, virtual
//! timestamps — everything the scheduler decided).
//!
//! Used as a before/after harness when refactoring dispatch internals:
//! run it on the old tree and the new tree and diff the output. The sim
//! runner drives methods through `next_jobs(ctx, 1)`, so equal
//! fingerprints pin the k ≤ 1 path bit-identical across the refactor for
//! all registry methods.
//!
//! A second arm pins the fault path: five methods × two seeds under every
//! failure the simulator can produce at once — crashed, errored, hanging
//! (killed by a job timeout) and corrupt attempts, worker crashes whose
//! orphans come back through a lease, straggler backups and a circuit
//! breaker. Each line adds the run's retry/quarantine accounting, so a
//! change to the retry ladder shows up even where the stream does not.

use hypertune::prelude::*;

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

fn fingerprint(r: &RunResult, space: &ConfigSpace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in &r.measurements {
        for x in space.encode(&m.config) {
            fnv(&mut h, x.to_bits());
        }
        fnv(&mut h, m.level as u64);
        fnv(&mut h, m.value.to_bits());
        fnv(&mut h, m.cost.to_bits());
        fnv(&mut h, m.finished_at.to_bits());
    }
    fnv(&mut h, r.best_value.to_bits());
    fnv(&mut h, r.total_evals as u64);
    h
}

/// Every fault the simulator injects, all at once.
fn faulty(config: &mut RunConfig, seed: u64) {
    config.faults = Some(FaultSpec {
        crash_prob: 0.08,
        error_prob: 0.06,
        hang_prob: 0.06,
        corrupt_prob: 0.06,
        hang_factor: 30.0,
    });
    config.job_timeout = Some(2400.0);
    config.straggler = Some((0.15, 6.0));
    config.membership =
        Some(MembershipPlan::worker_crashes(0.05, Some(60.0), seed).with_lease_timeout(120.0));
    config.speculation = Some(SpeculationConfig::default());
    config.retry = RetryPolicy {
        max_retries: 1,
        backoff_base: 5.0,
        backoff_mult: 2.0,
    };
    config.breaker = Some(BreakerConfig {
        window: 10,
        open_threshold: 0.2,
        close_threshold: 0.1,
        min_samples: 5,
    });
}

fn main() {
    for &kind in MethodKind::all() {
        for seed in [3u64, 17] {
            // Float-heavy space: model-based samplers actually fit their
            // surrogates and run acquisition, exercising the batch pool.
            let bench = tasks::xgboost_covertype(seed);
            let levels = ResourceLevels::new(bench.max_resource(), 3);
            let mut method = kind.build(&levels, seed);
            let mut config = RunConfig::new(8, 3.0 * 3600.0, seed);
            config.max_evals = 120;
            let r = run(method.as_mut(), &bench, &config);
            println!(
                "{:<28} seed={:<3} fp={:016x} best={:+.6e} evals={}",
                kind.name(),
                seed,
                fingerprint(&r, bench.space()),
                r.best_value,
                r.total_evals
            );
        }
    }
    for kind in [
        MethodKind::HyperTune,
        MethodKind::Asha,
        MethodKind::ABohb,
        MethodKind::Hyperband,
        MethodKind::BatchBo,
    ] {
        for seed in [3u64, 17] {
            let bench = tasks::xgboost_covertype(seed);
            let levels = ResourceLevels::new(bench.max_resource(), 3);
            let mut method = kind.build(&levels, seed);
            let mut config = RunConfig::new(8, 3.0 * 3600.0, seed);
            config.max_evals = 120;
            faulty(&mut config, seed);
            let r = run(method.as_mut(), &bench, &config);
            println!(
                "faults {:<21} seed={:<3} fp={:016x} evals={} failed={} retried={} \
                 quarantined={} orphaned={} speculated={} backup_wins={} breaker_trips={} [{}]",
                kind.name(),
                seed,
                fingerprint(&r, bench.space()),
                r.total_evals,
                r.n_failed_attempts,
                r.n_retries,
                r.n_quarantined,
                r.n_orphaned,
                r.n_speculations,
                r.n_backup_wins,
                r.n_breaker_trips,
                r.failure_counts
            );
        }
    }
}
