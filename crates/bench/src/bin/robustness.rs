//! §5 robustness hypothesis: "Hyper-Tune is more robust to the
//! low-fidelity measurements with different scales of noises".
//!
//! Part 1 sweeps the benchmark's low-fidelity observation noise over
//! three scales and compares converged performance of methods that trust
//! low fidelities blindly (ASHA), methods that ignore them (A-BOHB), and
//! Hyper-Tune, whose ranking-loss weights `θ` down-weight noisy levels
//! automatically. Expected shape: Hyper-Tune's degradation as noise grows
//! is the smallest of the three families.
//!
//! Part 2 sweeps the *worker crash rate* instead: jobs are killed
//! mid-evaluation with probability p, retried under the default
//! [`RetryPolicy`], and quarantined when hopeless. Synchronous methods
//! pay for every failure at their rung barriers (a lost job delays the
//! whole rung), while asynchronous methods re-fill the freed worker
//! immediately — so Hyperband/BOHB degrade faster with p than
//! ASHA/Hyper-Tune. This is the fault-injection analogue of the paper's
//! straggler argument for asynchronous scheduling (§4.2).
//!
//! Part 3 sweeps *worker churn* with the full elastic stack enabled —
//! lease-based orphan recovery, speculative re-execution, and the
//! degradation-ladder circuit breaker — and writes the chaos run's
//! telemetry to a JSONL trace so `trace-report` can audit exactly-once
//! trial accounting (the CI chaos-smoke step greps for `0 duplicated`).
//!
//! Run with: `cargo run --release -p hypertune-bench --bin robustness`
//!
//! Environment:
//! - `HYPERTUNE_FULL=1` runs ten repetitions instead of three;
//! - `HYPERTUNE_BUDGET_DIV=<d>` divides the paper budgets by `d` (a
//!   finite number of at least 1; anything else exits with status 2);
//! - `HYPERTUNE_CHAOS_ONLY=1` skips parts 1–2 (the CI chaos-smoke path);
//! - `HYPERTUNE_CHAOS_TRACE=<path>` overrides the churn trace location
//!   (default `target/chaos-trace.jsonl`).

use hypertune::prelude::*;
use hypertune_bench::{evaluate_method, report, MethodSummary, Scale};
use std::path::PathBuf;

fn noisy_covertype(noise_mult: f64, seed: u64) -> SyntheticBenchmark {
    SyntheticSpec {
        name: format!("covertype-noise{noise_mult}"),
        space: tasks::xgboost_space(),
        max_resource: 27.0,
        err_best: 0.060,
        err_worst: 0.140,
        err_init: 0.63,
        shape: 2.0,
        kappa: (2.5, 9.0),
        noise_full: 0.0008 * noise_mult,
        cost_per_unit: 900.0 / 27.0,
        cost_spread: 6.0,
        val_test_gap: 0.0008,
        seed: 1000 + seed,
    }
    .build()
}

fn main() {
    let scale = scale_from_env();
    if std::env::var("HYPERTUNE_CHAOS_ONLY").is_err() {
        noise_sweep(scale);
        fault_sweep(scale);
    }
    churn_sweep(scale);
}

/// The scale `HYPERTUNE_FULL` and `HYPERTUNE_BUDGET_DIV` ask for.
fn scale_from_env() -> Scale {
    let budget_div = match std::env::var("HYPERTUNE_BUDGET_DIV") {
        Err(_) => 1.0,
        Ok(v) => Scale::parse_div(&v).unwrap_or_else(|| {
            eprintln!("HYPERTUNE_BUDGET_DIV must be a finite number >= 1, got `{v}`");
            std::process::exit(2);
        }),
    };
    Scale {
        full: std::env::var("HYPERTUNE_FULL").is_ok_and(|v| v == "1"),
        budget_div,
    }
}

/// Part 1: converged error vs low-fidelity noise scale.
fn noise_sweep(scale: Scale) {
    report::header(
        "Robustness: converged error vs low-fidelity noise scale",
        scale,
    );
    let budget = scale.budget(3.0);
    let methods = [
        MethodKind::Asha,
        MethodKind::Bohb,
        MethodKind::ABohb,
        MethodKind::MfesHb,
        MethodKind::HyperTune,
    ];

    println!("\n{:<14}", "noise scale");
    let mut rows: Vec<(f64, Vec<MethodSummary>)> = Vec::new();
    for &mult in &[1.0, 4.0, 16.0] {
        let bench = noisy_covertype(mult, 0);
        let config = RunConfig::new(8, budget, 700);
        let mut summaries = Vec::new();
        for kind in methods {
            summaries.push(evaluate_method(kind, &bench, &config, 4, scale));
        }
        rows.push((mult, summaries));
    }

    print!("{:<12}", "noise x");
    for kind in methods {
        print!(" {:>22}", kind.name());
    }
    println!();
    for (mult, summaries) in &rows {
        print!("{mult:<12}");
        for s in summaries {
            print!(
                " {:>22}",
                format!("{:.4} ± {:.4}", s.mean_final(), s.std_final())
            );
        }
        println!();
    }

    // Degradation from the cleanest to the noisiest setting.
    println!("\ndegradation (noisiest − cleanest converged error):");
    for (i, kind) in methods.iter().enumerate() {
        let clean = rows[0].1[i].mean_final();
        let noisy = rows.last().unwrap().1[i].mean_final();
        println!("{:<24} {:+.4}", kind.name(), noisy - clean);
    }

    let flat: Vec<MethodSummary> = rows.into_iter().flat_map(|(_, s)| s).collect();
    report::write_json(
        &PathBuf::from("results/robustness.json"),
        "robustness",
        &flat,
    )
    .expect("write results");
    println!("\nseries written to results/robustness.json");
}

/// Part 2: converged error vs worker crash rate, sync vs async families.
fn fault_sweep(scale: Scale) {
    report::header("Robustness: converged error vs worker crash rate", scale);
    let budget = scale.budget(3.0);
    let methods = [
        MethodKind::Hyperband, // sync
        MethodKind::Bohb,      // sync
        MethodKind::Asha,      // async
        MethodKind::HyperTune, // async
    ];
    let rates = [0.0, 0.1, 0.3];
    let bench = noisy_covertype(1.0, 0);

    let mut rows: Vec<(f64, Vec<MethodSummary>)> = Vec::new();
    for &p in &rates {
        let mut config = RunConfig::new(8, budget, 900);
        if p > 0.0 {
            config.faults = Some(FaultSpec::crashes(p));
        }
        let mut summaries = Vec::new();
        for kind in methods {
            summaries.push(evaluate_method(kind, &bench, &config, 4, scale));
        }
        rows.push((p, summaries));
    }

    print!("{:<12}", "crash p");
    for kind in methods {
        print!(" {:>22}", kind.name());
    }
    println!();
    for (p, summaries) in &rows {
        print!("{p:<12}");
        for s in summaries {
            print!(
                " {:>22}",
                format!("{:.4} ± {:.4}", s.mean_final(), s.std_final())
            );
        }
        println!();
    }

    // Regret vs the method's own fault-free run: how much each scheduler
    // family loses as the crash rate climbs.
    println!("\nregret vs fault-free self (converged error increase):");
    print!("{:<24}", "method");
    for &p in &rates[1..] {
        print!(" {:>12}", format!("p={p}"));
    }
    println!();
    for (i, kind) in methods.iter().enumerate() {
        let clean = rows[0].1[i].mean_final();
        print!("{:<24}", kind.name());
        for row in &rows[1..] {
            print!(" {:>12}", format!("{:+.4}", row.1[i].mean_final() - clean));
        }
        println!();
    }

    // Failure accounting at the highest rate (sanity: faults really fired
    // and the retry/quarantine machinery handled them), broken down by
    // failure mode through the runner's per-`JobStatus` tallies.
    println!("\nat p = {} (summed over runs):", rates.last().unwrap());
    for (i, kind) in methods.iter().enumerate() {
        let runs = &rows.last().unwrap().1[i].runs;
        let mut counts = FailureCounts::default();
        let (mut retries, mut quarantined) = (0, 0);
        for r in runs {
            counts.merge(&r.failure_counts);
            retries += r.n_retries;
            quarantined += r.n_quarantined;
        }
        println!(
            "{:<24} {counts}  (retries {retries}, quarantined {quarantined})",
            kind.name()
        );
    }

    let flat: Vec<MethodSummary> = rows.into_iter().flat_map(|(_, s)| s).collect();
    report::write_json(
        &PathBuf::from("results/robustness_faults.json"),
        "robustness_faults",
        &flat,
    )
    .expect("write results");
    println!("\nseries written to results/robustness_faults.json");
}

/// Part 3: worker churn with the full elastic stack (lease-based orphan
/// recovery, speculative re-execution, degradation-ladder breaker). The
/// highest-churn Hyper-Tune run streams its telemetry to a JSONL trace,
/// which is then replayed through [`TraceSummary`] to audit exactly-once
/// trial accounting; CI repeats the audit via the `trace-report` binary.
fn churn_sweep(scale: Scale) {
    report::header(
        "Robustness: elastic churn (lease recovery + speculation + breaker)",
        scale,
    );
    let methods = [MethodKind::Asha, MethodKind::HyperTune];
    let rates = [0.0, 0.05, 0.15];
    // Cheap objective + fixed virtual budget: churn behaviour is about
    // the execution layer, not the response surface, and the fixed
    // budget keeps the sweep (and the CI smoke) fast and deterministic.
    let bench = CountingOnes::new(4, 4, 0);
    let budget = 1500.0;
    let trace_path = std::env::var("HYPERTUNE_CHAOS_TRACE")
        .unwrap_or_else(|_| "target/chaos-trace.jsonl".to_string());

    println!(
        "{:<10} {:<24} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "churn p", "method", "best", "orphaned", "retried", "specul", "wins", "breaker"
    );
    for (ri, &p) in rates.iter().enumerate() {
        for kind in methods {
            let mut config = RunConfig::new(8, budget, 1100);
            if p > 0.0 {
                config.membership = Some(
                    MembershipPlan::worker_crashes(p, Some(5.0), 1100 + ri as u64)
                        .with_lease_timeout(10.0),
                );
            }
            config.speculation = Some(SpeculationConfig::default());
            config.breaker = Some(BreakerConfig::default());
            config.retry = RetryPolicy::default_policy();
            let traced = ri + 1 == rates.len() && kind == MethodKind::HyperTune;
            if traced {
                // The default path sits under `target/`, which a run from
                // outside the repository does not have.
                if let Some(dir) = std::path::Path::new(&trace_path).parent() {
                    std::fs::create_dir_all(dir).expect("create the chaos trace's directory");
                }
                config.telemetry = Telemetry::new()
                    .with_sink(JsonlSink::create(&trace_path).expect("create chaos trace"))
                    .build();
            }
            let levels = ResourceLevels::new(bench.max_resource(), 3);
            let mut method = kind.build(&levels, config.seed);
            let r = run(method.as_mut(), &bench, &config);
            assert_eq!(
                r.failure_counts.orphaned, r.n_orphaned,
                "orphan accounting diverged"
            );
            println!(
                "{:<10} {:<24} {:>10.4} {:>9} {:>8} {:>8} {:>8} {:>8}",
                p,
                kind.name(),
                r.best_value,
                r.n_orphaned,
                r.n_retries,
                r.n_speculations,
                r.n_backup_wins,
                r.n_breaker_trips,
            );
        }
    }

    // Replay the traced run and reconcile: every dispatched trial must be
    // completed, quarantined, or still in flight at log end — and no
    // trial may appear twice.
    let records = read_jsonl(&trace_path).expect("read chaos trace");
    let summary = TraceSummary::from_records(&records);
    assert!(summary.workers_left > 0, "churn plan never fired");
    assert_eq!(
        summary.duplicated_trials(),
        0,
        "duplicated trials under churn"
    );
    println!(
        "\nchaos trace -> {trace_path} ({} events; {} departures, {} leases expired, 0 duplicated trials)",
        summary.n_records, summary.workers_left, summary.leases_expired
    );
}
