//! Integration tests for the extensions beyond the paper's core: the TPE
//! optimizer slot, classic multi-fidelity test functions, and run
//! diagnostics.

use hypertune::benchmarks::{BraninMf, Hartmann6Mf};
use hypertune::core::methods::{AsyncHb, BracketPolicy};
use hypertune::core::sampler::RandomSampler;
use hypertune::prelude::*;

fn run_kind(kind: MethodKind, bench: &dyn Benchmark, budget: f64, seed: u64) -> RunResult {
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut method = kind.build(&levels, seed);
    run(method.as_mut(), bench, &RunConfig::new(4, budget, seed))
}

#[test]
fn tpe_variants_run_and_improve_over_time() {
    let bench = tasks::xgboost_pokerhand(0);
    for kind in [MethodKind::BohbTpe, MethodKind::HyperTuneTpe] {
        let r = run_kind(kind, &bench, 2.0 * 3600.0, 3);
        assert!(r.total_evals > 0, "{}", kind.name());
        assert!(r.best_value.is_finite());
        if r.curve.len() >= 2 {
            assert!(r.curve.last().unwrap().value <= r.curve[0].value);
        }
    }
}

#[test]
fn hypertune_finds_branin_region() {
    let bench = BraninMf::new(10.0, 0);
    let r = run_kind(MethodKind::HyperTune, &bench, 4000.0, 1);
    // Branin's optimum is 0.3979; a short run should get below 2.0
    // (value range spans ~0..300).
    assert!(r.best_value < 3.0, "best {}", r.best_value);
}

#[test]
fn hypertune_reasonable_on_hartmann6() {
    let bench = Hartmann6Mf::new(0);
    let r = run_kind(MethodKind::HyperTune, &bench, 4000.0, 2);
    // Optimum -3.322; random search scores about -1 on this budget.
    assert!(r.best_value < -1.0, "best {}", r.best_value);
}

#[test]
fn diagnostics_track_theta_and_brackets() {
    let bench = tasks::nas_cifar10_valid(0);
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut method = AsyncHb::new(
        "HT-diag".into(),
        &levels,
        BracketPolicy::learned(&levels),
        true,
        Box::new(RandomSampler),
        7,
    );
    let r = run(&mut method, &bench, &RunConfig::new(8, 3.0 * 3600.0, 7));
    assert!(r.total_evals > 0);
    let d = method.diagnostics();
    let starts: usize = d.bracket_starts.iter().sum();
    assert!(starts > 0, "fresh configs recorded");
    // Round-robin init touches every bracket.
    assert!(
        d.bracket_starts.iter().all(|&n| n > 0),
        "{:?}",
        d.bracket_starts
    );
    // Theta was eventually estimated and is a distribution.
    let theta = d.final_theta().expect("theta estimated");
    assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // Promotions happened in at least one bracket.
    assert!(d.bracket_promotions.iter().sum::<usize>() > 0);
    assert!(d.report().contains("final theta"));
}

#[test]
fn classic_functions_report_known_optima() {
    assert_eq!(BraninMf::new(10.0, 0).optimum(), Some(0.397887));
    assert_eq!(Hartmann6Mf::new(0).optimum(), Some(-3.32237));
}
