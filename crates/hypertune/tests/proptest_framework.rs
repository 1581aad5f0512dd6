//! Property-based tests on framework invariants: bracket state machines,
//! selector distributions, and runner accounting under arbitrary inputs.

use hypertune::core::allocator::BracketSelector;
use hypertune::core::bracket::{AsyncBracket, SyncBracket};
use hypertune::core::ranking::ranking_loss;
use hypertune::prelude::*;
use hypertune::space::ParamValue;
use proptest::prelude::*;

fn cfg(v: f64) -> Config {
    Config::new(vec![ParamValue::Float(v)])
}

proptest! {
    /// SyncBracket always terminates, never dispatches more jobs per rung
    /// than its schedule says, and the survivor of a noise-free bracket is
    /// among the best of its seeds.
    #[test]
    fn sync_bracket_respects_schedule(values in proptest::collection::vec(0.0f64..1.0, 27)) {
        let levels = ResourceLevels::new(27.0, 3);
        let mut b = SyncBracket::new(&levels, 0);
        let mut idx = 0;
        while b.needs_configs() > 0 {
            // Duplicate values are fine; make configs unique by index.
            b.add_config(cfg(values[idx] + idx as f64 * 1e-12));
            idx += 1;
        }
        let schedule = levels.bracket_schedule(0);
        for (rung, &(n, _)) in schedule.iter().enumerate() {
            let mut jobs = Vec::new();
            while let Some((c, lvl)) = b.next_job() {
                prop_assert_eq!(lvl, rung);
                jobs.push(c);
            }
            prop_assert_eq!(jobs.len(), n);
            for c in jobs {
                let v = c.values()[0].as_f64().unwrap();
                b.on_result(c, v);
            }
        }
        prop_assert!(b.is_done());
    }

    /// D-ASHA's delay quota bounds cumulative promotions out of the base
    /// rung by |D_0|/eta under any interleaving — the sample-efficiency
    /// guarantee that vanilla ASHA lacks (its cumulative promotions can
    /// exceed the quota when later, better configs displace earlier
    /// promotions from the top 1/eta: the "inaccurate promotions" of
    /// §4.2). For ASHA we assert only the weaker per-config property.
    #[test]
    fn async_bracket_promotion_quota(
        values in proptest::collection::vec(0.0f64..1.0, 3..50),
        delay in any::<bool>(),
        interleave in any::<u8>(),
    ) {
        let levels = ResourceLevels::new(27.0, 3);
        let mut b = AsyncBracket::new(&levels, 0, delay);
        let mut promoted_configs: Vec<Config> = Vec::new();
        let mut results_at_0 = 0usize;
        for (i, &v) in values.iter().enumerate() {
            b.add_base_job();
            b.on_result(cfg(v + i as f64 * 1e-12), 0, v);
            results_at_0 += 1;
            // Interleave promotion attempts pseudo-randomly.
            if i % (1 + (interleave % 3) as usize) == 0 {
                while let Some((c, lvl)) = b.try_promote() {
                    if lvl == 1 {
                        // No config is ever promoted twice from a rung.
                        prop_assert!(!promoted_configs.contains(&c));
                        promoted_configs.push(c.clone());
                    }
                    let v = c.values()[0].as_f64().unwrap();
                    b.on_result(c, lvl, v);
                }
            }
            if delay {
                prop_assert!(promoted_configs.len() * 3 <= results_at_0,
                    "{} promotions from {results_at_0} results", promoted_configs.len());
            }
        }
    }

    /// Selector weights are a probability distribution for any θ.
    #[test]
    fn selector_weights_normalized(theta in proptest::collection::vec(0.0f64..10.0, 4)) {
        let levels = ResourceLevels::new(27.0, 3);
        let mut s = BracketSelector::new(&levels);
        s.update_theta(&theta);
        if let Some(w) = s.weights() {
            let sum: f64 = w.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(w.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        } else {
            // Only possible when θ was all zeros.
            prop_assert!(theta.iter().all(|&t| t == 0.0));
        }
    }

    /// Ranking loss is symmetric under common permutation and bounded by
    /// the number of pairs.
    #[test]
    fn ranking_loss_bounds(ys in proptest::collection::vec(-10.0f64..10.0, 2..20), shift in -5.0f64..5.0) {
        let preds: Vec<f64> = ys.iter().map(|y| y + shift).collect();
        // A rank-preserving transform has zero loss.
        prop_assert_eq!(ranking_loss(&preds, &ys), 0);
        // Any predictions are bounded by n(n-1)/2.
        let rev: Vec<f64> = ys.iter().map(|y| -y).collect();
        let n = ys.len();
        prop_assert!(ranking_loss(&rev, &ys) <= n * (n - 1) / 2);
    }

    /// Runner accounting: evals_per_level sums to total_evals and the
    /// recorded curve is monotone, for arbitrary worker counts/budgets.
    #[test]
    fn runner_accounting(n_workers in 1usize..10, budget in 200.0f64..1500.0, seed in 0u64..50) {
        let bench = CountingOnes::new(3, 3, 9);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::Asha.build(&levels, seed);
        let r = run(method.as_mut(), &bench, &RunConfig::new(n_workers, budget, seed));
        prop_assert_eq!(r.evals_per_level.iter().sum::<usize>(), r.total_evals);
        for w in r.curve.windows(2) {
            prop_assert!(w[1].value <= w[0].value);
            prop_assert!(w[1].time >= w[0].time);
        }
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.utilization));
    }
}

proptest! {
    /// Resume-from-snapshot is bit-identical to the uninterrupted run,
    /// across methods, seeds, checkpoint intervals, and fault rates: the
    /// core guarantee of the WAL-replay design.
    #[test]
    fn resume_equals_uninterrupted_run(
        kind_idx in 0usize..5,
        seed in 0u64..1000,
        every in 3usize..12,
        crash in 0.0f64..0.25,
    ) {
        let kind = [
            MethodKind::ARandom,
            MethodKind::Asha,
            MethodKind::AHyperband,
            MethodKind::HyperTune,
            MethodKind::Hyperband,
        ][kind_idx];
        let bench = CountingOnes::new(3, 3, 9);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut cfg = RunConfig::new(3, 600.0, seed);
        if crash > 0.01 {
            cfg.faults = Some(FaultSpec::crashes(crash));
        }

        let mut m_full = kind.build(&levels, seed);
        let full = run(m_full.as_mut(), &bench, &cfg);

        let dir = std::env::temp_dir().join(format!(
            "hypertune-pt-resume-{kind_idx}-{seed}-{every}"
        ));
        let path = dir.join("snap.json");
        let policy = CheckpointPolicy::new(&path, every);
        let mut m_ckpt = kind.build(&levels, seed);
        run_checkpointed(m_ckpt.as_mut(), &bench, &cfg, &policy).unwrap();

        if path.exists() {
            let snapshot = RunSnapshot::load(&path).unwrap();
            let mut m_res = kind.build(&levels, seed);
            let resumed = resume(m_res.as_mut(), &bench, &cfg, &snapshot).unwrap();
            prop_assert_eq!(&resumed.measurements, &full.measurements);
            prop_assert_eq!(resumed.best_value, full.best_value);
            prop_assert_eq!(resumed.n_quarantined, full.n_quarantined);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
