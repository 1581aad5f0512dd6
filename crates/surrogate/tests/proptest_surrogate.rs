//! Property-based tests on surrogate-model invariants.

use hypertune_surrogate::{ensemble::MfEnsemble, Predictor, RandomForest, SurrogateModel};
use proptest::prelude::*;

fn dataset(xs_raw: &[(f64, f64)], f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = xs_raw.iter().map(|&(a, b)| vec![a, b]).collect();
    let ys: Vec<f64> = xs_raw.iter().map(|&(a, b)| f(a, b)).collect();
    (xs, ys)
}

proptest! {
    /// RF predictions are always finite with non-negative variance, and
    /// the predictive mean lies within the observed target range.
    #[test]
    fn rf_predictions_well_formed(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..40),
        query in (0.0f64..1.0, 0.0f64..1.0),
        seed in any::<u64>(),
    ) {
        let (xs, ys) = dataset(&points, |a, b| (3.0 * a).sin() + b);
        let mut rf = RandomForest::new(seed);
        rf.fit(&xs, &ys).unwrap();
        let p = SurrogateModel::predict(&rf, &[query.0, query.1]).unwrap();
        prop_assert!(p.mean.is_finite());
        prop_assert!(p.var >= 0.0);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Leaf means are averages of targets, so the forest mean is a
        // convex combination of observed values.
        prop_assert!(p.mean >= lo - 1e-9 && p.mean <= hi + 1e-9);
    }

    /// The MFES ensemble mean is a convex combination of member means and
    /// its variance never exceeds the largest member variance.
    #[test]
    fn ensemble_combination_bounds(
        means in proptest::collection::vec(-10.0f64..10.0, 1..6),
        vars in proptest::collection::vec(0.0f64..5.0, 1..6),
        weights in proptest::collection::vec(0.01f64..1.0, 1..6),
    ) {
        let k = means.len().min(vars.len()).min(weights.len());
        struct Fixed(f64, f64);
        impl Predictor for Fixed {
            fn predict(&self, _x: &[f64]) -> Result<hypertune_surrogate::Prediction, hypertune_surrogate::SurrogateError> {
                Ok(hypertune_surrogate::Prediction::new(self.0, self.1))
            }
        }
        let members: Vec<Fixed> = (0..k).map(|i| Fixed(means[i], vars[i])).collect();
        let pairs: Vec<(&dyn Predictor, f64)> = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m as &dyn Predictor, weights[i]))
            .collect();
        let ens = MfEnsemble::new(pairs).unwrap();
        let p = ens.predict(&[0.0]).unwrap();
        let lo = means[..k].iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = means[..k].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p.mean >= lo - 1e-9 && p.mean <= hi + 1e-9);
        let vmax = vars[..k].iter().cloned().fold(0.0f64, f64::max);
        // Σ wᵢ² σᵢ² <= (Σ wᵢ)² max σ² = max σ².
        prop_assert!(p.var <= vmax + 1e-9);
    }

    /// Refitting on the same data is deterministic for a fixed seed.
    #[test]
    fn rf_refit_deterministic(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3..20),
        seed in any::<u64>(),
    ) {
        let (xs, ys) = dataset(&points, |a, b| a + 2.0 * b);
        let mut a = RandomForest::new(seed);
        let mut b = RandomForest::new(seed);
        a.fit(&xs, &ys).unwrap();
        b.fit(&xs, &ys).unwrap();
        for x in &xs {
            prop_assert_eq!(
                SurrogateModel::predict(&a, x).unwrap(),
                SurrogateModel::predict(&b, x).unwrap()
            );
        }
    }
}
