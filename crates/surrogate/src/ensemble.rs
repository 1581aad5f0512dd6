//! The MFES multi-fidelity ensemble surrogate (Eq. 3 of the paper).
//!
//! Hyper-Tune combines the base surrogates `M_1..M_K` — one per resource
//! level — by *weighted bagging*:
//!
//! ```text
//! μ_MF(x) = Σ_i θ_i μ_i(x)        σ²_MF(x) = Σ_i θ_i² σ_i²(x)
//! ```
//!
//! where `θ_i` is the probability that level `i`'s surrogate best
//! preserves the high-fidelity ranking (computed by the resource
//! allocator's ranking-loss procedure, §4.1). The ensemble is a view over
//! already-fitted base surrogates: it implements [`Predictor`] but not
//! [`crate::SurrogateModel`], since it is never fit on raw data itself.

use crate::model::{row_count, Prediction, Predictor, SurrogateError};

/// Weighted-bagging combination of base surrogates.
pub struct MfEnsemble<'a> {
    members: Vec<(&'a dyn Predictor, f64)>,
}

impl<'a> MfEnsemble<'a> {
    /// Builds an ensemble from `(surrogate, weight)` pairs, keeping only
    /// members with strictly positive weight and renormalizing so the
    /// retained weights sum to one.
    ///
    /// Returns `None` when no member has positive weight.
    pub fn new(members: Vec<(&'a dyn Predictor, f64)>) -> Option<Self> {
        let total: f64 = members.iter().map(|(_, w)| w.max(0.0)).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let members = members
            .into_iter()
            .filter(|(_, w)| *w > 0.0)
            .map(|(m, w)| (m, w / total))
            .collect();
        Some(Self { members })
    }

    /// Number of active (positive-weight) members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no members are active (cannot occur after `new`
    /// succeeds, but kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The normalized weight of member `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.members[i].1
    }
}

impl Predictor for MfEnsemble<'_> {
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError> {
        let mut mean = 0.0;
        let mut var = 0.0;
        for (model, w) in &self.members {
            let p = model.predict(x)?;
            mean += w * p.mean;
            var += w * w * p.var;
        }
        Ok(Prediction::new(mean, var))
    }

    fn predict_rows(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        // Member-major: each base surrogate scores the whole batch with its
        // own fast path (e.g. lockstep forest traversal) before the next
        // member runs. Accumulation order per point matches `predict`
        // (member 0, 1, ...), so results are bit-identical.
        out.clear();
        out.resize(row_count(rows, dim)?, Prediction::new(0.0, 0.0));
        // One buffer for every member's predictions of this batch.
        let mut member_preds = Vec::new();
        for (model, w) in &self.members {
            model.predict_rows(rows, dim, &mut member_preds)?;
            for (sum, p) in out.iter_mut().zip(member_preds.iter()) {
                sum.mean += w * p.mean;
                sum.var += w * w * p.var;
            }
        }
        for sum in out.iter_mut() {
            *sum = Prediction::new(sum.mean, sum.var);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-output stand-in for a fitted surrogate.
    struct Fixed {
        mean: f64,
        var: f64,
    }

    impl Predictor for Fixed {
        fn predict(&self, _x: &[f64]) -> Result<Prediction, SurrogateError> {
            Ok(Prediction::new(self.mean, self.var))
        }
    }

    #[test]
    fn eq3_weighted_mean_and_variance() {
        let a = Fixed {
            mean: 1.0,
            var: 4.0,
        };
        let b = Fixed {
            mean: 3.0,
            var: 1.0,
        };
        let ens = MfEnsemble::new(vec![(&a, 0.25), (&b, 0.75)]).unwrap();
        let p = ens.predict(&[0.0]).unwrap();
        assert!((p.mean - (0.25 * 1.0 + 0.75 * 3.0)).abs() < 1e-12);
        assert!((p.var - (0.0625 * 4.0 + 0.5625 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn weights_renormalized() {
        let a = Fixed {
            mean: 2.0,
            var: 0.0,
        };
        let b = Fixed {
            mean: 4.0,
            var: 0.0,
        };
        // Raw weights sum to 4; behaviour must match (0.5, 0.5).
        let ens = MfEnsemble::new(vec![(&a, 2.0), (&b, 2.0)]).unwrap();
        assert!((ens.predict(&[0.0]).unwrap().mean - 3.0).abs() < 1e-12);
        assert!((ens.weight(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_weights_dropped() {
        let a = Fixed {
            mean: 1.0,
            var: 1.0,
        };
        let b = Fixed {
            mean: 100.0,
            var: 1.0,
        };
        let ens = MfEnsemble::new(vec![(&a, 1.0), (&b, 0.0)]).unwrap();
        assert_eq!(ens.len(), 1);
        assert!((ens.predict(&[0.0]).unwrap().mean - 1.0).abs() < 1e-12);

        let ens = MfEnsemble::new(vec![(&a, 1.0), (&b, -5.0)]).unwrap();
        assert_eq!(ens.len(), 1);
    }

    #[test]
    fn all_zero_weights_rejected() {
        let a = Fixed {
            mean: 1.0,
            var: 1.0,
        };
        assert!(MfEnsemble::new(vec![(&a, 0.0)]).is_none());
        assert!(MfEnsemble::new(vec![]).is_none());
    }

    #[test]
    fn single_member_is_identity() {
        let a = Fixed {
            mean: -2.0,
            var: 3.0,
        };
        let ens = MfEnsemble::new(vec![(&a, 0.7)]).unwrap();
        let p = ens.predict(&[0.5]).unwrap();
        assert!((p.mean + 2.0).abs() < 1e-12);
        assert!((p.var - 3.0).abs() < 1e-12);
    }

    #[test]
    fn predict_batch_matches_per_point_predict() {
        let a = Fixed {
            mean: 1.0,
            var: 4.0,
        };
        let b = Fixed {
            mean: 3.0,
            var: 1.0,
        };
        let ens = MfEnsemble::new(vec![(&a, 0.25), (&b, 0.75)]).unwrap();
        let xs = vec![vec![0.0], vec![0.5], vec![1.0]];
        let batch = ens.predict_batch(&xs).unwrap();
        assert_eq!(batch.len(), xs.len());
        for (x, p) in xs.iter().zip(&batch) {
            assert_eq!(ens.predict(x).unwrap(), *p);
        }
    }

    #[test]
    fn variance_contracts_with_many_agreeing_members() {
        // With k equal members of weight 1/k, Eq. 3 gives var/k — the
        // bagging variance reduction.
        let ms: Vec<Fixed> = (0..4)
            .map(|_| Fixed {
                mean: 1.0,
                var: 1.0,
            })
            .collect();
        let refs: Vec<(&dyn Predictor, f64)> =
            ms.iter().map(|m| (m as &dyn Predictor, 1.0)).collect();
        let ens = MfEnsemble::new(refs).unwrap();
        assert!((ens.predict(&[0.0]).unwrap().var - 0.25).abs() < 1e-12);
    }
}
