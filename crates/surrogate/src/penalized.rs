//! Constant-liar penalization for batch acquisition (González et al.,
//! *Batch Bayesian Optimization via Local Penalization*).
//!
//! When a sampler draws `k` candidates from one fitted model, the later
//! draws must not pile onto the first optimum. Instead of refitting the
//! surrogate with fantasized outcomes (k extra fits — exactly the cost
//! batch suggestion exists to avoid), [`PenalizedPredictor`] wraps the
//! fitted model and *blends* each already-drawn candidate (a "liar") into
//! the predictive distribution: near a liar the mean is pulled toward a
//! pessimistic constant (the median observed value, the same imputation
//! constant Algorithm 2 uses for pending configs) and the variance is
//! collapsed, so expected improvement vanishes there and the acquisition
//! maximizer moves on to the next-best region.

use crate::model::{Prediction, Predictor, SurrogateError};

/// Gaussian proximity length-scale in normalized (per-dimension) squared
/// distance. At distance `σ` from a liar, the blend weight has dropped to
/// `exp(-1/2) ≈ 0.61`; at `3σ` it is negligible, so the penalty is local.
pub(crate) const SIGMA: f64 = 0.1;

/// A [`Predictor`] that penalizes the neighborhoods of already-drawn
/// batch candidates. See the module docs.
pub struct PenalizedPredictor<'a> {
    inner: &'a dyn Predictor,
    /// Encoded (unit-cube) positions of already-drawn candidates.
    liars: Vec<Vec<f64>>,
    /// The pessimistic value blended in near liars.
    liar_value: f64,
}

impl<'a> PenalizedPredictor<'a> {
    /// Wraps `inner`, with no liars yet. `liar_value` should be a
    /// middling observed objective (the median), so penalized regions
    /// look unpromising but not catastrophic.
    pub fn new(inner: &'a dyn Predictor, liar_value: f64) -> Self {
        Self {
            inner,
            liars: Vec::new(),
            liar_value,
        }
    }

    /// Registers a drawn candidate (encoded position) as a liar.
    pub fn push_liar(&mut self, x: Vec<f64>) {
        self.liars.push(x);
    }

    /// Number of liars registered so far.
    pub fn n_liars(&self) -> usize {
        self.liars.len()
    }

    fn penalize(&self, x: &[f64], p: Prediction) -> Prediction {
        penalize(&self.liars, self.liar_value, x, p)
    }
}

/// Applies the constant-liar penalty to an already-computed base
/// prediction: the blend weight is 1 on top of a liar and →0 far away.
/// This is the arithmetic-only path batch acquisition uses to re-score a
/// cached candidate pool as liars accumulate, with no model traversal.
pub fn penalize(liars: &[Vec<f64>], liar_value: f64, x: &[f64], p: Prediction) -> Prediction {
    let mut w = 0.0f64;
    for liar in liars {
        let d2: f64 = x
            .iter()
            .zip(liar.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / x.len().max(1) as f64;
        w = w.max((-d2 / (2.0 * SIGMA * SIGMA)).exp());
    }
    Prediction::new(w * liar_value + (1.0 - w) * p.mean, (1.0 - w) * p.var)
}

impl Predictor for PenalizedPredictor<'_> {
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError> {
        Ok(self.penalize(x, self.inner.predict(x)?))
    }

    fn predict_rows(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        // Keep the inner model's fast batch path and the caller's buffer;
        // penalization rewrites it in place, O(liars) per point.
        self.inner.predict_rows(rows, dim, out)?;
        for (x, p) in rows.chunks_exact(dim.max(1)).zip(out.iter_mut()) {
            *p = penalize(&self.liars, self.liar_value, x, *p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat;
    impl Predictor for Flat {
        fn predict(&self, _x: &[f64]) -> Result<Prediction, SurrogateError> {
            Ok(Prediction::new(0.0, 1.0))
        }
    }

    #[test]
    fn no_liars_is_transparent() {
        let p = PenalizedPredictor::new(&Flat, 0.5);
        let pred = p.predict(&[0.3, 0.7]).unwrap();
        assert_eq!(pred.mean, 0.0);
        assert_eq!(pred.var, 1.0);
    }

    #[test]
    fn on_top_of_liar_collapses_to_liar_value() {
        let mut p = PenalizedPredictor::new(&Flat, 0.5);
        p.push_liar(vec![0.3, 0.7]);
        let pred = p.predict(&[0.3, 0.7]).unwrap();
        assert!((pred.mean - 0.5).abs() < 1e-12);
        assert!(pred.var < 1e-12);
    }

    #[test]
    fn far_from_liar_is_nearly_transparent() {
        let mut p = PenalizedPredictor::new(&Flat, 0.5);
        p.push_liar(vec![0.0, 0.0]);
        let pred = p.predict(&[1.0, 1.0]).unwrap();
        assert!(pred.mean.abs() < 1e-6);
        assert!((pred.var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn batch_matches_pointwise() {
        let mut p = PenalizedPredictor::new(&Flat, 0.5);
        p.push_liar(vec![0.2]);
        p.push_liar(vec![0.8]);
        assert_eq!(p.n_liars(), 2);
        let xs = vec![vec![0.1], vec![0.5], vec![0.81]];
        let batch = p.predict_batch(&xs).unwrap();
        for (x, b) in xs.iter().zip(&batch) {
            assert_eq!(*b, p.predict(x).unwrap());
        }
    }
}
