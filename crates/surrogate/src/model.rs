use std::fmt;

/// A Gaussian predictive distribution at one query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predictive mean.
    pub mean: f64,
    /// Predictive variance (always `>= 0`).
    pub var: f64,
}

impl Prediction {
    /// Creates a prediction, clamping negative variance from numerical
    /// noise to zero.
    pub fn new(mean: f64, var: f64) -> Self {
        Self {
            mean,
            var: var.max(0.0),
        }
    }

    /// Predictive standard deviation.
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }
}

/// Errors raised by surrogate fitting or prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// `fit` was called with zero observations.
    EmptyTrainingSet,
    /// `fit` was called with `x.len() != y.len()`.
    LengthMismatch {
        /// Number of input rows.
        xs: usize,
        /// Number of targets.
        ys: usize,
    },
    /// Rows of `x` have inconsistent dimensionality, or a flat matrix
    /// does not divide into rows of the stated width.
    RaggedInput,
    /// A target value is NaN or infinite.
    NonFiniteTarget,
    /// `predict` was called before a successful `fit`.
    NotFitted,
    /// A query row's width differs from the width the model was fit on.
    DimensionMismatch {
        /// Input width of the fitted model.
        expected: usize,
        /// Width of the offered query rows.
        got: usize,
    },
    /// The kernel matrix was not positive definite even after jitter.
    NumericalFailure(String),
}

impl fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SurrogateError::EmptyTrainingSet => write!(f, "empty training set"),
            SurrogateError::LengthMismatch { xs, ys } => {
                write!(f, "length mismatch: {xs} inputs vs {ys} targets")
            }
            SurrogateError::RaggedInput => write!(f, "input rows have inconsistent dimensions"),
            SurrogateError::NonFiniteTarget => write!(f, "target values must be finite"),
            SurrogateError::NotFitted => write!(f, "predict called before fit"),
            SurrogateError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "query rows are {got} wide, the model was fit on {expected}"
                )
            }
            SurrogateError::NumericalFailure(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SurrogateError {}

/// The generic surrogate abstraction of §4.3: anything that can be fit on
/// `(x, y)` measurements and produce Gaussian predictions.
///
/// Implementations must be `Send` so the framework can refit surrogates
/// while worker threads stream in new measurements.
pub trait SurrogateModel: Send {
    /// Fits the model to unit-cube inputs `x` and targets `y`
    /// (objective values to *minimize*).
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), SurrogateError>;

    /// Predicts at one query point.
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError>;

    /// `true` once `fit` has succeeded at least once.
    fn is_fitted(&self) -> bool;

    /// Predicts every row of a flat row-major matrix (`rows.len() / dim`
    /// query points, `dim` coordinates each) into `out`, which is cleared
    /// first. The default loops over [`SurrogateModel::predict`]; models
    /// with a cheaper batch traversal override it and must return exactly
    /// the per-point predictions.
    fn predict_rows(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        predict_rows_per_point(|x| self.predict(x), rows, dim, out)
    }

    /// [`SurrogateModel::predict_rows`] for callers that hold one `Vec`
    /// per query point: flattens, predicts, returns a fresh vector.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<Prediction>, SurrogateError> {
        predict_batch_via_rows(|rows, dim, out| self.predict_rows(rows, dim, out), xs)
    }
}

/// Anything that yields Gaussian predictions at query points.
///
/// Every [`SurrogateModel`] is a `Predictor` via the blanket impl; the
/// multi-fidelity ensemble ([`crate::MfEnsemble`]) is a `Predictor` that is
/// *not* a `SurrogateModel`, because it combines already-fitted base
/// surrogates instead of being fit on raw data. Acquisition functions are
/// generic over `Predictor` so they work with both.
pub trait Predictor {
    /// Predicts at one query point.
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError>;

    /// The batch primitive: predicts every row of a flat row-major matrix
    /// (`rows.len() / dim` query points, `dim` coordinates each) into the
    /// caller's `out`, which is cleared first — hot loops that predict
    /// repeatedly (acquisition hill-climbing, pool expansion, θ refreshes)
    /// keep one matrix and one prediction buffer alive across calls.
    ///
    /// The default loops over [`Predictor::predict`]; implementations with
    /// a cheaper batch path (lockstep forest traversal, member-wise
    /// ensemble batching) override it. Must return exactly the same
    /// predictions as the per-point path.
    fn predict_rows(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        predict_rows_per_point(|x| self.predict(x), rows, dim, out)
    }

    /// [`Predictor::predict_rows`] for callers that hold one `Vec` per
    /// query point: flattens, predicts, returns a fresh vector.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<Prediction>, SurrogateError> {
        predict_batch_via_rows(|rows, dim, out| self.predict_rows(rows, dim, out), xs)
    }
}

impl<T: SurrogateModel + ?Sized> Predictor for T {
    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError> {
        SurrogateModel::predict(self, x)
    }

    fn predict_rows(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        SurrogateModel::predict_rows(self, rows, dim, out)
    }
}

/// Number of `dim`-wide rows in the flat row-major matrix `rows`;
/// [`SurrogateError::RaggedInput`] when it does not divide evenly. An
/// empty matrix has no rows whatever its width.
pub(crate) fn row_count(rows: &[f64], dim: usize) -> Result<usize, SurrogateError> {
    if rows.is_empty() {
        Ok(0)
    } else if dim == 0 || !rows.len().is_multiple_of(dim) {
        Err(SurrogateError::RaggedInput)
    } else {
        Ok(rows.len() / dim)
    }
}

/// The provided `predict_rows`: one `predict` per row.
fn predict_rows_per_point(
    predict: impl Fn(&[f64]) -> Result<Prediction, SurrogateError>,
    rows: &[f64],
    dim: usize,
    out: &mut Vec<Prediction>,
) -> Result<(), SurrogateError> {
    out.clear();
    out.reserve(row_count(rows, dim)?);
    for x in rows.chunks_exact(dim.max(1)) {
        out.push(predict(x)?);
    }
    Ok(())
}

/// The provided `predict_batch`: flattens `xs` and runs `predict_rows`.
fn predict_batch_via_rows(
    predict_rows: impl FnOnce(&[f64], usize, &mut Vec<Prediction>) -> Result<(), SurrogateError>,
    xs: &[Vec<f64>],
) -> Result<Vec<Prediction>, SurrogateError> {
    let dim = xs.first().map_or(0, Vec::len);
    let mut rows = Vec::with_capacity(xs.len() * dim);
    for x in xs {
        // Zero-width points cannot be told apart in a flat matrix.
        if x.len() != dim || dim == 0 {
            return Err(SurrogateError::RaggedInput);
        }
        rows.extend_from_slice(x);
    }
    let mut out = Vec::with_capacity(xs.len());
    predict_rows(&rows, dim, &mut out)?;
    Ok(out)
}

/// Validates the common preconditions shared by every `fit` impl.
pub(crate) fn validate_training_set(x: &[Vec<f64>], y: &[f64]) -> Result<usize, SurrogateError> {
    if x.is_empty() {
        return Err(SurrogateError::EmptyTrainingSet);
    }
    if x.len() != y.len() {
        return Err(SurrogateError::LengthMismatch {
            xs: x.len(),
            ys: y.len(),
        });
    }
    let dim = x[0].len();
    if x.iter().any(|row| row.len() != dim) {
        return Err(SurrogateError::RaggedInput);
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(SurrogateError::NonFiniteTarget);
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_clamps_negative_variance() {
        let p = Prediction::new(1.0, -1e-12);
        assert_eq!(p.var, 0.0);
        assert_eq!(p.std(), 0.0);
    }

    #[test]
    fn validation_catches_bad_inputs() {
        assert_eq!(
            validate_training_set(&[], &[]),
            Err(SurrogateError::EmptyTrainingSet)
        );
        assert_eq!(
            validate_training_set(&[vec![0.0]], &[1.0, 2.0]),
            Err(SurrogateError::LengthMismatch { xs: 1, ys: 2 })
        );
        assert_eq!(
            validate_training_set(&[vec![0.0], vec![0.0, 1.0]], &[1.0, 2.0]),
            Err(SurrogateError::RaggedInput)
        );
        assert_eq!(
            validate_training_set(&[vec![0.0]], &[f64::NAN]),
            Err(SurrogateError::NonFiniteTarget)
        );
        assert_eq!(validate_training_set(&[vec![0.0, 1.0]], &[1.0]), Ok(2));
    }

    #[test]
    fn errors_display() {
        let e = SurrogateError::NumericalFailure("cholesky".into());
        assert!(e.to_string().contains("cholesky"));
    }
}
