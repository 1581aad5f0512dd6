//! The batch primitive, `predict_rows`, against per-point `predict` for
//! every predictor in the crate — and what each does with query rows of
//! the wrong width. `scripts/ci.sh` runs this file under the release
//! profile too: a width check that only a `debug_assert!` makes is
//! invisible to the debug-profile suite.

use hypertune_surrogate::{
    GaussianProcess, MfEnsemble, PenalizedPredictor, Prediction, Predictor, RandomForest,
    SurrogateError, SurrogateModel,
};
use proptest::prelude::*;

/// `predict_rows` over the first `len` rows, for several `len`, must be
/// the per-point predictions — into a buffer that already holds junk.
fn assert_rows_match_per_point(model: &dyn Predictor, rows: &[f64], dim: usize) {
    let per_point: Vec<Prediction> = rows
        .chunks_exact(dim)
        .map(|x| model.predict(x).unwrap())
        .collect();
    let mut out = vec![Prediction::new(-1.0, 1.0); 5];
    for len in [0, 1, 7, 8, 9, per_point.len()] {
        model
            .predict_rows(&rows[..len * dim], dim, &mut out)
            .unwrap();
        assert_eq!(out, per_point[..len]);
    }
    let nested: Vec<Vec<f64>> = rows.chunks_exact(dim).map(<[f64]>::to_vec).collect();
    assert_eq!(model.predict_batch(&nested).unwrap(), per_point);
}

proptest! {
    #[test]
    fn predict_rows_matches_per_point_predict(
        points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 4..40),
        queries in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 10..30),
        seed in any::<u64>(),
    ) {
        let xs: Vec<Vec<f64>> = points.iter().map(|&(a, b, c)| vec![a, b, c]).collect();
        let ys: Vec<f64> = points.iter().map(|&(a, b, c)| (3.0 * a).sin() + b * c).collect();
        let rows: Vec<f64> = queries.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();

        let mut rf = RandomForest::new(seed);
        rf.fit(&xs, &ys).unwrap();
        assert_rows_match_per_point(&rf, &rows, 3);

        let mut gp = GaussianProcess::new();
        gp.fit(&xs, &ys).unwrap();
        assert_rows_match_per_point(&gp, &rows, 3);

        let mut low = RandomForest::new(seed ^ 1);
        low.fit(&xs[..4], &ys[..4]).unwrap();
        let ensemble = MfEnsemble::new(vec![(&low, 0.2), (&gp, 0.3), (&rf, 0.5)]).unwrap();
        assert_rows_match_per_point(&ensemble, &rows, 3);

        let mut penalized = PenalizedPredictor::new(&ensemble, 0.4);
        penalized.push_liar(rows[..3].to_vec());
        penalized.push_liar(vec![0.5, 0.5, 0.5]);
        assert_rows_match_per_point(&penalized, &rows, 3);
    }
}

#[test]
fn wrong_width_rows_are_a_typed_error_not_a_panic() {
    let xs: Vec<Vec<f64>> = (0..20)
        .map(|i| vec![i as f64 / 19.0, (i * 7 % 20) as f64 / 19.0])
        .collect();
    let ys: Vec<f64> = xs.iter().map(|p| p[0] - p[1]).collect();
    let mut rf = RandomForest::new(3);
    rf.fit(&xs, &ys).unwrap();
    let ensemble = MfEnsemble::new(vec![(&rf as &dyn Predictor, 1.0)]).unwrap();
    let mut out = Vec::new();

    for (row, got) in [(vec![0.5], 1), (vec![0.5, 0.5, 0.5], 3)] {
        let mismatch = SurrogateError::DimensionMismatch { expected: 2, got };
        // A short row would index past its end inside the traversal; a
        // long one would be scored on its first two coordinates.
        assert_eq!(Predictor::predict(&rf, &row).unwrap_err(), mismatch);
        assert_eq!(ensemble.predict(&row).unwrap_err(), mismatch);
        let six = row.repeat(6 / got);
        for model in [&rf as &dyn Predictor, &ensemble] {
            assert_eq!(
                model.predict_rows(&six, got, &mut out).unwrap_err(),
                mismatch
            );
            assert_eq!(
                model
                    .predict_batch(&[row.clone(), row.clone()])
                    .unwrap_err(),
                mismatch
            );
        }
    }
    // The right width still works after the failures above.
    ensemble.predict_rows(&[0.5; 6], 2, &mut out).unwrap();
    assert_eq!(out.len(), 3);
}
