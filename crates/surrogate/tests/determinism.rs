//! End-to-end determinism contract for the batched hot path.
//!
//! Two forests fitted with the same seed on the same data must be
//! bit-identical (per-tree seeds are derived from the forest seed and
//! the tree index), and `predict_batch` must return exactly the
//! per-point `predict` results — these are the invariants that make the
//! samplers' model caches and the batched acquisition maximizer
//! observationally transparent.

use hypertune_surrogate::ensemble::MfEnsemble;
use hypertune_surrogate::{Predictor, RandomForest, SurrogateModel};

fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let a = (i as f64 * 0.7319) % 1.0;
            let b = (i as f64 * 0.3181) % 1.0;
            vec![a, b]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (4.0 * x[0]).sin() + x[1] * x[1])
        .collect();
    (xs, ys)
}

#[test]
fn batch_predict_matches_per_point_across_same_seed_fits() {
    let (xs, ys) = dataset(120);
    let queries: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i as f64 * 0.0613) % 1.0, (i as f64 * 0.1543) % 1.0])
        .collect();

    for seed in [0u64, 7, 0xdead_beef] {
        let mut first = RandomForest::new(seed);
        first.fit(&xs, &ys).unwrap();
        let mut second = RandomForest::new(seed);
        second.fit(&xs, &ys).unwrap();

        let per_point: Vec<_> = queries
            .iter()
            .map(|q| SurrogateModel::predict(&first, q).unwrap())
            .collect();
        let batch = SurrogateModel::predict_batch(&second, &queries).unwrap();
        assert_eq!(per_point, batch, "seed {seed}");
    }
}

#[test]
fn ensemble_batch_matches_per_point_through_predictor_trait() {
    let (xs, ys) = dataset(80);
    let mut low = RandomForest::new(11);
    low.fit(&xs, &ys).unwrap();
    let mut high = RandomForest::new(13);
    high.fit(&xs[..30], &ys[..30]).unwrap();
    let ens = MfEnsemble::new(vec![
        (&low as &dyn Predictor, 0.7),
        (&high as &dyn Predictor, 0.3),
    ])
    .unwrap();

    let queries: Vec<Vec<f64>> = (0..25)
        .map(|i| vec![(i as f64 * 0.2861) % 1.0, (i as f64 * 0.4447) % 1.0])
        .collect();
    let per_point: Vec<_> = queries.iter().map(|q| ens.predict(q).unwrap()).collect();
    let batch = ens.predict_batch(&queries).unwrap();
    assert_eq!(per_point, batch);
}

#[test]
fn same_seed_refit_is_reproducible() {
    // Fitting twice with the same seed must give the same model; this is
    // what lets a cache hit stand in for a refit.
    let (xs, ys) = dataset(60);
    let queries: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0, 0.5]).collect();
    let mut a = RandomForest::new(42);
    a.fit(&xs, &ys).unwrap();
    let mut b = RandomForest::new(42);
    b.fit(&xs, &ys).unwrap();
    assert_eq!(
        SurrogateModel::predict_batch(&a, &queries).unwrap(),
        SurrogateModel::predict_batch(&b, &queries).unwrap()
    );
}
