//! Ranking-loss estimation of partial-evaluation precision (§4.1).
//!
//! For each resource level `i`, a base surrogate `M_i` is fit on `D_i` and
//! scored by how well it reproduces the *ordering* of the high-fidelity
//! measurements `D_K` (Eq. 1, counted miss-ranked pairs; the top-level
//! surrogate `M_K` is scored by 5-fold cross-validation so it cannot
//! trivially win by memorizing `D_K`). A bootstrap Monte-Carlo procedure
//! (the paper's MCMC step, Eq. 2) converts the losses into
//! `θ_i = P(level i has the least loss)` — the weights that drive both
//! bracket selection and the MFES ensemble.
//!
//! This module sits on the tuner's hot path — θ is re-estimated as the
//! history grows, and each estimate fits `K` forests and counts ordered
//! pairs over `S` bootstrap replicates — so it is built for speed:
//!
//! - [`ranking_loss`] counts discordant pairs in `O(n log n)` by sorting
//!   on predictions and merge-counting strict inversions in the observed
//!   targets (the naive `O(n²)` scan survives as
//!   [`ranking_loss_naive`], the reference the property tests check
//!   against);
//! - per-level surrogates are cached in [`ThetaModelCache`] keyed by the
//!   level's measurement count, so append-only history growth at other
//!   levels never triggers a refit — and because each fit's seed depends
//!   only on `(seed, level)`, a cache hit is bit-identical to a refit;
//! - level fits and cross-validation folds run on scoped threads when the
//!   machine has more than one core, and all level predictions go through
//!   the forest's tree-major batch path.

use std::collections::HashMap;

use hypertune_space::ConfigSpace;
use hypertune_surrogate::{RandomForest, SurrogateModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::history::History;

/// Number of bootstrap samples `S` in Eq. 2.
pub const BOOTSTRAP_SAMPLES: usize = 100;

/// Cap on the number of `D_K` points used per bootstrap replicate, to
/// bound the pair count as the history grows.
const MAX_BOOT_POINTS: usize = 64;

/// Minimum measurements a level needs before its surrogate participates.
pub const MIN_POINTS_PER_LEVEL: usize = 3;

/// Minimum complete evaluations before `θ` can be estimated at all.
pub const MIN_FULL_EVALS: usize = 4;

fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Eq. 1: number of pairs `(j, k)` whose predicted order disagrees with
/// the observed order (the exclusive-or in the paper). Ties in either
/// ranking carry no ordering information and never disagree. Points with
/// a NaN or infinite prediction or target carry no *usable* ordering
/// information either — a crashed trial's poisoned value would otherwise
/// decide pair orderings arbitrarily — so every pair touching one is
/// skipped (in both the fast and the naive path, keeping them
/// bit-identical).
///
/// Runs in `O(n log n)`: indices are sorted by `(pred, y)` and the
/// discordant pairs are exactly the strict inversions of the observed
/// targets in that order — pred-tied pairs sort by `y` ascending (no
/// inversion), y-tied pairs are excluded by the strict comparison, and
/// every other pair inverts iff the two rankings disagree. Below a small
/// cutoff (`SMALL_LOSS_CUTOFF`) the quadratic loop is used instead: it allocates
/// nothing and beats the sort's constant factor on tiny inputs (the θ
/// bootstrap calls this hundreds of times per refresh); above it, sort
/// buffers come from a thread-local scratch, so steady-state calls do not
/// allocate either.
pub fn ranking_loss(preds: &[f64], ys: &[f64]) -> usize {
    debug_assert_eq!(preds.len(), ys.len());
    let n = ys.len();
    if n < SMALL_LOSS_CUTOFF {
        return ranking_loss_naive(preds, ys);
    }
    thread_local! {
        static BUFFERS: std::cell::RefCell<(Vec<usize>, Vec<f64>, Vec<f64>)> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    }
    BUFFERS.with(|cell| {
        let (order, seq, scratch) = &mut *cell.borrow_mut();
        order.clear();
        order.extend((0..n).filter(|&i| preds[i].is_finite() && ys[i].is_finite()));
        let n = order.len();
        // Unstable sort: value-equal (pred, y) keys are interchangeable.
        order.sort_unstable_by(|&a, &b| {
            cmp_f64(preds[a], preds[b]).then_with(|| cmp_f64(ys[a], ys[b]))
        });
        seq.clear();
        seq.extend(order.iter().map(|&i| ys[i]));
        scratch.clear();
        scratch.resize(n, 0.0);
        count_strict_inversions(seq, scratch)
    })
}

/// Crossover below which the quadratic pair loop outruns the sort-based
/// inversion count (measured on the θ bootstrap's capped replicates).
const SMALL_LOSS_CUTOFF: usize = 33;

/// Reference `O(n²)` implementation of [`ranking_loss`], kept for the
/// property tests that pin the fast path to the paper's pair semantics.
pub fn ranking_loss_naive(preds: &[f64], ys: &[f64]) -> usize {
    debug_assert_eq!(preds.len(), ys.len());
    let n = ys.len();
    let mut loss = 0;
    for j in 0..n {
        if !preds[j].is_finite() || !ys[j].is_finite() {
            continue;
        }
        for k in (j + 1)..n {
            if !preds[k].is_finite() || !ys[k].is_finite() {
                continue;
            }
            let pred_less = preds[j] < preds[k];
            let obs_less = ys[j] < ys[k];
            // Skip exact ties, which carry no ordering information.
            if preds[j] == preds[k] || ys[j] == ys[k] {
                continue;
            }
            if pred_less != obs_less {
                loss += 1;
            }
        }
    }
    loss
}

/// Merge-sort count of pairs `(a, b)` with `a` before `b` and
/// `seq[a] > seq[b]` strictly. Sorts `seq` in place; `scratch` must be the
/// same length.
fn count_strict_inversions(seq: &mut [f64], scratch: &mut [f64]) -> usize {
    let n = seq.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let (left_half, right_half) = seq.split_at_mut(mid);
    let (scratch_l, scratch_r) = scratch.split_at_mut(mid);
    let mut inversions = count_strict_inversions(left_half, scratch_l)
        + count_strict_inversions(right_half, scratch_r);
    // Merge the sorted halves, counting how many left elements remain
    // (all strictly greater) each time a right element wins.
    let mut i = 0;
    let mut j = 0;
    for slot in scratch.iter_mut().take(n) {
        if i < mid && (j >= n - mid || left_half[i] <= right_half[j]) {
            *slot = left_half[i];
            i += 1;
        } else {
            inversions += mid - i;
            *slot = right_half[j];
            j += 1;
        }
    }
    seq.copy_from_slice(&scratch[..n]);
    inversions
}

/// Runs `f(0), .., f(count - 1)` — on scoped worker threads when the
/// machine has more than one core — returning results in index order.
/// Shared with the samplers for their per-level surrogate fits.
pub(crate) fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Asked on every model-based `sample`, mostly with nothing stale.
    if count == 0 {
        return Vec::new();
    }
    let threads = hypertune_surrogate::available_threads().min(count);
    if threads <= 1 {
        return (0..count).map(f).collect();
    }
    let chunk = count.div_ceil(threads);
    let f = &f;
    let parts: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    ((w * chunk)..((w + 1) * chunk).min(count))
                        .map(f)
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("level fit worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// Per-level predictions on the `D_K` configurations, the raw material of
/// the θ computation. `None` for levels without enough data.
struct LevelPredictions {
    /// `preds[i]` aligns with `ys`; `None` when level `i` is unfittable.
    preds: Vec<Option<Vec<f64>>>,
    /// Observed complete-evaluation targets.
    ys: Vec<f64>,
}

/// Caches the fitted per-level surrogates (and the top level's
/// cross-validated predictions) between θ computations.
///
/// History is append-only, so a level's measurement count identifies its
/// training set exactly; each entry is keyed by the count it was fitted
/// at and refit only when that count changes. Fit seeds depend only on
/// `(seed, level)` — never on call order — so a cache hit produces the
/// same θ, bit for bit, as a from-scratch recomputation.
#[derive(Debug, Clone, Default)]
pub struct ThetaModelCache {
    /// `level -> (measurement count when fitted, fitted forest)`.
    models: HashMap<usize, (usize, RandomForest)>,
    /// `level -> (fit count, full-level count, predictions on D_K)` —
    /// pure function of the cached model and `D_K`, so valid while both
    /// counts match.
    preds: HashMap<usize, (usize, usize, Vec<f64>)>,
    /// `(full-level count when computed, CV predictions)`.
    cv: Option<(usize, Vec<f64>)>,
}

impl ThetaModelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached level surrogates (test hook).
    pub fn cached_levels(&self) -> usize {
        self.models.len()
    }
}

/// Computes `θ` (Eq. 2): the probability, under bootstrap resampling of
/// `D_K`, that each level's surrogate attains the least ranking loss.
///
/// Returns `None` until at least [`MIN_FULL_EVALS`] complete evaluations
/// exist. Levels whose surrogates cannot be fit get `θ_i = 0`.
pub fn compute_theta(history: &History, space: &ConfigSpace, seed: u64) -> Option<Vec<f64>> {
    compute_theta_cached(history, space, seed, &mut ThetaModelCache::new())
}

/// [`compute_theta`] reusing fitted level surrogates from `cache`; callers
/// that re-estimate θ as the history grows (the [`ThetaTracker`]) only pay
/// for levels whose data actually changed.
pub fn compute_theta_cached(
    history: &History,
    space: &ConfigSpace,
    seed: u64,
    cache: &mut ThetaModelCache,
) -> Option<Vec<f64>> {
    let lp = level_predictions(history, space, seed, cache)?;
    let k = lp.preds.len();
    let n = lp.ys.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
    let mut wins = vec![0usize; k];
    let boot_n = n.min(MAX_BOOT_POINTS);
    let mut idx = vec![0usize; boot_n];
    let mut ys = vec![0.0; boot_n];
    let mut p = vec![0.0; boot_n];
    for _ in 0..BOOTSTRAP_SAMPLES {
        for slot in idx.iter_mut() {
            *slot = rng.gen_range(0..n);
        }
        for (slot, &i) in ys.iter_mut().zip(&idx) {
            *slot = lp.ys[i];
        }
        let mut best_loss = usize::MAX;
        let mut best_levels: Vec<usize> = Vec::new();
        for (level, preds) in lp.preds.iter().enumerate() {
            let Some(preds) = preds else { continue };
            for (slot, &i) in p.iter_mut().zip(&idx) {
                *slot = preds[i];
            }
            let loss = ranking_loss(&p, &ys);
            match loss.cmp(&best_loss) {
                std::cmp::Ordering::Less => {
                    best_loss = loss;
                    best_levels.clear();
                    best_levels.push(level);
                }
                std::cmp::Ordering::Equal => best_levels.push(level),
                std::cmp::Ordering::Greater => {}
            }
        }
        if let Some(&w) = pick_random(&best_levels, &mut rng) {
            wins[w] += 1;
        }
    }
    let total: usize = wins.iter().sum();
    if total == 0 {
        return None;
    }
    Some(wins.iter().map(|&w| w as f64 / total as f64).collect())
}

fn pick_random<'a, T>(xs: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

/// Fits the per-level base surrogates (reusing `cache` where the data is
/// unchanged) and evaluates them on the `D_K` configurations; `M_K` itself
/// is evaluated by 5-fold cross-validation.
fn level_predictions(
    history: &History,
    space: &ConfigSpace,
    seed: u64,
    cache: &mut ThetaModelCache,
) -> Option<LevelPredictions> {
    let top = history.levels().max_level();
    let full = history.group(top);
    if full.len() < MIN_FULL_EVALS {
        return None;
    }
    // The `D_K` configurations as one row-major matrix: every level's
    // forest and every cross-validation fold reads rows out of it.
    let dim = space.len();
    let mut rows_full = Vec::with_capacity(full.len() * dim);
    for m in full {
        space.encode_into(&m.config, &mut rows_full);
    }
    let ys: Vec<f64> = full.iter().map(|m| m.value).collect();

    // Fit the lower levels whose data changed since the cache entry was
    // made — in parallel when cores allow; seeds depend only on
    // `(seed, level)` so the result never depends on which levels hit.
    let stale: Vec<usize> = (0..top)
        .filter(|&level| {
            history.len_at(level) >= MIN_POINTS_PER_LEVEL
                && cache.models.get(&level).map(|(n, _)| *n) != Some(history.len_at(level))
        })
        .collect();
    let refitted: Vec<(usize, Option<RandomForest>)> = run_indexed(stale.len(), |i| {
        let level = stale[i];
        let (x, y) =
            history.training_data_capped(level, space, crate::sampler::bo::MAX_TRAIN_POINTS);
        let mut rf = RandomForest::new(seed ^ (level as u64) << 8);
        match rf.fit(&x, &y) {
            Ok(()) => (level, Some(rf)),
            Err(_) => (level, None),
        }
    });
    for (level, rf) in refitted {
        match rf {
            Some(rf) => {
                cache.models.insert(level, (history.len_at(level), rf));
            }
            None => {
                cache.models.remove(&level);
            }
        }
    }

    let nk = full.len();
    let mut level_preds = Vec::new();
    let mut preds: Vec<Option<Vec<f64>>> = Vec::with_capacity(top + 1);
    for level in 0..top {
        let n_level = history.len_at(level);
        if n_level < MIN_POINTS_PER_LEVEL {
            preds.push(None);
            continue;
        }
        let p = match cache.preds.get(&level) {
            Some((pn, pnk, p)) if *pn == n_level && *pnk == nk => Some(p.clone()),
            _ => {
                let fresh: Option<Vec<f64>> = cache.models.get(&level).and_then(|(_, rf)| {
                    rf.predict_rows(&rows_full, dim, &mut level_preds).ok()?;
                    Some(level_preds.iter().map(|p| p.mean).collect())
                });
                match &fresh {
                    Some(v) => {
                        cache.preds.insert(level, (n_level, nk, v.clone()));
                    }
                    None => {
                        cache.preds.remove(&level);
                    }
                }
                fresh
            }
        };
        preds.push(p);
    }

    if cache.cv.as_ref().map(|(n, _)| *n) != Some(nk) {
        cache.cv = cross_val_predictions(&rows_full, dim, &ys, seed).map(|p| (nk, p));
    }
    preds.push(cache.cv.as_ref().map(|(_, p)| p.clone()));
    Some(LevelPredictions { preds, ys })
}

/// 5-fold cross-validated predictions of the top-level surrogate on its
/// own training data (the paper's treatment of `M_K` in Eq. 1). Folds are
/// independent and run on scoped threads when cores allow.
fn cross_val_predictions(rows: &[f64], dim: usize, ys: &[f64], seed: u64) -> Option<Vec<f64>> {
    let n = ys.len();
    if n < MIN_FULL_EVALS {
        return None;
    }
    let row = |i: usize| &rows[i * dim..(i + 1) * dim];
    let folds = 5.min(n);
    let fold_preds: Vec<Option<Vec<(usize, f64)>>> = run_indexed(folds, |fold| {
        let train_idx: Vec<usize> = (0..n).filter(|i| i % folds != fold).collect();
        let test_idx: Vec<usize> = (0..n).filter(|i| i % folds == fold).collect();
        if train_idx.is_empty() || test_idx.is_empty() {
            return Some(Vec::new());
        }
        let tx: Vec<Vec<f64>> = train_idx.iter().map(|&i| row(i).to_vec()).collect();
        let ty: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
        let mut rf = RandomForest::new(seed ^ 0xcf ^ (fold as u64) << 16);
        rf.fit(&tx, &ty).ok()?;
        let test_rows: Vec<f64> = test_idx.iter().flat_map(|&i| row(i)).copied().collect();
        let mut ps = Vec::new();
        rf.predict_rows(&test_rows, dim, &mut ps).ok()?;
        Some(
            test_idx
                .into_iter()
                .zip(ps.into_iter().map(|p| p.mean))
                .collect(),
        )
    });
    let mut out = vec![0.0; n];
    for fp in fold_preds {
        for (i, mean) in fp? {
            out[i] = mean;
        }
    }
    Some(out)
}

/// Caches `θ` across calls, recomputing only after enough new complete
/// evaluations have arrived (refitting `K` forests per completion would
/// dominate the optimization overhead otherwise). Holds a
/// [`ThetaModelCache`] so even a due refresh only refits the levels whose
/// data changed.
#[derive(Debug, Clone)]
pub struct ThetaTracker {
    seed: u64,
    last_nk: usize,
    theta: Option<Vec<f64>>,
    /// Recompute after this many new complete evaluations.
    refresh_every: usize,
    cache: ThetaModelCache,
}

impl ThetaTracker {
    /// Creates a tracker that refreshes every 3 complete evaluations.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            last_nk: 0,
            theta: None,
            refresh_every: 3,
            cache: ThetaModelCache::new(),
        }
    }

    /// The latest `θ`, if estimable.
    pub fn theta(&self) -> Option<&[f64]> {
        self.theta.as_deref()
    }

    /// Refreshes `θ` when due; returns the new value only when it changed.
    pub fn maybe_refresh(&mut self, history: &History, space: &ConfigSpace) -> Option<Vec<f64>> {
        let nk = history.len_at(history.levels().max_level());
        if nk < MIN_FULL_EVALS || nk < self.last_nk + self.refresh_every {
            return None;
        }
        self.last_nk = nk;
        let theta = compute_theta_cached(history, space, self.seed, &mut self.cache)?;
        self.theta = Some(theta.clone());
        Some(theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, Measurement};
    use crate::levels::ResourceLevels;
    use hypertune_space::{Config, ParamValue};

    #[test]
    fn loss_zero_for_perfect_order() {
        assert_eq!(ranking_loss(&[1.0, 2.0, 3.0], &[0.1, 0.2, 0.3]), 0);
    }

    #[test]
    fn loss_max_for_reversed_order() {
        // 3 points → 3 pairs, all misordered.
        assert_eq!(ranking_loss(&[3.0, 2.0, 1.0], &[0.1, 0.2, 0.3]), 3);
    }

    #[test]
    fn loss_partial() {
        // Only the (1.0 vs 0.5) pair against (0.2 vs 0.3) disagrees…
        let preds = [1.0, 0.5, 2.0];
        let ys = [0.2, 0.3, 0.4];
        // pairs: (0,1): pred 1.0>0.5 vs obs 0.2<0.3 → disagree;
        //        (0,2): 1.0<2.0 vs 0.2<0.4 → agree;
        //        (1,2): 0.5<2.0 vs 0.3<0.4 → agree.
        assert_eq!(ranking_loss(&preds, &ys), 1);
    }

    #[test]
    fn ties_carry_no_information() {
        assert_eq!(ranking_loss(&[1.0, 1.0], &[0.1, 0.2]), 0);
        assert_eq!(ranking_loss(&[1.0, 2.0], &[0.1, 0.1]), 0);
    }

    #[test]
    fn fast_loss_matches_naive_on_fixed_cases() {
        let cases: &[(&[f64], &[f64])] = &[
            (&[1.0, 2.0, 3.0], &[0.1, 0.2, 0.3]),
            (&[3.0, 2.0, 1.0], &[0.1, 0.2, 0.3]),
            (&[1.0, 0.5, 2.0], &[0.2, 0.3, 0.4]),
            (&[1.0, 1.0, 2.0, 2.0], &[0.4, 0.3, 0.2, 0.1]),
            (&[0.5, 0.5, 0.5], &[1.0, 2.0, 3.0]),
            (&[], &[]),
            (&[1.0], &[1.0]),
        ];
        for (preds, ys) in cases {
            assert_eq!(
                ranking_loss(preds, ys),
                ranking_loss_naive(preds, ys),
                "preds {preds:?} ys {ys:?}"
            );
        }
    }

    #[test]
    fn nonfinite_points_carry_no_information() {
        // The NaN/Inf point would have inverted against every neighbour;
        // skipping it leaves the clean pairs' loss unchanged.
        assert_eq!(ranking_loss(&[1.0, f64::NAN, 3.0], &[0.1, 0.0, 0.3]), 0);
        assert_eq!(
            ranking_loss(&[1.0, 2.0, 3.0], &[0.1, f64::INFINITY, 0.3]),
            0
        );
        assert_eq!(
            ranking_loss(&[3.0, f64::NAN, 1.0], &[0.1, 0.2, 0.3]),
            1,
            "remaining finite pair still counts"
        );
        // Fast and naive paths agree on mixed inputs, above and below
        // the small-input cutoff.
        let n = 64;
        let preds: Vec<f64> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    ((i * 37) % n) as f64
                }
            })
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    f64::NEG_INFINITY
                } else {
                    ((i * 13) % n) as f64
                }
            })
            .collect();
        assert_eq!(ranking_loss(&preds, &ys), ranking_loss_naive(&preds, &ys));
        assert_eq!(
            ranking_loss(&preds[..20], &ys[..20]),
            ranking_loss_naive(&preds[..20], &ys[..20])
        );
    }

    fn history_with_structure(informative_low: bool) -> (History, ConfigSpace) {
        // 1-D space; true objective y = x at full fidelity. The low
        // fidelity either matches (informative) or is anti-correlated.
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let levels = ResourceLevels::new(27.0, 3);
        let mut h = History::new(levels);
        for i in 0..30 {
            let x = i as f64 / 29.0;
            let config = Config::new(vec![ParamValue::Float(x)]);
            let low_val = if informative_low { x } else { 1.0 - x };
            h.record(Measurement {
                config: config.clone(),
                level: 0,
                resource: 1.0,
                value: low_val,
                test_value: low_val,
                cost: 1.0,
                finished_at: i as f64,
            });
            if i % 2 == 0 {
                h.record(Measurement {
                    config,
                    level: 3,
                    resource: 27.0,
                    value: x,
                    test_value: x,
                    cost: 27.0,
                    finished_at: i as f64 + 0.5,
                });
            }
        }
        (h, space)
    }

    #[test]
    fn informative_low_fidelity_earns_weight() {
        let (h, space) = history_with_structure(true);
        let theta = compute_theta(&h, &space, 1).unwrap();
        assert_eq!(theta.len(), 4);
        // Level 0 perfectly predicts the full-fidelity ordering and has
        // 2x the data; it should earn substantial weight.
        assert!(theta[0] > 0.2, "theta {theta:?}");
        // Levels 1 and 2 have no data at all.
        assert_eq!(theta[1], 0.0);
        assert_eq!(theta[2], 0.0);
        let total: f64 = theta.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn misleading_low_fidelity_loses_weight() {
        let (h, space) = history_with_structure(false);
        let theta = compute_theta(&h, &space, 1).unwrap();
        // The anti-correlated level must lose to the CV'd top level.
        assert!(
            theta[0] < theta[3],
            "misleading level should be downweighted: {theta:?}"
        );
        assert!(theta[3] > 0.8, "theta {theta:?}");
    }

    #[test]
    fn too_few_full_evals_returns_none() {
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut h = History::new(ResourceLevels::new(27.0, 3));
        for i in 0..3 {
            h.record(Measurement {
                config: Config::new(vec![ParamValue::Float(i as f64 / 3.0)]),
                level: 3,
                resource: 27.0,
                value: i as f64,
                test_value: i as f64,
                cost: 1.0,
                finished_at: i as f64,
            });
        }
        assert!(compute_theta(&h, &space, 0).is_none());
    }

    #[test]
    fn theta_deterministic_per_seed() {
        let (h, space) = history_with_structure(true);
        assert_eq!(compute_theta(&h, &space, 7), compute_theta(&h, &space, 7));
    }

    #[test]
    fn cached_theta_matches_uncached() {
        let (h, space) = history_with_structure(true);
        let mut cache = ThetaModelCache::new();
        let warm = compute_theta_cached(&h, &space, 7, &mut cache);
        assert!(cache.cached_levels() > 0);
        // Second call hits the cache for every level; θ must be identical.
        let hit = compute_theta_cached(&h, &space, 7, &mut cache);
        let cold = compute_theta(&h, &space, 7);
        assert_eq!(warm, cold);
        assert_eq!(hit, cold);
    }

    #[test]
    fn cache_refits_only_changed_levels() {
        let (mut h, space) = history_with_structure(true);
        let mut cache = ThetaModelCache::new();
        compute_theta_cached(&h, &space, 7, &mut cache).unwrap();
        // Append at level 0 only: its entry must refresh, and the cached
        // result must still match a from-scratch computation.
        h.record(Measurement {
            config: Config::new(vec![ParamValue::Float(0.33)]),
            level: 0,
            resource: 1.0,
            value: 0.33,
            test_value: 0.33,
            cost: 1.0,
            finished_at: 99.0,
        });
        let cached = compute_theta_cached(&h, &space, 7, &mut cache);
        let cold = compute_theta(&h, &space, 7);
        assert_eq!(cached, cold);
    }
}
