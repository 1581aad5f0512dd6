//! Acquisition functions and their maximizer.
//!
//! The paper's BO loop (§3.1) selects `x_n = argmax a(x; M)`. We provide
//! the three classical acquisitions it cites — EI, PI, and LCB — and a
//! maximizer that combines uniform random candidates with hill-climbing
//! from the best observed configurations (the SMAC/BOHB recipe), using
//! [`hypertune_space::neighbors`] for the local moves.
//!
//! Objectives are *minimized* throughout, so EI/PI measure improvement
//! below the incumbent and LCB is a lower confidence bound.

use rand::Rng;

use hypertune_space::{neighbors, Config, ConfigSpace};

use crate::model::{Prediction, Predictor, SurrogateError};
use crate::penalized::SIGMA;
use crate::stats::{norm_cdf, norm_pdf};

/// Which acquisition criterion to maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement below the incumbent `best_y`.
    ExpectedImprovement {
        /// Exploration jitter subtracted from the incumbent.
        xi: f64,
    },
    /// Probability of improvement below the incumbent.
    ProbabilityOfImprovement {
        /// Exploration jitter subtracted from the incumbent.
        xi: f64,
    },
    /// Negative lower confidence bound `-(μ - κσ)` (so maximizing it
    /// favours low predicted mean and high uncertainty).
    LowerConfidenceBound {
        /// Width multiplier κ.
        kappa: f64,
    },
}

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.0 }
    }
}

impl Acquisition {
    /// Scores one predictive distribution against the incumbent `best_y`.
    /// Larger is better.
    pub fn score(&self, p: Prediction, best_y: f64) -> f64 {
        let sigma = p.std();
        match *self {
            Acquisition::ExpectedImprovement { xi } => {
                if sigma < 1e-12 {
                    return (best_y - xi - p.mean).max(0.0);
                }
                let z = (best_y - xi - p.mean) / sigma;
                (best_y - xi - p.mean) * norm_cdf(z) + sigma * norm_pdf(z)
            }
            Acquisition::ProbabilityOfImprovement { xi } => {
                if sigma < 1e-12 {
                    return if p.mean < best_y - xi { 1.0 } else { 0.0 };
                }
                norm_cdf((best_y - xi - p.mean) / sigma)
            }
            Acquisition::LowerConfidenceBound { kappa } => -(p.mean - kappa * sigma),
        }
    }
}

/// Tuning knobs for [`maximize`].
#[derive(Debug, Clone, Copy)]
pub struct MaximizeConfig {
    /// Number of uniform random candidates.
    pub n_random: usize,
    /// Number of observed incumbents to start local searches from.
    pub n_local_starts: usize,
    /// Hill-climbing steps per local start.
    pub local_steps: usize,
    /// Neighbours proposed per hill-climbing step.
    pub neighbors_per_step: usize,
}

impl Default for MaximizeConfig {
    fn default() -> Self {
        Self {
            n_random: 500,
            n_local_starts: 5,
            local_steps: 10,
            neighbors_per_step: 8,
        }
    }
}

/// Encodes candidate batches into one flat row-major matrix and pushes
/// them through the model's batch primitive, keeping the matrix and the
/// prediction buffer alive across batches — a maximization sends dozens
/// of 8-candidate batches after its one big random sweep.
struct BatchScorer<'a> {
    space: &'a ConfigSpace,
    model: &'a dyn Predictor,
    /// Encodings of the last batch, `space.len()` columns per candidate.
    rows: Vec<f64>,
    /// Predictions of the last batch, in candidate order.
    preds: Vec<Prediction>,
}

impl<'a> BatchScorer<'a> {
    fn new(space: &'a ConfigSpace, model: &'a dyn Predictor) -> Self {
        Self {
            space,
            model,
            rows: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Predicts `cands` into `self.preds` (and leaves their encodings in
    /// `self.rows`).
    fn predict(&mut self, cands: &[Config]) -> Result<(), SurrogateError> {
        self.rows.clear();
        for c in cands {
            self.space.encode_into(c, &mut self.rows);
        }
        self.model
            .predict_rows(&self.rows, self.space.len(), &mut self.preds)
    }
}

/// Maximizes `acq` under `model`, returning the best configuration found
/// and its acquisition value.
///
/// `incumbents` should contain the best observed configurations (ordered
/// or not); `best_y` is the best (lowest) observed objective. Candidates
/// are scored in unit-cube encoding via `space.encode_into`.
pub fn maximize<R: Rng + ?Sized>(
    space: &ConfigSpace,
    model: &dyn Predictor,
    acq: Acquisition,
    best_y: f64,
    incumbents: &[&Config],
    config: &MaximizeConfig,
    rng: &mut R,
) -> Result<(Config, f64), SurrogateError> {
    // Candidate generation is separated from scoring: candidates are drawn
    // first (advancing `rng` exactly as per-point scoring did), encoded
    // once, and pushed through the model's batch path — lockstep for
    // forests, member-major for ensembles.
    let mut scorer = BatchScorer::new(space, model);

    let mut best: Option<(Config, f64)> = None;
    let consider = |c: Config, s: f64, best: &mut Option<(Config, f64)>| {
        if best.as_ref().is_none_or(|(_, bs)| s > *bs) {
            *best = Some((c, s));
        }
    };

    // Global random phase: one batch over all random candidates.
    let randoms: Vec<Config> = (0..config.n_random.max(1))
        .map(|_| space.sample(rng))
        .collect();
    scorer.predict(&randoms)?;
    for (c, p) in randoms.into_iter().zip(&scorer.preds) {
        consider(c, acq.score(*p, best_y), &mut best);
    }

    // Local phase: hill-climb from each incumbent, scoring each step's
    // neighbour set as one batch. First-improvement updates walk the batch
    // in generation order, matching the sequential search exactly.
    for start in incumbents.iter().take(config.n_local_starts) {
        let mut current = (*start).clone();
        scorer.predict(std::slice::from_ref(&current))?;
        let mut current_score = acq.score(scorer.preds[0], best_y);
        for _ in 0..config.local_steps {
            let cands = neighbors::neighbors(space, &current, config.neighbors_per_step, rng);
            scorer.predict(&cands)?;
            let mut improved = false;
            for (cand, p) in cands.into_iter().zip(&scorer.preds) {
                let s = acq.score(*p, best_y);
                if s > current_score {
                    current = cand;
                    current_score = s;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        consider(current, current_score, &mut best);
    }

    Ok(best.expect("at least one candidate was scored"))
}

/// Pool-based batch acquisition (the local-penalization batch-BO
/// recipe): the candidate pool — [`maximize`]'s random phase plus one
/// hill-climbing pass from the incumbents, every visited point included —
/// is generated and pushed through the model **once**. Each subsequent
/// draw re-scores the cached base predictions under the current
/// constant-liar penalties, takes the argmax, and registers the pick as a
/// liar. A batch of `k` therefore costs one model sweep instead of `k`.
///
/// # Incremental re-scoring
///
/// The constant-liar penalty weight at a pool point is the **max** over
/// liar kernels (`penalize`): `w(x) = max_j exp(-d²(x, liar_j) / 2σ²)`.
/// Because `max` folds one liar at a time, each pool entry carries its
/// *running* max weight: registering a liar is one O(pool) kernel sweep
/// (`w_i ← max(w_i, k(x_i, liar))`) and the subsequent argmax is a pure
/// O(pool) arithmetic scan over cached weights. Drawing `k` candidates is
/// O(pool × k) total, where re-deriving every weight from the full liar
/// list on every pick — the reference path, compiled only into this
/// module's tests — is O(pool × k²). The fold order over liars is
/// identical in both paths, so they agree *bit for bit* (pinned by
/// proptest in this module's tests).
///
/// # Struct-of-arrays layout
///
/// The pool is stored as flat parallel `f64` buffers — an encoded
/// `pool × dims` position matrix plus base means, variances, and running
/// weights — with a bitset for picked entries, so both the per-liar kernel
/// sweep and the argmax scan are tight contiguous loops over primitive
/// arrays instead of pointer-chasing a `Vec` of per-entry structs.
pub struct BatchMaximizer {
    /// Decoded configurations, indexed like the flat buffers.
    configs: Vec<Config>,
    /// Encoding width; every row of `encoded` has this many columns.
    dims: usize,
    /// Row-major `pool × dims` unit-cube position matrix.
    encoded: Vec<f64>,
    /// Base-model predictive means.
    means: Vec<f64>,
    /// Base-model predictive variances (already clamped `>= 0`).
    vars: Vec<f64>,
    /// Running max constant-liar kernel weight per entry.
    weights: Vec<f64>,
    /// Picked-entry bitset (64 entries per word).
    picked: Vec<u64>,
    /// Registered liar positions, in registration order, which the
    /// reference path re-folds on every pick.
    #[cfg(test)]
    liars: Vec<Vec<f64>>,
    liar_value: f64,
    acq: Acquisition,
    best_y: f64,
    /// Kernel evaluations performed by re-scoring — (entry, liar) pairs.
    /// O(pool × k) incremental vs O(pool × k²) reference; surfaced as the
    /// `batch.rescore_ops` telemetry counter by the samplers.
    rescore_ops: u64,
    /// When set, `next_candidate` re-derives every penalty weight from
    /// the full liar list (the original O(pool × liars) arithmetic).
    /// Toggle before the first `push_liar`.
    #[cfg(test)]
    reference: bool,
}

impl BatchMaximizer {
    /// Builds the candidate pool and computes its base predictions; this
    /// is the only place the model is queried. `liar_value` should be a
    /// middling observed objective (the median), so penalized regions
    /// look unpromising but not catastrophic.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        space: &ConfigSpace,
        model: &dyn Predictor,
        acq: Acquisition,
        best_y: f64,
        liar_value: f64,
        incumbents: &[&Config],
        config: &MaximizeConfig,
        rng: &mut R,
    ) -> Result<Self, SurrogateError> {
        let mut pool = Self {
            configs: Vec::new(),
            dims: 0,
            encoded: Vec::new(),
            means: Vec::new(),
            vars: Vec::new(),
            weights: Vec::new(),
            picked: Vec::new(),
            #[cfg(test)]
            liars: Vec::new(),
            liar_value,
            acq,
            best_y,
            rescore_ops: 0,
            #[cfg(test)]
            reference: false,
        };
        // One encoding matrix and one prediction buffer serve every
        // expansion below — the local-search loop would otherwise allocate
        // a fresh pair per hill-climbing step.
        let mut scorer = BatchScorer::new(space, model);
        let mut predict_into =
            |cands: Vec<Config>, pool: &mut Self| -> Result<usize, SurrogateError> {
                scorer.predict(&cands)?;
                let first = pool.configs.len();
                let encoded = scorer.rows.chunks_exact(space.len().max(1));
                for ((config, encoded), base) in cands.into_iter().zip(encoded).zip(&scorer.preds) {
                    pool.push_entry(config, encoded, *base);
                }
                Ok(first)
            };

        // Random phase.
        let randoms: Vec<Config> = (0..config.n_random.max(1))
            .map(|_| space.sample(rng))
            .collect();
        predict_into(randoms, &mut pool)?;

        // Local phase: hill-climb under the base model exactly as
        // `maximize` does, but keep every visited candidate — each one is
        // already predicted, and a runner-up on the base landscape is
        // often the argmax once liars penalize the leader's neighborhood.
        for start in incumbents.iter().take(config.n_local_starts) {
            let i = predict_into(vec![(*start).clone()], &mut pool)?;
            let mut current = pool.configs[i].clone();
            let mut current_score = acq.score(Prediction::new(pool.means[i], pool.vars[i]), best_y);
            for _ in 0..config.local_steps {
                let cands = neighbors::neighbors(space, &current, config.neighbors_per_step, rng);
                let first = predict_into(cands, &mut pool)?;
                let mut improved = false;
                for j in first..pool.configs.len() {
                    let s = acq.score(Prediction::new(pool.means[j], pool.vars[j]), best_y);
                    if s > current_score {
                        current = pool.configs[j].clone();
                        current_score = s;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        Ok(pool)
    }

    fn push_entry(&mut self, config: Config, encoded: &[f64], base: Prediction) {
        if self.configs.is_empty() {
            self.dims = encoded.len();
        }
        debug_assert_eq!(encoded.len(), self.dims, "ragged pool encoding");
        self.configs.push(config);
        self.encoded.extend_from_slice(encoded);
        self.means.push(base.mean);
        self.vars.push(base.var);
        self.weights.push(0.0);
        if self.configs.len() > self.picked.len() * 64 {
            self.picked.push(0);
        }
    }

    /// Number of candidates in the pool.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// `true` when the pool holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Kernel evaluations spent re-scoring so far — one per (pool entry,
    /// liar) pair visited. Incremental re-scoring spends exactly
    /// `pool × liars_registered`; the reference path spends
    /// `pool × Σ liars` ≈ `pool × k²/2` over a k-draw batch.
    pub fn rescore_ops(&self) -> u64 {
        self.rescore_ops
    }

    #[inline]
    fn is_picked(&self, i: usize) -> bool {
        self.picked[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Registers a drawn point (encoded position) as a liar so later
    /// draws avoid its neighborhood. Callers invoke this for *every*
    /// batch member — pool picks and random-fraction draws alike.
    ///
    /// Incremental mode folds the new liar's kernel into every entry's
    /// running max weight here (one contiguous O(pool) sweep); the argmax
    /// in [`Self::next_candidate`] then reads cached weights only.
    pub fn push_liar(&mut self, x: Vec<f64>) {
        #[cfg(test)]
        if self.reference {
            self.liars.push(x);
            return;
        }
        if !self.configs.is_empty() {
            let dims = self.dims;
            let n = dims.max(1) as f64;
            for i in 0..self.configs.len() {
                let row = &self.encoded[i * dims..i * dims + dims];
                // Identical arithmetic (and fold order over liars) to
                // `penalize`, so running weights match the reference fold
                // bit for bit.
                let d2: f64 = row
                    .iter()
                    .zip(x.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    / n;
                let w = (-d2 / (2.0 * SIGMA * SIGMA)).exp();
                self.weights[i] = self.weights[i].max(w);
            }
            self.rescore_ops += self.configs.len() as u64;
        }
        #[cfg(test)]
        self.liars.push(x);
    }

    /// Argmax of the acquisition over the unpicked pool under the current
    /// liar penalties. Returns `None` once the pool is exhausted (callers
    /// fall back to random sampling). Does not register a liar — call
    /// [`Self::push_liar`] with the accepted draw.
    pub fn next_candidate(&mut self) -> Option<Config> {
        #[cfg(test)]
        if self.reference {
            let best = self.best_by_reference();
            return self.pick(best);
        }
        let mut best: Option<(usize, f64)> = None;
        // Tight arithmetic-only scan over the SoA buffers: the blend
        // below is the same expression `penalize` ends with, applied
        // to the cached running max weight.
        for i in 0..self.configs.len() {
            if self.is_picked(i) {
                continue;
            }
            let w = self.weights[i];
            let p = Prediction::new(
                w * self.liar_value + (1.0 - w) * self.means[i],
                (1.0 - w) * self.vars[i],
            );
            let s = self.acq.score(p, self.best_y);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        self.pick(best)
    }

    /// Marks the argmax `best` picked and returns its config.
    fn pick(&mut self, best: Option<(usize, f64)>) -> Option<Config> {
        let (i, _) = best?;
        self.picked[i / 64] |= 1u64 << (i % 64);
        Some(self.configs[i].clone())
    }
}

/// The reference O(pool × liars) re-scoring, the oracle the incremental
/// path is pinned against bit for bit.
#[cfg(test)]
impl BatchMaximizer {
    /// Builds a maximizer directly from `(config, encoded, base
    /// prediction)` entries, bypassing candidate generation and the model
    /// sweep, so proptests can compare both paths over arbitrary pools.
    fn from_pool(
        entries: Vec<(Config, Vec<f64>, Prediction)>,
        acq: Acquisition,
        best_y: f64,
        liar_value: f64,
    ) -> Self {
        let mut pool = Self {
            configs: Vec::with_capacity(entries.len()),
            dims: 0,
            encoded: Vec::new(),
            means: Vec::with_capacity(entries.len()),
            vars: Vec::with_capacity(entries.len()),
            weights: Vec::with_capacity(entries.len()),
            picked: Vec::new(),
            liars: Vec::new(),
            liar_value,
            acq,
            best_y,
            rescore_ops: 0,
            reference: false,
        };
        for (config, encoded, base) in entries {
            pool.push_entry(config, &encoded, base);
        }
        pool
    }

    /// Switches `next_candidate` to the reference re-scoring, which
    /// re-derives every weight from the full liar list. Must be toggled
    /// before the first [`Self::push_liar`]; the incremental running
    /// weights are not maintained while in reference mode.
    fn use_reference_rescoring(&mut self, on: bool) {
        assert!(
            self.liars.is_empty(),
            "toggle reference re-scoring before registering liars"
        );
        self.reference = on;
    }

    /// The unpicked argmax with every weight re-folded from all liars.
    fn best_by_reference(&mut self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let dims = self.dims;
        for i in 0..self.configs.len() {
            if self.is_picked(i) {
                continue;
            }
            let row = &self.encoded[i * dims..i * dims + dims];
            let base = Prediction::new(self.means[i], self.vars[i]);
            let p = crate::penalized::penalize(&self.liars, self.liar_value, row, base);
            self.rescore_ops += self.liars.len() as u64;
            let s = self.acq.score(p, self.best_y);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SurrogateModel;
    use crate::rf::RandomForest;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ei_zero_when_certain_and_worse() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        // Certain prediction above incumbent: no improvement possible.
        assert_eq!(acq.score(Prediction::new(2.0, 0.0), 1.0), 0.0);
        // Certain prediction below incumbent: improvement is the gap.
        assert!((acq.score(Prediction::new(0.5, 0.0), 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ei_increases_with_uncertainty_at_same_mean() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        let low = acq.score(Prediction::new(1.0, 0.01), 1.0);
        let high = acq.score(Prediction::new(1.0, 1.0), 1.0);
        assert!(high > low);
    }

    #[test]
    fn pi_is_a_probability() {
        let acq = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
        for mean in [-3.0, 0.0, 3.0] {
            let s = acq.score(Prediction::new(mean, 0.5), 0.0);
            assert!((0.0..=1.0).contains(&s));
        }
        // Mean far below incumbent → probability near 1.
        assert!(acq.score(Prediction::new(-10.0, 0.1), 0.0) > 0.999);
    }

    #[test]
    fn lcb_prefers_low_mean_and_high_variance() {
        let acq = Acquisition::LowerConfidenceBound { kappa: 2.0 };
        let a = acq.score(Prediction::new(1.0, 0.0), 0.0);
        let b = acq.score(Prediction::new(1.0, 4.0), 0.0);
        let c = acq.score(Prediction::new(0.0, 0.0), 0.0);
        assert!(b > a);
        assert!(c > a);
    }

    #[test]
    fn maximize_moves_towards_optimum() {
        // Fit an RF on |x - 0.7| and check the maximizer proposes near 0.7.
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut rng = StdRng::seed_from_u64(0);
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 59.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|p| (p[0] - 0.7).abs()).collect();
        let mut rf = RandomForest::new(1);
        rf.fit(&xs, &ys).unwrap();

        let incumbent = space.decode(&[0.65]).unwrap();
        let (best_cfg, _) = maximize(
            &space,
            &rf,
            Acquisition::default(),
            0.05,
            &[&incumbent],
            &MaximizeConfig::default(),
            &mut rng,
        )
        .unwrap();
        let x = space.encode(&best_cfg)[0];
        assert!((x - 0.7).abs() < 0.2, "proposed {x}");
    }

    #[test]
    fn maximize_works_with_no_incumbents() {
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut rng = StdRng::seed_from_u64(2);
        let mut rf = RandomForest::new(3);
        rf.fit(&[vec![0.2], vec![0.8]], &[1.0, 0.0]).unwrap();
        let r = maximize(
            &space,
            &rf,
            Acquisition::default(),
            0.0,
            &[],
            &MaximizeConfig {
                n_random: 50,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(r.is_ok());
    }

    /// Builds two identical pools over a `dims`-dimensional unit cube from
    /// raw `(encoded, mean, var)` triples — one incremental, one on the
    /// reference O(pool × liars) path.
    fn twin_pools(
        entries: &[(Vec<f64>, f64, f64)],
        acq: Acquisition,
        best_y: f64,
        liar_value: f64,
    ) -> (BatchMaximizer, BatchMaximizer) {
        let dims = entries.first().map_or(0, |(e, _, _)| e.len());
        let mut builder = ConfigSpace::builder();
        for d in 0..dims {
            builder = builder.float(&format!("x{d}"), 0.0, 1.0);
        }
        let space = builder.build();
        let pool: Vec<(Config, Vec<f64>, Prediction)> = entries
            .iter()
            .map(|(enc, mean, var)| {
                (
                    space.decode(enc).unwrap(),
                    enc.clone(),
                    Prediction::new(*mean, *var),
                )
            })
            .collect();
        let fast = BatchMaximizer::from_pool(pool.clone(), acq, best_y, liar_value);
        let mut slow = BatchMaximizer::from_pool(pool, acq, best_y, liar_value);
        slow.use_reference_rescoring(true);
        (fast, slow)
    }

    /// Draws `k` candidates from both pools in lockstep, registering each
    /// pick as a liar, and asserts the draw sequences are identical.
    fn assert_lockstep(
        mut fast: BatchMaximizer,
        mut slow: BatchMaximizer,
        space_dims: usize,
        k: usize,
        extra_liars: &[Vec<f64>],
    ) {
        for liar in extra_liars {
            fast.push_liar(liar.clone());
            slow.push_liar(liar.clone());
        }
        for round in 0..k {
            let a = fast.next_candidate();
            let b = slow.next_candidate();
            assert_eq!(a, b, "divergence at draw {round}");
            let Some(cfg) = a else { break };
            let enc: Vec<f64> = (0..space_dims)
                .map(|d| {
                    let hypertune_space::ParamValue::Float(v) = cfg.values()[d] else {
                        panic!("float space")
                    };
                    v
                })
                .collect();
            fast.push_liar(enc.clone());
            slow.push_liar(enc);
        }
    }

    #[test]
    fn incremental_rescoring_matches_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let entries: Vec<(Vec<f64>, f64, f64)> = (0..64)
            .map(|_| {
                (
                    vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()],
                    rng.gen::<f64>() * 2.0 - 1.0,
                    rng.gen::<f64>(),
                )
            })
            .collect();
        let (fast, slow) = twin_pools(
            &entries,
            Acquisition::ExpectedImprovement { xi: 0.0 },
            0.1,
            0.4,
        );
        assert_lockstep(fast, slow, 3, 16, &[vec![0.5, 0.5, 0.5]]);
    }

    #[test]
    fn rescore_ops_is_linear_in_k() {
        let entries: Vec<(Vec<f64>, f64, f64)> = (0..100)
            .map(|i| (vec![i as f64 / 99.0], i as f64 / 99.0, 0.1))
            .collect();
        let k = 20usize;
        let (mut fast, mut slow) = twin_pools(&entries, Acquisition::default(), 0.0, 0.5);
        for _ in 0..k {
            let a = fast.next_candidate().unwrap();
            let b = slow.next_candidate().unwrap();
            assert_eq!(a, b);
            let hypertune_space::ParamValue::Float(v) = a.values()[0] else {
                panic!("float space")
            };
            fast.push_liar(vec![v]);
            slow.push_liar(vec![v]);
        }
        // Incremental: one pool sweep per liar → pool × k exactly.
        assert_eq!(fast.rescore_ops(), (entries.len() * k) as u64);
        // Reference: every argmax re-folds all current liars over the
        // unpicked pool → Θ(pool × k²); with k = 20 the gap is ~10x.
        assert!(
            slow.rescore_ops() > 5 * fast.rescore_ops(),
            "reference ops {} vs incremental {}",
            slow.rescore_ops(),
            fast.rescore_ops()
        );
    }

    #[test]
    fn reference_toggle_rejected_after_liars() {
        let (mut fast, _) = twin_pools(&[(vec![0.5], 0.0, 1.0)], Acquisition::default(), 0.0, 0.5);
        fast.push_liar(vec![0.1]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fast.use_reference_rescoring(true)
        }));
        assert!(err.is_err());
    }

    proptest::proptest! {
        /// The satellite pin: over random pools, dims, and liar counts the
        /// incremental running-max path draws the *bit-identical* sequence
        /// the full O(pool × liars) reference re-scoring draws.
        #[test]
        fn prop_incremental_bit_identical_to_reference(
            seed in 0u64..1000,
            pool_n in 1usize..40,
            dims in 1usize..5,
            k in 1usize..12,
            pre_liars in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
                let entries: Vec<(Vec<f64>, f64, f64)> = (0..pool_n)
                .map(|_| {
                    (
                        (0..dims).map(|_| rng.gen::<f64>()).collect(),
                        rng.gen::<f64>() * 4.0 - 2.0,
                        rng.gen::<f64>() * 2.0,
                    )
                })
                .collect();
            let extra: Vec<Vec<f64>> = (0..pre_liars)
                .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
                .collect();
            let acq = match seed % 3 {
                0 => Acquisition::ExpectedImprovement { xi: 0.01 },
                1 => Acquisition::ProbabilityOfImprovement { xi: 0.0 },
                _ => Acquisition::LowerConfidenceBound { kappa: 1.8 },
            };
            let (fast, slow) = twin_pools(&entries, acq, 0.2, 0.5);
            assert_lockstep(fast, slow, dims, k, &extra);
        }
    }

    #[test]
    fn maximizer_respects_mixed_spaces() {
        let space = ConfigSpace::builder()
            .float("x", 0.0, 1.0)
            .categorical("c", &["a", "b"])
            .build();
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|_| space.encode(&space.sample(&mut rng)))
            .collect();
        let ys: Vec<f64> = xs.iter().map(|p| p[0]).collect();
        let mut rf = RandomForest::new(5);
        rf.fit(&xs, &ys).unwrap();
        let start = space.sample(&mut rng);
        let (cfg, score) = maximize(
            &space,
            &rf,
            Acquisition::default(),
            0.5,
            &[&start],
            &MaximizeConfig::default(),
            &mut rng,
        )
        .unwrap();
        space.check(&cfg).unwrap();
        assert!(score.is_finite());
    }
}
