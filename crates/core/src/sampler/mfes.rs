//! The multi-fidelity ensemble sampler (§4.3, Hyper-Tune's default
//! optimizer, adapted from MFES-HB).
//!
//! Base surrogates `M_1..M_K` are fit on the per-level measurement groups
//! and combined by weighted bagging with the precision weights `θ`
//! (Eq. 3) — the same `θ` the resource allocator learns, pushed in by the
//! owning method through [`crate::sampler::Sampler::set_theta`]. The
//! top-level surrogate is refit on `D_K` augmented with median-imputed
//! pending configurations (Algorithm 2) before the ensemble's expected
//! improvement is maximized.

use std::collections::HashMap;

use hypertune_space::Config;
use hypertune_surrogate::acquisition::{maximize, Acquisition, BatchMaximizer, MaximizeConfig};
use hypertune_surrogate::{stats, MfEnsemble, Predictor, RandomForest, SurrogateModel};
use hypertune_telemetry::{Event, TelemetryHandle};
use rand::Rng;

use crate::method::MethodContext;
use crate::ranking::{run_indexed, MIN_POINTS_PER_LEVEL};
use crate::sampler::{derive_model_seed, pending_fingerprint, Sampler};

/// A fitted per-level surrogate plus the state it was fitted against.
#[derive(Debug, Clone)]
struct CachedLevelModel {
    /// Level measurement count at fit time (history is append-only, so
    /// this identifies the training set).
    n: usize,
    /// Fingerprint of the pending set imputed into the fit (0 for levels
    /// that saw no imputation).
    pending_fp: u64,
    rf: RandomForest,
}

/// Multi-fidelity ensemble sampler; see the module docs.
///
/// Per-level surrogates are cached between `sample` calls and refit only
/// when a level's data (or the imputed pending set at the reference
/// level) changes; fit seeds are derived from that same key, so a cache
/// hit is bit-identical to a refit.
#[derive(Debug, Clone)]
pub struct MfesSampler {
    /// Fraction of purely random proposals mixed in.
    pub random_fraction: f64,
    /// Minimum complete evaluations before modelling starts.
    pub min_full: usize,
    theta: Option<Vec<f64>>,
    seed: u64,
    cache: HashMap<usize, CachedLevelModel>,
    telemetry: TelemetryHandle,
    /// Degradation-ladder floor: while set (by the runner's circuit
    /// breaker) every proposal is a uniform random draw, no fits.
    degraded: bool,
}

impl MfesSampler {
    /// Creates the sampler with paper-standard defaults.
    pub fn new(seed: u64) -> Self {
        Self {
            random_fraction: 0.25,
            min_full: 4,
            theta: None,
            seed,
            cache: HashMap::new(),
            telemetry: TelemetryHandle::disabled(),
            degraded: false,
        }
    }

    /// Number of cached level surrogates (test hook).
    pub fn cached_levels(&self) -> usize {
        self.cache.len()
    }

    /// The reference level: complete evaluations once enough exist,
    /// otherwise the highest level with enough data; `None` before any
    /// level is modellable.
    fn ref_level(&self, ctx: &MethodContext<'_>) -> Option<usize> {
        let top = ctx.levels.max_level();
        if ctx.history.len_at(top) >= self.min_full {
            return Some(top);
        }
        (0..=top)
            .rev()
            .find(|&l| ctx.history.len_at(l) >= self.min_full)
    }

    /// Refits the per-level surrogates whose cache key (measurement
    /// count, pending fingerprint at the reference level) went stale.
    /// Consumes no RNG — fit seeds are derived — so cache hits stay
    /// bit-identical to cold refits.
    fn refresh_models(&mut self, ctx: &MethodContext<'_>, ref_level: usize) {
        let top = ctx.levels.max_level();
        let pending_fp = pending_fingerprint(ctx.space, ctx.pending);
        let stale: Vec<(usize, u64)> = (0..=top)
            .filter_map(|level| {
                let n = ctx.history.len_at(level);
                if n < MIN_POINTS_PER_LEVEL {
                    return None;
                }
                let fp = if level == ref_level { pending_fp } else { 0 };
                match self.cache.get(&level) {
                    Some(e) if e.n == n && e.pending_fp == fp => None,
                    _ => Some((level, fp)),
                }
            })
            .collect();
        let history = ctx.history;
        let space = ctx.space;
        let pending = ctx.pending;
        let seed = self.seed;
        let fit_span = if stale.is_empty() {
            None
        } else {
            Some(self.telemetry.span("surrogate_fit"))
        };
        let refitted: Vec<(usize, u64, usize, Option<RandomForest>)> =
            run_indexed(stale.len(), |i| {
                let (level, fp) = stale[i];
                let n = history.len_at(level);
                let (mut xs, mut ys) = history.training_data_capped(
                    level,
                    space,
                    crate::sampler::bo::MAX_TRAIN_POINTS,
                );
                if level == ref_level {
                    let med = stats::median(&ys).expect("level has measurements");
                    for job in pending {
                        xs.push(space.encode(&job.config));
                        ys.push(med);
                    }
                }
                let mut rf = RandomForest::new(derive_model_seed(seed, level, n, fp));
                let fit = rf.fit(&xs, &ys);
                let skipped = rf.skipped_nonfinite();
                (level, fp, skipped, fit.ok().map(|_| rf))
            });
        drop(fit_span);
        for (level, fp, skipped, rf) in refitted {
            if skipped > 0 {
                self.telemetry
                    .counter_add("surrogate.skipped_nonfinite", skipped as u64);
            }
            match rf {
                Some(rf) => {
                    let n_points = ctx.history.len_at(level);
                    self.telemetry
                        .emit_with(ctx.now, || Event::SurrogateFit { level, n_points });
                    self.telemetry.counter_add("surrogate.fits", 1);
                    self.cache.insert(
                        level,
                        CachedLevelModel {
                            n: n_points,
                            pending_fp: fp,
                            rf,
                        },
                    );
                }
                None => {
                    self.cache.remove(&level);
                }
            }
        }
    }

    /// Combines the cached per-level surrogates with θ (Eq. 3), falling
    /// back to uniform weights when θ is unavailable or puts no mass on
    /// the fitted levels. Returns the ensemble and its member count.
    fn build_ensemble<'a>(&'a self, ctx: &MethodContext<'_>) -> (Option<MfEnsemble<'a>>, usize) {
        let top = ctx.levels.max_level();
        let models: Vec<Option<&RandomForest>> = (0..=top)
            .map(|level| {
                if ctx.history.len_at(level) < MIN_POINTS_PER_LEVEL {
                    return None;
                }
                self.cache.get(&level).map(|e| &e.rf)
            })
            .collect();
        let n_models = models.iter().filter(|m| m.is_some()).count();
        let members = |theta: Option<&[f64]>| -> Vec<(&'a dyn Predictor, f64)> {
            models
                .iter()
                .enumerate()
                .filter_map(|(level, m)| {
                    m.map(|rf| {
                        let w = theta.map_or(1.0, |t| t[level]);
                        (rf as &dyn Predictor, w)
                    })
                })
                .collect()
        };
        let ensemble = MfEnsemble::new(members(self.theta.as_deref()))
            .or_else(|| MfEnsemble::new(members(None)));
        (ensemble, n_models)
    }
}

impl Sampler for MfesSampler {
    fn name(&self) -> &str {
        "MFES"
    }

    fn consumes_theta(&self) -> bool {
        true
    }

    fn set_theta(&mut self, theta: &[f64]) {
        self.theta = Some(theta.to_vec());
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    fn sample(&mut self, ctx: &mut MethodContext<'_>) -> Config {
        if self.degraded {
            return ctx.space.sample(ctx.rng);
        }
        if ctx.rng.gen::<f64>() < self.random_fraction {
            return ctx.space.sample(ctx.rng);
        }
        // The reference level drives the incumbent and the pending
        // imputation: the complete-evaluation level once it has enough
        // data, otherwise the highest level that does — so the ensemble
        // exploits low-fidelity structure from the very first rung, as
        // MFES-HB does, instead of sampling blindly until complete
        // evaluations exist.
        let Some(ref_level) = self.ref_level(ctx) else {
            return ctx.space.sample(ctx.rng);
        };

        // Fit one base surrogate per level with enough data; the
        // reference-level one sees the median-imputed pending configs.
        // Fits go through the cache: a level is refit — in parallel with
        // the other stale levels when cores allow — only when its
        // measurement count or (for the reference level) the pending
        // fingerprint changed since the cached fit.
        self.refresh_models(ctx, ref_level);
        // Combine with θ (Eq. 3); fall back to uniform weights over the
        // fitted levels when θ is unavailable or puts no mass on them.
        let (ensemble, n_models) = self.build_ensemble(ctx);
        let Some(ensemble) = ensemble else {
            return ctx.space.sample(ctx.rng);
        };

        let best_y = ctx
            .history
            .group(ref_level)
            .iter()
            .map(|m| m.value)
            .fold(f64::INFINITY, f64::min);
        let incumbents = ctx.history.top_configs_ref(ref_level, 5);
        self.telemetry
            .emit_with(ctx.now, || Event::SurrogatePredict {
                level: ref_level,
                n_models,
            });
        let acq_span = self.telemetry.span("acquisition");
        let proposed = match maximize(
            ctx.space,
            &ensemble,
            Acquisition::default(),
            best_y,
            &incumbents,
            &MaximizeConfig::default(),
            ctx.rng,
        ) {
            Ok((config, _)) => config,
            Err(_) => ctx.space.sample(ctx.rng),
        };
        drop(acq_span);
        proposed
    }

    /// Batch path: one ensemble refresh and one candidate-pool sweep,
    /// then `k` constant-liar re-scoring rounds over the cached pool
    /// predictions (same fantasization idea as Algorithm 2's pending
    /// imputation, without `k − 1` extra refits or prediction sweeps).
    fn sample_batch(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<Config> {
        // Degraded (breaker open): the whole batch is uniform random.
        if self.degraded {
            return (0..k).map(|_| ctx.space.sample(ctx.rng)).collect();
        }
        // k ≤ 1 must stay bit-identical to the sequential path.
        if k <= 1 {
            return (0..k).map(|_| self.sample(ctx)).collect();
        }
        let Some(ref_level) = self.ref_level(ctx) else {
            // Nothing modellable: every draw is a plain random sample.
            return (0..k).map(|_| self.sample(ctx)).collect();
        };
        self.refresh_models(ctx, ref_level);
        let (ensemble, n_models) = self.build_ensemble(ctx);
        let Some(ensemble) = ensemble else {
            return (0..k).map(|_| self.sample(ctx)).collect();
        };

        let ys: Vec<f64> = ctx
            .history
            .group(ref_level)
            .iter()
            .map(|m| m.value)
            .collect();
        let best_y = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let liar = stats::median(&ys).expect("reference level has measurements");
        let incumbents = ctx.history.top_configs_ref(ref_level, 5);
        self.telemetry
            .emit_with(ctx.now, || Event::SurrogatePredict {
                level: ref_level,
                n_models,
            });
        let acq_span = self.telemetry.span("acquisition");
        let mut pool = match BatchMaximizer::new(
            ctx.space,
            &ensemble,
            Acquisition::default(),
            best_y,
            liar,
            &incumbents,
            &MaximizeConfig::default(),
            ctx.rng,
        ) {
            Ok(pool) => pool,
            Err(_) => return (0..k).map(|_| ctx.space.sample(ctx.rng)).collect(),
        };
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let config = if ctx.rng.gen::<f64>() < self.random_fraction {
                ctx.space.sample(ctx.rng)
            } else {
                pool.next_candidate()
                    .unwrap_or_else(|| ctx.space.sample(ctx.rng))
            };
            // Every draw — model-based or random — becomes a liar so the
            // rest of the batch avoids its neighborhood.
            pool.push_liar(ctx.space.encode(&config));
            out.push(config);
        }
        drop(acq_span);
        // O(pool × k) with incremental re-scoring; CI guards this stays
        // linear in k (the reference path would be O(pool × k²)).
        self.telemetry
            .counter_add("batch.rescore_ops", pool.rescore_ops());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, Measurement};
    use crate::levels::ResourceLevels;
    use hypertune_space::{ConfigSpace, ParamValue};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::builder().float("x", 0.0, 1.0).build()
    }

    /// History where the low level is dense and informative (minimum at
    /// 0.7) and the full level is sparse.
    fn multi_fidelity_history() -> History {
        let mut h = History::new(ResourceLevels::new(27.0, 3));
        for i in 0..40 {
            let x = i as f64 / 39.0;
            h.record(Measurement {
                config: Config::new(vec![ParamValue::Float(x)]),
                level: 0,
                resource: 1.0,
                value: (x - 0.7) * (x - 0.7) + 0.01,
                test_value: 0.0,
                cost: 1.0,
                finished_at: i as f64,
            });
        }
        for i in 0..5 {
            let x = 0.1 + 0.8 * i as f64 / 4.0;
            h.record(Measurement {
                config: Config::new(vec![ParamValue::Float(x)]),
                level: 3,
                resource: 27.0,
                value: (x - 0.7) * (x - 0.7),
                test_value: 0.0,
                cost: 27.0,
                finished_at: 100.0 + i as f64,
            });
        }
        h
    }

    #[test]
    fn random_until_enough_full_evals() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = History::new(levels.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = MfesSampler::new(0);
        let mut ctx = MethodContext {
            space: &space,
            levels: &levels,
            history: &history,
            pending: &[],
            rng: &mut rng,
            n_workers: 4,
            now: 0.0,
        };
        let c = s.sample(&mut ctx);
        assert!(space.check(&c).is_ok());
    }

    #[test]
    fn ensemble_exploits_low_fidelity_structure() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = multi_fidelity_history();
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = MfesSampler::new(1);
        s.random_fraction = 0.0;
        // Give the informative low level most of the weight.
        s.set_theta(&[0.7, 0.0, 0.0, 0.3]);
        let mut hits = 0;
        for _ in 0..10 {
            let mut ctx = MethodContext {
                space: &space,
                levels: &levels,
                history: &history,
                pending: &[],
                rng: &mut rng,
                n_workers: 4,
                now: 0.0,
            };
            let c = s.sample(&mut ctx);
            if (space.encode(&c)[0] - 0.7).abs() < 0.25 {
                hits += 1;
            }
        }
        assert!(hits >= 6, "should search near 0.7: {hits}/10");
    }

    #[test]
    fn cache_hit_matches_cold_refit() {
        // Sampler A reuses its per-level model cache; sampler B is
        // recreated (cold cache) before every call. Identical RNG streams
        // must yield identical proposals — the cache must be
        // observationally transparent.
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = multi_fidelity_history();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut a = MfesSampler::new(5);
        a.random_fraction = 0.0;
        for round in 0..3 {
            let ca = {
                let mut ctx = MethodContext {
                    space: &space,
                    levels: &levels,
                    history: &history,
                    pending: &[],
                    rng: &mut rng_a,
                    n_workers: 4,
                    now: 0.0,
                };
                a.sample(&mut ctx)
            };
            if round > 0 {
                assert!(a.cached_levels() > 0, "cache should be warm");
            }
            let cb = {
                let mut fresh = MfesSampler::new(5);
                fresh.random_fraction = 0.0;
                let mut ctx = MethodContext {
                    space: &space,
                    levels: &levels,
                    history: &history,
                    pending: &[],
                    rng: &mut rng_b,
                    n_workers: 4,
                    now: 0.0,
                };
                fresh.sample(&mut ctx)
            };
            assert_eq!(space.encode(&ca), space.encode(&cb));
        }
    }

    #[test]
    fn theta_on_unfitted_levels_falls_back_to_uniform() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = multi_fidelity_history();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = MfesSampler::new(2);
        s.random_fraction = 0.0;
        // All mass on levels 1 and 2, which have no data.
        s.set_theta(&[0.0, 0.5, 0.5, 0.0]);
        let mut ctx = MethodContext {
            space: &space,
            levels: &levels,
            history: &history,
            pending: &[],
            rng: &mut rng,
            n_workers: 4,
            now: 0.0,
        };
        let c = s.sample(&mut ctx);
        assert!(space.check(&c).is_ok());
    }
}
