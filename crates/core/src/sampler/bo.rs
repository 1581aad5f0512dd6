//! Single-fidelity Bayesian-optimization sampler (the BOHB recipe).
//!
//! Fits a probabilistic random forest on the *highest* resource level that
//! has accumulated enough measurements — lower levels are ignored, which
//! is exactly the limitation the MFES sampler removes — and maximizes
//! expected improvement. Pending configurations are imputed with the
//! median observed value at the modelled level (Algorithm 2) so parallel
//! workers do not pile onto the same region.

use hypertune_space::Config;
use hypertune_surrogate::acquisition::{maximize, Acquisition, BatchMaximizer, MaximizeConfig};
use hypertune_surrogate::{stats, RandomForest, SurrogateModel};
use rand::Rng;

use crate::method::MethodContext;

/// Cap on surrogate training-set size; refits stay cheap as runs grow.
pub const MAX_TRAIN_POINTS: usize = 300;
use crate::sampler::{derive_model_seed, pending_fingerprint, Sampler};

/// The fitted surrogate plus the state it was fitted against: modelled
/// level, that level's measurement count, the pending fingerprint, and
/// the incumbent value observed at fit time.
#[derive(Debug, Clone)]
struct CachedModel {
    level: usize,
    n: usize,
    pending_fp: u64,
    best_y: f64,
    rf: RandomForest,
}

/// Bayesian-optimization sampler; see the module docs.
///
/// The fitted surrogate is cached between `sample` calls and refit only
/// when the modelled level, its measurement count, or the pending set
/// changes; the fit seed is derived from that same key, so a cache hit is
/// bit-identical to a refit.
#[derive(Debug, Clone)]
pub struct BoSampler {
    /// Fraction of purely random proposals mixed in (BOHB uses a random
    /// fraction to keep the theoretical guarantees of Hyperband).
    pub random_fraction: f64,
    /// Minimum measurements a level needs before it can be modelled.
    pub min_points: usize,
    /// Median-impute pending configurations (Algorithm 2). Disable only
    /// for the imputation ablation bench.
    pub impute_pending: bool,
    seed: u64,
    cache: Option<CachedModel>,
    telemetry: hypertune_telemetry::TelemetryHandle,
    /// Degradation-ladder floor: while set (by the runner's circuit
    /// breaker) every proposal is a uniform random draw, no fits.
    degraded: bool,
}

impl BoSampler {
    /// Creates the sampler with the paper-standard defaults
    /// (random fraction 1/4, minimum 4 points).
    pub fn new(seed: u64) -> Self {
        Self {
            random_fraction: 0.25,
            min_points: 4,
            impute_pending: true,
            seed,
            cache: None,
            telemetry: hypertune_telemetry::TelemetryHandle::disabled(),
            degraded: false,
        }
    }

    /// Creates a pure (no random mixing) BO sampler, used by the Batch-BO
    /// and A-BO baselines.
    pub fn pure(seed: u64) -> Self {
        Self {
            random_fraction: 0.0,
            min_points: 4,
            impute_pending: true,
            seed,
            cache: None,
            telemetry: hypertune_telemetry::TelemetryHandle::disabled(),
            degraded: false,
        }
    }

    /// The highest level with enough data to model, if any.
    fn modelling_level(&self, ctx: &MethodContext<'_>) -> Option<usize> {
        (0..=ctx.levels.max_level())
            .rev()
            .find(|&l| ctx.history.len_at(l) >= self.min_points)
    }

    /// Ensures `self.cache` holds a forest fitted against the current
    /// history and pending set; refits only when the cache key (level,
    /// count, pending fingerprint) changed. Returns `false` when no level
    /// is modellable or the fit failed — callers fall back to random
    /// sampling. Consumes no RNG, so cache hits stay bit-identical to
    /// cold refits.
    fn ensure_model(&mut self, ctx: &MethodContext<'_>) -> bool {
        let Some(level) = self.modelling_level(ctx) else {
            return false;
        };
        let n = ctx.history.len_at(level);
        let pending_fp = if self.impute_pending {
            pending_fingerprint(ctx.space, ctx.pending)
        } else {
            0
        };
        let cache_hit = matches!(
            &self.cache,
            Some(c) if c.level == level && c.n == n && c.pending_fp == pending_fp
        );
        if !cache_hit {
            let (mut xs, mut ys) =
                ctx.history
                    .training_data_capped(level, ctx.space, MAX_TRAIN_POINTS);
            let best_y = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            // Algorithm 2, lines 1–3: impute pending configs at the median.
            if self.impute_pending {
                let med = stats::median(&ys).expect("level has measurements");
                for job in ctx.pending {
                    xs.push(ctx.space.encode(&job.config));
                    ys.push(med);
                }
            }
            let mut rf = RandomForest::new(derive_model_seed(self.seed, level, n, pending_fp));
            let fit = rf.fit(&xs, &ys);
            if rf.skipped_nonfinite() > 0 {
                self.telemetry
                    .counter_add("surrogate.skipped_nonfinite", rf.skipped_nonfinite() as u64);
            }
            if fit.is_err() {
                self.cache = None;
                return false;
            }
            self.cache = Some(CachedModel {
                level,
                n,
                pending_fp,
                best_y,
                rf,
            });
        }
        true
    }
}

impl Sampler for BoSampler {
    fn name(&self) -> &str {
        "BO"
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    fn set_telemetry(&mut self, telemetry: hypertune_telemetry::TelemetryHandle) {
        self.telemetry = telemetry;
    }

    fn sample(&mut self, ctx: &mut MethodContext<'_>) -> Config {
        if self.degraded {
            return ctx.space.sample(ctx.rng);
        }
        if ctx.rng.gen::<f64>() < self.random_fraction {
            return ctx.space.sample(ctx.rng);
        }
        if !self.ensure_model(ctx) {
            return ctx.space.sample(ctx.rng);
        }
        let cached = self.cache.as_ref().expect("cache was just populated");
        let incumbents = ctx.history.top_configs_ref(cached.level, 5);
        match maximize(
            ctx.space,
            &cached.rf,
            Acquisition::default(),
            cached.best_y,
            &incumbents,
            &MaximizeConfig::default(),
            ctx.rng,
        ) {
            Ok((config, _)) => config,
            Err(_) => ctx.space.sample(ctx.rng),
        }
    }

    /// Batch path: one forest fit and one candidate-pool sweep, then `k`
    /// constant-liar re-scoring rounds over the cached pool predictions —
    /// so a batch of `k` costs one model sweep instead of `k`.
    fn sample_batch(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<Config> {
        // Degraded (breaker open): the whole batch is uniform random.
        if self.degraded {
            return (0..k).map(|_| ctx.space.sample(ctx.rng)).collect();
        }
        // k ≤ 1 must stay bit-identical to the sequential path.
        if k <= 1 || !self.ensure_model(ctx) {
            return (0..k).map(|_| self.sample(ctx)).collect();
        }
        let cached = self.cache.as_ref().expect("cache was just populated");
        let ys: Vec<f64> = ctx
            .history
            .group(cached.level)
            .iter()
            .map(|m| m.value)
            .collect();
        let liar = stats::median(&ys).expect("modelled level has measurements");
        let incumbents = ctx.history.top_configs_ref(cached.level, 5);
        let mut pool = match BatchMaximizer::new(
            ctx.space,
            &cached.rf,
            Acquisition::default(),
            cached.best_y,
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
    use crate::method::JobSpec;
    use crate::sampler::MfesSampler;
    use hypertune_space::{ConfigSpace, ParamValue};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::builder().float("x", 0.0, 1.0).build()
    }

    fn seeded_history(level: usize, n: usize) -> History {
        let mut h = History::new(ResourceLevels::new(27.0, 3));
        for i in 0..n {
            let x = i as f64 / (n - 1).max(1) as f64;
            h.record(Measurement {
                config: Config::new(vec![ParamValue::Float(x)]),
                level,
                resource: 3f64.powi(level as i32),
                // Minimum at x = 0.8.
                value: (x - 0.8) * (x - 0.8),
                test_value: 0.0,
                cost: 1.0,
                finished_at: i as f64,
            });
        }
        h
    }

    fn ctx<'a>(
        space: &'a ConfigSpace,
        levels: &'a ResourceLevels,
        history: &'a History,
        pending: &'a [JobSpec],
        rng: &'a mut StdRng,
    ) -> MethodContext<'a> {
        MethodContext {
            space,
            levels,
            history,
            pending,
            rng,
            n_workers: 4,
            now: 0.0,
        }
    }

    #[test]
    fn falls_back_to_random_without_data() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = History::new(levels.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = BoSampler::pure(0);
        let mut c = ctx(&space, &levels, &history, &[], &mut rng);
        let config = s.sample(&mut c);
        assert!(space.check(&config).is_ok());
    }

    #[test]
    fn exploits_observed_optimum() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = seeded_history(3, 25);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = BoSampler::pure(1);
        let mut hits = 0;
        for _ in 0..10 {
            let mut c = ctx(&space, &levels, &history, &[], &mut rng);
            let config = s.sample(&mut c);
            let x = space.encode(&config)[0];
            if (x - 0.8).abs() < 0.25 {
                hits += 1;
            }
        }
        assert!(hits >= 6, "BO should focus near the optimum: {hits}/10");
    }

    #[test]
    fn models_highest_level_with_data() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let mut history = seeded_history(0, 25);
        // Level 2 also has (fewer but enough) points with minimum at 0.2.
        for i in 0..6 {
            let x = i as f64 / 5.0;
            history.record(Measurement {
                config: Config::new(vec![ParamValue::Float(x)]),
                level: 2,
                resource: 9.0,
                value: (x - 0.2) * (x - 0.2),
                test_value: 0.0,
                cost: 1.0,
                finished_at: 100.0 + i as f64,
            });
        }
        let s = BoSampler::pure(2);
        let mut rng = StdRng::seed_from_u64(2);
        let c = ctx(&space, &levels, &history, &[], &mut rng);
        assert_eq!(s.modelling_level(&c), Some(2));
    }

    #[test]
    fn pending_imputation_spreads_batch() {
        // With one pending config at the optimum, EI there collapses, so
        // the next proposal should usually differ from the pending one.
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = seeded_history(3, 25);
        let pending = vec![JobSpec {
            config: Config::new(vec![ParamValue::Float(0.8)]),
            level: 3,
            resource: 27.0,
            bracket: None,
            id: 0,
        }];
        let mean_dist = |pending: &[JobSpec], seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = BoSampler::pure(seed);
            let mut total = 0.0;
            for _ in 0..10 {
                let mut c = ctx(&space, &levels, &history, pending, &mut rng);
                let config = s.sample(&mut c);
                total += (space.encode(&config)[0] - 0.8).abs();
            }
            total / 10.0
        };
        // The pending configuration must actually enter the model: with
        // identical RNG streams, proposals must differ once a pending
        // evaluation is imputed. (Whether imputation attracts or repels
        // depends on the surrogate's local variance; the guarantee of
        // Algorithm 2 is that concurrent workers see *different* models,
        // not a specific direction.)
        let with_pending = mean_dist(&pending, 3);
        let without = mean_dist(&[], 3);
        assert_ne!(
            with_pending, without,
            "imputed pending configs must change the proposal distribution"
        );
    }

    #[test]
    fn cache_hit_matches_cold_refit() {
        // Sampler A keeps its model cache across calls; sampler B is
        // recreated (cold cache) before every call. With identical RNG
        // streams the proposals must match exactly — the cache must be
        // observationally transparent.
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = seeded_history(3, 25);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut a = BoSampler::pure(9);
        for _ in 0..3 {
            let ca = {
                let mut c = ctx(&space, &levels, &history, &[], &mut rng_a);
                a.sample(&mut c)
            };
            let cb = {
                let mut fresh = BoSampler::pure(9);
                let mut c = ctx(&space, &levels, &history, &[], &mut rng_b);
                fresh.sample(&mut c)
            };
            assert_eq!(space.encode(&ca), space.encode(&cb));
        }
    }

    #[test]
    fn random_fraction_one_is_pure_random() {
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = seeded_history(3, 25);
        let mut s = BoSampler::new(4);
        s.random_fraction = 1.0;
        let mut rng = StdRng::seed_from_u64(4);
        // Should never panic and always give valid configs.
        for _ in 0..10 {
            let mut c = ctx(&space, &levels, &history, &[], &mut rng);
            let config = s.sample(&mut c);
            assert!(space.check(&config).is_ok());
        }
    }

    #[test]
    fn batch_rescore_ops_counter_is_linear_in_k() {
        // The emitted op count must be exactly pool_len × k: every one of
        // the k drawn liars costs a single sweep over the candidate pool.
        // A regression to per-pick full re-scoring would make this
        // quadratic in k (pool_len × k(k+1)/2) and fail the divisibility
        // and ratio checks below. scripts/ci.sh runs this as the dispatch
        // op-count guard.
        let space = space();
        let levels = ResourceLevels::new(27.0, 3);
        let history = seeded_history(3, 25);
        let ops_for = |s: &mut dyn Sampler, k: usize| {
            let telemetry = hypertune_telemetry::Telemetry::new().build();
            s.set_telemetry(telemetry.clone());
            let mut rng = StdRng::seed_from_u64(11);
            let mut c = ctx(&space, &levels, &history, &[], &mut rng);
            let out = s.sample_batch(&mut c, k);
            assert_eq!(out.len(), k);
            telemetry
                .snapshot()
                .expect("enabled telemetry has metrics")
                .counter("batch.rescore_ops")
                .expect("sample_batch records rescore ops")
        };
        // Both batch samplers (BO, and Hyper-Tune's MFES), up to the widest
        // fleet a fill round has been driven at; `ops_for` checks that
        // every k returns a full batch.
        let samplers: [fn() -> Box<dyn Sampler>; 2] = [
            || Box::new(BoSampler::pure(11)),
            || Box::new(MfesSampler::new(11)),
        ];
        for make in samplers {
            let per_liar = [4u64, 16, 256].map(|k| {
                let ops = ops_for(make().as_mut(), k as usize);
                assert!(ops > 0);
                // pool_len is identical across the runs (same seed, same
                // history), so linear scaling means exact proportionality.
                assert_eq!(ops % k, 0);
                ops / k
            });
            assert!(
                per_liar.iter().all(|&p| p == per_liar[0]),
                "ops per liar must be the pool size, independent of k: {per_liar:?}"
            );
        }
    }
}
