//! Configuration samplers: the paper's generic optimizer abstraction
//! (§4.3) behind a single trait.
//!
//! A [`Sampler`] proposes the next configuration to evaluate given the
//! multi-fidelity history and the set of *pending* configurations other
//! workers are still evaluating. All model-based samplers implement
//! Algorithm 2's algorithm-agnostic parallel wrapper: pending configs are
//! imputed with the median observed performance before refitting, so a
//! sequential BO method transparently supports sync/async parallelism.
//!
//! Implementations:
//! - [`RandomSampler`] — uniform random search;
//! - [`bo::BoSampler`] — single-fidelity Bayesian optimization on the
//!   highest level with enough data (the BOHB recipe);
//! - [`mfes::MfesSampler`] — the MFES ensemble over all levels (Eq. 3),
//!   Hyper-Tune's default optimizer;
//! - [`tpe::TpeSampler`] — the Tree-structured Parzen Estimator of the
//!   original BOHB, demonstrating drop-in optimizer replacement.

pub mod bo;
pub mod mfes;
pub mod tpe;

use hypertune_space::{Config, ConfigSpace};

use crate::method::{JobSpec, MethodContext};

pub use bo::BoSampler;
pub use mfes::MfesSampler;
pub use tpe::TpeSampler;

/// Derives the seed for a cached per-level surrogate fit from everything
/// the fit depends on: the sampler seed, the level, the level's
/// measurement count, and the pending-set fingerprint (SplitMix64
/// finalizer). Because the seed carries no call-order state, refitting
/// after a cache hit would produce the same forest bit for bit — which is
/// what makes the model caches transparent.
pub(crate) fn derive_model_seed(seed: u64, level: usize, n_points: usize, pending_fp: u64) -> u64 {
    let mut z = seed
        ^ (level as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (n_points as u64).wrapping_mul(0xd134_2543_de82_ef95)
        ^ pending_fp;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive fingerprint of the pending configurations (FNV-1a over
/// the encoded unit-cube bits). Cached models that imputed pending
/// configs are keyed by this, so any change to the pending set — content
/// or order — forces a refit.
pub(crate) fn pending_fingerprint(space: &ConfigSpace, pending: &[JobSpec]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for job in pending {
        for v in space.encode(&job.config) {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so per-config boundaries matter.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A configuration-proposal strategy; see the module docs.
///
/// `Send` is required transitively, through [`crate::Method`].
pub trait Sampler: Send {
    /// Display name fragment (e.g. `"BO"`), used to compose method names.
    fn name(&self) -> &str;

    /// Proposes the next configuration to evaluate.
    fn sample(&mut self, ctx: &mut MethodContext<'_>) -> Config;

    /// Proposes `k` configurations for a batch of idle workers.
    ///
    /// The default loops [`Sampler::sample`]. Model-based samplers
    /// override this to fit once and draw all `k` candidates from a
    /// single acquisition round, penalizing the neighborhood of each
    /// already-drawn candidate (constant liar) so the batch spreads out
    /// instead of collapsing onto one optimum.
    ///
    /// Contract: `sample_batch(ctx, 1)` must be bit-identical to
    /// `sample(ctx)` — same RNG draws, same cache effects — so the `k=1`
    /// dispatch path of the sim runner reproduces sequential semantics
    /// exactly.
    fn sample_batch(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<Config> {
        (0..k).map(|_| self.sample(ctx)).collect()
    }

    /// Whether [`Sampler::set_theta`] does anything. The owning engine
    /// estimates `θ` (K forest fits plus cross-validation per refresh)
    /// only when this or a learned bracket policy will read it.
    fn consumes_theta(&self) -> bool {
        false
    }

    /// Receives fresh precision weights `θ` from the owner (only the
    /// multi-fidelity sampler uses them).
    fn set_theta(&mut self, _theta: &[f64]) {}

    /// Receives the run's telemetry handle from the owning method. The
    /// default ignores it; model-based samplers override to report
    /// surrogate fits and acquisition timing.
    fn set_telemetry(&mut self, _telemetry: hypertune_telemetry::TelemetryHandle) {}

    /// Toggles graceful degradation (forwarded from
    /// [`crate::Method::set_degraded`]). Model-based samplers override to
    /// fall back to uniform random draws while degraded; the default is a
    /// no-op because [`RandomSampler`] is already the floor of the ladder.
    fn set_degraded(&mut self, _degraded: bool) {}
}

/// Uniform random search.
#[derive(Debug, Clone, Default)]
pub struct RandomSampler;

impl Sampler for RandomSampler {
    fn name(&self) -> &str {
        "Random"
    }

    fn sample(&mut self, ctx: &mut MethodContext<'_>) -> Config {
        ctx.space.sample(ctx.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::levels::ResourceLevels;
    use hypertune_space::ConfigSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_sampler_draws_valid_configs() {
        let space = ConfigSpace::builder()
            .float("x", 0.0, 1.0)
            .categorical("c", &["a", "b"])
            .build();
        let levels = ResourceLevels::new(27.0, 3);
        let history = History::new(levels.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = MethodContext {
            space: &space,
            levels: &levels,
            history: &history,
            pending: &[],
            rng: &mut rng,
            n_workers: 4,
            now: 0.0,
        };
        let mut s = RandomSampler;
        for _ in 0..20 {
            let c = s.sample(&mut ctx);
            assert!(space.check(&c).is_ok());
        }
    }
}
