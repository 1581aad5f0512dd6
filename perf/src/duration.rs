//! Seeded straggler model for the sleeping-evaluation workloads.
//!
//! A sleeping worker stands in for a remote machine training a model:
//! it holds a slot for `eval.cost × COST_TO_SECS × s` wall seconds and
//! burns no CPU. The factor `s` is drawn per `(study, job id)` by
//! hashing the key with the run seed and pushing the resulting uniform
//! through the model's inverse CDF, so the sleep schedule depends on
//! nothing but `--seed` — not on which worker a job lands on or in what
//! order the fleet interleaves them.

use serde::{Deserialize, Serialize};

/// Wall seconds slept per second of nominal evaluation cost.
pub const COST_TO_SECS: f64 = 1e-4;

/// The evaluation length the sleeping workloads' throughput is stated
/// at (about the mean modelled sleep over seeds).
const NOMINAL_EVAL_SECS: f64 = 0.035;

/// Throughput of a sleeping fleet in evaluations of nominal length:
/// busy worker-seconds per second ÷ the nominal evaluation length. Raw
/// trials per second on these fleets mostly measures how long the
/// seed's sleeps happen to be (it moves by tens of percent from seed to
/// seed), so the work done is counted in evaluation time, not in
/// evaluations.
pub fn nominal_trials_per_s(workers: usize, utilization: f64) -> f64 {
    workers as f64 * utilization / NOMINAL_EVAL_SECS
}

/// Distribution of the per-evaluation slowdown factor `s`.
/// Serialised externally tagged, e.g. `{"Pareto":{"shape":1.5,"cap":8.0}}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DurationModel {
    /// `exp(mu + sigma·z)`, `z` standard normal.
    LogNormal { mu: f64, sigma: f64 },
    /// Pareto with minimum 1 and tail index `shape`, truncated at `cap`
    /// — the heavy-tailed stragglers asynchronous scheduling targets.
    Pareto { shape: f64, cap: f64 },
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
}

impl DurationModel {
    /// The model both sleeping workloads use unless overridden.
    pub const DEFAULT: DurationModel = DurationModel::Pareto {
        shape: 1.5,
        cap: 8.0,
    };

    /// Rejects parameters for which a factor would be non-finite or
    /// non-positive.
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            DurationModel::LogNormal { mu, sigma } => {
                mu.is_finite() && sigma.is_finite() && sigma >= 0.0
            }
            DurationModel::Pareto { shape, cap } => {
                shape.is_finite() && shape > 0.0 && cap.is_finite() && cap >= 1.0
            }
            DurationModel::Uniform { lo, hi } => lo > 0.0 && hi.is_finite() && hi > lo,
        };
        ok.then_some(())
            .ok_or_else(|| format!("invalid duration model {self:?}"))
    }

    /// The slowdown factor for `(study, job)` under `seed`.
    pub fn factor(&self, seed: u64, study: u64, job: u64) -> f64 {
        let u = unit_uniform(seed, study, job);
        match *self {
            DurationModel::LogNormal { mu, sigma } => (mu + sigma * inverse_normal_cdf(u)).exp(),
            // 1 − u lies in (0, 1], so the power is finite.
            DurationModel::Pareto { shape, cap } => (1.0 - u).powf(-1.0 / shape).min(cap),
            DurationModel::Uniform { lo, hi } => lo + u * (hi - lo),
        }
    }

    /// Wall seconds a worker sleeps for an evaluation of nominal `cost`.
    pub fn sleep_secs(&self, cost: f64, seed: u64, study: u64, job: u64) -> f64 {
        cost * COST_TO_SECS * self.factor(seed, study, job)
    }
}

/// SplitMix64 step: a bijective mix with full avalanche. Also what the
/// workload generator derives per-study seeds with.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform in the open interval (0, 1) keyed by `(seed, study, job)`.
fn unit_uniform(seed: u64, study: u64, job: u64) -> f64 {
    let h = mix(mix(mix(seed) ^ study) ^ job);
    // 53 high bits, then nudged off zero so every inverse CDF is finite.
    ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Φ⁻¹ by Acklam's rational approximation (relative error < 1.2e-9).
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const LOW: f64 = 0.02425;
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    if p < LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELS: [DurationModel; 3] = [
        DurationModel::LogNormal {
            mu: 0.0,
            sigma: 0.5,
        },
        DurationModel::DEFAULT,
        DurationModel::Uniform { lo: 0.5, hi: 1.5 },
    ];

    fn schedule(model: DurationModel, seed: u64) -> Vec<u64> {
        (1..=4u64)
            .flat_map(|study| (1..=200u64).map(move |job| (study, job)))
            .map(|(study, job)| model.sleep_secs(100.0, seed, study, job).to_bits())
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        for model in MODELS {
            assert_eq!(schedule(model, 7), schedule(model, 7), "{model:?}");
            assert_ne!(schedule(model, 7), schedule(model, 8), "{model:?}");
        }
    }

    #[test]
    fn pareto_respects_floor_and_cap() {
        let model = DurationModel::DEFAULT;
        let draws: Vec<f64> = (0..20_000).map(|j| model.factor(3, 1, j)).collect();
        assert!(draws.iter().all(|&s| (1.0..=8.0).contains(&s)));
        // P(X ≥ 8) = 8^-1.5 ≈ 4.4 %: the cap must actually bind.
        let capped = draws.iter().filter(|&&s| s == 8.0).count();
        assert!((600..1200).contains(&capped), "capped draws: {capped}");
        // Median of Pareto(1, 1.5) is 2^(1/1.5) ≈ 1.587.
        let mut sorted = draws.clone();
        let med = crate::stats::median(&mut sorted);
        assert!((med - 1.587).abs() < 0.05, "median {med}");
    }

    #[test]
    fn lognormal_and_uniform_have_the_right_centre() {
        let mut ln: Vec<f64> = (0..20_000).map(|j| MODELS[0].factor(5, 2, j)).collect();
        let med = crate::stats::median(&mut ln);
        assert!((med - 1.0).abs() < 0.03, "lognormal median {med}");
        let un: Vec<f64> = (0..20_000).map(|j| MODELS[2].factor(5, 2, j)).collect();
        assert!(un.iter().all(|&s| (0.5..1.5).contains(&s)));
        assert!((crate::stats::mean(&un) - 1.0).abs() < 0.01);
    }

    #[test]
    fn inverse_normal_cdf_hits_known_points() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.001) + 3.090232).abs() < 1e-5);
    }

    #[test]
    fn model_round_trips_through_its_tagged_json() {
        for model in MODELS {
            let text = serde_json::to_string(&model).unwrap();
            let back: DurationModel = serde_json::from_str(&text).unwrap();
            assert_eq!(back, model, "{text}");
        }
        assert!(DurationModel::Pareto {
            shape: 0.0,
            cap: 8.0
        }
        .validate()
        .is_err());
    }
}
