use hypertune_space::{Config, ConfigSpace};

/// The result of evaluating one configuration at one resource level.
/// Serde-derived so the TCP substrate can carry it home in a `Result`
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Eval {
    /// Validation objective to *minimize* (error rate, perplexity, …).
    pub value: f64,
    /// Held-out test objective, reported for the final incumbent only
    /// (Table 2 of the paper).
    pub test_value: f64,
    /// Virtual wall-clock cost of the evaluation in seconds, charged to
    /// the cluster simulator.
    pub cost: f64,
}

impl Eval {
    /// Whether all three fields are finite. Nothing else can be booked:
    /// the WAL and the trace write a non-finite float as `null`, which
    /// neither reads back as a number.
    pub fn is_finite(&self) -> bool {
        self.value.is_finite() && self.test_value.is_finite() && self.cost.is_finite()
    }
}

/// A tunable objective with partial-evaluation support.
///
/// `resource` is measured in the paper's abstract units: `1.0` is the
/// cheapest partial evaluation and [`Benchmark::max_resource`] (`R`) is a
/// complete evaluation. What a unit *means* — epochs, a training-subset
/// fraction, Monte-Carlo samples — is the benchmark's business.
///
/// Evaluations must be deterministic in `(config, resource, seed)` so that
/// repeated experiment runs are reproducible; different `seed`s model
/// independent training runs (SGD noise, subsample draws, …).
pub trait Benchmark: Send + Sync {
    /// Human-readable benchmark name (used in reports).
    fn name(&self) -> &str;

    /// The hyper-parameter search space.
    fn space(&self) -> &ConfigSpace;

    /// The maximum resource `R` (complete evaluation).
    fn max_resource(&self) -> f64;

    /// Evaluates `config` with `resource` units of training resources.
    ///
    /// Implementations clamp `resource` into `[1, R]`.
    fn evaluate(&self, config: &Config, resource: f64, seed: u64) -> Eval;

    /// The global optimum of the full-fidelity validation objective, when
    /// known (used to report regret on tabular benchmarks).
    fn optimum(&self) -> Option<f64> {
        None
    }
}

/// Stable 64-bit hash used to derive per-evaluation RNG seeds from
/// `(benchmark seed, config, resource, trial seed)`.
pub(crate) fn eval_seed(base: u64, config: &Config, resource: f64, seed: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    // FxHash-style mixing over DefaultHasher keeps this stable within a
    // run; determinism across Rust versions is not required because every
    // experiment re-derives its own data.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    base.hash(&mut h);
    config.hash(&mut h);
    resource.to_bits().hash(&mut h);
    seed.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_space::ParamValue;

    #[test]
    fn eval_seed_sensitive_to_all_inputs() {
        let c1 = Config::new(vec![ParamValue::Int(1)]);
        let c2 = Config::new(vec![ParamValue::Int(2)]);
        let base = eval_seed(0, &c1, 1.0, 0);
        assert_ne!(base, eval_seed(1, &c1, 1.0, 0));
        assert_ne!(base, eval_seed(0, &c2, 1.0, 0));
        assert_ne!(base, eval_seed(0, &c1, 2.0, 0));
        assert_ne!(base, eval_seed(0, &c1, 1.0, 1));
        // And deterministic.
        assert_eq!(base, eval_seed(0, &c1, 1.0, 0));
    }
}
