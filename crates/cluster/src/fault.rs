//! Worker-fault injection: the failure modes a production tuner survives.
//!
//! [`StragglerModel`](crate::StragglerModel) only stretches durations; a
//! [`FaultModel`] makes jobs *fail*. At dispatch time each job draws at
//! most one [`Fault`]:
//!
//! - **Crash** — the worker dies partway through: a fraction of the
//!   (straggler-adjusted) duration is consumed and no result is produced;
//! - **Error** — the evaluation runs to completion and then raises
//!   (diverged loss, out-of-memory at the final step, bad hyper-params);
//! - **Hang** — the worker stalls and the job takes `factor` times its
//!   nominal duration; a per-job timeout (see
//!   [`SimCluster::set_job_timeout`](crate::SimCluster::set_job_timeout))
//!   converts the hang into a reported failure, otherwise it is an
//!   extreme straggler;
//! - **Corrupt** — the job finishes on time but its result is garbage
//!   (NaN metric, truncated payload) and must be discarded.
//!
//! The simulator is the one substrate that consumes the model: the fault
//! is drawn at submission, so a run is a deterministic function of the
//! seed regardless of worker scheduling. A disabled model
//! ([`FaultModel::none`]) draws no randomness at all, which keeps
//! fault-free runs bit-identical to builds that predate fault injection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The failure assigned to one job at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Worker dies after consuming `frac` (in `[0, 1)`) of the job's
    /// effective duration; no result is produced.
    Crash {
        /// Fraction of the effective duration wasted before the crash.
        frac: f64,
    },
    /// The evaluation completes its full duration, then reports an error.
    Error,
    /// The job takes `factor` times its effective duration.
    Hang {
        /// Slowdown factor (`> 1`).
        factor: f64,
    },
    /// The job completes on time but its result must be discarded.
    Corrupt,
}

/// Serializable fault-rate specification (the knobs of a [`FaultModel`]).
///
/// The four probabilities are per-dispatch and mutually exclusive: one
/// uniform draw is partitioned among them, so their sum must stay in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultSpec {
    /// Probability that the worker crashes mid-evaluation.
    pub crash_prob: f64,
    /// Probability that the evaluation errors after running fully.
    pub error_prob: f64,
    /// Probability that the worker hangs.
    pub hang_prob: f64,
    /// Probability that the result is corrupt.
    pub corrupt_prob: f64,
    /// Duration multiplier applied to hanging jobs.
    pub hang_factor: f64,
}

impl FaultSpec {
    /// No faults of any kind.
    pub fn none() -> Self {
        Self {
            crash_prob: 0.0,
            error_prob: 0.0,
            hang_prob: 0.0,
            corrupt_prob: 0.0,
            hang_factor: 10.0,
        }
    }

    /// Worker crashes only, with the given per-dispatch probability.
    pub fn crashes(prob: f64) -> Self {
        Self {
            crash_prob: prob,
            ..Self::none()
        }
    }

    /// Evaluation errors only.
    pub fn errors(prob: f64) -> Self {
        Self {
            error_prob: prob,
            ..Self::none()
        }
    }

    /// Hangs only, with the given duration multiplier.
    pub fn hangs(prob: f64, factor: f64) -> Self {
        Self {
            hang_prob: prob,
            hang_factor: factor,
            ..Self::none()
        }
    }

    /// Corrupt results only.
    pub fn corrupt(prob: f64) -> Self {
        Self {
            corrupt_prob: prob,
            ..Self::none()
        }
    }

    /// Sum of the four fault probabilities.
    pub fn total_prob(&self) -> f64 {
        self.crash_prob + self.error_prob + self.hang_prob + self.corrupt_prob
    }

    /// `true` when every probability is zero.
    pub fn is_none(&self) -> bool {
        self.total_prob() == 0.0
    }

    fn validate(&self) {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("error_prob", self.error_prob),
            ("hang_prob", self.hang_prob),
            ("corrupt_prob", self.corrupt_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1]");
        }
        assert!(
            self.total_prob() <= 1.0 + 1e-12,
            "fault probabilities must sum to <= 1"
        );
        assert!(self.hang_factor >= 1.0, "hang_factor must be >= 1");
    }
}

/// A seeded source of [`Fault`]s, one draw per dispatched job.
#[derive(Debug, Clone)]
pub struct FaultModel {
    spec: FaultSpec,
    rng: StdRng,
}

impl FaultModel {
    /// A model that never injects a fault (and never consumes RNG).
    pub fn none() -> Self {
        Self {
            spec: FaultSpec::none(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// A model with the given rates, driven by a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`, the probabilities
    /// sum past 1, or `hang_factor < 1`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        spec.validate();
        Self {
            spec,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The rates this model draws from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// `true` when the model can never fire.
    pub fn is_disabled(&self) -> bool {
        self.spec.is_none()
    }

    /// Draws the fault (if any) for the next dispatched job. Disabled
    /// models return `None` without consuming randomness.
    pub fn draw(&mut self) -> Option<Fault> {
        if self.is_disabled() {
            return None;
        }
        let u = self.rng.gen::<f64>();
        let s = &self.spec;
        let mut edge = s.crash_prob;
        if u < edge {
            let frac = self.rng.gen::<f64>();
            return Some(Fault::Crash { frac });
        }
        edge += s.error_prob;
        if u < edge {
            return Some(Fault::Error);
        }
        edge += s.hang_prob;
        if u < edge {
            return Some(Fault::Hang {
                factor: s.hang_factor,
            });
        }
        edge += s.corrupt_prob;
        if u < edge {
            return Some(Fault::Corrupt);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_never_fires() {
        let mut m = FaultModel::none();
        for _ in 0..100 {
            assert_eq!(m.draw(), None);
        }
    }

    #[test]
    fn certain_crash_always_fires_with_bounded_fraction() {
        let mut m = FaultModel::new(FaultSpec::crashes(1.0), 3);
        for _ in 0..200 {
            match m.draw() {
                Some(Fault::Crash { frac }) => assert!((0.0..1.0).contains(&frac)),
                other => panic!("expected crash, got {other:?}"),
            }
        }
    }

    #[test]
    fn rates_respected_roughly() {
        let spec = FaultSpec {
            crash_prob: 0.2,
            error_prob: 0.1,
            hang_prob: 0.0,
            corrupt_prob: 0.0,
            hang_factor: 10.0,
        };
        let mut m = FaultModel::new(spec, 11);
        let mut crashes = 0;
        let mut errors = 0;
        for _ in 0..4000 {
            match m.draw() {
                Some(Fault::Crash { .. }) => crashes += 1,
                Some(Fault::Error) => errors += 1,
                Some(f) => panic!("unexpected {f:?}"),
                None => {}
            }
        }
        assert!((600..=1000).contains(&crashes), "crashes {crashes}");
        assert!((280..=520).contains(&errors), "errors {errors}");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = FaultSpec {
            crash_prob: 0.3,
            error_prob: 0.2,
            hang_prob: 0.1,
            corrupt_prob: 0.1,
            hang_factor: 5.0,
        };
        let mut a = FaultModel::new(spec, 7);
        let mut b = FaultModel::new(spec, 7);
        for _ in 0..500 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn mixed_faults_all_kinds_appear() {
        let spec = FaultSpec {
            crash_prob: 0.25,
            error_prob: 0.25,
            hang_prob: 0.25,
            corrupt_prob: 0.25,
            hang_factor: 4.0,
        };
        let mut m = FaultModel::new(spec, 0);
        let (mut c, mut e, mut h, mut k) = (0, 0, 0, 0);
        for _ in 0..400 {
            match m.draw() {
                Some(Fault::Crash { .. }) => c += 1,
                Some(Fault::Error) => e += 1,
                Some(Fault::Hang { factor }) => {
                    assert_eq!(factor, 4.0);
                    h += 1;
                }
                Some(Fault::Corrupt) => k += 1,
                None => panic!("sum of probs is 1: a fault must fire"),
            }
        }
        assert!(c > 0 && e > 0 && h > 0 && k > 0, "{c} {e} {h} {k}");
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn oversubscribed_probabilities_panic() {
        FaultModel::new(
            FaultSpec {
                crash_prob: 0.6,
                error_prob: 0.6,
                hang_prob: 0.0,
                corrupt_prob: 0.0,
                hang_factor: 2.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "hang_factor")]
    fn invalid_hang_factor_panics() {
        FaultModel::new(FaultSpec::hangs(0.5, 0.5), 0);
    }
}
