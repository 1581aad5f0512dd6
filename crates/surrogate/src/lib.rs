//! Probabilistic surrogate models and acquisition functions for Hyper-Tune.
//!
//! Bayesian optimization approximates the expensive objective `f` with a
//! cheap probabilistic model (§3.1 of the paper). This crate supplies:
//!
//! - the [`SurrogateModel`] trait (the paper's generic `fit`/`predict`
//!   optimizer abstraction, §4.3),
//! - a SMAC-style probabilistic random forest ([`rf::RandomForest`], the
//!   default base surrogate — robust on mixed discrete/continuous spaces),
//! - the multi-fidelity weighted-bagging ensemble of Eq. 3
//!   ([`ensemble::MfEnsemble`]),
//! - acquisition functions (EI/PI/LCB) and their maximizer
//!   ([`acquisition`]).
//!
//! All models consume unit-cube encodings produced by
//! [`hypertune_space::ConfigSpace::encode`] and predict a Gaussian
//! `(mean, variance)` at query points.
//!
//! # Module map
//!
//! | Module | Role |
//! |---|---|
//! | [`rf`] | Probabilistic random forest (default base surrogate) |
//! | [`ensemble`] | MFES weighted-bagging ensemble across fidelities (Eq. 3) |
//! | [`acquisition`] | EI / PI / LCB and the acquisition maximizer |
//! | [`penalized`] | Constant-liar penalization for batch acquisition |
//! | [`stats`] | Normal PDF/CDF and the median |

pub mod acquisition;
pub mod ensemble;
pub mod penalized;
pub mod rf;
pub mod stats;

mod model;

pub use ensemble::MfEnsemble;
pub use model::{Prediction, Predictor, SurrogateError, SurrogateModel};
pub use penalized::PenalizedPredictor;
pub use rf::RandomForest;
