//! Study identity: the tenant-facing spec, lifecycle state, the durable
//! lifecycle record, and the opaque handle callers hold.
//!
//! Lifecycle state machine (persisted as `Study` records in the study's
//! WAL, see [`StudyRecord`]):
//!
//! ```text
//! create ──▶ Running ──▶ Completed   (budget exhausted)
//!               │
//!               └──────▶ Stopped     (owner request; terminal)
//! ```
//!
//! `Completed` and `Stopped` are terminal: a recovered service loads
//! them for inspection but never re-registers them with the scheduler.

use hypertune_core::MethodKind;

/// Everything a tenant declares when creating a study.
///
/// Serde-derived: this is the JSONL `create` payload of the CLI driver
/// and part of the durable lifecycle record.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StudySpec {
    /// Human-readable study name (for reports; need not be unique).
    pub name: String,
    /// Registry name of the benchmark (objective) to tune.
    pub bench: String,
    /// Seed for the study's method, RNG, and benchmark instance.
    pub seed: u64,
    /// Tuning method to run.
    pub method: MethodKind,
    /// Evaluation budget: the study completes after this many
    /// successful trials.
    pub max_evals: usize,
    /// Successive-halving ratio for the resource ladder (paper default
    /// 3).
    pub eta: usize,
    /// Fair-share weight: slots are granted proportionally to weight.
    /// Zero means "never scheduled" (a parked study).
    pub weight: u64,
    /// Per-study in-flight quota: at most this many trials of the study
    /// may be outstanding at once, however wide the pool is.
    pub max_in_flight: usize,
}

impl StudySpec {
    /// A spec with the paper's η = 3, a weight of 1, a quota of 4, and
    /// a 16-trial budget.
    pub fn new(name: impl Into<String>, bench: impl Into<String>, method: MethodKind) -> Self {
        Self {
            name: name.into(),
            bench: bench.into(),
            seed: 0,
            method,
            max_evals: 16,
            eta: 3,
            weight: 1,
            max_in_flight: 4,
        }
    }

    /// Sets the study seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the evaluation budget.
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = max_evals;
        self
    }

    /// Sets the fair-share weight.
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the per-study in-flight quota.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// The first field a service cannot run the study with: an empty
    /// budget or quota, or an `eta` below 2 (no resource ladder exists
    /// for it).
    pub fn check(&self) -> Result<(), &'static str> {
        if self.max_evals == 0 || self.max_in_flight == 0 {
            return Err("max_evals and max_in_flight must be positive");
        }
        if self.eta < 2 {
            return Err("eta must be at least 2");
        }
        Ok(())
    }
}

/// Where a study is in its lifecycle. Unit variants serialize as their
/// names (`"Running"` …) in lifecycle records and status output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StudyStatus {
    /// Registered with the fair-share scheduler and eligible for slots.
    Running,
    /// Stopped by its owner; terminal. In-flight results are dropped on
    /// arrival and the study is never revived on recovery.
    Stopped,
    /// Budget exhausted; terminal.
    Completed,
}

/// A study's durable lifecycle record: identity and lifecycle state,
/// appended as a `Study` record to the study's own WAL at creation, on
/// every transition and on every recovery that restarts it. The last
/// complete one in the file is the study's state; the trials are the
/// WAL's other records.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StudyRecord {
    /// Service-assigned tenant id (also the WAL's file stem).
    pub id: u64,
    /// The spec the study was created with.
    pub spec: StudySpec,
    /// Current lifecycle state.
    pub status: StudyStatus,
    /// Recovery generation: 0 for the original incarnation, +1 per
    /// restart. Mixed into the recovered RNG seed so a restarted method
    /// does not re-walk the exact suggestion path whose in-flight tail
    /// was lost.
    pub generation: u64,
}

/// An opaque, copyable reference to a study within one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StudyHandle(u64);

impl StudyHandle {
    /// Reconstructs a handle from a raw id (CLI scripts address studies
    /// by the id printed at creation).
    pub fn from_id(id: u64) -> Self {
        Self(id)
    }

    /// The service-assigned study id.
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for StudyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "study-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_sets_fields() {
        let spec = StudySpec::new("s", "counting-ones-small", MethodKind::HyperTune)
            .with_seed(9)
            .with_max_evals(5)
            .with_weight(3)
            .with_max_in_flight(2);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.max_evals, 5);
        assert_eq!(spec.weight, 3);
        assert_eq!(spec.max_in_flight, 2);
        assert_eq!(spec.eta, 3);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let record = StudyRecord {
            id: 12,
            spec: StudySpec::new("prod-lr", "counting-ones-small", MethodKind::HyperTune),
            status: StudyStatus::Stopped,
            generation: 2,
        };
        let text = serde_json::to_string(&serde::Serialize::to_value(&record)).unwrap();
        assert!(text.contains("\"Stopped\""), "unit variant as name: {text}");
        let back: StudyRecord =
            serde::Deserialize::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.id, 12);
        assert_eq!(back.status, StudyStatus::Stopped);
        assert_eq!(back.generation, 2);
        assert_eq!(back.spec, record.spec);
    }
}
