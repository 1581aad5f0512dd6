//! The method abstraction: how tuning algorithms talk to the runner.
//!
//! Methods are *pull-based* state machines. The runner repeatedly asks
//! [`Method::next_job`] while workers are idle; a synchronous method
//! returns `None` at its barrier (leaving workers idle — the cost the
//! paper's Figure 1 illustrates), while an asynchronous method always has
//! work. Completions flow back through [`Method::on_result`] after the
//! runner has recorded them into the shared [`crate::History`].

use hypertune_cluster::JobStatus;
use hypertune_space::{Config, ConfigSpace};
use hypertune_telemetry::TelemetryHandle;
use rand::rngs::StdRng;

use crate::history::History;
use crate::levels::ResourceLevels;

/// A unit of work: evaluate `config` with `resource` units.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Configuration to evaluate.
    pub config: Config,
    /// Resource-level index (0-based).
    pub level: usize,
    /// Training resources in units (`levels.resource(level)`).
    pub resource: f64,
    /// Bracket the job belongs to, when applicable (used for traces and
    /// per-bracket bookkeeping).
    pub bracket: Option<usize>,
    /// Dispatch id assigned by the runner (monotone per run, `0` until
    /// dispatched). Keys the runner's pending-set so completions resolve
    /// by id instead of comparing `Config`s (float equality footgun).
    #[serde(default)]
    pub id: u64,
}

/// Whether an evaluation produced a usable result.
///
/// The runner retries failed jobs transparently; a method only ever sees
/// [`OutcomeStatus::Failed`] when a job exhausted its retry budget and was
/// *quarantined*. Failed outcomes carry `value = f64::INFINITY`, are never
/// recorded into the [`crate::History`], and exist so schedulers can release the
/// bookkeeping slot (rung quota, batch barrier, population seed) the job
/// occupied — otherwise a dead config would stall its rung forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutcomeStatus {
    /// The evaluation completed with a valid result.
    #[default]
    Success,
    /// The job failed repeatedly and was quarantined by the runner.
    Failed,
}

/// A finished evaluation delivered back to the method.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The job that finished.
    pub spec: JobSpec,
    /// Validation objective (minimized); `f64::INFINITY` for failures.
    pub value: f64,
    /// Held-out test objective; `f64::INFINITY` for failures.
    pub test_value: f64,
    /// Virtual cost in seconds (for failures: the cost of the attempts,
    /// including wasted retries).
    pub cost: f64,
    /// Virtual completion time.
    pub finished_at: f64,
    /// Whether the evaluation succeeded or was quarantined.
    pub status: OutcomeStatus,
    /// For quarantined jobs, how the *final* attempt died (crash, error,
    /// timeout, corrupt result); `None` on success. Lets schedulers keep
    /// per-failure-mode diagnostics without re-deriving cluster state.
    pub fail_status: Option<JobStatus>,
}

impl Outcome {
    /// `true` when this job was quarantined after exhausting retries.
    pub fn is_failed(&self) -> bool {
        self.status == OutcomeStatus::Failed
    }
}

/// Shared state the runner lends to the method on every call.
pub struct MethodContext<'a> {
    /// The search space.
    pub space: &'a ConfigSpace,
    /// The resource-level ladder.
    pub levels: &'a ResourceLevels,
    /// All recorded measurements.
    pub history: &'a History,
    /// Configurations currently being evaluated (for pending-imputation
    /// sampling, Algorithm 2).
    pub pending: &'a [JobSpec],
    /// Run-scoped RNG; methods must draw all randomness from here so runs
    /// are reproducible per seed.
    pub rng: &'a mut StdRng,
    /// Cluster size, for batch-sized decisions.
    pub n_workers: usize,
    /// Current virtual time.
    pub now: f64,
}

/// A tuning algorithm (Hyper-Tune itself or any baseline).
///
/// `Send` is required because the multi-tenant service — and every
/// study's method with it — may be moved to another thread by its
/// embedder; methods hold only owned state, seeded RNGs, and thread-safe
/// telemetry handles, so this is free.
pub trait Method: Send {
    /// Display name used in reports (e.g. `"BOHB"`).
    fn name(&self) -> &str;

    /// Produces the next job, or `None` to leave remaining workers idle
    /// until the next completion (synchronization barrier).
    ///
    /// Invariant: when the cluster is quiescent (no pending jobs) the
    /// method must return `Some`, otherwise the run would deadlock; the
    /// runner enforces this with a panic.
    fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec>;

    /// Produces up to `k` jobs for a batch of idle workers.
    ///
    /// The default simply loops [`Method::next_job`], stopping at the
    /// first barrier (`None`). Model-based methods override this to fit
    /// their surrogate **once** and draw all `k` candidates from a single
    /// acquisition round with constant-liar pending-imputation, which is
    /// what takes the per-worker fit cost off the dispatch critical path.
    ///
    /// Contract: `next_jobs(ctx, 1)` must be *bit-identical* to
    /// `next_job(ctx)` (same RNG consumption, same caches) — the sim
    /// runner relies on this to keep paper-figure runs reproducible.
    /// Note the jobs in the returned batch are **not** in `ctx.pending`
    /// yet; overrides that impute pending configs must treat already-drawn
    /// batch members as pending themselves (the constant liar).
    fn next_jobs(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(k);
        while jobs.len() < k {
            match self.next_job(ctx) {
                Some(job) => jobs.push(job),
                None => break,
            }
        }
        jobs
    }

    /// Notifies the method of a completed evaluation. The measurement is
    /// already in `ctx.history`.
    fn on_result(&mut self, outcome: &Outcome, ctx: &mut MethodContext<'_>);

    /// Hands the method a telemetry handle before the run starts. The
    /// default ignores it; methods that emit events (or own samplers that
    /// do) override this and forward clones downstream. Runners call it
    /// once, before the first [`Method::next_job`].
    fn set_telemetry(&mut self, _telemetry: TelemetryHandle) {}

    /// Toggles graceful degradation (the runner's quarantine-storm circuit
    /// breaker, [`crate::breaker::Breaker`]). While degraded a method
    /// should stop trusting its models: samplers fall back to uniform
    /// random draws and promotion machinery pauses. The default ignores
    /// the signal — simple methods (random search, fixed schedules) have
    /// nothing to degrade. Implementations must not consume run RNG here,
    /// so a run in which the breaker never fires stays bit-identical.
    fn set_degraded(&mut self, _degraded: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_space::ParamValue;

    #[test]
    fn jobspec_carries_bracket() {
        let j = JobSpec {
            config: Config::new(vec![ParamValue::Int(1)]),
            level: 2,
            resource: 9.0,
            bracket: Some(1),
            id: 0,
        };
        assert_eq!(j.bracket, Some(1));
        let o = Outcome {
            spec: j.clone(),
            value: 0.5,
            test_value: 0.51,
            cost: 12.0,
            finished_at: 100.0,
            status: OutcomeStatus::Success,
            fail_status: None,
        };
        assert_eq!(o.spec, j);
        assert!(!o.is_failed());
    }

    #[test]
    fn failed_outcome_reports_failure() {
        let o = Outcome {
            spec: JobSpec {
                config: Config::new(vec![ParamValue::Int(0)]),
                level: 0,
                resource: 1.0,
                bracket: None,
                id: 0,
            },
            value: f64::INFINITY,
            test_value: f64::INFINITY,
            cost: 4.0,
            finished_at: 8.0,
            status: OutcomeStatus::Failed,
            fail_status: Some(JobStatus::Crashed),
        };
        assert!(o.is_failed());
        assert_eq!(o.fail_status, Some(JobStatus::Crashed));
    }
}
