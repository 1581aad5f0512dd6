//! Per-study runtime state: everything one study's method can observe.
//!
//! A driver on a real executor weaves two things into one loop: the
//! *study state* (history, pending set, RNG, dispatch id counter) and
//! the *pool loop* (fill idle workers, wait for completions). The
//! single-study driver in [`crate::runner_threaded`] runs one of each;
//! the multi-tenant service runs one pool loop over many studies. Both
//! suggest and book trials through [`StudyRuntime`], so the call
//! ordering a method sees is the same wherever its jobs execute.
//!
//! The runtime borrows the method per call instead of owning it:
//! [`crate::runner_threaded::run_threaded`] is lent a `&mut dyn Method`
//! by its caller, while the service keeps a `Box<dyn Method>` beside
//! each study's runtime.
//!
//! The fidelity contract: driving one `StudyRuntime` with the same
//! fill/complete sequence as [`crate::runner_threaded::run_threaded`]
//! (same seed, same `n_workers`) produces a bit-identical suggestion and
//! measurement stream. The service-level equivalence test pins this
//! against a one-worker pool.

use hypertune_benchmarks::Eval;
use hypertune_cluster::JobStatus;
use hypertune_space::ConfigSpace;
use hypertune_telemetry::TelemetryHandle;
use rand::{rngs::StdRng, SeedableRng};

use crate::history::{History, Measurement};
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method, MethodContext, Outcome, OutcomeStatus};
use crate::pending::PendingSet;

/// One study's isolated tuning state: its RNG, history, pending set,
/// and dispatch id counter.
///
/// The embedding driver owns scheduling, execution and the method; the
/// runtime owns everything the method can observe. Isolation between
/// studies is structural — each runtime has its own stores and RNG, so
/// tenants cannot perturb each other's suggestion streams no matter how
/// the shared pool interleaves them. One thread owns a runtime at a
/// time: nothing in it is shared or locked.
#[derive(Debug)]
pub struct StudyRuntime {
    space: ConfigSpace,
    levels: ResourceLevels,
    history: History,
    pending: PendingSet,
    rng: StdRng,
    n_workers: usize,
    telemetry: TelemetryHandle,
    next_job_id: u64,
}

impl StudyRuntime {
    /// Builds the runtime. `n_workers` is the parallelism the *method*
    /// plans for — the study's in-flight quota, not the pool width.
    /// `telemetry` is typically a tenant-stamped handle
    /// ([`TelemetryHandle::with_tenant`]); the caller hands the same
    /// handle to the method ([`Method::set_telemetry`]).
    pub fn new(
        space: ConfigSpace,
        levels: ResourceLevels,
        seed: u64,
        n_workers: usize,
        telemetry: TelemetryHandle,
    ) -> Self {
        Self {
            space,
            history: History::new(levels.clone()),
            levels,
            pending: PendingSet::new(),
            rng: StdRng::seed_from_u64(seed),
            n_workers,
            telemetry,
            next_job_id: 1,
        }
    }

    /// Replays recovered measurements into the history without touching
    /// the method — [`crate::persist::Checkpoint`] semantics: derived
    /// state (surrogates, θ, incumbents) refits from the restored
    /// history as the method runs fresh rounds against it.
    pub fn restore(&mut self, measurements: &[Measurement]) {
        for m in measurements {
            self.history.record(m.clone());
        }
    }

    fn ctx(&mut self, now: f64) -> MethodContext<'_> {
        MethodContext {
            space: &self.space,
            levels: &self.levels,
            history: &self.history,
            pending: self.pending.as_slice(),
            rng: &mut self.rng,
            n_workers: self.n_workers,
            now,
        }
    }

    /// One suggestion round: asks `method` for up to `k` jobs and
    /// registers the batch (dispatch ids assigned, pending set updated).
    /// An empty batch means the method is at a barrier and needs a
    /// completion before it can continue.
    pub fn suggest(&mut self, method: &mut dyn Method, k: usize, now: f64) -> Vec<JobSpec> {
        let span = self.telemetry.span("suggest_batch");
        let mut batch = method.next_jobs(&mut self.ctx(now), k);
        drop(span);
        for job in batch.iter_mut() {
            job.id = self.next_job_id;
            self.next_job_id += 1;
            self.pending.insert(job.clone());
        }
        batch
    }

    /// Books a successful completion: removes the job from pending,
    /// records the measurement, and feeds the outcome to `method`.
    /// Returns the recorded measurement for the caller's own
    /// bookkeeping (WAL append, telemetry, tallies).
    pub fn complete_success(
        &mut self,
        method: &mut dyn Method,
        spec: &JobSpec,
        eval: &Eval,
        now: f64,
    ) -> Measurement {
        let m = Measurement {
            config: spec.config.clone(),
            level: spec.level,
            resource: spec.resource,
            value: eval.value,
            test_value: eval.test_value,
            cost: eval.cost,
            finished_at: now,
        };
        let outcome = Outcome {
            spec: spec.clone(),
            value: eval.value,
            test_value: eval.test_value,
            cost: eval.cost,
            finished_at: now,
            status: OutcomeStatus::Success,
            fail_status: None,
        };
        self.pending.remove(spec);
        self.history.record(m.clone());
        method.on_result(&outcome, &mut self.ctx(now));
        m
    }

    /// Books a quarantined job (final attempt failed, retries
    /// exhausted): removes it from pending and feeds `method` a
    /// `Failed` outcome so it can replace the configuration.
    pub fn complete_quarantine(
        &mut self,
        method: &mut dyn Method,
        spec: JobSpec,
        status: JobStatus,
        now: f64,
    ) {
        self.pending.remove(&spec);
        let outcome = Outcome {
            spec,
            value: f64::INFINITY,
            test_value: f64::INFINITY,
            cost: 0.0,
            finished_at: now,
            status: OutcomeStatus::Failed,
            fail_status: Some(status),
        };
        method.on_result(&outcome, &mut self.ctx(now));
    }

    /// The study's measurement store.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Jobs registered but not yet completed or quarantined.
    pub fn pending_len(&self) -> usize {
        self.pending.as_slice().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hypertune_benchmarks::{Benchmark, CountingOnes};

    fn runtime(seed: u64) -> (StudyRuntime, Box<dyn Method>, CountingOnes) {
        let bench = CountingOnes::new(4, 4, seed);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let method = MethodKind::HyperTune.build(&levels, seed);
        let rt = StudyRuntime::new(
            bench.space().clone(),
            levels,
            seed,
            1,
            TelemetryHandle::disabled(),
        );
        (rt, method, bench)
    }

    /// Sequentially drive the runtime the way a one-worker pool would.
    fn drive(seed: u64, n: usize) -> Vec<Measurement> {
        let (mut rt, mut method, bench) = runtime(seed);
        let mut out = Vec::new();
        while out.len() < n {
            let batch = rt.suggest(method.as_mut(), 1, out.len() as f64);
            assert_eq!(batch.len(), 1, "k=1 suggestion cannot be empty mid-run");
            let spec = batch.into_iter().next().unwrap();
            let eval = bench.evaluate(&spec.config, spec.resource, seed);
            out.push(rt.complete_success(method.as_mut(), &spec, &eval, out.len() as f64));
        }
        out
    }

    #[test]
    fn ids_are_assigned_from_one() {
        let (mut rt, mut method, _) = runtime(3);
        let batch = rt.suggest(method.as_mut(), 1, 0.0);
        assert_eq!(batch[0].id, 1);
        assert_eq!(rt.pending_len(), 1);
    }

    #[test]
    fn sequential_drive_is_deterministic_in_seed() {
        let a = drive(11, 12);
        let b = drive(11, 12);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
        let c = drive(12, 12);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.config != y.config),
            "different seeds must explore differently"
        );
    }

    #[test]
    fn restore_rebuilds_incumbent_and_counts() {
        let ms = drive(5, 8);
        let (mut rt, mut method, _) = runtime(5);
        rt.restore(&ms);
        assert_eq!(rt.history().len(), 8);
        let best = rt.history().incumbent().expect("non-empty history");
        assert!(ms.iter().any(|m| m.value == best.value));
        // And the method keeps running against the restored history.
        let batch = rt.suggest(method.as_mut(), 1, 99.0);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn quarantine_feeds_failed_outcome_and_clears_pending() {
        let (mut rt, mut method, _) = runtime(9);
        let batch = rt.suggest(method.as_mut(), 1, 0.0);
        let spec = batch.into_iter().next().unwrap();
        rt.complete_quarantine(method.as_mut(), spec, JobStatus::Crashed, 1.0);
        assert_eq!(rt.pending_len(), 0);
        assert_eq!(rt.history().len(), 0, "quarantines never enter history");
        // The method must still be able to continue.
        assert_eq!(rt.suggest(method.as_mut(), 1, 2.0).len(), 1);
    }
}
