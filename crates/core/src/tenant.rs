//! Per-study runtime state and the trial ledger.
//!
//! Every driver suggests and books its trials through one
//! [`StudyRuntime`]: the simulator ([`crate::runner::run`]), the
//! real-executor driver ([`crate::runner_threaded`]) and the multi-tenant
//! service, which keeps one runtime per study. The runtime owns what the
//! study's method can observe (history, pending set, RNG, dispatch ids)
//! and the ledger around it:
//!
//! - [`StudyRuntime::suggest`] asks the method for a batch, assigns
//!   dispatch ids, charges the batch against the study's counts and emits
//!   `TrialDispatched`;
//! - [`StudyRuntime::book`] books one finished attempt. A usable success
//!   completes the trial. A failure — or a "success" nothing can be
//!   booked from: a NaN objective, no output at all — is retried while
//!   the [`RetryPolicy`] allows and quarantined after, fed to the method
//!   as a `Failed` outcome. The [`TrialCounts`], the trial events and
//!   counters, and the circuit breaker all live here, so the retry
//!   ladder is written once.
//!
//! What stays with a driver is how attempts run: the simulator's virtual
//! clock, speculation twins, retry backoff and checkpoints; the threaded
//! driver's orphan queue; the service's fair share, park queue, WALs and
//! lifecycle. After every booking, `suggested = completed + quarantined +
//! outstanding`, and a trial that is not outstanding is never booked
//! (`book` refuses it with `InvalidInput`).
//!
//! Counter names come from the telemetry handle: `trials.*` on a plain
//! handle, `study.<id>.trials.*` on a tenant-stamped one
//! ([`TelemetryHandle::with_tenant`]). They are built once, with the
//! runtime, so booking never formats a key.
//!
//! The runtime borrows the method per call instead of owning it:
//! [`crate::runner::run`] is lent a `&mut dyn Method` by its caller,
//! while the service keeps a `Box<dyn Method>` beside each study's
//! runtime. The fidelity contract: the same seed and the same
//! suggest/book sequence give a bit-identical suggestion and measurement
//! stream, whichever driver makes the calls. The service-level
//! equivalence tests pin this against a one-worker pool.

use std::io;

use hypertune_benchmarks::Eval;
use hypertune_cluster::JobStatus;
use hypertune_space::ConfigSpace;
use hypertune_telemetry::{Event, TelemetryHandle};
use rand::{rngs::StdRng, SeedableRng};

use crate::breaker::{Breaker, BreakerConfig, BreakerTransition};
use crate::diagnostics::{failure_kind, FailureCounts};
use crate::history::{History, Measurement};
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method, MethodContext, Outcome, OutcomeStatus};
use crate::pending::PendingSet;
use crate::runner::RetryPolicy;

/// One study's trial accounting, kept by its [`StudyRuntime`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialCounts {
    /// Trials suggested. A retry is another attempt of the same trial.
    pub suggested: usize,
    /// Trials completed with a booked measurement.
    pub completed: usize,
    /// Trials quarantined after their last allowed attempt failed.
    pub quarantined: usize,
    /// Failed attempts that were retried.
    pub retried: usize,
    /// Every failed attempt, by how it failed.
    pub failures: FailureCounts,
    /// Times the circuit breaker opened.
    pub breaker_trips: usize,
}

impl TrialCounts {
    /// Suggested trials not yet completed or quarantined.
    pub fn outstanding(&self) -> usize {
        self.suggested - self.completed - self.quarantined
    }

    /// Trials charged against a budget: suggested and not quarantined (a
    /// quarantine gives its slot back to a replacement).
    pub fn charged(&self) -> usize {
        self.suggested - self.quarantined
    }
}

/// What [`StudyRuntime::book`] did with one finished attempt.
#[derive(Debug, PartialEq)]
pub enum Booked {
    /// The trial completed: its measurement is the last of
    /// [`StudyRuntime::measurements`].
    Completed,
    /// The attempt failed within the retry budget. The caller re-runs the
    /// returned trial as the next attempt.
    Retry(JobSpec),
    /// The attempt failed with no retries left. The method was told and
    /// the trial is over.
    Quarantined,
}

/// The ledger's counter names; see the module docs.
#[derive(Debug)]
struct CounterNames {
    dispatched: String,
    completed: String,
    failed_attempts: String,
    orphaned: String,
    retried: String,
    quarantined: String,
}

impl CounterNames {
    fn new(tenant: Option<u64>) -> Self {
        let name = |what: &str| match tenant {
            Some(id) => format!("study.{id}.trials.{what}"),
            None => format!("trials.{what}"),
        };
        Self {
            dispatched: name("dispatched"),
            completed: name("completed"),
            failed_attempts: name("failed_attempts"),
            orphaned: name("orphaned"),
            retried: name("retried"),
            quarantined: name("quarantined"),
        }
    }
}

/// One study's isolated tuning state and trial ledger.
///
/// The embedding driver owns scheduling, execution and the method; the
/// runtime owns everything the method can observe, and the accounting of
/// every trial it suggested. Isolation between studies is structural —
/// each runtime has its own stores and RNG, so tenants cannot perturb
/// each other's suggestion streams no matter how the shared pool
/// interleaves them. One thread owns a runtime at a time: nothing in it
/// is shared or locked.
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
    /// Booked measurements in completion order.
    measurements: Vec<Measurement>,
    retry: RetryPolicy,
    breaker: Option<Breaker>,
    counts: TrialCounts,
    names: CounterNames,
}

impl StudyRuntime {
    /// Builds the runtime. `n_workers` is the parallelism the *method*
    /// plans for — the study's in-flight quota, not the pool width.
    /// `breaker`, when set, degrades the method during a quarantine
    /// storm. The caller hands the same `telemetry` handle to the method
    /// ([`Method::set_telemetry`]).
    ///
    /// # Panics
    ///
    /// Panics if `breaker` fails [`BreakerConfig::validate`].
    pub fn new(
        space: ConfigSpace,
        levels: ResourceLevels,
        seed: u64,
        n_workers: usize,
        retry: RetryPolicy,
        breaker: Option<BreakerConfig>,
        telemetry: TelemetryHandle,
    ) -> Self {
        Self {
            space,
            history: History::new(levels.clone()),
            levels,
            pending: PendingSet::new(),
            rng: StdRng::seed_from_u64(seed),
            n_workers,
            names: CounterNames::new(telemetry.tenant()),
            telemetry,
            next_job_id: 1,
            measurements: Vec::new(),
            retry,
            breaker: breaker.map(Breaker::new),
            counts: TrialCounts::default(),
        }
    }

    /// Replays measurements recovered from a study's log
    /// ([`crate::persist`]) into the history without touching the
    /// method: derived state (surrogates, θ, incumbents) refits from the
    /// restored history as the method runs fresh rounds against it. Each
    /// counts as a suggested and completed trial.
    pub fn restore(&mut self, measurements: Vec<Measurement>) {
        for m in &measurements {
            self.history.record(m.clone());
        }
        self.counts.suggested += measurements.len();
        self.counts.completed += measurements.len();
        self.measurements.extend(measurements);
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

    /// One suggestion round: asks `method` for up to `k` jobs under a
    /// `span` of that name and registers the batch (dispatch ids
    /// assigned, pending set and counts updated, `TrialDispatched`
    /// emitted). An empty batch means the method is at a barrier and
    /// needs a completion before it can continue.
    pub fn suggest(
        &mut self,
        method: &mut dyn Method,
        k: usize,
        now: f64,
        span: &'static str,
    ) -> Vec<JobSpec> {
        let guard = self.telemetry.span(span);
        let mut batch = method.next_jobs(&mut self.ctx(now), k);
        drop(guard);
        for job in batch.iter_mut() {
            job.id = self.next_job_id;
            self.next_job_id += 1;
            self.pending.insert(job.clone());
            let (level, bracket) = (job.level, job.bracket);
            self.telemetry.emit_with(now, || Event::TrialDispatched {
                level,
                bracket,
                attempt: 0,
            });
        }
        if !batch.is_empty() {
            self.counts.suggested += batch.len();
            self.telemetry
                .counter_add(&self.names.dispatched, batch.len() as u64);
        }
        batch
    }

    /// Books one finished attempt (`attempt` 0 is the first) of an
    /// outstanding trial; see the module docs. `status` and `output` are
    /// what the executor reported. A completed trial's cost is
    /// `output.cost`, and `now` stamps the measurement, the outcome and
    /// the events.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `spec` is not outstanding in
    /// this study — already booked, or never suggested here. Nothing is
    /// booked.
    pub fn book(
        &mut self,
        method: &mut dyn Method,
        spec: JobSpec,
        attempt: usize,
        status: JobStatus,
        output: Option<Eval>,
        now: f64,
    ) -> io::Result<Booked> {
        if !self.pending.contains(&spec) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the trial is not outstanding in this study",
            ));
        }
        if let Some(eval) = output.filter(|eval| !status.is_failure() && eval.is_finite()) {
            self.complete(method, spec, eval, now);
            return Ok(Booked::Completed);
        }
        // Neither the history nor a rung can order a NaN, neither the WAL
        // nor the trace can store a non-finite float, and an output-less
        // success has nothing to book: all are corrupt.
        let status = if status.is_failure() {
            status
        } else {
            JobStatus::Corrupt
        };
        self.book_twin_failure(&spec, attempt, status, now);
        let kind = failure_kind(status).expect("status is a failure");
        let level = spec.level;
        if attempt < self.retry.max_retries {
            self.counts.retried += 1;
            self.telemetry.emit_with(now, || Event::TrialRetried {
                level,
                attempt: attempt + 1,
                kind,
            });
            self.telemetry.counter_add(&self.names.retried, 1);
            return Ok(Booked::Retry(spec));
        }
        self.counts.quarantined += 1;
        let bracket = spec.bracket;
        self.telemetry.emit_with(now, || Event::TrialQuarantined {
            level,
            bracket,
            kind,
        });
        self.telemetry.counter_add(&self.names.quarantined, 1);
        self.feed_breaker(method, true, now);
        self.pending.remove(&spec);
        let outcome = Outcome {
            spec,
            value: f64::INFINITY,
            test_value: f64::INFINITY,
            cost: output.map_or(0.0, |eval| eval.cost),
            finished_at: now,
            status: OutcomeStatus::Failed,
            fail_status: Some(status),
        };
        method.on_result(&outcome, &mut self.ctx(now));
        Ok(Booked::Quarantined)
    }

    /// Counts one failed attempt (an orphan also emits `LeaseExpired`)
    /// without ending or retrying its trial. [`StudyRuntime::book`] starts
    /// every failure here; the simulator calls it directly for a
    /// speculative copy that failed while its twin runs on, since the
    /// twin is that copy's retry.
    pub(crate) fn book_twin_failure(
        &mut self,
        spec: &JobSpec,
        attempt: usize,
        status: JobStatus,
        now: f64,
    ) {
        self.counts.failures.record(status);
        self.telemetry.counter_add(&self.names.failed_attempts, 1);
        if status == JobStatus::Orphaned {
            let level = spec.level;
            self.telemetry
                .emit_with(now, || Event::LeaseExpired { level, attempt });
            self.telemetry.counter_add(&self.names.orphaned, 1);
        }
    }

    /// The success half of [`StudyRuntime::book`], in the simulator's
    /// order: breaker, event, counters, history, method.
    fn complete(&mut self, method: &mut dyn Method, spec: JobSpec, eval: Eval, now: f64) {
        self.pending.remove(&spec);
        self.feed_breaker(method, false, now);
        self.counts.completed += 1;
        let (level, bracket) = (spec.level, spec.bracket);
        self.telemetry.emit_with(now, || Event::TrialCompleted {
            level,
            bracket,
            value: eval.value,
            cost: eval.cost,
        });
        self.telemetry.counter_add(&self.names.completed, 1);
        self.telemetry.histogram_record("trial.cost", eval.cost);
        let m = Measurement {
            config: spec.config.clone(),
            level,
            resource: spec.resource,
            value: eval.value,
            test_value: eval.test_value,
            cost: eval.cost,
            finished_at: now,
        };
        self.history.record(m.clone());
        self.measurements.push(m);
        let outcome = Outcome {
            spec,
            value: eval.value,
            test_value: eval.test_value,
            cost: eval.cost,
            finished_at: now,
            status: OutcomeStatus::Success,
            fail_status: None,
        };
        method.on_result(&outcome, &mut self.ctx(now));
    }

    /// Feeds one terminal trial outcome (`failed` = quarantined) to the
    /// breaker and walks the degradation ladder on a transition.
    fn feed_breaker(&mut self, method: &mut dyn Method, failed: bool, now: f64) {
        let Some(breaker) = self.breaker.as_mut() else {
            return;
        };
        match breaker.record(failed) {
            Some(BreakerTransition::Opened(failure_rate)) => {
                self.counts.breaker_trips += 1;
                method.set_degraded(true);
                self.telemetry
                    .emit_with(now, || Event::BreakerOpened { failure_rate });
                self.telemetry.counter_add("breaker.opened", 1);
            }
            Some(BreakerTransition::Closed) => {
                method.set_degraded(false);
                self.telemetry.emit_with(now, || Event::BreakerClosed);
            }
            None => {}
        }
    }

    /// The study's measurement store.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Booked measurements in completion order (restored ones first).
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Consumes the runtime for its booked measurements.
    pub(crate) fn into_measurements(self) -> Vec<Measurement> {
        self.measurements
    }

    /// The study's trial accounting.
    pub fn counts(&self) -> TrialCounts {
        self.counts
    }

    /// The handle the study's events and counters go to.
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hypertune_benchmarks::{Benchmark, CountingOnes};
    use hypertune_space::{Config, ParamValue};
    use hypertune_telemetry::Telemetry;
    use proptest::prelude::*;

    fn runtime(seed: u64, retry: RetryPolicy) -> (StudyRuntime, Box<dyn Method>, CountingOnes) {
        let bench = CountingOnes::new(4, 4, seed);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let method = MethodKind::HyperTune.build(&levels, seed);
        let rt = StudyRuntime::new(
            bench.space().clone(),
            levels,
            seed,
            1,
            retry,
            None,
            TelemetryHandle::disabled(),
        );
        (rt, method, bench)
    }

    /// Sequentially drive the runtime the way a one-worker pool would.
    fn drive(seed: u64, n: usize) -> Vec<Measurement> {
        let (mut rt, mut method, bench) = runtime(seed, RetryPolicy::none());
        for i in 0..n {
            let now = i as f64;
            let batch = rt.suggest(method.as_mut(), 1, now, "suggest_batch");
            assert_eq!(batch.len(), 1, "k=1 suggestion cannot be empty mid-run");
            let spec = batch.into_iter().next().unwrap();
            let eval = bench.evaluate(&spec.config, spec.resource, seed);
            let booked = rt.book(
                method.as_mut(),
                spec,
                0,
                JobStatus::Succeeded,
                Some(eval),
                now,
            );
            assert_eq!(booked.unwrap(), Booked::Completed);
        }
        rt.into_measurements()
    }

    #[test]
    fn ids_are_assigned_from_one() {
        let (mut rt, mut method, _) = runtime(3, RetryPolicy::none());
        let batch = rt.suggest(method.as_mut(), 1, 0.0, "suggest_batch");
        assert_eq!(batch[0].id, 1);
        assert_eq!(rt.counts().outstanding(), 1);
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
    fn every_store_shares_the_one_config_allocation() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::Asha.build(&levels, 7);
        let mut rt = StudyRuntime::new(
            bench.space().clone(),
            levels.clone(),
            7,
            1,
            RetryPolicy::none(),
            None,
            TelemetryHandle::disabled(),
        );
        let mut dispatched: Vec<JobSpec> = Vec::new();
        for i in 0..50 {
            let now = i as f64;
            let spec = rt
                .suggest(method.as_mut(), 1, now, "suggest_batch")
                .remove(0);
            dispatched.push(spec.clone());
            let eval = bench.evaluate(&spec.config, spec.resource, 7);
            let booked = rt.book(
                method.as_mut(),
                spec,
                0,
                JobStatus::Succeeded,
                Some(eval),
                now,
            );
            assert_eq!(booked.unwrap(), Booked::Completed);
        }
        let ptr = |c: &Config| c.values().as_ptr();
        let mut seen = vec![0; levels.k()];
        for (i, (m, job)) in rt.measurements().iter().zip(&dispatched).enumerate() {
            let entry = &rt.history().group(m.level)[seen[m.level]];
            seen[m.level] += 1;
            assert_eq!(ptr(&m.config), ptr(&job.config), "trial {i}: log vs job");
            assert_eq!(
                ptr(&m.config),
                ptr(&entry.config),
                "trial {i}: log vs history"
            );
            // A promotion re-runs the rung's own entry, not a copy of it.
            if m.level > 0 {
                let below = rt.history().group(m.level - 1);
                assert!(
                    below.iter().any(|b| ptr(&b.config) == ptr(&m.config)),
                    "trial {i}"
                );
            }
        }
        assert!(seen[1] > 0, "ASHA promoted within 50 trials");
    }

    #[test]
    fn restore_rebuilds_incumbent_and_counts() {
        let ms = drive(5, 8);
        let (mut rt, mut method, _) = runtime(5, RetryPolicy::none());
        rt.restore(ms.clone());
        assert_eq!(rt.history().len(), 8);
        assert_eq!(rt.measurements(), ms.as_slice());
        assert_eq!((rt.counts().completed, rt.counts().outstanding()), (8, 0));
        let best = rt.history().incumbent().expect("non-empty history");
        assert!(ms.iter().any(|m| m.value == best.value));
        // And the method keeps running against the restored history.
        let batch = rt.suggest(method.as_mut(), 1, 99.0, "suggest_batch");
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn quarantine_feeds_failed_outcome_and_clears_pending() {
        let (mut rt, mut method, _) = runtime(9, RetryPolicy::none());
        let batch = rt.suggest(method.as_mut(), 1, 0.0, "suggest_batch");
        let spec = batch.into_iter().next().unwrap();
        let booked = rt.book(method.as_mut(), spec, 0, JobStatus::Crashed, None, 1.0);
        assert_eq!(booked.unwrap(), Booked::Quarantined);
        assert_eq!(rt.counts().outstanding(), 0);
        assert_eq!(rt.history().len(), 0, "quarantines never enter history");
        // The method must still be able to continue.
        assert_eq!(
            rt.suggest(method.as_mut(), 1, 2.0, "suggest_batch").len(),
            1
        );
    }

    #[test]
    fn counter_names_follow_the_tenant() {
        let bench = CountingOnes::new(4, 4, 1);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let telemetry = Telemetry::new().build();
        for (handle, completed) in [
            (telemetry.clone(), "trials.completed"),
            (telemetry.with_tenant(7), "study.7.trials.completed"),
        ] {
            let mut method = MethodKind::ARandom.build(&levels, 1);
            let space = bench.space().clone();
            let mut rt = StudyRuntime::new(
                space,
                levels.clone(),
                1,
                1,
                RetryPolicy::none(),
                None,
                handle,
            );
            let spec = rt
                .suggest(method.as_mut(), 1, 0.0, "suggest_batch")
                .remove(0);
            let eval = bench.evaluate(&spec.config, spec.resource, 1);
            rt.book(
                method.as_mut(),
                spec,
                0,
                JobStatus::Succeeded,
                Some(eval),
                1.0,
            )
            .unwrap();
            let snapshot = telemetry.snapshot().unwrap();
            assert_eq!(snapshot.counter(completed), Some(1), "{completed}");
        }
    }

    /// Proposes a fresh configuration on every call and records every
    /// outcome it is handed, by dispatch id.
    #[derive(Default)]
    struct Scripted {
        proposed: f64,
        outcomes: Vec<(u64, OutcomeStatus)>,
    }

    impl Method for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn next_job(&mut self, _ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
            self.proposed += 1.0;
            Some(JobSpec {
                config: Config::new(vec![ParamValue::Float(self.proposed)]),
                level: 0,
                resource: 1.0,
                bracket: None,
                id: 0,
            })
        }

        fn on_result(&mut self, outcome: &Outcome, _ctx: &mut MethodContext<'_>) {
            self.outcomes.push((outcome.spec.id, outcome.status));
        }
    }

    /// Script code → what the executor reports: every `JobStatus`, then
    /// a NaN success and an output-less one.
    fn attempt_result(code: usize, spec: &JobSpec) -> (JobStatus, Option<Eval>) {
        let eval = Eval {
            value: 1.0 / spec.id as f64,
            test_value: 0.0,
            cost: 1.0,
        };
        match code {
            0 => (JobStatus::Succeeded, Some(eval)),
            1 => (JobStatus::Crashed, None),
            2 => (JobStatus::Errored, None),
            3 => (JobStatus::TimedOut, None),
            4 => (JobStatus::Corrupt, Some(eval)),
            5 => (JobStatus::Orphaned, None),
            6 => (
                JobStatus::Succeeded,
                Some(Eval {
                    value: f64::NAN,
                    ..eval
                }),
            ),
            7 => (
                JobStatus::Succeeded,
                Some(Eval {
                    cost: f64::INFINITY,
                    ..eval
                }),
            ),
            _ => (JobStatus::Succeeded, None),
        }
    }

    proptest! {
        /// The ledger identity as an executable check: over generated
        /// booking scripts, retry budgets 0–3 and the breaker on or off,
        /// every suggested trial ends exactly once, the counts agree with
        /// an independent tally after every booking, and nothing
        /// non-finite reaches the history.
        #[test]
        fn every_suggested_trial_ends_exactly_once(
            script in collection::vec((0usize..9, 0usize..16), 1..80),
            max_retries in 0usize..4,
            breaker_on in any::<bool>(),
        ) {
            let space = ConfigSpace::builder().float("x", 0.0, 1e9).build();
            let levels = ResourceLevels::new(27.0, 3);
            let retry = RetryPolicy { max_retries, ..RetryPolicy::none() };
            let breaker = breaker_on.then_some(BreakerConfig {
                window: 4,
                open_threshold: 0.5,
                close_threshold: 0.25,
                min_samples: 2,
            });
            let telemetry = Telemetry::new().build();
            let mut rt =
                StudyRuntime::new(space, levels.clone(), 1, 2, retry, breaker, telemetry.clone());
            let mut method = Scripted::default();
            // The test's own view: outstanding trials with their attempt,
            // ended trial ids, failed attempts.
            let mut live: Vec<(JobSpec, usize)> = Vec::new();
            let mut ended: Vec<u64> = Vec::new();
            let mut failed = 0;
            // After the script, drain: every outstanding trial succeeds.
            let steps = script.len();
            let drain = std::iter::repeat((0, 0));
            for (step, (code, pick)) in script.into_iter().chain(drain).enumerate() {
                let now = step as f64;
                if step < steps && live.len() <= pick % 4 {
                    let batch = rt.suggest(&mut method, 1 + pick % 2, now, "suggest_batch");
                    live.extend(batch.into_iter().map(|spec| (spec, 0)));
                }
                if live.is_empty() {
                    break;
                }
                let i = pick % live.len();
                let (spec, attempt) = live[i].clone();
                let (status, output) = attempt_result(code, &spec);
                let usable = status == JobStatus::Succeeded && output.is_some_and(|e| e.is_finite());
                failed += usize::from(!usable);
                match rt.book(&mut method, spec.clone(), attempt, status, output, now) {
                    Ok(Booked::Completed | Booked::Quarantined) => {
                        ended.push(live.remove(i).0.id);
                    }
                    Ok(Booked::Retry(again)) => {
                        prop_assert_eq!(&again, &spec);
                        live[i].1 += 1;
                    }
                    Err(e) => return Err(format!("outstanding trial refused: {e}")),
                }
                let c = rt.counts();
                prop_assert_eq!(c.suggested, c.completed + c.quarantined + live.len());
                prop_assert_eq!(rt.pending.as_slice().len(), live.len());
                prop_assert_eq!(c.failures.total(), failed);
                prop_assert_eq!(c.failures.total(), c.retried + c.quarantined);
                prop_assert_eq!(rt.history().len(), c.completed);
            }
            let c = rt.counts();
            ended.sort_unstable();
            let all: Vec<u64> = (1..=c.suggested as u64).collect();
            prop_assert_eq!(&ended, &all, "every trial ends exactly once");
            let mut told: Vec<u64> = method.outcomes.iter().map(|&(id, _)| id).collect();
            told.sort_unstable();
            prop_assert_eq!(&told, &all, "the method hears of each trial once");
            let failed_outcomes = method.outcomes.iter().filter(|o| o.1 == OutcomeStatus::Failed);
            prop_assert_eq!(failed_outcomes.count(), c.quarantined);
            for level in 0..levels.k() {
                prop_assert!(rt.history().group(level).iter().all(|m| m.value.is_finite()));
            }
            let snapshot = telemetry.snapshot().unwrap();
            let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as usize;
            prop_assert_eq!(counter("trials.dispatched"), c.suggested);
            prop_assert_eq!(counter("trials.failed_attempts"), failed);
            prop_assert_eq!(counter("trials.quarantined"), c.quarantined);

            // A trial that already ended is refused and changes nothing.
            let spec = JobSpec {
                config: Config::new(vec![ParamValue::Float(1.0)]),
                level: 0,
                resource: 1.0,
                bracket: None,
                id: 1,
            };
            let again = rt.book(&mut method, spec, 0, JobStatus::Succeeded, None, 0.0);
            prop_assert_eq!(again.map_err(|e| e.kind()), Err(io::ErrorKind::InvalidInput));
            prop_assert_eq!(rt.counts(), c);
        }
    }
}
