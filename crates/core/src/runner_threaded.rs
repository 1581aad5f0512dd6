//! Real-parallel runner: the production execution path.
//!
//! [`run`](crate::runner::run) drives methods on the *simulated* cluster
//! (virtual time, used by every experiment); this module drives the same
//! [`Method`] implementations on a real executor with wall-clock
//! timestamps. The driver loop is generic over the
//! [`Executor`] trait, so one runner serves two substrates:
//! [`run_threaded`] builds a genuine [`ThreadPool`] of OS threads, and
//! [`run_distributed`] accepts an already-connected executor such as a
//! [`hypertune_cluster::TcpCluster`] of worker *processes*. Benchmarks
//! whose `evaluate` performs real work (training a model, querying a
//! service) run truly in parallel; the scheduling logic is byte-for-byte
//! the same as in the simulator, which is the point — the paper's
//! framework separates scheduling policy from execution substrate.
//!
//! # Batch suggestion
//!
//! Idle workers are filled with *one* [`Method::next_jobs`] call per
//! round, so a method that fits a surrogate pays one fit for the whole
//! batch instead of one per worker. The method is called inline on the
//! driver thread, which owns the study's [`StudyRuntime`]. Every
//! suggestion round runs under a `suggest_batch` span, and every
//! completion is booked through the runtime's ledger, one per round.
//!
//! Fault tolerance is the ledger's, shared with the simulator and the
//! service: with [`ThreadedRunConfig::faults`] set, the pool marks jobs
//! crashed / errored / corrupt (drawn deterministically in submission
//! order), and a failed attempt is resubmitted up to the
//! [`RetryPolicy`]'s `max_retries` times, then quarantined as a `Failed`
//! [`Outcome`](crate::method::Outcome). What this driver keeps is the
//! orphan queue (an orphan's dead worker freed no slot, so it waits for
//! one) and a quarantine cap. Backoff is a virtual-time concept and does
//! not apply here: a real scheduler's requeue delay is wall-clock, which
//! this runner does not model.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use hypertune_benchmarks::{Benchmark, Eval};
use hypertune_cluster::{Executor, FaultModel, FaultSpec, JobStatus, MembershipPlan, ThreadPool};
use hypertune_space::{Config, ConfigSpace};
use hypertune_telemetry::TelemetryHandle;

use crate::breaker::BreakerConfig;
use crate::diagnostics::FailureCounts;
use crate::history::Measurement;
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method};
use crate::runner::RetryPolicy;
use crate::tenant::{Booked, StudyRuntime};

/// Parameters for a threaded run. Budgets are counted in evaluations
/// (wall-clock budgets belong to the caller's deployment logic).
#[derive(Debug, Clone)]
pub struct ThreadedRunConfig {
    /// Worker threads.
    pub n_workers: usize,
    /// Stop after this many completed evaluations.
    pub max_evals: usize,
    /// Master seed for the method RNG and benchmark noise.
    pub seed: u64,
    /// Discard proportion η (paper default 3).
    pub eta: usize,
    /// Fault injection rates, or `None` for a fault-free pool.
    pub faults: Option<FaultSpec>,
    /// Retry policy for failed jobs (backoff fields are ignored — see
    /// the module docs).
    pub retry: RetryPolicy,
    /// Elastic membership plan for the pool: scheduled joins/leaves (in
    /// wall seconds since the run starts) plus stochastic worker crashes
    /// that orphan in-flight jobs until their lease expires. Orphans are
    /// requeued through the [`RetryPolicy`] once a worker frees up.
    /// Speculative re-execution is a simulator-only feature: an OS thread
    /// cannot be cancelled, so first-result-wins semantics do not
    /// translate to this substrate.
    pub membership: Option<MembershipPlan>,
    /// Quarantine-storm circuit breaker: when the recent terminal-outcome
    /// failure rate crosses the open threshold the method is degraded
    /// (random sampling, promotions paused) until the rate recovers.
    pub breaker: Option<BreakerConfig>,
    /// Telemetry pipeline; disabled by default. Events are stamped with
    /// wall seconds since the run started (this substrate has no virtual
    /// clock).
    pub telemetry: TelemetryHandle,
}

impl ThreadedRunConfig {
    /// A config with the paper's default η = 3 and no faults.
    pub fn new(n_workers: usize, max_evals: usize, seed: u64) -> Self {
        Self {
            n_workers,
            max_evals,
            seed,
            eta: 3,
            faults: None,
            retry: RetryPolicy::default_policy(),
            membership: None,
            breaker: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

/// The outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedRunResult {
    /// Method display name.
    pub method: String,
    /// Best validation value found.
    pub best_value: f64,
    /// Test value of the best configuration.
    pub best_test: f64,
    /// The best configuration.
    pub best_config: Option<Config>,
    /// Completed evaluations per level.
    pub evals_per_level: Vec<usize>,
    /// Total completed evaluations.
    pub total_evals: usize,
    /// Real elapsed time in seconds.
    pub wall_secs: f64,
    /// Every measurement in completion order (timestamps are wall-clock
    /// seconds since the run started).
    pub measurements: Vec<Measurement>,
    /// Failed job attempts observed (each retry that failed counts).
    pub n_failed_attempts: usize,
    /// Resubmissions issued by the retry policy.
    pub n_retries: usize,
    /// Jobs quarantined after exhausting their retries.
    pub n_quarantined: usize,
    /// Failed attempts broken down by [`hypertune_cluster::JobStatus`]
    /// (every attempt counts, retried or quarantined).
    pub failure_counts: FailureCounts,
    /// Jobs orphaned by worker crashes whose lease expired.
    pub n_orphaned: usize,
    /// Times the circuit breaker opened.
    pub n_breaker_trips: usize,
}

/// The executor payload: a job spec plus its retry attempt counter.
///
/// Public and serde-derived because the TCP substrate ships it to worker
/// processes as the `Dispatch` frame payload; the in-process substrates
/// just move it between threads.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ThreadedJob {
    /// What to evaluate.
    pub spec: JobSpec,
    /// Retry attempt number (0 = the first dispatch).
    pub attempt: usize,
}

/// Runs `method` against `benchmark` on `config.n_workers` OS threads.
pub fn run_threaded(
    method: &mut dyn Method,
    benchmark: Arc<dyn Benchmark>,
    config: &ThreadedRunConfig,
) -> ThreadedRunResult {
    assert!(config.n_workers > 0 && config.max_evals > 0);
    let levels = ResourceLevels::new(benchmark.max_resource(), config.eta);

    let bench_for_pool = Arc::clone(&benchmark);
    let seed = config.seed;
    let mut pool: ThreadPool<ThreadedJob, Eval> =
        ThreadPool::new(config.n_workers, move |job: &ThreadedJob| {
            bench_for_pool.evaluate(&job.spec.config, job.spec.resource, seed)
        });
    if let Some(spec) = config.faults {
        pool = pool.with_faults(FaultModel::new(spec, config.seed ^ 0xfa17));
    }
    if let Some(plan) = &config.membership {
        pool = pool.with_membership(plan.clone());
    }
    pool.set_telemetry(config.telemetry.clone());
    method.set_telemetry(config.telemetry.clone());

    drive(method, benchmark.space(), config, &levels, pool)
}

/// Runs `method` on an already-connected executor — in practice a
/// [`hypertune_cluster::TcpCluster`] of worker processes, though any
/// [`Executor`] works. The caller owns evaluation: workers must compute
/// the same function the benchmark's `evaluate` would, or the histories
/// diverge (the `hypertune-worker` binary guarantees this by building
/// its evaluator from the same benchmark registry as the driver).
///
/// [`ThreadedRunConfig::faults`] and [`ThreadedRunConfig::membership`]
/// are pool-construction knobs and do not apply here — on a real
/// cluster, faults and churn are supplied by reality.
///
/// # Panics
///
/// Panics when `config.n_workers` disagrees with the executor's actual
/// capacity: the method sizes batches by the config, so a mismatch
/// would silently under- or over-fill the cluster.
pub fn run_distributed<E: Executor<ThreadedJob, Eval>>(
    method: &mut dyn Method,
    space: &ConfigSpace,
    levels: &ResourceLevels,
    mut executor: E,
    config: &ThreadedRunConfig,
) -> ThreadedRunResult {
    assert!(config.max_evals > 0);
    assert_eq!(
        config.n_workers,
        executor.n_workers(),
        "config.n_workers must match the executor's capacity"
    );
    executor.set_telemetry(config.telemetry.clone());
    method.set_telemetry(config.telemetry.clone());
    drive(method, space, config, levels, executor)
}

/// Submits, or parks the job in the wait queue: membership events apply
/// lazily inside `submit`, so a slot seen idle a moment ago can vanish by
/// the time the job lands.
fn submit_or_park<E: Executor<ThreadedJob, Eval>>(
    pool: &mut E,
    queue: &mut VecDeque<ThreadedJob>,
    job: ThreadedJob,
) {
    if pool.submit(job.clone()).is_err() {
        queue.push_back(job);
    }
}

/// The driver loop: fill idle workers from one batched suggestion round,
/// wait for a completion, book it. The method is called on this thread.
fn drive<E: Executor<ThreadedJob, Eval>>(
    method: &mut dyn Method,
    space: &ConfigSpace,
    config: &ThreadedRunConfig,
    levels: &ResourceLevels,
    mut pool: E,
) -> ThreadedRunResult {
    let started = Instant::now();
    let mut orphan_queue: VecDeque<ThreadedJob> = VecDeque::new();
    let mut study = StudyRuntime::new(
        space.clone(),
        levels.clone(),
        config.seed,
        config.n_workers,
        config.retry,
        config.breaker.clone(),
        config.telemetry.clone(),
    );
    // At 100% failure rate no job ever completes and every dispatch
    // quarantines; this cap turns that pathological case into a clean
    // early exit instead of an infinite loop.
    let quarantine_cap = 10 * config.max_evals;
    while study.counts().completed < config.max_evals && study.counts().quarantined < quarantine_cap
    {
        // Requeue recovered orphans first: their worker died, so they
        // wait for the next free slot rather than resubmitting in place.
        while pool.idle_workers() > 0 {
            let Some(job) = orphan_queue.pop_front() else {
                break;
            };
            if pool.submit(job.clone()).is_err() {
                orphan_queue.push_front(job);
                break;
            }
        }
        // Fill idle workers from one suggestion round (stop dispatching
        // once the cap is reachable; a quarantine gives its slot back).
        while pool.idle_workers() > 0 && study.counts().charged() < config.max_evals {
            let k = pool
                .idle_workers()
                .min(config.max_evals - study.counts().charged());
            let now = started.elapsed().as_secs_f64();
            let batch = study.suggest(method, k, now, "suggest_batch");
            if batch.is_empty() {
                assert!(
                    pool.in_flight() > 0 || !orphan_queue.is_empty(),
                    "method {} stalled with no running evaluations",
                    method.name()
                );
                break;
            }
            let short = batch.len() < k;
            for spec in batch {
                submit_or_park(
                    &mut pool,
                    &mut orphan_queue,
                    ThreadedJob { spec, attempt: 0 },
                );
            }
            if short {
                // Barrier mid-batch: wait for a completion.
                break;
            }
        }

        let done = match pool.next_completion() {
            Ok(done) => done,
            Err(_) => {
                // Quiescent with work parked and capacity restored: a
                // redialed fleet (TCP substrate) came back after every
                // in-flight job orphaned. Resume dispatching the queue
                // instead of abandoning the run.
                if !orphan_queue.is_empty() && pool.idle_workers() > 0 {
                    continue;
                }
                break;
            }
        };
        let ThreadedJob { spec, attempt } = done.job;
        let now = started.elapsed().as_secs_f64();
        // A completion for a trial this study is not waiting on is not
        // booked (the ledger refuses it).
        if let Ok(Booked::Retry(spec)) =
            study.book(method, spec, attempt, done.status, done.output, now)
        {
            let retry = ThreadedJob {
                spec,
                attempt: attempt + 1,
            };
            if done.status == JobStatus::Orphaned {
                // The dead worker freed no slot; wait for one.
                orphan_queue.push_back(retry);
            } else {
                submit_or_park(&mut pool, &mut orphan_queue, retry);
            }
        }
    }
    config.telemetry.flush();
    let counts = study.counts();
    let history = study.history();
    let (best_value, best_test, best_config) = match history.incumbent() {
        Some(m) => (m.value, m.test_value, Some(m.config.clone())),
        None => (f64::INFINITY, f64::INFINITY, None),
    };
    ThreadedRunResult {
        method: method.name().to_string(),
        best_value,
        best_test,
        best_config,
        evals_per_level: (0..levels.k()).map(|l| history.len_at(l)).collect(),
        total_evals: counts.completed,
        wall_secs: started.elapsed().as_secs_f64(),
        measurements: study.into_measurements(),
        n_failed_attempts: counts.failures.total(),
        n_retries: counts.retried,
        n_quarantined: counts.quarantined,
        failure_counts: counts.failures,
        n_orphaned: counts.failures.orphaned,
        n_breaker_trips: counts.breaker_trips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hypertune_benchmarks::CountingOnes;

    fn threaded(
        kind: MethodKind,
        workers: usize,
        max_evals: usize,
        seed: u64,
    ) -> ThreadedRunResult {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = kind.build(&levels, seed);
        run_threaded(
            method.as_mut(),
            bench,
            &ThreadedRunConfig::new(workers, max_evals, seed),
        )
    }

    /// The parallelism-insensitive fingerprint of a measurement stream:
    /// everything but the wall-clock timestamp.
    fn keys(r: &ThreadedRunResult) -> Vec<(Config, usize, u64, u64, u64, u64)> {
        r.measurements
            .iter()
            .map(|m| {
                (
                    m.config.clone(),
                    m.level,
                    m.resource.to_bits(),
                    m.value.to_bits(),
                    m.test_value.to_bits(),
                    m.cost.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn completes_exactly_max_evals() {
        let r = threaded(MethodKind::Asha, 4, 50, 1);
        assert_eq!(r.total_evals, 50);
        assert_eq!(r.evals_per_level.iter().sum::<usize>(), 50);
        assert!(r.best_value.is_finite());
        assert!(r.wall_secs >= 0.0);
    }

    #[test]
    fn inline_driver_completes_exactly_max_evals() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::Asha.build(&levels, 1);
        let cfg = ThreadedRunConfig::new(4, 50, 1);
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert_eq!(r.total_evals, 50);
        assert!(r.best_value.is_finite());
    }

    #[test]
    fn async_and_sync_methods_both_run() {
        for kind in [
            MethodKind::HyperTune,
            MethodKind::Hyperband,
            MethodKind::BatchBo,
        ] {
            let r = threaded(kind, 3, 30, 2);
            assert_eq!(r.total_evals, 30, "{}", kind.name());
        }
    }

    #[test]
    fn measurements_timestamps_monotone() {
        let r = threaded(MethodKind::ARandom, 4, 40, 3);
        for w in r.measurements.windows(2) {
            assert!(w[0].finished_at <= w[1].finished_at);
        }
    }

    #[test]
    fn single_worker_matches_multi_worker_quality_roughly() {
        // Both configurations must find something decent on counting-ones
        // within the same evaluation budget (parallelism changes order,
        // not correctness).
        let a = threaded(MethodKind::Asha, 1, 60, 4);
        let b = threaded(MethodKind::Asha, 4, 60, 4);
        assert!(a.best_value <= 0.0 && b.best_value <= 0.0);
    }

    #[test]
    fn crash_faults_are_retried_and_run_still_completes() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::Asha.build(&levels, 5);
        let mut cfg = ThreadedRunConfig::new(4, 40, 5);
        cfg.faults = Some(FaultSpec::crashes(0.2));
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert_eq!(r.total_evals, 40, "retries must preserve the budget");
        assert!(r.n_failed_attempts > 0, "20% crash rate should fire");
        assert!(r.n_retries > 0);
        for m in &r.measurements {
            assert!(m.value.is_finite());
        }
    }

    #[test]
    fn a_panicking_evaluation_is_retried_instead_of_hanging_the_run() {
        // The benchmark panics on its first call only. The run is on a
        // helper thread, so a driver stuck on the lost job fails the test
        // instead of hanging it.
        struct PanicsOnce(CountingOnes, std::sync::atomic::AtomicBool);
        impl Benchmark for PanicsOnce {
            fn name(&self) -> &str {
                "panics-once"
            }
            fn space(&self) -> &ConfigSpace {
                self.0.space()
            }
            fn max_resource(&self) -> f64 {
                self.0.max_resource()
            }
            fn evaluate(&self, config: &Config, resource: f64, seed: u64) -> Eval {
                let fired = self.1.swap(true, std::sync::atomic::Ordering::SeqCst);
                assert!(fired, "benchmark blew up");
                self.0.evaluate(config, resource, seed)
            }
        }
        let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
        let driver = std::thread::spawn(move || {
            let bench = PanicsOnce(CountingOnes::new(4, 4, 7), Default::default());
            let levels = ResourceLevels::new(bench.max_resource(), 3);
            let mut method = MethodKind::Asha.build(&levels, 3);
            let cfg = ThreadedRunConfig::new(2, 20, 3);
            let _ = verdict_tx.send(run_threaded(method.as_mut(), Arc::new(bench), &cfg));
        });
        let r = verdict_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run hung on the panicked evaluation");
        driver.join().expect("the run returned after its verdict");
        assert_eq!(r.total_evals, 20);
        assert_eq!((r.failure_counts.crashed, r.n_retries), (1, 1));
    }

    #[test]
    fn total_failure_terminates_via_quarantine_cap() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::ARandom.build(&levels, 6);
        let mut cfg = ThreadedRunConfig::new(2, 10, 6);
        cfg.faults = Some(FaultSpec::errors(1.0));
        cfg.retry = RetryPolicy {
            max_retries: 1,
            backoff_base: 0.0,
            backoff_mult: 1.0,
        };
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert_eq!(r.total_evals, 0);
        assert!(r.n_quarantined >= 10 * 10, "cap should bound the run");
        assert!(r.best_config.is_none());
    }

    #[test]
    fn worker_churn_run_completes_with_orphan_recovery() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::Asha.build(&levels, 9);
        let mut cfg = ThreadedRunConfig::new(4, 40, 9);
        // Crash 15% of dispatches; leases expire after 50 ms and crashed
        // workers rejoin after 20 ms, so the pool heals continuously.
        cfg.membership =
            Some(MembershipPlan::worker_crashes(0.15, Some(0.02), 9).with_lease_timeout(0.05));
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert_eq!(r.total_evals, 40, "churn must not lose budget");
        assert!(r.n_orphaned > 0, "15% crash rate should orphan jobs");
        assert_eq!(r.failure_counts.orphaned, r.n_orphaned);
        for m in &r.measurements {
            assert!(m.value.is_finite(), "orphans must never enter history");
        }
    }

    #[test]
    fn breaker_trips_under_failure_storm() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::HyperTune.build(&levels, 10);
        let mut cfg = ThreadedRunConfig::new(4, 10, 10);
        cfg.faults = Some(FaultSpec::errors(0.8));
        cfg.retry = RetryPolicy::none();
        cfg.breaker = Some(BreakerConfig {
            window: 10,
            open_threshold: 0.5,
            close_threshold: 0.2,
            min_samples: 5,
        });
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert!(
            r.n_breaker_trips >= 1,
            "an 80% failure rate must trip the breaker"
        );
    }

    #[test]
    fn static_membership_plan_matches_plain_run() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut m1 = MethodKind::Asha.build(&levels, 11);
        let cfg = ThreadedRunConfig::new(1, 30, 11);
        let plain = run_threaded(m1.as_mut(), Arc::clone(&bench), &cfg);

        let mut m2 = MethodKind::Asha.build(&levels, 11);
        let mut cfg2 = cfg.clone();
        cfg2.membership = Some(MembershipPlan::static_plan());
        cfg2.breaker = Some(BreakerConfig::default());
        let elastic = run_threaded(m2.as_mut(), bench, &cfg2);

        assert_eq!(keys(&plain), keys(&elastic));
        assert_eq!(elastic.n_orphaned, 0);
        assert_eq!(elastic.n_breaker_trips, 0);
    }

    #[test]
    fn corrupt_results_never_enter_history() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::Asha.build(&levels, 7);
        let mut cfg = ThreadedRunConfig::new(4, 30, 7);
        cfg.faults = Some(FaultSpec::corrupt(0.3));
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert_eq!(r.total_evals, 30);
        assert!(r.n_failed_attempts > 0, "30% corruption should fire");
        for m in &r.measurements {
            assert!(m.value.is_finite());
        }
    }

    #[test]
    fn nan_objective_is_retried_as_corrupt_not_booked() {
        // A worker that reports NaN once (a diverged training run): the
        // result must walk the retry ladder instead of reaching the
        // history and the rung, where ordering it panicked the driver.
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let diverged = std::sync::atomic::AtomicBool::new(false);
        let eval_bench = Arc::clone(&bench);
        let pool = ThreadPool::new(2, move |job: &ThreadedJob| {
            let mut eval = eval_bench.evaluate(&job.spec.config, job.spec.resource, 7);
            if !diverged.swap(true, std::sync::atomic::Ordering::SeqCst) {
                eval.value = f64::NAN;
            }
            eval
        });
        let mut method = MethodKind::Asha.build(&levels, 7);
        let cfg = ThreadedRunConfig::new(2, 30, 7);
        let r = run_distributed(method.as_mut(), bench.space(), &levels, pool, &cfg);
        assert_eq!(r.total_evals, 30);
        assert_eq!((r.n_retries, r.n_quarantined), (1, 0));
        assert_eq!(r.failure_counts.corrupt, 1);
        assert!(r.measurements.iter().all(|m| !m.value.is_nan()));
    }
}
