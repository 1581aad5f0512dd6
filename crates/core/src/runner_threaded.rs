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
//! service: a failed attempt — a crashed evaluation, a worker process
//! lost over TCP, a corrupt result — is resubmitted up to the
//! [`RetryPolicy`]'s `max_retries` times, then quarantined as a `Failed`
//! [`Outcome`](crate::method::Outcome). This driver injects no faults:
//! injected faults and churn are the simulator's, and on a real fleet the
//! fleet supplies them. What it keeps is the orphan queue (an orphan's
//! dead worker freed no slot, so it waits for one) and a quarantine cap.
//! Backoff is a virtual-time concept and does not apply here: a real
//! scheduler's requeue delay is wall-clock, which this runner does not
//! model.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use hypertune_benchmarks::{Benchmark, Eval};
use hypertune_cluster::{Executor, JobStatus, ThreadPool};
use hypertune_space::{Config, ConfigSpace};
use hypertune_telemetry::TelemetryHandle;

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
    /// Retry policy for failed jobs (backoff fields are ignored — see
    /// the module docs).
    pub retry: RetryPolicy,
    /// Telemetry pipeline; disabled by default. Events are stamped with
    /// wall seconds since the run started (this substrate has no virtual
    /// clock).
    pub telemetry: TelemetryHandle,
}

impl ThreadedRunConfig {
    /// A config with the paper's default η = 3 and the default retry
    /// policy.
    pub fn new(n_workers: usize, max_evals: usize, seed: u64) -> Self {
        Self {
            n_workers,
            max_evals,
            seed,
            eta: 3,
            retry: RetryPolicy::default_policy(),
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

/// Runs `method` against `benchmark` on `config.n_workers` OS threads:
/// builds a [`ThreadPool`] over the benchmark's `evaluate` and hands it to
/// [`run_distributed`].
pub fn run_threaded(
    method: &mut dyn Method,
    benchmark: Arc<dyn Benchmark>,
    config: &ThreadedRunConfig,
) -> ThreadedRunResult {
    let levels = ResourceLevels::new(benchmark.max_resource(), config.eta);
    let eval_bench = Arc::clone(&benchmark);
    let seed = config.seed;
    let pool = ThreadPool::new(config.n_workers, move |job: &ThreadedJob| {
        eval_bench.evaluate(&job.spec.config, job.spec.resource, seed)
    });
    run_distributed(method, benchmark.space(), &levels, pool, config)
}

/// Runs `method` on an already-connected executor — in practice a
/// [`hypertune_cluster::TcpCluster`] of worker processes, though any
/// [`Executor`] works. The caller owns evaluation: workers must compute
/// the same function the benchmark's `evaluate` would, or the histories
/// diverge (the `hypertune-worker` binary guarantees this by building
/// its evaluator from the same benchmark registry as the driver).
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

/// Submits, or parks the job in the wait queue: a slot seen idle a moment
/// ago can vanish by the time the job lands (a TCP worker can drop in
/// between).
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
        None,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hypertune_benchmarks::CountingOnes;
    use hypertune_cluster::{ClusterError, PoolResult};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// `n` threads evaluating counting-ones as `run_threaded` does at
    /// `seed`, each evaluation passed through `tweak` with its call index.
    fn pool(
        n: usize,
        seed: u64,
        tweak: impl Fn(usize, Eval) -> Eval + Send + Sync + 'static,
    ) -> ThreadPool<ThreadedJob, Eval> {
        let bench = CountingOnes::new(4, 4, 7);
        let calls = AtomicUsize::new(0);
        ThreadPool::new(n, move |job: &ThreadedJob| {
            let eval = bench.evaluate(&job.spec.config, job.spec.resource, seed);
            tweak(calls.fetch_add(1, Ordering::SeqCst), eval)
        })
    }

    /// `kind` over counting-ones on `executor`, through `run_distributed`.
    fn run_on<E: Executor<ThreadedJob, Eval>>(
        kind: MethodKind,
        executor: E,
        cfg: &ThreadedRunConfig,
    ) -> ThreadedRunResult {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = kind.build(&levels, cfg.seed);
        run_distributed(method.as_mut(), bench.space(), &levels, executor, cfg)
    }

    /// The parallelism-insensitive fingerprint of a measurement stream:
    /// everything but the wall-clock timestamp.
    fn keys(r: &ThreadedRunResult) -> Vec<(Config, usize, [u64; 4])> {
        let bits = |m: &Measurement| [m.resource, m.value, m.test_value, m.cost].map(f64::to_bits);
        let key = |m: &Measurement| (m.config.clone(), m.level, bits(m));
        r.measurements.iter().map(key).collect()
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
        let cfg = ThreadedRunConfig::new(4, 50, 1);
        let r = run_on(MethodKind::Asha, pool(4, 1, |_, eval| eval), &cfg);
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
    fn a_panicking_evaluation_is_retried_instead_of_hanging_the_run() {
        // The evaluation panics on its first call only. The run is on a
        // helper thread, so a driver stuck on the lost job fails the test
        // instead of hanging it.
        let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
        let driver = std::thread::spawn(move || {
            let blows_up_once = pool(2, 3, |call, eval| {
                assert!(call > 0, "evaluation blew up");
                eval
            });
            let cfg = ThreadedRunConfig::new(2, 20, 3);
            let _ = verdict_tx.send(run_on(MethodKind::Asha, blows_up_once, &cfg));
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
        // Every evaluation panics, so every attempt comes back crashed:
        // the cap must end the run instead of letting it retry forever.
        let mut cfg = ThreadedRunConfig::new(2, 10, 6);
        cfg.retry = RetryPolicy {
            max_retries: 1,
            backoff_base: 0.0,
            backoff_mult: 1.0,
        };
        let always_panics = pool(2, 6, |_, _| panic!("evaluation blew up"));
        let r = run_on(MethodKind::ARandom, always_panics, &cfg);
        assert_eq!(r.total_evals, 0);
        assert!(r.n_quarantined >= 10 * 10, "cap should bound the run");
        assert_eq!(r.failure_counts.crashed, r.n_failed_attempts);
        assert!(r.best_config.is_none());
    }

    /// A one-thread pool whose first result comes back as `status`: the
    /// failures a pool never reports itself, such as a job lost with its
    /// worker. A corrupt result carries `POISON`, a value no real
    /// evaluation reports.
    struct FailsFirst(ThreadPool<ThreadedJob, Eval>, Option<JobStatus>);

    const POISON: f64 = -1e9;

    impl Executor<ThreadedJob, Eval> for FailsFirst {
        fn submit(&mut self, job: ThreadedJob) -> Result<(), ClusterError> {
            self.0.submit(job)
        }

        fn next_completion(&mut self) -> Result<PoolResult<ThreadedJob, Eval>, ClusterError> {
            let mut done = self.0.next_completion()?;
            if let Some(status) = self.1.take() {
                done.output = (status == JobStatus::Corrupt).then_some(Eval {
                    value: POISON,
                    ..done.output.expect("the first evaluation succeeds")
                });
                done.status = status;
            }
            Ok(done)
        }

        fn n_workers(&self) -> usize {
            1
        }

        fn in_flight(&self) -> usize {
            self.0.in_flight()
        }

        fn set_telemetry(&mut self, _telemetry: TelemetryHandle) {}
    }

    /// ASHA for 30 evaluations on a [`FailsFirst`] pool, seed 9. The
    /// failed attempt is retried once and booked once; at one worker
    /// nothing else moves meanwhile, so the run books exactly what a run
    /// that lost nothing books.
    fn fails_first(status: JobStatus) -> ThreadedRunResult {
        let executor = FailsFirst(pool(1, 9, |_, eval| eval), Some(status));
        let r = run_on(
            MethodKind::Asha,
            executor,
            &ThreadedRunConfig::new(1, 30, 9),
        );
        assert_eq!(r.total_evals, 30, "a failed attempt must not lose budget");
        let attempts = (r.n_failed_attempts, r.n_retries, r.n_quarantined);
        assert_eq!(attempts, (1, 1, 0));
        assert_eq!(keys(&r), keys(&threaded(MethodKind::Asha, 1, 30, 9)));
        r
    }

    #[test]
    fn crash_faults_are_retried_and_run_still_completes() {
        assert_eq!(fails_first(JobStatus::Crashed).failure_counts.crashed, 1);
    }

    #[test]
    fn worker_churn_run_completes_with_orphan_recovery() {
        // The orphan waits in the driver's queue for a free slot.
        let r = fails_first(JobStatus::Orphaned);
        assert_eq!((r.n_orphaned, r.failure_counts.orphaned), (1, 1));
    }

    #[test]
    fn corrupt_results_never_enter_history() {
        let r = fails_first(JobStatus::Corrupt);
        assert_eq!(r.failure_counts.corrupt, 1);
        assert!(r.measurements.iter().all(|m| m.value != POISON));
    }

    #[test]
    fn nan_objective_is_retried_as_corrupt_not_booked() {
        // A worker that reports NaN once (a diverged training run): the
        // result must walk the retry ladder instead of reaching the
        // history and the rung, where ordering it panicked the driver.
        let diverges_once = pool(2, 7, |call, eval| Eval {
            value: if call == 0 { f64::NAN } else { eval.value },
            ..eval
        });
        let r = run_on(
            MethodKind::Asha,
            diverges_once,
            &ThreadedRunConfig::new(2, 30, 7),
        );
        assert_eq!(r.total_evals, 30);
        assert_eq!((r.n_retries, r.n_quarantined), (1, 0));
        assert_eq!(r.failure_counts.corrupt, 1);
        assert!(r.measurements.iter().all(|m| !m.value.is_nan()));
    }
}
