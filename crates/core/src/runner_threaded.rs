//! Real-parallel runner: the production execution path.
//!
//! [`run`](crate::runner::run) drives methods on the *simulated* cluster
//! (virtual time, used by every experiment); this module drives the same
//! [`Method`] implementations on a real executor with wall-clock
//! timestamps. Both driver loops are generic over the
//! [`Executor`] trait, so one runner serves two substrates:
//! [`run_threaded`] builds a genuine [`ThreadPool`] of OS threads, and
//! [`run_distributed`] accepts an already-connected executor such as a
//! [`hypertune_cluster::TcpCluster`] of worker *processes*. Benchmarks
//! whose `evaluate` performs real work (training a model, querying a
//! service) run truly in parallel; the scheduling logic is byte-for-byte
//! the same as in the simulator, which is the point — the paper's
//! framework separates scheduling policy from execution substrate.
//!
//! # Pipelined dispatch
//!
//! Two things keep workers from idling on the surrogate here:
//!
//! 1. **Batch suggestion.** Idle workers are filled with *one*
//!    [`Method::next_jobs`] call per round, so a method that fits a
//!    surrogate pays one fit for the whole batch instead of one per
//!    worker.
//! 2. **Suggestion prefetch** ([`ThreadedRunConfig::prefetch`], on by
//!    default). The method runs on a dedicated suggestion thread that
//!    receives every completion over a FIFO channel and *speculatively*
//!    computes the batch the driver is expected to demand next, against a
//!    cloned RNG. Each speculation is tagged with the history version
//!    (total measurement count plus the pending-set fingerprint) it was
//!    computed at; a demand takes the prefetched batch only if that
//!    version still matches and the demanded batch size equals the
//!    speculated one — otherwise the batch is discarded and recomputed
//!    synchronously. Hits adopt the clone's RNG state, so the method's
//!    random stream is exactly what on-demand suggestion would have
//!    drawn: prefetch changes *when* suggestions are computed, never
//!    *what* they are. Hit/miss/discard counts surface as the
//!    `prefetch.hit` / `prefetch.miss` / `prefetch.discarded` telemetry
//!    counters, and every suggestion round runs under a `suggest_batch`
//!    span.
//!
//! Fault tolerance mirrors the simulator's: with
//! [`ThreadedRunConfig::faults`] set, the pool marks jobs crashed /
//! errored / corrupt (drawn deterministically in submission order) and
//! the runner applies the same bounded [`RetryPolicy`] — resubmit up to
//! `max_retries` times, then quarantine the config as a `Failed`
//! [`Outcome`]. Backoff is a virtual-time concept and does not apply
//! here: a real scheduler's requeue delay is wall-clock, which this
//! runner does not model.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use hypertune_benchmarks::{Benchmark, Eval};
use hypertune_cluster::{
    Executor, FaultModel, FaultSpec, JobStatus, MembershipPlan, PoolResult, ThreadPool,
};
use hypertune_space::{Config, ConfigSpace};
use hypertune_telemetry::{Event, TelemetryHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::breaker::{Breaker, BreakerConfig, BreakerTransition};
use crate::diagnostics::{failure_kind, FailureCounts};
use crate::history::{History, HistoryRead, Measurement};
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method, MethodContext, Outcome, OutcomeStatus};
use crate::runner::RetryPolicy;
use crate::sampler::pending_fingerprint;
use crate::shared::{HistoryView, ShardedPending, SharedHistory};

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
    /// Run the method on a dedicated suggestion thread and prefetch the
    /// next batch off the critical path (see the module docs). Off, the
    /// driver calls the method inline, like the simulator. Either way the
    /// suggestion stream is identical; this only moves the computation.
    pub prefetch: bool,
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
    /// A config with the paper's default η = 3, no faults, and prefetch
    /// enabled.
    pub fn new(n_workers: usize, max_evals: usize, seed: u64) -> Self {
        Self {
            n_workers,
            max_evals,
            seed,
            eta: 3,
            faults: None,
            retry: RetryPolicy::default_policy(),
            prefetch: true,
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

/// Driver → suggestion-thread protocol. Strictly FIFO: every state
/// change is sent before the demand that depends on it, so the
/// suggestion thread's view of the run always equals the driver's at the
/// moment a demand is served. The version tag on speculations (below) is
/// the belt-and-braces check that this holds.
enum ToSuggester {
    /// A job left the in-flight set. The driver has already written the
    /// outcome into the shared history/pending stores (single-writer
    /// discipline); the suggestion thread syncs its read views, notifies
    /// the method, then — when `predicted_k > 0` — speculatively computes
    /// the batch the driver is expected to demand next.
    Completed {
        outcome: Outcome,
        predicted_k: usize,
        now: f64,
    },
    /// The driver has idle workers and wants a batch of `k` jobs now.
    Demand { k: usize, now: f64 },
    /// The circuit breaker changed state: walk the degradation ladder.
    /// Any outstanding speculation was computed under the old mode and is
    /// discarded.
    SetDegraded(bool),
}

/// A batch computed ahead of demand, valid only for the exact history
/// version and batch size it was computed against.
struct Speculation {
    k: usize,
    version: (usize, u64),
    batch: Vec<JobSpec>,
    /// RNG state after drawing the batch — adopted on a hit so the
    /// method's random stream is exactly what on-demand suggestion would
    /// have produced.
    rng_after: StdRng,
}

/// The suggestion thread's state: it owns the method and the RNG, and
/// holds *read views* over the driver-written shared stores — a
/// [`HistoryView`] epoch snapshot and the last published pending
/// snapshot. The driver owns the pool and all state writes, and talks to
/// it only through [`ToSuggester`]; the views are re-synced at each
/// message, so suggestion rounds (model fits, acquisition) run entirely
/// against local buffers and never hold a lock the completion path wants.
struct Suggester<'a> {
    method: &'a mut dyn Method,
    space: &'a ConfigSpace,
    levels: &'a ResourceLevels,
    history: HistoryView,
    pending: Arc<ShardedPending>,
    pending_snap: Arc<[JobSpec]>,
    rng: StdRng,
    n_workers: usize,
    telemetry: TelemetryHandle,
    speculation: Option<Speculation>,
    /// Whether this suggester is fed by the prefetch protocol; gates the
    /// `prefetch.*` hit/miss counters so a purely inline run (or the
    /// post-fallback tail of a prefetch run) does not report misses.
    prefetching: bool,
}

impl<'a> Suggester<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        method: &'a mut dyn Method,
        space: &'a ConfigSpace,
        levels: &'a ResourceLevels,
        history: Arc<SharedHistory>,
        pending: Arc<ShardedPending>,
        config: &ThreadedRunConfig,
        telemetry: TelemetryHandle,
        prefetching: bool,
    ) -> Self {
        Self {
            method,
            space,
            levels,
            history: history.view(),
            pending_snap: pending.snapshot(),
            pending,
            rng: StdRng::seed_from_u64(config.seed),
            n_workers: config.n_workers,
            telemetry,
            speculation: None,
            prefetching,
        }
    }

    /// Brings the read views up to date with the shared stores. Called at
    /// each message boundary: the driver publishes every write *before*
    /// sending the message that depends on it (FIFO), so after a refresh
    /// the suggester's view equals the driver's state at send time.
    fn refresh(&mut self) {
        self.history.sync();
        self.pending_snap = self.pending.snapshot();
    }

    fn version(&self) -> (usize, u64) {
        (
            self.history.len(),
            pending_fingerprint(self.space, &self.pending_snap),
        )
    }

    /// Runs one suggestion round against the live RNG.
    fn compute(&mut self, k: usize, now: f64) -> Vec<JobSpec> {
        let mut ctx = MethodContext {
            space: self.space,
            levels: self.levels,
            history: &self.history,
            pending: &self.pending_snap,
            rng: &mut self.rng,
            n_workers: self.n_workers,
            now,
        };
        let span = self.telemetry.span("suggest_batch");
        let batch = self.method.next_jobs(&mut ctx, k);
        drop(span);
        batch
    }

    /// Runs one suggestion round against a *cloned* RNG and stashes the
    /// result; the clone's state is adopted only if the speculation hits.
    fn speculate(&mut self, k: usize, now: f64) {
        let version = self.version();
        let mut rng = self.rng.clone();
        let mut ctx = MethodContext {
            space: self.space,
            levels: self.levels,
            history: &self.history,
            pending: &self.pending_snap,
            rng: &mut rng,
            n_workers: self.n_workers,
            now,
        };
        let span = self.telemetry.span("suggest_batch");
        let batch = self.method.next_jobs(&mut ctx, k);
        drop(span);
        self.speculation = Some(Speculation {
            k,
            version,
            batch,
            rng_after: rng,
        });
    }

    fn on_completed(&mut self, outcome: Outcome, predicted_k: usize, now: f64) {
        // Any outstanding speculation predates this state change. The
        // driver already removed the job from pending (and recorded the
        // measurement, for successes) before sending this message.
        self.speculation = None;
        self.refresh();
        let mut ctx = MethodContext {
            space: self.space,
            levels: self.levels,
            history: &self.history,
            pending: &self.pending_snap,
            rng: &mut self.rng,
            n_workers: self.n_workers,
            now,
        };
        self.method.on_result(&outcome, &mut ctx);
        if predicted_k > 0 {
            self.speculate(predicted_k, now);
        }
    }

    /// Produces a batch. Job ids are left unassigned (0): the driver owns
    /// the id counter and the pending set, and registers the batch there
    /// before dispatching it.
    fn on_demand(&mut self, k: usize, now: f64) -> Vec<JobSpec> {
        self.refresh();
        match self.speculation.take() {
            Some(s) if s.k == k && s.version == self.version() => {
                self.telemetry.counter_add("prefetch.hit", 1);
                self.rng = s.rng_after;
                s.batch
            }
            Some(_) => {
                self.telemetry.counter_add("prefetch.discarded", 1);
                self.compute(k, now)
            }
            None => {
                if self.prefetching {
                    self.telemetry.counter_add("prefetch.miss", 1);
                }
                self.compute(k, now)
            }
        }
    }
}

/// Driver-owned shared run state: the single-writer stores plus the
/// dispatch id counter. Both drivers (and the prefetch driver's inline
/// fallback) funnel every write through here.
struct RunState {
    history: Arc<SharedHistory>,
    pending: Arc<ShardedPending>,
    next_job_id: u64,
}

impl RunState {
    fn new(levels: &ResourceLevels, telemetry: TelemetryHandle) -> Self {
        Self {
            history: Arc::new(SharedHistory::new(levels.clone(), telemetry.clone())),
            pending: Arc::new(ShardedPending::new(telemetry)),
            next_job_id: 1,
        }
    }

    /// Registers a suggested batch: assigns dispatch ids, inserts every
    /// member into the pending set, and publishes the snapshot readers
    /// will see. Call before submitting any member to the pool.
    fn register_batch(&mut self, batch: &mut [JobSpec]) {
        for job in batch.iter_mut() {
            job.id = self.next_job_id;
            self.next_job_id += 1;
            self.pending.insert(job.clone());
        }
        self.pending.publish();
    }

    /// Books a terminal completion (success or quarantine): removes the
    /// job from pending, records the measurement for successes, and
    /// publishes — all *before* the driver tells the suggester, so a
    /// refresh at the message sees exactly this state.
    fn complete(&mut self, spec: &JobSpec, measurement: Option<Measurement>) {
        self.pending.remove(spec);
        if let Some(m) = measurement {
            self.history.append(m);
        }
        self.pending.publish();
    }
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

    if config.prefetch {
        drive_prefetch(method, benchmark.space(), config, &levels, pool)
    } else {
        drive_inline(method, benchmark.space(), config, &levels, pool)
    }
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
/// capacity: the suggester sizes batches by the config, so a mismatch
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
    if config.prefetch {
        drive_prefetch(method, space, config, levels, executor)
    } else {
        drive_inline(method, space, config, levels, executor)
    }
}

/// Accounting shared by both drivers, folded into the final result.
#[derive(Default)]
struct Tally {
    evals_per_level: Vec<usize>,
    measurements: Vec<Measurement>,
    n_failed_attempts: usize,
    n_retries: usize,
    n_quarantined: usize,
    failure_counts: FailureCounts,
    n_orphaned: usize,
    n_breaker_trips: usize,
}

impl Tally {
    fn new(levels: &ResourceLevels) -> Self {
        Self {
            evals_per_level: vec![0; levels.k()],
            ..Self::default()
        }
    }

    fn into_result(self, method: String, history: &History, wall_secs: f64) -> ThreadedRunResult {
        let (best_value, best_test, best_config) = match history.incumbent() {
            Some(m) => (m.value, m.test_value, Some(m.config.clone())),
            None => (f64::INFINITY, f64::INFINITY, None),
        };
        ThreadedRunResult {
            method,
            best_value,
            best_test,
            best_config,
            total_evals: self.evals_per_level.iter().sum(),
            evals_per_level: self.evals_per_level,
            wall_secs,
            measurements: self.measurements,
            n_failed_attempts: self.n_failed_attempts,
            n_retries: self.n_retries,
            n_quarantined: self.n_quarantined,
            failure_counts: self.failure_counts,
            n_orphaned: self.n_orphaned,
            n_breaker_trips: self.n_breaker_trips,
        }
    }
}

/// The classic driver: the method is called inline on the driver thread,
/// one batched suggestion round per fill.
fn drive_inline<E: Executor<ThreadedJob, Eval>>(
    method: &mut dyn Method,
    space: &ConfigSpace,
    config: &ThreadedRunConfig,
    levels: &ResourceLevels,
    mut pool: E,
) -> ThreadedRunResult {
    let telemetry = &config.telemetry;
    let started = Instant::now();
    let mut tally = Tally::new(levels);
    let mut breaker = config.breaker.clone().map(Breaker::new);
    let mut orphan_queue = VecDeque::new();
    let mut state = RunState::new(levels, telemetry.clone());
    let mut sg = Suggester::new(
        method,
        space,
        levels,
        Arc::clone(&state.history),
        Arc::clone(&state.pending),
        config,
        telemetry.clone(),
        false,
    );
    let mut completed = 0usize;
    let mut dispatched = 0usize;
    inline_loop(
        &mut sg,
        &mut state,
        &mut pool,
        config,
        started,
        &mut tally,
        &mut breaker,
        &mut orphan_queue,
        &mut completed,
        &mut dispatched,
    );
    telemetry.flush();
    let name = sg.method.name().to_string();
    let wall = started.elapsed().as_secs_f64();
    state.history.with(|h| tally.into_result(name, h, wall))
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

/// The driver loop with the method called inline. Used by the
/// no-prefetch driver from the start, and by the prefetch driver to
/// finish a run whose suggestion thread died (`completed`/`dispatched`
/// carry across the switchover).
#[allow(clippy::too_many_arguments)]
fn inline_loop<E: Executor<ThreadedJob, Eval>>(
    sg: &mut Suggester<'_>,
    state: &mut RunState,
    pool: &mut E,
    config: &ThreadedRunConfig,
    started: Instant,
    tally: &mut Tally,
    breaker: &mut Option<Breaker>,
    orphan_queue: &mut VecDeque<ThreadedJob>,
    completed: &mut usize,
    dispatched: &mut usize,
) {
    let telemetry = &config.telemetry;
    // At 100% failure rate no job ever completes and every dispatch
    // quarantines; this cap turns that pathological case into a clean
    // early exit instead of an infinite loop.
    let quarantine_cap = 10 * config.max_evals;
    while *completed < config.max_evals && tally.n_quarantined < quarantine_cap {
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
        // once the cap is reachable).
        while pool.idle_workers() > 0 && *dispatched < config.max_evals {
            let k = pool.idle_workers().min(config.max_evals - *dispatched);
            let now = started.elapsed().as_secs_f64();
            let mut batch = sg.on_demand(k, now);
            if batch.is_empty() {
                assert!(
                    pool.in_flight() > 0 || !orphan_queue.is_empty(),
                    "method {} stalled with no running evaluations",
                    sg.method.name()
                );
                break;
            }
            state.register_batch(&mut batch);
            let short = batch.len() < k;
            for spec in batch {
                telemetry.emit_with(started.elapsed().as_secs_f64(), || Event::TrialDispatched {
                    level: spec.level,
                    bracket: spec.bracket,
                    attempt: 0,
                });
                telemetry.counter_add("trials.dispatched", 1);
                submit_or_park(pool, orphan_queue, ThreadedJob { spec, attempt: 0 });
                *dispatched += 1;
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
        let status = booked_status(&done);
        let job = done.job;
        let now = started.elapsed().as_secs_f64();
        if status.is_failure() {
            if handle_failure(
                status,
                job.spec.level,
                job.attempt,
                config,
                telemetry,
                started,
                tally,
            ) {
                let retry = ThreadedJob {
                    attempt: job.attempt + 1,
                    ..job
                };
                if status == JobStatus::Orphaned {
                    // The dead worker freed no slot; wait for one.
                    orphan_queue.push_back(retry);
                } else {
                    submit_or_park(pool, orphan_queue, retry);
                }
                continue;
            }
            emit_quarantine(&job.spec, status, telemetry, started);
            if let Some(degraded) = feed_breaker(breaker, true, telemetry, started, tally) {
                sg.method.set_degraded(degraded);
            }
            // Release the budget slot so a replacement config dispatches.
            *dispatched -= 1;
            let outcome = failed_outcome(job.spec, status, started);
            state.complete(&outcome.spec, None);
            sg.on_completed(outcome, 0, now);
            continue;
        }
        let spec = job.spec;
        let eval = done.output.expect("successful jobs carry an output");
        *completed += 1;
        if let Some(degraded) = feed_breaker(breaker, false, telemetry, started, tally) {
            sg.method.set_degraded(degraded);
        }
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
        state.complete(&spec, Some(m.clone()));
        sg.on_completed(outcome, 0, now);
        book_completion(m, &spec, &eval, telemetry, tally);
    }
}

/// The pipelined driver: the method lives on a dedicated suggestion
/// thread (see the module docs). The driver only moves jobs between the
/// pool and the channels, so dispatch latency is a channel round-trip
/// when the speculation hits.
fn drive_prefetch<E: Executor<ThreadedJob, Eval>>(
    method: &mut dyn Method,
    space: &ConfigSpace,
    config: &ThreadedRunConfig,
    levels: &ResourceLevels,
    mut pool: E,
) -> ThreadedRunResult {
    let telemetry = &config.telemetry;
    let started = Instant::now();
    let method_name = method.name().to_string();
    let mut tally = Tally::new(levels);
    let mut breaker = config.breaker.clone().map(Breaker::new);
    let mut orphan_queue: VecDeque<ThreadedJob> = VecDeque::new();
    let quarantine_cap = 10 * config.max_evals;

    let (cmd_tx, cmd_rx) = mpsc::channel::<ToSuggester>();
    let (batch_tx, batch_rx) = mpsc::channel::<Vec<JobSpec>>();
    let mut state = RunState::new(levels, telemetry.clone());

    std::thread::scope(|s| {
        let suggest_telemetry = telemetry.clone();
        let sg_history = Arc::clone(&state.history);
        let sg_pending = Arc::clone(&state.pending);
        let suggester = s.spawn(move || {
            let mut sg = Suggester::new(
                method,
                space,
                levels,
                sg_history,
                sg_pending,
                config,
                suggest_telemetry,
                true,
            );
            let mut poisoned = false;
            for msg in cmd_rx {
                // The panic guard is the degradation path of satellite
                // robustness: a method that panics on this thread must
                // not take the whole run down. State mutated before the
                // panic stays as-is (best effort); the driver finishes
                // the run inline with whatever survived.
                let handled = catch_unwind(AssertUnwindSafe(|| match msg {
                    ToSuggester::Completed {
                        outcome,
                        predicted_k,
                        now,
                    } => {
                        sg.on_completed(outcome, predicted_k, now);
                        None
                    }
                    ToSuggester::Demand { k, now } => Some(sg.on_demand(k, now)),
                    ToSuggester::SetDegraded(flag) => {
                        sg.speculation = None;
                        sg.method.set_degraded(flag);
                        None
                    }
                }));
                match handled {
                    Ok(None) => {}
                    Ok(Some(batch)) => {
                        if batch_tx.send(batch).is_err() {
                            break;
                        }
                    }
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
            (sg, poisoned)
        });

        let mut completed = 0usize;
        let mut dispatched = 0usize;
        // Set when the suggestion thread dies mid-run; the driver then
        // finishes the run inline instead of stalling. A `Completed`
        // message the channel handed back unprocessed is re-applied at
        // the switchover so the method misses at most the state the
        // panic itself destroyed.
        let mut suggester_lost = false;
        let mut undelivered: Option<ToSuggester> = None;
        'run: while completed < config.max_evals && tally.n_quarantined < quarantine_cap {
            while pool.idle_workers() > 0 {
                let Some(job) = orphan_queue.pop_front() else {
                    break;
                };
                if pool.submit(job.clone()).is_err() {
                    orphan_queue.push_front(job);
                    break;
                }
            }
            while pool.idle_workers() > 0 && dispatched < config.max_evals {
                let k = pool.idle_workers().min(config.max_evals - dispatched);
                let now = started.elapsed().as_secs_f64();
                if cmd_tx.send(ToSuggester::Demand { k, now }).is_err() {
                    suggester_lost = true;
                    break 'run;
                }
                let Ok(mut batch) = batch_rx.recv() else {
                    suggester_lost = true;
                    break 'run;
                };
                if batch.is_empty() {
                    assert!(
                        pool.in_flight() > 0 || !orphan_queue.is_empty(),
                        "method {method_name} stalled with no running evaluations"
                    );
                    break;
                }
                state.register_batch(&mut batch);
                let short = batch.len() < k;
                for spec in batch {
                    telemetry.emit_with(started.elapsed().as_secs_f64(), || {
                        Event::TrialDispatched {
                            level: spec.level,
                            bracket: spec.bracket,
                            attempt: 0,
                        }
                    });
                    telemetry.counter_add("trials.dispatched", 1);
                    submit_or_park(
                        &mut pool,
                        &mut orphan_queue,
                        ThreadedJob { spec, attempt: 0 },
                    );
                    dispatched += 1;
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
                    // in-flight job orphaned. Resume dispatching the
                    // queue instead of abandoning the run.
                    if !orphan_queue.is_empty() && pool.idle_workers() > 0 {
                        continue;
                    }
                    break;
                }
            };
            let status = booked_status(&done);
            let job = done.job;
            if status.is_failure() {
                if handle_failure(
                    status,
                    job.spec.level,
                    job.attempt,
                    config,
                    telemetry,
                    started,
                    &mut tally,
                ) {
                    let retry = ThreadedJob {
                        attempt: job.attempt + 1,
                        ..job
                    };
                    if status == JobStatus::Orphaned {
                        // The dead worker freed no slot; wait for one.
                        orphan_queue.push_back(retry);
                    } else {
                        submit_or_park(&mut pool, &mut orphan_queue, retry);
                    }
                    continue;
                }
                emit_quarantine(&job.spec, status, telemetry, started);
                if let Some(degraded) =
                    feed_breaker(&mut breaker, true, telemetry, started, &mut tally)
                {
                    if cmd_tx.send(ToSuggester::SetDegraded(degraded)).is_err() {
                        suggester_lost = true;
                        break 'run;
                    }
                }
                // Release the budget slot so a replacement config
                // dispatches.
                dispatched -= 1;
                let outcome = failed_outcome(job.spec, status, started);
                let now = outcome.finished_at;
                let predicted_k = pool.idle_workers().min(config.max_evals - dispatched);
                state.complete(&outcome.spec, None);
                if let Err(mpsc::SendError(msg)) = cmd_tx.send(ToSuggester::Completed {
                    outcome,
                    predicted_k,
                    now,
                }) {
                    undelivered = Some(msg);
                    suggester_lost = true;
                    break 'run;
                }
                continue;
            }
            let spec = job.spec;
            let eval = done.output.expect("successful jobs carry an output");
            completed += 1;
            if let Some(degraded) =
                feed_breaker(&mut breaker, false, telemetry, started, &mut tally)
            {
                if cmd_tx.send(ToSuggester::SetDegraded(degraded)).is_err() {
                    suggester_lost = true;
                    break 'run;
                }
            }
            let now = started.elapsed().as_secs_f64();
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
            // Predict the size of the next demand: the workers idle right
            // now (including the one this completion freed), capped by
            // the remaining budget. Nothing changes between here and the
            // next fill, so the prediction — and hence the speculation —
            // is normally exact.
            let predicted_k = pool.idle_workers().min(config.max_evals - dispatched);
            // Write to the shared stores, then send — the suggestion
            // thread's refresh at this message must see the new state.
            // Its on_result + speculation then overlap the driver's local
            // bookkeeping below.
            state.complete(&spec, Some(m.clone()));
            if let Err(mpsc::SendError(msg)) = cmd_tx.send(ToSuggester::Completed {
                outcome,
                predicted_k,
                now,
            }) {
                undelivered = Some(msg);
                suggester_lost = true;
                book_completion(m, &spec, &eval, telemetry, &mut tally);
                break 'run;
            }
            book_completion(m, &spec, &eval, telemetry, &mut tally);
        }

        drop(cmd_tx);
        let (mut sg, poisoned) = suggester
            .join()
            .expect("suggestion thread died outside its panic guard");
        if suggester_lost && completed < config.max_evals && tally.n_quarantined < quarantine_cap {
            // Graceful degradation (satellite robustness): the prefetch
            // pipeline is gone — finish the run with inline suggestion on
            // the driver thread instead of stalling or crashing.
            if poisoned {
                telemetry.counter_add("prefetch.suggester_panics", 1);
            }
            telemetry.counter_add("prefetch.fallback_inline", 1);
            sg.prefetching = false;
            sg.speculation = None;
            if let Some(msg) = undelivered.take() {
                match msg {
                    // The driver's shared-store writes for this completion
                    // already happened; only the method notification was
                    // lost. Re-apply it (the suggester refreshes its views
                    // inside on_completed).
                    ToSuggester::Completed { outcome, now, .. } => sg.on_completed(outcome, 0, now),
                    ToSuggester::SetDegraded(flag) => sg.method.set_degraded(flag),
                    ToSuggester::Demand { .. } => {}
                }
            }
            inline_loop(
                &mut sg,
                &mut state,
                &mut pool,
                config,
                started,
                &mut tally,
                &mut breaker,
                &mut orphan_queue,
                &mut completed,
                &mut dispatched,
            );
        }
    });

    telemetry.flush();
    let wall = started.elapsed().as_secs_f64();
    state
        .history
        .with(|h| tally.into_result(method_name, h, wall))
}

/// The status a fleet completion is booked under: the executor's own,
/// except that a "successful" NaN objective (any remote worker can send
/// one) is [`JobStatus::Corrupt`] and walks the retry/quarantine ladder —
/// neither the history nor a rung can order a NaN.
pub fn booked_status<J>(done: &PoolResult<J, Eval>) -> JobStatus {
    match &done.output {
        Some(eval) if !done.status.is_failure() && eval.value.is_nan() => JobStatus::Corrupt,
        _ => done.status,
    }
}

/// Books a failed attempt; returns `true` when the job should be
/// resubmitted (the caller owns the actual resubmission).
fn handle_failure(
    status: hypertune_cluster::JobStatus,
    level: usize,
    attempt: usize,
    config: &ThreadedRunConfig,
    telemetry: &TelemetryHandle,
    started: Instant,
    tally: &mut Tally,
) -> bool {
    // Corrupt results carry an output but it is untrusted and discarded;
    // every failure kind goes through the same retry-or-quarantine path.
    tally.n_failed_attempts += 1;
    tally.failure_counts.record(status);
    telemetry.counter_add("trials.failed_attempts", 1);
    if status == JobStatus::Orphaned {
        tally.n_orphaned += 1;
        telemetry.emit_with(started.elapsed().as_secs_f64(), || Event::LeaseExpired {
            level,
            attempt,
        });
        telemetry.counter_add("trials.orphaned", 1);
    }
    if attempt < config.retry.max_retries {
        tally.n_retries += 1;
        telemetry.emit_with(started.elapsed().as_secs_f64(), || Event::TrialRetried {
            level,
            attempt: attempt + 1,
            kind: failure_kind(status).expect("status is a failure"),
        });
        telemetry.counter_add("trials.retried", 1);
        return true;
    }
    tally.n_quarantined += 1;
    false
}

/// Feeds one terminal trial outcome (`failed` = quarantined) to the
/// breaker; returns the new degraded flag on a transition — the two
/// drivers deliver `set_degraded` to the method differently.
fn feed_breaker(
    breaker: &mut Option<Breaker>,
    failed: bool,
    telemetry: &TelemetryHandle,
    started: Instant,
    tally: &mut Tally,
) -> Option<bool> {
    let br = breaker.as_mut()?;
    match br.record(failed)? {
        BreakerTransition::Opened(failure_rate) => {
            tally.n_breaker_trips += 1;
            telemetry.emit_with(started.elapsed().as_secs_f64(), || Event::BreakerOpened {
                failure_rate,
            });
            telemetry.counter_add("breaker.opened", 1);
            Some(true)
        }
        BreakerTransition::Closed => {
            telemetry.emit_with(started.elapsed().as_secs_f64(), || Event::BreakerClosed);
            Some(false)
        }
    }
}

fn emit_quarantine(
    spec: &JobSpec,
    status: hypertune_cluster::JobStatus,
    telemetry: &TelemetryHandle,
    started: Instant,
) {
    telemetry.emit_with(started.elapsed().as_secs_f64(), || {
        Event::TrialQuarantined {
            level: spec.level,
            bracket: spec.bracket,
            kind: failure_kind(status).expect("status is a failure"),
        }
    });
    telemetry.counter_add("trials.quarantined", 1);
}

fn failed_outcome(
    spec: JobSpec,
    status: hypertune_cluster::JobStatus,
    started: Instant,
) -> Outcome {
    Outcome {
        spec,
        value: f64::INFINITY,
        test_value: f64::INFINITY,
        cost: 0.0,
        finished_at: started.elapsed().as_secs_f64(),
        status: OutcomeStatus::Failed,
        fail_status: Some(status),
    }
}

/// Books a successful completion into the tally (shared tail of both
/// drivers).
fn book_completion(
    m: Measurement,
    spec: &JobSpec,
    eval: &Eval,
    telemetry: &TelemetryHandle,
    tally: &mut Tally,
) {
    tally.evals_per_level[spec.level] += 1;
    telemetry.emit_with(m.finished_at, || Event::TrialCompleted {
        level: spec.level,
        bracket: spec.bracket,
        value: eval.value,
        cost: eval.cost,
    });
    telemetry.counter_add("trials.completed", 1);
    telemetry.histogram_record("trial.cost", eval.cost);
    tally.measurements.push(m);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hypertune_benchmarks::CountingOnes;
    use hypertune_telemetry::Telemetry;

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
        let mut cfg = ThreadedRunConfig::new(4, 50, 1);
        cfg.prefetch = false;
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
    fn prefetch_matches_inline_driver_at_one_worker() {
        // With a single worker the completion order is deterministic, so
        // the pipelined and inline drivers must produce the same
        // measurement stream bit-for-bit (modulo wall timestamps): the
        // speculation protocol moves suggestion work, never changes it.
        for kind in [MethodKind::HyperTune, MethodKind::Bohb, MethodKind::Asha] {
            let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
            let levels = ResourceLevels::new(bench.max_resource(), 3);

            let mut m1 = kind.build(&levels, 9);
            let mut cfg = ThreadedRunConfig::new(1, 30, 9);
            cfg.prefetch = false;
            let inline = run_threaded(m1.as_mut(), Arc::clone(&bench), &cfg);

            let mut m2 = kind.build(&levels, 9);
            cfg.prefetch = true;
            let prefetched = run_threaded(m2.as_mut(), bench, &cfg);

            assert_eq!(keys(&inline), keys(&prefetched), "{}", kind.name());
            assert_eq!(
                inline.best_value.to_bits(),
                prefetched.best_value.to_bits(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn prefetch_hits_are_recorded() {
        // After the cold start, every completion's speculation should be
        // consumed by the following demand: hits dominate, and the
        // discard path stays a safety valve.
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::HyperTune.build(&levels, 12);
        let mut cfg = ThreadedRunConfig::new(4, 40, 12);
        cfg.telemetry = Telemetry::new().build();
        let r = run_threaded(method.as_mut(), bench, &cfg);
        assert_eq!(r.total_evals, 40);
        let snap = cfg.telemetry.snapshot().unwrap();
        let hits = snap.counter("prefetch.hit").unwrap_or(0);
        let misses = snap.counter("prefetch.miss").unwrap_or(0);
        assert!(hits > 0, "prefetch never hit (misses: {misses})");
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

    /// A method that panics exactly once inside `next_jobs` (on the
    /// `panic_at`-th suggestion round), then behaves normally — the
    /// poisoned-suggester regression harness.
    struct PanicOnce {
        inner: Box<dyn Method>,
        calls: usize,
        panic_at: usize,
        fired: bool,
    }

    impl Method for PanicOnce {
        fn name(&self) -> &str {
            "PanicOnce"
        }

        fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
            self.inner.next_job(ctx)
        }

        fn next_jobs(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<JobSpec> {
            self.calls += 1;
            if !self.fired && self.calls == self.panic_at {
                self.fired = true;
                panic!("injected suggester panic");
            }
            self.inner.next_jobs(ctx, k)
        }

        fn on_result(&mut self, outcome: &Outcome, ctx: &mut MethodContext<'_>) {
            self.inner.on_result(outcome, ctx);
        }
    }

    #[test]
    fn poisoned_suggester_falls_back_inline_and_completes() {
        let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = PanicOnce {
            inner: MethodKind::Asha.build(&levels, 8),
            calls: 0,
            panic_at: 3,
            fired: false,
        };
        let mut cfg = ThreadedRunConfig::new(4, 40, 8);
        cfg.telemetry = Telemetry::new().build();
        let r = run_threaded(&mut method, bench, &cfg);
        assert_eq!(r.total_evals, 40, "run must complete despite the panic");
        let snap = cfg.telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("prefetch.fallback_inline"), Some(1));
        assert_eq!(snap.counter("prefetch.suggester_panics"), Some(1));
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
        for prefetch in [false, true] {
            let bench: Arc<dyn Benchmark> = Arc::new(CountingOnes::new(4, 4, 7));
            let levels = ResourceLevels::new(bench.max_resource(), 3);
            let mut m1 = MethodKind::Asha.build(&levels, 11);
            let mut cfg = ThreadedRunConfig::new(1, 30, 11);
            cfg.prefetch = prefetch;
            let plain = run_threaded(m1.as_mut(), Arc::clone(&bench), &cfg);

            let mut m2 = MethodKind::Asha.build(&levels, 11);
            let mut cfg2 = cfg.clone();
            cfg2.membership = Some(MembershipPlan::static_plan());
            cfg2.breaker = Some(BreakerConfig::default());
            let elastic = run_threaded(m2.as_mut(), bench, &cfg2);

            assert_eq!(keys(&plain), keys(&elastic), "prefetch={prefetch}");
            assert_eq!(elastic.n_orphaned, 0);
            assert_eq!(elastic.n_breaker_trips, 0);
        }
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
        for prefetch in [false, true] {
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
            let mut cfg = ThreadedRunConfig::new(2, 30, 7);
            cfg.prefetch = prefetch;
            let r = run_distributed(method.as_mut(), bench.space(), &levels, pool, &cfg);
            assert_eq!(r.total_evals, 30);
            assert_eq!((r.n_retries, r.n_quarantined), (1, 0));
            assert_eq!(r.failure_counts.corrupt, 1);
            assert!(r.measurements.iter().all(|m| !m.value.is_nan()));
        }
    }
}
