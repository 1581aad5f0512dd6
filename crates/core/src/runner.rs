//! The experiment runner: drives a [`Method`] against a
//! [`Benchmark`] on a simulated cluster until the virtual time budget is
//! exhausted, recording the anytime curve the paper's figures plot.
//!
//! The loop mirrors a real distributed tuner: while workers are idle, ask
//! the method for jobs (a synchronous method declines at its barrier);
//! then advance the virtual clock to the next completion, record the
//! measurement, and notify the method. Because all randomness flows from
//! the run seed and the simulator is deterministic, every run is exactly
//! reproducible.
//!
//! # Fault tolerance
//!
//! With [`RunConfig::faults`] set, the cluster injects worker crashes,
//! evaluation errors, hangs, and corrupt results (see
//! [`hypertune_cluster::FaultModel`]). The runner reacts with a bounded
//! [`RetryPolicy`]: a failed job is resubmitted on the freed worker with
//! an exponential backoff added to its duration (modelling requeue and
//! worker re-provisioning delay), and after `max_retries` failures the
//! config is *quarantined* — delivered to the method as a `Failed`
//! [`Outcome`] with `value = ∞` so schedulers release the slot it
//! occupied, and never recorded into the [`History`].
//!
//! # Checkpoint and resume
//!
//! [`run_checkpointed`] snapshots the run's write-ahead submission log
//! every N completions ([`CheckpointPolicy`]); [`resume`] replays the run
//! from virtual time zero against that log — reusing recorded evaluation
//! results instead of calling the benchmark, and verifying the replayed
//! measurement stream matches the snapshot bit-for-bit — then continues
//! live. Because the whole run is a deterministic function of the seed,
//! the resumed run's final [`History`] equals the uninterrupted run's
//! exactly.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;

use hypertune_benchmarks::Benchmark;
use hypertune_cluster::{
    FaultModel, FaultSpec, JobStatus, MembershipPlan, SimCluster, StragglerModel, Trace,
};
use hypertune_space::Config;
use hypertune_telemetry::{Event, TelemetryHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::breaker::{Breaker, BreakerConfig, BreakerTransition};
use crate::diagnostics::{failure_kind, FailureCounts};
use crate::history::{History, Measurement};
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method, MethodContext, Outcome, OutcomeStatus};
use crate::pending::PendingSet;
use crate::persist::{RunSnapshot, SubmissionRecord};

/// Bounded-retry policy for failed jobs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// How many times a failed job is re-run before quarantine. 0 means
    /// every failure quarantines immediately.
    pub max_retries: usize,
    /// Backoff added to the first retry's duration, in virtual seconds
    /// (the requeue/re-provisioning delay of a real scheduler).
    pub backoff_base: f64,
    /// Multiplier applied to the backoff on each subsequent retry.
    pub backoff_mult: f64,
}

impl RetryPolicy {
    /// Two retries with 1 s base backoff doubling per attempt.
    pub fn default_policy() -> Self {
        Self {
            max_retries: 2,
            backoff_base: 1.0,
            backoff_mult: 2.0,
        }
    }

    /// No retries: every failure quarantines immediately.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            backoff_base: 0.0,
            backoff_mult: 1.0,
        }
    }

    fn backoff(&self, attempt: usize) -> f64 {
        self.backoff_base * self.backoff_mult.powi(attempt as i32)
    }
}

/// Speculative re-execution of stragglers (the tail-latency defence of
/// MapReduce-style schedulers, applied to trial evaluations).
///
/// A running job whose elapsed time exceeds `multiple ×` the median
/// completed duration at its resource level is a *straggler*; the runner
/// launches a backup copy of it on an idle worker. Whichever copy
/// **succeeds** first wins and the loser is cancelled; a copy that fails
/// while its twin is still running is simply discarded (the twin is the
/// retry). Backups reuse the original dispatch's id, so the trial still
/// completes exactly once in the [`History`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationConfig {
    /// Straggler threshold: elapsed > `multiple` × median completed
    /// duration at the same level. Must be finite and > 1.
    pub multiple: f64,
    /// Completions a level needs before its median is trusted.
    pub min_completions: usize,
    /// Cap on simultaneously outstanding backup copies.
    pub max_concurrent: usize,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            multiple: 3.0,
            min_completions: 5,
            max_concurrent: 2,
        }
    }
}

impl SpeculationConfig {
    /// A config with the given straggler multiple and default gates.
    pub fn new(multiple: f64) -> Self {
        Self {
            multiple,
            ..Self::default()
        }
    }

    /// Panics on out-of-range knobs.
    pub fn validate(&self) {
        assert!(
            self.multiple.is_finite() && self.multiple > 1.0,
            "speculation multiple must be finite and > 1"
        );
        assert!(self.min_completions > 0, "min_completions must be > 0");
        assert!(self.max_concurrent > 0, "max_concurrent must be > 0");
    }
}

/// Runner parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of parallel workers.
    pub n_workers: usize,
    /// Virtual wall-clock budget in seconds.
    pub budget: f64,
    /// Master seed: drives the method's RNG and the benchmark noise.
    pub seed: u64,
    /// Discard proportion η of the level ladder (paper default 3).
    pub eta: usize,
    /// Optional `(probability, max_slowdown)` straggler model.
    pub straggler: Option<(f64, f64)>,
    /// Probability that a worker crashes mid-evaluation. Failed attempts
    /// waste a random fraction of the job's cost and are retried
    /// transparently (the fault-tolerance policy of production tuners);
    /// methods never observe the failure, only the longer completion.
    /// This older model predates [`RunConfig::faults`] and is kept for
    /// duration-only failure studies.
    pub failure_prob: f64,
    /// Fault injection rates, or `None` for a fault-free cluster. When
    /// set, failed jobs surface through the [`RetryPolicy`] instead of
    /// being silently absorbed into durations.
    pub faults: Option<FaultSpec>,
    /// Retry policy for jobs failed by the fault model.
    pub retry: RetryPolicy,
    /// Per-job timeout in virtual seconds (`None` = no timeout): jobs
    /// running longer are killed and treated as failures — the defence
    /// against hangs.
    pub job_timeout: Option<f64>,
    /// Safety cap on the number of evaluations (0 = unlimited).
    pub max_evals: usize,
    /// Elastic membership plan: scheduled joins/leaves plus stochastic
    /// worker crashes that orphan in-flight jobs until their lease
    /// expires. `None` (or a static plan) keeps the pool fixed and the
    /// run bit-identical to a non-elastic one.
    pub membership: Option<MembershipPlan>,
    /// Speculative re-execution of stragglers; `None` disables it.
    pub speculation: Option<SpeculationConfig>,
    /// Quarantine-storm circuit breaker: when the recent failure rate
    /// crosses the open threshold the method is degraded (random
    /// sampling, promotions paused) until the rate recovers. `None`
    /// disables the ladder.
    pub breaker: Option<BreakerConfig>,
    /// Telemetry pipeline. The default disabled handle costs nothing and
    /// leaves the run bit-identical to an uninstrumented one; an enabled
    /// handle is cloned into the cluster and the method and receives
    /// dispatch/completion/retry/quarantine/checkpoint events stamped
    /// with virtual time.
    pub telemetry: TelemetryHandle,
}

impl RunConfig {
    /// A config with the paper's defaults: η = 3, no stragglers, no
    /// faults.
    pub fn new(n_workers: usize, budget: f64, seed: u64) -> Self {
        Self {
            n_workers,
            budget,
            seed,
            eta: 3,
            straggler: None,
            failure_prob: 0.0,
            faults: None,
            retry: RetryPolicy::default_policy(),
            job_timeout: None,
            max_evals: 0,
            membership: None,
            speculation: None,
            breaker: None,
            telemetry: TelemetryHandle::disabled(),
        }
    }
}

/// When and where [`run_checkpointed`] (and [`resume`]) write snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Snapshot file (overwritten on each checkpoint).
    pub path: PathBuf,
    /// Snapshot after every this many completed evaluations.
    pub every_completions: usize,
}

impl CheckpointPolicy {
    /// A policy snapshotting to `path` every `every_completions`
    /// completions.
    ///
    /// # Panics
    ///
    /// Panics if `every_completions == 0`.
    pub fn new(path: impl Into<PathBuf>, every_completions: usize) -> Self {
        assert!(every_completions > 0, "checkpoint interval must be > 0");
        Self {
            path: path.into(),
            every_completions,
        }
    }
}

/// Why a checkpointed or resumed run could not complete.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot was taken under a different seed; the replay could
    /// never reproduce it.
    SeedMismatch {
        /// Seed stored in the snapshot.
        snapshot: u64,
        /// Seed in the caller's [`RunConfig`].
        config: u64,
    },
    /// The replay produced a different dispatch or measurement than the
    /// snapshot recorded — the method, benchmark, config, or snapshot
    /// changed since the checkpoint was written.
    Diverged {
        /// Which stream diverged: `"submission"` or `"measurement"`.
        stream: &'static str,
        /// Index of the first mismatching entry.
        index: usize,
    },
    /// Reading or writing a snapshot failed.
    Io(std::io::Error),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::SeedMismatch { snapshot, config } => write!(
                f,
                "snapshot seed {snapshot} does not match run seed {config}"
            ),
            ResumeError::Diverged { stream, index } => write!(
                f,
                "replay diverged from snapshot at {stream} {index}: \
                 method, benchmark, or config changed since the checkpoint"
            ),
            ResumeError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<std::io::Error> for ResumeError {
    fn from(e: std::io::Error) -> Self {
        ResumeError::Io(e)
    }
}

/// One point of the anytime curve: the incumbent after a completion.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CurvePoint {
    /// Virtual time of the completion.
    pub time: f64,
    /// Best validation value so far (complete evaluations preferred).
    pub value: f64,
    /// Test value of that incumbent.
    pub test_value: f64,
}

/// The outcome of one tuning run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method display name.
    pub method: String,
    /// Anytime incumbent curve (one point per completed evaluation).
    pub curve: Vec<CurvePoint>,
    /// Best validation value found.
    pub best_value: f64,
    /// Test value of the best configuration.
    pub best_test: f64,
    /// The best configuration itself.
    pub best_config: Option<Config>,
    /// Training resources of the incumbent's evaluation (full fidelity
    /// unless no complete evaluation finished within the budget).
    pub best_resource: Option<f64>,
    /// Completed evaluations per resource level.
    pub evals_per_level: Vec<usize>,
    /// Total completed evaluations.
    pub total_evals: usize,
    /// Fraction of worker-time spent busy within the budget.
    pub utilization: f64,
    /// Worker-occupancy trace (for Gantt renderings).
    pub trace: Trace,
    /// Every completed measurement, in completion order (for post-hoc
    /// analyses such as counting inaccurate promotions).
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
    /// Jobs orphaned by worker crashes whose lease expired (each such
    /// attempt also counts in `n_failed_attempts`).
    pub n_orphaned: usize,
    /// Backup copies launched by speculative re-execution.
    pub n_speculations: usize,
    /// Speculations where the backup copy finished before the original.
    pub n_backup_wins: usize,
    /// Times the circuit breaker opened (degradation-ladder trips).
    pub n_breaker_trips: usize,
}

impl RunResult {
    /// The earliest time at which the anytime value reaches `target`, or
    /// `None` if it never does — the paper's speedup metric divides two
    /// of these.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.curve
            .iter()
            .find(|p| p.value <= target)
            .map(|p| p.time)
    }
}

/// The simulator payload: a job plus its (pre-computed) evaluation result
/// and retry bookkeeping.
#[derive(Debug, Clone, PartialEq)]
struct InFlight {
    spec: JobSpec,
    value: f64,
    test_value: f64,
    /// Duration of a clean attempt (after the legacy failure-prob
    /// inflation), reused when the job is resubmitted.
    duration: f64,
    /// 0 for the first attempt, incremented per retry.
    attempt: usize,
}

/// Runs `method` on `benchmark` under `config`; see the module docs.
pub fn run(method: &mut dyn Method, benchmark: &dyn Benchmark, config: &RunConfig) -> RunResult {
    run_impl(method, benchmark, config, None, None)
        .expect("without checkpointing or replay the runner is infallible")
}

/// Like [`run`], writing a [`RunSnapshot`] every
/// `policy.every_completions` completions so the run can be [`resume`]d
/// after an interruption.
pub fn run_checkpointed(
    method: &mut dyn Method,
    benchmark: &dyn Benchmark,
    config: &RunConfig,
    policy: &CheckpointPolicy,
) -> Result<RunResult, ResumeError> {
    run_impl(method, benchmark, config, Some(policy), None)
}

/// Resumes a run from `snapshot`: replays the recorded prefix (reusing
/// logged evaluation results, verifying each replayed dispatch and
/// measurement against the log) and continues live to the end of the
/// budget. The caller must supply the *same* method state (freshly
/// built), benchmark, and config as the original run; any drift is
/// reported as [`ResumeError::Diverged`]. On success the result — and in
/// particular its measurement stream — is bit-identical to an
/// uninterrupted run.
pub fn resume(
    method: &mut dyn Method,
    benchmark: &dyn Benchmark,
    config: &RunConfig,
    snapshot: &RunSnapshot,
    policy: Option<&CheckpointPolicy>,
) -> Result<RunResult, ResumeError> {
    run_impl(method, benchmark, config, policy, Some(snapshot))
}

/// Feeds one terminal trial outcome (`failed` = quarantined) to the
/// breaker and walks the degradation ladder on a transition. Shared by
/// the simulated and the real-executor driver; `now` is on the caller's
/// clock.
pub(crate) fn feed_breaker(
    breaker: &mut Option<Breaker>,
    failed: bool,
    now: f64,
    method: &mut dyn Method,
    telemetry: &TelemetryHandle,
    n_breaker_trips: &mut usize,
) {
    let Some(br) = breaker.as_mut() else { return };
    match br.record(failed) {
        Some(BreakerTransition::Opened(failure_rate)) => {
            *n_breaker_trips += 1;
            method.set_degraded(true);
            telemetry.emit_with(now, || Event::BreakerOpened { failure_rate });
            telemetry.counter_add("breaker.opened", 1);
        }
        Some(BreakerTransition::Closed) => {
            method.set_degraded(false);
            telemetry.emit_with(now, || Event::BreakerClosed);
        }
        None => {}
    }
}

fn run_impl(
    method: &mut dyn Method,
    benchmark: &dyn Benchmark,
    config: &RunConfig,
    checkpoint: Option<&CheckpointPolicy>,
    replay: Option<&RunSnapshot>,
) -> Result<RunResult, ResumeError> {
    assert!(config.n_workers > 0 && config.budget > 0.0);
    if let Some(sc) = &config.speculation {
        sc.validate();
    }
    if let Some(s) = replay {
        if s.seed != config.seed {
            return Err(ResumeError::SeedMismatch {
                snapshot: s.seed,
                config: config.seed,
            });
        }
    }
    let levels = ResourceLevels::new(benchmark.max_resource(), config.eta);
    let mut history = History::new(levels.clone());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let straggler = match config.straggler {
        Some((p, s)) => StragglerModel::new(p, s, config.seed ^ 0x57a6),
        None => StragglerModel::none(),
    };
    let faults = match config.faults {
        Some(spec) => FaultModel::new(spec, config.seed ^ 0xfa17),
        None => FaultModel::none(),
    };
    let mut cluster: SimCluster<InFlight> =
        SimCluster::with_stragglers(config.n_workers, straggler).with_faults(faults);
    if let Some(plan) = &config.membership {
        cluster = cluster.with_membership(plan.clone());
    }
    cluster.set_job_timeout(config.job_timeout);
    let telemetry = &config.telemetry;
    cluster.set_telemetry(telemetry.clone());
    method.set_telemetry(telemetry.clone());
    let mut pending = PendingSet::new();
    let mut next_job_id: u64 = 1;
    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut evals_per_level = vec![0usize; levels.k()];
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut submission_log: Vec<SubmissionRecord> = Vec::new();
    let mut n_failed_attempts = 0usize;
    let mut n_retries = 0usize;
    let mut n_quarantined = 0usize;
    let mut failure_counts = FailureCounts::default();
    // Elastic/self-healing state. All of it is driver-side bookkeeping
    // that consumes no run RNG, so when churn never strikes, no straggler
    // crosses the speculation threshold, and the breaker never opens, the
    // run is bit-identical to one with the features disabled.
    let mut n_orphaned = 0usize;
    let mut n_speculations = 0usize;
    let mut n_backup_wins = 0usize;
    let mut n_breaker_trips = 0usize;
    let mut breaker = config.breaker.clone().map(Breaker::new);
    // Jobs orphaned by a worker crash wait here for the next idle slot: a
    // crash frees no worker, so the freed-worker resubmit of the plain
    // retry path cannot apply.
    let mut orphan_queue: VecDeque<(InFlight, f64, String)> = VecDeque::new();
    // Dispatch token -> (virtual start time, payload). BTreeMap so the
    // straggler scan iterates in token (dispatch) order deterministically.
    // Maintained only when speculation is enabled.
    let mut running: BTreeMap<u64, (f64, InFlight)> = BTreeMap::new();
    // Completed durations per level, kept sorted for O(1) medians.
    let mut level_durations: Vec<Vec<f64>> = vec![Vec::new(); levels.k()];
    // Original dispatch id -> (primary token, backup token).
    let mut twins: HashMap<u64, (u64, u64)> = HashMap::new();
    // Dispatch ids that already received a backup (at most one each).
    let mut speculated: HashSet<u64> = HashSet::new();
    let space = benchmark.space();

    loop {
        // Re-dispatch orphaned jobs first: recovery takes priority over
        // fresh work.
        while cluster.idle_workers() > 0 {
            let Some((job, duration, label)) = orphan_queue.pop_front() else {
                break;
            };
            let receipt = cluster
                .submit_full(job.clone(), duration, label)
                .expect("idle worker was available");
            if config.speculation.is_some() {
                running.insert(receipt.token, (cluster.now(), job));
            }
        }
        // Speculative re-execution: back up stragglers onto idle workers
        // before the method sees the slots (an async method would
        // otherwise keep every worker busy and backups could never
        // launch).
        if let Some(sc) = &config.speculation {
            while cluster.idle_workers() > 0 && twins.len() < sc.max_concurrent {
                let now = cluster.now();
                let candidate = running.iter().find_map(|(&token, info)| {
                    let (started, job) = info;
                    if speculated.contains(&job.spec.id) {
                        return None;
                    }
                    let durations = &level_durations[job.spec.level];
                    if durations.len() < sc.min_completions {
                        return None;
                    }
                    let median = durations[durations.len() / 2];
                    (now - started > sc.multiple * median).then_some(token)
                });
                let Some(primary) = candidate else { break };
                let job = running
                    .get(&primary)
                    .expect("candidate token is running")
                    .1
                    .clone();
                let level = job.spec.level;
                speculated.insert(job.spec.id);
                n_speculations += 1;
                telemetry.emit_with(now, || Event::SpeculationLaunched { level });
                telemetry.counter_add("trials.speculated", 1);
                let receipt = cluster
                    .submit_full(job.clone(), job.duration, format!("{level}s"))
                    .expect("idle worker was available");
                twins.insert(job.spec.id, (primary, receipt.token));
                running.insert(receipt.token, (now, job));
            }
        }
        // Fill idle workers.
        while cluster.idle_workers() > 0 {
            let mut ctx = MethodContext {
                space,
                levels: &levels,
                history: &history,
                pending: pending.as_slice(),
                rng: &mut rng,
                n_workers: config.n_workers,
                now: cluster.now(),
            };
            // The sim runner dispatches through the batch API with k = 1:
            // bit-identical to the sequential `next_job` path (the paper
            // figures depend on that), while sharing the runner-facing
            // contract with the threaded runner's real batching.
            let next = {
                let step = telemetry.span("scheduler_step");
                let next = method.next_jobs(&mut ctx, 1).pop();
                drop(step);
                next
            };
            match next {
                Some(mut spec) => {
                    spec.id = next_job_id;
                    next_job_id += 1;
                    // Replay: the recorded result substitutes for the
                    // evaluation, after checking the method issued the
                    // same dispatch it did originally.
                    let idx = submission_log.len();
                    let (value, test_value, cost) = match replay {
                        Some(s) if idx < s.submissions.len() => {
                            let rec = &s.submissions[idx];
                            if rec.spec != spec {
                                return Err(ResumeError::Diverged {
                                    stream: "submission",
                                    index: idx,
                                });
                            }
                            (rec.value, rec.test_value, rec.cost)
                        }
                        _ => {
                            let eval = benchmark.evaluate(&spec.config, spec.resource, config.seed);
                            (eval.value, eval.test_value, eval.cost)
                        }
                    };
                    submission_log.push(SubmissionRecord {
                        spec: spec.clone(),
                        value,
                        test_value,
                        cost,
                    });
                    // Worker-failure model: each crash wastes a random
                    // fraction of the evaluation before the transparent
                    // retry; the job's effective duration grows but its
                    // result is unchanged.
                    let mut duration = cost;
                    if config.failure_prob > 0.0 {
                        use rand::Rng;
                        while rng.gen::<f64>() < config.failure_prob {
                            duration += rng.gen::<f64>() * cost;
                        }
                    }
                    telemetry.emit_with(cluster.now(), || Event::TrialDispatched {
                        level: spec.level,
                        bracket: spec.bracket,
                        attempt: 0,
                    });
                    telemetry.counter_add("trials.dispatched", 1);
                    let label = format!("{}", spec.level);
                    let flight = InFlight {
                        spec: spec.clone(),
                        value,
                        test_value,
                        duration,
                        attempt: 0,
                    };
                    let receipt = cluster
                        .submit_full(flight.clone(), duration, label)
                        .expect("idle worker was available");
                    if config.speculation.is_some() {
                        running.insert(receipt.token, (cluster.now(), flight));
                    }
                    pending.insert(spec);
                }
                None => {
                    assert!(
                        !cluster.is_quiescent(),
                        "method {} stalled: no job and no running evaluations",
                        method.name()
                    );
                    break;
                }
            }
        }

        let Ok(done) = cluster.next_completion() else {
            break;
        };
        if done.finished > config.budget {
            break;
        }
        let job = done.job;
        if config.speculation.is_some() {
            running.remove(&done.token);
        }
        // Twin resolution: the first copy to *succeed* wins and cancels
        // its sibling; a copy that fails while its twin is still running
        // is dropped silently — the twin is its retry, so the trial still
        // terminates exactly once.
        if let Some(&(primary, backup)) = twins.get(&job.spec.id) {
            if done.status == JobStatus::Succeeded {
                let loser = if done.token == backup {
                    primary
                } else {
                    backup
                };
                cluster.cancel(loser);
                running.remove(&loser);
                twins.remove(&job.spec.id);
                let backup_won = done.token == backup;
                if backup_won {
                    n_backup_wins += 1;
                }
                telemetry.emit_with(done.finished, || Event::SpeculationResolved {
                    level: job.spec.level,
                    backup_won,
                });
                // Falls through to the normal success path below.
            } else {
                twins.remove(&job.spec.id);
                n_failed_attempts += 1;
                failure_counts.record(done.status);
                telemetry.counter_add("trials.failed_attempts", 1);
                if done.status == JobStatus::Orphaned {
                    n_orphaned += 1;
                    telemetry.emit_with(done.finished, || Event::LeaseExpired {
                        level: job.spec.level,
                        attempt: job.attempt,
                    });
                    telemetry.counter_add("trials.orphaned", 1);
                }
                continue;
            }
        }
        if done.status.is_failure() {
            n_failed_attempts += 1;
            failure_counts.record(done.status);
            telemetry.counter_add("trials.failed_attempts", 1);
            let orphaned = done.status == JobStatus::Orphaned;
            if orphaned {
                n_orphaned += 1;
                telemetry.emit_with(done.finished, || Event::LeaseExpired {
                    level: job.spec.level,
                    attempt: job.attempt,
                });
                telemetry.counter_add("trials.orphaned", 1);
            }
            if job.attempt < config.retry.max_retries {
                // Bounded retry: the worker that just freed re-runs the
                // job. The backoff rides on the duration — the simulator's
                // clock only moves via completions, so requeue delay is
                // modelled as occupied worker time.
                n_retries += 1;
                telemetry.emit_with(done.finished, || Event::TrialRetried {
                    level: job.spec.level,
                    attempt: job.attempt + 1,
                    kind: failure_kind(done.status).expect("status is a failure"),
                });
                telemetry.counter_add("trials.retried", 1);
                let backoff = config.retry.backoff(job.attempt);
                let duration = job.duration + backoff;
                let label = format!("{}r{}", job.spec.level, job.attempt + 1);
                let resubmit = InFlight {
                    attempt: job.attempt + 1,
                    ..job
                };
                if orphaned {
                    // The dead worker freed no slot; queue the requeue
                    // until one opens up.
                    orphan_queue.push_back((resubmit, duration, label));
                } else {
                    let receipt = cluster
                        .submit_full(resubmit.clone(), duration, label)
                        .expect("the failed job's worker is free");
                    if config.speculation.is_some() {
                        running.insert(receipt.token, (cluster.now(), resubmit));
                    }
                }
                continue;
            }
            // Retries exhausted: quarantine. The method sees a Failed
            // outcome (value = ∞) so it releases whatever slot the job
            // held; the history never records it.
            n_quarantined += 1;
            telemetry.emit_with(done.finished, || Event::TrialQuarantined {
                level: job.spec.level,
                bracket: job.spec.bracket,
                kind: failure_kind(done.status).expect("status is a failure"),
            });
            telemetry.counter_add("trials.quarantined", 1);
            feed_breaker(
                &mut breaker,
                true,
                done.finished,
                method,
                telemetry,
                &mut n_breaker_trips,
            );
            pending.remove(&job.spec);
            let outcome = Outcome {
                spec: job.spec,
                value: f64::INFINITY,
                test_value: f64::INFINITY,
                cost: done.finished - done.started,
                finished_at: done.finished,
                status: OutcomeStatus::Failed,
                fail_status: Some(done.status),
            };
            let mut ctx = MethodContext {
                space,
                levels: &levels,
                history: &history,
                pending: pending.as_slice(),
                rng: &mut rng,
                n_workers: config.n_workers,
                now: cluster.now(),
            };
            method.on_result(&outcome, &mut ctx);
            continue;
        }
        let InFlight {
            spec,
            value,
            test_value,
            ..
        } = job;
        pending.remove(&spec);
        evals_per_level[spec.level] += 1;
        if config.speculation.is_some() {
            let durations = &mut level_durations[spec.level];
            let d = done.finished - done.started;
            let pos = durations.partition_point(|&x| x <= d);
            durations.insert(pos, d);
        }
        feed_breaker(
            &mut breaker,
            false,
            done.finished,
            method,
            telemetry,
            &mut n_breaker_trips,
        );
        telemetry.emit_with(done.finished, || Event::TrialCompleted {
            level: spec.level,
            bracket: spec.bracket,
            value,
            cost: done.finished - done.started,
        });
        telemetry.counter_add("trials.completed", 1);
        telemetry.histogram_record("trial.cost", done.finished - done.started);

        let measurement = Measurement {
            config: spec.config.clone(),
            level: spec.level,
            resource: spec.resource,
            value,
            test_value,
            cost: done.finished - done.started,
            finished_at: done.finished,
        };
        measurements.push(measurement.clone());
        history.record(measurement);
        // Replay verification: the replayed measurement stream must match
        // the snapshot bit-for-bit, or the resumed run would silently be
        // a different run.
        if let Some(s) = replay {
            let i = measurements.len() - 1;
            if i < s.measurements.len() && s.measurements[i] != measurements[i] {
                return Err(ResumeError::Diverged {
                    stream: "measurement",
                    index: i,
                });
            }
        }
        // The anytime curve tracks the complete-evaluation incumbent (the
        // paper's "lowest validation performance"), which is monotone;
        // partial evaluations only influence it indirectly via promotion.
        if let Some(inc) = history.incumbent_full() {
            let point = CurvePoint {
                time: done.finished,
                value: inc.value,
                test_value: inc.test_value,
            };
            if curve.last().map(|p| p.value != point.value).unwrap_or(true) {
                curve.push(point);
            }
        }

        let outcome = Outcome {
            spec,
            value,
            test_value,
            cost: done.finished - done.started,
            finished_at: done.finished,
            status: OutcomeStatus::Success,
            fail_status: None,
        };
        let mut ctx = MethodContext {
            space,
            levels: &levels,
            history: &history,
            pending: pending.as_slice(),
            rng: &mut rng,
            n_workers: config.n_workers,
            now: cluster.now(),
        };
        method.on_result(&outcome, &mut ctx);

        if let Some(cp) = checkpoint {
            if measurements.len().is_multiple_of(cp.every_completions) {
                RunSnapshot {
                    seed: config.seed,
                    submissions: submission_log.clone(),
                    measurements: measurements.clone(),
                }
                .save(&cp.path)?;
                telemetry.emit_with(done.finished, || Event::CheckpointWritten {
                    completions: measurements.len(),
                    path: cp.path.display().to_string(),
                });
            }
        }

        let total: usize = evals_per_level.iter().sum();
        if config.max_evals > 0 && total >= config.max_evals {
            break;
        }
    }

    telemetry.flush();
    let horizon = cluster.now().min(config.budget).max(f64::MIN_POSITIVE);
    let (best_value, best_test, best_config, best_resource) = match history.incumbent() {
        Some(m) => (
            m.value,
            m.test_value,
            Some(m.config.clone()),
            Some(m.resource),
        ),
        None => (f64::INFINITY, f64::INFINITY, None, None),
    };
    Ok(RunResult {
        method: method.name().to_string(),
        curve,
        best_value,
        best_test,
        best_config,
        best_resource,
        total_evals: evals_per_level.iter().sum(),
        evals_per_level,
        utilization: cluster.trace().utilization(horizon),
        trace: cluster.trace().clone(),
        measurements,
        n_failed_attempts,
        n_retries,
        n_quarantined,
        failure_counts,
        n_orphaned,
        n_speculations,
        n_backup_wins,
        n_breaker_trips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hypertune_benchmarks::CountingOnes;

    fn quick_run(kind: MethodKind, n_workers: usize, budget: f64, seed: u64) -> RunResult {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = kind.build(&levels, seed);
        run(
            method.as_mut(),
            &bench,
            &RunConfig::new(n_workers, budget, seed),
        )
    }

    #[test]
    fn every_method_completes_a_run() {
        for &kind in MethodKind::baselines() {
            let r = quick_run(kind, 4, 2000.0, 1);
            assert!(r.total_evals > 0, "{} did no work", kind.name());
            assert!(r.best_value.is_finite(), "{}", kind.name());
        }
        let r = quick_run(MethodKind::HyperTune, 4, 2000.0, 1);
        assert!(r.total_evals > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = quick_run(MethodKind::HyperTune, 4, 1500.0, 5);
        let b = quick_run(MethodKind::HyperTune, 4, 1500.0, 5);
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.total_evals, b.total_evals);
        assert_eq!(a.curve.len(), b.curve.len());
        let c = quick_run(MethodKind::HyperTune, 4, 1500.0, 6);
        // Different seed should (almost surely) differ somewhere.
        assert!(a.best_value != c.best_value || a.total_evals != c.total_evals);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let r = quick_run(MethodKind::Asha, 8, 3000.0, 2);
        for w in r.curve.windows(2) {
            assert!(w[1].value <= w[0].value, "curve must improve");
            assert!(w[1].time >= w[0].time);
        }
    }

    #[test]
    fn async_methods_use_workers_better_than_sync() {
        let sync = quick_run(MethodKind::Hyperband, 8, 3000.0, 3);
        let asynch = quick_run(MethodKind::AHyperband, 8, 3000.0, 3);
        assert!(
            asynch.utilization > sync.utilization,
            "async {:.2} vs sync {:.2}",
            asynch.utilization,
            sync.utilization
        );
        // Async utilization should be near-perfect.
        assert!(asynch.utilization > 0.9, "{}", asynch.utilization);
    }

    #[test]
    fn partial_evaluation_methods_touch_low_levels() {
        let r = quick_run(MethodKind::Asha, 4, 2000.0, 4);
        assert!(r.evals_per_level[0] > 0, "{:?}", r.evals_per_level);
        // Full-fidelity-only baselines never do.
        let r = quick_run(MethodKind::ARandom, 4, 2000.0, 4);
        assert_eq!(r.evals_per_level[0], 0);
        assert_eq!(r.evals_per_level[3], r.total_evals);
    }

    #[test]
    fn budget_respected() {
        let r = quick_run(MethodKind::Asha, 4, 500.0, 5);
        for p in &r.curve {
            assert!(p.time <= 500.0);
        }
    }

    #[test]
    fn max_evals_caps_run() {
        let bench = CountingOnes::new(2, 2, 0);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut method = MethodKind::ARandom.build(&levels, 0);
        let mut cfg = RunConfig::new(2, 1e9, 0);
        cfg.max_evals = 10;
        let r = run(method.as_mut(), &bench, &cfg);
        assert_eq!(r.total_evals, 10);
    }

    #[test]
    fn time_to_reach_finds_crossing() {
        let r = quick_run(MethodKind::ARandom, 4, 2000.0, 6);
        let best = r.best_value;
        let t = r.time_to_reach(best).unwrap();
        assert!(t <= 2000.0);
        assert!(r.time_to_reach(-2.0).is_none(), "below optimum unreachable");
    }

    #[test]
    fn worker_failures_slow_but_do_not_break_runs() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let run_with = |p: f64| {
            let mut m = MethodKind::Asha.build(&levels, 3);
            let mut cfg = RunConfig::new(4, 2000.0, 3);
            cfg.failure_prob = p;
            run(m.as_mut(), &bench, &cfg)
        };
        let clean = run_with(0.0);
        let flaky = run_with(0.3);
        assert!(flaky.total_evals > 0);
        // Retries consume budget: fewer completions under failures.
        assert!(
            flaky.total_evals < clean.total_evals,
            "flaky {} vs clean {}",
            flaky.total_evals,
            clean.total_evals
        );
        // All recorded measurements are still valid results.
        for m in &flaky.measurements {
            assert!(m.value.is_finite());
        }
    }

    #[test]
    fn stragglers_hurt_sync_more_than_async() {
        let mut cfg = RunConfig::new(8, 3000.0, 7);
        cfg.straggler = Some((0.15, 4.0));
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut hb = MethodKind::Hyperband.build(&levels, 7);
        let mut ahb = MethodKind::AHyperband.build(&levels, 7);
        let sync = run(hb.as_mut(), &bench, &cfg);
        let asynch = run(ahb.as_mut(), &bench, &cfg);
        assert!(asynch.utilization > sync.utilization);
    }

    #[test]
    fn crash_faults_are_retried_and_runs_complete() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let run_with = |spec: Option<FaultSpec>| {
            let mut m = MethodKind::Asha.build(&levels, 3);
            let mut cfg = RunConfig::new(4, 2000.0, 3);
            cfg.faults = spec;
            run(m.as_mut(), &bench, &cfg)
        };
        let clean = run_with(None);
        let faulty = run_with(Some(FaultSpec::crashes(0.10)));
        assert!(faulty.total_evals > 0, "10% crash rate must not kill runs");
        assert!(faulty.n_failed_attempts > 0, "faults should have fired");
        assert!(faulty.n_retries > 0, "failed jobs should be retried");
        assert!(
            faulty.total_evals < clean.total_evals,
            "crashes consume budget: {} vs {}",
            faulty.total_evals,
            clean.total_evals
        );
        for m in &faulty.measurements {
            assert!(m.value.is_finite(), "failures must never enter history");
        }
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let run_once = || {
            let mut m = MethodKind::HyperTune.build(&levels, 9);
            let mut cfg = RunConfig::new(4, 1500.0, 9);
            cfg.faults = Some(FaultSpec::crashes(0.15));
            run(m.as_mut(), &bench, &cfg)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.measurements, b.measurements);
        assert_eq!(a.n_failed_attempts, b.n_failed_attempts);
        assert_eq!(a.n_quarantined, b.n_quarantined);
    }

    #[test]
    fn retry_exhaustion_quarantines_instead_of_stalling() {
        // Every job fails: nothing ever completes, everything quarantines,
        // and the run still terminates at the budget with the method
        // having been told about every failure.
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut m = MethodKind::Asha.build(&levels, 3);
        let mut cfg = RunConfig::new(4, 300.0, 3);
        cfg.faults = Some(FaultSpec::crashes(1.0));
        cfg.retry = RetryPolicy {
            max_retries: 1,
            backoff_base: 1.0,
            backoff_mult: 2.0,
        };
        let r = run(m.as_mut(), &bench, &cfg);
        assert_eq!(r.total_evals, 0);
        assert!(r.n_quarantined > 0);
        // Every failed attempt was either retried or quarantined (jobs
        // still in flight at the budget edge keep the counts inexact
        // between the two, but never outside this identity).
        assert_eq!(r.n_failed_attempts, r.n_retries + r.n_quarantined);
        // With max_retries = 1 each quarantine consumed exactly one
        // retry first, so retries can only exceed quarantines by the
        // jobs whose second attempt was still running at the budget.
        assert!(r.n_retries >= r.n_quarantined);
        assert!(r.best_config.is_none());
    }

    #[test]
    fn zero_retry_policy_quarantines_immediately() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut m = MethodKind::ARandom.build(&levels, 1);
        let mut cfg = RunConfig::new(2, 200.0, 1);
        cfg.faults = Some(FaultSpec::errors(1.0));
        cfg.retry = RetryPolicy::none();
        let r = run(m.as_mut(), &bench, &cfg);
        assert_eq!(r.n_retries, 0);
        assert!(r.n_quarantined > 0);
        assert_eq!(r.n_failed_attempts, r.n_quarantined);
    }

    #[test]
    fn job_timeout_converts_hangs_into_retries() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        // Hangs stretch jobs 50x; a timeout of 2x the max cost catches
        // every hang while leaving clean jobs untouched.
        let mut m = MethodKind::Asha.build(&levels, 5);
        let mut cfg = RunConfig::new(4, 2000.0, 5);
        cfg.faults = Some(FaultSpec::hangs(0.2, 50.0));
        cfg.job_timeout = Some(2.0 * bench.max_resource());
        let r = run(m.as_mut(), &bench, &cfg);
        assert!(r.total_evals > 0);
        assert!(r.n_failed_attempts > 0, "timeouts should fire on hangs");
        // Without the timeout the same hangs just burn budget silently.
        let mut m2 = MethodKind::Asha.build(&levels, 5);
        let mut cfg2 = RunConfig::new(4, 2000.0, 5);
        cfg2.faults = Some(FaultSpec::hangs(0.2, 50.0));
        let r2 = run(m2.as_mut(), &bench, &cfg2);
        assert_eq!(r2.n_failed_attempts, 0);
        assert!(
            r.total_evals >= r2.total_evals,
            "killing hangs must not reduce throughput: {} vs {}",
            r.total_evals,
            r2.total_evals
        );
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let cfg = RunConfig::new(4, 1200.0, 11);

        let mut m_full = MethodKind::HyperTune.build(&levels, 11);
        let full = run(m_full.as_mut(), &bench, &cfg);

        let dir = std::env::temp_dir().join("hypertune-runner-resume-test");
        let path = dir.join("snap.json");
        let policy = CheckpointPolicy::new(&path, 7);
        let mut m_ckpt = MethodKind::HyperTune.build(&levels, 11);
        let _ = run_checkpointed(m_ckpt.as_mut(), &bench, &cfg, &policy).unwrap();

        // "Crash" — all in-memory state is dropped; resume from disk.
        let snapshot = RunSnapshot::load(&path).unwrap();
        assert!(!snapshot.measurements.is_empty());
        assert!(snapshot.measurements.len() < full.measurements.len());
        let mut m_resumed = MethodKind::HyperTune.build(&levels, 11);
        let resumed = resume(m_resumed.as_mut(), &bench, &cfg, &snapshot, None).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(resumed.measurements, full.measurements);
        assert_eq!(resumed.best_value, full.best_value);
        assert_eq!(resumed.curve, full.curve);
    }

    #[test]
    fn resume_rejects_wrong_seed_and_tampered_snapshots() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let cfg = RunConfig::new(2, 400.0, 2);
        let dir = std::env::temp_dir().join("hypertune-runner-tamper-test");
        let path = dir.join("snap.json");
        let policy = CheckpointPolicy::new(&path, 5);
        let mut m = MethodKind::Asha.build(&levels, 2);
        run_checkpointed(m.as_mut(), &bench, &cfg, &policy).unwrap();
        let mut snapshot = RunSnapshot::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Wrong seed is rejected up front.
        let mut wrong_cfg = cfg.clone();
        wrong_cfg.seed = 3;
        let mut m2 = MethodKind::Asha.build(&levels, 3);
        match resume(m2.as_mut(), &bench, &wrong_cfg, &snapshot, None) {
            Err(ResumeError::SeedMismatch { .. }) => {}
            other => panic!("expected SeedMismatch, got {other:?}"),
        }

        // A tampered measurement is caught by replay verification.
        snapshot.measurements[0].value += 1.0;
        let mut m3 = MethodKind::Asha.build(&levels, 2);
        match resume(m3.as_mut(), &bench, &cfg, &snapshot, None) {
            Err(ResumeError::Diverged { stream, .. }) => assert_eq!(stream, "measurement"),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn static_plan_and_idle_breaker_are_bit_identical() {
        // The headline elastic invariant: a static membership plan plus an
        // armed-but-never-tripped breaker changes nothing — the run is
        // bit-identical to one with the resilience features disabled.
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let run_with = |elastic: bool| {
            let mut m = MethodKind::HyperTune.build(&levels, 13);
            let mut cfg = RunConfig::new(4, 1500.0, 13);
            if elastic {
                cfg.membership = Some(MembershipPlan::static_plan());
                cfg.breaker = Some(BreakerConfig::default());
            }
            run(m.as_mut(), &bench, &cfg)
        };
        let plain = run_with(false);
        let elastic = run_with(true);
        assert_eq!(plain.measurements, elastic.measurements);
        assert_eq!(plain.curve, elastic.curve);
        assert_eq!(plain.utilization, elastic.utilization);
        assert_eq!(elastic.n_orphaned, 0);
        assert_eq!(elastic.n_speculations, 0);
        assert_eq!(elastic.n_breaker_trips, 0);
    }

    #[test]
    fn worker_churn_orphans_are_recovered_and_runs_complete() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let run_once = || {
            let mut m = MethodKind::Asha.build(&levels, 7);
            let mut cfg = RunConfig::new(4, 2500.0, 7);
            // 10% crash-per-dispatch, crashed workers rejoin after 5 s,
            // leases expire quickly so orphans recycle within the budget.
            cfg.membership =
                Some(MembershipPlan::worker_crashes(0.10, Some(5.0), 7).with_lease_timeout(10.0));
            run(m.as_mut(), &bench, &cfg)
        };
        let r = run_once();
        assert!(r.n_orphaned > 0, "churn should have orphaned some jobs");
        assert!(r.total_evals > 0, "churn must not kill the run");
        assert_eq!(r.failure_counts.orphaned, r.n_orphaned);
        // Orphans flow through the same bounded-retry policy as other
        // failures: every failed attempt is retried or quarantined (jobs
        // still in flight at the budget edge keep the identity inexact in
        // one direction only).
        assert!(r.n_retries + r.n_quarantined <= r.n_failed_attempts);
        for m in &r.measurements {
            assert!(m.value.is_finite(), "orphans must never enter history");
        }
        // Exactly-once under churn is deterministic per seed.
        let r2 = run_once();
        assert_eq!(r.measurements, r2.measurements);
        assert_eq!(r.n_orphaned, r2.n_orphaned);
    }

    #[test]
    fn speculation_backs_up_stragglers_deterministically() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let run_once = |speculate: bool| {
            let mut m = MethodKind::Asha.build(&levels, 21);
            let mut cfg = RunConfig::new(4, 2500.0, 21);
            // Frequent, heavy stragglers (20x slowdown) so backups win.
            cfg.straggler = Some((0.25, 20.0));
            if speculate {
                cfg.speculation = Some(SpeculationConfig {
                    multiple: 2.0,
                    min_completions: 3,
                    max_concurrent: 4,
                });
            }
            run(m.as_mut(), &bench, &cfg)
        };
        let r = run_once(true);
        assert!(r.n_speculations > 0, "heavy stragglers should be backed up");
        assert!(r.n_backup_wins <= r.n_speculations);
        assert!(r.total_evals > 0);
        let r2 = run_once(true);
        assert_eq!(r.measurements, r2.measurements);
        assert_eq!(r.n_speculations, r2.n_speculations);
        assert_eq!(r.n_backup_wins, r2.n_backup_wins);
        // Backups that win cut the tail: the speculated run should finish
        // at least as many evaluations as the unprotected one.
        let plain = run_once(false);
        assert!(
            r.total_evals >= plain.total_evals,
            "speculation lost work: {} vs {}",
            r.total_evals,
            plain.total_evals
        );
    }

    #[test]
    fn breaker_opens_under_quarantine_storm() {
        let bench = CountingOnes::new(4, 4, 7);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let mut m = MethodKind::HyperTune.build(&levels, 5);
        let mut cfg = RunConfig::new(4, 1500.0, 5);
        cfg.faults = Some(FaultSpec::crashes(0.9));
        cfg.retry = RetryPolicy::none();
        cfg.breaker = Some(BreakerConfig {
            window: 10,
            open_threshold: 0.5,
            close_threshold: 0.2,
            min_samples: 5,
        });
        let r = run(m.as_mut(), &bench, &cfg);
        assert!(r.n_quarantined > 0);
        assert!(
            r.n_breaker_trips >= 1,
            "a 90% failure rate must open the breaker"
        );
    }
}
