//! The tuning service: many studies, one fleet.
//!
//! [`TuningService`] multiplexes every live study over a single shared
//! [`Executor`] — a [`ThreadPool`](hypertune_cluster::ThreadPool) of OS
//! threads or a [`TcpCluster`](hypertune_cluster::TcpCluster) of worker
//! processes; the service is substrate-agnostic, exactly like the
//! single-study driver. Each study owns its method and an isolated
//! [`StudyRuntime`] (RNG, history, pending set), so tenants
//! cannot perturb each other's suggestion streams no matter how the
//! fleet interleaves them; the service owns everything *between* the
//! runtimes and the fleet:
//!
//! - **Fair-share scheduling** ([`crate::FairShare`]): idle worker
//!   slots are granted to studies by weighted stride scheduling, with a
//!   per-study `max_in_flight` quota on top. A heavy tenant cannot
//!   starve a light one, and a stopped or parked (weight 0) study never
//!   receives a slot.
//! - **Durability**: with a `state_dir` configured, every study gets an
//!   appending checksummed WAL (`study-<id>.wal`, the
//!   [`RunSnapshot`] line format) plus a sidecar (`study-<id>.json`)
//!   recording spec and lifecycle state. [`TuningService::recover`]
//!   scans the directory and rebuilds every study found there.
//!   Recovery follows the checkpoint semantics documented in
//!   [`hypertune_core::persist`]: the restored history is exact, and
//!   the method refits its derived state from it with a
//!   generation-mixed RNG — trials in flight at the kill were never
//!   logged, so they re-run fresh and **no trial is ever booked
//!   twice** (the restart drill asserts
//!   `TraceSummary::duplicated_trials() == 0` per tenant). WAL appends
//!   group-commit across studies — buffered per study, flushed once per
//!   scheduler round over the studies the round touched — so a kill
//!   mid-round loses only results that were not booked yet, which
//!   re-run and never double-book; lifecycle sidecar writes always
//!   flush the WAL first.
//! - **Retries and quarantine**: failed attempts are re-dispatched up
//!   to the configured [`RetryPolicy`] budget, then quarantined and fed
//!   back to the study's method as a failed outcome — the same ladder
//!   as the single-study drivers, tracked per tenant.
//! - **Telemetry**: every study emits through a tenant-stamped
//!   [`TelemetryHandle`] (see [`TelemetryHandle::with_tenant`]), so one
//!   trace carries all tenants and
//!   `TraceSummary::per_tenant` splits it back apart. Counters are
//!   namespaced `study.<id>.*`.
//!
//! A scheduler round is one drain: park-queue requeues first, then
//! fair-share fill, then block for the first completion, take every
//! other one that is already there
//! ([`Executor::drain_completions`]), route them home by tenant id in
//! arrival order, and commit the round's WAL records with one flush.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hypertune_benchmarks::{Benchmark, Eval};
use hypertune_cluster::{ClusterError, Executor, JobStatus, PoolResult};
use hypertune_core::persist::{RunSnapshot, SubmissionRecord, WalWriter};
use hypertune_core::{
    booked_status, failure_kind, FailureCounts, JobSpec, Measurement, Method, ResourceLevels,
    RetryPolicy, StudyRuntime, ThreadedJob,
};
use hypertune_telemetry::{Event, TelemetryHandle};

use crate::job::ServiceJob;
use crate::scheduler::FairShare;
use crate::study::{StudyHandle, StudyRecord, StudySpec, StudyStatus};

/// Maps a registry benchmark name plus seed to an instance. The
/// benchmark registry lives above this crate (in the `hypertune`
/// facade), so callers inject it; tests inject fixtures.
pub type BenchResolver = Arc<dyn Fn(&str, u64) -> Option<Box<dyn Benchmark>> + Send + Sync>;

/// Exact-percentile reservoir cap for suggest latencies; beyond it the
/// reservoir becomes a ring (oldest overwritten).
const LATENCY_CAP: usize = 1 << 16;

/// Service-wide configuration.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Durability root: one WAL + sidecar per study underneath. `None`
    /// runs in-memory only (no recovery).
    pub state_dir: Option<PathBuf>,
    /// Retry budget for failed attempts, shared by all studies.
    pub retry: RetryPolicy,
    /// When `true`, every WAL flush also fsyncs (`sync_data`), making
    /// the durability window a storage guarantee rather than an OS-cache
    /// one. Off by default. The flush cadence itself is not
    /// configurable: records buffer while a drained batch is booked and
    /// one flush per scheduler round covers every study the round
    /// touched. Lifecycle transitions (complete/stop) always flush the
    /// study's WAL before the sidecar is rewritten, so a sidecar can
    /// never claim records the WAL does not have.
    pub wal_sync: bool,
    /// Telemetry pipeline; per-study handles are tenant-stamped clones
    /// of this one, so every tenant shares the sinks and ring buffer.
    pub telemetry: TelemetryHandle,
}

impl ServiceConfig {
    /// In-memory service with default retries and disabled telemetry.
    pub fn new() -> Self {
        Self {
            state_dir: None,
            retry: RetryPolicy::default_policy(),
            wal_sync: false,
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Sets the durability root.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets whether WAL flushes also fsync.
    pub fn with_wal_sync(mut self, sync: bool) -> Self {
        self.wal_sync = sync;
        self
    }

    /// Sets the telemetry pipeline.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Applies this config's flush policy to a study's WAL writer:
    /// appends buffer, the service flushes once per round.
    fn configure_wal(&self, wal: &mut WalWriter) {
        wal.set_auto_flush(false);
        wal.set_sync_on_flush(self.wal_sync);
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("state_dir", &self.state_dir)
            .field("retry", &self.retry)
            .finish_non_exhaustive()
    }
}

/// Builds the evaluation closure a worker substrate needs: resolves the
/// job's `(bench, seed)` coordinates through `resolver`, caching one
/// benchmark instance per pair (consecutive jobs on one worker usually
/// belong to a handful of studies). Panics on an unknown benchmark
/// name — the service validates names at study creation, so reaching an
/// unknown name on a worker means the dispatch was corrupted.
pub fn pool_eval(resolver: BenchResolver) -> impl Fn(&ServiceJob) -> Eval + Send + Sync + 'static {
    let cache: Mutex<BTreeMap<(String, u64), Arc<dyn Benchmark>>> = Mutex::new(BTreeMap::new());
    move |job: &ServiceJob| {
        let key = (job.bench.clone(), job.bench_seed);
        let bench = {
            let mut cache = cache.lock().expect("bench cache poisoned");
            match cache.get(&key) {
                Some(b) => Arc::clone(b),
                None => {
                    let b: Arc<dyn Benchmark> = Arc::from(
                        resolver(&job.bench, job.bench_seed)
                            .unwrap_or_else(|| panic!("unknown benchmark {:?}", job.bench)),
                    );
                    cache.insert(key, Arc::clone(&b));
                    b
                }
            }
        };
        bench.evaluate(&job.job.spec.config, job.job.spec.resource, job.bench_seed)
    }
}

/// Per-study bookkeeping the service owns (the method-visible state
/// lives in the [`StudyRuntime`], which borrows `method` per call).
struct Study {
    spec: StudySpec,
    status: StudyStatus,
    generation: u64,
    method: Box<dyn Method>,
    runtime: StudyRuntime,
    wal: Option<WalWriter>,
    /// Tenant-stamped handle; every event this study causes carries its
    /// id.
    telemetry: TelemetryHandle,
    /// The study's scoped counter names, built once.
    counters: StudyCounters,
    /// Completed measurements in completion order (the WAL's in-memory
    /// twin; what the equivalence tests fingerprint).
    measurements: Vec<Measurement>,
    /// Trials charged against `max_evals`: incremented at dispatch,
    /// decremented on quarantine, so `dispatched == completed` once the
    /// study drains.
    dispatched: usize,
    completed: usize,
    quarantined: usize,
    /// Dispatched but not yet booked (on the fleet or in the park
    /// queue). Bounded by the `max_in_flight` quota.
    outstanding: usize,
    failures: FailureCounts,
}

impl Study {
    /// How many fresh dispatches the study can absorb right now:
    /// remaining budget capped by the in-flight quota. Zero for
    /// anything not `Running`.
    fn wants(&self) -> usize {
        if self.status != StudyStatus::Running {
            return 0;
        }
        let budget = self.spec.max_evals.saturating_sub(self.dispatched);
        let quota = self.spec.max_in_flight.saturating_sub(self.outstanding);
        budget.min(quota)
    }
}

/// Aggregate service statistics; see [`TuningService::stats`].
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Wall seconds since the service was constructed.
    pub uptime_secs: f64,
    /// Studies currently `Running`.
    pub live_studies: usize,
    /// Successful trials booked across all studies (this incarnation).
    pub total_completed: usize,
    /// Exact p99 of suggest-call latency in seconds, if any were made.
    pub suggest_p99_secs: Option<f64>,
    /// Per-study breakdown, ordered by id.
    pub studies: Vec<StudyStats>,
}

/// One study's statistics snapshot.
#[derive(Debug, Clone)]
pub struct StudyStats {
    /// Service-assigned tenant id.
    pub id: u64,
    /// Human-readable name from the spec.
    pub name: String,
    /// Method display name.
    pub method: String,
    /// Lifecycle state.
    pub status: StudyStatus,
    /// Successful trials booked.
    pub completed: usize,
    /// Trials charged against the budget (suggested and not
    /// quarantined).
    pub dispatched: usize,
    /// Dispatched but unbooked trials.
    pub outstanding: usize,
    /// Trials quarantined after exhausting retries.
    pub quarantined: usize,
    /// Best validation value so far.
    pub best: Option<f64>,
    /// Failed attempts by kind (every attempt counts).
    pub failures: FailureCounts,
    /// Recovery generation (0 = never restarted).
    pub generation: u64,
}

fn wal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("study-{id}.wal"))
}

fn sidecar_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("study-{id}.json"))
}

/// Atomically rewrites a study's sidecar (write temp + rename), so a
/// kill mid-transition can never tear the lifecycle record.
fn write_sidecar(dir: &Path, record: &StudyRecord) -> io::Result<()> {
    let path = sidecar_path(dir, record.id);
    let tmp = dir.join(format!("study-{}.json.tmp", record.id));
    std::fs::write(
        &tmp,
        serde_json::to_string(&serde::Serialize::to_value(record))?,
    )?;
    std::fs::rename(&tmp, path)
}

/// A study's `study.<id>.trials.*` counter names. Built when the study
/// is, so the per-trial paths never format a key — least of all for a
/// telemetry handle that is disabled.
struct StudyCounters {
    dispatched: String,
    completed: String,
    orphaned: String,
    retried: String,
    quarantined: String,
}

impl StudyCounters {
    fn new(id: u64) -> Self {
        let scoped = |name: &str| format!("study.{id}.trials.{name}");
        Self {
            dispatched: scoped("dispatched"),
            completed: scoped("completed"),
            orphaned: scoped("orphaned"),
            retried: scoped("retried"),
            quarantined: scoped("quarantined"),
        }
    }
}

/// The multi-tenant tuning service; see the module docs for the
/// architecture.
pub struct TuningService<E: Executor<ServiceJob, Eval>> {
    executor: E,
    resolver: BenchResolver,
    config: ServiceConfig,
    studies: BTreeMap<u64, Study>,
    sched: FairShare,
    next_study_id: u64,
    started: Instant,
    /// Park queue: retries (and dispatches that lost a capacity race)
    /// waiting for an idle slot. These already own budget and quota, so
    /// they requeue ahead of fresh fair-share grants — the same
    /// ordering as the single-study drivers' orphan queue.
    parked: VecDeque<ServiceJob>,
    /// The round's drained completions; kept for its capacity.
    batch: Vec<PoolResult<ServiceJob, Eval>>,
    /// Studies whose WAL has buffered records — what the round's one
    /// flush visits instead of scanning every study.
    dirty_wals: Vec<u64>,
    /// True while the live fleet sits at zero capacity (every worker
    /// partitioned away). Studies park rather than stall; cleared when
    /// a redial restores capacity.
    fleet_down: bool,
    suggest_latencies: Vec<f64>,
    latency_cursor: usize,
}

impl<E: Executor<ServiceJob, Eval>> std::fmt::Debug for TuningService<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuningService")
            .field("studies", &self.studies.len())
            .field("workers", &self.executor.n_workers())
            .field("parked", &self.parked.len())
            .finish_non_exhaustive()
    }
}

impl<E: Executor<ServiceJob, Eval>> TuningService<E> {
    /// Wraps an executor. Creates the state directory if configured.
    pub fn new(
        mut executor: E,
        resolver: BenchResolver,
        config: ServiceConfig,
    ) -> io::Result<Self> {
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        executor.set_telemetry(config.telemetry.clone());
        Ok(Self {
            executor,
            resolver,
            config,
            studies: BTreeMap::new(),
            sched: FairShare::new(),
            next_study_id: 1,
            started: Instant::now(),
            parked: VecDeque::new(),
            batch: Vec::new(),
            dirty_wals: Vec::new(),
            fleet_down: false,
            suggest_latencies: Vec::new(),
            latency_cursor: 0,
        })
    }

    /// Wall seconds since service start — the event/measurement clock.
    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn update_live_gauge(&self) {
        let live = self
            .studies
            .values()
            .filter(|s| s.status == StudyStatus::Running)
            .count();
        self.config
            .telemetry
            .gauge_set("service.studies.live", live as f64);
    }

    /// Creates a study and registers it with the fair-share scheduler.
    ///
    /// Validates the benchmark name against the resolver up front and
    /// rejects empty budgets/quotas, so nothing unresolvable ever
    /// reaches the fleet. With a state directory, the study's WAL and
    /// sidecar are created before the handle is returned.
    pub fn create_study(&mut self, spec: StudySpec) -> io::Result<StudyHandle> {
        if spec.max_evals == 0 || spec.max_in_flight == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_evals and max_in_flight must be positive",
            ));
        }
        let bench = (self.resolver)(&spec.bench, spec.seed).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown benchmark {:?}", spec.bench),
            )
        })?;
        let id = self.next_study_id;
        self.next_study_id += 1;
        let telemetry = self.config.telemetry.with_tenant(id);
        let levels = ResourceLevels::new(bench.max_resource(), spec.eta);
        // The method plans for the study's own quota, not the fleet
        // width — a study capped at 2 in-flight trials on a 64-wide
        // fleet behaves exactly like one on a 2-worker pool.
        let quota = spec.max_in_flight.min(self.executor.n_workers().max(1));
        let mut method = spec.method.build(&levels, spec.seed);
        method.set_telemetry(telemetry.clone());
        let runtime = StudyRuntime::new(
            bench.space().clone(),
            levels,
            spec.seed,
            quota,
            telemetry.clone(),
        );
        let wal = match &self.config.state_dir {
            Some(dir) => {
                let mut wal = WalWriter::create(&wal_path(dir, id), spec.seed)?;
                self.config.configure_wal(&mut wal);
                Some(wal)
            }
            None => None,
        };
        let record = StudyRecord {
            id,
            spec: spec.clone(),
            status: StudyStatus::Running,
            generation: 0,
        };
        if let Some(dir) = &self.config.state_dir {
            write_sidecar(dir, &record)?;
        }
        let now = self.now();
        let name = spec.name.clone();
        telemetry.emit_with(now, || Event::StudyCreated { study: id, name });
        telemetry.counter_add("service.studies.created", 1);
        self.sched.register(id, spec.weight);
        self.studies.insert(
            id,
            Study {
                spec,
                status: StudyStatus::Running,
                generation: 0,
                method,
                runtime,
                wal,
                telemetry,
                counters: StudyCounters::new(id),
                measurements: Vec::new(),
                dispatched: 0,
                completed: 0,
                quarantined: 0,
                outstanding: 0,
                failures: FailureCounts::default(),
            },
        );
        self.update_live_gauge();
        Ok(StudyHandle::from_id(id))
    }

    /// Stops a running study: it leaves the scheduler immediately, its
    /// parked retries are discarded, and results still on the fleet are
    /// dropped on arrival. Terminal — a stopped study is never revived,
    /// not even by [`TuningService::recover`]. Returns `false` if the
    /// study was unknown or already terminal.
    pub fn stop_study(&mut self, handle: StudyHandle) -> io::Result<bool> {
        let id = handle.id();
        let now = self.now();
        let Some(study) = self.studies.get_mut(&id) else {
            return Ok(false);
        };
        if study.status != StudyStatus::Running {
            return Ok(false);
        }
        study.status = StudyStatus::Stopped;
        // Sidecar ordering: the WAL must be flushed before the sidecar
        // records the terminal state, so the sidecar never claims
        // records the WAL does not have.
        if let Some(wal) = &mut study.wal {
            wal.flush()?;
        }
        self.sched.unregister(id);
        let before = self.parked.len();
        self.parked.retain(|j| j.study != id);
        study.outstanding = study.outstanding.saturating_sub(before - self.parked.len());
        study
            .telemetry
            .emit_with(now, || Event::StudyStopped { study: id });
        if let Some(dir) = &self.config.state_dir {
            let record = StudyRecord {
                id,
                spec: study.spec.clone(),
                status: study.status,
                generation: study.generation,
            };
            write_sidecar(dir, &record)?;
        }
        self.update_live_gauge();
        Ok(true)
    }

    /// Asks a study's method for up to `k` jobs — the tenant-facing
    /// half of the lifecycle API, also used internally by the fill
    /// loop. Dispatch ids are assigned and the jobs are charged against
    /// the study's budget and quota; the caller owes a
    /// [`TuningService::report`] (or the fleet a completion) per job.
    /// Returns an empty batch at a method barrier or on a non-running
    /// study.
    pub fn suggest(&mut self, handle: StudyHandle, k: usize) -> io::Result<Vec<JobSpec>> {
        let id = handle.id();
        let now = self.now();
        let study = self
            .studies
            .get_mut(&id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no study {id}")))?;
        if study.status != StudyStatus::Running {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();
        let batch = study.runtime.suggest(study.method.as_mut(), k, now);
        let latency = t0.elapsed().as_secs_f64();
        if self.suggest_latencies.len() < LATENCY_CAP {
            self.suggest_latencies.push(latency);
        } else {
            let slot = self.latency_cursor % LATENCY_CAP;
            self.suggest_latencies[slot] = latency;
            self.latency_cursor = self.latency_cursor.wrapping_add(1);
        }
        for job in &batch {
            study.dispatched += 1;
            study.outstanding += 1;
            let (level, bracket) = (job.level, job.bracket);
            study.telemetry.emit_with(now, || Event::TrialDispatched {
                level,
                bracket,
                attempt: 0,
            });
        }
        if !batch.is_empty() {
            study
                .telemetry
                .counter_add(&study.counters.dispatched, batch.len() as u64);
        }
        Ok(batch)
    }

    /// Books a successful evaluation for a suggested job — the other
    /// half of the lifecycle API and the internal success path. Appends
    /// to the study's WAL, feeds the method, and completes the study
    /// when its budget is exhausted.
    ///
    /// A NaN objective is `InvalidInput`: nothing is booked, the trial
    /// stays outstanding, and the caller may report again.
    pub fn report(&mut self, handle: StudyHandle, spec: &JobSpec, eval: &Eval) -> io::Result<()> {
        if eval.value.is_nan() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "objective value is NaN",
            ));
        }
        let id = handle.id();
        let now = self.now();
        let study = self
            .studies
            .get_mut(&id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no study {id}")))?;
        let m = study
            .runtime
            .complete_success(study.method.as_mut(), spec, eval, now);
        if let Some(wal) = &mut study.wal {
            if wal.dirty() == 0 {
                self.dirty_wals.push(id);
            }
            wal.append_submission(&SubmissionRecord {
                spec: spec.clone(),
                value: eval.value,
                test_value: eval.test_value,
                cost: eval.cost,
            })?;
            wal.append_measurement(&m)?;
        }
        study.measurements.push(m.clone());
        study.completed += 1;
        study.outstanding = study.outstanding.saturating_sub(1);
        let (level, bracket, value, cost) = (spec.level, spec.bracket, eval.value, eval.cost);
        study
            .telemetry
            .emit_with(m.finished_at, || Event::TrialCompleted {
                level,
                bracket,
                value,
                cost,
            });
        study.telemetry.counter_add(&study.counters.completed, 1);
        study.telemetry.histogram_record("trial.cost", cost);
        if study.status == StudyStatus::Running && study.completed >= study.spec.max_evals {
            self.finish_study(id)?;
        }
        Ok(())
    }

    /// Marks a study's budget exhausted: `Completed`, out of the
    /// scheduler, sidecar rewritten.
    fn finish_study(&mut self, id: u64) -> io::Result<()> {
        let now = self.now();
        self.sched.unregister(id);
        let Some(study) = self.studies.get_mut(&id) else {
            return Ok(());
        };
        study.status = StudyStatus::Completed;
        // Flush before the sidecar flips to Completed: a `Completed`
        // sidecar over a WAL missing its tail would permanently
        // undercount the study on recovery.
        if let Some(wal) = &mut study.wal {
            wal.flush()?;
        }
        let trials = study.completed;
        study
            .telemetry
            .emit_with(now, || Event::StudyCompleted { study: id, trials });
        if let Some(dir) = &self.config.state_dir {
            let record = StudyRecord {
                id,
                spec: study.spec.clone(),
                status: study.status,
                generation: study.generation,
            };
            write_sidecar(dir, &record)?;
        }
        self.update_live_gauge();
        Ok(())
    }

    /// Fills idle fleet capacity: park queue first (those jobs already
    /// own budget and quota), then fresh dispatches granted by stride
    /// scheduling, one slot per grant. A study whose method declines to
    /// produce (synchronous barrier) is skipped for the rest of the
    /// round.
    fn fill(&mut self) {
        // Degradation-ladder hook: at zero live capacity (a full
        // partition with every worker in redial) studies park instead of
        // stalling, and resume the moment a redial restores a slot.
        if self.executor.n_workers() == 0 {
            if !self.fleet_down {
                self.fleet_down = true;
                self.config
                    .telemetry
                    .counter_add("service.fleet_down_transitions", 1);
            }
            return;
        }
        if self.fleet_down {
            self.fleet_down = false;
            self.config
                .telemetry
                .counter_add("service.fleet_resumes", 1);
        }
        while self.executor.idle_workers() > 0 {
            let Some(job) = self.parked.pop_front() else {
                break;
            };
            let running = self
                .studies
                .get(&job.study)
                .is_some_and(|s| s.status == StudyStatus::Running);
            if !running {
                if let Some(s) = self.studies.get_mut(&job.study) {
                    s.outstanding = s.outstanding.saturating_sub(1);
                }
                continue;
            }
            if self.executor.submit(job.clone()).is_err() {
                self.parked.push_front(job);
                break;
            }
        }
        let mut blocked: HashSet<u64> = HashSet::new();
        while self.executor.idle_workers() > 0 {
            let studies = &self.studies;
            let picked = self.sched.pick(|sid| {
                !blocked.contains(&sid) && studies.get(&sid).is_some_and(|s| s.wants() > 0)
            });
            let Some(id) = picked else { break };
            let batch = self
                .suggest(StudyHandle::from_id(id), 1)
                .expect("picked studies exist");
            if batch.is_empty() {
                blocked.insert(id);
                continue;
            }
            let (bench, bench_seed) = {
                let s = &self.studies[&id];
                (s.spec.bench.clone(), s.spec.seed)
            };
            for spec in batch {
                let job = ServiceJob {
                    study: id,
                    bench: bench.clone(),
                    bench_seed,
                    job: ThreadedJob { spec, attempt: 0 },
                };
                if self.executor.submit(job.clone()).is_err() {
                    // Capacity vanished mid-fill (elastic shrink): park
                    // the dispatch, it goes out first next round.
                    self.parked.push_front(job);
                    return;
                }
            }
        }
    }

    /// Routes one fleet completion home by tenant id. Results for
    /// stopped or unknown studies are dropped; failures walk the
    /// retry/quarantine ladder.
    fn handle_completion(&mut self, result: PoolResult<ServiceJob, Eval>) -> io::Result<()> {
        let now = self.now();
        let status = booked_status(&result);
        let job = result.job;
        let id = job.study;
        let Some(study) = self.studies.get_mut(&id) else {
            return Ok(());
        };
        if study.status != StudyStatus::Running {
            study.outstanding = study.outstanding.saturating_sub(1);
            return Ok(());
        }
        // `booked_status` turns a success without an output into a
        // failure, so a hostile result frame walks the ladder below.
        if let Some(eval) = result.output.filter(|_| !status.is_failure()) {
            return self.report(StudyHandle::from_id(id), &job.job.spec, &eval);
        }
        study.failures.record(status);
        let level = job.job.spec.level;
        let attempt = job.job.attempt;
        if status == JobStatus::Orphaned {
            study
                .telemetry
                .emit_with(now, || Event::LeaseExpired { level, attempt });
            study.telemetry.counter_add(&study.counters.orphaned, 1);
        }
        let kind = failure_kind(status).expect("failure statuses map to a kind");
        if attempt < self.config.retry.max_retries {
            let next = attempt + 1;
            study.telemetry.emit_with(now, || Event::TrialRetried {
                level,
                attempt: next,
                kind,
            });
            study.telemetry.counter_add(&study.counters.retried, 1);
            let mut retry = job;
            retry.job.attempt = next;
            self.parked.push_back(retry);
        } else {
            let bracket = job.job.spec.bracket;
            study.telemetry.emit_with(now, || Event::TrialQuarantined {
                level,
                bracket,
                kind,
            });
            study.telemetry.counter_add(&study.counters.quarantined, 1);
            study.dispatched = study.dispatched.saturating_sub(1);
            study.quarantined += 1;
            study.outstanding = study.outstanding.saturating_sub(1);
            study
                .runtime
                .complete_quarantine(study.method.as_mut(), job.job.spec, status, now);
        }
        Ok(())
    }

    /// One scheduler round: fill, block for the first completion and
    /// take every other one already there (at most `max` in all), book
    /// them in arrival order, then commit the round's WAL records with
    /// one flush. Returns how many completions it processed; `Ok(0)`
    /// means the fleet is quiescent and no study has dispatchable work.
    ///
    /// # Panics
    ///
    /// Panics if a running study wants work but its method produced
    /// none with nothing in flight — a stalled method, the same
    /// invariant the single-study drivers assert.
    fn step(&mut self, max: usize) -> io::Result<usize> {
        self.fill();
        let mut batch = std::mem::take(&mut self.batch);
        match self.executor.drain_completions(&mut batch, max) {
            Ok(n) => {
                for result in batch.drain(..) {
                    self.handle_completion(result)?;
                }
                self.batch = batch;
                self.flush_wals()?;
                Ok(n)
            }
            Err(ClusterError::Quiescent) => {
                // Nothing more will arrive: close the durability window
                // before reporting quiescence.
                self.flush_wals()?;
                let stalled = self
                    .studies
                    .values()
                    .any(|s| s.status == StudyStatus::Running && s.wants() > 0);
                // At zero capacity "stalled" is expected: the studies
                // are parked behind a downed fleet, not a broken method.
                // The caller sees quiescence and may retry after a
                // redial restores workers.
                assert!(
                    !stalled || self.executor.n_workers() == 0,
                    "service stalled: a running study wants work but its method \
                     produced none with nothing in flight"
                );
                Ok(0)
            }
            Err(e) => Err(io::Error::other(format!("executor failed: {e}"))),
        }
    }

    /// The group commit: flushes the WAL of every study that buffered
    /// records since the last one. Emits `wal.group_commit.flushes` and
    /// a `wal.group_commit.records` histogram (how many records the
    /// commit covered) when anything was dirty.
    fn flush_wals(&mut self) -> io::Result<()> {
        let mut records = 0usize;
        for id in self.dirty_wals.drain(..) {
            if let Some(wal) = self.studies.get_mut(&id).and_then(|s| s.wal.as_mut()) {
                records += wal.dirty();
                wal.flush()?;
            }
        }
        if records > 0 {
            self.config
                .telemetry
                .counter_add("wal.group_commit.flushes", 1);
            self.config
                .telemetry
                .histogram_record("wal.group_commit.records", records as f64);
        }
        Ok(())
    }

    /// Runs until every study is terminal (completed or stopped) and
    /// the fleet is drained.
    pub fn drain(&mut self) -> io::Result<()> {
        while self.step(usize::MAX)? > 0 {}
        Ok(())
    }

    /// Processes up to `n` fleet results (successes and failures both
    /// count — this is the CLI's `run` command and the restart drill's
    /// "kill mid-run" knob). Returns how many were processed — never
    /// more than `n`, whatever else the fleet already has ready; fewer
    /// means the service drained first.
    pub fn run_completions(&mut self, n: usize) -> io::Result<usize> {
        let mut done = 0;
        while done < n {
            let processed = self.step(n - done)?;
            if processed == 0 {
                break;
            }
            done += processed;
        }
        Ok(done)
    }

    /// Rebuilds studies from a state directory: for every sidecar not
    /// already loaded, restores the history from the study's WAL,
    /// compacts the WAL, bumps the recovery generation, and re-registers
    /// still-running studies with the scheduler. Terminal studies load
    /// for inspection only. Returns handles of everything recovered, by
    /// id.
    ///
    /// Recovery is checkpoint-semantics (see the module docs): trials
    /// in flight at the kill were never logged, so they re-run fresh —
    /// completed work is never re-booked.
    pub fn recover(&mut self) -> io::Result<Vec<StudyHandle>> {
        let Some(dir) = self.config.state_dir.clone() else {
            return Ok(Vec::new());
        };
        if !dir.exists() {
            return Ok(Vec::new());
        }
        let mut records: Vec<StudyRecord> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.starts_with("study-") || !name.ends_with(".json") {
                continue;
            }
            let record: StudyRecord = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
            if !self.studies.contains_key(&record.id) {
                records.push(record);
            }
        }
        records.sort_by_key(|r| r.id);
        let mut out = Vec::new();
        for record in records {
            let id = record.id;
            let spec = record.spec;
            let bench = (self.resolver)(&spec.bench, spec.seed).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("study {id} references unknown benchmark {:?}", spec.bench),
                )
            })?;
            let generation = record.generation + 1;
            // Mix the generation into the RNG seed so the restarted
            // method does not re-walk the exact path whose in-flight
            // tail was lost (golden-ratio odd multiplier, full-period).
            let seed = spec.seed ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let telemetry = self.config.telemetry.with_tenant(id);
            let levels = ResourceLevels::new(bench.max_resource(), spec.eta);
            let quota = spec.max_in_flight.min(self.executor.n_workers().max(1));
            let path = wal_path(&dir, id);
            let snapshot = if path.exists() {
                RunSnapshot::load(&path)?
            } else {
                RunSnapshot {
                    seed: spec.seed,
                    submissions: Vec::new(),
                    measurements: Vec::new(),
                }
            };
            let mut method = spec.method.build(&levels, seed);
            method.set_telemetry(telemetry.clone());
            let mut runtime = StudyRuntime::new(
                bench.space().clone(),
                levels,
                seed,
                quota,
                telemetry.clone(),
            );
            runtime.restore(&snapshot.measurements);
            let completed = snapshot.measurements.len();
            let mut status = record.status;
            if status == StudyStatus::Running && completed >= spec.max_evals {
                // Killed after the last booking but before the sidecar
                // flip: the budget is spent, finish it now.
                status = StudyStatus::Completed;
            }
            let wal = {
                let mut w = WalWriter::create_from(&path, &snapshot)?;
                self.config.configure_wal(&mut w);
                Some(w)
            };
            write_sidecar(
                &dir,
                &StudyRecord {
                    id,
                    spec: spec.clone(),
                    status,
                    generation,
                },
            )?;
            if status == StudyStatus::Running {
                self.sched.register(id, spec.weight);
            }
            self.studies.insert(
                id,
                Study {
                    spec,
                    status,
                    generation,
                    method,
                    runtime,
                    wal,
                    telemetry,
                    counters: StudyCounters::new(id),
                    measurements: snapshot.measurements,
                    dispatched: completed,
                    completed,
                    quarantined: 0,
                    outstanding: 0,
                    failures: FailureCounts::default(),
                },
            );
            self.next_study_id = self.next_study_id.max(id + 1);
            out.push(StudyHandle::from_id(id));
        }
        self.update_live_gauge();
        Ok(out)
    }

    /// The study's lifecycle state, if it exists.
    pub fn status(&self, handle: StudyHandle) -> Option<StudyStatus> {
        self.studies.get(&handle.id()).map(|s| s.status)
    }

    /// Successful trials booked for the study (this incarnation plus
    /// anything recovered from its WAL).
    pub fn completed(&self, handle: StudyHandle) -> usize {
        self.studies.get(&handle.id()).map_or(0, |s| s.completed)
    }

    /// The study's measurement stream in completion order (recovered
    /// prefix included). Empty for unknown studies.
    pub fn measurements(&self, handle: StudyHandle) -> &[Measurement] {
        self.studies
            .get(&handle.id())
            .map_or(&[], |s| s.measurements.as_slice())
    }

    /// The study's incumbent (best complete evaluation).
    pub fn incumbent(&self, handle: StudyHandle) -> Option<Measurement> {
        let study = self.studies.get(&handle.id())?;
        study.runtime.history().incumbent().cloned()
    }

    /// Handles of every known study, by id.
    pub fn handles(&self) -> Vec<StudyHandle> {
        self.studies
            .keys()
            .map(|&id| StudyHandle::from_id(id))
            .collect()
    }

    /// Exact p99 of suggest-call latency in seconds, if any suggest ran.
    pub fn suggest_p99(&self) -> Option<f64> {
        if self.suggest_latencies.is_empty() {
            return None;
        }
        let mut v = self.suggest_latencies.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() - 1) as f64 * 0.99).ceil() as usize;
        Some(v[idx])
    }

    /// A statistics snapshot across all studies.
    pub fn stats(&self) -> ServiceStats {
        let studies: Vec<StudyStats> = self
            .studies
            .iter()
            .map(|(&id, s)| StudyStats {
                id,
                name: s.spec.name.clone(),
                method: s.method.name().to_string(),
                status: s.status,
                completed: s.completed,
                dispatched: s.dispatched,
                outstanding: s.outstanding,
                quarantined: s.quarantined,
                best: s.runtime.history().incumbent().map(|m| m.value),
                failures: s.failures,
                generation: s.generation,
            })
            .collect();
        ServiceStats {
            uptime_secs: self.now(),
            live_studies: studies
                .iter()
                .filter(|s| s.status == StudyStatus::Running)
                .count(),
            total_completed: studies.iter().map(|s| s.completed).sum(),
            suggest_p99_secs: self.suggest_p99(),
            studies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_benchmarks::CountingOnes;
    use hypertune_cluster::ThreadPool;
    use hypertune_core::MethodKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn resolver() -> BenchResolver {
        Arc::new(|name, seed| match name {
            "counting-ones-small" => {
                Some(Box::new(CountingOnes::new(4, 4, seed)) as Box<dyn Benchmark>)
            }
            _ => None,
        })
    }

    fn pool(n: usize) -> ThreadPool<ServiceJob, Eval> {
        ThreadPool::new(n, pool_eval(resolver()))
    }

    /// An executor that evaluates inside `submit`, so everything
    /// submitted is ready by the next drain — the deterministic stand-in
    /// for "the whole fleet finished while the driver was busy".
    /// `ready` mirrors the queue length for the test to read after the
    /// service has taken ownership.
    struct ReadyPool {
        eval: Box<dyn Fn(&ServiceJob) -> Eval>,
        slots: usize,
        queue: VecDeque<PoolResult<ServiceJob, Eval>>,
        ready: Arc<AtomicUsize>,
    }

    impl ReadyPool {
        fn new(slots: usize) -> (Self, Arc<AtomicUsize>) {
            let ready = Arc::new(AtomicUsize::new(0));
            let pool = Self {
                eval: Box::new(pool_eval(resolver())),
                slots,
                queue: VecDeque::new(),
                ready: Arc::clone(&ready),
            };
            (pool, ready)
        }
    }

    impl Executor<ServiceJob, Eval> for ReadyPool {
        fn submit(&mut self, job: ServiceJob) -> Result<(), ClusterError> {
            if self.queue.len() >= self.slots {
                return Err(ClusterError::NoIdleWorker);
            }
            let output = Some((self.eval)(&job));
            self.queue.push_back(PoolResult {
                job,
                output,
                status: JobStatus::Succeeded,
                worker: 0,
            });
            self.ready.store(self.queue.len(), Ordering::SeqCst);
            Ok(())
        }

        fn next_completion(&mut self) -> Result<PoolResult<ServiceJob, Eval>, ClusterError> {
            let r = self.queue.pop_front().ok_or(ClusterError::Quiescent)?;
            self.ready.store(self.queue.len(), Ordering::SeqCst);
            Ok(r)
        }

        fn drain_completions(
            &mut self,
            out: &mut Vec<PoolResult<ServiceJob, Eval>>,
            max: usize,
        ) -> Result<usize, ClusterError> {
            let n = max.min(self.queue.len());
            if n == 0 && max > 0 {
                return Err(ClusterError::Quiescent);
            }
            out.extend(self.queue.drain(..n));
            self.ready.store(self.queue.len(), Ordering::SeqCst);
            Ok(n)
        }

        fn n_workers(&self) -> usize {
            self.slots
        }

        fn in_flight(&self) -> usize {
            self.queue.len()
        }

        fn set_telemetry(&mut self, _telemetry: TelemetryHandle) {}
    }

    fn spec(name: &str, seed: u64) -> StudySpec {
        StudySpec::new(name, "counting-ones-small", MethodKind::HyperTune)
            .with_seed(seed)
            .with_max_evals(8)
            .with_max_in_flight(2)
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hypertune-service-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unknown_benchmark_is_rejected_at_creation() {
        let mut svc = TuningService::new(pool(1), resolver(), ServiceConfig::new()).unwrap();
        let err = svc
            .create_study(StudySpec::new("x", "no-such-bench", MethodKind::ARandom))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn nan_objective_is_retried_as_corrupt_and_rejected_by_report() {
        // A fleet worker that reports NaN once: the completion must walk
        // the retry ladder, not reach the history and the rung (where
        // ordering it panicked the driver on the next suggestion).
        let diverged = std::sync::atomic::AtomicBool::new(false);
        let eval = pool_eval(resolver());
        let pool = ThreadPool::new(2, move |job: &ServiceJob| {
            let mut out = eval(job);
            if !diverged.swap(true, Ordering::SeqCst) {
                out.value = f64::NAN;
            }
            out
        });
        let mut svc = TuningService::new(pool, resolver(), ServiceConfig::new()).unwrap();
        let asha = StudySpec::new("nan", "counting-ones-small", MethodKind::Asha)
            .with_seed(5)
            .with_max_evals(30)
            .with_max_in_flight(2);
        let h = svc.create_study(asha).unwrap();
        svc.drain().unwrap();
        assert_eq!(svc.status(h), Some(StudyStatus::Completed));
        let stats = svc.stats();
        let s = &stats.studies[0];
        assert_eq!((s.completed, s.quarantined), (30, 0));
        // The service un-charges quarantined trials, so this is the
        // dispatched = completed + quarantined identity.
        assert_eq!((s.dispatched, s.outstanding), (s.completed, 0));
        assert_eq!(s.failures.corrupt, 1, "exactly one retry");
        assert!(svc.measurements(h).iter().all(|m| !m.value.is_nan()));

        // The lifecycle API refuses NaN outright and books nothing.
        let h = svc.create_study(spec("direct", 6)).unwrap();
        let job = svc.suggest(h, 1).unwrap().remove(0);
        let nan = Eval {
            value: f64::NAN,
            test_value: 0.0,
            cost: 1.0,
        };
        let err = svc.report(h, &job, &nan).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(svc.completed(h), 0);
    }

    #[test]
    fn two_studies_drain_to_completion() {
        let mut svc = TuningService::new(pool(4), resolver(), ServiceConfig::new()).unwrap();
        let a = svc.create_study(spec("a", 1)).unwrap();
        let b = svc.create_study(spec("b", 2)).unwrap();
        svc.drain().unwrap();
        assert_eq!(svc.status(a), Some(StudyStatus::Completed));
        assert_eq!(svc.status(b), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(a), 8);
        assert_eq!(svc.completed(b), 8);
        assert_eq!(svc.measurements(a).len(), 8);
        let stats = svc.stats();
        assert_eq!(stats.total_completed, 16);
        assert_eq!(stats.live_studies, 0);
        assert!(stats.suggest_p99_secs.is_some());
    }

    #[test]
    fn one_worker_service_is_deterministic() {
        let run = || {
            let mut svc = TuningService::new(pool(1), resolver(), ServiceConfig::new()).unwrap();
            let h = svc
                .create_study(spec("det", 7).with_max_in_flight(1))
                .unwrap();
            svc.drain().unwrap();
            svc.measurements(h)
                .iter()
                .map(|m| (m.config.clone(), m.value.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stopped_study_stays_stopped_and_others_finish() {
        let mut svc = TuningService::new(pool(2), resolver(), ServiceConfig::new()).unwrap();
        let a = svc.create_study(spec("keep", 3)).unwrap();
        let b = svc.create_study(spec("kill", 4)).unwrap();
        svc.run_completions(3).unwrap();
        assert!(svc.stop_study(b).unwrap());
        assert!(!svc.stop_study(b).unwrap(), "stop is idempotent");
        svc.drain().unwrap();
        assert_eq!(svc.status(a), Some(StudyStatus::Completed));
        assert_eq!(svc.status(b), Some(StudyStatus::Stopped));
        assert!(svc.completed(b) < 8, "stopped before exhausting budget");
    }

    #[test]
    fn quota_bounds_outstanding_trials() {
        let mut svc = TuningService::new(pool(8), resolver(), ServiceConfig::new()).unwrap();
        let h = svc
            .create_study(spec("quota", 5).with_max_in_flight(1).with_max_evals(6))
            .unwrap();
        loop {
            let stats = svc.stats();
            let s = stats.studies.iter().find(|s| s.id == h.id()).unwrap();
            assert!(s.outstanding <= 1, "quota violated: {}", s.outstanding);
            if svc.run_completions(1).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(svc.status(h), Some(StudyStatus::Completed));
    }

    #[test]
    fn recover_resumes_unfinished_studies() {
        let dir = unique_dir("recover");
        let config = ServiceConfig::new().with_state_dir(&dir);
        let a;
        let b;
        {
            let mut svc = TuningService::new(pool(2), resolver(), config.clone()).unwrap();
            a = svc.create_study(spec("a", 11).with_max_evals(6)).unwrap();
            b = svc.create_study(spec("b", 12).with_max_evals(6)).unwrap();
            svc.run_completions(4).unwrap();
            // Killed here: the service is dropped with trials in flight.
        }
        let mut svc = TuningService::new(pool(2), resolver(), config).unwrap();
        let recovered = svc.recover().unwrap();
        assert_eq!(recovered.len(), 2);
        let booked_before = svc.completed(a) + svc.completed(b);
        assert!(booked_before > 0, "some pre-kill work must have survived");
        svc.drain().unwrap();
        assert_eq!(svc.status(a), Some(StudyStatus::Completed));
        assert_eq!(svc.status(b), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(a), 6);
        assert_eq!(svc.completed(b), 6);
        let stats = svc.stats();
        for s in &stats.studies {
            assert_eq!(s.generation, 1, "recovery bumps the generation");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_ignores_a_torn_staging_file_beside_an_intact_wal() {
        // A previous recovery was killed while compacting study `a`'s
        // WAL: the staging file is half-written, the WAL itself was
        // never touched (persist::replace_wal). The next recovery must
        // read the WAL, not the leftovers, and clean them up.
        let dir = unique_dir("torn-staging");
        let config = ServiceConfig::new().with_state_dir(&dir);
        let a;
        {
            let mut svc = TuningService::new(pool(2), resolver(), config.clone()).unwrap();
            a = svc.create_study(spec("a", 13).with_max_evals(6)).unwrap();
            assert_eq!(svc.run_completions(4).unwrap(), 4);
        }
        let wal = wal_path(&dir, a.id());
        let booked = std::fs::read(&wal).unwrap();
        let staging = dir.join(format!("study-{}.wal.tmp", a.id()));
        std::fs::write(&staging, &booked[..booked.len() / 3]).unwrap();

        let mut svc = TuningService::new(pool(2), resolver(), config).unwrap();
        assert_eq!(svc.recover().unwrap().len(), 1);
        assert_eq!(svc.completed(a), 4, "carried == booked");
        assert!(!staging.exists(), "the compaction replaced the leftovers");
        let compacted = RunSnapshot::load(&wal).unwrap();
        assert_eq!(compacted.measurements.len(), 4);
        assert_eq!(compacted.submissions.len(), 4);
        svc.drain().unwrap();
        assert_eq!(svc.status(a), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(a), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_leaves_stopped_studies_stopped() {
        let dir = unique_dir("stopped");
        let config = ServiceConfig::new().with_state_dir(&dir);
        let b;
        {
            let mut svc = TuningService::new(pool(2), resolver(), config.clone()).unwrap();
            let _a = svc.create_study(spec("a", 21)).unwrap();
            b = svc.create_study(spec("b", 22)).unwrap();
            svc.run_completions(2).unwrap();
            svc.stop_study(b).unwrap();
        }
        let mut svc = TuningService::new(pool(2), resolver(), config).unwrap();
        svc.recover().unwrap();
        assert_eq!(svc.status(b), Some(StudyStatus::Stopped));
        svc.drain().unwrap();
        assert_eq!(svc.status(b), Some(StudyStatus::Stopped), "never revived");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_recovery_never_double_books() {
        // Same drill as recover_resumes_unfinished_studies, but on a
        // fleet whose four slots are all ready at every drain, so one
        // commit group spans several trials (and fsyncs): recovery must
        // still book every study to exactly its budget — results that
        // were drained but not booked re-run, nothing is duplicated.
        let dir = unique_dir("group-commit");
        let telemetry = hypertune_telemetry::Telemetry::new().build();
        let config = ServiceConfig::new()
            .with_state_dir(&dir)
            .with_wal_sync(true)
            .with_telemetry(telemetry.clone());
        let a;
        let b;
        {
            let (fleet, _) = ReadyPool::new(4);
            let mut svc = TuningService::new(fleet, resolver(), config.clone()).unwrap();
            a = svc.create_study(spec("a", 31).with_max_evals(6)).unwrap();
            b = svc.create_study(spec("b", 32).with_max_evals(6)).unwrap();
            assert_eq!(svc.run_completions(5).unwrap(), 5);
            // Killed here, with three results ready and unbooked.
        }
        let groups = telemetry.snapshot().expect("telemetry is on");
        let groups = groups
            .histogram("wal.group_commit.records")
            .expect("commits were recorded");
        assert_eq!(
            (groups.count, groups.max),
            (2, 8.0),
            "rounds of 4 and 1 trials, two records per trial"
        );
        let mut svc = TuningService::new(pool(2), resolver(), config).unwrap();
        let recovered = svc.recover().unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(
            svc.completed(a) + svc.completed(b),
            5,
            "recovery carries exactly what was booked"
        );
        svc.drain().unwrap();
        assert_eq!(svc.status(a), Some(StudyStatus::Completed));
        assert_eq!(svc.status(b), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(a), 6);
        assert_eq!(svc.completed(b), 6);
        assert_eq!(svc.measurements(a).len(), 6, "exactly once, no duplicates");
        assert_eq!(svc.measurements(b).len(), 6, "exactly once, no duplicates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_completions_books_exactly_n_of_a_ready_batch() {
        let dir = unique_dir("exact-n");
        let config = ServiceConfig::new().with_state_dir(&dir);
        let (fleet, ready) = ReadyPool::new(8);
        let mut svc = TuningService::new(fleet, resolver(), config.clone()).unwrap();
        let wide = |name: &str, seed: u64| {
            StudySpec::new(name, "counting-ones-small", MethodKind::ARandom)
                .with_seed(seed)
                .with_max_evals(10)
                .with_max_in_flight(4)
        };
        let a = svc.create_study(wide("a", 51)).unwrap();
        let b = svc.create_study(wide("b", 52)).unwrap();

        // The fill puts 8 trials on the fleet and all 8 are ready; the
        // call must stop at 3 and leave the other 5 where they are.
        assert_eq!(svc.run_completions(3).unwrap(), 3);
        assert_eq!(svc.completed(a) + svc.completed(b), 3);
        assert_eq!(ready.load(Ordering::SeqCst), 5, "5 results left for later");
        let outstanding: usize = svc.stats().studies.iter().map(|s| s.outstanding).sum();
        assert_eq!(outstanding, 5, "drained-but-unbooked results do not exist");

        // The next call refills the 3 freed slots and takes 5 of 8.
        assert_eq!(svc.run_completions(5).unwrap(), 5);
        assert_eq!(svc.completed(a) + svc.completed(b), 8);
        assert_eq!(ready.load(Ordering::SeqCst), 3);

        // Killed here: every booked record must be in the WALs (the
        // round flushed them; `WalWriter`'s drop covers the rest), and
        // the three ready-but-unbooked results must not be.
        drop(svc);
        let (fleet, _) = ReadyPool::new(8);
        let mut svc = TuningService::new(fleet, resolver(), config).unwrap();
        svc.recover().unwrap();
        assert_eq!(svc.completed(a) + svc.completed(b), 8, "carried == booked");

        svc.drain().unwrap();
        for h in [a, b] {
            assert_eq!(svc.status(h), Some(StudyStatus::Completed));
            assert_eq!(svc.measurements(h).len(), 10, "booked exactly once each");
        }
        let stats = svc.stats();
        assert!(stats
            .studies
            .iter()
            .all(|s| s.dispatched == s.completed && s.outstanding == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_suggest_report_drives_a_study() {
        let mut svc = TuningService::new(pool(1), resolver(), ServiceConfig::new()).unwrap();
        let h = svc
            .create_study(spec("manual", 9).with_max_evals(4).with_max_in_flight(1))
            .unwrap();
        let bench = CountingOnes::new(4, 4, 9);
        while svc.status(h) == Some(StudyStatus::Running) {
            let batch = svc.suggest(h, 1).unwrap();
            assert_eq!(batch.len(), 1);
            let spec = &batch[0];
            let eval = bench.evaluate(&spec.config, spec.resource, 9);
            svc.report(h, spec, &eval).unwrap();
        }
        assert_eq!(svc.status(h), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(h), 4);
    }
}
