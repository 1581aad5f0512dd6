//! Multi-tenant service tests, matching DESIGN.md §17's claims:
//!
//! 1. **Service ≡ single-study driver** — one study on a one-worker
//!    fleet must produce the same measurement stream, bit-for-bit, as
//!    `run_threaded` at one worker with the same seed. The control
//!    plane must not change the science. Checked on both real
//!    substrates: `ThreadPool` and a loopback `TcpCluster` in
//!    multi-study fleet mode.
//! 2. **Fair share** — two equal-weight studies on a saturated pool
//!    finish trials at a bounded ratio, and a stopped study never
//!    receives a slot.
//! 3. **Restart drill** — kill the service with live studies, recover
//!    from the per-study WALs, and the combined pre/post-kill telemetry
//!    must reconcile to zero duplicated trials *per tenant*, with the
//!    per-study trace summaries agreeing with the service's own
//!    diagnostics.

use std::sync::Arc;
use std::time::Duration;

use hypertune::cluster::{ClusterError, PoolResult};
use hypertune::prelude::*;
use hypertune::registry;
use hypertune::service::BenchResolver;
use serde_json::json;

fn resolver() -> BenchResolver {
    Arc::new(registry::make_bench)
}

fn pool(n: usize) -> ThreadPool<ServiceJob, Eval> {
    ThreadPool::new(n, pool_eval(resolver()))
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hypertune-svc-it-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The parallelism-insensitive fingerprint of a measurement stream:
/// everything but the wall-clock timestamp.
fn keys(ms: &[Measurement]) -> Vec<(Config, usize, u64, u64, u64, u64)> {
    ms.iter()
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

/// Serves one in-process worker session in multi-study fleet mode,
/// mirroring `hypertune-worker`'s `multi_study` branch: every dispatch
/// is a [`ServiceJob`] carrying its own benchmark coordinates.
fn spawn_fleet_worker() -> String {
    spawn_fleet_worker_with_slots(1)
}

fn spawn_fleet_worker_with_slots(slots: usize) -> String {
    use hypertune::cluster::EvalFn;
    use serde::{Deserialize, Value};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let opts = WorkerOptions {
        heartbeat_interval: Duration::from_millis(50),
        once: true,
        slots,
    };
    std::thread::spawn(move || {
        serve_worker(listener, opts, move |_hello: &Value| {
            Ok(Box::new(move |payload: &Value| {
                let job = ServiceJob::from_value(payload).expect("well-formed service dispatch");
                let bench =
                    registry::make_bench(&job.bench, job.bench_seed).expect("registered benchmark");
                let eval =
                    bench.evaluate(&job.job.spec.config, job.job.spec.resource, job.bench_seed);
                (JobStatus::Succeeded, serde_json::to_value(&eval))
            }) as EvalFn)
        })
    });
    addr
}

/// Reference stream: the dedicated single-study threaded driver at one
/// worker, completion order fully determined by the seed.
fn reference_stream(seed: u64, max_evals: usize) -> Vec<Measurement> {
    let bench: Arc<dyn Benchmark> =
        Arc::from(registry::make_bench("counting-ones-small", seed).expect("registered benchmark"));
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let mut method = MethodKind::HyperTune.build(&levels, seed);
    let cfg = ThreadedRunConfig::new(1, max_evals, seed);
    run_threaded(method.as_mut(), bench, &cfg).measurements
}

fn one_worker_spec(seed: u64, max_evals: usize) -> StudySpec {
    StudySpec::new("equiv", "counting-ones-small", MethodKind::HyperTune)
        .with_seed(seed)
        .with_max_evals(max_evals)
        .with_max_in_flight(1)
}

#[test]
fn service_matches_dedicated_driver_on_thread_pool() {
    const SEED: u64 = 7;
    const EVALS: usize = 24;
    let reference = reference_stream(SEED, EVALS);

    let mut svc = TuningService::new(pool(1), resolver(), ServiceConfig::new()).unwrap();
    let h = svc.create_study(one_worker_spec(SEED, EVALS)).unwrap();
    svc.drain().unwrap();

    assert_eq!(svc.status(h), Some(StudyStatus::Completed));
    assert_eq!(
        keys(&reference),
        keys(svc.measurements(h)),
        "the service control plane must not change the study"
    );
}

#[test]
fn service_matches_dedicated_driver_over_tcp() {
    const SEED: u64 = 7;
    const EVALS: usize = 24;
    let reference = reference_stream(SEED, EVALS);

    let addr = spawn_fleet_worker();
    let cluster: TcpCluster<ServiceJob, Eval> = TcpCluster::connect(
        &[addr],
        json!({ "multi_study": true }),
        TcpClusterOptions::default(),
    )
    .expect("loopback connect");
    let mut svc = TuningService::new(cluster, resolver(), ServiceConfig::new()).unwrap();
    let h = svc.create_study(one_worker_spec(SEED, EVALS)).unwrap();
    svc.drain().unwrap();

    assert_eq!(svc.status(h), Some(StudyStatus::Completed));
    assert_eq!(
        keys(&reference),
        keys(svc.measurements(h)),
        "the wire must not change the study either"
    );
}

/// An executor that strips the output off the first result it hands up
/// — what a `TcpCluster` makes of a worker's `Result { status: Ok,
/// output: Null }` frame.
struct OutputlessOnce<E> {
    inner: E,
    fired: bool,
}

impl<J, E: Executor<J, Eval>> Executor<J, Eval> for OutputlessOnce<E> {
    fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        self.inner.submit(job)
    }

    fn next_completion(&mut self) -> Result<PoolResult<J, Eval>, ClusterError> {
        let mut done = self.inner.next_completion()?;
        if !std::mem::replace(&mut self.fired, true) {
            assert_eq!(done.status, JobStatus::Succeeded);
            done.output = None;
        }
        Ok(done)
    }

    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.set_telemetry(telemetry)
    }
}

#[test]
fn outputless_success_is_retried_as_corrupt_by_the_single_study_driver() {
    const SEED: u64 = 7;
    const EVALS: usize = 24;
    let bench: Arc<dyn Benchmark> =
        Arc::from(registry::make_bench("counting-ones-small", SEED).expect("registered benchmark"));
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let eval_bench = Arc::clone(&bench);
    let hostile = OutputlessOnce {
        inner: ThreadPool::new(1, move |job: &ThreadedJob| {
            eval_bench.evaluate(&job.spec.config, job.spec.resource, SEED)
        }),
        fired: false,
    };
    let mut method = MethodKind::HyperTune.build(&levels, SEED);
    let cfg = ThreadedRunConfig::new(1, EVALS, SEED);
    let run = run_distributed(method.as_mut(), bench.space(), &levels, hostile, &cfg);

    assert_eq!(run.total_evals, EVALS, "the retry must preserve the budget");
    assert_eq!((run.n_retries, run.n_quarantined), (1, 0));
    assert_eq!(run.failure_counts.corrupt, 1);
    assert_eq!(
        keys(&reference_stream(SEED, EVALS)),
        keys(&run.measurements),
        "a retried trial re-runs the same job"
    );
}

#[test]
fn outputless_success_in_one_study_leaves_the_other_untouched() {
    const EVALS: usize = 16;
    let hostile = OutputlessOnce {
        inner: pool(1),
        fired: false,
    };
    let mut svc = TuningService::new(hostile, resolver(), ServiceConfig::new()).unwrap();
    // On one worker the first dispatch, hence the hostile result, is a's.
    let a = svc.create_study(one_worker_spec(7, EVALS)).unwrap();
    let b = svc.create_study(one_worker_spec(8, EVALS)).unwrap();
    svc.drain().unwrap();

    let stats = svc.stats();
    let corrupt = |h: StudyHandle| {
        let study = stats.studies.iter().find(|s| s.id == h.id()).unwrap();
        (study.failures.corrupt, study.quarantined)
    };
    assert_eq!(corrupt(a), (1, 0), "the hostile result is a's, retried");
    assert_eq!(corrupt(b), (0, 0));
    for (h, seed) in [(a, 7), (b, 8)] {
        assert_eq!(svc.status(h), Some(StudyStatus::Completed));
        assert_eq!(
            keys(&reference_stream(seed, EVALS)),
            keys(svc.measurements(h)),
            "study seeded {seed} must match a run that never saw the hostile result"
        );
    }
}

#[test]
fn equal_weights_split_a_saturated_pool_fairly() {
    const EVALS: usize = 30;
    let mut svc = TuningService::new(pool(2), resolver(), ServiceConfig::new()).unwrap();
    let spec = |name: &str, seed: u64| {
        StudySpec::new(name, "counting-ones-small", MethodKind::ARandom)
            .with_seed(seed)
            .with_max_evals(EVALS)
            .with_max_in_flight(4)
    };
    let a = svc.create_study(spec("a", 1)).unwrap();
    let b = svc.create_study(spec("b", 2)).unwrap();
    // A stopped tenant must never receive a slot afterwards.
    let c = svc.create_study(spec("c", 3)).unwrap();
    svc.stop_study(c).unwrap();

    // Both live studies want 4 slots each on a 2-worker pool: the pool
    // is saturated and every grant is the scheduler's choice.
    let processed = svc.run_completions(40).unwrap();
    assert_eq!(processed, 40, "two live studies have > 40 trials of work");
    let (done_a, done_b) = (svc.completed(a), svc.completed(b));
    assert_eq!(svc.completed(c), 0, "stopped study got a slot");
    assert!(svc.measurements(c).is_empty());
    let (lo, hi) = (done_a.min(done_b), done_a.max(done_b));
    assert!(
        hi <= 2 * lo,
        "equal weights must finish within 2x of each other: a={done_a} b={done_b}"
    );

    svc.drain().unwrap();
    assert_eq!(svc.status(a), Some(StudyStatus::Completed));
    assert_eq!(svc.status(b), Some(StudyStatus::Completed));
    assert_eq!(svc.status(c), Some(StudyStatus::Stopped));
    assert_eq!(svc.completed(a), EVALS);
    assert_eq!(svc.completed(b), EVALS);
}

#[test]
fn restart_drill_recovers_every_tenant_exactly_once() {
    const STUDIES: u64 = 3;
    const EVALS: usize = 12;
    let dir = unique_dir("restart");
    let spec = |i: u64| {
        StudySpec::new(
            format!("tenant-{i}"),
            "counting-ones-small",
            MethodKind::HyperTune,
        )
        .with_seed(i)
        .with_max_evals(EVALS)
        .with_max_in_flight(2)
    };

    // Phase 1: run three studies partway, then "kill" the service by
    // dropping it with trials still in flight.
    let ring1 = RingBufferSink::new(1 << 16);
    let cfg1 = ServiceConfig::new()
        .with_state_dir(&dir)
        .with_telemetry(Telemetry::new().with_sink(ring1.clone()).build());
    let mut svc = TuningService::new(pool(4), resolver(), cfg1).unwrap();
    for i in 0..STUDIES {
        svc.create_study(spec(i)).unwrap();
    }
    let processed = svc.run_completions(10).unwrap();
    assert_eq!(processed, 10, "the kill must land mid-run");
    drop(svc);

    // Phase 2: a fresh service recovers the state directory and drains
    // the survivors.
    let ring2 = RingBufferSink::new(1 << 16);
    let cfg2 = ServiceConfig::new()
        .with_state_dir(&dir)
        .with_telemetry(Telemetry::new().with_sink(ring2.clone()).build());
    let mut svc = TuningService::new(pool(4), resolver(), cfg2).unwrap();
    let recovered = svc.recover().unwrap();
    assert_eq!(recovered.len() as u64, STUDIES);
    svc.drain().unwrap();

    let stats = svc.stats();
    for h in svc.handles() {
        assert_eq!(svc.status(h), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(h), EVALS);
    }

    // Fold both phases' telemetry into one log and reconcile per
    // tenant: no trial may ever complete twice, in any study.
    let mut records = ring1.snapshot();
    records.extend(ring2.snapshot());
    let per_tenant = TraceSummary::per_tenant(&records);
    for (tenant, summary) in &per_tenant {
        let Some(id) = tenant else { continue };
        assert_eq!(
            summary.duplicated_trials(),
            0,
            "study {id} completed a trial twice:\n{}",
            summary.render()
        );
        // Satellite cross-check: the trace's view of each tenant must
        // agree with the service's own diagnostics.
        let completed: usize = summary.levels.values().map(|f| f.completed).sum();
        let quarantined: usize = summary.levels.values().map(|f| f.quarantined).sum();
        let study = stats
            .studies
            .iter()
            .find(|s| s.id == *id)
            .expect("trace tenant unknown to the service");
        assert_eq!(
            completed, study.completed,
            "study {id}: trace and diagnostics disagree on completions"
        );
        assert_eq!(quarantined, study.quarantined);
        assert_eq!(study.generation, 1, "one restart means generation 1");
    }
    assert_eq!(
        per_tenant.iter().filter(|(t, _)| t.is_some()).count() as u64,
        STUDIES
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scheduler round is one drain (DESIGN.md §17.3): on a saturated
/// multi-slot fleet the driver is the bottleneck, so results pile up
/// while it books and a round carries several of them — one WAL commit
/// covering more than one trial's two records, and a dispatch batch
/// wider than one. Asserted here, in the library, because the perf
/// harness's `TimedExecutor` forwards only the required `Executor`
/// methods and so measures its traced rounds one completion at a time.
#[test]
fn saturated_fleet_rounds_carry_more_than_one_completion() {
    const STUDIES: u64 = 4;
    const EVALS: usize = 400;
    let dir = unique_dir("batched-rounds");
    let addrs: Vec<String> = (0..2).map(|_| spawn_fleet_worker_with_slots(8)).collect();
    let cluster: TcpCluster<ServiceJob, Eval> = TcpCluster::connect(
        &addrs,
        json!({ "multi_study": true }),
        TcpClusterOptions::default(),
    )
    .expect("loopback connect");
    assert_eq!(cluster.n_workers(), 16);
    let telemetry = Telemetry::new().build();
    let config = ServiceConfig::new()
        .with_state_dir(&dir)
        .with_telemetry(telemetry.clone());
    let mut svc = TuningService::new(cluster, resolver(), config).unwrap();
    for i in 0..STUDIES {
        let spec = StudySpec::new(format!("t{i}"), "counting-ones-small", MethodKind::ARandom)
            .with_seed(i)
            .with_max_evals(EVALS)
            .with_max_in_flight(8);
        svc.create_study(spec).unwrap();
    }
    svc.drain().unwrap();
    for h in svc.handles() {
        assert_eq!(svc.status(h), Some(StudyStatus::Completed));
        assert_eq!(svc.completed(h), EVALS);
    }

    let seen = telemetry.snapshot().expect("telemetry is on");
    let groups = seen
        .histogram("wal.group_commit.records")
        .expect("commits were recorded");
    assert!(
        groups.mean() > 2.0,
        "a commit group must span more than one trial: mean {} over {} commits",
        groups.mean(),
        groups.count
    );
    let batches = seen
        .histogram("net.batch_size")
        .expect("dispatch batches were recorded");
    assert!(
        batches.mean() > 1.0,
        "a round must dispatch more than one job: mean {} over {} rounds",
        batches.mean(),
        batches.count
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Smoke-scale TCP rider for the two properties above: fair share and
/// restart recovery also hold when the fleet is a real wire. Two
/// tenants plus a stopped one share a 2-worker loopback fleet; the
/// service is killed mid-run and a fresh service (fresh workers, fresh
/// connections) recovers the state directory and finishes the job.
#[test]
fn fair_share_and_restart_survive_the_wire() {
    const EVALS: usize = 10;
    let dir = unique_dir("tcp-restart");
    let spec = |name: &str, seed: u64| {
        StudySpec::new(name, "counting-ones-small", MethodKind::ARandom)
            .with_seed(seed)
            .with_max_evals(EVALS)
            .with_max_in_flight(2)
    };
    let connect = || -> TcpCluster<ServiceJob, Eval> {
        let addrs: Vec<String> = (0..2).map(|_| spawn_fleet_worker()).collect();
        TcpCluster::connect(
            &addrs,
            json!({ "multi_study": true }),
            TcpClusterOptions::default(),
        )
        .expect("loopback connect")
    };

    let ring1 = RingBufferSink::new(1 << 16);
    let cfg1 = ServiceConfig::new()
        .with_state_dir(&dir)
        .with_telemetry(Telemetry::new().with_sink(ring1.clone()).build());
    let mut svc = TuningService::new(connect(), resolver(), cfg1).unwrap();
    let a = svc.create_study(spec("a", 1)).unwrap();
    let b = svc.create_study(spec("b", 2)).unwrap();
    let c = svc.create_study(spec("c", 3)).unwrap();
    svc.stop_study(c).unwrap();
    let processed = svc.run_completions(8).unwrap();
    assert_eq!(processed, 8, "the kill must land mid-run");
    let (done_a, done_b) = (svc.completed(a), svc.completed(b));
    assert!(
        done_a > 0 && done_b > 0 && done_a.abs_diff(done_b) <= 4,
        "equal weights must share the wire: a={done_a} b={done_b}"
    );
    assert_eq!(svc.completed(c), 0, "stopped study got a slot");
    drop(svc);

    let ring2 = RingBufferSink::new(1 << 16);
    let cfg2 = ServiceConfig::new()
        .with_state_dir(&dir)
        .with_telemetry(Telemetry::new().with_sink(ring2.clone()).build());
    let mut svc = TuningService::new(connect(), resolver(), cfg2).unwrap();
    let recovered = svc.recover().unwrap();
    assert_eq!(recovered.len(), 3);
    svc.drain().unwrap();
    assert_eq!(svc.status(a), Some(StudyStatus::Completed));
    assert_eq!(svc.status(b), Some(StudyStatus::Completed));
    assert_eq!(svc.status(c), Some(StudyStatus::Stopped));
    assert_eq!(svc.completed(a), EVALS);
    assert_eq!(svc.completed(b), EVALS);

    let mut records = ring1.snapshot();
    records.extend(ring2.snapshot());
    for (tenant, summary) in &TraceSummary::per_tenant(&records) {
        let Some(id) = tenant else { continue };
        assert_eq!(
            summary.duplicated_trials(),
            0,
            "study {id} completed a trial twice over the wire:\n{}",
            summary.render()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
