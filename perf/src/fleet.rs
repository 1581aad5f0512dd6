//! In-process loopback workers and the worker-side recorder.
//!
//! Each worker is one thread inside `serve_worker` on a loopback
//! listener — the real worker accept loop, wire protocol and evaluation
//! thread — running an evaluation closure that belongs to the harness.
//! The closure stamps every evaluation's start and end on the harness
//! clock, which is what fleet utilization, redispatch gaps and the
//! exactly-once check are computed from.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hypertune::benchmarks::Benchmark;
use hypertune::cluster::{serve_worker, EvalFn, JobStatus, WorkerOptions};
use hypertune::core::ThreadedJob;
use hypertune::registry;
use hypertune::service::ServiceJob;
use serde::{Deserialize, Value};

use crate::clock::now_ns;
use crate::duration::DurationModel;

/// How many (dispatch payload, result output) pairs each worker keeps
/// for the wire-codec replay.
const CAPTURED_PAYLOADS: usize = 64;

/// One evaluation as the worker saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalRecord {
    /// Study (tenant) id; 0 on single-study runs.
    pub study: u64,
    /// The study's dispatch id for the job.
    pub job: u64,
    /// Retry attempt (0 = first dispatch).
    pub attempt: u32,
    /// Closure entry, harness nanoseconds.
    pub start_ns: u64,
    /// Closure exit, harness nanoseconds.
    pub end_ns: u64,
}

/// What one worker recorded over its session.
#[derive(Debug, Default)]
pub struct WorkerLog {
    pub evals: Vec<EvalRecord>,
    /// The first few (dispatch payload, result output) pairs, verbatim.
    pub payloads: Vec<(Value, Value)>,
}

/// What the dispatch payloads of a fleet decode as.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// `ServiceJob`s from a `TuningService`: each names its benchmark.
    Service,
    /// `ThreadedJob`s from `run_distributed`: one benchmark per fleet.
    Threaded { bench: String, seed: u64 },
}

/// Shape of a loopback fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub workers: usize,
    /// Dispatch frames each worker accepts in flight.
    pub slots: usize,
    /// `Some((model, seed))` makes every evaluation sleep its modelled
    /// duration; `None` leaves evaluations CPU-bound.
    pub sleep: Option<(DurationModel, u64)>,
    pub kind: JobKind,
}

/// A running fleet. Drop the cluster connected to it (which sends
/// `Shutdown`) before calling [`Fleet::join`].
pub struct Fleet {
    addrs: Vec<String>,
    handles: Vec<JoinHandle<std::io::Result<()>>>,
    logs: Vec<Arc<Mutex<WorkerLog>>>,
}

impl Fleet {
    /// Binds one loopback listener per worker and starts serving.
    pub fn spawn(spec: &FleetSpec) -> std::io::Result<Fleet> {
        let mut fleet = Fleet {
            addrs: Vec::new(),
            handles: Vec::new(),
            logs: Vec::new(),
        };
        for idx in 0..spec.workers {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            fleet.addrs.push(listener.local_addr()?.to_string());
            let log = Arc::new(Mutex::new(WorkerLog::default()));
            fleet.logs.push(Arc::clone(&log));
            let opts = WorkerOptions {
                once: true,
                slots: spec.slots,
                ..WorkerOptions::default()
            };
            let (sleep, kind) = (spec.sleep, spec.kind.clone());
            let handle = std::thread::Builder::new()
                .name(format!("perf-worker-{idx}"))
                .spawn(move || {
                    serve_worker(listener, opts, |_hello: &Value| {
                        Ok(make_eval(kind.clone(), sleep, Arc::clone(&log)))
                    })
                })?;
            fleet.handles.push(handle);
        }
        Ok(fleet)
    }

    /// Worker addresses, in worker-index order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Waits for every worker session to end and returns the logs in
    /// worker-index order.
    pub fn join(self) -> Result<Vec<WorkerLog>, String> {
        for (idx, handle) in self.handles.into_iter().enumerate() {
            handle
                .join()
                .map_err(|_| format!("worker {idx} panicked"))?
                .map_err(|e| format!("worker {idx} accept loop failed: {e}"))?;
        }
        Ok(self
            .logs
            .iter()
            .map(|log| std::mem::take(&mut *log.lock().expect("worker log poisoned")))
            .collect())
    }
}

/// Decoded coordinates of one dispatch.
struct Decoded {
    study: u64,
    job: ThreadedJob,
    bench: Arc<dyn Benchmark>,
    bench_seed: u64,
}

/// Builds the evaluation closure for one worker session.
fn make_eval(
    kind: JobKind,
    sleep: Option<(DurationModel, u64)>,
    log: Arc<Mutex<WorkerLog>>,
) -> EvalFn {
    // Benchmark instances per (name, seed), as the shipped worker
    // binary caches them.
    let cache: Mutex<BTreeMap<(String, u64), Arc<dyn Benchmark>>> = Mutex::new(BTreeMap::new());
    let resolve = move |name: &str, seed: u64| -> Option<Arc<dyn Benchmark>> {
        let mut cache = cache.lock().expect("bench cache poisoned");
        if let Some(b) = cache.get(&(name.to_string(), seed)) {
            return Some(Arc::clone(b));
        }
        let b: Arc<dyn Benchmark> = Arc::from(registry::make_bench(name, seed)?);
        cache.insert((name.to_string(), seed), Arc::clone(&b));
        Some(b)
    };
    let decode = move |payload: &Value| -> Option<Decoded> {
        match &kind {
            JobKind::Service => {
                let job = ServiceJob::from_value(payload).ok()?;
                Some(Decoded {
                    study: job.study,
                    bench: resolve(&job.bench, job.bench_seed)?,
                    bench_seed: job.bench_seed,
                    job: job.job,
                })
            }
            JobKind::Threaded { bench, seed } => Some(Decoded {
                study: 0,
                bench: resolve(bench, *seed)?,
                bench_seed: *seed,
                job: ThreadedJob::from_value(payload).ok()?,
            }),
        }
    };
    Box::new(move |payload: &Value| {
        let start_ns = now_ns();
        let Some(d) = decode(payload) else {
            return (JobStatus::Errored, Value::Null);
        };
        let eval = d
            .bench
            .evaluate(&d.job.spec.config, d.job.spec.resource, d.bench_seed);
        if let Some((model, seed)) = sleep {
            let secs = model.sleep_secs(eval.cost, seed, d.study, d.job.spec.id);
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
        let output = serde_json::to_value(&eval);
        let mut log = log.lock().expect("worker log poisoned");
        if log.payloads.len() < CAPTURED_PAYLOADS {
            log.payloads.push((payload.clone(), output.clone()));
        }
        log.evals.push(EvalRecord {
            study: d.study,
            job: d.job.spec.id,
            attempt: d.job.attempt as u32,
            start_ns,
            end_ns: now_ns(),
        });
        (JobStatus::Succeeded, output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune::benchmarks::Eval;
    use hypertune::cluster::{TcpCluster, TcpClusterOptions};
    use hypertune::core::JobSpec;
    use rand::SeedableRng;

    fn job(study: u64, id: u64) -> ServiceJob {
        let bench = registry::make_bench("counting-ones-small", 5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(id);
        ServiceJob {
            study,
            bench: "counting-ones-small".to_string(),
            bench_seed: 5,
            job: ThreadedJob {
                spec: JobSpec {
                    config: bench.space().sample(&mut rng),
                    level: 0,
                    resource: 1.0,
                    bracket: None,
                    id,
                },
                attempt: 0,
            },
        }
    }

    /// Pushes `jobs` through a one-worker fleet, one at a time.
    fn serve(sleep: Option<(DurationModel, u64)>, jobs: &[ServiceJob]) -> (Vec<Eval>, WorkerLog) {
        let fleet = Fleet::spawn(&FleetSpec {
            workers: 1,
            slots: 1,
            sleep,
            kind: JobKind::Service,
        })
        .unwrap();
        let mut cluster: TcpCluster<ServiceJob, Eval> = TcpCluster::connect(
            fleet.addrs(),
            serde_json::json!({}),
            TcpClusterOptions::default(),
        )
        .unwrap();
        let mut outputs = Vec::new();
        for job in jobs {
            cluster.submit(job.clone()).unwrap();
            let done = cluster.next_completion().unwrap();
            assert!(done.is_ok());
            outputs.push(done.output.unwrap());
        }
        drop(cluster);
        let mut logs = fleet.join().unwrap();
        (outputs, logs.remove(0))
    }

    #[test]
    fn recorder_keeps_one_ordered_record_and_payload_per_evaluation() {
        let jobs = [job(2, 1), job(2, 2), job(3, 1)];
        let (outputs, log) = serve(None, &jobs);
        let keys: Vec<_> = log.evals.iter().map(|e| (e.study, e.job)).collect();
        assert_eq!(keys, vec![(2, 1), (2, 2), (3, 1)]);
        for pair in log.evals.windows(2) {
            assert!(pair[0].start_ns <= pair[0].end_ns && pair[0].end_ns <= pair[1].start_ns);
        }
        // What the worker computed is what the benchmark computes, and
        // the captured payloads are the frames' own.
        let bench = registry::make_bench("counting-ones-small", 5).unwrap();
        for (job, (got, (payload, output))) in jobs.iter().zip(outputs.iter().zip(&log.payloads)) {
            let want = bench.evaluate(&job.job.spec.config, 1.0, 5);
            assert_eq!(*got, want);
            assert_eq!(*payload, serde_json::to_value(job));
            assert_eq!(*output, serde_json::to_value(&want));
        }
    }

    #[test]
    fn sleeping_worker_holds_its_slot_for_the_modelled_time() {
        let model = DurationModel::Uniform { lo: 40.0, hi: 60.0 };
        let jobs = [job(1, 1), job(1, 2)];
        let (outputs, log) = serve(Some((model, 9)), &jobs);
        for (e, eval) in log.evals.iter().zip(&outputs) {
            let modelled = model.sleep_secs(eval.cost, 9, e.study, e.job);
            let held = (e.end_ns - e.start_ns) as f64 * 1e-9;
            assert!(modelled >= 0.004, "the model must ask for a visible sleep");
            assert!(held >= modelled, "held {held}s, modelled {modelled}s");
        }
    }
}
