//! Driver-side recorders that wrap public traits from outside:
//! [`TimedExecutor`] around any `Executor`, [`TimedMethod`] around any
//! `Method`. Both are pure pass-throughs — they change no argument, no
//! result and no ordering — and stamp the harness clock around the
//! calls that do work.

use std::sync::{Arc, Mutex};

use hypertune::cluster::{ClusterError, Executor, JobStatus, PoolResult};
use hypertune::core::{JobSpec, Method, MethodContext, Outcome, ThreadedJob};
use hypertune::service::ServiceJob;
use hypertune::telemetry::TelemetryHandle;

use crate::clock::now_ns;

/// `(study, job id, attempt)` — what identifies one dispatch on both
/// sides of the wire.
pub type Key = (u64, u64, u32);

/// Job payloads the harness can identify.
pub trait JobKey {
    fn key(&self) -> Key;
}

impl JobKey for ServiceJob {
    fn key(&self) -> Key {
        (self.study, self.job.spec.id, self.job.attempt as u32)
    }
}

impl JobKey for ThreadedJob {
    fn key(&self) -> Key {
        (0, self.spec.id, self.attempt as u32)
    }
}

/// One `submit` call.
#[derive(Debug, Clone, Copy)]
pub struct SubmitRecord {
    pub key: Key,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One `next_completion` call. `key` is `None` when the call returned
/// an error (quiescence).
#[derive(Debug, Clone, Copy)]
pub struct CompletionRecord {
    pub key: Option<Key>,
    pub status: Option<JobStatus>,
    pub call_ns: u64,
    pub return_ns: u64,
}

/// Everything a [`TimedExecutor`] saw, in call order.
#[derive(Debug, Default)]
pub struct ExecTrace {
    pub submits: Vec<SubmitRecord>,
    pub completions: Vec<CompletionRecord>,
}

/// Records the time spent inside `submit` and `next_completion` of the
/// wrapped executor. Capacity queries are forwarded untimed.
pub struct TimedExecutor<E> {
    inner: E,
    trace: Arc<Mutex<ExecTrace>>,
}

impl<E> TimedExecutor<E> {
    /// Wraps `inner`, recording into `trace` — shared, because the
    /// executor is moved into a driver that never hands it back.
    pub fn new(inner: E, trace: Arc<Mutex<ExecTrace>>) -> Self {
        Self { inner, trace }
    }
}

impl<J: JobKey, O, E: Executor<J, O>> Executor<J, O> for TimedExecutor<E> {
    fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        let key = job.key();
        let start_ns = now_ns();
        let out = self.inner.submit(job);
        let end_ns = now_ns();
        if out.is_ok() {
            self.trace
                .lock()
                .expect("exec trace poisoned")
                .submits
                .push(SubmitRecord {
                    key,
                    start_ns,
                    end_ns,
                });
        }
        out
    }

    fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        let call_ns = now_ns();
        let out = self.inner.next_completion();
        let return_ns = now_ns();
        let (key, status) = match &out {
            Ok(r) => (Some(r.job.key()), Some(r.status)),
            Err(_) => (None, None),
        };
        self.trace
            .lock()
            .expect("exec trace poisoned")
            .completions
            .push(CompletionRecord {
                key,
                status,
                call_ns,
                return_ns,
            });
        out
    }

    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn idle_workers(&self) -> usize {
        self.inner.idle_workers()
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.set_telemetry(telemetry);
    }
}

/// Records the wall time of every suggestion round of the wrapped
/// method, in seconds. Used where no `TuningService` sits in front of
/// the method to report `suggest_p99` itself.
pub struct TimedMethod {
    inner: Box<dyn Method>,
    latencies: Arc<Mutex<Vec<f64>>>,
}

impl TimedMethod {
    pub fn new(inner: Box<dyn Method>) -> (Self, Arc<Mutex<Vec<f64>>>) {
        let latencies = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                inner,
                latencies: Arc::clone(&latencies),
            },
            latencies,
        )
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Method) -> R) -> R {
        let start = now_ns();
        let out = f(self.inner.as_mut());
        let secs = (now_ns() - start) as f64 * 1e-9;
        self.latencies
            .lock()
            .expect("latency log poisoned")
            .push(secs);
        out
    }
}

impl Method for TimedMethod {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
        self.timed(|m| m.next_job(ctx))
    }

    fn next_jobs(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<JobSpec> {
        self.timed(|m| m.next_jobs(ctx, k))
    }

    fn on_result(&mut self, outcome: &Outcome, ctx: &mut MethodContext<'_>) {
        self.inner.on_result(outcome, ctx);
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.inner.set_telemetry(telemetry);
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.inner.set_degraded(degraded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune::cluster::ThreadPool;
    use hypertune::prelude::*;
    use hypertune::service::BenchResolver;

    fn resolver() -> BenchResolver {
        Arc::new(hypertune::registry::make_bench)
    }

    fn pool(n: usize) -> ThreadPool<ServiceJob, Eval> {
        ThreadPool::new(n, pool_eval(resolver()))
    }

    fn job(id: u64) -> ServiceJob {
        let bench = hypertune::registry::make_bench("counting-ones-small", 1).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(id);
        ServiceJob {
            study: 3,
            bench: "counting-ones-small".to_string(),
            bench_seed: 1,
            job: ThreadedJob {
                spec: JobSpec {
                    config: bench.space().sample(&mut rng),
                    level: 0,
                    resource: 1.0,
                    bracket: None,
                    id,
                },
                attempt: 2,
            },
        }
    }

    #[test]
    fn errors_and_capacity_pass_through_unchanged() {
        let trace = Arc::new(Mutex::new(ExecTrace::default()));
        let mut exec = TimedExecutor::new(pool(1), Arc::clone(&trace));
        assert_eq!(exec.n_workers(), 1);
        assert_eq!(exec.idle_workers(), 1);
        assert_eq!(
            exec.next_completion().unwrap_err(),
            ClusterError::Quiescent,
            "nothing in flight"
        );
        exec.submit(job(1)).unwrap();
        assert_eq!(exec.in_flight(), 1);
        assert_eq!(exec.idle_workers(), 0);
        assert_eq!(exec.submit(job(2)).unwrap_err(), ClusterError::NoIdleWorker);
        let done = exec.next_completion().unwrap();
        assert_eq!(done.job.key(), (3, 1, 2));
        assert!(done.is_ok());

        let trace = trace.lock().unwrap();
        // The refused submit is not recorded; the quiescent poll is.
        assert_eq!(trace.submits.len(), 1);
        assert_eq!(trace.submits[0].key, (3, 1, 2));
        assert_eq!(trace.completions.len(), 2);
        assert_eq!(trace.completions[0].key, None);
        assert_eq!(trace.completions[1].key, Some((3, 1, 2)));
        assert!(trace.completions[1].return_ns >= trace.submits[0].start_ns);
    }

    /// Drains one study on a 1-worker pool and fingerprints its stream.
    fn stream<E: Executor<ServiceJob, Eval>>(executor: E) -> Vec<(String, u64)> {
        let mut svc = TuningService::new(executor, resolver(), ServiceConfig::new()).unwrap();
        let h = svc
            .create_study(
                StudySpec::new("s", "counting-ones-small", MethodKind::HyperTune)
                    .with_seed(17)
                    .with_max_evals(40)
                    .with_max_in_flight(1),
            )
            .unwrap();
        svc.drain().unwrap();
        svc.measurements(h)
            .iter()
            .map(|m| (format!("{:?}", m.config), m.value.to_bits()))
            .collect()
    }

    #[test]
    fn one_worker_service_stream_is_identical_through_the_wrapper() {
        let plain = stream(pool(1));
        let trace = Arc::new(Mutex::new(ExecTrace::default()));
        let wrapped = stream(TimedExecutor::new(pool(1), Arc::clone(&trace)));
        assert_eq!(plain.len(), 40);
        assert_eq!(plain, wrapped);
        let trace = trace.lock().unwrap();
        assert_eq!(trace.submits.len(), 40);
        // 40 results plus the final quiescent poll.
        assert_eq!(trace.completions.len(), 41);
    }

    #[test]
    fn timed_method_delegates_and_counts_rounds() {
        let bench = CountingOnes::new(4, 4, 0);
        let levels = ResourceLevels::new(bench.max_resource(), 3);
        let config = RunConfig::new(4, 400.0, 9);
        let mut plain = MethodKind::Asha.build(&levels, 9);
        let want = run(plain.as_mut(), &bench, &config);
        let (mut timed, latencies) = TimedMethod::new(MethodKind::Asha.build(&levels, 9));
        let got = run(&mut timed, &bench, &config);
        assert_eq!(got.total_evals, want.total_evals);
        assert_eq!(got.best_value.to_bits(), want.best_value.to_bits());
        assert!(latencies.lock().unwrap().len() >= got.total_evals);
    }
}
