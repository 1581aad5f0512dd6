//! The driver-facing [`Executor`] trait and a real threaded executor.
//!
//! [`ThreadPool`] runs an evaluation function on `n` OS threads fed by a
//! crossbeam channel. Tuning methods drive it like [`crate::SimCluster`]
//! — submit up to `n` jobs, then pull completions — so the schedulers in
//! `hypertune-core` are substrate-agnostic. Used by the runnable examples
//! and the service's in-process fleet.
//!
//! The pool injects no faults and has no churn: injected failures, worker
//! churn and orphan leases are the simulator's. An evaluation that panics
//! is caught on its thread and reported as [`JobStatus::Crashed`], so the
//! slot frees and the thread keeps serving.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use hypertune_telemetry::TelemetryHandle;

use crate::sim::{ClusterError, JobStatus};

/// A completed job from the pool.
#[derive(Debug)]
pub struct PoolResult<J, O> {
    /// The submitted payload.
    pub job: J,
    /// The evaluation function's output. `None` when the job failed
    /// before producing one (crash, error, hang); `Some` for successes
    /// and for corrupt results (present but flagged unusable via
    /// [`PoolResult::status`]).
    pub output: Option<O>,
    /// How the job ended; anything but `Succeeded` is a failure.
    pub status: JobStatus,
    /// Index of the worker thread that ran the job.
    pub worker: usize,
}

impl<J, O> PoolResult<J, O> {
    /// `true` when the job produced a usable result.
    pub fn is_ok(&self) -> bool {
        !self.status.is_failure()
    }
}

/// The substrate-agnostic driver surface: what a runner needs from any
/// real executor — submit up to capacity, then pull completions.
///
/// [`ThreadPool`] (OS threads in this process) and
/// [`crate::net::TcpCluster`] (worker processes over sockets) both
/// implement it, so the threaded runner's driver loops are written once
/// and run unchanged on either. The simulator keeps its own richer
/// interface (virtual time, receipts) — its callers need the clock.
///
/// Contract, shared with [`crate::SimCluster`]:
/// - `submit` errors with [`ClusterError::NoIdleWorker`] at capacity;
/// - `next_completion` blocks for the next finished/failed/orphaned job
///   and errors with [`ClusterError::Quiescent`] when nothing is in
///   flight and nothing can surface later (orphan leases pending count
///   as "can surface");
/// - `drain_completions` is the same wait followed by a sweep: it blocks
///   for the first completion only, then takes what is already there;
/// - orphaned jobs hold no capacity slot while they wait out a lease.
pub trait Executor<J, O> {
    /// Submits a job; errors when every worker is already busy.
    fn submit(&mut self, job: J) -> Result<(), ClusterError>;

    /// Blocks until the next job finishes (or orphans), or reports
    /// [`ClusterError::Quiescent`].
    fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError>;

    /// Blocks for the first completion, then appends to `out`, in
    /// arrival order, every completion that is already ready, up to
    /// `max` in total. Returns how many were appended — at least one
    /// unless `max` is 0 — or [`ClusterError::Quiescent`] with nothing
    /// appended, on the same terms as `next_completion`. What it leaves
    /// behind stays queued for the next call.
    ///
    /// This is a driver's scheduler round: one wake-up, everything that
    /// arrived meanwhile. The provided implementation takes exactly one
    /// completion, so an executor that only forwards the required
    /// methods stays correct; [`ThreadPool`] and
    /// [`crate::net::TcpCluster`] sweep natively.
    fn drain_completions(
        &mut self,
        out: &mut Vec<PoolResult<J, O>>,
        max: usize,
    ) -> Result<usize, ClusterError> {
        if max == 0 {
            return Ok(0);
        }
        out.push(self.next_completion()?);
        Ok(1)
    }

    /// Current logical capacity (number of live workers).
    fn n_workers(&self) -> usize;

    /// Jobs submitted but not yet returned (orphans excluded).
    fn in_flight(&self) -> usize;

    /// Free capacity right now.
    fn idle_workers(&self) -> usize {
        self.n_workers().saturating_sub(self.in_flight())
    }

    /// Attaches a telemetry handle (substrates emit their own counters
    /// and membership events through it).
    fn set_telemetry(&mut self, telemetry: TelemetryHandle);
}

enum Message<J> {
    Run(J),
    Shutdown,
}

/// A fixed pool of worker threads evaluating jobs with a shared function.
pub struct ThreadPool<J, O> {
    job_tx: Sender<Message<J>>,
    result_rx: Receiver<PoolResult<J, O>>,
    handles: Vec<JoinHandle<()>>,
    in_flight: usize,
}

impl<J, O> ThreadPool<J, O>
where
    J: Send + 'static,
    O: Send + 'static,
{
    /// Spawns `n_workers` threads running `eval` on submitted jobs.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0`.
    pub fn new<F>(n_workers: usize, eval: F) -> Self
    where
        F: Fn(&J) -> O + Send + Sync + 'static,
    {
        assert!(n_workers > 0, "pool needs at least one worker");
        let (job_tx, job_rx) = unbounded::<Message<J>>();
        let (result_tx, result_rx) = unbounded::<PoolResult<J, O>>();
        let eval = Arc::new(eval);
        let handles = (0..n_workers)
            .map(|worker| {
                let job_rx = job_rx.clone();
                let result_tx = result_tx.clone();
                let eval = Arc::clone(&eval);
                std::thread::spawn(move || {
                    while let Ok(Message::Run(job)) = job_rx.recv() {
                        // A panic must not take the thread down with its
                        // job unreported: the driver would wait forever.
                        let run = std::panic::AssertUnwindSafe(|| eval(&job));
                        let output = std::panic::catch_unwind(run).ok();
                        let status = match output {
                            Some(_) => JobStatus::Succeeded,
                            None => JobStatus::Crashed,
                        };
                        // The receiver may be gone during shutdown; that's
                        // fine, just stop.
                        if result_tx
                            .send(PoolResult {
                                job,
                                output,
                                status,
                                worker,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                })
            })
            .collect();
        Self {
            job_tx,
            result_rx,
            handles,
            in_flight: 0,
        }
    }
}

impl<J, O> Executor<J, O> for ThreadPool<J, O> {
    fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        if self.in_flight >= self.handles.len() {
            return Err(ClusterError::NoIdleWorker);
        }
        self.job_tx
            .send(Message::Run(job))
            .expect("workers outlive the pool handle");
        self.in_flight += 1;
        Ok(())
    }

    fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        let mut one = Vec::with_capacity(1);
        self.drain_completions(&mut one, 1)?;
        Ok(one.pop().expect("a successful drain yields a completion"))
    }

    /// Blocks for the first thread result, then sweeps the ones already
    /// reported, in the order the threads reported them.
    fn drain_completions(
        &mut self,
        out: &mut Vec<PoolResult<J, O>>,
        max: usize,
    ) -> Result<usize, ClusterError> {
        if max == 0 {
            return Ok(0);
        }
        if self.in_flight == 0 {
            return Err(ClusterError::Quiescent);
        }
        let first = self
            .result_rx
            .recv()
            .expect("workers outlive the pool handle");
        out.push(first);
        let mut taken = 1;
        while taken < max {
            let Ok(r) = self.result_rx.try_recv() else {
                break;
            };
            out.push(r);
            taken += 1;
        }
        self.in_flight -= taken;
        Ok(taken)
    }

    fn n_workers(&self) -> usize {
        self.handles.len()
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// A no-op: the pool has no events of its own to report.
    fn set_telemetry(&mut self, _telemetry: TelemetryHandle) {}
}

impl<J, O> Drop for ThreadPool<J, O> {
    fn drop(&mut self) {
        for _ in 0..self.handles.len() {
            // Ignore send failures: workers may already have exited.
            let _ = self.job_tx.send(Message::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn evaluates_jobs_in_parallel() {
        let mut pool = ThreadPool::new(4, |j: &u64| j * 2);
        for j in 0..4u64 {
            pool.submit(j).unwrap();
        }
        let mut outs = Vec::new();
        while let Ok(r) = pool.next_completion() {
            assert!(r.is_ok());
            assert_eq!(r.output, Some(r.job * 2));
            outs.push(r.output.unwrap());
        }
        outs.sort_unstable();
        assert_eq!(outs, vec![0, 2, 4, 6]);
    }

    #[test]
    fn rejects_oversubscription() {
        let mut pool = ThreadPool::new(2, |_: &u8| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        pool.submit(1).unwrap();
        pool.submit(2).unwrap();
        assert_eq!(pool.submit(3), Err(ClusterError::NoIdleWorker));
        pool.next_completion().unwrap();
        assert!(pool.submit(3).is_ok());
        while pool.next_completion().is_ok() {}
    }

    #[test]
    fn next_completion_quiescent_when_idle() {
        let mut pool: ThreadPool<u8, u8> = ThreadPool::new(1, |j| *j);
        assert_eq!(pool.next_completion().unwrap_err(), ClusterError::Quiescent);
    }

    /// Spins until `n` thread results sit in the pool's channel — the
    /// only way to know, without consuming them, that `n` jobs are
    /// *ready* rather than merely finished evaluating.
    fn wait_ready<J, O>(pool: &ThreadPool<J, O>, n: usize) {
        while pool.result_rx.len() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn drain_takes_everything_ready_up_to_max() {
        let mut pool = ThreadPool::new(8, |j: &u64| j * 2);
        let mut out = Vec::new();
        assert_eq!(
            pool.drain_completions(&mut out, usize::MAX).unwrap_err(),
            ClusterError::Quiescent,
            "nothing submitted, nothing ready"
        );
        for j in 0..8u64 {
            pool.submit(j).unwrap();
        }
        wait_ready(&pool, 8);
        assert_eq!(
            pool.drain_completions(&mut out, 0),
            Ok(0),
            "max 0 takes none"
        );
        assert_eq!(pool.drain_completions(&mut out, usize::MAX), Ok(8));
        assert_eq!((pool.in_flight(), pool.idle_workers()), (0, 8));
        let mut jobs: Vec<u64> = out.iter().map(|r| r.job).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (0..8).collect::<Vec<_>>());
        assert!(out.iter().all(|r| r.output == Some(r.job * 2)));

        // A bound splits the same batch across calls and loses nothing;
        // `out` is appended to, never cleared.
        for j in 8..16u64 {
            pool.submit(j).unwrap();
        }
        wait_ready(&pool, 8);
        assert_eq!(pool.drain_completions(&mut out, 3), Ok(3));
        assert_eq!((pool.in_flight(), pool.idle_workers()), (5, 3));
        assert_eq!(pool.drain_completions(&mut out, usize::MAX), Ok(5));
        assert_eq!((pool.in_flight(), pool.idle_workers()), (0, 8));
        assert_eq!(out.len(), 16);
        assert_eq!(
            pool.drain_completions(&mut out, usize::MAX).unwrap_err(),
            ClusterError::Quiescent
        );
        assert_eq!(out.len(), 16, "a quiescent drain appends nothing");
    }

    #[test]
    fn drain_blocks_for_the_first_completion_only() {
        // One job is slow, one never finishes before the drain returns:
        // the drain must come back with the first, not wait for both.
        let (release_tx, release_rx) = unbounded::<()>();
        let mut pool = ThreadPool::new(2, move |j: &u8| {
            if *j == 1 {
                let _ = release_rx.recv();
            }
            *j
        });
        pool.submit(0).unwrap();
        pool.submit(1).unwrap();
        let mut out = Vec::new();
        assert_eq!(pool.drain_completions(&mut out, usize::MAX), Ok(1));
        assert_eq!(out[0].job, 0);
        assert_eq!(pool.in_flight(), 1);
        release_tx.send(()).unwrap();
        assert_eq!(pool.next_completion().unwrap().job, 1);
    }

    #[test]
    fn all_workers_used_under_load() {
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        let mut pool = ThreadPool::new(3, |_: &usize| {
            SEEN.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let mut done = 0;
        let mut submitted = 0;
        while done < 30 {
            while submitted < 30 && pool.submit(submitted).is_ok() {
                submitted += 1;
            }
            if pool.next_completion().is_ok() {
                done += 1;
            }
        }
        assert_eq!(SEEN.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let pool = ThreadPool::new(2, |j: &u8| *j);
        drop(pool); // must not hang or panic
    }

    #[test]
    fn pipeline_keeps_workers_busy() {
        // A submit-on-complete loop should process many jobs with a small
        // pool without deadlocking.
        let mut pool = ThreadPool::new(2, |j: &u32| j + 1);
        pool.submit(0).unwrap();
        pool.submit(1).unwrap();
        let mut completed = 0;
        let mut next_job = 2;
        while completed < 50 {
            let r = pool.next_completion().unwrap();
            assert_eq!(r.output, Some(r.job + 1));
            completed += 1;
            if next_job < 50 {
                pool.submit(next_job).unwrap();
                next_job += 1;
            }
        }
    }

    #[test]
    fn crashed_jobs_report_failure_without_output() {
        // An evaluation that panics is the pool's one failure: the thread
        // catches it, reports the job crashed with no output, and serves on.
        let mut pool = ThreadPool::new(1, |j: &u8| {
            assert!(*j != 7, "evaluation blew up");
            *j
        });
        pool.submit(7).unwrap();
        let r = pool.next_completion().unwrap();
        assert_eq!((r.status, r.output), (JobStatus::Crashed, None));
        assert!(!r.is_ok());
        assert_eq!(pool.idle_workers(), 1, "the slot is free for a retry");
        pool.submit(8).unwrap();
        assert_eq!(pool.next_completion().unwrap().output, Some(8));
    }
}
