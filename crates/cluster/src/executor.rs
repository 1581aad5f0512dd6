//! A real threaded executor with the same submit/complete contract as the
//! simulator.
//!
//! [`ThreadPool`] runs an evaluation function on `n` OS threads fed by a
//! crossbeam channel. Tuning methods drive it exactly like
//! [`crate::SimCluster`] — submit up to `n` jobs, then pull completions —
//! so the schedulers in `hypertune-core` are substrate-agnostic. Used by
//! the runnable examples to demonstrate genuinely parallel tuning.
//!
//! Fault injection mirrors the simulator: a [`FaultModel`] attached with
//! [`ThreadPool::with_faults`] is drawn from on the *driver* thread at
//! submission (so the fault sequence is deterministic in submission order,
//! independent of thread scheduling), and the verdict travels with the job
//! to surface in [`PoolResult::status`]. Failed jobs carry no output.
//! An evaluation that panics is caught on its thread and reported as
//! [`JobStatus::Crashed`], so the slot frees and the thread keeps serving.
//! Since OS threads cannot be safely preempted, a
//! [`Hang`](crate::fault::Fault::Hang) here behaves as a crash: the job is
//! abandoned rather than stretched.
//!
//! Elastic membership ([`ThreadPool::with_membership`]) also mirrors the
//! simulator, with wall-clock semantics: scheduled event times are
//! seconds since pool construction. A worker-level crash abandons the
//! submitted job — it never reaches a thread — and surfaces it as
//! [`JobStatus::Orphaned`] once its lease (wall seconds) expires; crashed
//! capacity optionally rejoins later as a fresh worker id. Scheduled
//! leaves drain gracefully (capacity shrinks immediately, but a running
//! OS thread cannot be preempted, so its job still completes); scheduled
//! joins spawn real new threads.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hypertune_telemetry::{Event, TelemetryHandle};

use crate::fault::{Fault, FaultModel};
use crate::membership::{ChurnState, MembershipEvent, MembershipPlan};
use crate::sim::{fault_kind, ClusterError, JobStatus};

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
    Run(J, JobStatus),
    Shutdown,
}

/// An abandoned job whose worker died: held until its lease expires,
/// then surfaced through `next_completion` as [`JobStatus::Orphaned`].
struct Orphan<J> {
    job: J,
    worker: usize,
    deadline: Instant,
}

/// Elastic-membership runtime state for the pool (wall-clock time base).
struct PoolMembership<J> {
    churn: ChurnState,
    started: Instant,
    /// Orphans in deadline order (leases are a constant offset from
    /// monotone submission times).
    orphans: VecDeque<Orphan<J>>,
    /// Wall deadlines at which crashed capacity rejoins.
    rejoins: VecDeque<Instant>,
}

/// A pool of worker threads evaluating jobs with a shared function;
/// fixed-size unless a [`MembershipPlan`] makes it elastic.
pub struct ThreadPool<J, O> {
    job_tx: Sender<Message<J>>,
    job_rx: Receiver<Message<J>>,
    result_tx: Sender<PoolResult<J, O>>,
    result_rx: Receiver<PoolResult<J, O>>,
    eval: Arc<dyn Fn(&J) -> O + Send + Sync>,
    handles: Vec<JoinHandle<()>>,
    /// Logical capacity: how many jobs may be in flight at once.
    capacity: usize,
    /// Notional ids of live workers; the top of the stack is the next
    /// victim of a leave or crash.
    alive_ids: Vec<usize>,
    next_worker_id: usize,
    in_flight: usize,
    faults: FaultModel,
    membership: Option<PoolMembership<J>>,
    telemetry: TelemetryHandle,
}

impl<J, O> ThreadPool<J, O>
where
    J: Send + Clone + 'static,
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
        let mut pool = Self {
            job_tx,
            job_rx,
            result_tx,
            result_rx,
            eval: Arc::new(eval),
            handles: Vec::new(),
            capacity: 0,
            alive_ids: Vec::new(),
            next_worker_id: 0,
            in_flight: 0,
            faults: FaultModel::none(),
            membership: None,
            telemetry: TelemetryHandle::disabled(),
        };
        for _ in 0..n_workers {
            pool.spawn_worker();
        }
        pool
    }

    /// Spawns one more worker thread with a fresh id and grows capacity.
    fn spawn_worker(&mut self) -> usize {
        let worker = self.next_worker_id;
        self.next_worker_id += 1;
        let job_rx = self.job_rx.clone();
        let result_tx = self.result_tx.clone();
        let eval = Arc::clone(&self.eval);
        self.handles.push(std::thread::spawn(move || {
            while let Ok(Message::Run(job, mut status)) = job_rx.recv() {
                // Doomed jobs are abandoned without evaluating:
                // the real work died with the (simulated) worker.
                // Corrupt jobs evaluate — the output exists, it
                // just must be discarded by the driver.
                let output = match status {
                    JobStatus::Succeeded | JobStatus::Corrupt => {
                        // A panic must not take the thread down with its
                        // job unreported: the driver would wait forever.
                        let run = std::panic::AssertUnwindSafe(|| eval(&job));
                        let out = std::panic::catch_unwind(run).ok();
                        if out.is_none() {
                            status = JobStatus::Crashed;
                        }
                        out
                    }
                    _ => None,
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
        }));
        self.capacity += 1;
        self.alive_ids.push(worker);
        worker
    }

    /// Attaches a fault model; each subsequent submission draws one
    /// (possible) fault from it.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an elastic membership plan (see the module docs for the
    /// wall-clock semantics). A [`MembershipPlan::static_plan`] changes
    /// nothing and consumes no randomness.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`MembershipPlan::validate`].
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        self.membership = Some(PoolMembership {
            churn: ChurnState::new(plan),
            started: Instant::now(),
            orphans: VecDeque::new(),
            rejoins: VecDeque::new(),
        });
        self
    }

    /// Applies scheduled membership events and crash rejoins that are due
    /// at the current wall clock.
    fn apply_due_membership(&mut self) {
        enum Due {
            Event(MembershipEvent),
            Rejoin,
        }
        if self.membership.is_none() {
            return;
        }
        loop {
            let now = Instant::now();
            // Pull one due item at a time so membership isn't borrowed
            // while applying it (applying may spawn threads on `self`).
            let due = {
                let m = self.membership.as_mut().expect("checked above");
                let elapsed = now.duration_since(m.started).as_secs_f64();
                if let Some(event) = m.churn.pop_due_event(elapsed) {
                    Some(Due::Event(event))
                } else if m.rejoins.front().is_some_and(|&deadline| deadline <= now) {
                    m.rejoins.pop_front();
                    Some(Due::Rejoin)
                } else {
                    None
                }
            };
            match due {
                None => return,
                Some(Due::Rejoin) => {
                    let worker = self.spawn_worker();
                    let n_alive = self.capacity;
                    self.telemetry
                        .emit_now_with(|| Event::WorkerJoined { worker, n_alive });
                }
                Some(Due::Event(MembershipEvent::Join { count, .. })) => {
                    for _ in 0..count {
                        let worker = self.spawn_worker();
                        let n_alive = self.capacity;
                        self.telemetry
                            .emit_now_with(|| Event::WorkerJoined { worker, n_alive });
                    }
                }
                Some(Due::Event(MembershipEvent::Leave { count, .. })) => {
                    // Graceful drain: capacity shrinks immediately, but a
                    // running OS thread cannot be preempted, so an
                    // in-flight job on the departing worker still
                    // completes (documented divergence from the sim,
                    // which orphans it).
                    for _ in 0..count {
                        if self.capacity <= 1 {
                            break;
                        }
                        self.capacity -= 1;
                        let worker = self.alive_ids.pop().unwrap_or(0);
                        let n_alive = self.capacity;
                        self.telemetry
                            .emit_now_with(|| Event::WorkerLeft { worker, n_alive });
                    }
                }
            }
        }
    }

    /// Attaches a telemetry handle; drawn faults are reported as
    /// [`Event::FaultInjected`], stamped with the handle's own clock
    /// (this substrate has no virtual time). The default (disabled)
    /// handle makes this a no-op.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// Current logical capacity (number of live workers).
    pub fn n_workers(&self) -> usize {
        self.capacity
    }

    /// Number of jobs submitted but not yet returned (orphans excluded:
    /// their worker is gone, so they hold no slot).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Number of free workers (pool capacity minus in-flight jobs).
    pub fn idle_workers(&self) -> usize {
        self.capacity.saturating_sub(self.in_flight)
    }

    /// Submits a job; errors when every worker is already busy, mirroring
    /// [`crate::SimCluster::submit`].
    ///
    /// With an elastic membership plan, due joins/leaves are applied
    /// first, and the dispatch may kill its worker: the job then never
    /// reaches a thread and is orphaned until its lease expires.
    pub fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        self.apply_due_membership();
        if self.in_flight >= self.capacity {
            return Err(ClusterError::NoIdleWorker);
        }
        let drawn = self.faults.draw();
        if let Some(fault) = &drawn {
            let kind = fault_kind(fault);
            self.telemetry
                .emit_now_with(|| Event::FaultInjected { kind });
        }
        let status = match drawn {
            None => JobStatus::Succeeded,
            Some(Fault::Crash { .. }) | Some(Fault::Hang { .. }) => JobStatus::Crashed,
            Some(Fault::Error) => JobStatus::Errored,
            Some(Fault::Corrupt) => JobStatus::Corrupt,
        };
        // Worker-level crash: drawn after the job fault (same order as the
        // simulator, so fault sequences line up across substrates). The
        // draw is consumed even when it cannot apply, keeping churn
        // deterministic; it never kills the last worker.
        let crashed = self
            .membership
            .as_mut()
            .and_then(|m| m.churn.draw_worker_crash())
            .filter(|_| self.capacity > 1)
            .is_some();
        if crashed {
            self.capacity -= 1;
            let worker = self.alive_ids.pop().unwrap_or(0);
            let n_alive = self.capacity;
            let now = Instant::now();
            let m = self.membership.as_mut().expect("crash implies membership");
            let lease = Duration::from_secs_f64(m.churn.plan().lease_timeout);
            m.orphans.push_back(Orphan {
                job,
                worker,
                deadline: now + lease,
            });
            if let Some(rejoin) = m.churn.plan().rejoin_after {
                m.rejoins.push_back(now + Duration::from_secs_f64(rejoin));
            }
            self.telemetry
                .emit_now_with(|| Event::WorkerLeft { worker, n_alive });
            // The job never reaches a thread; it surfaces as Orphaned from
            // `next_completion` once the lease runs out.
            return Ok(());
        }
        self.job_tx
            .send(Message::Run(job, status))
            .expect("workers outlive the pool handle");
        self.in_flight += 1;
        Ok(())
    }

    /// Blocks until the next job finishes; returns
    /// [`ClusterError::Quiescent`] when nothing is in flight and no
    /// orphan lease is pending (mirroring
    /// [`crate::SimCluster::next_completion`] and its loop invariant).
    /// This is [`drain_completions`](Self::drain_completions) with
    /// `max = 1`.
    pub fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        let mut one = Vec::with_capacity(1);
        self.drain_completions(&mut one, 1)?;
        Ok(one.pop().expect("a successful drain yields a completion"))
    }

    /// Blocks for the first completion, then appends to `out` every
    /// completion already ready — orphans whose lease has run out first,
    /// then thread results in the order the threads reported them — up
    /// to `max` in total; returns how many it appended.
    /// [`ClusterError::Quiescent`] on the same terms as
    /// [`next_completion`](Self::next_completion).
    pub fn drain_completions(
        &mut self,
        out: &mut Vec<PoolResult<J, O>>,
        max: usize,
    ) -> Result<usize, ClusterError> {
        if max == 0 {
            return Ok(0);
        }
        let before = out.len();
        loop {
            self.apply_due_membership();
            let now = Instant::now();
            // Reap orphans whose lease has expired.
            if let Some(m) = &mut self.membership {
                while out.len() - before < max
                    && m.orphans.front().is_some_and(|o| o.deadline <= now)
                {
                    let o = m.orphans.pop_front().expect("front checked");
                    out.push(PoolResult {
                        job: o.job,
                        output: None,
                        status: JobStatus::Orphaned,
                        worker: o.worker,
                    });
                }
            }
            // Sweep what the threads have already reported.
            while out.len() - before < max {
                let Ok(r) = self.result_rx.try_recv() else {
                    break;
                };
                self.in_flight -= 1;
                out.push(r);
            }
            if out.len() > before {
                return Ok(out.len() - before);
            }
            let orphan_deadline = self
                .membership
                .as_ref()
                .and_then(|m| m.orphans.front().map(|o| o.deadline));
            let rejoin_deadline = self
                .membership
                .as_ref()
                .and_then(|m| m.rejoins.front().copied());
            if self.in_flight > 0 {
                // Wait for a thread result, but wake at the next membership
                // deadline so orphans/rejoins aren't starved by a long job.
                let wake = [orphan_deadline, rejoin_deadline]
                    .into_iter()
                    .flatten()
                    .min();
                let r = match wake {
                    None => Some(
                        self.result_rx
                            .recv()
                            .expect("workers outlive the pool handle"),
                    ),
                    Some(deadline) => {
                        match self
                            .result_rx
                            .recv_timeout(deadline.saturating_duration_since(now))
                        {
                            Ok(r) => Some(r),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => {
                                panic!("workers outlive the pool handle")
                            }
                        }
                    }
                };
                if let Some(r) = r {
                    self.in_flight -= 1;
                    out.push(r);
                }
                // Loop once more: sweep whatever else landed meanwhile.
                continue;
            }
            // Nothing on a thread: only an orphan lease can still produce a
            // completion. Sleep to its deadline rather than spinning.
            match orphan_deadline {
                Some(deadline) => std::thread::sleep(deadline.saturating_duration_since(now)),
                None => return Err(ClusterError::Quiescent),
            }
        }
    }
}

impl<J, O> Executor<J, O> for ThreadPool<J, O>
where
    J: Send + Clone + 'static,
    O: Send + 'static,
{
    fn submit(&mut self, job: J) -> Result<(), ClusterError> {
        ThreadPool::submit(self, job)
    }

    fn next_completion(&mut self) -> Result<PoolResult<J, O>, ClusterError> {
        ThreadPool::next_completion(self)
    }

    fn drain_completions(
        &mut self,
        out: &mut Vec<PoolResult<J, O>>,
        max: usize,
    ) -> Result<usize, ClusterError> {
        ThreadPool::drain_completions(self, out, max)
    }

    fn n_workers(&self) -> usize {
        ThreadPool::n_workers(self)
    }

    fn in_flight(&self) -> usize {
        ThreadPool::in_flight(self)
    }

    fn idle_workers(&self) -> usize {
        ThreadPool::idle_workers(self)
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        ThreadPool::set_telemetry(self, telemetry)
    }
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
    use crate::fault::FaultSpec;
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
    fn drain_surfaces_a_due_orphan_ahead_of_thread_results() {
        // crash_prob 1.0 on two workers: the first dispatch kills its
        // worker (orphan, lease of a nanosecond), the second cannot (the
        // last worker is never killed) and runs.
        let plan = MembershipPlan::worker_crashes(1.0, None, 3).with_lease_timeout(1e-9);
        let mut pool = ThreadPool::new(2, |j: &u32| j + 1).with_membership(plan);
        pool.submit(10).unwrap();
        pool.submit(20).unwrap();
        assert_eq!(pool.in_flight(), 1, "the orphan holds no slot");
        wait_ready(&pool, 1);
        let mut out = Vec::new();
        assert_eq!(pool.drain_completions(&mut out, usize::MAX), Ok(2));
        assert_eq!(
            (out[0].job, out[0].status),
            (10, JobStatus::Orphaned),
            "orphans first"
        );
        assert_eq!((out[1].job, out[1].output), (20, Some(21)));
        assert_eq!(
            pool.drain_completions(&mut out, usize::MAX).unwrap_err(),
            ClusterError::Quiescent
        );
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
        let mut pool = ThreadPool::new(2, |j: &u8| *j)
            .with_faults(FaultModel::new(FaultSpec::crashes(1.0), 5));
        pool.submit(7).unwrap();
        let r = pool.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Crashed);
        assert_eq!(r.output, None);
        assert!(!r.is_ok());
        // The slot is free again for a retry.
        assert_eq!(pool.idle_workers(), 2);
    }

    #[test]
    fn corrupt_jobs_carry_flagged_output() {
        let mut pool = ThreadPool::new(1, |j: &u8| *j)
            .with_faults(FaultModel::new(FaultSpec::corrupt(1.0), 5));
        pool.submit(9).unwrap();
        let r = pool.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Corrupt);
        assert_eq!(r.output, Some(9));
        assert!(!r.is_ok());
    }

    #[test]
    fn fault_sequence_deterministic_in_submission_order() {
        let spec = FaultSpec::crashes(0.5);
        let run = |seed: u64| {
            let mut pool =
                ThreadPool::new(1, |j: &u32| *j).with_faults(FaultModel::new(spec, seed));
            let mut statuses = Vec::new();
            for j in 0..40 {
                pool.submit(j).unwrap();
                statuses.push(pool.next_completion().unwrap().status);
            }
            statuses
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should diverge");
    }

    #[test]
    fn static_membership_plan_changes_nothing() {
        let mut pool =
            ThreadPool::new(2, |j: &u32| j + 1).with_membership(MembershipPlan::static_plan());
        let mut outs = Vec::new();
        for j in 0..10u32 {
            pool.submit(j).unwrap();
            let r = pool.next_completion().unwrap();
            assert_eq!(r.status, JobStatus::Succeeded);
            outs.push(r.output.unwrap());
        }
        assert_eq!(outs, (1..=10).collect::<Vec<_>>());
        assert_eq!(pool.n_workers(), 2);
        assert_eq!(pool.next_completion().unwrap_err(), ClusterError::Quiescent);
    }

    #[test]
    fn worker_crash_orphans_job_until_lease_expires() {
        // crash_prob = 1.0: the first dispatch kills its worker. The job
        // never runs; it surfaces as Orphaned once the 50ms lease is up.
        let plan = MembershipPlan::worker_crashes(1.0, None, 11).with_lease_timeout(0.05);
        let mut pool = ThreadPool::new(2, |j: &u32| j * 10).with_membership(plan);
        pool.submit(3).unwrap();
        assert_eq!(pool.in_flight(), 0, "orphaned job holds no slot");
        assert_eq!(pool.n_workers(), 1, "crashed capacity is gone");
        let t0 = std::time::Instant::now();
        let r = pool.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        assert_eq!(r.job, 3);
        assert_eq!(r.output, None);
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(45),
            "orphan must wait out its lease"
        );
        // One worker left: crashes are clamped (never kill the last
        // worker), so the retry actually runs.
        pool.submit(3).unwrap();
        let r = pool.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(r.output, Some(30));
    }

    #[test]
    fn crashed_worker_rejoins_as_fresh_id() {
        let plan = MembershipPlan::worker_crashes(1.0, Some(0.01), 5).with_lease_timeout(0.02);
        let mut pool = ThreadPool::new(2, |j: &u32| *j).with_membership(plan);
        pool.submit(1).unwrap();
        assert_eq!(pool.n_workers(), 1);
        let r = pool.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        // By the orphan's lease expiry (20ms) the 10ms rejoin is due too;
        // it is applied lazily on the next pool call. With crash_prob 1.0
        // a dispatch at capacity 1 cannot crash (last-worker clamp), so a
        // second Orphaned result proves the rejoin restored capacity to 2
        // before the dispatch.
        std::thread::sleep(std::time::Duration::from_millis(15));
        pool.submit(2).unwrap();
        let r = pool.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned, "rejoin restored capacity");
    }

    #[test]
    fn scheduled_join_and_leave_resize_the_pool() {
        let plan = MembershipPlan::static_plan()
            .with_event(MembershipEvent::Join {
                time: 0.0,
                count: 2,
            })
            .with_event(MembershipEvent::Leave {
                time: 0.0,
                count: 1,
            });
        let mut pool = ThreadPool::new(1, |j: &u32| *j).with_membership(plan);
        // Events apply lazily on the first submit: 1 + 2 - 1 = 2 slots.
        pool.submit(0).unwrap();
        pool.submit(1).unwrap();
        assert_eq!(pool.submit(2), Err(ClusterError::NoIdleWorker));
        assert_eq!(pool.n_workers(), 2);
        while pool.next_completion().is_ok() {}
    }

    #[test]
    fn churn_status_sequence_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan =
                MembershipPlan::worker_crashes(0.5, Some(0.0), seed).with_lease_timeout(0.001);
            let mut pool = ThreadPool::new(2, |j: &u32| *j).with_membership(plan);
            let mut statuses = Vec::new();
            for j in 0..30 {
                pool.submit(j).unwrap();
                statuses.push(pool.next_completion().unwrap().status);
            }
            statuses
        };
        let a = run(9);
        assert_eq!(a, run(9));
        assert!(a.contains(&JobStatus::Orphaned));
        assert!(a.contains(&JobStatus::Succeeded));
        assert_ne!(a, run(10), "different seeds should diverge");
    }
}
