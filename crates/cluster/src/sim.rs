//! Discrete-event cluster simulator.
//!
//! A [`SimCluster`] models `n` workers and a virtual clock. Tuning methods
//! drive it with a submit/complete loop:
//!
//! 1. while a worker is free, submit a job with its nominal duration
//!    (taken from the benchmark's cost model);
//! 2. call [`SimCluster::next_completion`] — the clock jumps to the
//!    earliest finish and the finished job is returned;
//! 3. repeat until the virtual budget is exhausted.
//!
//! # Loop invariant
//!
//! Between the two steps the driver must keep the cluster *non-quiescent*:
//! `next_completion` is only meaningful while at least one job is running,
//! and calling it on an idle cluster returns
//! [`ClusterError::Quiescent`] — there is no event to advance the clock
//! to, so the virtual time would be stuck forever. A driver that sees
//! `Quiescent` has either forgotten to submit (a scheduling bug) or has
//! drained all work and should exit its loop.
//!
//! The simulator is generic over the job payload, applies an optional
//! [`StragglerModel`] to durations and an optional
//! [`FaultModel`] to outcomes (crashes, errors, hangs,
//! corrupt results — reported through [`JobResult::status`]), and records
//! every busy interval into a [`Trace`] for utilization analysis and Gantt
//! rendering.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use hypertune_telemetry::{Event, FaultKind, TelemetryHandle};

use crate::fault::{Fault, FaultModel};
use crate::membership::{ChurnState, MembershipEvent, MembershipPlan};
use crate::straggler::StragglerModel;
use crate::trace::Trace;

/// Maps a drawn [`Fault`] to its telemetry tag.
fn fault_kind(fault: &Fault) -> FaultKind {
    match fault {
        Fault::Crash { .. } => FaultKind::Crash,
        Fault::Error => FaultKind::Error,
        Fault::Hang { .. } => FaultKind::Hang,
        Fault::Corrupt => FaultKind::Corrupt,
    }
}

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `submit` was called with no idle worker; call
    /// [`SimCluster::next_completion`] first.
    NoIdleWorker,
    /// A job duration was negative, NaN, or infinite.
    InvalidDuration,
    /// `next_completion` was called with no job in flight: the virtual
    /// clock has no event to advance to (see the module-level loop
    /// invariant).
    Quiescent,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoIdleWorker => write!(f, "no idle worker available"),
            ClusterError::InvalidDuration => write!(f, "job duration must be finite and >= 0"),
            ClusterError::Quiescent => {
                write!(f, "no job in flight: nothing to complete")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// How a job ended. Only [`JobStatus::Succeeded`] carries a usable result;
/// every other variant means the evaluation's output (if any) must be
/// discarded and the job retried or quarantined by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobStatus {
    /// The evaluation completed and its result is valid.
    Succeeded,
    /// The worker died mid-evaluation; part of the duration was wasted.
    Crashed,
    /// The evaluation ran to completion but raised an error.
    Errored,
    /// The job exceeded the per-job timeout and was killed.
    TimedOut,
    /// The worker holding the job left the cluster; the job's lease
    /// expired with no result and the driver must reclaim it.
    Orphaned,
    /// The job finished but returned a corrupt (unusable) result.
    Corrupt,
}

impl JobStatus {
    /// `true` for every variant except [`JobStatus::Succeeded`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, JobStatus::Succeeded)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobStatus::Succeeded => "succeeded",
            JobStatus::Crashed => "crashed",
            JobStatus::Errored => "errored",
            JobStatus::TimedOut => "timed-out",
            JobStatus::Orphaned => "orphaned",
            JobStatus::Corrupt => "corrupt",
        };
        write!(f, "{s}")
    }
}

/// A finished job returned by [`SimCluster::next_completion`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<T> {
    /// The payload passed to `submit`.
    pub job: T,
    /// Worker that ran the job.
    pub worker: usize,
    /// Virtual time at which the job started.
    pub started: f64,
    /// Virtual time at which the job finished (equals the clock after
    /// `next_completion` returns it).
    pub finished: f64,
    /// How the job ended; anything but `Succeeded` is a failure.
    pub status: JobStatus,
    /// The submission token ([`SubmitReceipt::token`]) of this dispatch,
    /// matching what `submit_full` returned.
    pub token: u64,
}

/// What [`SimCluster::submit_full`] hands back: the assigned worker and a
/// token identifying the dispatch (usable with [`SimCluster::cancel`] and
/// matched by [`JobResult::token`] at completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// Worker the job was assigned to.
    pub worker: usize,
    /// Unique, monotonically increasing dispatch token.
    pub token: u64,
}

impl<T> JobResult<T> {
    /// `true` when the job produced a usable result.
    pub fn is_ok(&self) -> bool {
        !self.status.is_failure()
    }
}

/// One scheduled completion inside the event heap, ordered by finish time
/// (earliest first) with submission order as a deterministic tie-break.
/// The payload lives in the cluster's job table; a key whose `(seq,
/// finish)` no longer matches the table is stale (the job was cancelled
/// or rescheduled after an orphaning) and is skipped on pop.
struct EventKey {
    finish: f64,
    seq: u64,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.seq == other.seq
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest finish pops
        // first, with FIFO tie-break on seq.
        other
            .finish
            .partial_cmp(&self.finish)
            .expect("durations validated finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One in-flight job (or an orphan awaiting its lease expiry).
struct RunningJob<T> {
    worker: usize,
    started: f64,
    /// The time the matching heap key surfaces this job; rescheduling an
    /// orphan moves the deadline and strands the old key.
    deadline: f64,
    status: JobStatus,
    /// `true` once the owning worker died: the slot is not returned to
    /// the idle pool at completion.
    worker_dead: bool,
    job: T,
}

/// Elastic-membership runtime state; present only when a plan was
/// attached, so static clusters pay nothing.
struct MembershipState {
    churn: ChurnState,
    /// Pending rejoin times for crashed workers, ascending.
    rejoins: Vec<f64>,
    /// Next fresh worker id.
    next_id: usize,
    /// Workers currently in the cluster (idle or busy).
    n_alive: usize,
}

/// A virtual cluster of `n` identical workers (see module docs).
pub struct SimCluster<T> {
    n_workers: usize,
    clock: f64,
    seq: u64,
    idle: Vec<usize>,
    heap: BinaryHeap<EventKey>,
    jobs: BTreeMap<u64, RunningJob<T>>,
    straggler: StragglerModel,
    faults: FaultModel,
    membership: Option<MembershipState>,
    job_timeout: Option<f64>,
    trace: Trace,
    telemetry: TelemetryHandle,
}

impl<T> SimCluster<T> {
    /// Creates a cluster of `n_workers` with no straggler noise.
    ///
    /// # Panics
    ///
    /// Panics if `n_workers == 0`.
    pub fn new(n_workers: usize) -> Self {
        Self::with_stragglers(n_workers, StragglerModel::none())
    }

    /// Creates a cluster whose job durations pass through `straggler`.
    pub fn with_stragglers(n_workers: usize, straggler: StragglerModel) -> Self {
        assert!(n_workers > 0, "cluster needs at least one worker");
        Self {
            n_workers,
            clock: 0.0,
            seq: 0,
            // Pop from the back; reversed so worker 0 is assigned first.
            idle: (0..n_workers).rev().collect(),
            heap: BinaryHeap::new(),
            jobs: BTreeMap::new(),
            straggler,
            faults: FaultModel::none(),
            membership: None,
            job_timeout: None,
            trace: Trace::new(n_workers),
            telemetry: TelemetryHandle::disabled(),
        }
    }

    /// Attaches a fault model; each subsequent submission draws one
    /// (possible) fault from it.
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches an elastic membership plan: scheduled joins/leaves,
    /// per-dispatch worker crashes (which orphan the in-flight job until
    /// its lease expires), and optional crash rejoins. A
    /// [`MembershipPlan::static_plan`] changes nothing and consumes no
    /// randomness.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`MembershipPlan::validate`].
    pub fn with_membership(mut self, plan: MembershipPlan) -> Self {
        let next_id = self.n_workers;
        self.membership = Some(MembershipState {
            churn: ChurnState::new(plan),
            rejoins: Vec::new(),
            next_id,
            n_alive: self.n_workers,
        });
        self
    }

    /// Attaches a telemetry handle; drawn faults are reported as
    /// [`Event::FaultInjected`] at the dispatch-time virtual clock. The
    /// default (disabled) handle makes this a no-op.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    /// Sets a per-job timeout in virtual seconds: any job whose effective
    /// duration (after stragglers, crashes, and hangs) would exceed it is
    /// killed at `started + timeout` and reported as
    /// [`JobStatus::TimedOut`]. `None` disables the timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is not finite and positive.
    pub fn set_job_timeout(&mut self, timeout: Option<f64>) {
        if let Some(t) = timeout {
            assert!(t.is_finite() && t > 0.0, "timeout must be finite and > 0");
        }
        self.job_timeout = timeout;
    }

    /// Number of workers currently in the cluster (idle or busy). Fixed
    /// at the constructor argument unless a membership plan moves it.
    pub fn n_workers(&self) -> usize {
        match &self.membership {
            Some(m) => m.n_alive,
            None => self.n_workers,
        }
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Number of workers currently free.
    pub fn idle_workers(&self) -> usize {
        self.idle.len()
    }

    /// `true` when nothing is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The busy-interval trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Assigns `job` with nominal `duration` (virtual seconds) to a free
    /// worker; the effective duration may be stretched by the straggler
    /// model.
    pub fn submit(&mut self, job: T, duration: f64) -> Result<usize, ClusterError> {
        self.submit_labeled(job, duration, String::new())
    }

    /// Like [`SimCluster::submit`], with a label recorded in the trace
    /// (used for Gantt renderings).
    pub fn submit_labeled(
        &mut self,
        job: T,
        duration: f64,
        label: String,
    ) -> Result<usize, ClusterError> {
        self.submit_full(job, duration, label).map(|r| r.worker)
    }

    /// Like [`SimCluster::submit_labeled`], returning the dispatch token
    /// as well, for later [`SimCluster::cancel`] calls and matching
    /// against [`JobResult::token`].
    ///
    /// The fate of the job is decided here, at dispatch: stragglers
    /// stretch the duration, then the fault model (if any) may convert the
    /// job into a crash, error, hang, or corrupt result, then the per-job
    /// timeout caps the effective duration, and finally the membership
    /// plan (if any) may kill the accepting worker — orphaning the job,
    /// which then surfaces as [`JobStatus::Orphaned`] once its lease
    /// expires. The outcome surfaces later through
    /// [`SimCluster::next_completion`] as [`JobResult::status`].
    pub fn submit_full(
        &mut self,
        job: T,
        duration: f64,
        label: String,
    ) -> Result<SubmitReceipt, ClusterError> {
        if !duration.is_finite() || duration < 0.0 {
            return Err(ClusterError::InvalidDuration);
        }
        let worker = self.idle.pop().ok_or(ClusterError::NoIdleWorker)?;
        let mut effective = self.straggler.apply(duration);
        let mut status = JobStatus::Succeeded;
        let drawn = self.faults.draw();
        if let Some(fault) = &drawn {
            let kind = fault_kind(fault);
            self.telemetry
                .emit_with(self.clock, || Event::FaultInjected { kind });
        }
        match drawn {
            Some(Fault::Crash { frac }) => {
                // The worker dies partway through: the slot is occupied
                // for only a fraction of the work, and no result exists.
                effective *= frac;
                status = JobStatus::Crashed;
            }
            Some(Fault::Error) => status = JobStatus::Errored,
            Some(Fault::Hang { factor }) => {
                // A hang alone is an extreme straggler; only the timeout
                // below turns it into a reported failure.
                effective *= factor;
            }
            Some(Fault::Corrupt) => status = JobStatus::Corrupt,
            None => {}
        }
        if let Some(t) = self.job_timeout {
            if effective > t {
                effective = t;
                status = JobStatus::TimedOut;
            }
        }
        // Worker-level crash: unlike a job fault, the *worker* dies —
        // occupied for a fraction of the work, never reporting back. The
        // job is orphaned and only surfaces once its lease expires.
        let mut worker_dead = false;
        let mut busy_until = self.clock + effective;
        let mut deadline = busy_until;
        if let Some(m) = &mut self.membership {
            // Never kill the last survivor: like scheduled leaves, worker
            // crashes keep at least one worker so the run can finish.
            if let Some(frac) = m.churn.draw_worker_crash().filter(|_| m.n_alive > 1) {
                let death = self.clock + frac * effective;
                busy_until = death;
                deadline = death + m.churn.plan().lease_timeout;
                status = JobStatus::Orphaned;
                worker_dead = true;
                m.n_alive -= 1;
                if let Some(r) = m.churn.plan().rejoin_after {
                    let t = death + r;
                    let at = m.rejoins.partition_point(|&x| x <= t);
                    m.rejoins.insert(at, t);
                }
                let n_alive = m.n_alive;
                self.telemetry
                    .emit_with(death, || Event::WorkerLeft { worker, n_alive });
            }
        }
        let label = if status.is_failure() {
            format!("{label} [{status}]")
        } else {
            label
        };
        self.trace.record(worker, self.clock, busy_until, label);
        let token = self.seq;
        self.jobs.insert(
            token,
            RunningJob {
                worker,
                started: self.clock,
                deadline,
                status,
                worker_dead,
                job,
            },
        );
        self.heap.push(EventKey {
            finish: deadline,
            seq: token,
        });
        self.seq += 1;
        Ok(SubmitReceipt { worker, token })
    }

    /// Cancels an in-flight job by token (the losing copy of a resolved
    /// speculation). The worker is returned to the idle pool immediately
    /// (unless it died) and the job will never surface through
    /// [`SimCluster::next_completion`]. Returns `false` when the token is
    /// not in flight (already completed or cancelled).
    pub fn cancel(&mut self, token: u64) -> bool {
        match self.jobs.remove(&token) {
            Some(rj) => {
                if !rj.worker_dead {
                    self.idle.push(rj.worker);
                }
                true
            }
            None => false,
        }
    }

    /// Earliest due membership change (scheduled event or crash rejoin),
    /// if any. Scheduled events win ties so plans apply in author order.
    fn next_membership_time(&self) -> Option<(f64, bool)> {
        let m = self.membership.as_ref()?;
        let te = m.churn.next_event_time();
        let tr = m.rejoins.first().copied();
        match (te, tr) {
            (Some(te), Some(tr)) if tr < te => Some((tr, false)),
            (Some(te), _) => Some((te, true)),
            (None, Some(tr)) => Some((tr, false)),
            (None, None) => None,
        }
    }

    /// Applies the single membership change due at `time`.
    fn apply_membership(&mut self, time: f64, scheduled: bool) {
        let m = self.membership.as_mut().expect("membership checked");
        if !scheduled {
            m.rejoins.remove(0);
            self.join_workers(time, 1);
            return;
        }
        match m.churn.pop_due_event(time).expect("event checked due") {
            MembershipEvent::Join { count, .. } => self.join_workers(time, count),
            MembershipEvent::Leave { count, .. } => self.leave_workers(time, count),
        }
    }

    fn join_workers(&mut self, time: f64, count: usize) {
        for _ in 0..count {
            let m = self.membership.as_mut().expect("membership checked");
            let id = m.next_id;
            m.next_id += 1;
            m.n_alive += 1;
            let n_alive = m.n_alive;
            self.idle.push(id);
            self.trace.grow_to(id + 1);
            self.telemetry.emit_with(time, || Event::WorkerJoined {
                worker: id,
                n_alive,
            });
        }
    }

    /// Removes up to `count` workers, highest ids first (clamped so at
    /// least one worker survives). A busy victim orphans its in-flight
    /// job: the job's completion is rescheduled to the lease expiry with
    /// [`JobStatus::Orphaned`], stranding its old heap key.
    fn leave_workers(&mut self, time: f64, count: usize) {
        for _ in 0..count {
            let m = self.membership.as_mut().expect("membership checked");
            if m.n_alive <= 1 {
                return;
            }
            let lease = m.churn.plan().lease_timeout;
            // Highest-id alive worker: scan idle and live busy jobs.
            let idle_max = self.idle.iter().copied().max();
            let busy_max = self
                .jobs
                .values()
                .filter(|rj| !rj.worker_dead)
                .map(|rj| rj.worker)
                .max();
            let victim = match (idle_max, busy_max) {
                (Some(a), Some(b)) => a.max(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return,
            };
            if idle_max == Some(victim) && busy_max.is_none_or(|b| b < victim) {
                self.idle.retain(|&w| w != victim);
            } else {
                // Orphan every job the victim holds (exactly one in
                // practice: a worker runs one job at a time).
                let tokens: Vec<u64> = self
                    .jobs
                    .iter()
                    .filter(|(_, rj)| !rj.worker_dead && rj.worker == victim)
                    .map(|(&t, _)| t)
                    .collect();
                for token in tokens {
                    let rj = self.jobs.get_mut(&token).expect("token just listed");
                    rj.worker_dead = true;
                    rj.status = JobStatus::Orphaned;
                    rj.deadline = time + lease;
                    self.heap.push(EventKey {
                        finish: time + lease,
                        seq: token,
                    });
                }
            }
            m.n_alive -= 1;
            let n_alive = m.n_alive;
            self.telemetry.emit_with(time, || Event::WorkerLeft {
                worker: victim,
                n_alive,
            });
        }
    }

    /// Advances the clock to the earliest event — a job completion, an
    /// orphan's lease expiry, or a membership change (applied internally)
    /// — and returns the next finished job, or
    /// [`ClusterError::Quiescent`] when nothing is in flight (the loop
    /// invariant in the module docs was violated, or the driver has
    /// drained all work).
    pub fn next_completion(&mut self) -> Result<JobResult<T>, ClusterError> {
        loop {
            // Drop stale keys (cancelled or rescheduled jobs) so the
            // next real completion time is visible.
            let next_finish = loop {
                match self.heap.peek() {
                    Some(k) if self.jobs.get(&k.seq).map(|rj| rj.deadline) != Some(k.finish) => {
                        self.heap.pop();
                    }
                    Some(k) => break Some(k.finish),
                    None => break None,
                }
            };
            // Membership changes due before the next completion apply
            // first, so capacity is correct when the driver refills.
            if let Some((tm, scheduled)) = self.next_membership_time() {
                if next_finish.map_or(tm <= self.clock, |tf| tm <= tf) {
                    self.clock = self.clock.max(tm);
                    let at = self.clock;
                    self.apply_membership(at, scheduled);
                    continue;
                }
            }
            let Some(k) = (match next_finish {
                Some(_) => self.heap.pop(),
                None => None,
            }) else {
                return Err(ClusterError::Quiescent);
            };
            let rj = self.jobs.remove(&k.seq).expect("live key checked");
            debug_assert!(k.finish >= self.clock, "time must not run backwards");
            self.clock = k.finish;
            if !rj.worker_dead {
                self.idle.push(rj.worker);
            }
            return Ok(JobResult {
                job: rj.job,
                worker: rj.worker,
                started: rj.started,
                finished: k.finish,
                status: rj.status,
                token: k.seq,
            });
        }
    }

    /// Fraction of worker-time spent busy from time 0 to the current
    /// clock. 0.0 before any time passes.
    pub fn utilization(&self) -> f64 {
        self.trace.utilization(self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    #[test]
    fn jobs_complete_in_duration_order() {
        let mut c: SimCluster<&str> = SimCluster::new(3);
        c.submit("slow", 10.0).unwrap();
        c.submit("fast", 1.0).unwrap();
        c.submit("mid", 5.0).unwrap();
        assert_eq!(c.next_completion().unwrap().job, "fast");
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.next_completion().unwrap().job, "mid");
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.next_completion().unwrap().job, "slow");
        assert_eq!(c.now(), 10.0);
        assert_eq!(
            c.next_completion().unwrap_err(),
            ClusterError::Quiescent,
            "empty cluster must report quiescence, not a phantom job"
        );
    }

    #[test]
    fn submit_more_than_workers_fails() {
        let mut c: SimCluster<u32> = SimCluster::new(2);
        c.submit(1, 1.0).unwrap();
        c.submit(2, 1.0).unwrap();
        assert_eq!(c.submit(3, 1.0), Err(ClusterError::NoIdleWorker));
        c.next_completion().unwrap();
        assert!(c.submit(3, 1.0).is_ok());
    }

    #[test]
    fn invalid_durations_rejected() {
        let mut c: SimCluster<u32> = SimCluster::new(1);
        assert_eq!(c.submit(1, -1.0), Err(ClusterError::InvalidDuration));
        assert_eq!(c.submit(1, f64::NAN), Err(ClusterError::InvalidDuration));
        assert_eq!(
            c.submit(1, f64::INFINITY),
            Err(ClusterError::InvalidDuration)
        );
        // Worker was not consumed by failed submissions.
        assert_eq!(c.idle_workers(), 1);
    }

    #[test]
    fn clock_monotone_through_pipeline() {
        let mut c: SimCluster<usize> = SimCluster::new(2);
        let mut last = 0.0;
        c.submit(0, 3.0).unwrap();
        c.submit(1, 4.0).unwrap();
        for i in 2..20 {
            let done = c.next_completion().unwrap();
            assert!(done.finished >= last);
            last = done.finished;
            c.submit(i, 1.0 + (i % 3) as f64).unwrap();
        }
    }

    #[test]
    fn ties_resolve_in_submission_order() {
        let mut c: SimCluster<&str> = SimCluster::new(2);
        c.submit("first", 2.0).unwrap();
        c.submit("second", 2.0).unwrap();
        assert_eq!(c.next_completion().unwrap().job, "first");
        assert_eq!(c.next_completion().unwrap().job, "second");
    }

    #[test]
    fn zero_duration_job_completes_immediately() {
        let mut c: SimCluster<&str> = SimCluster::new(1);
        c.submit("instant", 0.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.started, r.finished);
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn utilization_counts_busy_time() {
        let mut c: SimCluster<u32> = SimCluster::new(2);
        c.submit(0, 10.0).unwrap();
        c.submit(1, 5.0).unwrap();
        c.next_completion().unwrap(); // t = 5
        c.next_completion().unwrap(); // t = 10
                                      // Worker 0 busy 10s, worker 1 busy 5s, horizon 2 * 10 = 20.
        assert!((c.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn stragglers_stretch_durations() {
        let mut c = SimCluster::with_stragglers(1, StragglerModel::new(1.0, 2.0, 3));
        c.submit((), 10.0).unwrap();
        let r = c.next_completion().unwrap();
        assert!(r.finished >= 10.0);
        assert!(r.finished <= 20.0);
    }

    #[test]
    fn result_records_worker_and_times() {
        let mut c: SimCluster<&str> = SimCluster::new(2);
        c.submit("a", 2.0).unwrap();
        let done = c.next_completion().unwrap();
        assert_eq!(done.started, 0.0);
        assert_eq!(done.finished, 2.0);
        assert!(done.worker < 2);
        assert!(done.is_ok());
        // The freed worker is reusable.
        c.submit("b", 1.0).unwrap();
        let done = c.next_completion().unwrap();
        assert_eq!(done.started, 2.0);
        assert_eq!(done.finished, 3.0);
    }

    #[test]
    fn crash_wastes_partial_duration_and_frees_worker() {
        let mut c: SimCluster<&str> =
            SimCluster::new(1).with_faults(FaultModel::new(FaultSpec::crashes(1.0), 9));
        c.submit("doomed", 10.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Crashed);
        assert!(!r.is_ok());
        // The crash consumed strictly less than the full duration.
        assert!(r.finished < 10.0, "crash at {}", r.finished);
        // The worker is free again for a retry.
        assert_eq!(c.idle_workers(), 1);
        c.submit("retry", 1.0).unwrap();
        assert!(c.next_completion().unwrap().finished <= r.finished + 1.0);
    }

    #[test]
    fn error_faults_consume_full_duration() {
        let mut c: SimCluster<u32> =
            SimCluster::new(1).with_faults(FaultModel::new(FaultSpec::errors(1.0), 4));
        c.submit(1, 7.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Errored);
        assert_eq!(r.finished, 7.0);
    }

    #[test]
    fn corrupt_results_flagged_on_time() {
        let mut c: SimCluster<u32> =
            SimCluster::new(1).with_faults(FaultModel::new(FaultSpec::corrupt(1.0), 4));
        c.submit(1, 3.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Corrupt);
        assert_eq!(r.finished, 3.0);
    }

    #[test]
    fn hang_without_timeout_is_a_slow_success() {
        let mut c: SimCluster<u32> =
            SimCluster::new(1).with_faults(FaultModel::new(FaultSpec::hangs(1.0, 6.0), 2));
        c.submit(1, 2.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(r.finished, 12.0);
    }

    #[test]
    fn timeout_converts_hang_into_failure() {
        let mut c: SimCluster<u32> =
            SimCluster::new(1).with_faults(FaultModel::new(FaultSpec::hangs(1.0, 6.0), 2));
        c.set_job_timeout(Some(5.0));
        c.submit(1, 2.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::TimedOut);
        assert_eq!(r.finished, 5.0);
    }

    #[test]
    fn timeout_caps_natural_long_jobs_too() {
        let mut c: SimCluster<u32> = SimCluster::new(1);
        c.set_job_timeout(Some(4.0));
        c.submit(1, 10.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::TimedOut);
        assert_eq!(r.finished, 4.0);
        // A short job is unaffected.
        c.submit(2, 1.0).unwrap();
        assert_eq!(c.next_completion().unwrap().status, JobStatus::Succeeded);
    }

    #[test]
    fn faultless_cluster_matches_plain_cluster_exactly() {
        // Attaching a disabled fault model must not perturb anything:
        // same completion order, same times.
        let mut plain: SimCluster<u32> = SimCluster::new(3);
        let mut armed: SimCluster<u32> = SimCluster::new(3).with_faults(FaultModel::none());
        for i in 0..3 {
            plain.submit(i, 1.0 + i as f64).unwrap();
            armed.submit(i, 1.0 + i as f64).unwrap();
        }
        for _ in 0..3 {
            let a = plain.next_completion().unwrap();
            let b = armed.next_completion().unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _c: SimCluster<()> = SimCluster::new(0);
    }

    #[test]
    fn static_membership_plan_matches_plain_cluster_exactly() {
        // The disabled-plan invariant: same completions, same times, same
        // tokens, same idle pool.
        let mut plain: SimCluster<u32> = SimCluster::new(3);
        let mut elastic: SimCluster<u32> =
            SimCluster::new(3).with_membership(MembershipPlan::static_plan());
        for i in 0..3 {
            plain.submit(i, 1.0 + i as f64).unwrap();
            elastic.submit(i, 1.0 + i as f64).unwrap();
        }
        for _ in 0..3 {
            let a = plain.next_completion().unwrap();
            let b = elastic.next_completion().unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.n_workers(), elastic.n_workers());
        assert_eq!(plain.idle_workers(), elastic.idle_workers());
    }

    #[test]
    fn scheduled_leave_orphans_busy_job_until_lease_expiry() {
        let plan = MembershipPlan::static_plan()
            .with_lease_timeout(5.0)
            .with_event(MembershipEvent::Leave {
                time: 2.0,
                count: 1,
            });
        let mut c: SimCluster<&str> = SimCluster::new(2).with_membership(plan);
        c.submit("short", 1.0).unwrap(); // worker 0
        c.submit("doomed", 10.0).unwrap(); // worker 1 (highest id: the victim)
        let first = c.next_completion().unwrap();
        assert_eq!(first.job, "short");
        // The leave at t=2 kills worker 1; its job surfaces as an orphan
        // at 2 + 5 = 7, not at its natural finish of 10.
        let orphan = c.next_completion().unwrap();
        assert_eq!(orphan.job, "doomed");
        assert_eq!(orphan.status, JobStatus::Orphaned);
        assert_eq!(orphan.finished, 7.0);
        assert!(!orphan.is_ok());
        // The dead worker is gone: capacity shrank to 1.
        assert_eq!(c.n_workers(), 1);
        assert_eq!(c.idle_workers(), 1);
    }

    #[test]
    fn scheduled_leave_prefers_idle_highest_id() {
        let plan = MembershipPlan::static_plan().with_event(MembershipEvent::Leave {
            time: 1.0,
            count: 1,
        });
        let mut c: SimCluster<&str> = SimCluster::new(3).with_membership(plan);
        // Worker 0 busy; workers 1 and 2 idle. The leave must take idle
        // worker 2, not orphan the running job.
        c.submit("running", 5.0).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(c.n_workers(), 2);
    }

    #[test]
    fn scheduled_join_adds_fresh_workers() {
        let plan = MembershipPlan::static_plan().with_event(MembershipEvent::Join {
            time: 2.0,
            count: 2,
        });
        let mut c: SimCluster<u32> = SimCluster::new(1).with_membership(plan);
        c.submit(0, 5.0).unwrap();
        assert_eq!(c.submit(1, 1.0), Err(ClusterError::NoIdleWorker));
        // The join applies while waiting for the completion at t=5.
        let r = c.next_completion().unwrap();
        assert_eq!(r.finished, 5.0);
        assert_eq!(c.n_workers(), 3);
        assert_eq!(c.idle_workers(), 3);
        // All three slots are usable, and the new ones carry fresh ids.
        let mut workers = Vec::new();
        for j in 2..5 {
            c.submit(j, 1.0).unwrap();
        }
        for _ in 2..5 {
            workers.push(c.next_completion().unwrap().worker);
        }
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2]);
    }

    #[test]
    fn worker_crash_orphans_job_and_rejoins() {
        let plan = MembershipPlan::worker_crashes(1.0, Some(1.0), 3).with_lease_timeout(2.0);
        let mut c: SimCluster<&str> = SimCluster::new(2).with_membership(plan);
        let receipt = c.submit_full("doomed", 10.0, String::new()).unwrap();
        let r = c.next_completion().unwrap();
        assert_eq!(r.status, JobStatus::Orphaned);
        assert_eq!(r.token, receipt.token);
        // Death at frac * 10, lease 2: surfaced strictly before the
        // natural finish.
        assert!(r.finished < 10.0 + 2.0);
        // Rejoin restored capacity to 2 (rejoin at death + 1 precedes the
        // lease expiry at death + 2).
        assert_eq!(c.n_workers(), 2);
        assert_eq!(c.idle_workers(), 2);
    }

    #[test]
    fn leave_never_removes_last_worker() {
        let plan = MembershipPlan::static_plan().with_event(MembershipEvent::Leave {
            time: 0.5,
            count: 5,
        });
        let mut c: SimCluster<u32> = SimCluster::new(2).with_membership(plan);
        c.submit(0, 2.0).unwrap();
        c.next_completion().unwrap();
        assert_eq!(c.n_workers(), 1, "clamped to one survivor");
    }

    #[test]
    fn cancel_frees_worker_and_suppresses_completion() {
        let mut c: SimCluster<&str> = SimCluster::new(2);
        let a = c.submit_full("keep", 2.0, String::new()).unwrap();
        let b = c.submit_full("cancel-me", 1.0, String::new()).unwrap();
        assert!(c.cancel(b.token));
        assert!(!c.cancel(b.token), "double cancel is a no-op");
        assert_eq!(c.idle_workers(), 1);
        // The cancelled job never surfaces; the kept one does.
        let r = c.next_completion().unwrap();
        assert_eq!(r.job, "keep");
        assert_eq!(r.token, a.token);
        assert_eq!(
            c.next_completion().unwrap_err(),
            ClusterError::Quiescent,
            "cancelled job must not surface"
        );
    }

    #[test]
    fn worker_churn_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = MembershipPlan::worker_crashes(0.3, Some(0.5), seed).with_lease_timeout(1.0);
            let mut c: SimCluster<usize> = SimCluster::new(3).with_membership(plan);
            let mut submitted = 0;
            let mut log = Vec::new();
            loop {
                while submitted < 30 && c.submit(submitted, 1.0 + (submitted % 4) as f64).is_ok() {
                    submitted += 1;
                }
                match c.next_completion() {
                    Ok(r) => log.push((r.job, r.finished.to_bits(), r.status)),
                    Err(_) => break,
                }
                if submitted == 30 && c.is_quiescent() {
                    break;
                }
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different churn seeds should diverge");
    }
}
