//! Elastic cluster membership: workers that join, leave, and die mid-run.
//!
//! The fault layer (`crate::fault`) makes *jobs* fail; this module makes
//! *workers* churn, which is the other half of the paper's §4.2 setting
//! (a shared production cluster where machines are preempted and
//! replaced). A [`MembershipPlan`] describes three kinds of churn, which
//! the simulator plays out in virtual time:
//!
//! - **scheduled events** — [`MembershipEvent::Join`] /
//!   [`MembershipEvent::Leave`] at fixed virtual times;
//! - **worker crashes** — an independent per-dispatch probability that
//!   the worker accepting the job dies partway through it. Unlike a job
//!   [`Fault::Crash`](crate::fault::Fault::Crash), the worker is *gone*:
//!   its slot is lost (until an optional rejoin) and its in-flight job is
//!   **orphaned** rather than reported failed — nobody is left to report;
//! - **rejoins** — crashed workers come back as fresh worker ids after
//!   `rejoin_after` seconds, modelling a cluster manager restarting
//!   preempted machines.
//!
//! Orphans are recovered through **leases**: every dispatched job is
//! implicitly leased for [`MembershipPlan::lease_timeout`] seconds past
//! the owning worker's death. When the lease expires the substrate
//! surfaces the job with `JobStatus::Orphaned`, and the driver routes it
//! through its normal retry policy — exactly-once with respect to the
//! measurement history, since the orphaned attempt never produced a
//! result.
//!
//! Like [`FaultModel::none`](crate::fault::FaultModel::none), a
//! [`MembershipPlan::static_plan`] consumes no randomness and schedules
//! no events, so runs on a static plan are bit-identical to runs without
//! any membership layer at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MembershipEvent {
    /// `count` fresh workers join at `time`.
    Join {
        /// When the workers join (substrate seconds).
        time: f64,
        /// How many join.
        count: usize,
    },
    /// `count` workers leave at `time` (highest worker ids first; busy
    /// workers orphan their in-flight job).
    Leave {
        /// When the workers leave (substrate seconds).
        time: f64,
        /// How many leave.
        count: usize,
    },
}

impl MembershipEvent {
    /// The time this event fires.
    pub fn time(&self) -> f64 {
        match self {
            MembershipEvent::Join { time, .. } | MembershipEvent::Leave { time, .. } => *time,
        }
    }
}

/// A churn schedule plus worker-crash rates for one run. See the module
/// docs for semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipPlan {
    /// Scheduled joins/leaves, applied in time order.
    pub events: Vec<MembershipEvent>,
    /// Per-dispatch probability that the accepting worker dies partway
    /// through the job, orphaning it.
    pub worker_crash_prob: f64,
    /// Seconds after a worker crash until a replacement joins; `None`
    /// means crashed capacity is lost for good.
    pub rejoin_after: Option<f64>,
    /// Seconds past a worker's death until its in-flight job's lease
    /// expires and the driver reclaims the orphan.
    pub lease_timeout: f64,
    /// Seed for the worker-crash draws (independent of job-fault seeds).
    pub seed: u64,
}

impl MembershipPlan {
    /// The do-nothing plan: no events, no crashes, no RNG consumption.
    pub fn static_plan() -> Self {
        Self {
            events: Vec::new(),
            worker_crash_prob: 0.0,
            rejoin_after: None,
            lease_timeout: 30.0,
            seed: 0,
        }
    }

    /// Plan with only worker crashes: each dispatch kills its worker with
    /// probability `prob`; crashed workers rejoin after `rejoin_after`
    /// seconds if given.
    pub fn worker_crashes(prob: f64, rejoin_after: Option<f64>, seed: u64) -> Self {
        Self {
            worker_crash_prob: prob,
            rejoin_after,
            seed,
            ..Self::static_plan()
        }
    }

    /// Adds a scheduled event.
    pub fn with_event(mut self, event: MembershipEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Sets the orphan lease timeout.
    pub fn with_lease_timeout(mut self, lease_timeout: f64) -> Self {
        self.lease_timeout = lease_timeout;
        self
    }

    /// `true` when the plan can never change the worker set: a run under
    /// a static plan is bit-identical to one with no plan at all.
    pub fn is_static(&self) -> bool {
        self.events.is_empty() && self.worker_crash_prob == 0.0
    }

    /// Panics on out-of-range knobs (probability outside `[0, 1]`,
    /// non-positive lease or rejoin delay, non-finite or negative event
    /// times, zero-count events).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.worker_crash_prob),
            "worker_crash_prob must be in [0, 1]"
        );
        assert!(
            self.lease_timeout.is_finite() && self.lease_timeout > 0.0,
            "lease_timeout must be finite and > 0"
        );
        if let Some(r) = self.rejoin_after {
            assert!(r.is_finite() && r >= 0.0, "rejoin_after must be >= 0");
        }
        for e in &self.events {
            assert!(
                e.time().is_finite() && e.time() >= 0.0,
                "event times must be finite and >= 0"
            );
            let count = match e {
                MembershipEvent::Join { count, .. } | MembershipEvent::Leave { count, .. } => {
                    *count
                }
            };
            assert!(count > 0, "membership events must move at least one worker");
        }
    }
}

/// Runtime churn state shared by the in-process substrates (the TCP
/// substrate has real churn, not injected): the validated plan, a
/// cursor over its (time-sorted) events, and the worker-crash RNG.
#[derive(Debug, Clone)]
pub struct ChurnState {
    plan: MembershipPlan,
    /// Event indices in time order (stable for equal times).
    order: Vec<usize>,
    cursor: usize,
    rng: StdRng,
}

impl ChurnState {
    /// Validates the plan and freezes its event order.
    pub fn new(plan: MembershipPlan) -> Self {
        plan.validate();
        let mut order: Vec<usize> = (0..plan.events.len()).collect();
        order.sort_by(|&a, &b| {
            plan.events[a]
                .time()
                .partial_cmp(&plan.events[b].time())
                .expect("event times validated finite")
        });
        let rng = StdRng::seed_from_u64(plan.seed);
        Self {
            plan,
            order,
            cursor: 0,
            rng,
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &MembershipPlan {
        &self.plan
    }

    /// Time of the next unapplied scheduled event, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.order
            .get(self.cursor)
            .map(|&i| self.plan.events[i].time())
    }

    /// Pops the next scheduled event once `now` has reached it.
    pub fn pop_due_event(&mut self, now: f64) -> Option<MembershipEvent> {
        let &i = self.order.get(self.cursor)?;
        let e = self.plan.events[i];
        if e.time() <= now {
            self.cursor += 1;
            Some(e)
        } else {
            None
        }
    }

    /// Draws whether the worker accepting the next dispatch dies, and if
    /// so, after what fraction of the job it does. Consumes no RNG when
    /// `worker_crash_prob` is zero.
    pub fn draw_worker_crash(&mut self) -> Option<f64> {
        if self.plan.worker_crash_prob == 0.0 {
            return None;
        }
        let u = self.rng.gen::<f64>();
        if u < self.plan.worker_crash_prob {
            Some(self.rng.gen::<f64>())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_plan_is_static_and_draws_nothing() {
        let plan = MembershipPlan::static_plan();
        assert!(plan.is_static());
        let mut churn = ChurnState::new(plan);
        for _ in 0..100 {
            assert_eq!(churn.draw_worker_crash(), None);
        }
        assert_eq!(churn.next_event_time(), None);
    }

    #[test]
    fn events_pop_in_time_order() {
        let plan = MembershipPlan::static_plan()
            .with_event(MembershipEvent::Leave {
                time: 5.0,
                count: 1,
            })
            .with_event(MembershipEvent::Join {
                time: 2.0,
                count: 2,
            });
        let mut churn = ChurnState::new(plan);
        assert_eq!(churn.next_event_time(), Some(2.0));
        assert_eq!(churn.pop_due_event(1.0), None);
        assert_eq!(
            churn.pop_due_event(2.0),
            Some(MembershipEvent::Join {
                time: 2.0,
                count: 2
            })
        );
        assert_eq!(
            churn.pop_due_event(10.0),
            Some(MembershipEvent::Leave {
                time: 5.0,
                count: 1
            })
        );
        assert_eq!(churn.pop_due_event(f64::MAX), None);
    }

    #[test]
    fn worker_crashes_deterministic_per_seed() {
        let draws = |seed| {
            let mut c = ChurnState::new(MembershipPlan::worker_crashes(0.5, None, seed));
            (0..50).map(|_| c.draw_worker_crash()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert!(draws(7).iter().any(|d| d.is_some()));
        assert!(draws(7).iter().any(|d| d.is_none()));
    }

    #[test]
    #[should_panic(expected = "worker_crash_prob")]
    fn out_of_range_crash_prob_panics() {
        ChurnState::new(MembershipPlan::worker_crashes(1.5, None, 0));
    }

    #[test]
    #[should_panic(expected = "lease_timeout")]
    fn non_positive_lease_panics() {
        ChurnState::new(MembershipPlan::static_plan().with_lease_timeout(0.0));
    }
}
