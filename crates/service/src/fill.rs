//! One fill round: idle fleet slots are granted to studies by stride
//! scheduling, and the costly studies' suggestions run on separate
//! cores.
//!
//! A round has three steps:
//!
//! 1. **Plan.** [`FairShare::plan`] runs the pick loop on a copy of the
//!    scheduler, as if every grant yielded one job: each study's grant
//!    count.
//! 2. **Chains.** A costly study's grants become a chain — its
//!    suggestions in order, stopped at the first barrier — and the chains
//!    run concurrently on [`Helpers`], the driver thread running its
//!    share of them.
//! 3. **Replay.** The real pick loop runs unchanged. A pick takes the
//!    study's next precomputed job, or the barrier that stopped its
//!    chain; everything else (cheap studies, picks beyond the plan)
//!    suggests inline.
//!
//! The replay is exact. A method's decisions depend only on its own
//! study's state and RNG (the context's clock only stamps events), and
//! nothing is booked during a fill, so a study's i-th suggestion of the
//! round is the same on whichever thread it runs and whatever the other
//! studies did meanwhile. The picks, the blocked set, the passes and the
//! submit order are what the one-thread loop makes. A blocked study only
//! frees slots for the others, so the replay takes every precomputed job
//! unless capacity vanishes mid-fill; the jobs it does not take are
//! already charged and go to the park queue.
//!
//! A round with fewer than two idle slots, fewer than two cores, or
//! fewer than two costly studies to grant precomputes nothing and is the
//! one-thread loop, with no copy of the scheduler. "Costly" is measured:
//! each study's observed suggest latency, against [`OFFLOAD_MIN_SECS`].

use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::scheduler::FairShare;

/// A study's chain leaves the driver thread only when one of its
/// suggestions is expected to take longer than this, so a chain is
/// always worth far more than its hand-off. Measured on 2 vCPUs (release
/// build): handing a task to a kept helper thread and back took p50 6 µs,
/// p99 8–16 µs; a scoped spawn plus join, which a helper's first use
/// pays, p50 15 µs, p99 23–38 µs. Hyper-Tune's suggestions (~1 ms) clear it;
/// ASHA's and A-Random's (~0.5 µs) never do, however many slots a round
/// grants. Zero in this crate's tests, so that their chains run threaded.
const OFFLOAD_MIN_SECS: f64 = if cfg!(test) { 0.0 } else { 100e-6 };

/// Whether a study whose suggestions take `cost` seconds each is worth
/// a thread.
fn costly(cost: f64) -> bool {
    cost > OFFLOAD_MIN_SECS
}

/// What a fill round needs from the service: its studies, fleet and
/// park queue. The service implements it over its executor, the tests
/// over closures.
pub(crate) trait Round {
    /// A suggestion, wrapped for the fleet.
    type Job;
    /// Idle fleet slots right now.
    fn idle(&self) -> usize;
    /// Threads chains may run on, the calling one included. Asked only
    /// in a round with two costly studies to grant.
    fn cores(&self) -> usize;
    /// Fresh dispatches study `id` can absorb right now.
    fn wants(&self, id: u64) -> usize;
    /// Expected seconds of one suggestion of study `id` (0 before its
    /// first).
    fn cost(&self, id: u64) -> f64;
    /// One suggestion of study `id`, charged, on the calling thread;
    /// `None` at a barrier.
    fn suggest(&mut self, id: u64) -> Option<Self::Job>;
    /// One [`Chain`] per `(id, grants)` of `plan`, run on up to `width`
    /// threads, the calling one included.
    fn chains(&mut self, plan: &[(u64, usize)], width: usize) -> Vec<Chain<Self::Job>>;
    /// Puts a job on the fleet, or gives it back when capacity vanished.
    fn submit(&mut self, job: Self::Job) -> Result<(), Self::Job>;
    /// Puts charged jobs at the front of the park queue, in order.
    fn park(&mut self, jobs: Vec<Self::Job>);
}

/// One study's precomputed suggestions for a round.
#[derive(Debug)]
pub(crate) struct Chain<J> {
    id: u64,
    jobs: VecDeque<J>,
    /// The chain stopped at a barrier: the pick after its last job
    /// blocks the study.
    barrier: bool,
}

impl<J> Chain<J> {
    /// Up to `grants` suggestions of study `id`, in order, stopped at the
    /// first barrier (`None`).
    pub(crate) fn run(id: u64, grants: usize, mut suggest: impl FnMut() -> Option<J>) -> Self {
        let mut jobs = VecDeque::with_capacity(grants);
        for _ in 0..grants {
            let Some(job) = suggest() else {
                return Self {
                    id,
                    jobs,
                    barrier: true,
                };
            };
            jobs.push_back(job);
        }
        Self {
            id,
            jobs,
            barrier: false,
        }
    }

    /// The replay's next answer for this study: a job, the barrier that
    /// stopped the chain, or `None` once both are used up.
    fn next(&mut self) -> Option<Option<J>> {
        match self.jobs.pop_front() {
            Some(job) => Some(Some(job)),
            None if std::mem::take(&mut self.barrier) => Some(None),
            None => None,
        }
    }
}

/// Precomputed jobs of study `id` the replay has not taken yet.
fn unconsumed<J>(ready: &[Chain<J>], id: u64) -> usize {
    ready
        .iter()
        .find(|c| c.id == id)
        .map_or(0, |c| c.jobs.len())
}

/// Fills idle slots with fresh dispatches; see the module docs. Returns
/// the picks in order, each with whether it yielded a job (one that did
/// not blocked its study for the rest of the round).
pub(crate) fn fill_round<R: Round>(sched: &mut FairShare, round: &mut R) -> Vec<(u64, bool)> {
    let mut ready = precompute(sched, round);
    let mut picks = Vec::new();
    let mut blocked: Vec<u64> = Vec::new();
    let mut spill = Vec::new();
    while round.idle() > 0 {
        // A precomputed job was charged when its chain ran; counting it
        // back gives the study the wants the one-thread loop sees.
        let picked =
            sched.pick(|id| !blocked.contains(&id) && round.wants(id) + unconsumed(&ready, id) > 0);
        let Some(id) = picked else { break };
        let precomputed = ready.iter_mut().find(|c| c.id == id).and_then(Chain::next);
        let Some(job) = precomputed.unwrap_or_else(|| round.suggest(id)) else {
            blocked.push(id);
            picks.push((id, false));
            continue;
        };
        picks.push((id, true));
        if let Err(job) = round.submit(job) {
            // Capacity vanished mid-fill (elastic shrink): the dispatch
            // goes out first next round.
            spill.push(job);
            break;
        }
    }
    spill.extend(ready.into_iter().flat_map(|c| c.jobs));
    if !spill.is_empty() {
        round.park(spill);
    }
    picks
}

/// Steps 1 and 2: the chains of the costly studies the plan grants a
/// slot, when there are at least two; otherwise nothing.
fn precompute<R: Round>(sched: &FairShare, round: &mut R) -> Vec<Chain<R::Job>> {
    let idle = round.idle();
    if idle < 2 {
        return Vec::new();
    }
    let eligible = sched
        .ids()
        .filter(|&id| costly(round.cost(id)) && round.wants(id) > 0)
        .take(2)
        .count();
    let cores = round.cores();
    if eligible < 2 || cores < 2 {
        return Vec::new();
    }
    let plan: Vec<(u64, usize)> = sched
        .plan(idle, |id| round.wants(id))
        .into_iter()
        .filter(|&(id, _)| costly(round.cost(id)))
        .collect();
    if plan.len() < 2 {
        return Vec::new();
    }
    round.chains(&plan, cores.min(plan.len()))
}

/// A panic payload, as `catch_unwind` hands it over.
pub(crate) type Panic = Box<dyn Any + Send>;

/// One finished task: its index in the round, the task, and whether
/// `work` returned or panicked.
type Done<T> = (usize, T, Result<(), Panic>);

/// Threads kept beside the driver, so that chains can run on other
/// cores. They start on first use, so a process whose rounds never
/// precompute has none. They are kept rather than spawned per round
/// because scoped threads spawned per round measured less throughput
/// and more peak RSS on `svc_suggest_bound` (DESIGN.md §17.2).
pub(crate) struct Helpers<T> {
    work: fn(&mut T),
    /// The round's tasks, popped from the back.
    queue: Arc<Mutex<Vec<(usize, T)>>>,
    wake: Vec<Sender<()>>,
    done_tx: Sender<Done<T>>,
    done_rx: Receiver<Done<T>>,
    threads: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> Helpers<T> {
    /// Helpers that will run `work` on each task.
    pub(crate) fn new(work: fn(&mut T)) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        Self {
            work,
            queue: Arc::default(),
            wake: Vec::new(),
            done_tx,
            done_rx,
            threads: Vec::new(),
        }
    }

    /// Runs `work` on every task on up to `width` threads, the calling
    /// thread one of them, each taking the next task in order as it frees
    /// up. Returns the tasks in their order and how many ran off the
    /// calling thread. A panic in `work` on any thread is handed back as
    /// the first panicking task's own payload once every task is back, so
    /// the caller can put away what the tasks own before it re-panics.
    pub(crate) fn run(&mut self, tasks: Vec<T>, width: usize) -> (Vec<T>, usize, Option<Panic>) {
        let n = tasks.len();
        // Reversed, so that the first task is popped first.
        *self.queue.lock().expect("task queue poisoned") =
            tasks.into_iter().enumerate().rev().collect();
        let helpers = width.min(n).saturating_sub(1);
        while self.threads.len() < helpers {
            self.spawn();
        }
        for wake in &self.wake[..helpers] {
            wake.send(()).expect("helpers outlive their service");
        }
        let mut done = drain(&self.queue, self.work, |d| d);
        let mine = done.len();
        while done.len() < n {
            done.push(self.done_rx.recv().expect("helpers outlive their service"));
        }
        done.sort_unstable_by_key(|d| d.0);
        let mut panic = None;
        let tasks = done
            .into_iter()
            .map(|(_, task, result)| {
                if let Err(payload) = result {
                    panic.get_or_insert(payload);
                }
                task
            })
            .collect();
        (tasks, n - mine, panic)
    }

    fn spawn(&mut self) {
        let (wake, woken) = mpsc::channel::<()>();
        let (queue, work, done) = (Arc::clone(&self.queue), self.work, self.done_tx.clone());
        let thread = std::thread::Builder::new()
            .name("hypertune-fill".to_string())
            .spawn(move || {
                while woken.recv().is_ok() {
                    drain(&queue, work, |d| {
                        // The service is gone once its receiver is.
                        let _ = done.send(d);
                    });
                }
            })
            .expect("spawn a fill helper");
        self.wake.push(wake);
        self.threads.push(thread);
    }
}

/// [`Helpers::run`] at width one, without the helpers: runs `work` on
/// every task on the calling thread, in order.
pub(crate) fn run_here<T>(mut tasks: Vec<T>, work: fn(&mut T)) -> (Vec<T>, usize, Option<Panic>) {
    let mut panic = None;
    for task in &mut tasks {
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| work(task))) {
            panic.get_or_insert(payload);
        }
    }
    (tasks, 0, panic)
}

/// Pops and runs tasks until the queue is empty, handing each finished
/// one to `finish`; returns what `finish` kept.
fn drain<T, K>(
    queue: &Mutex<Vec<(usize, T)>>,
    work: fn(&mut T),
    mut finish: impl FnMut(Done<T>) -> K,
) -> Vec<K> {
    let mut kept = Vec::new();
    loop {
        // `work` never runs under the lock, so it cannot poison it.
        let next = queue.lock().expect("task queue poisoned").pop();
        let Some((i, mut task)) = next else {
            return kept;
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| work(&mut task)));
        kept.push(finish((i, task, result)));
    }
}

impl<T> Drop for Helpers<T> {
    fn drop(&mut self) {
        // Closing the wake channels ends each helper's loop.
        self.wake.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    /// `(study, index of the suggest call that made it)`.
    type Job = (u64, usize);

    /// One mock study: a suggestion stream with an optional barrier.
    #[derive(Debug, Clone)]
    struct Tenant {
        wants: usize,
        cost: f64,
        /// The suggest call (0-based) that hits a barrier; past the last
        /// call, none does.
        barrier: usize,
        calls: usize,
        /// Every job it produced, hence charged.
        charged: Vec<Job>,
    }

    impl Tenant {
        fn suggest(&mut self, id: u64) -> Option<Job> {
            let call = self.calls;
            self.calls += 1;
            if self.barrier == call {
                return None;
            }
            self.wants -= 1;
            self.charged.push((id, call));
            Some((id, call))
        }
    }

    struct MockTask {
        id: u64,
        grants: usize,
        tenant: Tenant,
        chain: Option<Chain<Job>>,
    }

    impl MockTask {
        fn run(&mut self) {
            let (id, tenant) = (self.id, &mut self.tenant);
            self.chain = Some(Chain::run(id, self.grants, || tenant.suggest(id)));
        }
    }

    struct Mock {
        cores: usize,
        tenants: BTreeMap<u64, Tenant>,
        helpers: Helpers<MockTask>,
        slots: usize,
        /// The submit (0-based) at which capacity vanishes.
        fail_at: Option<usize>,
        submitted: Vec<Job>,
        parked: Vec<Job>,
    }

    impl Round for Mock {
        type Job = Job;

        fn idle(&self) -> usize {
            self.slots - self.submitted.len()
        }

        fn cores(&self) -> usize {
            self.cores
        }

        fn wants(&self, id: u64) -> usize {
            self.tenants[&id].wants
        }

        fn cost(&self, id: u64) -> f64 {
            self.tenants[&id].cost
        }

        fn suggest(&mut self, id: u64) -> Option<Job> {
            self.tenants.get_mut(&id).unwrap().suggest(id)
        }

        fn chains(&mut self, plan: &[(u64, usize)], width: usize) -> Vec<Chain<Job>> {
            let tasks = plan
                .iter()
                .map(|&(id, grants)| MockTask {
                    id,
                    grants,
                    tenant: self.tenants.remove(&id).unwrap(),
                    chain: None,
                })
                .collect();
            let (tasks, _, panic) = self.helpers.run(tasks, width);
            assert!(panic.is_none());
            tasks
                .into_iter()
                .map(|t| {
                    self.tenants.insert(t.id, t.tenant);
                    t.chain.unwrap()
                })
                .collect()
        }

        fn submit(&mut self, job: Job) -> Result<(), Job> {
            if self.fail_at == Some(self.submitted.len()) {
                self.slots = self.submitted.len();
                return Err(job);
            }
            self.submitted.push(job);
            Ok(())
        }

        fn park(&mut self, jobs: Vec<Job>) {
            self.parked.extend(jobs);
        }
    }

    /// The fill loop as it was before rounds were planned: one suggest
    /// per pick, on this thread.
    fn sequential(sched: &mut FairShare, m: &mut Mock) -> Vec<(u64, bool)> {
        let mut blocked = HashSet::new();
        let mut picks = Vec::new();
        while m.idle() > 0 {
            let picked = sched.pick(|id| !blocked.contains(&id) && m.wants(id) > 0);
            let Some(id) = picked else { break };
            let Some(job) = m.suggest(id) else {
                blocked.insert(id);
                picks.push((id, false));
                continue;
            };
            picks.push((id, true));
            if let Err(job) = m.submit(job) {
                m.park(vec![job]);
                break;
            }
        }
        picks
    }

    fn setup(
        studies: &[(u64, usize, bool, usize)],
        warmup: usize,
        slots: usize,
        fail_at: Option<usize>,
    ) -> (FairShare, Mock) {
        let mut sched = FairShare::new();
        let mut tenants = BTreeMap::new();
        for (i, &(weight, wants, costly, barrier)) in studies.iter().enumerate() {
            sched.register(i as u64, weight);
            let cost = if costly { 1e-3 } else { 0.0 };
            let tenant = Tenant {
                wants,
                cost,
                barrier,
                calls: 0,
                charged: Vec::new(),
            };
            tenants.insert(i as u64, tenant);
        }
        // Uneven passes, as after earlier rounds.
        for _ in 0..warmup {
            sched.pick(|_| true);
        }
        let mock = Mock {
            cores: 2,
            tenants,
            helpers: Helpers::new(MockTask::run),
            slots,
            fail_at,
            submitted: Vec::new(),
            parked: Vec::new(),
        };
        (sched, mock)
    }

    /// `(weight, wants, costly, barrier)`; a barrier past 6 is never hit.
    fn study() -> impl Strategy<Value = (u64, usize, bool, usize)> {
        (0u64..=4, 0usize..=6, any::<bool>(), 0usize..=9)
    }

    const NONE: usize = usize::MAX;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// With the fleet's capacity steady, the planned and replayed
        /// fill makes the one-thread loop's picks, blocked set, passes,
        /// submit order and suggest calls, and parks nothing.
        #[test]
        fn planned_fill_equals_the_sequential_fill(
            studies in proptest::collection::vec(study(), 1..=6),
            warmup in 0usize..=8,
            slots in 0usize..=16,
            width in 2usize..=3,
        ) {
            let (mut seq_sched, mut seq) = setup(&studies, warmup, slots, None);
            let (mut sched, mut mock) = setup(&studies, warmup, slots, None);
            let seq_picks = sequential(&mut seq_sched, &mut seq);
            mock.cores = width;
            let picks = fill_round(&mut sched, &mut mock);
            prop_assert_eq!(&picks, &seq_picks);
            prop_assert_eq!(&sched, &seq_sched);
            prop_assert_eq!(&mock.submitted, &seq.submitted);
            prop_assert!(mock.parked.is_empty());
            for (id, t) in &mock.tenants {
                prop_assert_eq!(t.calls, seq.tenants[id].calls, "study {}'s calls", id);
            }
        }

        /// When capacity vanishes mid-fill, the submits up to the failure
        /// are the one-thread loop's, and every charged job is either on
        /// the fleet or parked, once.
        #[test]
        fn capacity_lost_mid_fill_loses_no_charged_job(
            studies in proptest::collection::vec(study(), 1..=6),
            warmup in 0usize..=8,
            slots in 2usize..=16,
            fail_at in 0usize..16,
        ) {
            let (mut seq_sched, mut seq) = setup(&studies, warmup, slots, Some(fail_at));
            let (mut sched, mut mock) = setup(&studies, warmup, slots, Some(fail_at));
            let seq_picks = sequential(&mut seq_sched, &mut seq);
            let picks = fill_round(&mut sched, &mut mock);
            prop_assert_eq!(&picks, &seq_picks);
            prop_assert_eq!(&sched, &seq_sched);
            prop_assert_eq!(&mock.submitted, &seq.submitted);
            prop_assert_eq!(mock.parked.first(), seq.parked.first());
            let mut charged: Vec<Job> = mock.tenants.values().flat_map(|t| t.charged.clone()).collect();
            let mut placed: Vec<Job> = mock.submitted.iter().chain(&mock.parked).copied().collect();
            charged.sort_unstable();
            placed.sort_unstable();
            prop_assert_eq!(charged, placed);
        }
    }

    #[test]
    fn cheap_studies_are_never_planned() {
        // Two costly studies at one idle slot, or one costly study beside
        // cheap ones at many: nothing precomputed, no scheduler copy.
        let (sched, mut mock) = setup(&[(1, 4, true, NONE), (1, 4, true, NONE)], 0, 1, None);
        assert!(precompute(&sched, &mut mock).is_empty());
        let studies = [(1, 4, true, NONE), (1, 4, false, NONE), (2, 4, false, NONE)];
        let (sched, mut mock) = setup(&studies, 0, 8, None);
        assert!(precompute(&sched, &mut mock).is_empty());
        let (sched, mut mock) = setup(&[(1, 4, true, NONE), (1, 4, true, NONE)], 0, 8, None);
        mock.cores = 1;
        assert!(precompute(&sched, &mut mock).is_empty(), "one core");
        mock.cores = 2;
        assert_eq!(precompute(&sched, &mut mock).len(), 2);
    }

    /// A task that waits for the other one, so the two run on two
    /// threads, and panics on the helper.
    fn meet_and_fail_on_the_helper(task: &mut u64) {
        static BOTH: std::sync::Barrier = std::sync::Barrier::new(2);
        BOTH.wait();
        if std::thread::current().name() == Some("hypertune-fill") {
            panic!("chain {task} failed on a helper");
        }
        *task *= 10;
    }

    #[test]
    fn a_panicking_chain_on_a_helper_comes_back_with_its_own_payload() {
        let mut helpers = Helpers::new(meet_and_fail_on_the_helper);
        let (tasks, offloaded, panic) = helpers.run(vec![1, 2], 2);
        assert_eq!(offloaded, 1);
        let message = panic.expect("the helper panicked");
        let message = message.downcast_ref::<String>().expect("its own payload");
        assert!(message.ends_with("failed on a helper"), "{message}");
        // Both tasks are back, the driver's one done.
        assert!(tasks == [10, 2] || tasks == [1, 20], "{tasks:?}");
    }

    fn square(x: &mut u64) {
        *x *= *x;
    }

    #[test]
    fn helpers_return_tasks_in_order_across_rounds() {
        let mut helpers = Helpers::new(square);
        for round in 0..20u64 {
            let (tasks, offloaded, panic) = helpers.run((round..round + 9).collect(), 3);
            assert_eq!(tasks, (round..round + 9).map(|x| x * x).collect::<Vec<_>>());
            assert!(offloaded <= 9 && panic.is_none());
        }
        let (tasks, offloaded, panic) = helpers.run(vec![5], 4);
        assert_eq!((tasks, offloaded, panic.is_none()), (vec![25], 0, true));
        assert_eq!(helpers.threads.len(), 2, "kept, not started per round");
    }

    fn fail_on_two(task: &mut u64) {
        assert_ne!(*task, 2, "chain 2 failed");
        *task += 1;
    }

    #[test]
    fn run_here_is_the_helpers_at_width_one() {
        let (tasks, offloaded, panic) = run_here((0..9).collect(), square);
        assert_eq!(tasks, (0..9u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!((offloaded, panic.is_none()), (0, true));
        let (tasks, _, panic) = run_here(vec![1, 2, 3], fail_on_two);
        let message = panic.expect("task 2 panicked");
        let message = message.downcast_ref::<String>().expect("its own payload");
        assert!(message.contains("chain 2 failed"), "{message}");
        assert_eq!(tasks, [2, 2, 4], "every task back, the others done");
    }
}
