//! The synchronous Hyperband-family engine: SHA, Hyperband, BOHB, and
//! MFES-HB are all instances of [`SyncHb`] with different bracket cycling
//! and samplers.
//!
//! The engine executes one [`SyncBracket`] at a time. Within a rung it
//! dispatches freely; at the rung boundary it returns `None` from
//! `next_job` (the synchronization barrier of Figure 1), so idle workers
//! wait for stragglers — exactly the behaviour the asynchronous engine
//! removes.

use crate::bracket::SyncBracket;
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method, MethodContext, Outcome};
use crate::ranking::ThetaTracker;
use crate::sampler::Sampler;

/// Which bracket the next SHA iteration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CyclePolicy {
    /// Always the same base level (SHA uses 0 — the most aggressive).
    Fixed(usize),
    /// Cycle through all brackets (Hyperband's outer loop, §3.2).
    Cycle,
}

/// Synchronous Hyperband-family engine; see the module docs.
pub struct SyncHb {
    name: String,
    bracket: SyncBracket,
    policy: CyclePolicy,
    next_base: usize,
    sampler: Box<dyn Sampler>,
    /// `None` unless the sampler reads `θ` (only MFES-HB's does).
    theta: Option<ThetaTracker>,
}

impl SyncHb {
    /// Creates the engine; the first bracket follows the policy (base 0
    /// for `Cycle`, the fixed base otherwise).
    pub fn new(
        name: String,
        levels: &ResourceLevels,
        policy: CyclePolicy,
        sampler: Box<dyn Sampler>,
        seed: u64,
    ) -> Self {
        let base = match policy {
            CyclePolicy::Fixed(b) => b,
            CyclePolicy::Cycle => 0,
        };
        Self {
            name,
            bracket: SyncBracket::new(levels, base),
            policy,
            next_base: (base + 1) % levels.k(),
            theta: sampler
                .consumes_theta()
                .then(|| ThetaTracker::new(seed ^ 0x7e7a)),
            sampler,
        }
    }

    fn refresh_theta(&mut self, ctx: &MethodContext<'_>) {
        let Some(tracker) = &mut self.theta else {
            return;
        };
        if let Some(theta) = tracker.maybe_refresh(ctx.history, ctx.space) {
            self.sampler.set_theta(&theta);
        }
    }

    fn advance_bracket(&mut self, levels: &ResourceLevels) {
        let base = match self.policy {
            CyclePolicy::Fixed(b) => b,
            CyclePolicy::Cycle => {
                let b = self.next_base;
                self.next_base = (b + 1) % levels.k();
                b
            }
        };
        self.bracket = SyncBracket::new(levels, base);
    }
}

impl Method for SyncHb {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
        self.refresh_theta(ctx);
        if self.bracket.is_done() {
            self.advance_bracket(ctx.levels);
        }
        while self.bracket.needs_configs() > 0 {
            let config = self.sampler.sample(ctx);
            self.bracket.add_config(config);
        }
        match self.bracket.next_job() {
            Some((config, level)) => Some(JobSpec {
                config,
                level,
                resource: ctx.levels.resource(level),
                bracket: Some(self.bracket.base_level()),
                id: 0,
            }),
            // Barrier: rung in flight, wait for stragglers.
            None => None,
        }
    }

    /// Batch dispatch: the whole rung fill comes from one
    /// [`Sampler::sample_batch`] round (one fit for up to `R` configs
    /// instead of one per config), then jobs are popped until `k` are out
    /// or the rung barrier is hit.
    fn next_jobs(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<JobSpec> {
        if k <= 1 {
            // Must stay bit-identical to the sequential path.
            return (0..k).filter_map(|_| self.next_job(ctx)).collect();
        }
        self.refresh_theta(ctx);
        if self.bracket.is_done() {
            self.advance_bracket(ctx.levels);
        }
        let need = self.bracket.needs_configs();
        if need > 0 {
            for config in self.sampler.sample_batch(ctx, need) {
                self.bracket.add_config(config);
            }
        }
        let mut jobs = Vec::with_capacity(k);
        while jobs.len() < k {
            match self.bracket.next_job() {
                Some((config, level)) => jobs.push(JobSpec {
                    config,
                    level,
                    resource: ctx.levels.resource(level),
                    bracket: Some(self.bracket.base_level()),
                    id: 0,
                }),
                // Barrier: rung in flight, wait for stragglers.
                None => break,
            }
        }
        jobs
    }

    fn on_result(&mut self, outcome: &Outcome, _ctx: &mut MethodContext<'_>) {
        // A quarantined job must still count toward the rung barrier or
        // the bracket would wait on it forever; as +inf it sorts last and
        // is (almost) never promoted. This is precisely why failures hurt
        // the synchronous engine more: the barrier pays for every failure,
        // while the async engine just samples on.
        let value = if outcome.is_failed() {
            f64::INFINITY
        } else {
            outcome.value
        };
        self.bracket.on_result(outcome.spec.config.clone(), value);
    }

    fn set_telemetry(&mut self, telemetry: hypertune_telemetry::TelemetryHandle) {
        // The synchronous engine emits no events of its own; the sampler
        // still reports surrogate fits and acquisition timing.
        self.sampler.set_telemetry(telemetry);
    }

    fn set_degraded(&mut self, degraded: bool) {
        // Rung barriers must still resolve (pausing them would deadlock
        // the batch), so only the sampler degrades.
        self.sampler.set_degraded(degraded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::sampler::RandomSampler;
    use hypertune_space::ConfigSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Env {
        space: ConfigSpace,
        levels: ResourceLevels,
        history: History,
        rng: StdRng,
    }

    impl Env {
        fn new() -> Self {
            let levels = ResourceLevels::new(27.0, 3);
            Self {
                space: ConfigSpace::builder().float("x", 0.0, 1.0).build(),
                levels: levels.clone(),
                history: History::new(levels),
                rng: StdRng::seed_from_u64(0),
            }
        }

        fn ctx(&mut self) -> MethodContext<'_> {
            MethodContext {
                space: &self.space,
                levels: &self.levels,
                history: &self.history,
                pending: &[],
                rng: &mut self.rng,
                n_workers: 4,
                now: 0.0,
            }
        }
    }

    fn complete(m: &mut SyncHb, env: &mut Env, job: JobSpec) {
        let value = env.space.encode(&job.config)[0];
        let outcome = Outcome {
            spec: job,
            value,
            test_value: value,
            cost: 1.0,
            finished_at: 0.0,
            status: crate::method::OutcomeStatus::Success,
            fail_status: None,
        };
        m.on_result(&outcome, &mut env.ctx());
    }

    /// A θ-consuming sampler that records what it is given.
    struct ThetaProbe(std::sync::Arc<std::sync::Mutex<Vec<Vec<f64>>>>);

    impl Sampler for ThetaProbe {
        fn name(&self) -> &str {
            "probe"
        }

        fn sample(&mut self, ctx: &mut MethodContext<'_>) -> hypertune_space::Config {
            ctx.space.sample(ctx.rng)
        }

        fn consumes_theta(&self) -> bool {
            true
        }

        fn set_theta(&mut self, theta: &[f64]) {
            self.0.lock().unwrap().push(theta.to_vec());
        }
    }

    /// Runs one full bracket-0 iteration (27 + 9 + 3 + 1 jobs), booking
    /// every result into the history as a driver would.
    fn run_one_iteration(m: &mut SyncHb, env: &mut Env) {
        for expected in [27usize, 9, 3, 1] {
            let jobs: Vec<JobSpec> = (0..expected)
                .map(|_| m.next_job(&mut env.ctx()).unwrap())
                .collect();
            for j in jobs {
                let value = env.space.encode(&j.config)[0];
                env.history.record(crate::history::Measurement {
                    config: j.config.clone(),
                    level: j.level,
                    resource: j.resource,
                    value,
                    test_value: value,
                    cost: 1.0,
                    finished_at: 0.0,
                });
                complete(m, env, j);
            }
        }
    }

    #[test]
    fn theta_reaches_a_consuming_sampler() {
        let mut env = Env::new();
        let seen = std::sync::Arc::default();
        let mut m = SyncHb::new(
            "MFES-HB".into(),
            &env.levels,
            CyclePolicy::Fixed(0),
            Box::new(ThetaProbe(std::sync::Arc::clone(&seen))),
            0,
        );
        // One complete evaluation per iteration; θ needs a handful.
        while env.history.len_at(3) < 8 {
            run_one_iteration(&mut m, &mut env);
        }
        m.next_job(&mut env.ctx());
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "the sampler never received θ");
        let tracker = m.theta.as_ref().expect("a consumer gets a tracker");
        assert_eq!(tracker.theta(), seen.last().map(Vec::as_slice));
    }

    #[test]
    fn theta_is_never_fitted_without_a_consumer() {
        use crate::sampler::{BoSampler, MfesSampler, TpeSampler};
        let levels = ResourceLevels::new(27.0, 3);
        // The samplers of SHA/Hyperband, BOHB and BOHB-TPE ignore θ: no
        // tracker exists, so no θ forest can ever be fitted for them.
        let ignoring: [Box<dyn Sampler>; 3] = [
            Box::new(RandomSampler),
            Box::new(BoSampler::new(0)),
            Box::new(TpeSampler::new()),
        ];
        for sampler in ignoring {
            let m = SyncHb::new("m".into(), &levels, CyclePolicy::Cycle, sampler, 0);
            assert!(m.theta.is_none(), "{} does not read θ", m.sampler.name());
        }
        let mfes = Box::new(MfesSampler::new(0));
        let m = SyncHb::new("MFES-HB".into(), &levels, CyclePolicy::Cycle, mfes, 0);
        assert!(m.theta.is_some());
    }

    #[test]
    fn sha_runs_bracket0_repeatedly() {
        let mut env = Env::new();
        let mut m = SyncHb::new(
            "SHA".into(),
            &env.levels,
            CyclePolicy::Fixed(0),
            Box::new(RandomSampler),
            0,
        );
        // Rung 0 of bracket 0: exactly 27 jobs at level 0, then a barrier.
        let mut jobs = Vec::new();
        for _ in 0..27 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            assert_eq!(j.level, 0);
            assert_eq!(j.bracket, Some(0));
            jobs.push(j);
        }
        assert!(m.next_job(&mut env.ctx()).is_none(), "barrier");
        for j in jobs {
            complete(&mut m, &mut env, j);
        }
        // Rung 1: 9 jobs at level 1.
        let j = m.next_job(&mut env.ctx()).unwrap();
        assert_eq!(j.level, 1);
    }

    #[test]
    fn hyperband_cycles_brackets() {
        let mut env = Env::new();
        let mut m = SyncHb::new(
            "Hyperband".into(),
            &env.levels,
            CyclePolicy::Cycle,
            Box::new(RandomSampler),
            0,
        );
        // Drive bracket 0 to completion (27 + 9 + 3 + 1 jobs).
        for expected in [27usize, 9, 3, 1] {
            let mut jobs = Vec::new();
            for _ in 0..expected {
                jobs.push(m.next_job(&mut env.ctx()).unwrap());
            }
            assert!(m.next_job(&mut env.ctx()).is_none());
            for j in jobs {
                complete(&mut m, &mut env, j);
            }
        }
        // Next bracket must start at base level 1 with 12 configs.
        let j = m.next_job(&mut env.ctx()).unwrap();
        assert_eq!(j.level, 1);
        assert_eq!(j.bracket, Some(1));
    }

    #[test]
    fn full_sha_iteration_selects_best_config() {
        let mut env = Env::new();
        let mut m = SyncHb::new(
            "SHA".into(),
            &env.levels,
            CyclePolicy::Fixed(0),
            Box::new(RandomSampler),
            0,
        );
        let mut last_rung_jobs: Vec<JobSpec> = Vec::new();
        for expected in [27usize, 9, 3, 1] {
            let mut jobs = Vec::new();
            for _ in 0..expected {
                jobs.push(m.next_job(&mut env.ctx()).unwrap());
            }
            last_rung_jobs = jobs.clone();
            for j in jobs {
                complete(&mut m, &mut env, j);
            }
        }
        // The survivor is the config with the smallest value (= x).
        assert_eq!(last_rung_jobs.len(), 1);
        assert_eq!(last_rung_jobs[0].level, 3);
        // A new bracket starts afterwards (same base for SHA).
        let j = m.next_job(&mut env.ctx()).unwrap();
        assert_eq!(j.level, 0);
    }
}
