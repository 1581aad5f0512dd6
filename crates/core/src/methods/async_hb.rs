//! The asynchronous Hyperband-family engine — including Hyper-Tune.
//!
//! [`AsyncHb`] composes the paper's three components behind three
//! parameters:
//!
//! | parameter | Hyper-Tune | ablations / baselines |
//! |---|---|---|
//! | bracket policy | learned ([`BracketSelector`], §4.1) | fixed base (ASHA), round-robin (A-Hyperband) |
//! | delay condition | on (D-ASHA, Algorithm 1) | off (plain ASHA promotion) |
//! | sampler | MFES ensemble (§4.3) | random (A-HB), high-fidelity BO (A-BOHB) |
//!
//! `next_job` never blocks: it first tries promotions across all brackets
//! (highest rungs first, per Algorithm 1), then samples a fresh
//! configuration at the base rung of the policy-chosen bracket — so
//! workers are never idle and stragglers never stall the run.

use crate::allocator::{BracketSelector, RoundRobinSelector};
use crate::bracket::AsyncBracket;
use crate::diagnostics::Diagnostics;
use crate::levels::ResourceLevels;
use crate::method::{JobSpec, Method, MethodContext, Outcome};
use crate::ranking::ThetaTracker;
use crate::sampler::Sampler;
use hypertune_telemetry::{Event, TelemetryHandle};
use rand::rngs::StdRng;

/// How new configurations are assigned to brackets.
pub enum BracketPolicy {
    /// Always the same bracket (ASHA uses base 0).
    Fixed(usize),
    /// Cycle through all brackets (A-Hyperband).
    RoundRobin(RoundRobinSelector),
    /// The paper's learned bracket selection (§4.1).
    Learned(BracketSelector),
}

impl BracketPolicy {
    /// A fixed-bracket policy.
    pub fn fixed(base: usize) -> Self {
        BracketPolicy::Fixed(base)
    }

    /// A round-robin policy over the brackets of `levels`.
    pub fn round_robin(levels: &ResourceLevels) -> Self {
        BracketPolicy::RoundRobin(RoundRobinSelector::new(levels))
    }

    /// A learned bracket-selection policy over the brackets of `levels`.
    pub fn learned(levels: &ResourceLevels) -> Self {
        BracketPolicy::Learned(BracketSelector::new(levels))
    }

    fn select(&mut self, rng: &mut StdRng) -> usize {
        match self {
            BracketPolicy::Fixed(b) => *b,
            BracketPolicy::RoundRobin(s) => s.select(),
            BracketPolicy::Learned(s) => s.select(rng),
        }
    }
}

/// Asynchronous Hyperband-family engine; see the module docs.
pub struct AsyncHb {
    name: String,
    brackets: Vec<AsyncBracket>,
    policy: BracketPolicy,
    sampler: Box<dyn Sampler>,
    /// `None` when neither the policy nor the sampler reads `θ`: the
    /// model-free baselines never pay for an estimate nobody consumes.
    theta: Option<ThetaTracker>,
    diagnostics: Diagnostics,
    telemetry: TelemetryHandle,
    /// Breaker-open mode: θ refreshes and promotions pause, the sampler
    /// (already told to degrade itself) draws randomly.
    degraded: bool,
}

impl AsyncHb {
    /// Creates the engine with one [`AsyncBracket`] per base level.
    pub fn new(
        name: String,
        levels: &ResourceLevels,
        policy: BracketPolicy,
        delay: bool,
        sampler: Box<dyn Sampler>,
        seed: u64,
    ) -> Self {
        let brackets = (0..levels.k())
            .map(|b| AsyncBracket::new(levels, b, delay))
            .collect();
        let theta = (matches!(policy, BracketPolicy::Learned(_)) || sampler.consumes_theta())
            .then(|| ThetaTracker::new(seed ^ 0xa57c));
        Self {
            name,
            brackets,
            policy,
            sampler,
            theta,
            diagnostics: Diagnostics::new(levels.k()),
            telemetry: TelemetryHandle::disabled(),
            degraded: false,
        }
    }

    /// The run diagnostics recorded so far (θ history, bracket usage).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.diagnostics
    }

    /// The latest precision weights `θ`, if estimated (for diagnostics).
    /// Always `None` for a method with no `θ` consumer.
    pub fn theta(&self) -> Option<&[f64]> {
        self.theta.as_ref()?.theta()
    }

    /// Step 4 of Figure 3: refresh θ from the multi-fidelity history and
    /// push it into both the allocator and the MFES sampler.
    fn refresh_theta(&mut self, ctx: &MethodContext<'_>) {
        let Some(tracker) = &mut self.theta else {
            return;
        };
        let refresh_span = self.telemetry.span("theta_refresh");
        if let Some(theta) = tracker.maybe_refresh(ctx.history, ctx.space) {
            drop(refresh_span);
            let n_full = ctx.history.len_at(ctx.levels.max_level());
            self.diagnostics.record_theta(n_full, &theta);
            self.sampler.set_theta(&theta);
            if let BracketPolicy::Learned(s) = &mut self.policy {
                s.update_theta(&theta);
            }
            let policy = &self.policy;
            self.telemetry
                .emit_with(ctx.now, || Event::BracketWeightsUpdated {
                    n_full,
                    theta: theta.clone(),
                    weights: match policy {
                        BracketPolicy::Learned(s) => {
                            s.weights().map(<[f64]>::to_vec).unwrap_or_default()
                        }
                        _ => Vec::new(),
                    },
                });
        } else {
            // Cadence said "not yet": nothing fitted, nothing to time.
            refresh_span.cancel();
        }
    }

    /// Promotions first (Algorithm 1, lines 5–12): the first bracket with
    /// a promotable rung yields the job.
    fn try_promotion(&mut self, ctx: &MethodContext<'_>) -> Option<JobSpec> {
        for (b, bracket) in self.brackets.iter_mut().enumerate() {
            let promotion = if self.telemetry.is_enabled() {
                let mut delayed = Vec::new();
                let p = bracket.try_promote_traced(&mut delayed);
                for level in delayed {
                    self.telemetry
                        .emit_with(ctx.now, || Event::PromotionDelayed { bracket: b, level });
                }
                p
            } else {
                bracket.try_promote()
            };
            if let Some((config, level)) = promotion {
                self.diagnostics.record_promotion(b);
                self.telemetry.emit_with(ctx.now, || Event::PromotionMade {
                    bracket: b,
                    to_level: level,
                });
                return Some(JobSpec {
                    config,
                    level,
                    resource: ctx.levels.resource(level),
                    bracket: Some(b),
                    id: 0,
                });
            }
        }
        None
    }
}

impl Method for AsyncHb {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
        // Breaker open: don't refit θ on a starved history and don't
        // promote on the strength of it; keep workers busy with random
        // base-rung starts until the storm passes.
        if !self.degraded {
            self.refresh_theta(ctx);

            if let Some(job) = self.try_promotion(ctx) {
                return Some(job);
            }
        }

        // No promotion possible: sample a new configuration at the base
        // rung of the policy-chosen bracket (lines 13–14).
        let b = self.policy.select(ctx.rng);
        self.diagnostics.record_start(b);
        let config = self.sampler.sample(ctx);
        self.brackets[b].add_base_job();
        let level = self.brackets[b].base_level();
        Some(JobSpec {
            config,
            level,
            resource: ctx.levels.resource(level),
            bracket: Some(b),
            id: 0,
        })
    }

    /// Batch dispatch: one θ refresh, promotions drained first (they cost
    /// no sampler work), then all remaining slots filled from a single
    /// [`Sampler::sample_batch`] round — so `k` idle workers trigger one
    /// surrogate fit instead of up to `k`.
    fn next_jobs(&mut self, ctx: &mut MethodContext<'_>, k: usize) -> Vec<JobSpec> {
        if k <= 1 {
            // Must stay bit-identical to the sequential path.
            return (0..k).filter_map(|_| self.next_job(ctx)).collect();
        }
        let mut jobs = Vec::with_capacity(k);
        if !self.degraded {
            self.refresh_theta(ctx);
            while jobs.len() < k {
                match self.try_promotion(ctx) {
                    Some(job) => jobs.push(job),
                    None => break,
                }
            }
        }
        let m = k - jobs.len();
        if m > 0 {
            let chosen: Vec<usize> = (0..m).map(|_| self.policy.select(ctx.rng)).collect();
            for &b in &chosen {
                self.diagnostics.record_start(b);
            }
            let configs = self.sampler.sample_batch(ctx, m);
            for (&b, config) in chosen.iter().zip(configs) {
                self.brackets[b].add_base_job();
                let level = self.brackets[b].base_level();
                jobs.push(JobSpec {
                    config,
                    level,
                    resource: ctx.levels.resource(level),
                    bracket: Some(b),
                    id: 0,
                });
            }
        }
        jobs
    }

    fn on_result(&mut self, outcome: &Outcome, _ctx: &mut MethodContext<'_>) {
        let b = outcome
            .spec
            .bracket
            .expect("async engine tags every job with its bracket");
        // A quarantined job still occupies its rung slot (the resource was
        // spent) but must never win a promotion: record it as +inf, which
        // `try_promote` skips. This is what keeps D-ASHA's rungs moving
        // under worker failures instead of waiting for a result that will
        // never arrive.
        let value = if outcome.is_failed() {
            self.diagnostics.record_failure(b);
            if let Some(status) = outcome.fail_status {
                self.diagnostics.record_failure_status(status);
            }
            f64::INFINITY
        } else {
            outcome.value
        };
        self.brackets[b].on_result(outcome.spec.config.clone(), outcome.spec.level, value);
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.sampler.set_telemetry(telemetry.clone());
        if let BracketPolicy::Learned(s) = &mut self.policy {
            s.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
        self.sampler.set_degraded(degraded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, Measurement};
    use crate::sampler::RandomSampler;
    use hypertune_space::ConfigSpace;
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

        fn complete(&mut self, m: &mut AsyncHb, job: JobSpec) {
            let value = self.space.encode(&job.config)[0];
            self.history.record(Measurement {
                config: job.config.clone(),
                level: job.level,
                resource: job.resource,
                value,
                test_value: value,
                cost: 1.0,
                finished_at: 0.0,
            });
            let outcome = Outcome {
                spec: job,
                value,
                test_value: value,
                cost: 1.0,
                finished_at: 0.0,
                status: crate::method::OutcomeStatus::Success,
                fail_status: None,
            };
            m.on_result(&outcome, &mut self.ctx());
        }
    }

    fn asha(delay: bool) -> (Env, AsyncHb) {
        let env = Env::new();
        let m = AsyncHb::new(
            "test".into(),
            &env.levels,
            BracketPolicy::fixed(0),
            delay,
            Box::new(RandomSampler),
            0,
        );
        (env, m)
    }

    #[test]
    fn never_blocks() {
        let (mut env, mut m) = asha(false);
        for _ in 0..50 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            env.complete(&mut m, j);
        }
    }

    #[test]
    fn asha_promotes_after_enough_base_results() {
        let (mut env, mut m) = asha(false);
        // Complete base jobs until a promotion appears.
        let mut levels_seen = Vec::new();
        for _ in 0..12 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            levels_seen.push(j.level);
            env.complete(&mut m, j);
        }
        assert!(
            levels_seen.iter().any(|&l| l > 0),
            "expected a promotion within 12 jobs: {levels_seen:?}"
        );
    }

    #[test]
    fn dasha_promotes_less_eagerly_than_asha() {
        let count_promotions = |delay: bool| {
            let (mut env, mut m) = asha(delay);
            let mut promotions = 0;
            for _ in 0..40 {
                let j = m.next_job(&mut env.ctx()).unwrap();
                if j.level > 0 {
                    promotions += 1;
                }
                env.complete(&mut m, j);
            }
            promotions
        };
        let eager = count_promotions(false);
        let delayed = count_promotions(true);
        assert!(
            delayed <= eager,
            "D-ASHA must not promote more than ASHA: {delayed} vs {eager}"
        );
        assert!(eager > 0);
    }

    #[test]
    fn round_robin_spreads_new_configs_over_brackets() {
        let env = Env::new();
        let mut env = env;
        let mut m = AsyncHb::new(
            "A-HB".into(),
            &env.levels,
            BracketPolicy::round_robin(&env.levels),
            false,
            Box::new(RandomSampler),
            0,
        );
        let mut base_levels = Vec::new();
        for _ in 0..8 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            // With no completions there are no promotions; every job is a
            // fresh config at its bracket's base level.
            base_levels.push(j.level);
            env.complete(&mut m, j);
        }
        // All four base levels appear.
        for lvl in 0..4 {
            assert!(base_levels.contains(&lvl), "levels {base_levels:?}");
        }
    }

    #[test]
    fn learned_policy_engine_runs() {
        let mut env = Env::new();
        let mut m = AsyncHb::new(
            "HT".into(),
            &env.levels,
            BracketPolicy::learned(&env.levels),
            true,
            Box::new(RandomSampler),
            0,
        );
        for _ in 0..60 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            env.complete(&mut m, j);
        }
        // After enough full evaluations θ becomes available.
        assert!(env.history.len_at(3) >= 4);
        assert!(m.theta().is_some());
    }

    #[test]
    fn failed_outcomes_release_slots_without_promoting() {
        let (mut env, mut m) = asha(false);
        // Quarantine every job: the engine must keep producing fresh
        // base-level work (failures never promote, rungs never stall).
        for _ in 0..20 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            assert_eq!(j.level, 0, "nothing promotable from all-failed rungs");
            let outcome = Outcome {
                spec: j,
                value: f64::INFINITY,
                test_value: f64::INFINITY,
                cost: 1.0,
                finished_at: 0.0,
                status: crate::method::OutcomeStatus::Failed,
                fail_status: Some(hypertune_cluster::JobStatus::Crashed),
            };
            m.on_result(&outcome, &mut env.ctx());
        }
        assert_eq!(m.diagnostics().bracket_failures[0], 20);
    }

    #[test]
    fn promotion_routed_back_to_owning_bracket() {
        let mut env = Env::new();
        let mut m = AsyncHb::new(
            "A-HB".into(),
            &env.levels,
            BracketPolicy::round_robin(&env.levels),
            false,
            Box::new(RandomSampler),
            0,
        );
        for _ in 0..40 {
            let j = m.next_job(&mut env.ctx()).unwrap();
            if j.level > 0 && j.bracket == Some(0) {
                // Promotion inside bracket 0: must target level 1+.
                assert!(j.level >= 1);
            }
            env.complete(&mut m, j);
        }
    }
}
