//! The Hyper-Tune framework: schedulers, resource allocation, and
//! multi-fidelity optimization (the paper's primary contribution), plus
//! every baseline method it compares against.
//!
//! # Architecture (mirrors Figure 3 of the paper)
//!
//! An iteration of Hyper-Tune runs four steps:
//!
//! 1. the **resource allocator** ([`allocator::BracketSelector`]) picks
//!    the initial training resource `r₁` — i.e. a Hyperband bracket —
//!    using the learned precision-vs-cost weights `w = normalize(c ∘ θ)`;
//! 2. the **multi-fidelity optimizer** ([`sampler::MfesSampler`]) samples
//!    a configuration for each idle worker, combining the per-level base
//!    surrogates with the MFES ensemble (Eq. 3) and imputing pending
//!    evaluations with the median of `D_K` (Algorithm 2);
//! 3. the **evaluation scheduler** ([`bracket::AsyncBracket`] with the
//!    delay condition — D-ASHA, Algorithm 1) runs evaluations
//!    asynchronously and decides promotions;
//! 4. measurements flow back into the [`history::History`], updating both
//!    the allocator's `θ` (via [`ranking`]) and the optimizer.
//!
//! All methods implement the [`method::Method`] trait and are driven by
//! [`runner::run`] against any [`hypertune_benchmarks::Benchmark`] on a
//! simulated or real cluster. Every driver suggests and books trials
//! through one [`tenant::StudyRuntime`], whose ledger sends failed
//! evaluations (when fault injection is on) through the bounded
//! [`runner::RetryPolicy`] and quarantines them as `Failed` outcomes after
//! their retries run out; [`runner::run_checkpointed`] and
//! [`runner::resume`] give long runs crash-safe, bit-identical
//! restartability from one append-only log ([`persist`]).
//!
//! # Module map
//!
//! | Module | Role |
//! |---|---|
//! | [`method`] | The `Method` trait: `next_job` / `on_result`, quarantine semantics |
//! | [`methods`] | Hyper-Tune + all baselines, behind [`MethodKind`] |
//! | [`runner`] | Simulated-cluster driver: budget loop, faults, retries, checkpoint/resume |
//! | [`runner_threaded`] | The same loop on real executors: OS threads or TCP workers |
//! | [`history`] | Per-level measurement store and incumbent tracking |
//! | [`levels`] | The geometric resource ladder `r₀ < r₁ < … < R` |
//! | [`bracket`] | Sync/async successive-halving rung bookkeeping (D-ASHA) |
//! | [`allocator`] | θ-weighted bracket selection (§4.1) |
//! | [`sampler`] | Random / BO / MFES configuration samplers (§4.3) |
//! | [`ranking`] | Cross-level ranking loss behind θ |
//! | [`persist`] | The durable log: one checksummed append-only WAL format, its writer and its reader |
//! | [`tenant`] | Per-study runtime and trial ledger: history, pending set, RNG; retry, quarantine, breaker, counts |
//! | [`breaker`] | Quarantine-storm circuit breaker (graceful degradation) |
//! | [`diagnostics`] | θ history, bracket starts/promotions/failures |
//!
//! # Baselines
//!
//! [`methods`] provides the paper's ten baselines (§5.1): A-Random,
//! Batch-BO, A-BO, SHA, ASHA, Hyperband, A-Hyperband, BOHB, A-BOHB,
//! MFES-HB — plus A-REA from §5.2 and the ablation variants of §5.7
//! (Hyper-Tune without bracket selection / D-ASHA / MFES).

pub mod allocator;
pub mod bracket;
pub mod breaker;
pub mod diagnostics;
pub mod history;
pub mod levels;
pub mod method;
pub mod methods;
pub(crate) mod pending;
pub mod persist;
pub mod ranking;
pub mod runner;
pub mod runner_threaded;
pub mod sampler;
pub mod tenant;

pub use breaker::{Breaker, BreakerConfig, BreakerTransition};
pub use diagnostics::{failure_kind, Diagnostics, FailureCounts};
pub use history::{top_indices_uncached, History, Measurement};
pub use levels::ResourceLevels;
pub use method::{JobSpec, Method, MethodContext, Outcome, OutcomeStatus};
pub use methods::MethodKind;
pub use persist::{RunSnapshot, SubmissionRecord, WalWriter};
pub use runner::{
    resume, run, run_checkpointed, CheckpointPolicy, ResumeError, RetryPolicy, RunConfig,
    RunResult, SpeculationConfig,
};
pub use runner_threaded::{
    run_distributed, run_threaded, ThreadedJob, ThreadedRunConfig, ThreadedRunResult,
};
pub use tenant::{Booked, StudyRuntime};
