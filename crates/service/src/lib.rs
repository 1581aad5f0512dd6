//! Multi-tenant tuning service: thousands of concurrent studies on one
//! shared fleet.
//!
//! The single-study drivers in `hypertune-core` answer "how do I tune
//! one objective fast on `n` workers?". At scale the question inverts:
//! an organization runs one worker fleet and *many* tenants each bring
//! their own study — different objectives, methods, budgets, priorities
//! and lifetimes. This crate is that control plane, built from three
//! pieces:
//!
//! - [`StudyHandle`] lifecycle API ([`TuningService::create_study`] /
//!   [`TuningService::suggest`] / [`TuningService::report`] /
//!   [`TuningService::stop_study`]): each study owns an isolated
//!   [`hypertune_core::StudyRuntime`] — its method, RNG, history,
//!   pending set and trial ledger — so tenants are structurally
//!   incapable of perturbing each other's suggestion streams.
//! - [`FairShare`]: a weighted stride scheduler granting idle fleet
//!   slots across live studies, with per-study in-flight quotas.
//!   Proportional share with an O(#studies) error bound, and
//!   starvation-freedom for light tenants next to heavy ones.
//! - Snapshot-backed durability: one file per study under a state
//!   directory, a checksummed WAL whose `Study` records carry the spec
//!   and lifecycle beside the trials; [`TuningService::recover`] rebuilds
//!   every study after a crash with exactly-once booking (in-flight
//!   trials were never logged, so they re-run fresh — nothing is booked
//!   twice).
//!
//! The service drives any [`hypertune_cluster::Executor`] over
//! [`ServiceJob`] payloads — an OS-thread pool via [`pool_eval`], or a
//! TCP worker fleet whose workers resolve benchmarks per job. Telemetry
//! is tenant-stamped throughout: one trace carries all tenants, and
//! `TraceSummary::per_tenant` splits it back into per-study summaries.

mod fill;
pub mod job;
pub mod scheduler;
pub mod service;
pub mod study;

pub use job::ServiceJob;
pub use scheduler::FairShare;
pub use service::{
    pool_eval, BenchResolver, ServiceConfig, ServiceStats, StudyStats, TuningService,
};
pub use study::{StudyHandle, StudyRecord, StudySpec, StudyStatus};
