//! # Hyper-Tune: efficient hyper-parameter tuning at scale
//!
//! A from-scratch Rust reproduction of *Hyper-Tune: Towards Efficient
//! Hyper-parameter Tuning at Scale* (Li et al., VLDB 2022): a distributed
//! tuning framework built on three system components —
//!
//! 1. **automatic resource allocation** via learned bracket selection,
//! 2. **asynchronous scheduling** via D-ASHA (delayed asynchronous
//!    successive halving), and
//! 3. a **multi-fidelity optimizer** (MFES ensemble surrogates).
//!
//! This facade crate re-exports the full public API and hosts the
//! runnable examples and cross-crate integration tests.
//!
//! The execution layer is fault-tolerant: worker crashes, evaluation
//! errors, hangs, and corrupt results can be injected
//! ([`cluster::FaultSpec`]), failed jobs are retried with bounded
//! backoff and quarantined when hopeless ([`core::runner::RetryPolicy`]),
//! and long runs checkpoint to disk and resume bit-identically
//! ([`core::runner::resume`]).
//!
//! ## Quick start
//!
//! ```
//! use hypertune::prelude::*;
//!
//! // A benchmark: the counting-ones toy objective (or implement the
//! // `Benchmark` trait for your own training job).
//! let bench = CountingOnes::new(4, 4, 0);
//!
//! // Hyper-Tune with 8 simulated workers and a small virtual budget.
//! let levels = ResourceLevels::new(bench.max_resource(), 3);
//! let mut method = MethodKind::HyperTune.build(&levels, 42);
//! let result = run(method.as_mut(), &bench, &RunConfig::new(8, 2000.0, 42));
//!
//! assert!(result.best_value <= 0.0); // counting-ones optimum is -1
//! println!("best = {:.3} after {} evaluations", result.best_value, result.total_evals);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`space`] | configuration spaces, parameters, encodings |
//! | [`surrogate`] | random-forest surrogates, acquisition functions, MFES ensemble |
//! | [`cluster`] | discrete-event cluster simulator + threaded executor |
//! | [`benchmarks`] | counting-ones, tabular NAS, simulated XGBoost/ResNet/LSTM workloads |
//! | [`core`] | schedulers (SHA/ASHA/D-ASHA), bracket selection, samplers, all methods, the runner |
//! | [`service`] | multi-tenant tuning service: fair-share scheduling, study lifecycle, per-study WALs |
//! | [`telemetry`] | structured event log, metrics registry, timing spans, trace replay |
//!
//! ## Tracing a run
//!
//! Every run accepts a [`telemetry::TelemetryHandle`]
//! ([`core::runner::RunConfig::telemetry`]); the default disabled handle
//! is free and leaves runs bit-identical to untraced ones. An enabled
//! handle records dispatches, completions, retries, promotions, bracket
//! weights, and surrogate activity:
//!
//! ```
//! use hypertune::prelude::*;
//!
//! let bench = CountingOnes::new(4, 4, 0);
//! let levels = ResourceLevels::new(bench.max_resource(), 3);
//! let mut method = MethodKind::HyperTune.build(&levels, 42);
//! let ring = RingBufferSink::new(4096);
//! let mut config = RunConfig::new(8, 500.0, 42);
//! config.telemetry = Telemetry::new().with_sink(ring.clone()).build();
//! let _result = run(method.as_mut(), &bench, &config);
//! assert!(!ring.snapshot().is_empty());
//! ```

pub use hypertune_benchmarks as benchmarks;
pub use hypertune_cluster as cluster;
pub use hypertune_core as core;
pub use hypertune_service as service;
pub use hypertune_space as space;
pub use hypertune_surrogate as surrogate;
pub use hypertune_telemetry as telemetry;

pub mod registry;

/// The most common imports in one place.
pub mod prelude {
    pub use hypertune_benchmarks::{
        tasks, Benchmark, CountingOnes, Eval, SyntheticBenchmark, SyntheticSpec, TabularNasBench,
    };
    pub use hypertune_cluster::{
        serve_worker, ChaosFault, ChaosPlan, ChaosProxy, Executor, FaultSpec, JobStatus,
        MembershipEvent, MembershipPlan, ReconnectPolicy, ScheduledFault, SimCluster,
        StragglerModel, TcpCluster, TcpClusterOptions, ThreadPool, WorkerOptions,
    };
    pub use hypertune_core::{
        resume, run, run_checkpointed, run_distributed, run_threaded, BreakerConfig,
        CheckpointPolicy, FailureCounts, History, JobSpec, Measurement, Method, MethodContext,
        MethodKind, Outcome, OutcomeStatus, ResourceLevels, ResumeError, RetryPolicy, RunConfig,
        RunResult, RunSnapshot, SpeculationConfig, ThreadedJob, ThreadedRunConfig,
        ThreadedRunResult,
    };
    pub use hypertune_service::{
        pool_eval, ServiceConfig, ServiceJob, StudyHandle, StudySpec, StudyStatus, TuningService,
    };
    pub use hypertune_space::{Config, ConfigSpace, ParamValue};
    pub use hypertune_telemetry::{
        read_jsonl, Event, EventRecord, JsonlSink, RingBufferSink, Telemetry, TelemetryHandle,
        TraceSummary,
    };
}
