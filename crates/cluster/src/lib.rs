//! Cluster substrate for Hyper-Tune: where trials actually run.
//!
//! The paper evaluates on clusters of 4–256 workers over wall-clock
//! budgets of hours to days. This crate replaces that hardware with three
//! interchangeable execution substrates:
//!
//! - [`sim::SimCluster`] — a deterministic discrete-event simulator with a
//!   virtual clock. Each job carries a duration (from the benchmark's cost
//!   model); the simulator tracks per-worker busy intervals, optional
//!   straggler slowdowns, and advances time to the next completion. This
//!   is the substrate every experiment harness uses, mirroring how the
//!   paper itself uses NAS-Bench-201's *simulated training time*.
//! - [`executor::ThreadPool`] — a real threaded executor built on
//!   crossbeam channels, demonstrating that the same scheduling logic
//!   drives genuinely parallel evaluation (used by the examples).
//! - [`net::TcpCluster`] — a real *distributed* executor: worker
//!   processes (the `hypertune-worker` binary) reached over TCP via the
//!   [`proto`] wire protocol, where a worker crash is an actual process
//!   death and recovery runs over sockets.
//!
//! The two real substrates share the [`executor::Executor`] trait — the
//! submit/complete driver surface — so `hypertune-core`'s threaded
//! runner is written once and runs on either; the simulator keeps its
//! own richer interface (virtual time, receipts) with the same contract.
//!
//! The in-process substrates share one imperfection model: a
//! [`StragglerModel`] stretches durations (the paper's §4.2 motivation
//! for asynchronous scheduling), and a [`FaultModel`] injects worker
//! crashes, evaluation errors, hangs, and corrupt results, reported
//! through each substrate's `next_completion` as a [`JobStatus`]. Faults
//! are drawn at dispatch on the driver thread, so a run is a
//! deterministic function of its seeds on either in-process substrate.
//! The TCP substrate needs no injection — its faults are real: kill the
//! worker process and the driver sees the disconnect.
//!
//! # Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`sim`] | [`SimCluster`], [`JobResult`], [`JobStatus`], [`ClusterError`] — the discrete-event simulator and the submit/complete contract |
//! | [`executor`] | [`Executor`], [`ThreadPool`], [`PoolResult`] — the driver-facing trait and the same contract on real OS threads |
//! | [`proto`] | [`proto::Frame`], [`proto::FrameEncoder`], [`proto::FrameDecoder`], [`proto::ProtoError`] — the length-prefixed binary wire protocol (normative spec: DESIGN.md §16) |
//! | [`net`] | [`TcpCluster`], [`serve_worker`] — the driver/worker TCP substrate built on [`proto`]; Unix-only, since both sides wait in `poll(2)` |
//! | [`fault`] | [`Fault`], [`FaultSpec`], [`FaultModel`] — dispatch-time failure injection |
//! | [`membership`] | [`MembershipPlan`], [`MembershipEvent`] — elastic worker churn: scheduled joins/leaves, worker crashes that orphan jobs, lease-based recovery |
//! | `poll` (private) | `poll(2)` through one `extern "C"` declaration — the readiness wait under [`net`], and the workspace's only `unsafe` block |
//! | `straggler` (private) | [`StragglerModel`] — duration noise |
//! | [`trace`] | [`Trace`], [`TraceSpan`] — per-worker busy intervals for utilization and Gantt renderings (Figures 1 and 4 of the paper) |
//!
//! Beyond job faults, the in-process substrates accept a
//! [`MembershipPlan`]: workers can join or leave on a schedule, or die
//! with a per-dispatch probability. A dying worker **orphans** its
//! in-flight job — the driver only learns of it when the job's lease
//! expires and the substrate surfaces it as [`JobStatus::Orphaned`] —
//! which is how a real cluster manager observes preempted machines. The
//! TCP substrate produces the same `Orphaned` status from real causes:
//! a dropped connection or a missed-heartbeat lease expiry.

pub mod chaos;
pub mod executor;
pub mod fault;
pub mod membership;
pub mod net;
pub mod proto;
pub mod sim;
pub mod trace;

mod poll;
mod straggler;

pub use chaos::{ChaosFault, ChaosPlan, ChaosProxy, ScheduledFault};
pub use executor::{Executor, PoolResult, ThreadPool};
pub use fault::{Fault, FaultModel, FaultSpec};
pub use membership::{MembershipEvent, MembershipPlan};
pub use net::{
    serve_worker, EvalFn, ReconnectPolicy, TcpCluster, TcpClusterOptions, WorkerOptions,
    CONNECT_RETRY_PAUSE,
};
pub use proto::{
    Codec, Frame, FrameDecoder, FrameEncoder, ProtoError, MAX_FRAME, MAX_SLOTS, WIRE_VERSION,
};
pub use sim::{ClusterError, JobResult, JobStatus, SimCluster, SubmitReceipt};
pub use straggler::StragglerModel;
pub use trace::{Trace, TraceSpan};
