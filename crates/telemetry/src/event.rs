//! The event taxonomy: every internal decision the runtime can narrate.
//!
//! Events are plain data — no references into engine state — so a sink
//! can ship them across a process boundary. The trace format is derived
//! from the enum: one JSON object per event, its snake_case variant name
//! under `"type"` beside its fields (`{"level":1,...,"type":"trial_dispatched"}`),
//! keys sorted, which keeps the JSONL stable and greppable.

use serde::{Deserialize, Serialize};

/// Why a job attempt failed, as reported by the execution substrate.
///
/// Mirrors the cluster crate's `JobStatus` failure variants without
/// depending on it (the cluster crate depends on *this* crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FailureKind {
    /// The worker died mid-evaluation.
    Crashed,
    /// The evaluation completed and then raised.
    Errored,
    /// The job exceeded the per-job timeout.
    TimedOut,
    /// The result arrived but was unusable.
    Corrupt,
    /// The worker holding the job left the cluster and the job's lease
    /// expired before any result arrived.
    Orphaned,
}

/// The fault a fault model injected at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultKind {
    /// Worker crash partway through the job.
    Crash,
    /// Evaluation error after running fully.
    Error,
    /// Worker stall (extreme straggler).
    Hang,
    /// Corrupt result.
    Corrupt,
}

impl FaultKind {
    /// The name the trace writes this kind under, which keys
    /// `TraceSummary`'s fault table.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Error => "error",
            FaultKind::Hang => "hang",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// A structured event emitted by the runtime; see the variants for the
/// taxonomy. Times live on the enclosing [`EventRecord`], not here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Event {
    /// A job was handed to the execution substrate.
    TrialDispatched {
        /// Resource-level index of the dispatched job.
        level: usize,
        /// Owning bracket, when the method tags one.
        bracket: Option<usize>,
        /// 0 for a first attempt, incremented per retry.
        attempt: usize,
    },
    /// A job completed with a usable result.
    TrialCompleted {
        /// Resource-level index.
        level: usize,
        /// Owning bracket.
        bracket: Option<usize>,
        /// Validation objective (minimized).
        value: f64,
        /// Evaluation cost in substrate seconds.
        cost: f64,
    },
    /// A failed attempt was resubmitted by the retry policy.
    TrialRetried {
        /// Resource-level index.
        level: usize,
        /// Attempt number of the *resubmission* (1 = first retry).
        attempt: usize,
        /// How the previous attempt failed.
        kind: FailureKind,
    },
    /// A job exhausted its retries and was quarantined.
    TrialQuarantined {
        /// Resource-level index.
        level: usize,
        /// Owning bracket.
        bracket: Option<usize>,
        /// How the final attempt failed.
        kind: FailureKind,
    },
    /// A bracket promoted a configuration to the next rung.
    PromotionMade {
        /// Bracket index.
        bracket: usize,
        /// Absolute level the config was promoted *to*.
        to_level: usize,
    },
    /// D-ASHA's delay condition blocked an otherwise admissible
    /// promotion at a rung.
    PromotionDelayed {
        /// Bracket index.
        bracket: usize,
        /// Absolute level of the rung that was held back.
        level: usize,
    },
    /// θ was refreshed and the allocator recomputed `w = normalize(c∘θ)`.
    BracketWeightsUpdated {
        /// Complete evaluations `|D_K|` at refresh time.
        n_full: usize,
        /// The precision weights θ (one per level).
        theta: Vec<f64>,
        /// The allocator's sampling distribution `w`; empty when θ was
        /// degenerate and the previous weights were kept.
        weights: Vec<f64>,
    },
    /// A per-level base surrogate was (re)fit.
    SurrogateFit {
        /// Level whose surrogate was refit.
        level: usize,
        /// Training points at fit time.
        n_points: usize,
    },
    /// The sampler ran acquisition maximization over the ensemble.
    SurrogatePredict {
        /// Reference level driving the incumbent.
        level: usize,
        /// Ensemble members (fitted levels) involved.
        n_models: usize,
    },
    /// A run snapshot was written to disk.
    CheckpointWritten {
        /// Completed evaluations covered by the snapshot.
        completions: usize,
        /// Snapshot path.
        path: String,
    },
    /// The fault model injected a fault at dispatch.
    FaultInjected {
        /// The injected fault.
        kind: FaultKind,
    },
    /// A timing span closed (durations use the telemetry clock, which is
    /// wall time unless a virtual clock was injected).
    SpanClosed {
        /// Span name, e.g. `"surrogate_fit"`.
        name: String,
        /// Duration in clock seconds.
        duration: f64,
    },
    /// A worker joined the cluster (scheduled scale-up or crash rejoin).
    WorkerJoined {
        /// Id of the new worker.
        worker: usize,
        /// Cluster capacity after the join.
        n_alive: usize,
    },
    /// A worker left the cluster (scheduled scale-down or worker crash).
    WorkerLeft {
        /// Id of the departed worker.
        worker: usize,
        /// Cluster capacity after the departure.
        n_alive: usize,
    },
    /// A disconnected worker was redialed successfully and rejoined the
    /// fleet under a fresh session epoch.
    WorkerReconnected {
        /// Id of the revived worker.
        worker: usize,
        /// Session epoch of the new connection (0 = first connect, so a
        /// reconnection is always >= 1).
        epoch: u64,
        /// Dial attempts the redial loop spent before this one landed.
        attempts: usize,
    },
    /// A redial loop exhausted its attempt budget; the worker's Leave is
    /// now permanent.
    RedialGaveUp {
        /// Id of the worker that stayed unreachable.
        worker: usize,
        /// Attempts the redial loop made before giving up.
        attempts: usize,
    },
    /// The chaos proxy injected a scheduled network fault (drills only).
    ChaosInjected {
        /// Fault kind tag, e.g. `"blackhole"` or `"latency"`.
        kind: String,
    },
    /// The lease on a job held by a departed worker expired; the driver
    /// now owns the orphan and routes it through the retry policy.
    LeaseExpired {
        /// Resource-level index of the orphaned job.
        level: usize,
        /// Attempt number of the orphaned dispatch.
        attempt: usize,
    },
    /// A straggling trial got a speculative backup copy (first result
    /// wins, the loser is cancelled).
    SpeculationLaunched {
        /// Resource-level index of the straggling job.
        level: usize,
    },
    /// One copy of a speculated trial finished first; the sibling was
    /// cancelled.
    SpeculationResolved {
        /// Resource-level index.
        level: usize,
        /// `true` when the backup copy beat the original.
        backup_won: bool,
    },
    /// The quarantine-storm circuit breaker opened: promotions pause and
    /// model-based samplers degrade to random sampling.
    BreakerOpened {
        /// Observed failure rate over the breaker's window.
        failure_rate: f64,
    },
    /// The circuit breaker closed again: full model-based operation
    /// resumed.
    BreakerClosed,
    /// A tuning study was registered with the multi-tenant service.
    StudyCreated {
        /// Service-assigned study (tenant) id.
        study: u64,
        /// Human-readable study name.
        name: String,
    },
    /// A study was stopped by its owner before exhausting its budget.
    StudyStopped {
        /// Service-assigned study (tenant) id.
        study: u64,
    },
    /// A study exhausted its evaluation budget and left the scheduler.
    StudyCompleted {
        /// Service-assigned study (tenant) id.
        study: u64,
        /// Completed trials at study end.
        trials: usize,
    },
}

/// One entry of the event log: a monotonically increasing sequence
/// number, the emitter-supplied timestamp (virtual seconds on the
/// simulator, wall seconds on the thread pool), the event itself, and —
/// for events emitted through a tenant-scoped handle — the owning
/// study id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotonic sequence number assigned by the telemetry handle.
    pub seq: u64,
    /// Emitter-supplied timestamp in seconds.
    pub time: f64,
    /// The event.
    pub event: Event,
    /// Owning study (tenant) id, stamped by
    /// `TelemetryHandle::with_tenant` handles; `None` for service-level
    /// and single-study traces. Omitted from JSON when absent, so
    /// single-tenant logs are byte-identical to the pre-service format;
    /// a missing key reads back as `None`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenant: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<Event> {
        vec![
            Event::TrialDispatched {
                level: 1,
                bracket: Some(2),
                attempt: 0,
            },
            Event::TrialDispatched {
                level: 0,
                bracket: None,
                attempt: 3,
            },
            Event::TrialCompleted {
                level: 2,
                bracket: Some(0),
                value: 0.125,
                cost: 9.0,
            },
            Event::TrialRetried {
                level: 0,
                attempt: 1,
                kind: FailureKind::Crashed,
            },
            Event::TrialQuarantined {
                level: 3,
                bracket: Some(1),
                kind: FailureKind::Orphaned,
            },
            Event::PromotionMade {
                bracket: 0,
                to_level: 2,
            },
            Event::PromotionDelayed {
                bracket: 1,
                level: 1,
            },
            Event::BracketWeightsUpdated {
                n_full: 7,
                theta: vec![0.5, 0.25, 0.25],
                weights: vec![0.8, 0.15, 0.05],
            },
            Event::SurrogateFit {
                level: 0,
                n_points: 40,
            },
            Event::SurrogatePredict {
                level: 3,
                n_models: 4,
            },
            Event::CheckpointWritten {
                completions: 14,
                path: "/tmp/snap.json".into(),
            },
            Event::FaultInjected {
                kind: FaultKind::Hang,
            },
            Event::SpanClosed {
                name: "surrogate_fit".into(),
                duration: 0.0021,
            },
            Event::WorkerJoined {
                worker: 9,
                n_alive: 10,
            },
            Event::WorkerLeft {
                worker: 3,
                n_alive: 9,
            },
            Event::WorkerReconnected {
                worker: 3,
                epoch: 2,
                attempts: 4,
            },
            Event::RedialGaveUp {
                worker: 5,
                attempts: 6,
            },
            Event::ChaosInjected {
                kind: "blackhole".into(),
            },
            Event::LeaseExpired {
                level: 1,
                attempt: 0,
            },
            Event::SpeculationLaunched { level: 2 },
            Event::SpeculationResolved {
                level: 2,
                backup_won: true,
            },
            Event::BreakerOpened { failure_rate: 0.75 },
            Event::BreakerClosed,
            Event::StudyCreated {
                study: 3,
                name: "tenant-a".into(),
            },
            Event::StudyStopped { study: 3 },
            Event::StudyCompleted {
                study: 4,
                trials: 60,
            },
        ]
    }

    /// The `i`th fixture record: untenanted when `i` is even.
    fn record(i: usize, event: Event) -> EventRecord {
        let tenant = (i % 2 == 1).then_some(i as u64);
        let (seq, time) = (i as u64, 1.5 * i as f64);
        EventRecord {
            seq,
            time,
            event,
            tenant,
        }
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for (i, event) in all_events().into_iter().enumerate() {
            let rec = record(i, event);
            let line = serde_json::to_string(&rec).unwrap();
            let back: EventRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(back, rec, "line: {line}");
        }
    }

    #[test]
    fn every_event_prints_its_golden_line() {
        // Every fixture, alternately untenanted and tenanted, then three
        // edge records: non-finite floats, a string that needs escaping,
        // and -0.0 / 1e300 weights.
        let edges = [
            Event::TrialCompleted {
                level: 1,
                bracket: None,
                value: f64::INFINITY,
                cost: f64::NAN,
            },
            Event::CheckpointWritten {
                completions: 1,
                path: "a\"b\\c\nd\te\u{1}\u{e9}".into(),
            },
            Event::BracketWeightsUpdated {
                n_full: 2,
                theta: vec![-0.0, 1e300],
                weights: vec![],
            },
        ];
        let events: Vec<Event> = all_events().into_iter().chain(edges).collect();
        let golden = [
            r#"{"event":{"attempt":0,"bracket":2,"level":1,"type":"trial_dispatched"},"seq":0,"time":0.0}"#,
            r#"{"event":{"attempt":3,"bracket":null,"level":0,"type":"trial_dispatched"},"seq":1,"tenant":1,"time":1.5}"#,
            r#"{"event":{"bracket":0,"cost":9.0,"level":2,"type":"trial_completed","value":0.125},"seq":2,"time":3.0}"#,
            r#"{"event":{"attempt":1,"kind":"crashed","level":0,"type":"trial_retried"},"seq":3,"tenant":3,"time":4.5}"#,
            r#"{"event":{"bracket":1,"kind":"orphaned","level":3,"type":"trial_quarantined"},"seq":4,"time":6.0}"#,
            r#"{"event":{"bracket":0,"to_level":2,"type":"promotion_made"},"seq":5,"tenant":5,"time":7.5}"#,
            r#"{"event":{"bracket":1,"level":1,"type":"promotion_delayed"},"seq":6,"time":9.0}"#,
            r#"{"event":{"n_full":7,"theta":[0.5,0.25,0.25],"type":"bracket_weights_updated","weights":[0.8,0.15,0.05]},"seq":7,"tenant":7,"time":10.5}"#,
            r#"{"event":{"level":0,"n_points":40,"type":"surrogate_fit"},"seq":8,"time":12.0}"#,
            r#"{"event":{"level":3,"n_models":4,"type":"surrogate_predict"},"seq":9,"tenant":9,"time":13.5}"#,
            r#"{"event":{"completions":14,"path":"/tmp/snap.json","type":"checkpoint_written"},"seq":10,"time":15.0}"#,
            r#"{"event":{"kind":"hang","type":"fault_injected"},"seq":11,"tenant":11,"time":16.5}"#,
            r#"{"event":{"duration":0.0021,"name":"surrogate_fit","type":"span_closed"},"seq":12,"time":18.0}"#,
            r#"{"event":{"n_alive":10,"type":"worker_joined","worker":9},"seq":13,"tenant":13,"time":19.5}"#,
            r#"{"event":{"n_alive":9,"type":"worker_left","worker":3},"seq":14,"time":21.0}"#,
            r#"{"event":{"attempts":4,"epoch":2,"type":"worker_reconnected","worker":3},"seq":15,"tenant":15,"time":22.5}"#,
            r#"{"event":{"attempts":6,"type":"redial_gave_up","worker":5},"seq":16,"time":24.0}"#,
            r#"{"event":{"kind":"blackhole","type":"chaos_injected"},"seq":17,"tenant":17,"time":25.5}"#,
            r#"{"event":{"attempt":0,"level":1,"type":"lease_expired"},"seq":18,"time":27.0}"#,
            r#"{"event":{"level":2,"type":"speculation_launched"},"seq":19,"tenant":19,"time":28.5}"#,
            r#"{"event":{"backup_won":true,"level":2,"type":"speculation_resolved"},"seq":20,"time":30.0}"#,
            r#"{"event":{"failure_rate":0.75,"type":"breaker_opened"},"seq":21,"tenant":21,"time":31.5}"#,
            r#"{"event":{"type":"breaker_closed"},"seq":22,"time":33.0}"#,
            r#"{"event":{"name":"tenant-a","study":3,"type":"study_created"},"seq":23,"tenant":23,"time":34.5}"#,
            r#"{"event":{"study":3,"type":"study_stopped"},"seq":24,"time":36.0}"#,
            r#"{"event":{"study":4,"trials":60,"type":"study_completed"},"seq":25,"tenant":25,"time":37.5}"#,
            r#"{"event":{"bracket":null,"cost":null,"level":1,"type":"trial_completed","value":null},"seq":26,"time":39.0}"#,
            r#"{"event":{"completions":1,"path":"a\"b\\c\nd\te\u0001é","type":"checkpoint_written"},"seq":27,"tenant":27,"time":40.5}"#,
            r#"{"event":{"n_full":2,"theta":[-0.0,1e300],"type":"bracket_weights_updated","weights":[]},"seq":28,"time":42.0}"#,
        ];
        assert_eq!(events.len(), golden.len());
        for ((i, event), want) in events.into_iter().enumerate().zip(golden) {
            let rec = record(i, event);
            assert_eq!(serde_json::to_string(&rec).unwrap(), want, "streamed");
            let tree = serde::Serialize::to_value(&rec);
            assert_eq!(serde_json::to_string(&tree).unwrap(), want, "tree");
        }
    }

    #[test]
    fn untenanted_records_serialize_without_a_tenant_key() {
        let rec = EventRecord {
            seq: 0,
            time: 0.0,
            event: Event::BreakerClosed,
            tenant: None,
        };
        let line = serde_json::to_string(&rec).unwrap();
        assert!(!line.contains("tenant"), "line: {line}");
        // And pre-service logs (no key at all) still parse.
        let back: EventRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.tenant, None);
    }

    #[test]
    fn tags_are_unique() {
        let tag = |e: &Event| e.to_value()["type"].as_str().map(str::to_string);
        let mut tags: Vec<String> = all_events().iter().filter_map(tag).collect();
        let n = all_events().len();
        tags.sort_unstable();
        tags.dedup();
        // TrialDispatched appears twice in the fixture list.
        assert_eq!(tags.len(), n - 1);
    }

    #[test]
    fn unknown_type_rejected() {
        let v: serde::Value = serde_json::from_str(r#"{"type": "nope"}"#).unwrap();
        assert!(Event::from_value(&v).is_err());
    }
}
