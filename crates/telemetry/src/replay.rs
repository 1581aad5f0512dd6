//! Reading JSONL event logs back and summarizing them.
//!
//! This is the analysis half of the subsystem: [`read_jsonl`] parses a
//! file written by [`JsonlSink`](crate::JsonlSink), and [`TraceSummary`]
//! folds the records into the tables the `trace-report` bin prints —
//! per-level trial flow, per-bracket promotions and delays, the full
//! bracket-weight trajectory, span timing, and fault counts.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::event::{Event, EventRecord};

/// Parses a JSONL event log, one [`EventRecord`] per line.
///
/// Blank lines are skipped; a malformed line is an error (truncated logs
/// should be noticed, not silently summarized).
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<EventRecord>> {
    let file = File::open(path)?;
    let mut records = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: EventRecord = serde_json::from_str(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        records.push(rec);
    }
    Ok(records)
}

/// Per-level trial flow counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelFlow {
    /// Jobs dispatched at this level (all attempts).
    pub dispatched: usize,
    /// Jobs completing with a usable result.
    pub completed: usize,
    /// Retry resubmissions.
    pub retried: usize,
    /// Quarantined configurations.
    pub quarantined: usize,
    /// Orphaned attempts whose lease expired after a worker departure.
    pub orphaned: usize,
}

/// One θ-refresh round as seen in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRound {
    /// Log timestamp of the refresh.
    pub time: f64,
    /// Complete evaluations `|D_K|` at refresh time.
    pub n_full: usize,
    /// Precision weights θ per level.
    pub theta: Vec<f64>,
    /// Allocator distribution `w`; empty if θ was degenerate.
    pub weights: Vec<f64>,
}

/// Aggregate timing for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Number of closed spans.
    pub count: usize,
    /// Summed duration in clock seconds.
    pub total: f64,
    /// Longest single span.
    pub max: f64,
}

/// Everything `trace-report` needs, folded out of an event log.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total records consumed.
    pub n_records: usize,
    /// Timestamp of the last record, in log time.
    pub end_time: f64,
    /// Trial flow per resource level.
    pub levels: BTreeMap<usize, LevelFlow>,
    /// Promotions per bracket, keyed by (bracket, promoted-to level).
    pub promotions: BTreeMap<(usize, usize), usize>,
    /// D-ASHA delay events per bracket.
    pub delays: BTreeMap<usize, usize>,
    /// Bracket-weight trajectory, in log order.
    pub weight_rounds: Vec<WeightRound>,
    /// Surrogate fits per level.
    pub surrogate_fits: BTreeMap<usize, usize>,
    /// Acquisition-maximization runs.
    pub surrogate_predicts: usize,
    /// Span timing per span name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Injected faults per fault tag.
    pub faults: BTreeMap<&'static str, usize>,
    /// Checkpoints written.
    pub checkpoints: usize,
    /// Workers that joined mid-run (scale-up or crash rejoin).
    pub workers_joined: usize,
    /// Workers that left mid-run (scale-down or worker crash).
    pub workers_left: usize,
    /// Disconnected workers that redialed back in under a new session
    /// epoch.
    pub workers_reconnected: usize,
    /// Redial loops that exhausted their attempt budget (permanent
    /// Leave).
    pub redials_gave_up: usize,
    /// Chaos-proxy fault injections per fault kind (drills only).
    pub chaos_injected: BTreeMap<String, usize>,
    /// Job leases that expired after a worker departure.
    pub leases_expired: usize,
    /// Speculative backup copies launched for stragglers.
    pub speculations_launched: usize,
    /// Speculations resolved (one copy finished, the sibling cancelled).
    pub speculations_resolved: usize,
    /// Resolved speculations where the backup copy won.
    pub backup_wins: usize,
    /// Circuit-breaker open transitions.
    pub breaker_opened: usize,
    /// Circuit-breaker close transitions.
    pub breaker_closed: usize,
    /// Studies registered with the multi-tenant service.
    pub studies_created: usize,
    /// Studies stopped by their owner before budget exhaustion.
    pub studies_stopped: usize,
    /// Studies that exhausted their evaluation budget.
    pub studies_completed: usize,
}

impl TraceSummary {
    /// Folds an event log into a summary.
    pub fn from_records(records: &[EventRecord]) -> Self {
        let mut s = TraceSummary {
            n_records: records.len(),
            ..Default::default()
        };
        for rec in records {
            s.end_time = s.end_time.max(rec.time);
            match &rec.event {
                Event::TrialDispatched { level, .. } => {
                    s.levels.entry(*level).or_default().dispatched += 1;
                }
                Event::TrialCompleted { level, .. } => {
                    s.levels.entry(*level).or_default().completed += 1;
                }
                Event::TrialRetried { level, .. } => {
                    s.levels.entry(*level).or_default().retried += 1;
                }
                Event::TrialQuarantined { level, .. } => {
                    s.levels.entry(*level).or_default().quarantined += 1;
                }
                Event::PromotionMade { bracket, to_level } => {
                    *s.promotions.entry((*bracket, *to_level)).or_default() += 1;
                }
                Event::PromotionDelayed { bracket, .. } => {
                    *s.delays.entry(*bracket).or_default() += 1;
                }
                Event::BracketWeightsUpdated {
                    n_full,
                    theta,
                    weights,
                } => {
                    s.weight_rounds.push(WeightRound {
                        time: rec.time,
                        n_full: *n_full,
                        theta: theta.clone(),
                        weights: weights.clone(),
                    });
                }
                Event::SurrogateFit { level, .. } => {
                    *s.surrogate_fits.entry(*level).or_default() += 1;
                }
                Event::SurrogatePredict { .. } => s.surrogate_predicts += 1,
                Event::CheckpointWritten { .. } => s.checkpoints += 1,
                Event::FaultInjected { kind } => {
                    *s.faults.entry(kind.tag()).or_default() += 1;
                }
                Event::SpanClosed { name, duration } => {
                    let st = s.spans.entry(name.clone()).or_default();
                    st.count += 1;
                    st.total += duration;
                    st.max = st.max.max(*duration);
                }
                Event::WorkerJoined { .. } => s.workers_joined += 1,
                Event::WorkerLeft { .. } => s.workers_left += 1,
                Event::WorkerReconnected { .. } => s.workers_reconnected += 1,
                Event::RedialGaveUp { .. } => s.redials_gave_up += 1,
                Event::ChaosInjected { kind } => {
                    *s.chaos_injected.entry(kind.clone()).or_default() += 1;
                }
                Event::LeaseExpired { level, .. } => {
                    s.levels.entry(*level).or_default().orphaned += 1;
                    s.leases_expired += 1;
                }
                Event::SpeculationLaunched { .. } => s.speculations_launched += 1,
                Event::SpeculationResolved { backup_won, .. } => {
                    s.speculations_resolved += 1;
                    if *backup_won {
                        s.backup_wins += 1;
                    }
                }
                Event::BreakerOpened { .. } => s.breaker_opened += 1,
                Event::BreakerClosed => s.breaker_closed += 1,
                Event::StudyCreated { .. } => s.studies_created += 1,
                Event::StudyStopped { .. } => s.studies_stopped += 1,
                Event::StudyCompleted { .. } => s.studies_completed += 1,
            }
        }
        s
    }

    /// Splits a log by tenant id and folds each partition separately —
    /// the engine behind `trace-report --per-study`. Untenanted records
    /// (driver-level membership events, single-study runs) land under
    /// the `None` key.
    pub fn per_tenant(records: &[EventRecord]) -> BTreeMap<Option<u64>, TraceSummary> {
        let mut parts: BTreeMap<Option<u64>, Vec<EventRecord>> = BTreeMap::new();
        for rec in records {
            parts.entry(rec.tenant).or_default().push(rec.clone());
        }
        parts
            .into_iter()
            .map(|(tenant, recs)| (tenant, TraceSummary::from_records(&recs)))
            .collect()
    }

    /// Total promotions into `to_level`, across brackets.
    pub fn promotions_to_level(&self, to_level: usize) -> usize {
        self.promotions
            .iter()
            .filter(|((_, l), _)| *l == to_level)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total promotions made by `bracket`.
    pub fn promotions_by_bracket(&self, bracket: usize) -> usize {
        self.promotions
            .iter()
            .filter(|((b, _), _)| *b == bracket)
            .map(|(_, n)| n)
            .sum()
    }

    /// Exactly-once reconciliation for one level: every dispatched trial
    /// must be accounted for as completed, quarantined, or still in
    /// flight at log end — and never completed more than once.
    ///
    /// Returns `(in_flight_at_end, duplicated)`. Retries and speculative
    /// backups are *attempts* of an existing trial, so they do not add to
    /// the dispatched count; a negative residual therefore means some
    /// trial reached `History` twice.
    pub fn reconcile_level(&self, flow: &LevelFlow) -> (usize, usize) {
        let terminal = flow.completed + flow.quarantined;
        if flow.dispatched >= terminal {
            (flow.dispatched - terminal, 0)
        } else {
            (0, terminal - flow.dispatched)
        }
    }

    /// Total duplicated completions across levels (must be zero for a
    /// correct run, churn or not).
    pub fn duplicated_trials(&self) -> usize {
        self.levels
            .values()
            .map(|f| self.reconcile_level(f).1)
            .sum()
    }

    /// Renders the human-readable report table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, log end time {:.3}",
            self.n_records, self.end_time
        );

        let _ = writeln!(out, "\nper-level trial flow:");
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>10} {:>8} {:>12} {:>9} {:>10}",
            "level", "dispatched", "completed", "retried", "quarantined", "orphaned", "promoted→"
        );
        for (level, flow) in &self.levels {
            let _ = writeln!(
                out,
                "  {:>5} {:>10} {:>10} {:>8} {:>12} {:>9} {:>10}",
                level,
                flow.dispatched,
                flow.completed,
                flow.retried,
                flow.quarantined,
                flow.orphaned,
                self.promotions_to_level(*level)
            );
        }

        if !self.promotions.is_empty() || !self.delays.is_empty() {
            let _ = writeln!(out, "\npromotions by bracket:");
            let brackets: std::collections::BTreeSet<usize> = self
                .promotions
                .keys()
                .map(|&(b, _)| b)
                .chain(self.delays.keys().copied())
                .collect();
            for b in brackets {
                let _ = writeln!(
                    out,
                    "  bracket {}: {} promotions, {} delayed",
                    b,
                    self.promotions_by_bracket(b),
                    self.delays.get(&b).copied().unwrap_or(0)
                );
            }
        }

        if !self.weight_rounds.is_empty() {
            let _ = writeln!(out, "\nbracket-weight trajectory (w per round):");
            let _ = writeln!(out, "  {:>10} {:>7}  weights", "time", "|D_K|");
            for round in &self.weight_rounds {
                let w = if round.weights.is_empty() {
                    "(kept previous: θ degenerate)".to_string()
                } else {
                    round
                        .weights
                        .iter()
                        .map(|x| format!("{x:.3}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                let _ = writeln!(out, "  {:>10.3} {:>7}  {}", round.time, round.n_full, w);
            }
        } else {
            // Methods without a learned bracket policy or an MFES sampler
            // never estimate θ; a consumer's trace can only lack it while
            // the run is too young for a first estimate.
            let _ = writeln!(
                out,
                "\nθ: not estimated (no consumer), or too few complete evaluations yet"
            );
        }

        if !self.surrogate_fits.is_empty() || self.surrogate_predicts > 0 {
            let _ = writeln!(out, "\nsurrogate activity:");
            for (level, n) in &self.surrogate_fits {
                let _ = writeln!(out, "  level {level}: {n} fits");
            }
            let _ = writeln!(out, "  acquisition runs: {}", self.surrogate_predicts);
        }

        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nspan timing (clock seconds):");
            let _ = writeln!(
                out,
                "  {:<24} {:>7} {:>12} {:>12} {:>12}",
                "span", "count", "total", "mean", "max"
            );
            for (name, st) in &self.spans {
                let mean = if st.count == 0 {
                    0.0
                } else {
                    st.total / st.count as f64
                };
                let _ = writeln!(
                    out,
                    "  {:<24} {:>7} {:>12.6} {:>12.6} {:>12.6}",
                    name, st.count, st.total, mean, st.max
                );
            }
        }

        if !self.faults.is_empty() {
            let _ = writeln!(out, "\nfaults injected:");
            for (tag, n) in &self.faults {
                let _ = writeln!(out, "  {tag}: {n}");
            }
        }
        if !self.chaos_injected.is_empty() {
            let _ = writeln!(out, "\nchaos injected:");
            for (kind, n) in &self.chaos_injected {
                let _ = writeln!(out, "  {kind}: {n}");
            }
        }
        if self.checkpoints > 0 {
            let _ = writeln!(out, "\ncheckpoints written: {}", self.checkpoints);
        }

        if self.workers_joined + self.workers_left + self.leases_expired > 0
            || self.speculations_launched + self.breaker_opened > 0
        {
            let _ = writeln!(out, "\nmembership & resilience:");
            let _ = writeln!(
                out,
                "  workers joined: {}, left: {}",
                self.workers_joined, self.workers_left
            );
            if self.workers_reconnected + self.redials_gave_up > 0 {
                let _ = writeln!(
                    out,
                    "  reconnects: {}, redials gave up: {}",
                    self.workers_reconnected, self.redials_gave_up
                );
            }
            let _ = writeln!(out, "  leases expired: {}", self.leases_expired);
            let _ = writeln!(
                out,
                "  speculations: {} launched, {} resolved ({} backup wins)",
                self.speculations_launched, self.speculations_resolved, self.backup_wins
            );
            let _ = writeln!(
                out,
                "  breaker: opened {}, closed {}",
                self.breaker_opened, self.breaker_closed
            );
        }

        if self.studies_created + self.studies_stopped + self.studies_completed > 0 {
            let _ = writeln!(
                out,
                "\nstudies: {} created, {} stopped, {} completed",
                self.studies_created, self.studies_stopped, self.studies_completed
            );
        }

        let _ = writeln!(out, "\nexactly-once reconciliation:");
        let (mut trials, mut done, mut quar, mut in_flight, mut dup) = (0, 0, 0, 0, 0);
        for flow in self.levels.values() {
            let (i, d) = self.reconcile_level(flow);
            trials += flow.dispatched;
            done += flow.completed;
            quar += flow.quarantined;
            in_flight += i;
            dup += d;
        }
        let _ = writeln!(
            out,
            "  {trials} trials dispatched = {done} completed + {quar} quarantined + \
             {in_flight} in flight at log end; {dup} duplicated"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FailureKind, FaultKind};

    fn rec(seq: u64, time: f64, event: Event) -> EventRecord {
        EventRecord {
            seq,
            time,
            event,
            tenant: None,
        }
    }

    fn sample_log() -> Vec<EventRecord> {
        vec![
            rec(
                0,
                0.0,
                Event::TrialDispatched {
                    level: 0,
                    bracket: Some(0),
                    attempt: 0,
                },
            ),
            rec(
                1,
                0.0,
                Event::FaultInjected {
                    kind: FaultKind::Crash,
                },
            ),
            rec(
                2,
                1.0,
                Event::TrialRetried {
                    level: 0,
                    attempt: 1,
                    kind: FailureKind::Crashed,
                },
            ),
            rec(
                3,
                2.0,
                Event::TrialCompleted {
                    level: 0,
                    bracket: Some(0),
                    value: 0.3,
                    cost: 1.0,
                },
            ),
            rec(
                4,
                2.0,
                Event::BracketWeightsUpdated {
                    n_full: 1,
                    theta: vec![0.6, 0.4],
                    weights: vec![0.75, 0.25],
                },
            ),
            rec(
                5,
                2.5,
                Event::PromotionMade {
                    bracket: 0,
                    to_level: 1,
                },
            ),
            rec(
                6,
                2.5,
                Event::PromotionDelayed {
                    bracket: 0,
                    level: 1,
                },
            ),
            rec(
                7,
                3.0,
                Event::SpanClosed {
                    name: "theta_refresh".into(),
                    duration: 0.002,
                },
            ),
            rec(
                8,
                3.0,
                Event::SpanClosed {
                    name: "theta_refresh".into(),
                    duration: 0.004,
                },
            ),
        ]
    }

    #[test]
    fn summary_counts_match_log() {
        let s = TraceSummary::from_records(&sample_log());
        assert_eq!(s.n_records, 9);
        assert_eq!(s.end_time, 3.0);
        let l0 = s.levels[&0];
        assert_eq!(l0.dispatched, 1);
        assert_eq!(l0.completed, 1);
        assert_eq!(l0.retried, 1);
        assert_eq!(l0.quarantined, 0);
        assert_eq!(s.promotions_to_level(1), 1);
        assert_eq!(s.promotions_by_bracket(0), 1);
        assert_eq!(s.delays[&0], 1);
        assert_eq!(s.weight_rounds.len(), 1);
        assert_eq!(s.weight_rounds[0].n_full, 1);
        assert_eq!(s.faults["crash"], 1);
        let span = s.spans["theta_refresh"];
        assert_eq!(span.count, 2);
        assert!((span.total - 0.006).abs() < 1e-12);
        assert_eq!(span.max, 0.004);
    }

    #[test]
    fn render_mentions_each_section() {
        let text = TraceSummary::from_records(&sample_log()).render();
        for needle in [
            "per-level trial flow",
            "promotions by bracket",
            "bracket-weight trajectory",
            "span timing",
            "faults injected",
            "theta_refresh",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn render_says_theta_was_not_estimated_instead_of_an_empty_table() {
        let log: Vec<EventRecord> = sample_log()
            .into_iter()
            .filter(|r| !matches!(r.event, Event::BracketWeightsUpdated { .. }))
            .collect();
        let text = TraceSummary::from_records(&log).render();
        assert!(text.contains("θ: not estimated (no consumer)"), "{text}");
        assert!(!text.contains("bracket-weight trajectory"), "{text}");
    }

    #[test]
    fn membership_and_reconciliation_counters() {
        let log = vec![
            rec(
                0,
                0.0,
                Event::TrialDispatched {
                    level: 0,
                    bracket: None,
                    attempt: 0,
                },
            ),
            rec(
                1,
                0.5,
                Event::WorkerJoined {
                    worker: 4,
                    n_alive: 5,
                },
            ),
            rec(
                2,
                1.0,
                Event::WorkerLeft {
                    worker: 0,
                    n_alive: 4,
                },
            ),
            rec(
                3,
                2.0,
                Event::LeaseExpired {
                    level: 0,
                    attempt: 0,
                },
            ),
            rec(
                4,
                2.0,
                Event::TrialRetried {
                    level: 0,
                    attempt: 1,
                    kind: FailureKind::Orphaned,
                },
            ),
            rec(5, 2.5, Event::SpeculationLaunched { level: 0 }),
            rec(
                6,
                3.0,
                Event::SpeculationResolved {
                    level: 0,
                    backup_won: true,
                },
            ),
            rec(
                7,
                3.0,
                Event::TrialCompleted {
                    level: 0,
                    bracket: None,
                    value: 0.1,
                    cost: 1.0,
                },
            ),
            rec(8, 3.5, Event::BreakerOpened { failure_rate: 0.9 }),
            rec(9, 4.0, Event::BreakerClosed),
        ];
        let s = TraceSummary::from_records(&log);
        assert_eq!(s.workers_joined, 1);
        assert_eq!(s.workers_left, 1);
        assert_eq!(s.leases_expired, 1);
        assert_eq!(s.levels[&0].orphaned, 1);
        assert_eq!(s.speculations_launched, 1);
        assert_eq!(s.speculations_resolved, 1);
        assert_eq!(s.backup_wins, 1);
        assert_eq!(s.breaker_opened, 1);
        assert_eq!(s.breaker_closed, 1);
        // One trial dispatched, one completed (the orphan retry and the
        // backup copy are attempts, not new trials): nothing in flight,
        // nothing duplicated.
        assert_eq!(s.reconcile_level(&s.levels[&0]), (0, 0));
        assert_eq!(s.duplicated_trials(), 0);
        let text = s.render();
        assert!(text.contains("membership & resilience"), "{text}");
        assert!(text.contains("exactly-once reconciliation"), "{text}");
        assert!(text.contains("0 duplicated"), "{text}");
    }

    #[test]
    fn reconnect_and_chaos_counters() {
        let log = vec![
            rec(
                0,
                0.0,
                Event::ChaosInjected {
                    kind: "blackhole".into(),
                },
            ),
            rec(
                1,
                0.5,
                Event::WorkerLeft {
                    worker: 0,
                    n_alive: 0,
                },
            ),
            rec(
                2,
                1.0,
                Event::WorkerReconnected {
                    worker: 0,
                    epoch: 1,
                    attempts: 3,
                },
            ),
            rec(
                3,
                1.5,
                Event::RedialGaveUp {
                    worker: 1,
                    attempts: 5,
                },
            ),
            rec(
                4,
                2.0,
                Event::ChaosInjected {
                    kind: "blackhole".into(),
                },
            ),
        ];
        let s = TraceSummary::from_records(&log);
        assert_eq!(s.workers_reconnected, 1);
        assert_eq!(s.redials_gave_up, 1);
        assert_eq!(s.chaos_injected["blackhole"], 2);
        let text = s.render();
        assert!(text.contains("reconnects: 1, redials gave up: 1"), "{text}");
        assert!(text.contains("chaos injected:"), "{text}");
        assert!(text.contains("blackhole: 2"), "{text}");
    }

    #[test]
    fn duplicated_completions_detected() {
        let complete = |seq| {
            rec(
                seq,
                1.0,
                Event::TrialCompleted {
                    level: 1,
                    bracket: None,
                    value: 0.5,
                    cost: 1.0,
                },
            )
        };
        let log = vec![
            rec(
                0,
                0.0,
                Event::TrialDispatched {
                    level: 1,
                    bracket: None,
                    attempt: 0,
                },
            ),
            complete(1),
            complete(2),
        ];
        let s = TraceSummary::from_records(&log);
        assert_eq!(s.duplicated_trials(), 1);
        assert!(s.render().contains("1 duplicated"));
    }

    fn tenant_rec(seq: u64, tenant: Option<u64>, event: Event) -> EventRecord {
        EventRecord {
            seq,
            time: seq as f64,
            event,
            tenant,
        }
    }

    #[test]
    fn per_tenant_splits_and_reconciles_independently() {
        let dispatch = || Event::TrialDispatched {
            level: 0,
            bracket: None,
            attempt: 0,
        };
        let complete = || Event::TrialCompleted {
            level: 0,
            bracket: None,
            value: 0.5,
            cost: 1.0,
        };
        let log = vec![
            tenant_rec(
                0,
                None,
                Event::StudyCreated {
                    study: 1,
                    name: "a".into(),
                },
            ),
            tenant_rec(1, Some(1), dispatch()),
            tenant_rec(2, Some(2), dispatch()),
            tenant_rec(3, Some(1), complete()),
            // Tenant 2's completion arrives twice: a per-tenant bug that
            // an unsplit summary would also catch, but attributed here.
            tenant_rec(4, Some(2), complete()),
            tenant_rec(5, Some(2), complete()),
            tenant_rec(6, None, Event::StudyStopped { study: 1 }),
        ];
        let parts = TraceSummary::per_tenant(&log);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[&None].studies_created, 1);
        assert_eq!(parts[&None].studies_stopped, 1);
        assert_eq!(parts[&Some(1)].duplicated_trials(), 0);
        assert_eq!(parts[&Some(2)].duplicated_trials(), 1);
        // The unsplit fold sees the same totals.
        let whole = TraceSummary::from_records(&log);
        assert_eq!(whole.duplicated_trials(), 1);
        assert!(whole.render().contains("studies: 1 created, 1 stopped"));
    }

    #[test]
    fn jsonl_file_round_trip() {
        let dir = std::env::temp_dir().join("hypertune-telemetry-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        {
            let sink = crate::sink::JsonlSink::create(&path).unwrap();
            use crate::sink::EventSink;
            for r in sample_log() {
                sink.record(&r);
            }
        }
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, sample_log());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_line_is_an_error() {
        let dir = std::env::temp_dir().join("hypertune-telemetry-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{\"seq\": 0\n").unwrap();
        assert!(read_jsonl(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
