//! Turns the three recorders' raw records into metrics.
//!
//! [`fleet_values`] needs only the worker logs, so it runs on every
//! round; [`layer_values`] joins worker logs, the [`TimedExecutor`]
//! trace and the library's spans on the shared clock, and runs on
//! traced rounds.
//!
//! [`TimedExecutor`]: crate::timed::TimedExecutor

use std::collections::{BTreeMap, HashMap, HashSet};

use hypertune::cluster::JobStatus;
use hypertune::telemetry::MetricsSnapshot;

use crate::fleet::{EvalRecord, WorkerLog};
use crate::stats::{mean, percentile};
use crate::timed::{ExecTrace, Key};
use crate::trace::{Span, TraceData};

/// Metric name → value, for one round.
pub type Values = BTreeMap<&'static str, f64>;

/// One fleet session: a service incarnation or a single-study run.
/// Dispatch ids restart with each incarnation, so records are only ever
/// joined by key within one.
#[derive(Debug, Default)]
pub struct Incarnation {
    /// Worker logs in worker-index order.
    pub logs: Vec<WorkerLog>,
    /// Driver-side trace (traced rounds only).
    pub exec: Option<ExecTrace>,
    /// Measured windows on the harness clock.
    pub windows: Vec<(u64, u64)>,
}

impl Incarnation {
    fn window_ns(&self) -> u64 {
        self.windows.iter().map(|&(a, b)| b - a).sum()
    }

    fn in_window(&self, t: u64) -> bool {
        self.windows.iter().any(|&(a, b)| a <= t && t < b)
    }

    /// Nanoseconds of `[start, end)` that fall inside the windows.
    fn overlap_ns(&self, start: u64, end: u64) -> u64 {
        self.windows
            .iter()
            .map(|&(a, b)| end.min(b).saturating_sub(start.max(a)))
            .sum()
    }
}

/// Checks that no `(study, job id, attempt)` was evaluated twice within
/// one incarnation; returns the number of evaluations.
pub fn check_exactly_once(inc: &Incarnation) -> Result<usize, String> {
    let mut seen: HashSet<Key> = HashSet::new();
    for e in inc.logs.iter().flat_map(|l| &l.evals) {
        if !seen.insert((e.study, e.job, e.attempt)) {
            return Err(format!(
                "study {} job {} attempt {} was evaluated twice",
                e.study, e.job, e.attempt
            ));
        }
    }
    Ok(seen.len())
}

/// What the worker logs alone give: `fleet_utilization` (Σ evaluation
/// busy time inside the measured windows ÷ workers × window) and the
/// `redispatch_gap_*` percentiles (a worker's evaluation end → its next
/// evaluation start, for ends inside a window). A worker's evaluation
/// thread runs one evaluation at a time and logs each as it ends, so
/// every log is already in time order.
pub fn fleet_values(incs: &[Incarnation]) -> Values {
    let (mut busy, mut capacity) = (0u64, 0u64);
    let mut gaps_ms = Vec::new();
    for inc in incs {
        capacity += inc.window_ns() * inc.logs.len() as u64;
        for log in &inc.logs {
            busy += log
                .evals
                .iter()
                .map(|e| inc.overlap_ns(e.start_ns, e.end_ns))
                .sum::<u64>();
            gaps_ms.extend(
                log.evals
                    .windows(2)
                    .filter(|pair| inc.in_window(pair[0].end_ns))
                    .map(|pair| pair[1].start_ns.saturating_sub(pair[0].end_ns) as f64 * 1e-6),
            );
        }
    }
    let mut out = Values::new();
    out.insert("fleet_utilization", busy as f64 / capacity.max(1) as f64);
    put_percentiles(
        &mut out,
        "redispatch_gap_p50_ms",
        "redispatch_gap_p99_ms",
        &mut gaps_ms,
    );
    out
}

fn put_percentiles(out: &mut Values, p50: &'static str, p99: &'static str, samples: &mut [f64]) {
    out.insert(p50, percentile(samples, 0.5));
    out.insert(p99, percentile(samples, 0.99));
}

fn span_micros(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(Span::micros).collect()
}

/// Total duration (ns) of the spans lying inside `[from, to]`. `spans`
/// must be sorted by end time.
fn spans_within(spans: &[Span], from: u64, to: u64) -> u64 {
    let first = spans.partition_point(|s| s.end_ns < from);
    spans[first..]
        .iter()
        .take_while(|s| s.end_ns <= to)
        .filter(|s| s.start_ns >= from)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Per-layer metrics of one traced round that come from joining the
/// recorders. `trials` is the number of completed trials the round was
/// sized for; `single_slot` says the fleet ran one job per worker at a
/// time, which is what makes a redispatch gap a causal chain.
pub fn layer_values(
    incs: &[Incarnation],
    trace: &TraceData,
    snapshot: &MetricsSnapshot,
    trials: usize,
    single_slot: bool,
) -> Values {
    let mut out = Values::new();
    let per_trial = |n: f64| n / trials.max(1) as f64;
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;

    // core / surrogate: the library's own spans.
    let mut suggest_spans = trace.suggest_batch.clone();
    suggest_spans.sort_by_key(|s| s.end_ns);
    put_percentiles(
        &mut out,
        "core.suggest_us.p50",
        "core.suggest_us.p99",
        &mut span_micros(&suggest_spans),
    );
    out.insert("core.suggest.count", suggest_spans.len() as f64);
    out.insert(
        "core.theta_refresh_us.p50",
        percentile(&mut span_micros(&trace.theta_refresh), 0.5),
    );
    out.insert("core.theta_refresh.count", trace.theta_refresh.len() as f64);
    put_percentiles(
        &mut out,
        "core.acquisition_us.p50",
        "core.acquisition_us.p99",
        &mut span_micros(&trace.acquisition),
    );
    out.insert("core.promotions.count", trace.promotions as f64);
    out.insert("core.promotion_delays.count", trace.promotion_delays as f64);
    out.insert(
        "core.rescore_ops_per_trial",
        per_trial(counter("batch.rescore_ops")),
    );
    let (hits, misses) = (
        counter("prefetch.hit"),
        counter("prefetch.miss") + counter("prefetch.discarded"),
    );
    out.insert(
        "core.prefetch_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    put_percentiles(
        &mut out,
        "surrogate.fit_us.p50",
        "surrogate.fit_us.p99",
        &mut span_micros(&trace.surrogate_fit),
    );
    out.insert(
        "surrogate.fits_per_trial",
        per_trial(trace.surrogate_fit.len() as f64),
    );
    put_percentiles(
        &mut out,
        "sim.step_us.p50",
        "sim.step_us.p99",
        &mut span_micros(&trace.scheduler_step),
    );
    out.insert("sim.steps.count", trace.scheduler_step.len() as f64);

    // service + wal: counters the service emits.
    out.insert("service.retries.count", trace.retries as f64);
    out.insert("service.quarantined.count", trace.quarantined as f64);
    out.insert("wal.flushes.count", counter("wal.group_commit.flushes"));
    out.insert(
        "wal.records_per_flush.mean",
        snapshot
            .histogram("wal.group_commit.records")
            .map_or(0.0, |h| h.mean()),
    );
    out.insert(
        "net.batch_size.mean",
        snapshot
            .histogram("net.batch_size")
            .map_or(0.0, |h| h.mean()),
    );
    out.insert("net.heartbeats.count", counter("net.heartbeats"));
    out.insert("telemetry.events_per_trial", per_trial(trace.events as f64));

    // worker: the closure's own timestamps.
    let mut eval_us: Vec<f64> = incs
        .iter()
        .flat_map(|inc| inc.logs.iter().flat_map(|l| &l.evals))
        .map(|e| (e.end_ns - e.start_ns) as f64 * 1e-3)
        .collect();
    put_percentiles(
        &mut out,
        "worker.eval_us.p50",
        "worker.eval_us.p99",
        &mut eval_us,
    );
    let n_workers = incs.iter().map(|inc| inc.logs.len()).max().unwrap_or(0);
    let window_ns: u64 = incs.iter().map(Incarnation::window_ns).sum();
    let shares: Vec<f64> = (0..n_workers)
        .map(|w| {
            let busy: u64 = incs
                .iter()
                .filter_map(|inc| inc.logs.get(w).map(|log| (inc, log)))
                .flat_map(|(inc, log)| {
                    log.evals
                        .iter()
                        .map(move |e| inc.overlap_ns(e.start_ns, e.end_ns))
                })
                .sum();
            busy as f64 / window_ns.max(1) as f64
        })
        .collect();
    out.insert(
        "worker.busy_share.min",
        shares.iter().copied().reduce(f64::min).unwrap_or(0.0),
    );
    out.insert(
        "worker.busy_share.max",
        shares.iter().copied().fold(0.0, f64::max),
    );

    // service / net / budget: joins across the recorders.
    let mut step_self_us = Vec::new();
    let mut submit_us = Vec::new();
    let mut dispatch_to_eval_us = Vec::new();
    let mut eval_to_completion_us = Vec::new();
    let (mut wait_ns, mut orphans) = (0u64, 0u64);
    let mut budget = Budget::default();
    for inc in incs {
        let Some(exec) = &inc.exec else { continue };
        submit_us.extend(
            exec.submits
                .iter()
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3),
        );
        for c in &exec.completions {
            wait_ns += inc.overlap_ns(c.call_ns, c.return_ns);
            orphans += u64::from(c.status == Some(JobStatus::Orphaned));
        }
        // A driver step: one completion returned → the next poll. Its
        // self time excludes the executor calls and suggestion rounds
        // inside it: what is left is booking, fair share, WAL append.
        let mut submit_idx = 0;
        for pair in exec.completions.windows(2) {
            let (from, to) = (pair[0].return_ns, pair[1].call_ns);
            let mut inner = spans_within(&suggest_spans, from, to);
            while submit_idx < exec.submits.len() && exec.submits[submit_idx].start_ns < to {
                let s = exec.submits[submit_idx];
                if s.start_ns >= from {
                    inner += s.end_ns - s.start_ns;
                }
                submit_idx += 1;
            }
            step_self_us.push((to - from).saturating_sub(inner) as f64 * 1e-3);
        }
        let evals: HashMap<Key, &EvalRecord> = inc
            .logs
            .iter()
            .flat_map(|l| &l.evals)
            .map(|e| ((e.study, e.job, e.attempt), e))
            .collect();
        let submits: HashMap<Key, (u64, u64)> = exec
            .submits
            .iter()
            .map(|s| (s.key, (s.start_ns, s.end_ns)))
            .collect();
        let returns: HashMap<Key, u64> = exec
            .completions
            .iter()
            .filter_map(|c| Some((c.key?, c.return_ns)))
            .collect();
        for (key, e) in &evals {
            if let Some(&(_, sent)) = submits.get(key) {
                dispatch_to_eval_us.push(e.start_ns.saturating_sub(sent) as f64 * 1e-3);
            }
            if let Some(&returned) = returns.get(key) {
                eval_to_completion_us.push(returned.saturating_sub(e.end_ns) as f64 * 1e-3);
            }
        }
        if single_slot {
            for log in &inc.logs {
                for pair in log.evals.windows(2) {
                    if inc.in_window(pair[0].end_ns) {
                        budget.add_gap(&pair[0], &pair[1], &returns, &submits, &suggest_spans);
                    }
                }
            }
        }
    }
    put_percentiles(
        &mut out,
        "service.step_self_us.p50",
        "service.step_self_us.p99",
        &mut step_self_us,
    );
    put_percentiles(
        &mut out,
        "net.submit_us.p50",
        "net.submit_us.p99",
        &mut submit_us,
    );
    put_percentiles(
        &mut out,
        "net.dispatch_to_eval_us.p50",
        "net.dispatch_to_eval_us.p99",
        &mut dispatch_to_eval_us,
    );
    put_percentiles(
        &mut out,
        "net.eval_to_completion_us.p50",
        "net.eval_to_completion_us.p99",
        &mut eval_to_completion_us,
    );
    out.insert("net.wait_share", wait_ns as f64 / window_ns.max(1) as f64);
    out.insert("net.orphans.count", orphans as f64);
    budget.write(&mut out);
    out
}

/// Mean components of one redispatch gap, cut on the shared clock:
/// evaluation end → completion returned to the driver → suggestion
/// spans → submit → next evaluation start on the same worker.
#[derive(Debug, Default)]
struct Budget {
    result_wire: Vec<f64>,
    book: Vec<f64>,
    suggest: Vec<f64>,
    submit: Vec<f64>,
    dispatch_wire: Vec<f64>,
    other: Vec<f64>,
    gap: Vec<f64>,
}

impl Budget {
    fn add_gap(
        &mut self,
        prev: &EvalRecord,
        next: &EvalRecord,
        returns: &HashMap<Key, u64>,
        submits: &HashMap<Key, (u64, u64)>,
        suggest_spans: &[Span],
    ) {
        let gap = next.start_ns.saturating_sub(prev.end_ns) as f64;
        self.gap.push(gap);
        let chain = returns
            .get(&(prev.study, prev.job, prev.attempt))
            .zip(submits.get(&(next.study, next.job, next.attempt)));
        // The pieces tile the gap when the freed worker's next job was
        // submitted after the driver saw the previous result. `submit`
        // may return after the worker has already started (the woken
        // worker thread can preempt the driver), so it is clipped.
        let pieces = match chain {
            Some((&returned, &(sub_start, sub_end)))
                if prev.end_ns <= returned
                    && returned <= sub_start
                    && sub_start <= next.start_ns =>
            {
                let suggest = spans_within(suggest_spans, returned, sub_start);
                let sent = sub_end.min(next.start_ns);
                [
                    returned - prev.end_ns,
                    (sub_start - returned).saturating_sub(suggest),
                    suggest,
                    sent - sub_start,
                    next.start_ns - sent,
                ]
            }
            _ => [0; 5],
        };
        let known: u64 = pieces.iter().sum();
        for (series, ns) in [
            &mut self.result_wire,
            &mut self.book,
            &mut self.suggest,
            &mut self.submit,
            &mut self.dispatch_wire,
        ]
        .into_iter()
        .zip(pieces)
        {
            series.push(ns as f64);
        }
        self.other.push(gap - known as f64);
    }

    fn write(&self, out: &mut Values) {
        let us = |series: &[f64]| mean(series) * 1e-3;
        out.insert("budget.result_wire_us", us(&self.result_wire));
        out.insert("budget.book_us", us(&self.book));
        out.insert("budget.suggest_us", us(&self.suggest));
        out.insert("budget.submit_us", us(&self.submit));
        out.insert("budget.dispatch_wire_us", us(&self.dispatch_wire));
        out.insert("budget.other_us", us(&self.other));
        let gap = mean(&self.gap);
        out.insert(
            "budget.sum_over_gap",
            if gap > 0.0 {
                (gap - mean(&self.other)) / gap
            } else {
                0.0
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{CompletionRecord, SubmitRecord};

    fn eval(job: u64, start_ns: u64, end_ns: u64) -> EvalRecord {
        EvalRecord {
            study: 1,
            job,
            attempt: 0,
            start_ns,
            end_ns,
        }
    }

    fn one_worker(evals: Vec<EvalRecord>, window: (u64, u64)) -> Incarnation {
        Incarnation {
            logs: vec![WorkerLog {
                evals,
                payloads: Vec::new(),
            }],
            exec: None,
            windows: vec![window],
        }
    }

    #[test]
    fn utilization_clips_to_the_window_and_gaps_start_inside_it() {
        // Busy 100..400 and 500..900 of a 0..800 window: 300 + 300.
        let inc = one_worker(
            vec![eval(1, 100, 400), eval(2, 500, 900), eval(3, 1000, 1100)],
            (0, 800),
        );
        let v = fleet_values(&[inc]);
        assert!((v["fleet_utilization"] - 600.0 / 800.0).abs() < 1e-12);
        // Only the 400 → 500 gap starts inside the window: the 900 →
        // 1000 one starts after it closed.
        assert_eq!(v["redispatch_gap_p50_ms"], 100.0 * 1e-6);
        assert_eq!(v["redispatch_gap_p99_ms"], 100.0 * 1e-6);
    }

    #[test]
    fn duplicate_evaluations_are_reported() {
        let ok = one_worker(vec![eval(1, 0, 1), eval(2, 1, 2)], (0, 10));
        assert_eq!(check_exactly_once(&ok), Ok(2));
        let dup = one_worker(vec![eval(1, 0, 1), eval(1, 1, 2)], (0, 10));
        assert!(check_exactly_once(&dup).is_err());
    }

    #[test]
    fn budget_pieces_tile_a_causal_gap() {
        // eval 1 ends at 1000; the driver sees it at 1100, suggests
        // 1150..1350, submits 1400..1450; eval 2 starts at 1500.
        let mut inc = one_worker(vec![eval(1, 0, 1000), eval(2, 1500, 2000)], (0, 5000));
        inc.exec = Some(ExecTrace {
            submits: vec![SubmitRecord {
                key: (1, 2, 0),
                start_ns: 1400,
                end_ns: 1450,
            }],
            completions: vec![CompletionRecord {
                key: Some((1, 1, 0)),
                status: Some(JobStatus::Succeeded),
                call_ns: 900,
                return_ns: 1100,
            }],
        });
        let trace = TraceData {
            suggest_batch: vec![Span {
                start_ns: 1150,
                end_ns: 1350,
            }],
            ..TraceData::default()
        };
        let v = layer_values(&[inc], &trace, &MetricsSnapshot::default(), 2, true);
        assert_eq!(v["budget.result_wire_us"], 0.1);
        assert_eq!(v["budget.book_us"], 0.1);
        assert_eq!(v["budget.suggest_us"], 0.2);
        assert_eq!(v["budget.submit_us"], 0.05);
        assert_eq!(v["budget.dispatch_wire_us"], 0.05);
        assert_eq!(v["budget.other_us"], 0.0);
        assert_eq!(v["budget.sum_over_gap"], 1.0);
        assert_eq!(v["core.suggest.count"], 1.0);
        // The 900..1100 poll lies inside the 0..5000 window.
        assert!((v["net.wait_share"] - 200.0 / 5000.0).abs() < 1e-12);
        assert_eq!(v["net.eval_to_completion_us.p50"], 0.1);
        assert_eq!(v["net.dispatch_to_eval_us.p50"], 0.05);
    }
}
