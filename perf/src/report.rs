//! `BENCHMARK.json`, the one result schema, and `--diff`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;
use serde_json::json;

use crate::round::Run;
use crate::stats::Summary;
use crate::workloads::WORKLOADS;

/// Every metric name the harness can emit. `BENCHMARK.json` chooses
/// which are end-to-end (bounded, reported with `--trace 0`) and which
/// per-layer (reported with `--trace 1`); a name outside this list is a
/// typo and is refused at start-up.
pub const METRICS: &[&str] = &[
    "setup_s",
    "trials_per_s",
    "fleet_utilization",
    "redispatch_gap_p50_ms",
    "redispatch_gap_p99_ms",
    "suggest_p99_ms",
    "recover_s",
    "virtual_time_to_target_s",
    "peak_rss_mb",
    "service.step_self_us.p50",
    "service.step_self_us.p99",
    "service.pick_ns.p50",
    "service.retries.count",
    "service.quarantined.count",
    "core.suggest_us.p50",
    "core.suggest_us.p99",
    "core.suggest.count",
    "core.theta_refresh_us.p50",
    "core.theta_refresh.count",
    "core.acquisition_us.p50",
    "core.acquisition_us.p99",
    "core.promotions.count",
    "core.promotion_delays.count",
    "core.rescore_ops_per_trial",
    "core.prefetch_hit_ratio",
    "surrogate.fit_us.p50",
    "surrogate.fit_us.p99",
    "surrogate.fits_per_trial",
    "surrogate.rf_fit_us",
    "surrogate.rf_predict_batch_us",
    "wal.append_ns.p50",
    "wal.flush_us.p50",
    "wal.flush_us.p99",
    "wal.flushes.count",
    "wal.records_per_flush.mean",
    "wal.bytes_per_trial",
    "wal.recover_us_per_record",
    "proto.encode_dispatch_ns",
    "proto.decode_dispatch_ns",
    "proto.encode_result_ns",
    "proto.decode_result_ns",
    "proto.dispatch_bytes",
    "proto.result_bytes",
    "net.submit_us.p50",
    "net.submit_us.p99",
    "net.wait_share",
    "net.dispatch_to_eval_us.p50",
    "net.dispatch_to_eval_us.p99",
    "net.eval_to_completion_us.p50",
    "net.eval_to_completion_us.p99",
    "net.batch_size.mean",
    "net.heartbeats.count",
    "net.orphans.count",
    "worker.eval_us.p50",
    "worker.eval_us.p99",
    "worker.busy_share.min",
    "worker.busy_share.max",
    "sim.step_us.p50",
    "sim.step_us.p99",
    "sim.steps.count",
    "telemetry.trace_overhead_share",
    "telemetry.events_per_trial",
    "budget.result_wire_us",
    "budget.book_us",
    "budget.suggest_us",
    "budget.submit_us",
    "budget.dispatch_wire_us",
    "budget.other_us",
    "budget.sum_over_gap",
];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json` plus where it was found.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The checkout root: the directory holding `BENCHMARK.json`.
    pub root: PathBuf,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — the contract's name grammar.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn metric_specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc[key]
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m[f].as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: match field("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json` found in `root`.
    pub fn parse(root: PathBuf, text: &str) -> Result<Spec, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .map(|w| w["name"].as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: a workload lacks `name`")?;
        Ok(Spec {
            root,
            workloads,
            end_to_end: metric_specs(&doc, "end_to_end")?,
            per_layer: metric_specs(&doc, "per_layer")?,
        })
    }

    /// Finds `BENCHMARK.json` in the working directory or one of its
    /// parents, so the harness runs from the root or from `perf/`.
    pub fn load() -> Result<Spec, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let root = cwd
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .ok_or("no BENCHMARK.json in the working directory or above it")?
            .to_path_buf();
        let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Spec::parse(root, &text)
    }

    /// Checks the file against the harness: the same six workloads,
    /// well-formed names, and only metrics the harness can emit.
    pub fn validate(&self) -> Result<(), String> {
        let mut listed: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        listed.sort_unstable();
        let mut known = WORKLOADS.to_vec();
        known.sort_unstable();
        if listed != known {
            return Err(format!(
                "BENCHMARK.json lists workloads {listed:?}, the harness has {known:?}"
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for name in self
            .workloads
            .iter()
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name))
        {
            if !valid_name(name) {
                return Err(format!("BENCHMARK.json: {name:?} is not a valid name"));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("BENCHMARK.json: {name:?} is used twice"));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !METRICS.contains(&m.name.as_str()) {
                return Err(format!(
                    "BENCHMARK.json names metric {:?}, which the harness does not emit",
                    m.name
                ));
            }
        }
        if let Some(m) = self.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("BENCHMARK.json: {} has no bound", m.name));
        }
        if !self.end_to_end.iter().any(|m| m.name == "setup_s") {
            return Err("BENCHMARK.json: end_to_end lacks setup_s".to_string());
        }
        Ok(())
    }

    /// The scratch/results directory inside the checkout.
    pub fn results_dir(&self) -> PathBuf {
        self.root.join("perf").join("results")
    }
}

fn tool_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how a result was taken.
pub fn environment(root: &Path) -> Value {
    json!({
        "git_rev": tool_line("git", &["rev-parse", "--short", "HEAD"], root),
        "rustc": tool_line("rustc", &["--version"], root),
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" }
    })
}

/// One run in the result schema: every metric with unit, median,
/// quartiles and sample count, plus sizes and the trial tally.
pub fn run_record(
    spec: &Spec,
    workload: &str,
    seed: u64,
    trace: bool,
    sizes: Value,
    run: &Run,
) -> Result<Value, String> {
    let listed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = serde_json::Map::new();
    for m in listed {
        let summary = match run.summary(&m.name) {
            Some(s) => s,
            // A layer a workload does not exercise did no work.
            None if trace => Summary::of(&[0.0]),
            None => return Err(format!("{workload} produced no {}", m.name)),
        };
        if !summary.median.is_finite() || (!trace && summary.median == 0.0) {
            return Err(format!(
                "{workload}: {} = {} is not a usable measurement",
                m.name, summary.median
            ));
        }
        metrics.insert(
            m.name.clone(),
            json!({
                "unit": m.unit,
                "median": summary.median,
                "q1": summary.q1,
                "q3": summary.q3,
                "n": summary.n
            }),
        );
    }
    Ok(json!({
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "sizes": sizes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": Value::Object(metrics)
    }))
}

/// The contract's last line for one run record.
pub fn contract_line(record: &Value) -> String {
    let metrics: serde_json::Map = record["metrics"]
        .as_object()
        .into_iter()
        .flatten()
        .map(|(name, m)| {
            (
                name.clone(),
                json!({"value": m["median"].clone(), "unit": m["unit"].clone()}),
            )
        })
        .collect();
    let line = json!({
        "correct": true,
        "attempted": record["attempted"].clone(),
        "failed": record["failed"].clone(),
        "metrics": Value::Object(metrics)
    });
    serde_json::to_string(&line).expect("a JSON value serializes")
}

/// A result file: the environment plus its run records.
pub fn result_file(root: &Path, runs: Vec<Value>) -> Value {
    json!({"schema": 1, "environment": environment(root), "runs": runs})
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).expect("a JSON value serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One human-readable block per run record.
pub fn print_summary(record: &Value) {
    println!(
        "{} (seed {}, {}): attempted {}, failed {}, sizes {}",
        record["workload"].as_str().unwrap_or("?"),
        record["seed"].as_u64().unwrap_or(0),
        if record["trace"].as_bool() == Some(true) {
            "traced"
        } else {
            "end to end"
        },
        record["attempted"].as_u64().unwrap_or(0),
        record["failed"].as_u64().unwrap_or(0),
        serde_json::to_string(&record["sizes"]).unwrap_or_default(),
    );
    for (name, m) in record["metrics"].as_object().into_iter().flatten() {
        println!(
            "  {name:<34} {:>14.4} {:<6} [{:.4} .. {:.4}] n={}",
            m["median"].as_f64().unwrap_or(f64::NAN),
            m["unit"].as_str().unwrap_or(""),
            m["q1"].as_f64().unwrap_or(f64::NAN),
            m["q3"].as_f64().unwrap_or(f64::NAN),
            m["n"].as_u64().unwrap_or(0),
        );
    }
}

/// The outcome of comparing one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Run-to-run spread exceeds the bound: neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
    Regression,
}

fn summary_of(m: &Value) -> Option<Summary> {
    Some(Summary {
        median: m["median"].as_f64()?,
        q1: m["q1"].as_f64()?,
        q3: m["q3"].as_f64()?,
        n: m["n"].as_u64()? as usize,
    })
}

/// Applies `metric`'s bound to a baseline and a candidate summary.
pub fn judge(metric: &MetricSpec, base: &Summary, cand: &Summary) -> (f64, Verdict) {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let worsening = if metric.higher_is_better {
        (base.median - cand.median) / base.median
    } else {
        (cand.median - base.median) / base.median
    };
    let verdict = if base.spread().max(cand.spread()) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// Compares the end-to-end records of two result files pair by pair;
/// returns how many pairs regressed.
pub fn diff(spec: &Spec, base: &Value, cand: &Value) -> Result<usize, String> {
    let records = |file: &Value| -> BTreeMap<String, Value> {
        file["runs"]
            .as_array()
            .into_iter()
            .flatten()
            .filter(|r| r["trace"].as_bool() == Some(false))
            .filter_map(|r| Some((r["workload"].as_str()?.to_string(), r["metrics"].clone())))
            .collect()
    };
    let (base, cand) = (records(base), records(cand));
    if base.is_empty() {
        return Err("the baseline file holds no end-to-end run".to_string());
    }
    let mut regressions = 0;
    println!(
        "{:<18} {:<26} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for (workload, base_metrics) in &base {
        let cand_metrics = cand
            .get(workload)
            .ok_or_else(|| format!("the candidate file has no end-to-end run of {workload}"))?;
        for metric in &spec.end_to_end {
            let (Some(b), Some(c)) = (
                summary_of(&base_metrics[metric.name.as_str()]),
                summary_of(&cand_metrics[metric.name.as_str()]),
            ) else {
                return Err(format!(
                    "{workload}: {} is missing from a file",
                    metric.name
                ));
            };
            let (worsening, verdict) = judge(metric, &b, &c);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload:<18} {:<26} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {}",
                metric.name,
                b.median,
                c.median,
                worsening * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract_grammar() {
        for name in METRICS.iter().chain(WORKLOADS.iter()) {
            assert!(valid_name(name), "{name}");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let unique: std::collections::BTreeSet<_> = METRICS.iter().collect();
        assert_eq!(unique.len(), METRICS.len());
    }

    fn spec_text(workloads: &[&str], metric: &str) -> String {
        let workloads: Vec<String> = workloads
            .iter()
            .map(|w| format!(r#"{{"name": "{w}", "why": "x"}}"#))
            .collect();
        format!(
            r#"{{"workloads": [{}],
                "end_to_end": [
                  {{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}},
                  {{"name": "{metric}", "unit": "1/s", "better": "higher", "bound": 0.1}}],
                "per_layer": [{{"name": "net.wait_share", "unit": "ratio", "better": "lower"}}]}}"#,
            workloads.join(",")
        )
    }

    #[test]
    fn validation_pins_workloads_and_metric_names() {
        let parse = |text: &str| Spec::parse(PathBuf::from("."), text).unwrap();
        assert_eq!(
            parse(&spec_text(&WORKLOADS, "trials_per_s")).validate(),
            Ok(())
        );
        let err = parse(&spec_text(&WORKLOADS[..5], "trials_per_s"))
            .validate()
            .unwrap_err();
        assert!(err.contains("workloads"), "{err}");
        let err = parse(&spec_text(&WORKLOADS, "trials_per_sec"))
            .validate()
            .unwrap_err();
        assert!(err.contains("does not emit"), "{err}");
        let err = parse(&spec_text(&WORKLOADS, "setup_s"))
            .validate()
            .unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn the_committed_benchmark_json_validates() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let spec = Spec::parse(root, &text).unwrap();
        spec.validate().unwrap();
        // Every metric the harness emits is declared on one side.
        let declared = spec.end_to_end.len() + spec.per_layer.len();
        assert_eq!(declared, METRICS.len());
    }

    #[test]
    fn judge_separates_regression_from_noise() {
        let tps = MetricSpec {
            name: "trials_per_s".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.10),
        };
        let steady = |median: f64| Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 5,
        };
        assert_eq!(judge(&tps, &steady(100.0), &steady(95.0)).1, Verdict::Ok);
        assert_eq!(
            judge(&tps, &steady(100.0), &steady(85.0)).1,
            Verdict::Regression
        );
        // Faster is never a regression for a higher-is-better metric.
        assert_eq!(judge(&tps, &steady(100.0), &steady(150.0)).1, Verdict::Ok);
        let noisy = Summary {
            median: 85.0,
            q1: 70.0,
            q3: 100.0,
            n: 5,
        };
        assert_eq!(judge(&tps, &steady(100.0), &noisy).1, Verdict::Unresolved);
        let rss = MetricSpec {
            name: "peak_rss_mb".into(),
            unit: "MB".into(),
            higher_is_better: false,
            bound: Some(0.10),
        };
        assert_eq!(
            judge(&rss, &steady(100.0), &steady(120.0)).1,
            Verdict::Regression
        );
    }
}
