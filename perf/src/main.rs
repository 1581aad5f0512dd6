//! `perf` — the repository's benchmark (see `perf/README.md`).
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! perf --all [--seed N] [--seconds S]     every workload, both passes
//! perf --quick                            1/20-scale schema + reconciliation check
//! perf --diff BASE.json CANDIDATE.json    apply BENCHMARK.json's bounds
//! ```
//!
//! The first form is the `BENCHMARK.json` contract: it prints one JSON
//! object as the last line of standard output.

mod clock;
mod duration;
mod fleet;
mod layers;
mod replay;
mod report;
mod round;
mod sim;
mod single;
mod stats;
mod svc;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use duration::DurationModel;
use report::Spec;
use serde::Value;
use workloads::WORKLOADS;

/// Trial-count scale of `--quick`.
const QUICK_SCALE: f64 = 0.05;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    model: Option<DurationModel>,
    all: bool,
    quick: bool,
    diff: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s} is not a duration"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--duration-model" => {
                let model: DurationModel = serde_json::from_str(&value()?)
                    .map_err(|e| format!("--duration-model: {e}"))?;
                model.validate()?;
                args.model = Some(model);
            }
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--diff" => args.diff = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and returns its run record.
fn measure(
    spec: &Spec,
    workload: &str,
    args: &Args,
    scale: f64,
    seconds: f64,
    trace: bool,
) -> Result<Value, String> {
    let model = args.model.unwrap_or(DurationModel::DEFAULT);
    let plan_for = |round| workloads::plan(workload, args.seed, round, scale, model);
    let first = plan_for(0)
        .ok_or_else(|| format!("unknown workload {workload:?}; known: {WORKLOADS:?}"))?;
    let scratch = spec
        .results_dir()
        .join(format!("tmp-{}", std::process::id()));
    let run = round::run(
        |round| plan_for(round).expect("the workload is known"),
        seconds,
        trace,
        &scratch,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    report::run_record(
        spec,
        workload,
        args.seed,
        trace,
        workloads::sizes(&first),
        &run?,
    )
}

/// `--all`: each (workload, pass) in a process of its own, so that peak
/// RSS and warm-up state never carry over from one to the next.
fn run_all(spec: &Spec, args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let seconds = args.seconds.unwrap_or(10.0);
    let dir = spec.results_dir();
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let part = dir.join(format!(
                "part-{}-{workload}-{trace}.json",
                std::process::id()
            ));
            let mut cmd = Command::new(&exe);
            cmd.current_dir(&spec.root)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&part);
            if let Some(model) = &args.model {
                cmd.arg("--duration-model")
                    .arg(serde_json::to_string(model).expect("a model serializes"));
            }
            let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
            if !output.status.success() {
                return Err(format!(
                    "{workload} --trace {trace} failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let file = report::read_json(&part)?;
            let _ = std::fs::remove_file(&part);
            for record in file["runs"].as_array().into_iter().flatten() {
                report::print_summary(record);
                runs.push(record.clone());
            }
        }
    }
    let file = report::result_file(&spec.root, runs);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let rev = file["environment"]["git_rev"]
        .as_str()
        .unwrap_or("unknown")
        .to_string();
    let path = dir.join(format!("all-{rev}-{stamp}.json"));
    report::write_json(&path, &file)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `--quick`: one plain and one traced round of every workload at 1/20
/// scale. Checks reconciliation and that every declared metric comes
/// out; the numbers themselves mean nothing at this size.
fn run_quick(spec: &Spec, args: &Args) -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let record = measure(spec, workload, args, QUICK_SCALE, 0.0, trace)?;
            let failed = record["failed"].as_u64().unwrap_or(u64::MAX);
            if failed != 0 {
                return Err(format!("{workload}: {failed} trials failed"));
            }
            println!(
                "ok {workload:<18} {:<10} attempted {:>6}, {} metrics",
                if trace { "traced" } else { "end-to-end" },
                record["attempted"].as_u64().unwrap_or(0),
                record["metrics"].as_object().map_or(0, |m| m.len()),
            );
        }
    }
    println!("quick pass ok");
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let spec = Spec::load()?;
    spec.validate()?;
    if let Some((base, cand)) = &args.diff {
        let regressions =
            report::diff(&spec, &report::read_json(base)?, &report::read_json(cand)?)?;
        return Ok(if regressions == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!("{regressions} end-to-end metric(s) regressed beyond their bound");
            ExitCode::FAILURE
        });
    }
    if args.quick {
        run_quick(&spec, &args)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.all {
        run_all(&spec, &args)?;
        return Ok(ExitCode::SUCCESS);
    }
    let workload = args
        .workload
        .as_deref()
        .ok_or("one of --workload, --all, --quick or --diff is required")?;
    let seconds = args.seconds.ok_or("--workload needs --seconds")?;
    let record = measure(&spec, workload, &args, 1.0, seconds, args.trace)?;
    let file = report::result_file(&spec.root, vec![record.clone()]);
    let out = args.out.clone().unwrap_or_else(|| {
        spec.results_dir().join(format!(
            "{workload}-seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        ))
    });
    report::write_json(&out, &file)?;
    report::print_summary(&record);
    println!("{}", report::contract_line(&record));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}
