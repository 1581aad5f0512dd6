//! Rounds and runs.
//!
//! A *round* is one complete pass of a workload: set-up, the measured
//! window, reconciliation. A *run* repeats rounds until the measured
//! windows add up to `--seconds` and reports each metric's median over
//! the rounds, so a scheduling hiccup in one round does not move the
//! run's number. A traced run alternates plain and traced rounds: the
//! plain ones give the untraced figures (and the base of the tracing
//! overhead), the traced ones the per-layer figures.

use std::collections::BTreeMap;
use std::path::Path;

use hypertune::core::Measurement;
use serde::Value;

use crate::layers::Values;
use crate::replay::replay;
use crate::stats::{median, Summary};
use crate::workloads::Plan;
use crate::{sim, single, svc};

/// Set-ups a round performs and tears down again before the one it
/// keeps, so that a run's `setup_s` is a median over several times as
/// many samples as it has rounds.
pub const SETUP_REHEARSALS: usize = 4;

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Seconds of every set-up the round performed.
    pub setup_samples: Vec<f64>,
    /// Wall seconds of the measured windows.
    pub measured_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Figures every round produces, traced or not.
    pub values: Values,
    /// Figures only a traced round produces.
    pub layer: Option<Values>,
    /// Payloads kept for the isolated replays (traced rounds).
    pub capture: Option<Capture>,
}

/// Inputs the isolated replays are fed with.
#[derive(Debug, Default)]
pub struct Capture {
    /// `(dispatch payload, result output)` pairs as they crossed the wire.
    pub payloads: Vec<(Value, Value)>,
    /// Benchmark of `measurements` (its space encodes the configs).
    pub bench: String,
    pub bench_seed: u64,
    /// One study's full measurement stream.
    pub measurements: Vec<Measurement>,
    /// Studies sharing the fleet (the fair-share replay's size).
    pub n_studies: usize,
}

fn run_round(plan: &Plan, traced: bool, scratch: &Path) -> Result<Round, String> {
    match plan {
        Plan::Service(p) => svc::run_round(p, traced, scratch),
        Plan::Single(p) => single::run_round(p, traced),
        Plan::Sim(p) => sim::run_round(p, traced),
    }
}

/// Per-metric samples of one run (one sample per round, or a single
/// sample for whole-run figures).
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Run {
    fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).map(|v| Summary::of(v))
    }
}

/// `VmHWM` of this process in MiB, or 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs rounds until their measured windows add up to `seconds` (at
/// least one round, so `--quick` passes 0). `plan_for(k)` is round
/// `k`'s plan: each round draws its own inputs from the run seed, so a
/// run's median is taken over several input draws and not over
/// repetitions of one. With `trace` the run also carries the per-layer
/// figures.
pub fn run(
    plan_for: impl Fn(u64) -> Plan,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Run, String> {
    let mut out = Run::default();
    let mut measured = 0.0;
    let mut capture = None;
    let mut traced_tps = Vec::new();
    let mut last_layer = Values::new();
    for k in 0.. {
        let plan = &plan_for(k);
        let round = run_round(plan, false, scratch)?;
        out.absorb(&round);
        measured += round.measured_s;
        for secs in &round.setup_samples {
            out.push("setup_s", *secs);
        }
        for (name, value) in &round.values {
            out.push(name, *value);
        }
        if trace {
            let round = run_round(plan, true, scratch)?;
            out.absorb(&round);
            measured += round.measured_s;
            traced_tps.push(round.values["trials_per_s"]);
            let layer = round.layer.ok_or("traced round without layer figures")?;
            for (name, value) in &layer {
                out.push(name, *value);
            }
            last_layer = layer;
            capture = round.capture;
        }
        if measured >= seconds {
            break;
        }
    }
    out.push("peak_rss_mb", peak_rss_mb());
    if trace {
        let plain_tps = median(&mut out.samples["trials_per_s"].clone());
        out.push(
            "telemetry.trace_overhead_share",
            1.0 - median(&mut traced_tps) / plain_tps,
        );
        let capture = capture.ok_or("traced run without a capture")?;
        for (name, value) in replay(&capture, &last_layer, scratch)? {
            out.push(name, value);
        }
    }
    Ok(out)
}
