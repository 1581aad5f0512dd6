//! One round of `single_prefetch`: one study through `run_distributed`
//! — the `runner_threaded` driver loop with its suggestion-prefetch
//! thread — on sleeping loopback workers.

use std::sync::{Arc, Mutex};

use hypertune::benchmarks::{Benchmark, Eval};
use hypertune::cluster::{TcpCluster, TcpClusterOptions};
use hypertune::core::{
    run_distributed, ResourceLevels, ThreadedJob, ThreadedRunConfig, ThreadedRunResult,
};
use hypertune::registry;

use crate::clock::now_ns;
use crate::duration::nominal_trials_per_s;
use crate::fleet::Fleet;
use crate::layers::{check_exactly_once, fleet_values, layer_values, Incarnation};
use crate::round::{Capture, Round, SETUP_REHEARSALS};
use crate::stats::percentile;
use crate::timed::{ExecTrace, TimedExecutor, TimedMethod};
use crate::trace;
use crate::workloads::SinglePlan;

/// Everything `run_distributed` needs, ready to go.
struct Ready {
    fleet: Fleet,
    cluster: TcpCluster<ThreadedJob, Eval>,
    bench: Box<dyn Benchmark>,
    levels: ResourceLevels,
    method: TimedMethod,
    latencies: Arc<Mutex<Vec<f64>>>,
    /// Seconds the set-up took.
    setup_s: f64,
}

/// The set-up: fleet, connection, benchmark, level ladder, method.
fn set_up(plan: &SinglePlan) -> Result<Ready, String> {
    let started_ns = now_ns();
    let fleet = Fleet::spawn(&plan.fleet).map_err(|e| format!("spawn fleet: {e}"))?;
    let bench = registry::make_bench(plan.bench, plan.seed)
        .ok_or_else(|| format!("unknown benchmark {}", plan.bench))?;
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let cluster = TcpCluster::connect(
        fleet.addrs(),
        serde_json::json!({"bench": plan.bench, "seed": plan.seed}),
        TcpClusterOptions::default(),
    )
    .map_err(|e| format!("connect: {e}"))?;
    let (method, latencies) = TimedMethod::new(plan.method.build(&levels, plan.seed));
    Ok(Ready {
        fleet,
        cluster,
        bench,
        levels,
        method,
        latencies,
        setup_s: (now_ns() - started_ns) as f64 * 1e-9,
    })
}

pub fn run_round(plan: &SinglePlan, traced: bool) -> Result<Round, String> {
    // Set-up rehearsals (see `round::SETUP_REHEARSALS`); dropping a
    // rehearsal's cluster ends its worker sessions, and the fleets are
    // joined at the end of the round.
    let mut setup_samples = Vec::new();
    let mut rehearsed = Vec::new();
    for _ in 0..if traced { 0 } else { SETUP_REHEARSALS } {
        let ready = set_up(plan)?;
        setup_samples.push(ready.setup_s);
        rehearsed.push(ready.fleet);
    }
    let Ready {
        fleet,
        cluster,
        bench,
        levels,
        mut method,
        latencies,
        setup_s,
    } = set_up(plan)?;
    setup_samples.push(setup_s);
    let mut config = ThreadedRunConfig::new(cluster.n_workers(), plan.max_evals, plan.seed);
    let (telemetry, trace) = trace::handle(traced);
    config.telemetry = telemetry.clone();
    let exec = Arc::new(Mutex::new(ExecTrace::default()));

    let ready_ns = now_ns();
    let result: ThreadedRunResult = if traced {
        let timed = TimedExecutor::new(cluster, Arc::clone(&exec));
        run_distributed(&mut method, bench.space(), &levels, timed, &config)
    } else {
        run_distributed(&mut method, bench.space(), &levels, cluster, &config)
    };
    let logs = fleet.join()?;
    for fleet in rehearsed {
        fleet.join()?;
    }

    if result.total_evals != plan.max_evals || result.measurements.len() != plan.max_evals {
        return Err(format!(
            "run completed {} of {} evaluations",
            result.total_evals, plan.max_evals
        ));
    }
    let mut ends: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.evals.iter().map(|e| e.end_ns))
        .collect();
    ends.sort_unstable();
    let timed_evals = plan.timed_evals;
    let mut inc = Incarnation {
        logs,
        exec: traced.then(|| std::mem::take(&mut *exec.lock().expect("exec trace poisoned"))),
        windows: vec![(ready_ns, ends[timed_evals - 1])],
    };
    let evaluated = check_exactly_once(&inc)?;
    if evaluated != plan.max_evals {
        return Err(format!(
            "workers evaluated {evaluated} trials, the run booked {}",
            plan.max_evals
        ));
    }

    let window_s = (inc.windows[0].1 - ready_ns) as f64 * 1e-9;
    let mut round = Round {
        setup_samples,
        measured_s: window_s,
        attempted: evaluated as u64,
        failed: (result.n_quarantined + result.n_failed_attempts) as u64,
        values: fleet_values(std::slice::from_ref(&inc)),
        ..Round::default()
    };
    let mut suggest_ms: Vec<f64> = latencies
        .lock()
        .expect("latency log poisoned")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    round.values.insert(
        "trials_per_s",
        nominal_trials_per_s(plan.fleet.workers, round.values["fleet_utilization"]),
    );
    round
        .values
        .insert("suggest_p99_ms", percentile(&mut suggest_ms, 0.99));

    if let Some(trace) = trace {
        let trace = trace.lock().expect("trace data poisoned");
        let snapshot = telemetry.snapshot().unwrap_or_default();
        round.layer = Some(layer_values(
            std::slice::from_ref(&inc),
            &trace,
            &snapshot,
            plan.max_evals,
            plan.fleet.slots == 1,
        ));
        round.capture = Some(Capture {
            payloads: inc
                .logs
                .iter_mut()
                .flat_map(|log| std::mem::take(&mut log.payloads))
                .collect(),
            bench: plan.bench.to_string(),
            bench_seed: plan.seed,
            measurements: result.measurements,
            // No service, hence no fair-share pick to replay.
            n_studies: 0,
        });
    }
    Ok(round)
}
