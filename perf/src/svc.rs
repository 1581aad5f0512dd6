//! One round of a service workload: a `TuningService` over a loopback
//! `TcpCluster`, driven closed-loop to completion, then reconciled.

use std::path::Path;
use std::sync::{Arc, Mutex};

use hypertune::benchmarks::Eval;
use hypertune::cluster::{Executor, TcpCluster, TcpClusterOptions};
use hypertune::core::{Measurement, MethodKind, RunSnapshot};
use hypertune::registry;
use hypertune::service::{
    BenchResolver, ServiceConfig, ServiceJob, StudyHandle, StudySpec, StudyStatus, TuningService,
};

use crate::clock::now_ns;
use crate::duration::nominal_trials_per_s;
use crate::fleet::Fleet;
use crate::layers::{check_exactly_once, fleet_values, layer_values, Incarnation};
use crate::round::{Capture, Round, SETUP_REHEARSALS};
use crate::timed::{ExecTrace, TimedExecutor};
use crate::trace;
use crate::workloads::ServicePlan;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What one service incarnation reports before it is dropped.
struct Driven {
    /// End of set-up (fresh incarnations) on the harness clock.
    ready_ns: u64,
    /// `recover()` wall seconds (recovered incarnations).
    recover_s: Option<f64>,
    window: (u64, u64),
    /// Completions booked inside the window.
    booked: usize,
    /// Completions recovered from the state directory (0 when fresh).
    carried: usize,
    /// `None` when the incarnation was killed mid-run.
    finished: Option<Finished>,
}

struct Finished {
    suggest_p99_s: f64,
    failed: usize,
    /// `(study id, completed)` of every study, for the WAL check.
    completed: Vec<(u64, usize)>,
    /// The first planned study's measurement stream, for the replays.
    sample: Vec<Measurement>,
}

/// Runs one incarnation on `executor`: a fresh one warms up and creates
/// the planned studies, a recovered one rebuilds them from the state
/// directory; either then books `target` more completions inside the
/// measured window and, unless `kill`, drains the rest untimed.
fn drive<E: Executor<ServiceJob, Eval>>(
    executor: E,
    config: ServiceConfig,
    plan: &ServicePlan,
    fresh: bool,
    target: usize,
    kill: bool,
) -> Result<Driven, String> {
    let resolver: BenchResolver = Arc::new(registry::make_bench);
    let capacity = executor.n_workers();
    let mut svc = TuningService::new(executor, resolver, config).map_err(err("service start"))?;
    let mut recover_s = None;
    let mut sample_handle = None;
    let mut carried = 0;
    if fresh {
        // Warm-up: one throwaway study that touches every slot twice —
        // sockets, codec buffers, allocator. Its benchmark is the
        // cheapest one, so that on a sleeping fleet set-up time does not
        // depend on the seed's straggler draws.
        let warmup = StudySpec::new("warmup", "counting-ones-small", MethodKind::ARandom)
            .with_seed(plan.studies[0].seed)
            .with_max_evals(2 * capacity)
            .with_max_in_flight(capacity);
        svc.create_study(warmup).map_err(err("create warm-up"))?;
        svc.drain().map_err(err("drain warm-up"))?;
        for spec in &plan.studies {
            let h = svc
                .create_study(spec.clone())
                .map_err(err("create study"))?;
            sample_handle.get_or_insert(h);
        }
    } else {
        let t0 = now_ns();
        let handles = svc.recover().map_err(err("recover"))?;
        recover_s = Some((now_ns() - t0) as f64 * 1e-9);
        // Study ids are dense from 1; the warm-up study took the first.
        sample_handle = handles.get(1).copied();
        carried = svc.stats().total_completed;
    }
    let ready_ns = now_ns();

    let booked = svc.run_completions(target).map_err(err("run"))?;
    let window = (ready_ns, now_ns());
    if booked != target {
        return Err(format!(
            "service drained after {booked} of {target} completions"
        ));
    }
    if kill {
        // Dropped un-flushed, with trials in flight.
        drop(svc);
        return Ok(Driven {
            ready_ns,
            recover_s,
            window,
            booked,
            carried,
            finished: None,
        });
    }
    svc.drain().map_err(err("drain"))?;

    let stats = svc.stats();
    let mut failed = 0;
    for s in &stats.studies {
        let want = plan
            .studies
            .iter()
            .find(|spec| spec.name == s.name)
            .map_or(2 * capacity, |spec| spec.max_evals);
        let reconciled = s.status == StudyStatus::Completed
            && s.completed == want
            && s.dispatched == s.completed
            && s.outstanding == 0;
        if !reconciled {
            return Err(format!(
                "study {} ({}) did not reconcile: {:?} completed {} of {want}, dispatched {}, \
                 outstanding {}, quarantined {}",
                s.id, s.name, s.status, s.completed, s.dispatched, s.outstanding, s.quarantined
            ));
        }
        failed += s.quarantined + s.failures.total();
    }
    let handle: StudyHandle = sample_handle.ok_or("no planned study to sample")?;
    Ok(Driven {
        ready_ns,
        recover_s,
        window,
        booked,
        carried,
        finished: Some(Finished {
            suggest_p99_s: svc.suggest_p99().unwrap_or(0.0),
            failed,
            completed: stats.studies.iter().map(|s| (s.id, s.completed)).collect(),
            sample: svc.measurements(handle).to_vec(),
        }),
    })
}

/// Spawns the plan's fleet and connects a cluster to it.
fn open(plan: &ServicePlan) -> Result<(Fleet, TcpCluster<ServiceJob, Eval>), String> {
    let fleet = Fleet::spawn(&plan.fleet).map_err(err("spawn fleet"))?;
    let cluster = TcpCluster::connect(
        fleet.addrs(),
        serde_json::json!({"multi_study": true}),
        TcpClusterOptions::default(),
    )
    .map_err(err("connect"))?;
    Ok((fleet, cluster))
}

/// Opens a fleet and drives one incarnation through a plain or a timed
/// executor; returns what it reported plus the fleet's records.
fn incarnation(
    plan: &ServicePlan,
    config: ServiceConfig,
    traced: bool,
    fresh: bool,
    target: usize,
    kill: bool,
) -> Result<(Driven, Incarnation, u64), String> {
    let started_ns = now_ns();
    let (fleet, cluster) = open(plan)?;
    let exec = Arc::new(Mutex::new(ExecTrace::default()));
    let driven = if traced {
        let timed = TimedExecutor::new(cluster, Arc::clone(&exec));
        drive(timed, config, plan, fresh, target, kill)
    } else {
        drive(cluster, config, plan, fresh, target, kill)
    };
    // The cluster was dropped inside `drive` (on error too), which ends
    // every worker session, so the join cannot hang.
    let logs = fleet.join()?;
    let driven = driven?;
    let inc = Incarnation {
        logs,
        exec: traced.then(|| std::mem::take(&mut *exec.lock().expect("exec trace poisoned"))),
        windows: vec![driven.window],
    };
    Ok((driven, inc, started_ns))
}

/// Runs one round of `plan`. `scratch` is a directory inside the
/// checkout that the round may fill and empties first.
pub fn run_round(plan: &ServicePlan, traced: bool, scratch: &Path) -> Result<Round, String> {
    let state_dir = scratch.join("state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let (telemetry, trace) = trace::handle(traced);
    let mut config = ServiceConfig::new().with_telemetry(telemetry.clone());
    if plan.wal {
        config = config.with_state_dir(&state_dir);
    }

    // Set-up rehearsals: the whole set-up, torn down again at once, for
    // more set-up samples per run than there are rounds. Their fleets
    // are joined at the end of the round, because a worker session
    // takes up to a heartbeat interval to wind down.
    let mut setup_samples = Vec::new();
    let mut rehearsed = Vec::new();
    for _ in 0..if traced { 0 } else { SETUP_REHEARSALS } {
        let started_ns = now_ns();
        let (fleet, cluster) = open(plan)?;
        let ready_ns = drive(cluster, config.clone(), plan, true, 0, true)?.ready_ns;
        setup_samples.push((ready_ns - started_ns) as f64 * 1e-9);
        rehearsed.push(fleet);
    }

    let first_target = plan.kill_after.unwrap_or(plan.timed_completions);
    let (first, first_inc, started_ns) = incarnation(
        plan,
        config.clone(),
        traced,
        true,
        first_target,
        plan.kill_after.is_some(),
    )?;
    setup_samples.push((first.ready_ns - started_ns) as f64 * 1e-9);
    let mut incs = vec![first_inc];
    let mut booked = first.booked;
    let mut recover_s = 0.0;
    let last = if first.finished.is_some() {
        first
    } else {
        let (second, inc, _) = incarnation(
            plan,
            config,
            traced,
            false,
            plan.timed_completions - first.booked,
            false,
        )?;
        // Warm-up trials are booked too, so the carried count is the
        // first incarnation's bookings plus those.
        let warmup = 2 * plan.fleet.workers * plan.fleet.slots;
        if second.carried != first.booked + warmup {
            return Err(format!(
                "recovery carried {} completions, the killed service had booked {}",
                second.carried,
                first.booked + warmup
            ));
        }
        recover_s = second.recover_s.unwrap_or(0.0);
        booked += second.booked;
        incs.push(inc);
        second
    };
    let finished = last.finished.ok_or("last incarnation was killed")?;

    // Exactly-once: no key evaluated twice within an incarnation, and
    // the last incarnation evaluated exactly what it booked.
    let mut attempted = 0;
    for inc in &incs {
        attempted += check_exactly_once(inc)?;
    }
    let last_evaluated = check_exactly_once(incs.last().expect("at least one incarnation"))?;
    let total: usize = finished.completed.iter().map(|&(_, n)| n).sum();
    if last_evaluated != total - last.carried {
        return Err(format!(
            "last incarnation evaluated {last_evaluated} trials but booked {}",
            total - last.carried
        ));
    }
    let mut wal_bytes = 0;
    if plan.wal {
        for &(id, completed) in &finished.completed {
            let path = state_dir.join(format!("study-{id}.wal"));
            let snapshot = RunSnapshot::load(&path).map_err(err("load WAL"))?;
            if snapshot.measurements.len() != completed {
                return Err(format!(
                    "study {id}'s WAL holds {} measurements, the service booked {completed}",
                    snapshot.measurements.len()
                ));
            }
            wal_bytes += std::fs::metadata(&path).map_err(err("stat WAL"))?.len();
        }
    }

    let window_s: f64 = incs
        .iter()
        .flat_map(|inc| &inc.windows)
        .map(|&(a, b)| (b - a) as f64 * 1e-9)
        .sum();
    let mut round = Round {
        setup_samples,
        measured_s: window_s,
        attempted: attempted as u64,
        failed: finished.failed as u64,
        values: fleet_values(&incs),
        ..Round::default()
    };
    round.values.insert(
        "trials_per_s",
        match plan.fleet.sleep {
            None => booked as f64 / window_s,
            Some(_) => nominal_trials_per_s(plan.fleet.workers, round.values["fleet_utilization"]),
        },
    );
    round
        .values
        .insert("suggest_p99_ms", finished.suggest_p99_s * 1e3);
    round.values.insert("recover_s", recover_s);

    if let Some(trace) = trace {
        let trace = trace.lock().expect("trace data poisoned");
        let snapshot = telemetry.snapshot().unwrap_or_default();
        let mut layer = layer_values(&incs, &trace, &snapshot, total, plan.fleet.slots == 1);
        layer.insert("wal.bytes_per_trial", wal_bytes as f64 / total as f64);
        round.layer = Some(layer);
        round.capture = Some(Capture {
            payloads: incs
                .iter_mut()
                .flat_map(|inc| inc.logs.iter_mut())
                .flat_map(|log| std::mem::take(&mut log.payloads))
                .collect(),
            bench: plan.studies[0].bench.clone(),
            bench_seed: plan.studies[0].seed,
            measurements: finished.sample,
            n_studies: plan.studies.len(),
        });
    }
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(round)
}
