//! The six workloads: names, shapes, sizes, and the seeded generator
//! that turns `--seed` into study specs.
//!
//! A workload's *shape* (method mix, fleet, slots, WAL, quota) is fixed
//! here and is what makes it stress the layer it is named for; its
//! *size* (trials per study, virtual hours) is scaled so one measured
//! round lasts about two seconds on a 2-core box, which lets a ten
//! second run report a median over several rounds. `--quick` shrinks
//! sizes by a further factor of twenty.

use hypertune::core::MethodKind;
use hypertune::service::StudySpec;

use crate::duration::{mix, DurationModel};
use crate::fleet::{FleetSpec, JobKind};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "svc_wire_bound",
    "svc_sched_bound",
    "svc_suggest_bound",
    "fleet_straggler",
    "single_prefetch",
    "sim_scale",
];

/// Workers of the sleeping fleets: sleeping threads model remote
/// machines and burn no CPU, so the count does not follow `nproc`.
const SLEEPING_WORKERS: usize = 8;

/// Share of the trial budget the sleeping workloads are timed over: the
/// saturated window, before the tail in which workers run dry.
const SATURATED_SHARE: f64 = 0.9;

/// `max(2, nproc)`: the worker count of the CPU-bound fleets.
pub fn cpu_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2)
}

/// A `TuningService` over a loopback `TcpCluster`.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    pub studies: Vec<StudySpec>,
    pub fleet: FleetSpec,
    /// Per-study WALs under a state directory (default group commit).
    pub wal: bool,
    /// Drop the service un-flushed after this many completions and let a
    /// fresh one `recover()` and drain the rest.
    pub kill_after: Option<usize>,
    /// Completions the measured window covers; the rest drain untimed.
    pub timed_completions: usize,
}

impl ServicePlan {
    pub fn total_trials(&self) -> usize {
        self.studies.iter().map(|s| s.max_evals).sum()
    }
}

/// One study through `run_distributed` (the `runner_threaded` loop with
/// the library-default `prefetch: true`).
#[derive(Debug, Clone)]
pub struct SinglePlan {
    pub bench: &'static str,
    pub method: MethodKind,
    pub seed: u64,
    pub max_evals: usize,
    /// Evaluations the measured window covers (see [`ServicePlan`]).
    pub timed_evals: usize,
    pub fleet: FleetSpec,
}

/// `run()` on the `SimCluster`: virtual clock, no wire, no threads.
#[derive(Debug, Clone)]
pub struct SimPlan {
    pub bench: &'static str,
    pub method: MethodKind,
    pub workers: usize,
    /// Virtual horizon; the run ends earlier, at `max_evals`.
    pub budget_secs: f64,
    /// Evaluations per seed. A fixed count keeps the work per round the
    /// same from seed to seed: a fixed virtual budget does not (the
    /// number of evaluations that fit into it varies severalfold with
    /// the fidelities the method happens to favour).
    pub max_evals: usize,
    pub seeds: Vec<u64>,
}

#[derive(Debug, Clone)]
pub enum Plan {
    Service(ServicePlan),
    Single(SinglePlan),
    Sim(SimPlan),
}

/// Decorrelates the seeds drawn from one `--seed`: stream `stream` of
/// `seed`.
fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(8)
}

fn studies(
    seed: u64,
    groups: &[(MethodKind, usize)],
    bench: &str,
    max_evals: usize,
    max_in_flight: usize,
) -> Vec<StudySpec> {
    let mut out = Vec::new();
    for &(method, count) in groups {
        for _ in 0..count {
            let i = out.len();
            out.push(
                StudySpec::new(format!("{}-{i}", method.name()), bench, method)
                    .with_seed(derive(seed, i as u64))
                    .with_max_evals(max_evals)
                    .with_max_in_flight(max_in_flight),
            );
        }
    }
    out
}

/// Builds round `round`'s plan for `workload` from the run `seed`:
/// every round of a run gets its own study seeds and straggler draws.
/// `scale` is 1.0 for a measured run and 0.05 for `--quick`; `model` is
/// the straggler distribution of the sleeping fleets.
pub fn plan(
    workload: &str,
    seed: u64,
    round: u64,
    scale: f64,
    model: DurationModel,
) -> Option<Plan> {
    let seed = derive(seed, round << 40);
    let cpu_fleet = FleetSpec {
        workers: cpu_workers(),
        slots: 8,
        sleep: None,
        kind: JobKind::Service,
    };
    let service = |studies: Vec<StudySpec>, fleet: FleetSpec, wal: bool| {
        let total: usize = studies.iter().map(|s| s.max_evals).sum();
        ServicePlan {
            studies,
            fleet,
            wal,
            kill_after: None,
            timed_completions: total,
        }
    };
    Some(match workload {
        "svc_wire_bound" => {
            let specs = studies(
                seed,
                &[(MethodKind::ARandom, 64)],
                "counting-ones",
                scaled(500, scale),
                8,
            );
            let mut p = service(specs, cpu_fleet, true);
            p.kill_after = Some(p.total_trials() / 2);
            Plan::Service(p)
        }
        "svc_sched_bound" => Plan::Service(service(
            studies(
                seed,
                &[(MethodKind::Asha, 16)],
                "counting-ones",
                scaled(1000, scale),
                8,
            ),
            cpu_fleet,
            false,
        )),
        "svc_suggest_bound" => Plan::Service(service(
            studies(
                seed,
                &[(MethodKind::HyperTune, 4)],
                "xgboost-covertype",
                scaled(250, scale),
                4,
            ),
            cpu_fleet,
            false,
        )),
        "fleet_straggler" => {
            let specs = studies(
                seed,
                &[(MethodKind::HyperTune, 4), (MethodKind::Asha, 4)],
                "xgboost-covertype",
                scaled(60, scale),
                2,
            );
            let fleet = FleetSpec {
                workers: SLEEPING_WORKERS,
                slots: 1,
                sleep: Some((model, derive(seed, 1 << 32))),
                kind: JobKind::Service,
            };
            let mut p = service(specs, fleet, true);
            p.timed_completions = (p.total_trials() as f64 * SATURATED_SHARE) as usize;
            Plan::Service(p)
        }
        "single_prefetch" => {
            let study_seed = derive(seed, 0);
            let max_evals = scaled(200, scale);
            Plan::Single(SinglePlan {
                bench: "xgboost-covertype",
                method: MethodKind::HyperTune,
                seed: study_seed,
                max_evals,
                timed_evals: (max_evals as f64 * SATURATED_SHARE) as usize,
                fleet: FleetSpec {
                    workers: SLEEPING_WORKERS,
                    slots: 1,
                    sleep: Some((model, derive(seed, 1 << 32))),
                    kind: JobKind::Threaded {
                        bench: "xgboost-covertype".to_string(),
                        seed: study_seed,
                    },
                },
            })
        }
        "sim_scale" => Plan::Sim(SimPlan {
            bench: "xgboost-covertype",
            method: MethodKind::HyperTune,
            workers: 32,
            budget_secs: 12.0 * 3600.0,
            max_evals: scaled(400, scale),
            seeds: vec![derive(seed, 0), derive(seed, 1)],
        }),
        _ => return None,
    })
}

/// The final sizes of a plan, for the result file.
pub fn sizes(plan: &Plan) -> serde::Value {
    match plan {
        Plan::Service(p) => serde_json::json!({
            "studies": p.studies.len(),
            "trials_per_study": p.studies[0].max_evals,
            "max_in_flight": p.studies[0].max_in_flight,
            "workers": p.fleet.workers,
            "slots": p.fleet.slots,
            "wal": p.wal,
            "timed_trials": p.timed_completions
        }),
        Plan::Single(p) => serde_json::json!({
            "studies": 1,
            "trials_per_study": p.max_evals,
            "workers": p.fleet.workers,
            "slots": p.fleet.slots
        }),
        Plan::Sim(p) => serde_json::json!({
            "virtual_workers": p.workers,
            "virtual_hours": p.budget_secs / 3600.0,
            "evals_per_seed": p.max_evals,
            "seeds": p.seeds.len()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: &str, seed: u64) -> String {
        format!(
            "{:?}",
            plan(workload, seed, 0, 1.0, DurationModel::DEFAULT).unwrap()
        )
    }

    #[test]
    fn same_seed_same_plan_other_seed_differs() {
        for w in WORKLOADS {
            assert_eq!(fingerprint(w, 11), fingerprint(w, 11), "{w}");
            assert_ne!(fingerprint(w, 11), fingerprint(w, 12), "{w}");
        }
        assert!(plan("no_such_workload", 0, 0, 1.0, DurationModel::DEFAULT).is_none());
        for w in WORKLOADS {
            let round = |k| format!("{:?}", plan(w, 11, k, 1.0, DurationModel::DEFAULT).unwrap());
            assert_eq!(round(3), round(3), "{w}");
            assert_ne!(round(0), round(1), "{w}: rounds must draw their own inputs");
        }
    }

    #[test]
    fn shapes_match_their_names() {
        let Plan::Service(wire) =
            plan("svc_wire_bound", 1, 0, 1.0, DurationModel::DEFAULT).unwrap()
        else {
            panic!("svc_wire_bound is a service workload")
        };
        assert_eq!(wire.studies.len(), 64);
        assert!(wire.wal);
        assert_eq!(wire.kill_after, Some(wire.total_trials() / 2));
        assert_eq!(wire.fleet.slots, 8);
        let seeds: std::collections::BTreeSet<u64> = wire.studies.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 64, "study seeds must be distinct");

        let Plan::Service(strag) =
            plan("fleet_straggler", 1, 0, 1.0, DurationModel::DEFAULT).unwrap()
        else {
            panic!("fleet_straggler is a service workload")
        };
        assert_eq!((strag.fleet.workers, strag.fleet.slots), (8, 1));
        assert!(strag.fleet.sleep.is_some());
        assert!(strag.timed_completions < strag.total_trials());
        let ht = strag
            .studies
            .iter()
            .filter(|s| s.method == MethodKind::HyperTune)
            .count();
        assert_eq!((ht, strag.studies.len()), (4, 8));
    }

    #[test]
    fn quick_scale_shrinks_every_workload() {
        for w in WORKLOADS {
            let full = plan(w, 3, 0, 1.0, DurationModel::DEFAULT).unwrap();
            let quick = plan(w, 3, 0, 0.05, DurationModel::DEFAULT).unwrap();
            let size = |p: &Plan| match p {
                Plan::Service(p) => p.total_trials() as f64,
                Plan::Single(p) => p.max_evals as f64,
                Plan::Sim(p) => p.max_evals as f64,
            };
            assert!(size(&quick) * 5.0 < size(&full), "{w}");
        }
    }
}
