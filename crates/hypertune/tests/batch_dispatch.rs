//! Contract tests for batched dispatch: the batch suggestion API
//! (`Method::next_jobs`) must degenerate to the sequential `next_job`
//! path at k = 1 for every method.

use hypertune::core::{JobSpec, Measurement, Method, MethodContext, Outcome, OutcomeStatus};
use hypertune::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One half of the lockstep pair: a method plus the runner state the
/// context views borrow from.
struct Side {
    method: Box<dyn Method>,
    history: History,
    pending: Vec<JobSpec>,
    rng: StdRng,
}

impl Side {
    fn new(kind: MethodKind, levels: &ResourceLevels, seed: u64) -> Self {
        Self {
            method: kind.build(levels, seed),
            history: History::new(levels.clone()),
            pending: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed),
        }
    }

    fn dispatch(
        &mut self,
        space: &ConfigSpace,
        levels: &ResourceLevels,
        n_workers: usize,
        batched: bool,
    ) -> Option<JobSpec> {
        let Side {
            method,
            history,
            pending,
            rng,
        } = self;
        let mut ctx = MethodContext {
            space,
            levels,
            history: &*history,
            pending: pending.as_slice(),
            rng,
            n_workers,
            now: 0.0,
        };
        if batched {
            method.next_jobs(&mut ctx, 1).pop()
        } else {
            method.next_job(&mut ctx)
        }
    }

    fn complete(
        &mut self,
        space: &ConfigSpace,
        levels: &ResourceLevels,
        n_workers: usize,
        job: JobSpec,
        value: f64,
    ) {
        self.history.record(Measurement {
            config: job.config.clone(),
            level: job.level,
            resource: job.resource,
            value,
            test_value: value,
            cost: 1.0,
            finished_at: 0.0,
        });
        let outcome = Outcome {
            spec: job,
            value,
            test_value: value,
            cost: 1.0,
            finished_at: 0.0,
            status: OutcomeStatus::Success,
            fail_status: None,
        };
        let Side {
            method,
            history,
            pending,
            rng,
        } = self;
        let mut ctx = MethodContext {
            space,
            levels,
            history: &*history,
            pending: pending.as_slice(),
            rng,
            n_workers,
            now: 0.0,
        };
        method.on_result(&outcome, &mut ctx);
    }
}

/// Deterministic synthetic objective, so completions are a pure function
/// of the dispatched job.
fn synth_value(space: &ConfigSpace, job: &JobSpec) -> f64 {
    let enc = space.encode(&job.config);
    enc.iter().sum::<f64>() / enc.len() as f64 + 0.01 * job.level as f64
}

/// Drives two instances of `kind` in lockstep — one through the
/// sequential `next_job`, one through `next_jobs(_, 1)` — completing
/// jobs oldest-first, and asserts the dispatch streams are identical.
fn lockstep(kind: MethodKind, seed: u64, evals: usize) {
    let space = ConfigSpace::builder()
        .float("x", 0.0, 1.0)
        .float("y", -1.0, 1.0)
        .build();
    let levels = ResourceLevels::new(27.0, 3);
    let n_workers = 3;
    let mut seq = Side::new(kind, &levels, seed);
    let mut bat = Side::new(kind, &levels, seed);

    let mut done = 0;
    while done < evals {
        while seq.pending.len() < n_workers {
            let a = seq.dispatch(&space, &levels, n_workers, false);
            let b = bat.dispatch(&space, &levels, n_workers, true);
            assert_eq!(a, b, "{} diverged at eval {done}", kind.name());
            match a {
                Some(job) => {
                    seq.pending.push(job);
                    bat.pending.push(b.unwrap());
                }
                // Barrier on both sides; drain a completion.
                None => break,
            }
        }
        assert!(
            !seq.pending.is_empty(),
            "{} stalled with nothing in flight",
            kind.name()
        );
        let job = seq.pending.remove(0);
        let jb = bat.pending.remove(0);
        let value = synth_value(&space, &job);
        seq.complete(&space, &levels, n_workers, job, value);
        bat.complete(&space, &levels, n_workers, jb, value);
        done += 1;
    }
    // Both sides must also have consumed the same amount of randomness.
    assert_eq!(
        seq.rng.next_u64(),
        bat.rng.next_u64(),
        "{} left the RNG streams out of sync",
        kind.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// k = 1 batch suggestion is bit-identical to sequential `next_job`
    /// for every method in the registry: same jobs, same order, same RNG
    /// consumption. This is the contract that keeps the simulated runner
    /// (which drives everything through `next_jobs(_, 1)`) reproducing
    /// the paper figures exactly.
    #[test]
    fn batch_k1_bit_identical_to_sequential(seed in 0u64..1000) {
        for &kind in MethodKind::all() {
            lockstep(kind, seed, 45);
        }
    }
}
