//! `hypertune-worker` — one node of a real Hyper-Tune cluster.
//!
//! ```text
//! USAGE:
//!   hypertune-worker [--listen ADDR] [--once] [--slots N]
//!
//! FLAGS:
//!   --listen ADDR   Bind address (default 127.0.0.1:0 — an OS-assigned
//!                   port). The actual address is printed to stdout as
//!                   `listening on ADDR` once the socket is bound, so
//!                   scripts can discover ephemeral ports.
//!   --once          Serve exactly one driver session, then exit.
//!   --slots N       Accept up to N pipelined dispatches per session
//!                   (default 1). Evaluation stays on one thread in
//!                   FIFO order; slots hide round-trips, they do not
//!                   add parallelism. At most 1024 (the protocol's
//!                   MAX_SLOTS).
//!
//! EXAMPLE (one driver, two workers, all on localhost):
//!   hypertune-worker --listen 127.0.0.1:7101 &
//!   hypertune-worker --listen 127.0.0.1:7102 &
//!   hypertune cluster --workers 127.0.0.1:7101,127.0.0.1:7102 \
//!       --bench counting-ones-small --method hyper-tune --max-evals 60
//! ```
//!
//! The worker is benchmark-agnostic until a driver connects: the `Hello`
//! handshake payload names the benchmark, the evaluation seed, and an
//! optional per-job `sleep_ms` (a testing knob that stretches evaluations
//! so fault drills can kill a worker *mid-job* deterministically). The
//! evaluator is built from the same registry the driver uses, which is
//! what keeps distributed histories bit-comparable with in-process ones.
//!
//! A multi-tenant service driver (`hypertune serve`) instead sends
//! `{"multi_study": true}` in its `Hello`: dispatches are then
//! [`ServiceJob`]s carrying their own `(bench, seed)` coordinates, and
//! the worker resolves benchmark instances per job (cached per pair),
//! since consecutive jobs may belong to different studies tuning
//! different objectives.

use hypertune::benchmarks::Benchmark;
use hypertune::cluster::{serve_worker, EvalFn, JobStatus, WorkerOptions, MAX_SLOTS};
use hypertune::core::ThreadedJob;
use hypertune::registry;
use hypertune::service::ServiceJob;
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

fn usage() -> ! {
    eprintln!("usage: hypertune-worker [--listen ADDR] [--once] [--slots N]");
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut once = false;
    let mut slots = 1usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => {
                listen = it
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("missing value for --listen");
                        usage()
                    })
                    .clone()
            }
            "--once" => once = true,
            "--slots" => {
                slots = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| (1..=MAX_SLOTS).contains(&n))
                    .unwrap_or_else(|| {
                        eprintln!("--slots needs an integer from 1 to {MAX_SLOTS}");
                        usage()
                    })
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    let listener = TcpListener::bind(&listen).unwrap_or_else(|e| {
        eprintln!("hypertune-worker: cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    let addr = listener.local_addr().expect("bound socket has an address");
    // Scripts parse this line to discover OS-assigned ports; keep it
    // first on stdout and flush-by-newline.
    println!("listening on {addr}");

    let opts = WorkerOptions {
        once,
        slots,
        ..WorkerOptions::default()
    };
    let outcome = serve_worker(listener, opts, |hello: &Value| {
        let obj = hello
            .as_object()
            .ok_or_else(|| "Hello payload must be an object".to_string())?;
        let sleep_ms = obj.get("sleep_ms").and_then(|v| v.as_u64()).unwrap_or(0);
        if obj
            .get("multi_study")
            .and_then(|v| v.as_bool())
            .unwrap_or(false)
        {
            // Multi-tenant fleet mode: every dispatch names its own
            // benchmark; instances are cached per (name, seed) pair.
            eprintln!("hypertune-worker: session opened: multi-study fleet mode");
            let cache: Mutex<BTreeMap<(String, u64), Arc<dyn Benchmark>>> =
                Mutex::new(BTreeMap::new());
            return Ok(Box::new(move |payload: &Value| {
                let job = match ServiceJob::from_value(payload) {
                    Ok(job) => job,
                    Err(e) => {
                        eprintln!("hypertune-worker: undecodable service dispatch: {e}");
                        return (JobStatus::Errored, Value::Null);
                    }
                };
                let key = (job.bench.clone(), job.bench_seed);
                let bench = {
                    let mut cache = cache.lock().expect("bench cache poisoned");
                    match cache.get(&key) {
                        Some(b) => Arc::clone(b),
                        None => match registry::make_bench(&job.bench, job.bench_seed) {
                            Some(b) => {
                                let b: Arc<dyn Benchmark> = Arc::from(b);
                                cache.insert(key, Arc::clone(&b));
                                b
                            }
                            None => {
                                eprintln!("hypertune-worker: unknown benchmark `{}`", job.bench);
                                return (JobStatus::Errored, Value::Null);
                            }
                        },
                    }
                };
                if sleep_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                }
                let eval =
                    bench.evaluate(&job.job.spec.config, job.job.spec.resource, job.bench_seed);
                (JobStatus::Succeeded, serde_json::to_value(&eval))
            }) as EvalFn);
        }
        let bench_name = obj
            .get("bench")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "Hello payload needs a `bench` string".to_string())?;
        let seed = obj.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
        let bench = registry::make_bench(bench_name, seed)
            .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
        eprintln!("hypertune-worker: session opened: bench={bench_name} seed={seed}");
        Ok(Box::new(move |payload: &Value| {
            let job = match ThreadedJob::from_value(payload) {
                Ok(job) => job,
                Err(e) => {
                    eprintln!("hypertune-worker: undecodable dispatch: {e}");
                    return (JobStatus::Errored, Value::Null);
                }
            };
            if sleep_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            }
            let eval = bench.evaluate(&job.spec.config, job.spec.resource, seed);
            (JobStatus::Succeeded, serde_json::to_value(&eval))
        }) as EvalFn)
    });
    if let Err(e) = outcome {
        eprintln!("hypertune-worker: accept loop failed: {e}");
        std::process::exit(1);
    }
}
