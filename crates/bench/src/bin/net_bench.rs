//! `net-bench` — data-plane overhead of the TCP substrate and the
//! service WAL (DESIGN.md §16–§17).
//!
//! ```text
//! net-bench [--out FILE] [--jobs N] [--floats K] [--studies N] [--evals N]
//! ```
//!
//! Two experiments, both designed so the evaluator is near-free and the
//! measured cost is almost entirely the data plane itself:
//!
//! 1. **Wire overhead** — a loopback echo worker serves a (codec ×
//!    slots) matrix: JSON vs binary framing, single-slot vs pipelined
//!    (8 slots). The driver keeps the pipeline full and measures
//!    per-evaluation wall time. Each dispatch carries `--floats` f64s,
//!    the dominant payload of a real `ThreadedJob` (a config plus a
//!    resource level). The headline ratio divides JSON/slots=1 by
//!    binary/slots=8: codec cost and round-trip stalls, removed
//!    together.
//!
//! 2. **WAL durability** — one `TuningService` drains a wave of
//!    studies with the round's group commit buffered (the default) and
//!    with fsync on every commit (`wal_sync`). Trials/sec is the figure
//!    of merit; exactly-once under restart is pinned separately by the
//!    recovery tests. (The commit cadence is not a knob: a group is one
//!    drained batch, DESIGN.md §17.3.)
//!
//! Results land in `BENCH_net.json` (schema mirrors
//! `BENCH_service.json`).

use std::sync::Arc;
use std::time::Instant;

use hypertune::cluster::{
    serve_worker, Codec, EvalFn, JobStatus, TcpCluster, TcpClusterOptions, WorkerOptions,
};
use hypertune::prelude::*;
use hypertune::registry;
use hypertune::service::BenchResolver;
use serde::Value;
use serde_json::json;

/// Serves one in-process echo worker session and returns its address.
/// The evaluator returns the dispatch payload unchanged, so a round
/// trip costs two codec passes and two socket hops and nothing else.
fn spawn_echo_worker(slots: usize, codec: Codec) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let opts = WorkerOptions {
        once: true,
        slots,
        codec,
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || {
        serve_worker(listener, opts, |_hello: &Value| {
            Ok(Box::new(|payload: &Value| (JobStatus::Succeeded, payload.clone())) as EvalFn)
        })
    });
    addr
}

/// One cell of the wire matrix: `n_jobs` echo round trips with the
/// pipeline kept as full as the slot count allows. Returns per-eval
/// overhead in microseconds.
fn wire_cell(codec: Codec, slots: usize, n_jobs: usize, n_floats: usize) -> f64 {
    let addr = spawn_echo_worker(slots, codec);
    let mut cluster: TcpCluster<Value, Value> = TcpCluster::connect(
        &[addr],
        json!({"bench": "echo"}),
        TcpClusterOptions {
            codec,
            ..TcpClusterOptions::default()
        },
    )
    .expect("loopback connect");
    assert_eq!(cluster.n_workers(), slots, "slot negotiation");
    assert_eq!(cluster.worker_codec(0), codec, "codec negotiation");

    // A dispatch-shaped payload: an id plus a vector of non-integral
    // f64s (binary framing ships these through the F64Array fast path;
    // JSON prints and reparses every one).
    let job = |i: usize| {
        let xs: Vec<Value> = (0..n_floats)
            .map(|k| Value::Number(serde::Number::Float((i + k) as f64 * 0.25 + 0.125)))
            .collect();
        let mut obj = serde::Map::new();
        obj.insert("id".to_string(), json!(i as u64));
        obj.insert("xs".to_string(), Value::Array(xs));
        Value::Object(obj)
    };

    // Warm up the connection (allocator, first-touch buffers).
    for i in 0..slots {
        cluster.submit(job(i)).expect("warmup submit");
    }
    for _ in 0..slots {
        let r = cluster.next_completion().expect("warmup completion");
        assert_eq!(r.status, JobStatus::Succeeded);
    }

    let start = Instant::now();
    let mut submitted = 0usize;
    let mut done = 0usize;
    while done < n_jobs {
        while submitted < n_jobs && cluster.idle_workers() > 0 {
            cluster.submit(job(submitted)).expect("submit");
            submitted += 1;
        }
        let r = cluster.next_completion().expect("completion");
        assert_eq!(r.status, JobStatus::Succeeded, "echo must not fail");
        done += 1;
    }
    start.elapsed().as_secs_f64() / n_jobs as f64 * 1e6
}

/// Drains one service wave under `config` and returns trials/sec.
fn wal_wave(config: ServiceConfig, n_studies: usize, max_evals: usize) -> f64 {
    let resolver: BenchResolver = Arc::new(registry::make_bench);
    let executor: ThreadPool<ServiceJob, Eval> = ThreadPool::new(4, pool_eval(resolver.clone()));
    let mut svc = TuningService::new(executor, resolver, config).expect("service start");
    let start = Instant::now();
    for i in 0..n_studies {
        let spec = StudySpec::new(
            format!("study-{i}"),
            "counting-ones-small",
            MethodKind::Asha,
        )
        .with_seed(i as u64)
        .with_max_evals(max_evals)
        .with_max_in_flight(4);
        svc.create_study(spec).expect("create study");
    }
    svc.drain().expect("drain wave");
    let secs = start.elapsed().as_secs_f64();
    let stats = svc.stats();
    assert_eq!(stats.total_completed, n_studies * max_evals);
    stats.total_completed as f64 / secs
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos();
    std::env::temp_dir().join(format!("net-bench-{tag}-{}-{nonce}", std::process::id()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_net.json".to_string();
    let mut n_jobs = 2000usize;
    let mut n_floats = 128usize;
    let mut n_studies = 8usize;
    let mut max_evals = 32usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
                .clone()
        };
        match flag.as_str() {
            "--out" => out = value("--out"),
            "--jobs" => n_jobs = value("--jobs").parse().expect("--jobs"),
            "--floats" => n_floats = value("--floats").parse().expect("--floats"),
            "--studies" => n_studies = value("--studies").parse().expect("--studies"),
            "--evals" => max_evals = value("--evals").parse().expect("--evals"),
            other => panic!("unknown flag {other}"),
        }
    }

    // ---- experiment 1: wire overhead matrix --------------------------
    let mut wire = serde_json::Map::new();
    let mut cell = |codec: Codec, slots: usize| -> f64 {
        let us = wire_cell(codec, slots, n_jobs, n_floats);
        eprintln!("wire: codec={codec} slots={slots}: {us:.1} us/eval");
        wire.insert(
            format!("{codec}_slots{slots}"),
            json!({"per_eval_us": (us * 10.0).round() / 10.0}),
        );
        us
    };
    let json_1 = cell(Codec::Json, 1);
    cell(Codec::Json, 8);
    cell(Codec::Binary, 1);
    let bin_8 = cell(Codec::Binary, 8);
    let speedup = json_1 / bin_8;
    eprintln!("wire: binary/slots=8 vs json/slots=1: {speedup:.1}x less per-eval overhead");
    wire.insert(
        "speedup_binary8_vs_json1".to_string(),
        json!((speedup * 100.0).round() / 100.0),
    );

    // ---- experiment 2: WAL durability --------------------------------
    let mut wal = serde_json::Map::new();
    let mut wave = |key: &str, sync: bool| -> f64 {
        let dir = unique_dir(key);
        let config = ServiceConfig::new()
            .with_state_dir(&dir)
            .with_wal_sync(sync);
        let tps = wal_wave(config, n_studies, max_evals);
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!("wal: {key}: {tps:.0} trials/sec");
        wal.insert(key.to_string(), json!({"trials_per_sec": tps.round()}));
        tps
    };
    let synced = wave("group_commit_fsync", true);
    let buffered = wave("group_commit_buffered", false);
    let fsync_share = synced / buffered;
    eprintln!("wal: fsync on every commit keeps {fsync_share:.2} of buffered trials/sec");
    wal.insert(
        "fsync_over_buffered".to_string(),
        json!((fsync_share * 100.0).round() / 100.0),
    );

    let report = json!({
        "description": "Data-plane overhead (crates/bench/src/bin/net_bench.rs). Experiment 1: per-evaluation wire overhead over a loopback TCP echo worker, across the (codec x slots) matrix — the evaluator returns its payload unchanged (payload_floats f64s each way), so each figure is two codec passes plus two socket hops plus driver bookkeeping; 'slots8' keeps eight dispatches pipelined per the negotiated slot count, hiding round-trip stalls. Experiment 2: multi-tenant service throughput with the per-round WAL group commit buffered (default) and with fsync on every commit (wal_sync); the objective is counting-ones, so trials/sec isolates booking + WAL cost.",
        "environment": json!({
            "date": "2026-08-08",
            "cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            "rustc": "1.95.0",
            "profile": "release",
            "note": "Single-machine container, loopback TCP, WAL state dirs on ext4 (fsync is a real disk barrier, not tmpfs)."
        }),
        "units": "wire: microseconds per evaluation (lower is better) and x-fold speedup; wal: trials/sec (higher is better) and the fsync/buffered ratio",
        "config": json!({
            "wire_jobs": n_jobs,
            "payload_floats": n_floats,
            "wal_studies": n_studies,
            "wal_evals_per_study": max_evals
        }),
        "results": json!({
            "wire": serde_json::Value::Object(wire),
            "wal": serde_json::Value::Object(wal)
        }),
        "notes": json!([
            "Reproduce with: cargo run --release -p hypertune-bench --bin net-bench",
            "Bit-identical measurement streams across codecs and slot counts are pinned by crates/hypertune/tests/distributed.rs; exactly-once recovery under group commit by crates/service/src/service.rs tests.",
            "A commit group is one drained batch of completions (DESIGN.md 17.3), so its size follows the fleet: this 4-thread pool gives groups of a few trials. The per-record flush mode and the wal_flush_rounds knob this file used to sweep are gone; the table that decided it is in DESIGN.md 17.3."
        ])
    });
    let text = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, text.as_bytes()).expect("write report");
    println!("wrote {out}");
}
