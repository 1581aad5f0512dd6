//! `hypertune` — command-line tuner over the built-in benchmarks.
//!
//! ```text
//! USAGE:
//!   hypertune run [--bench NAME] [--method NAME] [--workers N]
//!                 [--budget-hours H] [--seed S] [--eta E] [--trace]
//!   hypertune cluster --workers ADDR[,ADDR...] [--bench NAME] [--method NAME]
//!                 [--max-evals N] [--seed S] [--eta E] [--lease-secs F]
//!                 [--eval-sleep-ms MS] [--connect-timeout-ms MS]
//!                 [--connect-retries N] [--redial-attempts N]
//!                 [--redial-backoff-ms MS] [--chaos FILE] [--trace FILE]
//!   hypertune serve [--pool N | --workers ADDR[,ADDR...]] [--state-dir DIR]
//!                 [--script FILE] [--resume] [--lease-secs F]
//!                 [--connect-timeout-ms MS] [--connect-retries N]
//!                 [--redial-attempts N] [--redial-backoff-ms MS]
//!                 [--trace FILE]
//!   hypertune list
//!
//! EXAMPLES:
//!   hypertune run --bench nas-cifar100 --method hyper-tune --workers 8 --budget-hours 4
//!   hypertune run --bench xgboost-covertype --method bohb --seed 7
//!   hypertune cluster --workers 127.0.0.1:7101,127.0.0.1:7102 \
//!       --bench counting-ones-small --max-evals 60 --trace /tmp/run.jsonl
//!   hypertune serve --pool 8 --state-dir /tmp/studies --script studies.jsonl
//!   hypertune list
//! ```
//!
//! `run` drives the discrete-event simulator (virtual time); `cluster`
//! drives real `hypertune-worker` processes over TCP (wall-clock time,
//! see DESIGN.md §16 and the README's "Running a real cluster"). Start
//! the workers first — `--workers` takes their listen addresses.
//!
//! Partition tolerance (DESIGN.md §16.4): `--connect-timeout-ms` and
//! `--connect-retries` bound the initial dial; `--redial-attempts` with
//! `--redial-backoff-ms` arms the driver's reconnect loop — a worker
//! that drops mid-run is redialed with exponential backoff and, on
//! success, rejoins under a new session epoch (no trial double-booked).
//! `--chaos FILE` (cluster only) loads a JSON [`ChaosPlan`] and routes
//! every worker connection through an in-process fault proxy that
//! replays the plan deterministically — see the README's "Chaos
//! drills".
//!
//! `serve` runs the multi-tenant tuning service (DESIGN.md §17): many
//! studies fair-shared over one fleet — an in-process thread pool
//! (`--pool N`) or TCP workers started in multi-study mode
//! (`--workers`). Studies are driven by a JSONL command script, one
//! object per line:
//!
//! ```text
//!   {"cmd":"create","name":"lr-sweep","bench":"counting-ones-small",
//!    "method":"hyper-tune","seed":1,"max_evals":16,"weight":2,"max_in_flight":4}
//!   {"cmd":"run","completions":40}     # process 40 fleet results
//!   {"cmd":"stop","study":1}           # stop a study by id
//!   {"cmd":"drain"}                    # finish every live study
//!   {"cmd":"status"}                   # print the per-study summary
//! ```
//!
//! With `--state-dir`, every study persists a WAL + sidecar there;
//! `--resume` recovers them on startup (and, when no `--script` is
//! given, drains the survivors to completion) — kill the service
//! mid-run, restart with `--resume`, and no trial is ever booked twice.
//!
//! Argument parsing is hand-rolled to keep the dependency set minimal.

use hypertune::prelude::*;
use hypertune::registry;
use serde_json::json;

fn usage() -> ! {
    eprintln!(
        "usage:\n  hypertune run [--bench NAME] [--method NAME] [--workers N]\n                [--budget-hours H] [--seed S] [--eta E] [--trace]\n  hypertune cluster --workers ADDR[,ADDR...] [--bench NAME] [--method NAME]\n                [--max-evals N] [--seed S] [--eta E] [--lease-secs F]\n                [--eval-sleep-ms MS] [--connect-timeout-ms MS]\n                [--connect-retries N] [--redial-attempts N]\n                [--redial-backoff-ms MS] [--chaos FILE] [--trace FILE]\n  hypertune serve [--pool N | --workers ADDR[,ADDR...]] [--state-dir DIR]\n                [--script FILE] [--resume] [--lease-secs F]\n                [--connect-timeout-ms MS] [--connect-retries N]\n                [--redial-attempts N] [--redial-backoff-ms MS]\n                [--trace FILE]\n  hypertune list"
    );
    std::process::exit(2);
}

/// Builds the driver's redial policy from the CLI knobs: 0 attempts
/// keeps redialing off (a dropped worker stays gone, as before);
/// otherwise backoff doubles from `backoff_ms` up to a 20x cap, with
/// jitter seeded from the run seed so drills replay exactly.
fn reconnect_policy(attempts: u32, backoff_ms: u64, seed: u64) -> ReconnectPolicy {
    if attempts == 0 {
        ReconnectPolicy::disabled()
    } else {
        ReconnectPolicy {
            max_attempts: attempts,
            base_backoff: std::time::Duration::from_millis(backoff_ms.max(1)),
            max_backoff: std::time::Duration::from_millis(backoff_ms.max(1).saturating_mul(20)),
            jitter_seed: seed,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("benchmarks:");
            for (name, _) in registry::benches() {
                println!("  {name}");
            }
            println!("methods:");
            for (name, _) in registry::methods() {
                println!("  {name}");
            }
        }
        Some("run") => run_command(&args[1..]),
        Some("cluster") => cluster_command(&args[1..]),
        Some("serve") => serve_command(&args[1..]),
        _ => usage(),
    }
}

fn lookup_bench(name: &str, seed: u64) -> Box<dyn Benchmark> {
    registry::make_bench(name, seed).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}` (see `hypertune list`)");
        std::process::exit(2);
    })
}

fn lookup_method(name: &str) -> MethodKind {
    registry::find_method(name).unwrap_or_else(|| {
        eprintln!("unknown method `{name}` (see `hypertune list`)");
        std::process::exit(2);
    })
}

fn run_command(args: &[String]) {
    let mut bench_name = "counting-ones".to_string();
    let mut method_name = "hyper-tune".to_string();
    let mut workers = 8usize;
    let mut budget_hours = 1.0f64;
    let mut seed = 0u64;
    let mut eta = 3usize;
    let mut trace = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match flag.as_str() {
            "--bench" => bench_name = value("--bench"),
            "--method" => method_name = value("--method"),
            "--workers" => workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--budget-hours" => {
                budget_hours = value("--budget-hours").parse().unwrap_or_else(|_| usage())
            }
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--eta" => eta = value("--eta").parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = true,
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    let bench = lookup_bench(&bench_name, seed);
    let kind = lookup_method(&method_name);

    let budget = budget_hours * 3600.0;
    let mut config = RunConfig::new(workers, budget, seed);
    config.eta = eta;
    let levels = ResourceLevels::new(bench.max_resource(), eta);
    let mut method = kind.build(&levels, seed);

    eprintln!(
        "running {} on {} | {workers} workers | {budget_hours} virtual hours | seed {seed} | eta {eta}",
        kind.name(),
        bench.name()
    );
    let start = std::time::Instant::now();
    let result = run(method.as_mut(), bench.as_ref(), &config);
    eprintln!("finished in {:.2?} of real time", start.elapsed());

    println!("method:       {}", result.method);
    println!("best value:   {:.6}", result.best_value);
    println!("best test:    {:.6}", result.best_test);
    if let Some(cfg) = &result.best_config {
        println!("best config:  {}", bench.space().describe(cfg));
    }
    println!(
        "evaluations:  {} {:?}",
        result.total_evals, result.evals_per_level
    );
    println!("utilization:  {:.1}%", 100.0 * result.utilization);
    if let Some(opt) = bench.optimum() {
        println!("regret:       {:.6}", (result.best_value - opt).max(0.0));
    }
    if trace {
        println!("\nworker trace:");
        print!("{}", result.trace.render_ascii(budget, 100));
    }
}

fn cluster_command(args: &[String]) {
    let mut bench_name = "counting-ones-small".to_string();
    let mut method_name = "hyper-tune".to_string();
    let mut worker_addrs: Vec<String> = Vec::new();
    let mut max_evals = 60usize;
    let mut seed = 0u64;
    let mut eta = 3usize;
    let mut lease_secs = 10.0f64;
    let mut eval_sleep_ms = 0u64;
    let mut trace_path: Option<String> = None;
    let mut connect_timeout_ms: Option<u64> = None;
    let mut connect_retries = 0u32;
    let mut redial_attempts = 0u32;
    let mut redial_backoff_ms = 100u64;
    let mut chaos_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match flag.as_str() {
            "--bench" => bench_name = value("--bench"),
            "--method" => method_name = value("--method"),
            "--workers" => {
                worker_addrs = value("--workers")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--max-evals" => max_evals = value("--max-evals").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--eta" => eta = value("--eta").parse().unwrap_or_else(|_| usage()),
            "--lease-secs" => {
                lease_secs = value("--lease-secs").parse().unwrap_or_else(|_| usage())
            }
            "--eval-sleep-ms" => {
                eval_sleep_ms = value("--eval-sleep-ms").parse().unwrap_or_else(|_| usage())
            }
            "--connect-timeout-ms" => {
                connect_timeout_ms = Some(
                    value("--connect-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--connect-retries" => {
                connect_retries = value("--connect-retries")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--redial-attempts" => {
                redial_attempts = value("--redial-attempts")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--redial-backoff-ms" => {
                redial_backoff_ms = value("--redial-backoff-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--chaos" => chaos_path = Some(value("--chaos")),
            "--trace" => trace_path = Some(value("--trace")),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if worker_addrs.is_empty() {
        eprintln!("--workers ADDR[,ADDR...] is required (start hypertune-worker first)");
        usage()
    }

    // The benchmark is driver-side only here: it supplies the search
    // space and resource ladder. Evaluation happens on the workers,
    // which build the same benchmark from this name and seed.
    let bench = lookup_bench(&bench_name, seed);
    let kind = lookup_method(&method_name);
    let levels = ResourceLevels::new(bench.max_resource(), eta);
    let mut method = kind.build(&levels, seed);

    let telemetry = match &trace_path {
        Some(path) => {
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(1);
            });
            Telemetry::new().with_sink(sink).build()
        }
        None => TelemetryHandle::disabled(),
    };

    // With --chaos, every worker connection is routed through an
    // in-process fault proxy replaying the plan; the proxies must stay
    // alive for the whole run, so they're held here, not in the branch.
    let mut proxies: Vec<ChaosProxy> = Vec::new();
    let dial_addrs: Vec<String> = match &chaos_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read chaos plan {path}: {e}");
                std::process::exit(1);
            });
            let plan: ChaosPlan = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("bad chaos plan {path}: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "chaos plan {path}: {} scheduled fault window(s)",
                plan.faults.len()
            );
            worker_addrs
                .iter()
                .map(|addr| {
                    let proxy = ChaosProxy::launch(addr.as_str(), plan.clone(), telemetry.clone())
                        .unwrap_or_else(|e| {
                            eprintln!("chaos proxy for {addr} failed to start: {e}");
                            std::process::exit(1);
                        });
                    let proxied = proxy.addr().to_string();
                    proxies.push(proxy);
                    proxied
                })
                .collect()
        }
        None => worker_addrs.clone(),
    };

    let hello = json!({
        "bench": bench_name.as_str(),
        "seed": seed,
        "sleep_ms": eval_sleep_ms,
    });
    let opts = TcpClusterOptions {
        lease_timeout: std::time::Duration::from_secs_f64(lease_secs),
        reconnect: reconnect_policy(redial_attempts, redial_backoff_ms, seed),
        connect_timeout: connect_timeout_ms.map(std::time::Duration::from_millis),
        connect_retries,
    };
    eprintln!(
        "connecting to {} worker(s): {}",
        worker_addrs.len(),
        worker_addrs.join(", ")
    );
    let cluster: TcpCluster<ThreadedJob, Eval> = TcpCluster::connect(&dial_addrs, hello, opts)
        .unwrap_or_else(|e| {
            eprintln!("cluster connect failed: {e}");
            std::process::exit(1);
        });

    let mut config = ThreadedRunConfig::new(cluster.n_workers(), max_evals, seed);
    config.eta = eta;
    config.telemetry = telemetry.clone();

    eprintln!(
        "running {} on {} | {} TCP workers | {max_evals} evals | seed {seed} | eta {eta}",
        kind.name(),
        bench.name(),
        worker_addrs.len(),
    );
    let start = std::time::Instant::now();
    let result = run_distributed(method.as_mut(), bench.space(), &levels, cluster, &config);
    telemetry.flush();
    eprintln!("finished in {:.2?} of wall time", start.elapsed());

    println!("method:       {}", result.method);
    println!("best value:   {:.6}", result.best_value);
    println!("best test:    {:.6}", result.best_test);
    if let Some(cfg) = &result.best_config {
        println!("best config:  {}", bench.space().describe(cfg));
    }
    println!(
        "evaluations:  {} {:?}",
        result.total_evals, result.evals_per_level
    );
    println!("orphaned:     {}", result.n_orphaned);
    println!("retries:      {}", result.n_retries);
    if let Some(opt) = bench.optimum() {
        println!("regret:       {:.6}", (result.best_value - opt).max(0.0));
    }
    if let Some(path) = &trace_path {
        println!("trace:        {path} (fold with `trace-report {path}`)");
    }
}

/// `hypertune serve`: the multi-tenant service driver (DESIGN.md §17).
fn serve_command(args: &[String]) {
    let mut pool = 4usize;
    let mut worker_addrs: Vec<String> = Vec::new();
    let mut state_dir: Option<String> = None;
    let mut script: Option<String> = None;
    let mut resume = false;
    let mut lease_secs = 10.0f64;
    let mut trace_path: Option<String> = None;
    let mut connect_timeout_ms: Option<u64> = None;
    let mut connect_retries = 0u32;
    let mut redial_attempts = 0u32;
    let mut redial_backoff_ms = 100u64;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    usage()
                })
                .clone()
        };
        match flag.as_str() {
            "--pool" => pool = value("--pool").parse().unwrap_or_else(|_| usage()),
            "--workers" => {
                worker_addrs = value("--workers")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--state-dir" => state_dir = Some(value("--state-dir")),
            "--script" => script = Some(value("--script")),
            "--resume" => resume = true,
            "--lease-secs" => {
                lease_secs = value("--lease-secs").parse().unwrap_or_else(|_| usage())
            }
            "--connect-timeout-ms" => {
                connect_timeout_ms = Some(
                    value("--connect-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--connect-retries" => {
                connect_retries = value("--connect-retries")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--redial-attempts" => {
                redial_attempts = value("--redial-attempts")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--redial-backoff-ms" => {
                redial_backoff_ms = value("--redial-backoff-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--trace" => trace_path = Some(value("--trace")),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    let telemetry = match &trace_path {
        Some(path) => {
            let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create trace file {path}: {e}");
                std::process::exit(1);
            });
            Telemetry::new().with_sink(sink).build()
        }
        None => TelemetryHandle::disabled(),
    };
    let mut config = ServiceConfig::new().with_telemetry(telemetry.clone());
    if let Some(dir) = &state_dir {
        config = config.with_state_dir(dir);
    }
    let resolver: hypertune::service::BenchResolver = std::sync::Arc::new(registry::make_bench);

    if worker_addrs.is_empty() {
        eprintln!("serving on an in-process pool of {pool} workers");
        let executor: ThreadPool<ServiceJob, Eval> =
            ThreadPool::new(pool, pool_eval(resolver.clone()));
        serve_with(executor, resolver, config, script, resume, telemetry);
    } else {
        eprintln!(
            "serving on {} TCP worker(s): {}",
            worker_addrs.len(),
            worker_addrs.join(", ")
        );
        let hello = json!({ "multi_study": true });
        let opts = TcpClusterOptions {
            lease_timeout: std::time::Duration::from_secs_f64(lease_secs),
            reconnect: reconnect_policy(redial_attempts, redial_backoff_ms, 0),
            connect_timeout: connect_timeout_ms.map(std::time::Duration::from_millis),
            connect_retries,
        };
        let cluster: TcpCluster<ServiceJob, Eval> = TcpCluster::connect(&worker_addrs, hello, opts)
            .unwrap_or_else(|e| {
                eprintln!("cluster connect failed: {e}");
                std::process::exit(1);
            });
        serve_with(cluster, resolver, config, script, resume, telemetry);
    }
}

/// Drives one service instance over any executor substrate: recover,
/// run the JSONL script (or drain, when no script is given), print the
/// per-study summary.
fn serve_with<E: Executor<ServiceJob, Eval>>(
    executor: E,
    resolver: hypertune::service::BenchResolver,
    config: ServiceConfig,
    script: Option<String>,
    resume: bool,
    telemetry: TelemetryHandle,
) {
    let mut svc = TuningService::new(executor, resolver, config).unwrap_or_else(|e| {
        eprintln!("service start failed: {e}");
        std::process::exit(1);
    });
    if resume {
        let recovered = svc.recover().unwrap_or_else(|e| {
            eprintln!("recovery failed: {e}");
            std::process::exit(1);
        });
        for h in &recovered {
            println!(
                "recovered study {} status={:?}",
                h.id(),
                svc.status(*h).expect("just recovered")
            );
        }
    }
    match script {
        Some(path) => run_script(&mut svc, &path),
        // No script: finish whatever is live (typically recovered
        // studies after a restart).
        None => svc.drain().unwrap_or_else(|e| {
            eprintln!("drain failed: {e}");
            std::process::exit(1);
        }),
    }
    print_service_summary(&svc);
    telemetry.flush();
}

/// Executes a JSONL command script against a live service; see the
/// module docs for the command set.
fn run_script<E: Executor<ServiceJob, Eval>>(svc: &mut TuningService<E>, path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read script {path}: {e}");
        std::process::exit(1);
    });
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fail = |msg: String| -> ! {
            eprintln!("script {path}:{}: {msg}", i + 1);
            std::process::exit(1);
        };
        let v: serde::Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => fail(format!("bad JSON: {e}")),
        };
        match v["cmd"].as_str() {
            Some("create") => {
                let name = v["name"].as_str().unwrap_or("study").to_string();
                let bench = v["bench"].as_str().unwrap_or("counting-ones-small");
                let method = lookup_method(v["method"].as_str().unwrap_or("hyper-tune"));
                let mut spec = StudySpec::new(name.clone(), bench, method);
                if let Some(s) = v["seed"].as_u64() {
                    spec.seed = s;
                }
                if let Some(n) = v["max_evals"].as_u64() {
                    spec.max_evals = n as usize;
                }
                if let Some(n) = v["eta"].as_u64() {
                    spec.eta = n as usize;
                }
                if let Some(w) = v["weight"].as_u64() {
                    spec.weight = w;
                }
                if let Some(n) = v["max_in_flight"].as_u64() {
                    spec.max_in_flight = n as usize;
                }
                match svc.create_study(spec) {
                    Ok(h) => println!("created study {} ({name})", h.id()),
                    Err(e) => fail(format!("create failed: {e}")),
                }
            }
            Some("stop") => {
                let id = v["study"]
                    .as_u64()
                    .unwrap_or_else(|| fail("stop needs a `study` id".to_string()));
                match svc.stop_study(StudyHandle::from_id(id)) {
                    Ok(true) => println!("stopped study {id}"),
                    Ok(false) => println!("study {id} was not running"),
                    Err(e) => fail(format!("stop failed: {e}")),
                }
            }
            Some("run") => {
                let n = v["completions"].as_u64().unwrap_or(1) as usize;
                match svc.run_completions(n) {
                    Ok(done) => println!("processed {done} completions"),
                    Err(e) => fail(format!("run failed: {e}")),
                }
            }
            Some("drain") => match svc.drain() {
                Ok(()) => println!("drained"),
                Err(e) => fail(format!("drain failed: {e}")),
            },
            Some("status") => print_service_summary(svc),
            Some(other) => fail(format!("unknown command {other:?}")),
            None => fail("missing `cmd` field".to_string()),
        }
    }
}

/// Per-study summary lines, stable enough for scripts to grep.
fn print_service_summary<E: Executor<ServiceJob, Eval>>(svc: &TuningService<E>) {
    let stats = svc.stats();
    for s in &stats.studies {
        let best = s
            .best
            .map(|b| format!("{b:.6}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "study {} ({}): status={:?} method={} completed={} quarantined={} best={} generation={}",
            s.id, s.name, s.status, s.method, s.completed, s.quarantined, best, s.generation
        );
    }
    let p99 = stats
        .suggest_p99_secs
        .map(|s| format!("{:.3}ms", s * 1e3))
        .unwrap_or_else(|| "-".to_string());
    println!(
        "service: {} studies, {} completed trials, p99 suggest {p99}",
        stats.studies.len(),
        stats.total_completed
    );
}
