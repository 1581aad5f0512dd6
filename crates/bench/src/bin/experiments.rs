//! Every table and figure of the Hyper-Tune paper, from one table of
//! experiment specs ([`spec::EXPERIMENTS`]).
//!
//! ```text
//! experiments [--only NAME] [--full] [--budget-div D]
//! ```
//!
//! Without `--only`, every experiment runs, in table order, in one
//! process. `--full` runs the paper's ten repetitions and Fig. 9's
//! 256/64-worker maxima; `--budget-div D` divides every paper budget by
//! `D`, a finite number of at least 1. An unknown flag or name, or a bad
//! divisor, prints the usage and exits with status 2. JSON series land
//! in `results/` under the current directory.
//!
//! Most experiments are panels: a benchmark by its constructor, the arms
//! run on it, the budget, workers, grid and seed rule, and what to print.
//! Table 1's geometry walk, Fig. 4's Gantt chart and Tables 2 and 3 do
//! not fit that shape; each is a small function.

use std::path::Path;

use hypertune::core::methods::{AsyncHb, BracketPolicy};
use hypertune::core::sampler::{BoSampler, RandomSampler, Sampler};
use hypertune::prelude::*;
use hypertune_bench::{
    evaluate, evaluate_method, mean, plot, report, speedup, std, MethodSummary, Scale, Seeds,
};
use MethodKind::*;

/// A benchmark, by its constructor; experiments build it with seed 0.
#[derive(Clone, Copy)]
enum Bench {
    Nas(fn(u64) -> TabularNasBench),
    Synthetic(fn(u64) -> SyntheticBenchmark),
    /// `CountingOnes::new(n_cat, n_cont, _)`.
    CountingOnes(usize, usize),
}

impl Bench {
    fn build(self) -> Box<dyn Benchmark> {
        match self {
            Bench::Nas(make) => Box::new(make(0)),
            Bench::Synthetic(make) => Box::new(make(0)),
            Bench::CountingOnes(n_cat, n_cont) => Box::new(CountingOnes::new(n_cat, n_cont, 0)),
        }
    }
}

/// A method, and the name it is reported under.
#[derive(Clone, Copy)]
enum Arm {
    /// A method kind, under its paper name.
    Kind(MethodKind),
    /// A method kind, under another name.
    Named(&'static str, MethodKind),
    /// A method no kind names, built from the level ladder and the seed.
    Custom(&'static str, fn(&ResourceLevels, u64) -> Box<dyn Method>),
    /// Hyper-Tune on a ladder with discard proportion η.
    Eta(usize),
    /// Hyper-Tune on the first count of workers, or the second at full scale.
    Workers(usize, usize),
}

/// One step of what a panel prints, in order.
#[derive(Clone, Copy)]
enum Out {
    /// The anytime series under the title.
    Series,
    /// An ASCII chart of the mean curves, this many rows high.
    Chart(usize),
    /// The converged values under a heading, in a metric.
    Table(&'static str, &'static str),
    /// A `--- title ---` rule, then each arm's converged mean ± std.
    Rows,
    /// The table's optimum, and how many Hyper-Tune runs reached it.
    Optimum,
    /// §5.2: Hyper-Tune's speedup over BOHB and A-BOHB.
    Speedups,
    /// The arm with the best mean converged value.
    Best,
    /// The last arm's speedup over the first (Fig. 9).
    Scaling,
    /// Where the JSON series went.
    Written,
}

/// A benchmark, the arms run on it, and what is printed about them.
struct Panel {
    /// JSON title; `{label}` in the title and table heading.
    label: &'static str,
    /// `{h}` is the scaled budget in hours.
    title: &'static str,
    bench: Bench,
    arms: &'static [Arm],
    /// Paper budget, before `--budget-div`.
    hours: f64,
    workers: usize,
    /// Points of the time grid the curves are sampled on.
    grid: usize,
    seeds: Seeds,
    out: &'static [Out],
    /// File under `results/`, if the panel writes one.
    json: Option<&'static str>,
}

/// An experiment: panels under a header and above a footer, or a
/// function of its own.
enum Body {
    Panels(&'static str, &'static [Panel], &'static str),
    Custom(fn(Scale)),
}

/// The spec table, laid out by hand as a table.
#[rustfmt::skip]
mod spec {
    use super::*;
    use Arm::{Custom, Kind, Named, Workers};
    use Bench::{Nas, Synthetic};
    use Out::*;

    const FIG5_ARMS: &[Arm] = &[Kind(ARandom), Kind(ARea), Kind(Hyperband), Kind(AHyperband), Kind(Bohb), Kind(ABohb),
        Kind(MfesHb), Kind(HyperTune)];
    const FIG6_ARMS: &[Arm] = &[Kind(ARandom), Kind(BatchBo), Kind(ABo), Kind(Sha), Kind(Asha), Kind(Hyperband),
        Kind(AHyperband), Kind(Bohb), Kind(ABohb), Kind(MfesHb), Kind(HyperTune)];
    const FIG7_ARMS: &[Arm] = &[Kind(Sha), Kind(Asha), Kind(Hyperband), Kind(AHyperband), Kind(Bohb), Kind(ABohb),
        Kind(MfesHb), Kind(HyperTune)];
    const BS_ARMS: &[Arm] = &[Kind(AHyperband), Kind(AHyperbandBs), Kind(ABohb), Kind(ABohbBs), Kind(HyperTuneNoBs),
        Kind(HyperTune)];
    const DASHA_ARMS: &[Arm] = &[Kind(Asha), Kind(AshaDasha), Kind(AHyperband), Kind(AHyperbandDasha), Kind(ABohb),
        Kind(ABohbDasha), Kind(HyperTuneNoDasha), Kind(HyperTune)];
    /// The sampler family under Hyper-Tune's scheduling (bracket selection
    /// and D-ASHA): TPE, RF-EI and MFES are Hyper-Tune with that sampler.
    const SAMPLER_ARMS: &[Arm] = &[Custom("random", d_asha_bs_random), Named("TPE", HyperTuneTpe),
        Named("RF-EI", HyperTuneNoMfes), Named("MFES", HyperTune)];

    const FIG5_TITLE: &str = "{label} (budget {h} h, 8 workers)";
    const FIG5_OUT: &[Out] = &[Series, Chart(14), Table("{label}: converged", "err"), Optimum, Speedups, Written];
    const FIG6_TITLE: &str = "{label} (budget {h} h, 8 workers, subset fidelity)";
    const FIG6_OUT: &[Out] = &[Series, Chart(14), Table("{label}: converged validation error", "err"), Best, Written];
    const FIG8_OUT: &[Out] = &[Series, Chart(12), Table("{label}: converged", "err")];
    const fn step(base: u64, stride: u64) -> Seeds { Seeds { base, stride } }

    /// Every experiment, by its `--only` name, in the order a full run takes.
    pub static EXPERIMENTS: &[(&str, Body)] = &[
        ("table1", Body::Custom(table1)),
        ("fig4_trace", Body::Custom(fig4_trace)),
        ("fig5_nasbench", Body::Panels("Figure 5: NAS-Bench-201 architecture search", &[
            Panel { label: "CIFAR-10-Valid", bench: Nas(tasks::nas_cifar10_valid), hours: 24.0, json: Some("fig5_cifar_10_valid.json"),
                    title: FIG5_TITLE, arms: FIG5_ARMS, workers: 8, grid: 12, seeds: Seeds::standard(100), out: FIG5_OUT },
            Panel { label: "CIFAR-100", bench: Nas(tasks::nas_cifar100), hours: 48.0, json: Some("fig5_cifar_100.json"),
                    title: FIG5_TITLE, arms: FIG5_ARMS, workers: 8, grid: 12, seeds: Seeds::standard(100), out: FIG5_OUT },
            Panel { label: "ImageNet16-120", bench: Nas(tasks::nas_imagenet16), hours: 120.0, json: Some("fig5_imagenet16_120.json"),
                    title: FIG5_TITLE, arms: FIG5_ARMS, workers: 8, grid: 12, seeds: Seeds::standard(100), out: FIG5_OUT },
        ], "")),
        ("fig6_xgboost", Body::Panels("Figure 6: XGBoost on four large datasets", &[
            Panel { label: "Pokerhand", bench: Synthetic(tasks::xgboost_pokerhand), hours: 2.0, json: Some("fig6_pokerhand.json"),
                    title: FIG6_TITLE, arms: FIG6_ARMS, workers: 8, grid: 10, seeds: Seeds::standard(200), out: FIG6_OUT },
            Panel { label: "Covertype", bench: Synthetic(tasks::xgboost_covertype), hours: 3.0, json: Some("fig6_covertype.json"),
                    title: FIG6_TITLE, arms: FIG6_ARMS, workers: 8, grid: 10, seeds: Seeds::standard(200), out: FIG6_OUT },
            Panel { label: "Hepmass", bench: Synthetic(tasks::xgboost_hepmass), hours: 6.0, json: Some("fig6_hepmass.json"),
                    title: FIG6_TITLE, arms: FIG6_ARMS, workers: 8, grid: 10, seeds: Seeds::standard(200), out: FIG6_OUT },
            Panel { label: "Higgs", bench: Synthetic(tasks::xgboost_higgs), hours: 6.0, json: Some("fig6_higgs.json"),
                    title: FIG6_TITLE, arms: FIG6_ARMS, workers: 8, grid: 10, seeds: Seeds::standard(200), out: FIG6_OUT },
        ], "")),
        ("fig7_nn", Body::Panels("Figure 7: LSTM on Penn Treebank and ResNet on CIFAR-10", &[
            Panel { label: "LSTM-PTB", bench: Synthetic(tasks::lstm_ptb), hours: 48.0, json: Some("fig7_lstm.json"),
                    title: "(a) LSTM on Penn Treebank, perplexity (budget {h} h, 4 workers)",
                    out: &[Series, Chart(14), Table("(a) LSTM: converged perplexity", "ppl")],
                    arms: FIG7_ARMS, workers: 4, grid: 10, seeds: Seeds::standard(300) },
            Panel { label: "ResNet-CIFAR10", bench: Synthetic(tasks::resnet_cifar10), hours: 48.0, json: Some("fig7_resnet.json"),
                    title: "(b) ResNet on CIFAR-10, val error (budget {h} h, 4 workers)",
                    out: &[Series, Chart(14), Table("(b) ResNet: converged error", "err")],
                    arms: FIG7_ARMS, workers: 4, grid: 10, seeds: Seeds::standard(400) },
        ], "\nseries written to results/fig7_lstm.json and results/fig7_resnet.json")),
        ("table2", Body::Custom(table2)),
        ("fig8_ablation", Body::Panels("Figure 8: component ablations", &[
            Panel { label: "(a) bracket selection on NAS CIFAR-100", bench: Nas(tasks::nas_cifar100), hours: 48.0,
                    arms: BS_ARMS, seeds: Seeds::standard(800), json: Some("fig8_a_bs_nas.json"),
                    title: "{label}", workers: 8, grid: 10, out: FIG8_OUT },
            Panel { label: "(b) bracket selection on XGBoost Covertype", bench: Synthetic(tasks::xgboost_covertype), hours: 3.0,
                    arms: BS_ARMS, seeds: Seeds::standard(810), json: Some("fig8_b_bs_covertype.json"),
                    title: "{label}", workers: 8, grid: 10, out: FIG8_OUT },
            Panel { label: "(c) D-ASHA on NAS CIFAR-100", bench: Nas(tasks::nas_cifar100), hours: 48.0,
                    arms: DASHA_ARMS, seeds: Seeds::standard(820), json: Some("fig8_c_dasha_nas.json"),
                    title: "{label}", workers: 8, grid: 10, out: FIG8_OUT },
            Panel { label: "(d) D-ASHA on XGBoost Covertype", bench: Synthetic(tasks::xgboost_covertype), hours: 3.0,
                    arms: DASHA_ARMS, seeds: Seeds::standard(830), json: Some("fig8_d_dasha_covertype.json"),
                    title: "{label}", workers: 8, grid: 10, out: FIG8_OUT },
        ], "\nseries written to results/fig8_*.json")),
        // Counting-ones evaluations take 1–27 virtual seconds, so 0.125 h
        // already gives thousands of evaluations per run.
        ("fig9_scalability", Body::Panels("Figure 9: scalability with the number of workers", &[
            Panel { label: "(a) counting-ones (64-dim), Hyper-Tune", bench: Bench::CountingOnes(32, 32), hours: 0.125,
                    arms: &[Workers(1, 1), Workers(8, 16), Workers(32, 64), Workers(128, 256)], seeds: step(900, 1000),
                    json: Some("fig9_a_countingones.json"), title: "{label}", workers: 1, grid: 10, out: &[Series, Scaling] },
            Panel { label: "(b) XGBoost on Covertype, Hyper-Tune", bench: Synthetic(tasks::xgboost_covertype), hours: 1.5,
                    arms: &[Workers(1, 1), Workers(4, 4), Workers(16, 16), Workers(64, 64)], seeds: step(910, 1000),
                    json: Some("fig9_b_covertype.json"), title: "{label}", workers: 1, grid: 10, out: &[Series, Scaling] },
        ], "\nseries written to results/fig9_*.json")),
        ("table3_industrial", Body::Custom(table3_industrial)),
        ("ablations_extra", Body::Panels("Extra ablations: eta, sampler family, median imputation", &[
            Panel { title: "(1) eta sweep (Hyper-Tune, XGBoost Covertype)", bench: Synthetic(tasks::xgboost_covertype),
                    arms: &[Arm::Eta(2), Arm::Eta(3), Arm::Eta(4)], hours: 3.0, seeds: step(40, 1),
                    label: "", workers: 8, grid: 1, out: &[Rows], json: None },
            Panel { title: "(2) sampler family (same D-ASHA + BS scheduling, NAS CIFAR-100)", bench: Nas(tasks::nas_cifar100),
                    arms: SAMPLER_ARMS, hours: 6.0, seeds: step(50, 1),
                    label: "", workers: 8, grid: 1, out: &[Rows], json: None },
            Panel { title: "(3) Algorithm 2 median imputation (A-BO, 8 workers, Covertype)", bench: Synthetic(tasks::xgboost_covertype),
                    arms: &[Custom("imputation on :", imputing_bo::<true>), Custom("imputation off:", imputing_bo::<false>)],
                    hours: 3.0, seeds: step(60, 1), label: "", workers: 8, grid: 1, out: &[Rows], json: None },
        ], "\nexpected shape: eta = 3 competitive (the paper's default); MFES >=\n\
            RF-EI ≈ TPE > random; imputation on >= off (fewer duplicate proposals).")),
    ];

    /// Figure 2's CNN-on-MNIST-like workload.
    pub fn cnn_mnist() -> SyntheticBenchmark {
        let space = ConfigSpace::builder().float_log("lr", 1e-4, 1.0).float("momentum", 0.0, 0.99).int_log("batch", 16, 256);
        SyntheticSpec { name: "cnn-mnist".into(), space: space.build(), max_resource: 27.0, err_best: 0.006, err_worst: 0.15,
            err_init: 0.90, shape: 2.0, kappa: (3.0, 9.0), noise_full: 0.001, cost_per_unit: 30.0, cost_spread: 3.0,
            val_test_gap: 0.001, seed: 2 }.build()
    }

    /// Figure 4's case: costs that vary between configurations, and enough
    /// low-fidelity noise that ASHA promotes inaccurately and D-ASHA's
    /// delay pays off.
    pub fn fig4_case() -> SyntheticBenchmark {
        let space = ConfigSpace::builder().float("h1", 0.0, 1.0).float("h2", 0.0, 1.0);
        SyntheticSpec { name: "fig4-case".into(), space: space.build(), max_resource: 27.0, err_best: 0.05, err_worst: 0.55,
            err_init: 0.90, shape: 1.8, kappa: (1.5, 8.0), noise_full: 0.008, cost_per_unit: 15.0, cost_spread: 6.0,
            val_test_gap: 0.004, seed: 31 }.build()
    }

    /// A Table 2 column: name, benchmark, paper budget in hours, workers,
    /// the paper's unit, and whether the BO family sits this one out.
    pub type Column = (&'static str, Bench, f64, usize, fn(f64) -> f64, bool);

    pub const TABLE2: [Column; 6] = [
        ("Covertype",     Synthetic(tasks::xgboost_covertype), 3.0,  8, accuracy,   false),
        ("Pokerhand",     Synthetic(tasks::xgboost_pokerhand), 2.0,  8, accuracy,   false),
        ("Hepmass",       Synthetic(tasks::xgboost_hepmass),   6.0,  8, accuracy,   false),
        ("Higgs",         Synthetic(tasks::xgboost_higgs),     6.0,  8, accuracy,   false),
        ("CIFAR-10",      Synthetic(tasks::resnet_cifar10),    48.0, 4, accuracy,   true),
        ("Penn Treebank", Synthetic(tasks::lstm_ptb),          48.0, 4, perplexity, true),
    ];
}

fn usage() -> ! {
    let names: Vec<&str> = spec::EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: experiments [--only NAME] [--full] [--budget-div D]\n  NAME: {}\n  D: a finite number >= 1; paper budgets are divided by it",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::default();
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--full" => scale.full = true,
            "--budget-div" => {
                let div = args.next().and_then(|v| Scale::parse_div(&v));
                scale.budget_div = div.unwrap_or_else(|| usage());
            }
            "--only" => {
                let known = |v: &String| spec::EXPERIMENTS.iter().any(|(name, _)| name == v);
                only = Some(args.next().filter(known).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    for (name, body) in spec::EXPERIMENTS {
        match body {
            _ if only.as_ref().is_some_and(|only| only != name) => {}
            Body::Custom(run) => run(scale),
            Body::Panels(header, panels, footer) => {
                report::header(header, scale);
                for panel in *panels {
                    run_panel(panel, scale);
                }
                if !footer.is_empty() {
                    println!("{footer}");
                }
            }
        }
    }
}

fn run_panel(p: &Panel, scale: Scale) {
    let bench = p.bench.build();
    let summaries: Vec<MethodSummary> = (p.arms.iter())
        .map(|&arm| run_arm(arm, p, bench.as_ref(), scale))
        .collect();
    let hours = format!("{:.1}", scale.budget(p.hours) / 3600.0);
    let title = p.title.replace("{label}", p.label).replace("{h}", &hours);
    let path = p.json.map(|name| Path::new("results").join(name));
    if let Some(path) = &path {
        report::write_json(path, p.label, &summaries).expect("write results");
    }
    let arm = |name: &str| {
        summaries
            .iter()
            .find(|s| s.name == name)
            .expect("arm in panel")
    };
    for out in p.out {
        match *out {
            Out::Series => report::print_series(&title, &summaries, 3600.0, "h"),
            Out::Chart(height) => println!("{}", plot::ascii_chart(&summaries, 72, height)),
            Out::Table(heading, metric) => {
                report::print_final_table(&heading.replace("{label}", p.label), &summaries, metric)
            }
            Out::Rows => {
                println!("\n--- {title} ---");
                for s in &summaries {
                    println!("{:<8} {:.4} ± {:.4}", s.name, s.mean_final(), s.std_final());
                }
            }
            Out::Optimum => {
                let opt = bench
                    .optimum()
                    .expect("a tabular benchmark knows its optimum");
                println!("global optimum of the table: {opt:.4}");
                let finals = &arm("Hyper-Tune").final_values;
                let reached = finals.iter().filter(|&&v| v <= opt + 1e-6).count();
                let runs = finals.len();
                println!("Hyper-Tune reached the optimum in {reached}/{runs} runs");
            }
            Out::Speedups => {
                for baseline in ["BOHB", "A-BOHB"] {
                    match speedup(arm("Hyper-Tune"), arm(baseline)) {
                        Some(x) => println!("speedup vs {baseline}: {x:.1}x"),
                        None => println!("speedup vs {baseline}: n/a (target not reached)"),
                    }
                }
            }
            Out::Best => {
                let by_final = |a: &&MethodSummary, b: &&MethodSummary| {
                    a.mean_final().partial_cmp(&b.mean_final()).unwrap()
                };
                let best = summaries.iter().min_by(by_final).unwrap();
                println!("best converged method: {}", best.name);
            }
            Out::Scaling => {
                let (first, last) = (&summaries[0], &summaries[summaries.len() - 1]);
                match speedup(last, first) {
                    Some(x) => println!(
                        "\nspeedup of {} over sequential to reach {:.4}: {x:.1}x",
                        last.name,
                        first.mean_final()
                    ),
                    None => println!("\nspeedup: target not reached by both runs"),
                }
            }
            Out::Written => {
                let path = path.as_ref().expect("the panel writes JSON");
                println!("series written to {}", path.display());
            }
        }
    }
}

/// Runs one arm of `p`, once per repetition of `scale`.
fn run_arm(arm: Arm, p: &Panel, bench: &dyn Benchmark, scale: Scale) -> MethodSummary {
    let mut config = RunConfig::new(p.workers, scale.budget(p.hours), p.seeds.base);
    let (name, kind) = match arm {
        Arm::Kind(kind) => (kind.name().to_string(), kind),
        Arm::Named(name, kind) => (name.to_string(), kind),
        Arm::Custom(name, build) => {
            return evaluate(name, &build, bench, &config, p.seeds, scale, p.grid)
        }
        Arm::Eta(eta) => {
            config.eta = eta;
            let k = ResourceLevels::new(bench.max_resource(), eta).k();
            (format!("eta = {eta} ({k} levels):"), HyperTune)
        }
        Arm::Workers(quick, full) => {
            config.n_workers = if scale.full { full } else { quick };
            (format!("{} workers", config.n_workers), HyperTune)
        }
    };
    let build = |levels: &ResourceLevels, seed| kind.build(levels, seed);
    evaluate(&name, &build, bench, &config, p.seeds, scale, p.grid)
}

/// Hyper-Tune's scheduling (bracket selection and D-ASHA) with uniform
/// random proposals: the random arm of the sampler family.
fn d_asha_bs_random(levels: &ResourceLevels, seed: u64) -> Box<dyn Method> {
    let policy = BracketPolicy::learned(levels);
    let sampler = Box::new(RandomSampler);
    Box::new(AsyncHb::new(
        "D-ASHA+BS+random".into(),
        levels,
        policy,
        true,
        sampler,
        seed,
    ))
}

/// Asynchronous BO at full fidelity, one proposal per free worker, with
/// Algorithm 2's median imputation of pending configurations on or off.
fn imputing_bo<const IMPUTE: bool>(_: &ResourceLevels, seed: u64) -> Box<dyn Method> {
    let mut sampler = BoSampler::pure(seed);
    sampler.impute_pending = IMPUTE;
    Box::new(ImputationBo(sampler))
}

struct ImputationBo(BoSampler);

impl Method for ImputationBo {
    fn name(&self) -> &str {
        "A-BO (ablation)"
    }

    fn next_job(&mut self, ctx: &mut MethodContext<'_>) -> Option<JobSpec> {
        let level = ctx.levels.max_level();
        Some(JobSpec {
            config: self.0.sample(ctx),
            level,
            resource: ctx.levels.resource(level),
            bracket: None,
            id: 0,
        })
    }

    fn on_result(&mut self, _outcome: &Outcome, _ctx: &mut MethodContext<'_>) {}
}

/// Table 1 + Figure 2: the Hyperband bracket geometry for R = 27, η = 3,
/// and one SHA iteration walked on a concrete workload.
fn table1(_: Scale) {
    println!("=== Table 1: (n_i, r_i) per bracket, R = 27, eta = 3 ===\n");
    let levels = ResourceLevels::new(27.0, 3);
    let schedules: Vec<Vec<(usize, f64)>> = (0..levels.n_brackets())
        .map(|b| levels.bracket_schedule(b))
        .collect();

    print!("{:>3}", "i");
    for b in 0..schedules.len() {
        print!("  | Bracket-{} (n_i, r_i)", b + 1);
    }
    println!();
    let max_rungs = schedules.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_rungs {
        print!("{:>3}", i + 1);
        for sched in &schedules {
            match sched.get(i) {
                Some((n, r)) => print!("  | {:>12}", format!("({n}, {r:.0})")),
                None => print!("  | {:>12}", ""),
            }
        }
        println!();
    }

    println!("\n=== Figure 2: one SHA iteration (n1 = 27, r1 = 1) ===\n");
    // SHA's first bracket; 1 unit of resource = 8 epochs as in the
    // paper's caption.
    let bench = spec::cnn_mnist();
    let mut method = Sha.build(&levels, 0);
    let mut config = RunConfig::new(8, 1e9, 0);
    config.max_evals = 27 + 9 + 3 + 1; // exactly one SHA iteration
    let result = run(method.as_mut(), &bench, &config);
    for (level, &n) in result.evals_per_level.iter().enumerate() {
        println!(
            "level {level}: {n:>2} evaluations with r = {:>2.0} units ({:.0} epochs each)",
            levels.resource(level),
            levels.resource(level) * 8.0
        );
    }
    println!(
        "\nsurvivor after the iteration: val err {:.4} ({} total evaluations)",
        result.best_value, result.total_evals
    );
    assert_eq!(result.evals_per_level, vec![27, 9, 3, 1]);
    println!("\nschedule matches Figure 2: 27 -> 9 -> 3 -> 1.");
}

/// Figure 4 (and Figure 1's idle time): SHA, ASHA and D-ASHA on 3 workers
/// with heterogeneous costs, as ASCII Gantt charts, each with its
/// utilization and its inaccurate promotions.
fn fig4_trace(scale: Scale) {
    report::header(
        "Figure 4: scheduling mechanisms (SHA / ASHA / D-ASHA)",
        scale,
    );
    let bench = spec::fig4_case();
    let levels = ResourceLevels::new(bench.max_resource(), 3);
    let horizon = 5400.0;
    let mut config = RunConfig::new(3, horizon, 9);
    config.straggler = Some((0.2, 3.0));

    for kind in [Sha, Asha, AshaDasha] {
        let mut method = kind.build(&levels, 9);
        let result = run(method.as_mut(), &bench, &config);
        println!(
            "\n--- {} | utilization {:>3.0}% | {} evals | best {:.4} | inaccurate promotions {} ---",
            result.method,
            100.0 * result.utilization,
            result.total_evals,
            result.best_value,
            inaccurate_promotions(&bench, &result),
        );
        print!("{}", result.trace.render_ascii(horizon, 76));
    }
    println!("\ncells show the resource level (0-3) under evaluation; '.' = idle.");
    println!("SHA shows Figure 1's striped idle areas at every rung barrier;");
    println!("ASHA fills them but promotes eagerly; D-ASHA fills them while");
    println!("delaying promotions until each rung has eta x the next rung's data.");
}

/// Counts promoted evaluations (level > 0) whose configuration is *not*
/// in the true top 1/3 (by noise-free converged error) of all
/// configurations the run evaluated — the paper's notion of inaccurate
/// promotion (§4.2).
fn inaccurate_promotions(bench: &SyntheticBenchmark, result: &RunResult) -> usize {
    let configs: std::collections::HashSet<_> = result
        .measurements
        .iter()
        .map(|m| m.config.clone())
        .collect();
    let mut finals: Vec<f64> = configs.iter().map(|c| bench.final_error(c)).collect();
    finals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if finals.is_empty() {
        return 0;
    }
    let cutoff = finals[(finals.len() / 3).min(finals.len() - 1)];
    (result.measurements.iter())
        .filter(|m| m.level > 0 && bench.final_error(&m.config) > cutoff)
        .count()
}

fn accuracy(err: f64) -> f64 {
    100.0 * (1.0 - err)
}

fn perplexity(ppl: f64) -> f64 {
    ppl
}

/// Table 2: the test metric of the best found configuration on six
/// benchmarks, for the manual setting and eleven tuners, in the paper's
/// units; BO-family methods are not run on the neural-network tasks ('/').
fn table2(scale: Scale) {
    report::header("Table 2: test performance on six public benchmarks", scale);
    let methods = [
        BatchBo, Sha, Hyperband, Bohb, MfesHb, ARandom, ABo, Asha, AHyperband, ABohb, HyperTune,
    ];
    let mut rows: Vec<(&str, Vec<String>)> = std::iter::once("Manual")
        .chain(methods.iter().map(MethodKind::name))
        .map(|name| (name, Vec::new()))
        .collect();
    for (label, bench, hours, workers, to_unit, nn) in spec::TABLE2 {
        let bench = bench.build();
        let config = RunConfig::new(workers, scale.budget(hours), 500);
        let manual_cfg = tasks::manual_config(bench.space());
        let manual = bench
            .evaluate(&manual_cfg, bench.max_resource(), 0)
            .test_value;
        rows[0].1.push(format!("{:.2} ± 0.00", to_unit(manual)));
        for (row, kind) in rows[1..].iter_mut().zip(methods) {
            row.1
                .push(if nn && matches!(kind, BatchBo | ABo | ARandom) {
                    "/".to_string()
                } else {
                    let s = evaluate_method(kind, bench.as_ref(), &config, 4, scale);
                    let tests: Vec<f64> = s.final_tests.iter().map(|&t| to_unit(t)).collect();
                    format!("{:.2} ± {:.2}", mean(&tests), std(&tests))
                });
        }
        eprintln!("column {label} done");
    }

    print!("\n{:<24}", "Method");
    for (label, ..) in spec::TABLE2 {
        print!(" {label:>15}");
    }
    println!();
    for (name, cells) in &rows {
        print!("{name:<24}");
        for cell in cells {
            print!(" {cell:>15}");
        }
        println!();
    }
    println!("\n(accuracy % for the XGBoost and ResNet columns; perplexity for Penn Treebank;");
    println!(" '/' marks BO-family methods not run on the NN tasks, as in the paper)");
}

/// Table 3 (§5.6): AUC improvement over the manual setting on the
/// industrial recommendation task, and the ablation of Hyper-Tune's
/// three components.
fn table3_industrial(scale: Scale) {
    report::header("Table 3 / §5.6: industrial recommendation tuning", scale);
    let bench = tasks::industrial_recsys(0);
    let config = RunConfig::new(10, scale.budget(48.0), 600);
    let manual_cfg = tasks::manual_config(bench.space());
    let manual_auc = 1.0
        - bench
            .evaluate(&manual_cfg, bench.max_resource(), 0)
            .test_value;
    println!("\nmanual setting AUC: {:.4}\n", manual_auc);
    let auc = |kind| {
        let s = evaluate_method(kind, &bench, &config, 6, scale);
        mean(&s.final_tests.iter().map(|&v| 1.0 - v).collect::<Vec<_>>())
    };
    let improvement = |auc: f64| 100.0 * (auc - manual_auc);

    println!("--- baseline comparison (AUC improvement over manual, %) ---");
    println!("{:<24} {:>12} {:>14}", "method", "AUC", "improvement");
    for kind in [Asha, Bohb, ABohb, HyperTune] {
        let auc = auc(kind);
        println!(
            "{:<24} {auc:>12.4} {:>+13.2}%",
            kind.name(),
            improvement(auc)
        );
    }

    println!("\n--- Table 3: ablation on Hyper-Tune ---");
    println!("{:<24} {:>16} {:>8}", "method", "improvement (%)", "delta");
    let full = improvement(auc(HyperTune));
    for (label, kind) in [
        ("w/o BS", HyperTuneNoBs),
        ("w/o D-ASHA", HyperTuneNoDasha),
        ("w/o MFES", HyperTuneNoMfes),
    ] {
        let x = improvement(auc(kind));
        println!("{label:<24} {x:>+15.2}% {:>+7.2}", x - full);
    }
    println!("{:<24} {full:>+15.2}% {:>8}", "Hyper-Tune", "-");
    println!("\n(paper: w/o BS +0.54, w/o D-ASHA +0.75, w/o MFES +0.56, full +0.87)");
}
