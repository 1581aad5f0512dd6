//! Experiment harness reproducing every table and figure of the
//! Hyper-Tune paper.
//!
//! The `experiments` binary runs them all from one table of specs (see
//! `DESIGN.md`'s per-experiment index); this library holds the shared
//! machinery: repeated seeded runs, curve aggregation onto a common time
//! grid, speedup computation, and plain-text table/series rendering.
//!
//! Experiments default to a scaled-down but shape-preserving setup
//! (three repetitions, Fig. 9's smaller clusters) so every figure
//! regenerates in seconds to minutes. The [`Scale`] a run uses is passed
//! in by its binary; this library reads no environment.

pub mod aggregate;
pub mod analysis;
pub mod plot;
pub mod report;

use hypertune::prelude::*;

/// How far an experiment is scaled down from the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Paper scale: ten repetitions and Fig. 9's largest clusters.
    pub full: bool,
    /// Paper budgets are divided by this; at least 1.
    pub budget_div: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            full: false,
            budget_div: 1.0,
        }
    }
}

impl Scale {
    /// A paper budget of `hours`, in virtual seconds at this scale.
    pub fn budget(&self, hours: f64) -> f64 {
        hours * 3600.0 / self.budget_div
    }

    /// Parses a budget divisor: a finite number of at least 1.
    pub fn parse_div(s: &str) -> Option<f64> {
        s.parse::<f64>().ok().filter(|d| d.is_finite() && *d >= 1.0)
    }
}

/// Number of repetitions (seeds) per method: 3 by default, 10 (the
/// paper's count) at full scale.
pub fn n_repeats(scale: Scale) -> u64 {
    if scale.full {
        10
    } else {
        3
    }
}

/// The seed of each repetition: `base + rep × stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Seed of repetition 0.
    pub base: u64,
    /// Step between repetitions.
    pub stride: u64,
}

impl Seeds {
    /// [`evaluate_method`]'s rule for a run config seeded `seed`:
    /// `seed + 1 + rep × 1000`.
    pub const fn standard(seed: u64) -> Self {
        Self {
            base: seed + 1,
            stride: 1000,
        }
    }
}

/// One method's aggregated results over repeated runs.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    /// Method display name.
    pub name: String,
    /// Mean anytime value on the evaluation grid.
    pub curve_mean: Vec<f64>,
    /// Std of the anytime value on the grid.
    pub curve_std: Vec<f64>,
    /// The shared time grid.
    pub grid: Vec<f64>,
    /// Final validation values per run.
    pub final_values: Vec<f64>,
    /// Final test values per run.
    pub final_tests: Vec<f64>,
    /// Mean utilization across runs.
    pub utilization: f64,
    /// Mean number of evaluations.
    pub mean_evals: f64,
    /// The individual runs (for speedup analysis).
    pub runs: Vec<RunResult>,
}

impl MethodSummary {
    /// Mean of the final validation values.
    pub fn mean_final(&self) -> f64 {
        mean(&self.final_values)
    }

    /// Std of the final validation values.
    pub fn std_final(&self) -> f64 {
        std(&self.final_values)
    }

    /// Mean of the final test values.
    pub fn mean_test(&self) -> f64 {
        mean(&self.final_tests)
    }

    /// Std of the final test values.
    pub fn std_test(&self) -> f64 {
        std(&self.final_tests)
    }

    /// Mean earliest time to reach `target` across runs that reach it;
    /// `None` when no run does.
    pub fn mean_time_to(&self, target: f64) -> Option<f64> {
        let times: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.time_to_reach(target))
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(mean(&times))
        }
    }
}

/// Runs `kind` `n_repeats(scale)` times on `bench` with seeds
/// [`Seeds::standard`] of `base_config.seed`, and aggregates; `grid_n`
/// points are used for curve interpolation.
pub fn evaluate_method(
    kind: MethodKind,
    bench: &dyn Benchmark,
    base_config: &RunConfig,
    grid_n: usize,
    scale: Scale,
) -> MethodSummary {
    let build = |levels: &ResourceLevels, seed| kind.build(levels, seed);
    let seeds = Seeds::standard(base_config.seed);
    evaluate(
        kind.name(),
        &build,
        bench,
        base_config,
        seeds,
        scale,
        grid_n,
    )
}

/// Runs the method `build` makes on `bench` under `config`, once per
/// repetition of `scale` with its seed from `seeds`, and aggregates the
/// runs under `name`.
pub fn evaluate(
    name: &str,
    build: &dyn Fn(&ResourceLevels, u64) -> Box<dyn Method>,
    bench: &dyn Benchmark,
    config: &RunConfig,
    seeds: Seeds,
    scale: Scale,
    grid_n: usize,
) -> MethodSummary {
    let runs = (0..n_repeats(scale))
        .map(|rep| {
            let mut config = config.clone();
            config.seed = seeds.base + rep * seeds.stride;
            let levels = ResourceLevels::new(bench.max_resource(), config.eta);
            let mut method = build(&levels, config.seed);
            run(method.as_mut(), bench, &config)
        })
        .collect();
    summarize(name, runs, config.budget, grid_n)
}

/// Aggregates already-collected runs onto a shared grid.
pub fn summarize(name: &str, runs: Vec<RunResult>, budget: f64, grid_n: usize) -> MethodSummary {
    let grid: Vec<f64> = (1..=grid_n)
        .map(|i| budget * i as f64 / grid_n as f64)
        .collect();
    let per_run: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| aggregate::interp_curve(&r.curve, &grid))
        .collect();
    let mut curve_mean = Vec::with_capacity(grid.len());
    let mut curve_std = Vec::with_capacity(grid.len());
    for g in 0..grid.len() {
        let vals: Vec<f64> = per_run
            .iter()
            .filter_map(|c| {
                let v = c[g];
                v.is_finite().then_some(v)
            })
            .collect();
        if vals.is_empty() {
            curve_mean.push(f64::NAN);
            curve_std.push(f64::NAN);
        } else {
            curve_mean.push(mean(&vals));
            curve_std.push(std(&vals));
        }
    }
    MethodSummary {
        name: name.to_string(),
        curve_mean,
        curve_std,
        grid,
        final_values: runs.iter().map(|r| r.best_value).collect(),
        final_tests: runs.iter().map(|r| r.best_test).collect(),
        utilization: mean(&runs.iter().map(|r| r.utilization).collect::<Vec<_>>()),
        mean_evals: mean(
            &runs
                .iter()
                .map(|r| r.total_evals as f64)
                .collect::<Vec<_>>(),
        ),
        runs,
    }
}

/// Speedup of `fast` over `slow` to reach `slow`'s final mean value —
/// the paper's §5.2 metric ("X× speedup against BOHB").
pub fn speedup(fast: &MethodSummary, slow: &MethodSummary) -> Option<f64> {
    let target = slow.mean_final();
    let t_fast = fast.mean_time_to(target)?;
    let t_slow = slow.mean_time_to(target)?;
    (t_fast > 0.0).then(|| t_slow / t_fast)
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 for < 2 elements).
pub fn std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((std(&[1.0, 3.0]) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(std(&[5.0]), 0.0);
    }

    #[test]
    fn evaluate_method_aggregates_runs() {
        let bench = CountingOnes::new(3, 3, 0);
        let config = RunConfig::new(4, 800.0, 0);
        let s = evaluate_method(MethodKind::ARandom, &bench, &config, 10, Scale::default());
        assert_eq!(s.runs.len(), 3);
        assert_eq!(s.grid.len(), 10);
        assert_eq!(s.curve_mean.len(), 10);
        assert!(s.mean_final() <= 0.0);
        assert!(s.mean_evals > 0.0);
    }

    #[test]
    fn speedup_of_method_against_itself_is_about_one() {
        let bench = CountingOnes::new(3, 3, 0);
        let config = RunConfig::new(4, 800.0, 0);
        let s = evaluate_method(MethodKind::ARandom, &bench, &config, 10, Scale::default());
        let sp = speedup(&s, &s).unwrap();
        assert!((sp - 1.0).abs() < 1e-9);
    }
}
