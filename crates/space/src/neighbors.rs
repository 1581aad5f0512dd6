//! Neighbourhood generation for local acquisition search and evolutionary
//! baselines.
//!
//! Bayesian-optimization acquisition maximization in Hyper-Tune follows the
//! SMAC recipe: start from the best observed configurations and hill-climb
//! through small perturbations. Regularized evolution (the REA baseline)
//! needs single-parameter mutations. Both come from this module.
//!
//! A [`Config`] is immutable and shared, so a neighbour is a new config:
//! each one is collected straight into its own single allocation, and
//! the parent it was derived from is never touched.

use rand::Rng;

use crate::{Config, ConfigSpace, ParamKind, ParamValue};

/// Standard deviation (in unit-cube coordinates) of numeric perturbations,
/// matching SMAC's local-search neighbourhood width.
pub const NUMERIC_NEIGHBOR_STD: f64 = 0.2;

/// Returns a configuration identical to `config` except for one uniformly
/// chosen parameter, which is resampled in its neighbourhood:
/// numeric parameters receive a truncated Gaussian step in unit space,
/// categoricals draw a different choice uniformly.
pub fn mutate_one<R: Rng + ?Sized>(space: &ConfigSpace, config: &Config, rng: &mut R) -> Config {
    debug_assert_eq!(config.len(), space.len());
    if space.is_empty() {
        return config.clone();
    }
    let dim = rng.gen_range(0..space.len());
    let next = perturb(space, config, dim, rng);
    config
        .values()
        .iter()
        .enumerate()
        .map(|(i, v)| if i == dim { next } else { *v })
        .collect()
}

/// Generates `n` neighbours of `config`, each differing in exactly one
/// parameter.
pub fn neighbors<R: Rng + ?Sized>(
    space: &ConfigSpace,
    config: &Config,
    n: usize,
    rng: &mut R,
) -> Vec<Config> {
    (0..n).map(|_| mutate_one(space, config, rng)).collect()
}

/// Perturbs the value at `dim` of `config` without copying the rest.
fn perturb<R: Rng + ?Sized>(
    space: &ConfigSpace,
    config: &Config,
    dim: usize,
    rng: &mut R,
) -> ParamValue {
    let def = &space.params()[dim];
    let current = &config.values()[dim];
    match &def.kind {
        ParamKind::Float { .. } | ParamKind::Int { .. } | ParamKind::Ordinal { .. } => {
            let u = def.to_unit(current).expect("config belongs to space");
            // Truncated Gaussian: redraw until inside [0, 1]; falls back to
            // clamping after a few rejections to stay O(1).
            let mut next = f64::NAN;
            for _ in 0..8 {
                let cand = u + NUMERIC_NEIGHBOR_STD * gaussian(rng);
                if (0.0..=1.0).contains(&cand) {
                    next = cand;
                    break;
                }
            }
            if next.is_nan() {
                next = (u + NUMERIC_NEIGHBOR_STD * gaussian(rng)).clamp(0.0, 1.0);
            }
            def.from_unit(next)
        }
        ParamKind::Categorical { choices } => {
            if choices.len() == 1 {
                return *current;
            }
            let cur = current.as_cat().expect("config belongs to space");
            // Uniform over the other choices.
            let mut idx = rng.gen_range(0..choices.len() - 1);
            if idx >= cur {
                idx += 1;
            }
            ParamValue::Cat(idx)
        }
    }
}

/// One standard-normal draw via Box–Muller; avoids a distribution-crate
/// dependency for this single use.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Uniform crossover between two parents: each parameter is taken from
/// either parent with probability 1/2. Used by evolutionary baselines.
pub fn crossover<R: Rng + ?Sized>(a: &Config, b: &Config, rng: &mut R) -> Config {
    debug_assert_eq!(a.len(), b.len());
    a.values()
        .iter()
        .zip(b.values())
        .map(|(va, vb)| if rng.gen::<bool>() { *va } else { *vb })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        ConfigSpace::builder()
            .float("x", 0.0, 1.0)
            .int("n", 0, 100)
            .categorical("c", &["a", "b", "c", "d"])
            .build()
    }

    #[test]
    fn mutate_changes_at_most_one_dim() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        let base = s.sample(&mut rng);
        for _ in 0..100 {
            let m = mutate_one(&s, &base, &mut rng);
            let ndiff = base
                .values()
                .iter()
                .zip(m.values())
                .filter(|(a, b)| a != b)
                .count();
            assert!(ndiff <= 1, "mutation touched {ndiff} dims");
            s.check(&m).unwrap();
        }
    }

    #[test]
    fn categorical_mutation_never_repeats_current() {
        let s = ConfigSpace::builder()
            .categorical("c", &["a", "b", "c"])
            .build();
        let mut rng = StdRng::seed_from_u64(2);
        let base = Config::new(vec![ParamValue::Cat(1)]);
        for _ in 0..200 {
            let m = mutate_one(&s, &base, &mut rng);
            assert_ne!(m.values()[0].as_cat().unwrap(), 1);
        }
    }

    #[test]
    fn single_choice_categorical_is_fixed_point() {
        let s = ConfigSpace::builder().categorical("c", &["only"]).build();
        let mut rng = StdRng::seed_from_u64(3);
        let base = Config::new(vec![ParamValue::Cat(0)]);
        assert_eq!(mutate_one(&s, &base, &mut rng), base);
    }

    #[test]
    fn neighbors_stay_valid_and_close() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(4);
        let base = s.decode(&[0.5, 0.5, 0.5]).unwrap();
        let ns = neighbors(&s, &base, 50, &mut rng);
        assert_eq!(ns.len(), 50);
        for n in &ns {
            s.check(n).unwrap();
        }
        // Numeric steps should usually stay within a few neighbourhood stds.
        let close = ns
            .iter()
            .filter(|n| {
                let x = s.encode(n);
                (x[0] - 0.5).abs() < 3.0 * NUMERIC_NEIGHBOR_STD
            })
            .count();
        assert!(close > 45);
    }

    #[test]
    fn crossover_takes_genes_from_both() {
        let s = space();
        let a = s.decode(&[0.0, 0.0, 0.1]).unwrap();
        let b = s.decode(&[1.0, 1.0, 0.9]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut saw_a = false;
        let mut saw_b = false;
        for _ in 0..50 {
            let child = crossover(&a, &b, &mut rng);
            for (i, v) in child.values().iter().enumerate() {
                if v == &a.values()[i] {
                    saw_a = true;
                }
                if v == &b.values()[i] {
                    saw_b = true;
                }
            }
        }
        assert!(saw_a && saw_b);
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
