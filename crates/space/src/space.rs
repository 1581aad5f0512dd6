use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::{Config, ParamDef, ParamKind, ParamValue, SpaceError};

/// An ordered collection of hyper-parameter definitions.
///
/// The space owns the canonical parameter order used by [`Config`] values
/// and by unit-cube encodings, and provides the operations every Hyper-Tune
/// component needs: sampling, encode/decode, validation, exhaustive
/// enumeration of finite spaces, and name lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    params: Vec<ParamDef>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl ConfigSpace {
    /// Starts building a space fluently.
    pub fn builder() -> ConfigSpaceBuilder {
        ConfigSpaceBuilder::default()
    }

    /// Creates a space from explicit definitions, validating every domain
    /// and rejecting duplicate names.
    pub fn new(params: Vec<ParamDef>) -> Result<Self, SpaceError> {
        let mut index = HashMap::with_capacity(params.len());
        for (i, p) in params.iter().enumerate() {
            p.kind.validate(&p.name)?;
            if index.insert(p.name.clone(), i).is_some() {
                return Err(SpaceError::DuplicateParam(p.name.clone()));
            }
        }
        Ok(Self { params, index })
    }

    /// Number of parameters (the dimensionality of encodings).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// `true` when the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The definitions in declaration order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Looks up a definition by name.
    pub fn param(&self, name: &str) -> Option<&ParamDef> {
        self.index.get(name).map(|&i| &self.params[i])
    }

    /// Declaration index of a named parameter.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Draws one uniform random configuration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Config {
        Config::new(self.params.iter().map(|p| p.sample(rng)).collect())
    }

    /// Draws `n` independent uniform random configurations.
    pub fn sample_n<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Config> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draws `n` configurations by Latin hypercube sampling: each dimension
    /// is stratified into `n` bins and the bin order is shuffled
    /// independently per dimension. Gives better space coverage than
    /// i.i.d. sampling for BO initial designs.
    pub fn sample_lhs<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Config> {
        if n == 0 {
            return Vec::new();
        }
        let d = self.len();
        // perms[j] is a shuffled assignment of strata to samples for dim j.
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(d);
        for _ in 0..d {
            let mut perm: Vec<usize> = (0..n).collect();
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            perms.push(perm);
        }
        (0..n)
            .map(|i| {
                let values = self
                    .params
                    .iter()
                    .enumerate()
                    .map(|(j, p)| {
                        let stratum = perms[j][i] as f64;
                        let u = (stratum + rng.gen::<f64>()) / n as f64;
                        p.from_unit(u)
                    })
                    .collect();
                Config::new(values)
            })
            .collect()
    }

    /// Encodes a configuration into the unit hypercube `[0, 1]^d`.
    ///
    /// # Panics
    ///
    /// Panics if the config does not belong to this space; use
    /// [`ConfigSpace::check`] first for untrusted inputs.
    pub fn encode(&self, config: &Config) -> Vec<f64> {
        self.try_encode(config)
            .expect("config does not belong to this space")
    }

    /// Fallible variant of [`ConfigSpace::encode`].
    pub fn try_encode(&self, config: &Config) -> Result<Vec<f64>, SpaceError> {
        let mut x = Vec::with_capacity(self.len());
        self.try_encode_into(config, &mut x)?;
        Ok(x)
    }

    /// Appends the encoding of `config` — [`ConfigSpace::len`] unit-cube
    /// coordinates — to `out`, so a caller encoding many configurations
    /// builds one flat row-major matrix instead of a `Vec` per row.
    ///
    /// Panics if the config does not belong to this space, like
    /// [`ConfigSpace::encode`].
    pub fn encode_into(&self, config: &Config, out: &mut Vec<f64>) {
        self.try_encode_into(config, out)
            .expect("config does not belong to this space")
    }

    /// Fallible variant of [`ConfigSpace::encode_into`]; `out` is left as
    /// it was on error.
    pub fn try_encode_into(&self, config: &Config, out: &mut Vec<f64>) -> Result<(), SpaceError> {
        if config.len() != self.len() {
            return Err(SpaceError::DimensionMismatch {
                expected: self.len(),
                actual: config.len(),
            });
        }
        let start = out.len();
        for (p, v) in self.params.iter().zip(config.values()) {
            match p.to_unit(v) {
                Ok(u) => out.push(u),
                Err(e) => {
                    out.truncate(start);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Decodes a unit-cube point into a configuration.
    pub fn decode(&self, x: &[f64]) -> Result<Config, SpaceError> {
        if x.len() != self.len() {
            return Err(SpaceError::DimensionMismatch {
                expected: self.len(),
                actual: x.len(),
            });
        }
        Ok(Config::new(
            self.params
                .iter()
                .zip(x)
                .map(|(p, &u)| p.from_unit(u))
                .collect(),
        ))
    }

    /// Validates that `config` is a well-typed, in-range assignment.
    pub fn check(&self, config: &Config) -> Result<(), SpaceError> {
        self.try_encode(config).map(|_| ())
    }

    /// Total number of distinct configurations, or `None` if any parameter
    /// is continuous. Saturates at `u64::MAX`.
    pub fn cardinality(&self) -> Option<u64> {
        self.params.iter().try_fold(1u64, |acc, p| {
            Some(acc.saturating_mul(p.kind.cardinality()?))
        })
    }

    /// Enumerates every configuration of a finite space in lexicographic
    /// order. Returns `None` when the space is continuous or larger than
    /// `limit`.
    pub fn enumerate(&self, limit: u64) -> Option<Vec<Config>> {
        let total = self.cardinality()?;
        if total > limit {
            return None;
        }
        let mut out = Vec::with_capacity(total as usize);
        let mut counters = vec![0u64; self.len()];
        let radices: Vec<u64> = self
            .params
            .iter()
            .map(|p| p.kind.cardinality().expect("finite"))
            .collect();
        loop {
            let values = self
                .params
                .iter()
                .zip(&counters)
                .map(|(p, &c)| match &p.kind {
                    ParamKind::Int { low, .. } => ParamValue::Int(low + c as i64),
                    ParamKind::Categorical { .. } | ParamKind::Ordinal { .. } => {
                        ParamValue::Cat(c as usize)
                    }
                    ParamKind::Float { .. } => unreachable!("finite space has no floats"),
                })
                .collect();
            out.push(Config::new(values));
            // Odometer increment from the last dimension.
            let mut dim = self.len();
            loop {
                if dim == 0 {
                    return Some(out);
                }
                dim -= 1;
                counters[dim] += 1;
                if counters[dim] < radices[dim] {
                    break;
                }
                counters[dim] = 0;
            }
        }
    }

    /// Resolves a categorical index to its display name.
    pub fn choice_name(&self, param: &str, value: &ParamValue) -> Option<&str> {
        let def = self.param(param)?;
        let idx = value.as_cat()?;
        match &def.kind {
            ParamKind::Categorical { choices } => choices.get(idx).map(String::as_str),
            ParamKind::Ordinal { levels } => levels.get(idx).map(String::as_str),
            _ => None,
        }
    }

    /// Renders a config as `name=value` pairs for logs and reports.
    pub fn describe(&self, config: &Config) -> String {
        let mut s = String::new();
        for (p, v) in self.params.iter().zip(config.values()) {
            if !s.is_empty() {
                s.push_str(", ");
            }
            s.push_str(&p.name);
            s.push('=');
            match self.choice_name(&p.name, v) {
                Some(name) => s.push_str(name),
                None => s.push_str(&v.to_string()),
            }
        }
        s
    }
}

/// Fluent builder for [`ConfigSpace`].
///
/// Builder methods panic on invalid domains at `build()` time via
/// `expect`, which is the ergonomic path for the static spaces used in
/// examples and benchmarks; use [`ConfigSpace::new`] for fallible
/// construction from dynamic input.
#[derive(Debug, Default)]
pub struct ConfigSpaceBuilder {
    params: Vec<ParamDef>,
}

impl ConfigSpaceBuilder {
    /// Adds a linear-scale continuous parameter.
    pub fn float(mut self, name: &str, low: f64, high: f64) -> Self {
        self.params.push(ParamDef::new(
            name,
            ParamKind::Float {
                low,
                high,
                log: false,
            },
        ));
        self
    }

    /// Adds a log-scale continuous parameter (bounds must be positive).
    pub fn float_log(mut self, name: &str, low: f64, high: f64) -> Self {
        self.params.push(ParamDef::new(
            name,
            ParamKind::Float {
                low,
                high,
                log: true,
            },
        ));
        self
    }

    /// Adds a linear-scale integer parameter.
    pub fn int(mut self, name: &str, low: i64, high: i64) -> Self {
        self.params.push(ParamDef::new(
            name,
            ParamKind::Int {
                low,
                high,
                log: false,
            },
        ));
        self
    }

    /// Adds a log-scale integer parameter (bounds must be positive).
    pub fn int_log(mut self, name: &str, low: i64, high: i64) -> Self {
        self.params.push(ParamDef::new(
            name,
            ParamKind::Int {
                low,
                high,
                log: true,
            },
        ));
        self
    }

    /// Adds an unordered categorical parameter.
    pub fn categorical(mut self, name: &str, choices: &[&str]) -> Self {
        self.params.push(ParamDef::new(
            name,
            ParamKind::Categorical {
                choices: choices.iter().map(|s| s.to_string()).collect(),
            },
        ));
        self
    }

    /// Adds an ordered discrete parameter.
    pub fn ordinal(mut self, name: &str, levels: &[&str]) -> Self {
        self.params.push(ParamDef::new(
            name,
            ParamKind::Ordinal {
                levels: levels.iter().map(|s| s.to_string()).collect(),
            },
        ));
        self
    }

    /// Finalizes the space.
    ///
    /// # Panics
    ///
    /// Panics if any domain is invalid or a name is duplicated.
    pub fn build(self) -> ConfigSpace {
        self.try_build().expect("invalid configuration space")
    }

    /// Fallible variant of [`ConfigSpaceBuilder::build`].
    pub fn try_build(self) -> Result<ConfigSpace, SpaceError> {
        ConfigSpace::new(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_space() -> ConfigSpace {
        ConfigSpace::builder()
            .float_log("lr", 1e-4, 1.0)
            .float("momentum", 0.0, 0.99)
            .int("batch", 16, 512)
            .categorical("opt", &["sgd", "adam", "rmsprop"])
            .ordinal("size", &["s", "m", "l"])
            .build()
    }

    #[test]
    fn builder_declares_in_order() {
        let s = demo_space();
        assert_eq!(s.len(), 5);
        assert_eq!(s.params()[0].name, "lr");
        assert_eq!(s.index_of("batch"), Some(2));
        assert!(s.param("nope").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = ConfigSpace::builder()
            .float("a", 0.0, 1.0)
            .float("a", 0.0, 2.0)
            .try_build();
        assert_eq!(r.unwrap_err(), SpaceError::DuplicateParam("a".into()));
    }

    #[test]
    fn encode_decode_roundtrip_on_samples() {
        let s = demo_space();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let c = s.sample(&mut rng);
            s.check(&c).unwrap();
            let x = s.encode(&c);
            assert_eq!(x.len(), s.len());
            assert!(x.iter().all(|&u| (0.0..=1.0).contains(&u)));
            assert_eq!(s.decode(&x).unwrap(), c);
        }
    }

    #[test]
    fn decode_rejects_wrong_dimension() {
        let s = demo_space();
        assert!(matches!(
            s.decode(&[0.5, 0.5]),
            Err(SpaceError::DimensionMismatch {
                expected: 5,
                actual: 2
            })
        ));
    }

    #[test]
    fn lhs_stratifies_each_dimension() {
        let s = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10;
        let configs = s.sample_lhs(n, &mut rng);
        let mut bins = vec![false; n];
        for c in &configs {
            let u = s.encode(c)[0];
            bins[((u * n as f64) as usize).min(n - 1)] = true;
        }
        assert!(bins.iter().all(|&b| b), "each stratum hit exactly once");
    }

    #[test]
    fn lhs_zero_and_one() {
        let s = demo_space();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(s.sample_lhs(0, &mut rng).is_empty());
        assert_eq!(s.sample_lhs(1, &mut rng).len(), 1);
    }

    #[test]
    fn cardinality_of_finite_space() {
        let s = ConfigSpace::builder()
            .int("a", 0, 4)
            .categorical("b", &["x", "y"])
            .build();
        assert_eq!(s.cardinality(), Some(10));
        assert_eq!(demo_space().cardinality(), None);
    }

    #[test]
    fn enumerate_visits_every_config_once() {
        let s = ConfigSpace::builder()
            .int("a", 1, 3)
            .categorical("b", &["x", "y"])
            .build();
        let all = s.enumerate(100).unwrap();
        assert_eq!(all.len(), 6);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 6);
        // First config is (low, choice 0).
        assert_eq!(all[0].values()[0], ParamValue::Int(1));
        assert_eq!(all[0].values()[1], ParamValue::Cat(0));
    }

    #[test]
    fn enumerate_refuses_continuous_or_too_large() {
        assert!(demo_space().enumerate(u64::MAX).is_none());
        let s = ConfigSpace::builder().int("a", 0, 99).build();
        assert!(s.enumerate(10).is_none());
        assert_eq!(s.enumerate(100).unwrap().len(), 100);
    }

    #[test]
    fn describe_uses_choice_names() {
        let s = demo_space();
        let mut rng = StdRng::seed_from_u64(1);
        let c = s.sample(&mut rng);
        let d = s.describe(&c);
        assert!(d.contains("lr="));
        assert!(d.contains("opt="));
        // Categorical renders a name, not an index.
        assert!(d.contains("sgd") || d.contains("adam") || d.contains("rmsprop"));
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let s = demo_space();
        let json = serde_json::to_string(&s).unwrap();
        let back: ConfigSpace = serde_json::from_str(&json).unwrap();
        // Index is #[serde(skip)]; reconstruct through ConfigSpace::new.
        let rebuilt = ConfigSpace::new(back.params().to_vec()).unwrap();
        assert_eq!(rebuilt.index_of("opt"), Some(3));
    }
}
