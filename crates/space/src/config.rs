//! Concrete assignments ([`Config`]) and their run-local ids.
//!
//! A config is immutable and shared: its values are one
//! reference-counted allocation, made when the space samples, decodes or
//! perturbs it, and every store a trial reaches holds a handle on that
//! allocation rather than a copy.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ParamValue;

/// Stable identity of a configuration within one tuning run.
///
/// IDs are assigned by the framework's trial bookkeeping, not by the space;
/// two structurally equal [`Config`]s sampled independently get different
/// IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConfigId(pub u64);

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cfg-{}", self.0)
    }
}

/// A concrete hyper-parameter assignment: one value per parameter of the
/// owning [`crate::ConfigSpace`], in the space's declaration order.
///
/// A config is immutable and shared: its values live in one
/// reference-counted allocation, made when the config is built, and
/// `clone` only bumps the count. Every copy a trial hands on — the
/// pending set, the job, the history, the completion log, a bracket's
/// rung — points at those same values. It serializes exactly as the
/// `Vec` of its values does.
///
/// `Config` implements `Eq`/`Hash` by canonical bit pattern so it can key
/// hash maps (e.g. the promotion bookkeeping in D-ASHA); float `NaN` never
/// occurs in valid configs because [`crate::ParamDef::check`] rejects it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Config {
    values: Arc<[ParamValue]>,
}

impl Config {
    /// Creates a config from values in the space's declaration order.
    /// Collecting an iterator of values (`FromIterator`) builds the
    /// shared allocation directly, without the `Vec`.
    pub fn new(values: Vec<ParamValue>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// The assigned values, in declaration order.
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Number of parameters in the assignment.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the assignment has no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at declaration index `i`, or `None` if out of range.
    pub fn get(&self, i: usize) -> Option<&ParamValue> {
        self.values.get(i)
    }
}

impl FromIterator<ParamValue> for Config {
    fn from_iter<I: IntoIterator<Item = ParamValue>>(values: I) -> Self {
        Self {
            values: values.into_iter().collect(),
        }
    }
}

impl PartialEq for Config {
    fn eq(&self, other: &Self) -> bool {
        if self.values.len() != other.values.len() {
            return false;
        }
        self.values
            .iter()
            .zip(other.values.iter())
            .all(|(a, b)| a.canonical_bits() == b.canonical_bits())
    }
}

impl Eq for Config {}

impl Hash for Config {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.values.iter() {
            v.canonical_bits().hash(state);
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_by_value() {
        let a = Config::new(vec![ParamValue::Float(0.5), ParamValue::Cat(2)]);
        let b = Config::new(vec![ParamValue::Float(0.5), ParamValue::Cat(2)]);
        let c = Config::new(vec![ParamValue::Float(0.6), ParamValue::Cat(2)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn negative_zero_equals_zero() {
        let a = Config::new(vec![ParamValue::Float(0.0)]);
        let b = Config::new(vec![ParamValue::Float(-0.0)]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn hashset_dedups_equal_configs() {
        let mut set = HashSet::new();
        set.insert(Config::new(vec![ParamValue::Int(3)]));
        set.insert(Config::new(vec![ParamValue::Int(3)]));
        set.insert(Config::new(vec![ParamValue::Int(4)]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn float_and_int_with_same_bits_differ() {
        let a = Config::new(vec![ParamValue::Int(0)]);
        let b = Config::new(vec![ParamValue::Cat(0)]);
        assert_ne!(a, b);
    }

    #[test]
    fn display_formats_all_kinds() {
        let c = Config::new(vec![
            ParamValue::Float(0.125),
            ParamValue::Int(-3),
            ParamValue::Cat(1),
        ]);
        let s = c.to_string();
        assert!(s.contains("0.125"));
        assert!(s.contains("-3"));
        assert!(s.contains("#1"));
    }

    #[test]
    fn a_clone_shares_the_values() {
        let a = Config::new(vec![ParamValue::Float(0.5), ParamValue::Cat(2)]);
        let b = a.clone();
        assert_eq!(a.values().as_ptr(), b.values().as_ptr());
        assert_eq!(a, b);
        // A pointer and a length: the values are not inline.
        assert_eq!(std::mem::size_of::<Config>(), 16);
    }

    #[test]
    fn separately_built_equal_configs_are_equal_and_hash_equal() {
        let hash = |c: &Config| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let values = [
            ParamValue::Float(-0.0),
            ParamValue::Int(-3),
            ParamValue::Cat(1),
        ];
        let a = Config::new(values.to_vec());
        let b: Config = values
            .iter()
            .map(|v| match v {
                ParamValue::Float(_) => ParamValue::Float(0.0),
                v => *v,
            })
            .collect();
        assert_ne!(a.values().as_ptr(), b.values().as_ptr());
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        let c: Config = values.iter().copied().collect();
        assert_eq!(c.values(), a.values());
        assert_eq!(hash(&c), hash(&a));
    }

    #[test]
    fn a_collected_config_serializes_like_its_values() {
        let values = vec![
            ParamValue::Float(0.25),
            ParamValue::Int(-2),
            ParamValue::Cat(0),
        ];
        let c: Config = values.iter().copied().collect();
        let mut owned = String::new();
        values.write_json(&mut owned);
        let mut shared = String::new();
        c.write_json(&mut shared);
        assert_eq!(shared, format!("{{\"values\":{owned}}}"));
        assert_eq!(Config::from_value(&c.to_value()).unwrap(), c);
    }

    #[test]
    fn config_id_display() {
        assert_eq!(ConfigId(17).to_string(), "cfg-17");
    }
}
