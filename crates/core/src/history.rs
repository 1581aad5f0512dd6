//! The multi-fidelity measurement store (`D_1 … D_K` of §4).
//!
//! Every finished evaluation lands here, grouped by resource level. The
//! store feeds three consumers: the base surrogates (one per level), the
//! ranking-loss computation behind `θ`, and the incumbent/anytime-curve
//! bookkeeping the experiment harness reports.

use std::collections::HashMap;
use std::sync::Mutex;

use hypertune_space::Config;

use crate::levels::ResourceLevels;

/// One finished evaluation.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Measurement {
    /// The evaluated configuration.
    pub config: Config,
    /// Resource-level index (0-based; `K − 1` is a complete evaluation).
    pub level: usize,
    /// Training resources actually used (`η^level` units).
    pub resource: f64,
    /// Validation objective (minimized).
    pub value: f64,
    /// Held-out test objective (reported for incumbents only).
    pub test_value: f64,
    /// Virtual cost of the evaluation in seconds.
    pub cost: f64,
    /// Virtual completion time.
    pub finished_at: f64,
}

/// Uncached top-`n` selection over one level's measurements, ascending by
/// value with ties broken by insertion order (what a stable full sort
/// returns — callers depend on this for reproducibility). A full sort
/// would be `O(m log m)` per call on the dispatch hot path; partial
/// select + sort of the winning prefix is `O(m + n log n)`.
pub fn top_indices_uncached(g: &[Measurement], n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..g.len()).collect();
    let by_value = |&a: &usize, &b: &usize| {
        g[a].value
            .partial_cmp(&g[b].value)
            .expect("values are finite")
            .then(a.cmp(&b))
    };
    if n < idx.len() {
        idx.select_nth_unstable_by(n, by_value);
        idx.truncate(n);
    }
    idx.sort_by(by_value);
    idx
}

/// Memoized top-k selections: `(level, n) → (len_at(level) when
/// computed, indices)`. The group length doubles as the invalidation
/// tag since groups are append-only.
type TopCache = Mutex<HashMap<(usize, usize), (usize, Vec<usize>)>>;

/// Measurements grouped by resource level, plus incumbent tracking.
#[derive(Debug)]
pub struct History {
    levels: ResourceLevels,
    groups: Vec<Vec<Measurement>>,
    /// Best (lowest validation value) complete evaluation so far.
    best_full: Option<usize>,
    /// Best measurement at any level so far.
    best_any: Option<(usize, usize)>,
    total_cost: f64,
    /// The suggest hot path asks for the same top-k between appends.
    top_cache: TopCache,
}

impl Clone for History {
    fn clone(&self) -> Self {
        Self {
            levels: self.levels.clone(),
            groups: self.groups.clone(),
            best_full: self.best_full,
            best_any: self.best_any,
            total_cost: self.total_cost,
            // The cache is derived state; a clone starts cold.
            top_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl History {
    /// An empty store over the given level ladder.
    pub fn new(levels: ResourceLevels) -> Self {
        let k = levels.k();
        Self {
            levels,
            groups: vec![Vec::new(); k],
            best_full: None,
            best_any: None,
            total_cost: 0.0,
            top_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The level ladder.
    pub fn levels(&self) -> &ResourceLevels {
        &self.levels
    }

    /// Records a measurement.
    ///
    /// # Panics
    ///
    /// Panics if the measurement's level is out of range.
    pub fn record(&mut self, m: Measurement) {
        assert!(m.level < self.groups.len(), "level out of range");
        self.total_cost += m.cost;
        let level = m.level;
        // Invalidate cached top-k selections for the touched level. The
        // length tag would catch staleness on lookup too; dropping the
        // entries keeps the cache from holding dead index vectors.
        self.top_cache
            .get_mut()
            .expect("cache lock poisoned")
            .retain(|&(l, _), _| l != level);
        let idx = self.groups[level].len();
        let value = m.value;
        self.groups[level].push(m);
        if level == self.levels.max_level()
            && self
                .best_full
                .is_none_or(|b| value < self.groups[level][b].value)
        {
            self.best_full = Some(idx);
        }
        if self
            .best_any
            .map(|(l, i)| value < self.groups[l][i].value)
            .unwrap_or(true)
        {
            self.best_any = Some((level, idx));
        }
    }

    /// Measurements at `level` (`D_{level+1}` in paper notation).
    pub fn group(&self, level: usize) -> &[Measurement] {
        &self.groups[level]
    }

    /// Number of measurements at `level`.
    pub fn len_at(&self, level: usize) -> usize {
        self.groups[level].len()
    }

    /// Total number of measurements at all levels.
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of evaluation costs recorded so far.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Best complete evaluation (lowest validation value at level `K−1`).
    pub fn incumbent_full(&self) -> Option<&Measurement> {
        self.best_full
            .map(|i| &self.groups[self.levels.max_level()][i])
    }

    /// Best measurement at any level; falls back gracefully when no
    /// complete evaluation exists yet.
    pub fn incumbent_any(&self) -> Option<&Measurement> {
        self.best_any.map(|(l, i)| &self.groups[l][i])
    }

    /// The incumbent the experiment harness reports: the best complete
    /// evaluation when one exists, otherwise the best at any level.
    pub fn incumbent(&self) -> Option<&Measurement> {
        self.incumbent_full().or_else(|| self.incumbent_any())
    }

    /// Indices (into [`History::group`]) of the `n` best measurements at
    /// `level`, ascending by value (see [`top_indices_uncached`] for the
    /// selection itself). Results are memoized per `(level, n)` until the
    /// next append to that level, so the suggest hot path — which asks
    /// for the same top-k every sample between completions — pays the
    /// `O(m)` select once per append instead of once per call.
    pub fn top_indices(&self, level: usize, n: usize) -> Vec<usize> {
        let g = &self.groups[level];
        let mut cache = self.top_cache.lock().expect("cache lock poisoned");
        if let Some((len, idx)) = cache.get(&(level, n)) {
            if *len == g.len() {
                return idx.clone();
            }
        }
        let idx = top_indices_uncached(g, n);
        cache.insert((level, n), (g.len(), idx.clone()));
        idx
    }

    /// The `n` best configurations at `level` (ascending value), borrowed
    /// from the store — used to seed local acquisition search without
    /// cloning every `Config` on each call.
    pub fn top_configs_ref(&self, level: usize, n: usize) -> Vec<&Config> {
        self.top_indices(level, n)
            .into_iter()
            .map(|i| &self.groups[level][i].config)
            .collect()
    }

    /// Cloning variant of [`History::top_configs_ref`], for callers that
    /// need owned configurations.
    pub fn top_configs(&self, level: usize, n: usize) -> Vec<Config> {
        self.top_configs_ref(level, n)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Unit-cube design matrix and targets of `level`, ready for
    /// surrogate fitting.
    pub fn training_data(
        &self,
        level: usize,
        space: &hypertune_space::ConfigSpace,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        self.training_data_capped(level, space, usize::MAX)
    }

    /// Like [`History::training_data`], but keeps only the most recent
    /// `cap` measurements — surrogate refits stay `O(cap)` as the run
    /// grows, bounding the per-sample optimization overhead.
    pub fn training_data_capped(
        &self,
        level: usize,
        space: &hypertune_space::ConfigSpace,
        cap: usize,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let g = &self.groups[level];
        let skip = g.len().saturating_sub(cap);
        let n = g.len() - skip;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for m in &g[skip..] {
            xs.push(space.encode(&m.config));
            ys.push(m.value);
        }
        (xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertune_space::{ConfigSpace, ParamValue};

    fn levels() -> ResourceLevels {
        ResourceLevels::new(27.0, 3)
    }

    fn m(level: usize, value: f64, t: f64) -> Measurement {
        Measurement {
            config: Config::new(vec![ParamValue::Float(value)]),
            level,
            resource: 3f64.powi(level as i32),
            value,
            test_value: value + 0.01,
            cost: 10.0,
            finished_at: t,
        }
    }

    #[test]
    fn groups_by_level() {
        let mut h = History::new(levels());
        h.record(m(0, 0.5, 1.0));
        h.record(m(0, 0.4, 2.0));
        h.record(m(3, 0.2, 3.0));
        assert_eq!(h.len_at(0), 2);
        assert_eq!(h.len_at(3), 1);
        assert_eq!(h.len(), 3);
        assert_eq!(h.total_cost(), 30.0);
    }

    #[test]
    fn incumbent_prefers_full_fidelity() {
        let mut h = History::new(levels());
        h.record(m(0, 0.1, 1.0)); // lower value but partial
        assert_eq!(h.incumbent().unwrap().value, 0.1);
        h.record(m(3, 0.3, 2.0));
        // Complete evaluation wins even though its value is higher.
        assert_eq!(h.incumbent().unwrap().value, 0.3);
        assert_eq!(h.incumbent_any().unwrap().value, 0.1);
    }

    #[test]
    fn incumbent_full_tracks_minimum() {
        let mut h = History::new(levels());
        h.record(m(3, 0.5, 1.0));
        h.record(m(3, 0.3, 2.0));
        h.record(m(3, 0.4, 3.0));
        assert_eq!(h.incumbent_full().unwrap().value, 0.3);
    }

    #[test]
    fn top_configs_sorted_ascending() {
        let mut h = History::new(levels());
        h.record(m(1, 0.9, 1.0));
        h.record(m(1, 0.1, 2.0));
        h.record(m(1, 0.5, 3.0));
        let top = h.top_configs(1, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].values()[0], ParamValue::Float(0.1));
        assert_eq!(top[1].values()[0], ParamValue::Float(0.5));
        // Requesting more than available returns all.
        assert_eq!(h.top_configs(1, 10).len(), 3);
    }

    #[test]
    fn cached_top_indices_matches_uncached_across_appends() {
        let mut h = History::new(levels());
        let values = [0.9, 0.1, 0.5, 0.1, 0.3, 0.7, 0.0, 0.2];
        for (i, &v) in values.iter().enumerate() {
            h.record(m(1, v, i as f64));
            for n in [0usize, 1, 2, 3, 100] {
                // First call populates the cache, second must hit it;
                // both agree with the from-scratch selection.
                let expect = top_indices_uncached(h.group(1), n);
                assert_eq!(h.top_indices(1, n), expect);
                assert_eq!(h.top_indices(1, n), expect);
            }
        }
        // Appends to *other* levels leave level-1 cache entries valid.
        h.record(m(2, 0.4, 99.0));
        assert_eq!(h.top_indices(1, 3), top_indices_uncached(h.group(1), 3));
    }

    #[test]
    fn training_data_encodes_configs() {
        let space = ConfigSpace::builder().float("x", 0.0, 1.0).build();
        let mut h = History::new(levels());
        h.record(m(2, 0.25, 1.0));
        let (xs, ys) = h.training_data(2, &space);
        assert_eq!(xs, vec![vec![0.25]]);
        assert_eq!(ys, vec![0.25]);
        let (xs0, ys0) = h.training_data(0, &space);
        assert!(xs0.is_empty() && ys0.is_empty());
    }

    #[test]
    fn empty_history() {
        let h = History::new(levels());
        assert!(h.is_empty());
        assert!(h.incumbent().is_none());
        assert!(h.incumbent_full().is_none());
    }
}
