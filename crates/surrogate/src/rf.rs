//! Probabilistic random-forest surrogate (SMAC-style).
//!
//! Each tree is an extremely-randomized regression tree: splits pick a
//! random dimension and a uniform-random threshold between the node's
//! minimum and maximum along it. Leaves store the mean and variance of
//! their targets. The forest's predictive distribution aggregates leaf
//! statistics by the law of total variance, which is the construction
//! SMAC and BOHB-style systems use for mixed discrete/continuous
//! hyper-parameter spaces where Gaussian processes struggle.
//!
//! Training is the tuner's hot path, so `fit` is built for speed without
//! giving up reproducibility:
//!
//! - inputs are flattened once into a row-major matrix, so tree
//!   construction touches one contiguous buffer instead of chasing
//!   per-row `Vec` pointers;
//! - every tree derives its own RNG seed from `(forest seed, tree
//!   index)`, making trees independent of construction order — the
//!   parallel and serial paths produce bit-identical forests;
//! - trees build on a scoped thread pool when the machine has more than
//!   one core and the problem is big enough to amortize thread spawns;
//! - leaf statistics are computed in place over the index slice, with no
//!   per-leaf target buffer.
//!
//! Prediction is the acquisition maximizer's hot path. `fit` emits each
//! tree straight into the array prediction walks — 24-byte nodes, leaves
//! written as splits that lead back to themselves — and a block of
//! `LANES` (8) query rows walks a tree together for exactly as many steps as
//! the tree is deep, with no data-dependent branch (DESIGN.md §10).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{row_count, validate_training_set, Prediction, SurrogateError, SurrogateModel};

/// Tuning knobs for [`RandomForest`].
#[derive(Debug, Clone, Copy)]
pub struct RandomForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Draw a bootstrap resample per tree when `true`; otherwise each tree
    /// sees the full training set (extra-trees style).
    pub bootstrap: bool,
    /// Variance floor added to every prediction, representing observation
    /// noise; keeps acquisition functions well-defined near duplicates.
    pub min_variance: f64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 30,
            max_depth: 18,
            min_samples_split: 3,
            bootstrap: true,
            min_variance: 1e-8,
        }
    }
}

/// Minimum `n_trees * n_points` before `fit` reaches for threads; below
/// this the spawn cost dwarfs the tree-building work.
const PARALLEL_FIT_THRESHOLD: usize = 2048;

/// A probabilistic random-forest regressor implementing
/// [`SurrogateModel`].
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    seed: u64,
    dim: usize,
    trees: Vec<Tree>,
    skipped_nonfinite: usize,
}

impl RandomForest {
    /// Creates an unfitted forest with default hyper-parameters.
    pub fn new(seed: u64) -> Self {
        Self::with_config(RandomForestConfig::default(), seed)
    }

    /// Creates an unfitted forest with explicit hyper-parameters.
    pub fn with_config(config: RandomForestConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            dim: 0,
            trees: Vec::new(),
            skipped_nonfinite: 0,
        }
    }

    /// Number of fitted trees (0 before `fit`).
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of training rows the last `fit` dropped for containing a
    /// NaN or infinite input coordinate or target. Callers surface this
    /// through the `surrogate.skipped_nonfinite` telemetry counter.
    pub fn skipped_nonfinite(&self) -> usize {
        self.skipped_nonfinite
    }

    /// Fits with an explicit worker-thread count.
    ///
    /// `threads == 1` forces the serial path; any count yields the same
    /// forest bit for bit, because each tree's RNG seed depends only on
    /// `(forest seed, tree index)`. [`SurrogateModel::fit`] calls this
    /// with the detected core count.
    pub fn fit_with_threads(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        threads: usize,
    ) -> Result<(), SurrogateError> {
        // A crashed or diverged trial can leave NaN/Inf in the training
        // set; one such row would poison every split bound it touches.
        // Drop those rows (recording how many via
        // [`RandomForest::skipped_nonfinite`]) instead of failing the
        // whole fit — unless nothing finite remains.
        if x.len() != y.len() {
            return Err(SurrogateError::LengthMismatch {
                xs: x.len(),
                ys: y.len(),
            });
        }
        let row_ok = |(row, v): (&Vec<f64>, &f64)| -> bool {
            v.is_finite() && row.iter().all(|c| c.is_finite())
        };
        if x.iter().zip(y).all(row_ok) {
            self.skipped_nonfinite = 0;
            return self.fit_finite(x, y, threads);
        }
        let (fx, fy): (Vec<Vec<f64>>, Vec<f64>) = x
            .iter()
            .zip(y)
            .filter(|&(row, v)| row_ok((row, v)))
            .map(|(row, v)| (row.clone(), *v))
            .unzip();
        self.skipped_nonfinite = x.len() - fx.len();
        if fx.is_empty() {
            return Err(SurrogateError::NonFiniteTarget);
        }
        self.fit_finite(&fx, &fy, threads)
    }

    /// The real fit, on rows already known to be finite.
    fn fit_finite(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        threads: usize,
    ) -> Result<(), SurrogateError> {
        self.dim = validate_training_set(x, y)?;
        let n = x.len();
        let mut flat = Vec::with_capacity(n * self.dim);
        for row in x {
            flat.extend_from_slice(row);
        }
        let matrix = Matrix {
            data: &flat,
            dim: self.dim,
            n,
        };
        let config = self.config;
        let seed = self.seed;
        let n_trees = config.n_trees;
        let workers = threads.clamp(1, n_trees.max(1));
        if workers <= 1 || n_trees * n < PARALLEL_FIT_THRESHOLD {
            self.trees = (0..n_trees)
                .map(|t| build_tree(&matrix, y, &config, derive_tree_seed(seed, t)))
                .collect();
        } else {
            let chunk = n_trees.div_ceil(workers);
            // Chunks are contiguous tree-index ranges, collected in worker
            // order, so the tree vector matches the serial path exactly.
            let per_worker: Vec<Vec<Tree>> = std::thread::scope(|scope| {
                let matrix = &matrix;
                let config = &config;
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let start = w * chunk;
                            let end = ((w + 1) * chunk).min(n_trees);
                            (start..end)
                                .map(|t| build_tree(matrix, y, config, derive_tree_seed(seed, t)))
                                .collect()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tree build worker panicked"))
                    .collect()
            });
            self.trees = per_worker.into_iter().flatten().collect();
        }
        Ok(())
    }
}

/// Mixes `(forest seed, tree index)` into an independent per-tree seed
/// (SplitMix64 finalizer), so tree streams never depend on which thread —
/// or in what order — a tree is built.
fn derive_tree_seed(seed: u64, tree_index: usize) -> u64 {
    let mut z = seed ^ (tree_index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Worker threads a fit may use: the machine's available parallelism,
/// resolved once per process. `std::thread::available_parallelism`
/// re-reads the cgroup files on every call, which costs about as much as
/// fitting a dozen-point forest.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

impl SurrogateModel for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) -> Result<(), SurrogateError> {
        self.fit_with_threads(x, y, available_threads())
    }

    fn predict(&self, x: &[f64]) -> Result<Prediction, SurrogateError> {
        self.check_query(x.len())?;
        let mut sums = [Prediction::new(0.0, 0.0)];
        for tree in &self.trees {
            tree.accumulate([x], &mut sums);
        }
        Ok(self.finish(sums[0]))
    }

    fn predict_rows(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<Prediction>,
    ) -> Result<(), SurrogateError> {
        out.clear();
        let n = row_count(rows, dim)?;
        if n == 0 {
            // No row to be the wrong width; an unfitted forest still errs.
            return self.check_query(self.dim);
        }
        // One width check for the whole batch; the traversal below relies
        // on it and makes none of its own.
        self.check_query(dim)?;
        // `out` holds the running sums while trees are walked. Tree-major:
        // a tree's nodes stay hot in cache while every block passes through
        // it, and each point still adds tree 0, 1, ... in that order, so
        // the sums are bit-identical to `predict`'s.
        out.resize(n, Prediction::new(0.0, 0.0));
        let block = LANES * dim;
        for tree in &self.trees {
            let mut row_blocks = rows.chunks_exact(block);
            let mut sum_blocks = out.chunks_exact_mut(LANES);
            for (rows, sums) in row_blocks.by_ref().zip(sum_blocks.by_ref()) {
                let lanes: [&[f64]; LANES] = std::array::from_fn(|l| &rows[l * dim..(l + 1) * dim]);
                tree.accumulate(lanes, sums);
            }
            // Fewer than `LANES` rows are left: one at a time.
            let tail = row_blocks.remainder().chunks_exact(dim);
            for (x, sum) in tail.zip(sum_blocks.into_remainder()) {
                tree.accumulate([x], std::slice::from_mut(sum));
            }
        }
        for sum in out.iter_mut() {
            *sum = self.finish(*sum);
        }
        Ok(())
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

impl RandomForest {
    /// `Err` unless the forest is fitted and `width` is the input width
    /// it was fitted on.
    fn check_query(&self, width: usize) -> Result<(), SurrogateError> {
        if self.trees.is_empty() {
            Err(SurrogateError::NotFitted)
        } else if width != self.dim {
            Err(SurrogateError::DimensionMismatch {
                expected: self.dim,
                got: width,
            })
        } else {
            Ok(())
        }
    }

    /// Turns one point's sums over trees (`mean` = Σ m_t, `var` =
    /// Σ v_t + m_t²) into the forest's prediction by the law of total
    /// variance: mean = E[m_t], var = E[v_t + m_t²] − mean².
    fn finish(&self, sums: Prediction) -> Prediction {
        let k = self.trees.len() as f64;
        let mean = sums.mean / k;
        let var = (sums.var / k - mean * mean).max(self.config.min_variance);
        Prediction::new(mean, var)
    }
}

/// Row-major view of the flattened training inputs.
#[derive(Clone, Copy)]
struct Matrix<'a> {
    data: &'a [f64],
    dim: usize,
    n: usize,
}

impl Matrix<'_> {
    #[inline]
    fn at(&self, row: usize, d: usize) -> f64 {
        self.data[row * self.dim + d]
    }
}

/// The bootstrap resample (or identity) a tree is grown on, drawn from
/// the tree's own RNG stream before any split.
fn tree_indices(n: usize, config: &RandomForestConfig, rng: &mut StdRng) -> Vec<usize> {
    if config.bootstrap && n > 1 {
        (0..n).map(|_| rng.gen_range(0..n)).collect()
    } else {
        (0..n).collect()
    }
}

fn build_tree(matrix: &Matrix<'_>, y: &[f64], config: &RandomForestConfig, seed: u64) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices = tree_indices(matrix.n, config, &mut rng);
    let mut tree = Tree {
        nodes: Vec::new(),
        leaves: Vec::new(),
        depth: 0,
    };
    tree.build_node(matrix, y, &mut indices, 0, config, &mut rng);
    // Every split has two children, so L leaves come with L - 1 splits.
    debug_assert_eq!(tree.nodes.len(), 2 * tree.leaves.len() - 1);
    tree
}

/// Query rows walked through a tree together. Eight independent
/// root-to-leaf chains hide the load-compare-select latency of one step
/// behind the others: measured per tree-query, 4 lanes are a quarter
/// slower and 16 no faster.
const LANES: usize = 8;

/// One regression tree in prediction layout: a pre-order node array that
/// a query walks for exactly `depth` steps.
#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
    /// Target statistics of the leaves, indexed by [`Node::leaf`].
    leaves: Vec<Leaf>,
    /// Depth of the deepest leaf (the root is at depth 0).
    depth: u32,
}

/// A split, or a leaf written as a split that leads back to itself: a
/// query that reaches a leaf early stays on it for the remaining steps,
/// so every query takes the same number of steps and the walk needs no
/// "is this a leaf" branch.
#[derive(Debug, Clone, Copy)]
struct Node {
    threshold: f64,
    /// Child for `x[dim] <= threshold`; the node's own id on a leaf.
    left: u32,
    /// Child otherwise (`NaN` included); the node's own id on a leaf.
    right: u32,
    /// Split coordinate; 0 on a leaf.
    dim: u32,
    /// Index into [`Tree::leaves`]; meaningful on leaves only.
    leaf: u32,
}

/// Mean and population variance of the targets that reached a leaf.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    mean: f64,
    var: f64,
}

/// Narrows a node, leaf or coordinate index to its stored width. A tree
/// has fewer than `2 n` nodes, so this fails only on a training set that
/// could not have been allocated.
fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("tree index fits in u32")
}

/// Picks a split of `indices` the way extremely-randomized trees do — a
/// random coordinate with spread, a uniform threshold inside its range —
/// and partitions `indices` in place (`x[d] <= threshold` first).
/// `None` when no tried coordinate has spread or one side came out empty.
fn choose_split(
    matrix: &Matrix<'_>,
    indices: &mut [usize],
    rng: &mut StdRng,
) -> Option<(usize, f64, usize)> {
    let dim_count = matrix.dim;
    // Try a few random dimensions looking for one with spread.
    let (d, threshold) = (0..dim_count.max(4)).find_map(|_| {
        let d = rng.gen_range(0..dim_count);
        let (lo, hi) = indices
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &i| {
                let v = matrix.at(i, d);
                (lo.min(v), hi.max(v))
            });
        if hi - lo > 1e-12 {
            Some((d, lo + rng.gen::<f64>() * (hi - lo)))
        } else {
            None
        }
    })?;
    let mut mid = 0;
    for i in 0..indices.len() {
        if matrix.at(indices[i], d) <= threshold {
            indices.swap(i, mid);
            mid += 1;
        }
    }
    (mid != 0 && mid != indices.len()).then_some((d, threshold, mid))
}

/// Two-pass mean/variance straight off the index slice — no target
/// buffer. Matches `stats::{mean, variance}` semantics (population
/// variance; zero for fewer than two samples).
fn leaf_stats(y: &[f64], indices: &[usize]) -> Leaf {
    let k = indices.len();
    if k == 0 {
        return Leaf {
            mean: 0.0,
            var: 0.0,
        };
    }
    let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / k as f64;
    let var = if k < 2 {
        0.0
    } else {
        indices
            .iter()
            .map(|&i| {
                let d = y[i] - mean;
                d * d
            })
            .sum::<f64>()
            / k as f64
    };
    Leaf { mean, var }
}

impl Tree {
    /// Recursively builds the subtree over `indices`, returning its node
    /// id. Depth-first pre-order — a node, its whole left subtree, then
    /// its right — is the order the RNG is consumed in, so it is part of
    /// what "the same forest" means and must not change.
    fn build_node(
        &mut self,
        matrix: &Matrix<'_>,
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        config: &RandomForestConfig,
        rng: &mut StdRng,
    ) -> u32 {
        if depth >= config.max_depth || indices.len() < config.min_samples_split {
            return self.push_leaf(y, indices, depth);
        }
        let Some((d, threshold, mid)) = choose_split(matrix, indices, rng) else {
            return self.push_leaf(y, indices, depth);
        };
        // Reserve our slot before recursing so children get later ids.
        let id = self.nodes.len();
        self.nodes.push(Node {
            threshold,
            left: 0,
            right: 0,
            dim: index_u32(d),
            leaf: 0,
        });
        let (left_idx, right_idx) = indices.split_at_mut(mid);
        let left = self.build_node(matrix, y, left_idx, depth + 1, config, rng);
        let right = self.build_node(matrix, y, right_idx, depth + 1, config, rng);
        self.nodes[id].left = left;
        self.nodes[id].right = right;
        index_u32(id)
    }

    fn push_leaf(&mut self, y: &[f64], indices: &[usize], depth: usize) -> u32 {
        let id = index_u32(self.nodes.len());
        self.nodes.push(Node {
            threshold: 0.0,
            left: id,
            right: id,
            dim: 0,
            leaf: index_u32(self.leaves.len()),
        });
        self.leaves.push(leaf_stats(y, indices));
        self.depth = self.depth.max(index_u32(depth));
        id
    }

    /// Walks `N` query rows (each as wide as the training inputs) from
    /// the root to their leaves in lockstep and adds each leaf's `m` and
    /// `v + m²` to that row's sums.
    ///
    /// Every row takes exactly `depth` steps — leaves lead back to
    /// themselves — so the loop's trip count does not depend on the data,
    /// and a step picks its child with a select. The `N` chains are
    /// independent; the processor overlaps them. A `NaN` coordinate fails
    /// `<=` and goes right, as it always has.
    #[inline]
    fn accumulate<const N: usize>(&self, rows: [&[f64]; N], sums: &mut [Prediction]) {
        let mut at = [0u32; N];
        for _ in 0..self.depth {
            for (at, row) in at.iter_mut().zip(rows) {
                let node = &self.nodes[*at as usize];
                let go_left = row[node.dim as usize] <= node.threshold;
                *at = if go_left { node.left } else { node.right };
            }
        }
        for (at, sum) in at.into_iter().zip(sums) {
            let Leaf { mean, var } = self.leaves[self.nodes[at as usize].leaf as usize];
            sum.mean += mean;
            sum.var += var + mean * mean;
        }
    }
}

/// The forest as it was stored and walked before the compact layout: an
/// `enum` per node and a data-dependent loop that stops at a leaf. Kept,
/// for tests only, as the reference the lockstep kernel must agree with
/// bit for bit. Growth shares [`choose_split`] and [`leaf_stats`] with
/// [`Tree`], so the two consume the RNG identically.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug)]
    pub(super) enum Node {
        Split {
            dim: usize,
            threshold: f64,
            left: usize,
            right: usize,
        },
        Leaf(Leaf),
    }

    #[derive(Debug)]
    pub(super) struct Tree {
        pub(super) nodes: Vec<Node>,
    }

    /// The reference twin of every tree `forest.fit(x, y)` grows (`x`, `y`
    /// all finite).
    pub(super) fn forest(forest: &RandomForest, x: &[Vec<f64>], y: &[f64]) -> Vec<Tree> {
        let flat = x.concat();
        let matrix = Matrix {
            data: &flat,
            dim: x[0].len(),
            n: x.len(),
        };
        (0..forest.config.n_trees)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(derive_tree_seed(forest.seed, t));
                let mut indices = tree_indices(matrix.n, &forest.config, &mut rng);
                let mut tree = Tree { nodes: Vec::new() };
                tree.build_node(&matrix, y, &mut indices, 0, &forest.config, &mut rng);
                tree
            })
            .collect()
    }

    /// `predict` as it was: per tree, walk until a leaf, then the law of
    /// total variance over the leaf statistics.
    pub(super) fn predict(trees: &[Tree], min_variance: f64, x: &[f64]) -> Prediction {
        let mut sum_m = 0.0;
        let mut sum_sq = 0.0;
        for tree in trees {
            let Leaf { mean: m, var: v } = tree.query(x);
            sum_m += m;
            sum_sq += v + m * m;
        }
        let k = trees.len() as f64;
        let mean = sum_m / k;
        let var = (sum_sq / k - mean * mean).max(min_variance);
        Prediction::new(mean, var)
    }

    impl Tree {
        fn build_node(
            &mut self,
            matrix: &Matrix<'_>,
            y: &[f64],
            indices: &mut [usize],
            depth: usize,
            config: &RandomForestConfig,
            rng: &mut StdRng,
        ) -> usize {
            let split = if depth >= config.max_depth || indices.len() < config.min_samples_split {
                None
            } else {
                choose_split(matrix, indices, rng)
            };
            let id = self.nodes.len();
            let Some((dim, threshold, mid)) = split else {
                self.nodes.push(Node::Leaf(leaf_stats(y, indices)));
                return id;
            };
            self.nodes.push(Node::Leaf(leaf_stats(y, &[])));
            let (left_idx, right_idx) = indices.split_at_mut(mid);
            let left = self.build_node(matrix, y, left_idx, depth + 1, config, rng);
            let right = self.build_node(matrix, y, right_idx, depth + 1, config, rng);
            self.nodes[id] = Node::Split {
                dim,
                threshold,
                left,
                right,
            };
            id
        }

        fn query(&self, x: &[f64]) -> Leaf {
            let mut id = 0;
            loop {
                match &self.nodes[id] {
                    Node::Leaf(leaf) => return *leaf,
                    Node::Split {
                        dim,
                        threshold,
                        left,
                        right,
                    } => {
                        id = if x[*dim] <= *threshold { *left } else { *right };
                    }
                }
            }
        }

        /// Depth of the deepest leaf below node `id` (0 for a leaf).
        pub(super) fn depth_below(&self, id: usize) -> usize {
            match self.nodes[id] {
                Node::Leaf(_) => 0,
                Node::Split { left, right, .. } => {
                    1 + self.depth_below(left).max(self.depth_below(right))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_2d(n: usize) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                out.push(vec![i as f64 / (n - 1) as f64, j as f64 / (n - 1) as f64]);
            }
        }
        out
    }

    #[test]
    fn fits_smooth_function() {
        let x = grid_2d(12);
        let y: Vec<f64> = x.iter().map(|p| (p[0] - 0.3).powi(2) + p[1]).collect();
        let mut rf = RandomForest::new(0);
        rf.fit(&x, &y).unwrap();
        // In-sample RMSE should be small relative to the target range.
        let mut sse = 0.0;
        for (xi, yi) in x.iter().zip(&y) {
            let p = rf.predict(xi).unwrap();
            sse += (p.mean - yi) * (p.mean - yi);
        }
        let rmse = (sse / x.len() as f64).sqrt();
        assert!(rmse < 0.08, "rmse = {rmse}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let rf = RandomForest::new(0);
        assert_eq!(rf.predict(&[0.5]).unwrap_err(), SurrogateError::NotFitted);
        assert_eq!(
            rf.predict_batch(&[vec![0.5]]).unwrap_err(),
            SurrogateError::NotFitted
        );
        assert!(!rf.is_fitted());
    }

    #[test]
    fn single_observation_is_handled() {
        let mut rf = RandomForest::new(1);
        rf.fit(&[vec![0.5, 0.5]], &[3.0]).unwrap();
        let p = rf.predict(&[0.1, 0.9]).unwrap();
        assert!((p.mean - 3.0).abs() < 1e-12);
        assert!(p.var >= 0.0);
    }

    #[test]
    fn constant_targets_predict_constant() {
        let x = grid_2d(5);
        let y = vec![2.5; x.len()];
        let mut rf = RandomForest::new(2);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict(&[0.2, 0.8]).unwrap();
        assert!((p.mean - 2.5).abs() < 1e-12);
        assert!(p.var <= 1e-6);
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        // Train on left half only; variance on the right should exceed
        // in-sample variance near training points.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 100.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (8.0 * p[0]).sin()).collect();
        let mut rf = RandomForest::new(3);
        rf.fit(&x, &y).unwrap();
        let near = rf.predict(&[0.2]).unwrap().var;
        let far = rf.predict(&[0.95]).unwrap().var;
        assert!(
            far >= near,
            "extrapolation var {far} should be >= interpolation var {near}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let x = grid_2d(6);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[1]).collect();
        let mut a = RandomForest::new(42);
        let mut b = RandomForest::new(42);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        for q in &x {
            assert_eq!(a.predict(q).unwrap(), b.predict(q).unwrap());
        }
    }

    #[test]
    fn parallel_fit_matches_serial_fit() {
        let x = grid_2d(10);
        let y: Vec<f64> = x
            .iter()
            .map(|p| (p[0] - 0.4).powi(2) + 0.3 * p[1])
            .collect();
        let mut serial = RandomForest::new(7);
        let mut parallel = RandomForest::new(7);
        serial.fit_with_threads(&x, &y, 1).unwrap();
        parallel.fit_with_threads(&x, &y, 4).unwrap();
        for q in &x {
            assert_eq!(serial.predict(q).unwrap(), parallel.predict(q).unwrap());
        }
    }

    #[test]
    fn predict_batch_matches_per_point_predict() {
        let x = grid_2d(8);
        let y: Vec<f64> = x.iter().map(|p| p[0].sin() + p[1]).collect();
        let mut rf = RandomForest::new(11);
        rf.fit(&x, &y).unwrap();
        let batch = rf.predict_batch(&x).unwrap();
        assert_eq!(batch.len(), x.len());
        for (q, b) in x.iter().zip(&batch) {
            assert_eq!(rf.predict(q).unwrap(), *b);
        }
    }

    #[test]
    fn refit_replaces_trees() {
        let mut rf = RandomForest::new(0);
        rf.fit(&[vec![0.0], vec![1.0]], &[0.0, 1.0]).unwrap();
        let before = rf.n_trees();
        rf.fit(&[vec![0.0], vec![1.0]], &[5.0, 5.0]).unwrap();
        assert_eq!(rf.n_trees(), before);
        assert!((rf.predict(&[0.5]).unwrap().mean - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nonfinite_rows_are_skipped_not_fatal() {
        // A NaN target, an infinite target, and a NaN input coordinate
        // are each dropped; the fit proceeds on the finite remainder and
        // matches a fit on the clean rows alone.
        let clean_x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let clean_y: Vec<f64> = clean_x.iter().map(|p| 2.0 * p[0]).collect();
        let mut dirty_x = clean_x.clone();
        let mut dirty_y = clean_y.clone();
        dirty_x.push(vec![0.5]);
        dirty_y.push(f64::NAN);
        dirty_x.push(vec![0.7]);
        dirty_y.push(f64::INFINITY);
        dirty_x.push(vec![f64::NAN]);
        dirty_y.push(0.3);
        let mut clean_rf = RandomForest::new(4);
        let mut dirty_rf = RandomForest::new(4);
        clean_rf.fit(&clean_x, &clean_y).unwrap();
        dirty_rf.fit(&dirty_x, &dirty_y).unwrap();
        assert_eq!(clean_rf.skipped_nonfinite(), 0);
        assert_eq!(dirty_rf.skipped_nonfinite(), 3);
        for q in &clean_x {
            assert_eq!(clean_rf.predict(q).unwrap(), dirty_rf.predict(q).unwrap());
        }
    }

    #[test]
    fn all_nonfinite_rows_is_an_error() {
        let mut rf = RandomForest::new(4);
        let err = rf.fit(&[vec![0.5], vec![0.6]], &[f64::NAN, f64::INFINITY]);
        assert_eq!(err, Err(SurrogateError::NonFiniteTarget));
        assert_eq!(rf.skipped_nonfinite(), 2);
        assert!(!rf.is_fitted());
    }

    #[test]
    fn ranks_recoverable_on_monotone_function() {
        // The forest should order clearly separated points correctly.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| 3.0 * p[0]).collect();
        let mut rf = RandomForest::new(9);
        rf.fit(&x, &y).unwrap();
        let lo = rf.predict(&[0.05]).unwrap().mean;
        let hi = rf.predict(&[0.95]).unwrap().mean;
        assert!(lo < hi);
    }

    /// Checks every tree of a fitted forest against its reference twin:
    /// same shape, same statistics, and the layout conditions the
    /// fixed-depth walk relies on.
    fn assert_layout_matches_reference(rf: &RandomForest, reference: &[reference::Tree]) {
        assert_eq!(rf.trees.len(), reference.len());
        for (tree, twin) in rf.trees.iter().zip(reference) {
            assert_eq!(tree.nodes.len(), twin.nodes.len());
            assert_eq!(tree.depth as usize, twin.depth_below(0));
            assert!(tree.depth as usize <= rf.config.max_depth);
            let mut leaves_seen = 0;
            for (id, (node, twin_node)) in tree.nodes.iter().zip(&twin.nodes).enumerate() {
                let id = id as u32;
                match twin_node {
                    reference::Node::Leaf(stats) => {
                        // Absorbing, and a coordinate every row has.
                        assert_eq!((node.left, node.right, node.dim), (id, id, 0));
                        assert_eq!(node.leaf, leaves_seen, "leaves are numbered in pre-order");
                        let stored = tree.leaves[node.leaf as usize];
                        assert_eq!(stored.mean.to_bits(), stats.mean.to_bits());
                        assert_eq!(stored.var.to_bits(), stats.var.to_bits());
                        leaves_seen += 1;
                    }
                    reference::Node::Split {
                        dim,
                        threshold,
                        left,
                        right,
                    } => {
                        assert_eq!(node.left as usize, *left);
                        assert_eq!(node.right as usize, *right);
                        assert_eq!(node.dim as usize, *dim);
                        assert_eq!(node.threshold.to_bits(), threshold.to_bits());
                        // Pre-order: the left child follows its parent, the
                        // right one comes after the whole left subtree.
                        assert_eq!(node.left, id + 1);
                        assert!(node.left < node.right);
                        assert!((node.right as usize) < tree.nodes.len());
                        assert!((node.dim as usize) < rf.dim);
                    }
                }
            }
            assert_eq!(leaves_seen as usize, tree.leaves.len());
        }
    }

    /// Query rows that probe every comparison outcome: uniform points,
    /// non-finite coordinates, and — from the fitted trees — values equal
    /// to a split threshold and one ulp either side of it.
    fn probing_queries(rf: &RandomForest, count: usize, rng: &mut StdRng) -> Vec<f64> {
        let splits: Vec<(usize, f64)> = rf
            .trees
            .iter()
            .flat_map(|t| &t.nodes)
            .filter(|n| n.left != n.right)
            .map(|n| (n.dim as usize, n.threshold))
            .collect();
        let mut rows = Vec::with_capacity(count * rf.dim);
        for _ in 0..count {
            let start = rows.len();
            rows.extend((0..rf.dim).map(|_| rng.gen::<f64>()));
            let row = &mut rows[start..];
            let d = rng.gen_range(0..rf.dim);
            match rng.gen_range(0..8) {
                0 => row[d] = f64::NAN,
                1 => row[d] = f64::INFINITY,
                2 => row[d] = f64::NEG_INFINITY,
                3..=5 if !splits.is_empty() => {
                    let (d, threshold) = splits[rng.gen_range(0..splits.len())];
                    row[d] = match rng.gen_range(0..3) {
                        0 => threshold,
                        1 => f64::from_bits(threshold.to_bits() + 1),
                        _ => f64::from_bits(threshold.to_bits().wrapping_sub(1)),
                    };
                }
                _ => {}
            }
        }
        rows
    }

    proptest! {
        /// The lockstep kernel against the walk it replaced, over forests
        /// that hit the depth cap, see duplicated rows and constant
        /// targets, with and without bootstrap.
        #[test]
        fn compact_forest_matches_reference_walk(
            seed in any::<u64>(),
            n in 1usize..300,
            dim in 1usize..12,
            max_depth in 1usize..18,
            n_trees in 1usize..5,
            bootstrap in any::<bool>(),
            duplicate_rows in any::<bool>(),
            constant_targets in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
                .collect();
            if duplicate_rows {
                for i in 0..n {
                    x[i] = x[i / 3].clone();
                }
            }
            let y: Vec<f64> = x
                .iter()
                .map(|row| if constant_targets { 1.5 } else { row.iter().sum() })
                .collect();
            let config = RandomForestConfig {
                n_trees,
                max_depth,
                bootstrap,
                ..Default::default()
            };
            let mut rf = RandomForest::with_config(config, seed);
            rf.fit(&x, &y).unwrap();
            let reference = reference::forest(&rf, &x, &y);
            assert_layout_matches_reference(&rf, &reference);

            let rows = probing_queries(&rf, 500, &mut rng);
            let expected: Vec<Prediction> = rows
                .chunks_exact(dim)
                .map(|q| reference::predict(&reference, config.min_variance, q))
                .collect();
            for (q, want) in rows.chunks_exact(dim).zip(&expected) {
                prop_assert_eq!(rf.predict(q).unwrap(), *want);
            }
            // Every way a batch divides into full blocks and a tail.
            let mut out = vec![Prediction::new(9.0, 9.0); 3];
            for len in [0, 1, 7, 8, 9, 500] {
                rf.predict_rows(&rows[..len * dim], dim, &mut out).unwrap();
                prop_assert_eq!(&out[..], &expected[..len]);
            }
        }
    }

    #[test]
    fn depth_cap_is_reached_and_recorded() {
        // A leaf above the cap holds at most two points (it would have
        // split otherwise), and eight levels make at most 256 leaves, so
        // 1000 distinct points force some branch into the cap.
        let x: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let config = RandomForestConfig {
            n_trees: 3,
            max_depth: 8,
            bootstrap: false,
            ..Default::default()
        };
        let mut rf = RandomForest::with_config(config, 5);
        rf.fit(&x, &y).unwrap();
        assert!(rf.trees.iter().all(|t| t.depth == 8));
        assert_layout_matches_reference(&rf, &reference::forest(&rf, &x, &y));
    }

    #[test]
    fn node_fits_its_budget() {
        // The cached forests are a large share of a tuning service's
        // memory; the old `enum` node took 40 bytes.
        assert!(std::mem::size_of::<Node>() <= 24);
    }

    #[test]
    fn wrong_width_queries_are_typed_errors() {
        let mut rf = RandomForest::new(1);
        rf.fit(&grid_2d(4), &[0.5; 16]).unwrap();
        let mismatch = |got| SurrogateError::DimensionMismatch { expected: 2, got };
        assert_eq!(rf.predict(&[0.5]).unwrap_err(), mismatch(1));
        assert_eq!(rf.predict(&[0.5, 0.5, 0.5]).unwrap_err(), mismatch(3));
        let mut out = Vec::new();
        assert_eq!(
            rf.predict_rows(&[0.5; 6], 3, &mut out).unwrap_err(),
            mismatch(3)
        );
        assert_eq!(
            rf.predict_rows(&[0.5; 6], 1, &mut out).unwrap_err(),
            mismatch(1)
        );
        assert_eq!(
            rf.predict_rows(&[0.5; 5], 2, &mut out).unwrap_err(),
            SurrogateError::RaggedInput
        );
        assert_eq!(
            rf.predict_batch(&[vec![0.5, 0.5], vec![0.5]]).unwrap_err(),
            SurrogateError::RaggedInput
        );
        assert_eq!(rf.predict_batch(&[vec![0.5]]).unwrap_err(), mismatch(1));
        // An empty batch has no rows to be the wrong width.
        assert_eq!(rf.predict_batch(&[]).unwrap(), vec![]);
    }
}
