//! CART decision trees: weighted Gini splitting, flat node storage, and the
//! per-node cover statistics the SHAP tree explainer requires.

use drcshap_ml::{Classifier, Dataset, ModelComplexity, Trainer};
use rand::seq::index::sample;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::ranks::RankStore;

/// Sentinel child index marking a leaf.
pub const LEAF: i32 = -1;

/// One node of a [`DecisionTree`], in flat array storage.
///
/// Internal nodes route `x[feature] <= threshold` to `left`, else `right`
/// (the scikit-learn convention). Leaves have `left == right == LEAF`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Split feature index (unused on leaves).
    pub feature: u32,
    /// Split threshold (unused on leaves).
    pub threshold: f32,
    /// Left child index, or [`LEAF`].
    pub left: i32,
    /// Right child index, or [`LEAF`].
    pub right: i32,
    /// Node output: weighted positive fraction of training samples here.
    pub value: f64,
    /// Training-weight mass reaching this node (SHAP's cover).
    pub cover: f64,
}

impl TreeNode {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.left == LEAF
    }
}

/// A trained CART decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<TreeNode>,
    n_features: usize,
}

impl DecisionTree {
    /// The flat node array (root at index 0).
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Maximum root-to-leaf depth (root counts as depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[TreeNode], i: usize) -> usize {
            let n = &nodes[i];
            if n.is_leaf() {
                0
            } else {
                1 + walk(nodes, n.left as usize).max(walk(nodes, n.right as usize))
            }
        }
        walk(&self.nodes, 0)
    }

    /// Mean leaf depth weighted by cover (expected prediction path length).
    pub fn mean_path_length(&self) -> f64 {
        fn walk(nodes: &[TreeNode], i: usize, depth: usize, acc: &mut (f64, f64)) {
            let n = &nodes[i];
            if n.is_leaf() {
                acc.0 += n.cover * depth as f64;
                acc.1 += n.cover;
            } else {
                walk(nodes, n.left as usize, depth + 1, acc);
                walk(nodes, n.right as usize, depth + 1, acc);
            }
        }
        let mut acc = (0.0, 0.0);
        walk(&self.nodes, 0, 0, &mut acc);
        if acc.1 > 0.0 {
            acc.0 / acc.1
        } else {
            0.0
        }
    }

    /// The probability-like output for one sample: the value of the leaf
    /// the sample routes to.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is smaller than the split features require.
    pub fn predict(&self, x: &[f32]) -> f64 {
        let mut i = 0usize;
        loop {
            let n = &self.nodes[i];
            if n.is_leaf() {
                return n.value;
            }
            i = if x[n.feature as usize] <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// NaN-tolerant prediction: a NaN split value (or a feature index past
    /// the end of a short vector) routes down the node's *default direction*
    /// — the child that received more training mass, XGBoost-style — so the
    /// result is always a leaf value from the training distribution, never a
    /// panic or a poisoned score. Infinities take their natural comparison
    /// branch. On NaN-free full-length inputs this is identical to
    /// [`DecisionTree::predict`].
    pub fn predict_nan_aware(&self, x: &[f32]) -> f64 {
        let mut i = 0usize;
        loop {
            let n = &self.nodes[i];
            if n.is_leaf() {
                return n.value;
            }
            let v = x.get(n.feature as usize).copied().unwrap_or(f32::NAN);
            i = if v.is_nan() {
                self.default_child(n)
            } else if v <= n.threshold {
                n.left as usize
            } else {
                n.right as usize
            };
        }
    }

    /// The default-direction child of an internal node: the one with the
    /// larger training cover (ties go left).
    fn default_child(&self, n: &TreeNode) -> usize {
        if self.nodes[n.left as usize].cover >= self.nodes[n.right as usize].cover {
            n.left as usize
        } else {
            n.right as usize
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }
}

impl Classifier for DecisionTree {
    fn score(&self, x: &[f32]) -> f64 {
        self.predict(x)
    }

    fn complexity(&self) -> ModelComplexity {
        // feature + threshold + two children + value per stored node.
        ModelComplexity {
            num_parameters: self.nodes.len() * 5,
            // One comparison + one index update per level, plus the leaf read.
            prediction_ops: (self.mean_path_length() * 2.0).ceil() as usize + 1,
        }
    }

    fn name(&self) -> &'static str {
        "CART"
    }

    fn expected_features(&self) -> Option<usize> {
        Some(self.n_features)
    }

    fn score_nan_aware(&self, x: &[f32]) -> f64 {
        self.predict_nan_aware(x)
    }
}

/// CART hyperparameters and trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeTrainer {
    /// Maximum depth; `None` grows unpruned trees (the paper's RF uses
    /// "500 unpruned decision trees").
    pub max_depth: Option<usize>,
    /// Minimum weighted samples to attempt a split.
    pub min_samples_split: f64,
    /// Minimum weighted samples per leaf.
    pub min_samples_leaf: f64,
    /// Features tried per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for TreeTrainer {
    fn default() -> Self {
        Self { max_depth: None, min_samples_split: 2.0, min_samples_leaf: 1.0, max_features: None }
    }
}

impl TreeTrainer {
    /// Fits a tree with explicit per-sample weights (bagging counts, boosting
    /// weights). Samples with zero weight are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != data.n_samples()` or all weights are zero.
    pub fn fit_weighted(&self, data: &Dataset, weights: &[f64], seed: u64) -> DecisionTree {
        self.fit_ranked(data, &RankStore::new(data), weights, seed)
    }

    /// [`TreeTrainer::fit_weighted`] over `store`, the ranks of `data`: an
    /// ensemble builds the store once and shares it across its trees.
    pub(crate) fn fit_ranked(
        &self,
        data: &Dataset,
        store: &RankStore,
        weights: &[f64],
        seed: u64,
    ) -> DecisionTree {
        assert_eq!(weights.len(), data.n_samples(), "weight count mismatch");
        debug_assert_eq!(store.n_samples(), data.n_samples(), "store ranks another dataset");
        let indices: Vec<u32> =
            (0..data.n_samples() as u32).filter(|&i| weights[i as usize] > 0.0).collect();
        assert!(!indices.is_empty(), "no samples with positive weight");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = indices.len();
        let mut builder = Builder {
            store,
            labels: data.labels(),
            weights,
            config: self,
            nodes: Vec::new(),
            rng: &mut rng,
            indices,
            spill: Vec::new(),
            node_w: Vec::new(),
            node_pos: Vec::new(),
            node_rank: Vec::new(),
            order: Vec::new(),
            counts: Vec::new(),
            keys: Vec::new(),
        };
        builder.build(0, n, 0);
        DecisionTree { nodes: builder.nodes, n_features: data.n_features() }
    }
}

impl Trainer for TreeTrainer {
    type Model = DecisionTree;

    fn fit(&self, data: &Dataset, seed: u64) -> DecisionTree {
        self.fit_weighted(data, &vec![1.0; data.n_samples()], seed)
    }

    fn name(&self) -> &'static str {
        "CART"
    }

    fn describe(&self) -> String {
        format!(
            "CART(depth={:?}, min_split={}, min_leaf={}, max_feat={:?})",
            self.max_depth, self.min_samples_split, self.min_samples_leaf, self.max_features
        )
    }
}

/// Grows one tree over a [`RankStore`].
///
/// Each node owns a range of `indices`, ascending by sample index: stable
/// partitioning keeps every child's range in the order the parent had.
/// The per-node buffers are reused by every node of the tree.
struct Builder<'a, R: Rng> {
    store: &'a RankStore,
    labels: &'a [bool],
    weights: &'a [f64],
    config: &'a TreeTrainer,
    nodes: Vec<TreeNode>,
    rng: &'a mut R,
    indices: Vec<u32>,
    /// The right-hand samples while a range is partitioned.
    spill: Vec<u32>,
    /// The node's weights and positive-label weights, by node position.
    node_w: Vec<f64>,
    node_pos: Vec<f64>,
    /// The searched feature's rank at each node position.
    node_rank: Vec<u32>,
    /// Node positions in stable rank order.
    order: Vec<u32>,
    counts: Vec<u32>,
    keys: Vec<u64>,
}

impl<R: Rng> Builder<'_, R> {
    /// Recursively builds the subtree over `indices[lo..hi]`; returns its
    /// node index.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let (total_w, pos_w) = self.mass(lo, hi);
        let value = if total_w > 0.0 { pos_w / total_w } else { 0.0 };
        let node_index = self.nodes.len();
        self.nodes.push(TreeNode {
            feature: 0,
            threshold: 0.0,
            left: LEAF,
            right: LEAF,
            value,
            cover: total_w,
        });

        let pure = pos_w <= 1e-12 || (total_w - pos_w) <= 1e-12;
        let depth_capped = self.config.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || total_w < self.config.min_samples_split {
            return node_index;
        }
        let Some((feature, threshold)) = self.best_split(lo, hi, total_w, pos_w) else {
            return node_index;
        };

        let mid = self.partition(lo, hi, feature as usize, threshold);
        if mid == lo || mid == hi {
            return node_index;
        }
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[node_index].feature = feature;
        self.nodes[node_index].threshold = threshold;
        self.nodes[node_index].left = left as i32;
        self.nodes[node_index].right = right as i32;
        node_index
    }

    fn mass(&self, lo: usize, hi: usize) -> (f64, f64) {
        let mut total = 0.0;
        let mut pos = 0.0;
        for &i in &self.indices[lo..hi] {
            let w = self.weights[i as usize];
            total += w;
            if self.labels[i as usize] {
                pos += w;
            }
        }
        (total, pos)
    }

    /// Stably moves the samples of `indices[lo..hi]` whose `feature` value
    /// is `<= threshold` to the front of the range; returns where they end.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f32) -> usize {
        let ranks = self.store.ranks(feature);
        let values = self.store.values(feature);
        self.spill.clear();
        let mut mid = lo;
        for p in lo..hi {
            let i = self.indices[p];
            if values[ranks[i as usize] as usize] <= threshold {
                self.indices[mid] = i;
                mid += 1;
            } else {
                self.spill.push(i);
            }
        }
        self.indices[mid..hi].copy_from_slice(&self.spill);
        mid
    }

    /// The best (feature, threshold) by weighted Gini impurity decrease.
    fn best_split(&mut self, lo: usize, hi: usize, total_w: f64, pos_w: f64) -> Option<(u32, f32)> {
        let m = self.store.n_features();
        let k = self.config.max_features.unwrap_or(m).min(m);
        let features: Vec<usize> =
            if k == m { (0..m).collect() } else { sample(self.rng, m, k).into_iter().collect() };

        self.node_w.clear();
        self.node_pos.clear();
        for &i in &self.indices[lo..hi] {
            let w = self.weights[i as usize];
            self.node_w.push(w);
            self.node_pos.push(if self.labels[i as usize] { w } else { 0.0 });
        }
        let parent_gini = gini(pos_w, total_w);
        let min_leaf = self.config.min_samples_leaf;

        let mut best: Option<(f64, u32, f32)> = None;
        for f in features {
            let values = self.store.values(f);
            // Equal values are never a threshold, but two NaNs are unequal:
            // only a constant NaN feature can still split.
            if values.len() == 1 && !values[0].is_nan() {
                continue;
            }
            self.order_by_rank(lo, hi, f);
            let (order, node_rank) = (&self.order, &self.node_rank);
            let mut left_w = 0.0;
            let mut left_pos = 0.0;
            let mut next_v = values[node_rank[order[0] as usize] as usize];
            for pair in order.windows(2) {
                let p = pair[0] as usize;
                left_w += self.node_w[p];
                left_pos += self.node_pos[p];
                let v = next_v;
                next_v = values[node_rank[pair[1] as usize] as usize];
                // `==`, not the ranks: two NaNs of one rank are a candidate,
                // and `-0.0` next to `+0.0` is not.
                if v == next_v {
                    continue; // not a valid threshold between distinct values
                }
                let right_w = total_w - left_w;
                let right_pos = pos_w - left_pos;
                if left_w < min_leaf || right_w < min_leaf {
                    continue;
                }
                let score = parent_gini
                    - (left_w / total_w) * gini(left_pos, left_w)
                    - (right_w / total_w) * gini(right_pos, right_w);
                // Midpoint threshold between distinct values.
                let threshold = (v + next_v) / 2.0;
                // Guard against f32 midpoint rounding up to next_v.
                let threshold = if threshold >= next_v { v } else { threshold };
                if best.is_none_or(|(s, _, _)| score > s) && score > 1e-12 {
                    best = Some((score, f as u32, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Fills `order` with the node positions `0..hi - lo` sorted stably by
    /// feature `f`'s rank: a counting sort when the feature's distinct
    /// values number at most twice the node's samples, else a sort of
    /// `(rank, position)` keys, which are unique.
    fn order_by_rank(&mut self, lo: usize, hi: usize, f: usize) {
        let ranks = self.store.ranks(f);
        let distinct = self.store.values(f).len();
        let n = hi - lo;
        self.node_rank.clear();
        self.node_rank.extend(self.indices[lo..hi].iter().map(|&i| ranks[i as usize]));
        self.order.clear();
        if distinct <= 2 * n {
            self.counts.clear();
            self.counts.resize(distinct, 0);
            for &r in &self.node_rank {
                self.counts[r as usize] += 1;
            }
            let mut start = 0;
            for c in &mut self.counts {
                let count = *c;
                *c = start;
                start += count;
            }
            self.order.resize(n, 0);
            for (p, &r) in self.node_rank.iter().enumerate() {
                let slot = &mut self.counts[r as usize];
                self.order[*slot as usize] = p as u32;
                *slot += 1;
            }
        } else {
            self.keys.clear();
            self.keys.extend(
                self.node_rank.iter().enumerate().map(|(p, &r)| u64::from(r) << 32 | p as u64),
            );
            self.keys.sort_unstable();
            self.order.extend(self.keys.iter().map(|&key| key as u32));
        }
    }
}

/// Gini impurity of a binary node with `pos` positive mass out of `total`.
fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// The comparison-sort CART builder the rank builder replaced, kept as the
/// reference its node bits are tested against: it gathers each sampled
/// feature's `(value, weight, label weight)` column at every node and
/// stable-sorts it with `total_cmp`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// [`TreeTrainer::fit_weighted`] by the comparison-sort builder.
    pub(crate) fn fit_weighted(
        config: &TreeTrainer,
        data: &Dataset,
        weights: &[f64],
        seed: u64,
    ) -> DecisionTree {
        assert_eq!(weights.len(), data.n_samples(), "weight count mismatch");
        let indices: Vec<u32> =
            (0..data.n_samples() as u32).filter(|&i| weights[i as usize] > 0.0).collect();
        assert!(!indices.is_empty(), "no samples with positive weight");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut builder = Builder { data, weights, config, nodes: Vec::new(), rng: &mut rng };
        builder.build(indices, 0);
        DecisionTree { nodes: builder.nodes, n_features: data.n_features() }
    }

    struct Builder<'a, R: Rng> {
        data: &'a Dataset,
        weights: &'a [f64],
        config: &'a TreeTrainer,
        nodes: Vec<TreeNode>,
        rng: &'a mut R,
    }

    impl<R: Rng> Builder<'_, R> {
        fn build(&mut self, indices: Vec<u32>, depth: usize) -> usize {
            let (total_w, pos_w) = self.mass(&indices);
            let value = if total_w > 0.0 { pos_w / total_w } else { 0.0 };
            let node_index = self.nodes.len();
            self.nodes.push(TreeNode {
                feature: 0,
                threshold: 0.0,
                left: LEAF,
                right: LEAF,
                value,
                cover: total_w,
            });

            let pure = pos_w <= 1e-12 || (total_w - pos_w) <= 1e-12;
            let depth_capped = self.config.max_depth.is_some_and(|d| depth >= d);
            if pure || depth_capped || total_w < self.config.min_samples_split {
                return node_index;
            }
            let Some((feature, threshold)) = self.best_split(&indices) else {
                return node_index;
            };

            let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = indices
                .into_iter()
                .partition(|&i| self.data.row(i as usize)[feature as usize] <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return node_index;
            }
            let left = self.build(left_idx, depth + 1);
            let right = self.build(right_idx, depth + 1);
            self.nodes[node_index].feature = feature;
            self.nodes[node_index].threshold = threshold;
            self.nodes[node_index].left = left as i32;
            self.nodes[node_index].right = right as i32;
            node_index
        }

        fn mass(&self, indices: &[u32]) -> (f64, f64) {
            let mut total = 0.0;
            let mut pos = 0.0;
            for &i in indices {
                let w = self.weights[i as usize];
                total += w;
                if self.data.label(i as usize) {
                    pos += w;
                }
            }
            (total, pos)
        }

        fn best_split(&mut self, indices: &[u32]) -> Option<(u32, f32)> {
            let m = self.data.n_features();
            let k = self.config.max_features.unwrap_or(m).min(m);
            let features: Vec<usize> = if k == m {
                (0..m).collect()
            } else {
                sample(self.rng, m, k).into_iter().collect()
            };

            let (total_w, pos_w) = self.mass(indices);
            let parent_gini = gini(pos_w, total_w);
            let min_leaf = self.config.min_samples_leaf;

            let mut best: Option<(f64, u32, f32)> = None;
            let mut column: Vec<(f32, f64, f64)> = Vec::with_capacity(indices.len());
            for f in features {
                column.clear();
                for &i in indices {
                    let w = self.weights[i as usize];
                    let label_w = if self.data.label(i as usize) { w } else { 0.0 };
                    column.push((self.data.row(i as usize)[f], w, label_w));
                }
                column.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut left_w = 0.0;
                let mut left_pos = 0.0;
                for idx in 0..column.len() - 1 {
                    let (v, w, lw) = column[idx];
                    left_w += w;
                    left_pos += lw;
                    let next_v = column[idx + 1].0;
                    if v == next_v {
                        continue;
                    }
                    let right_w = total_w - left_w;
                    let right_pos = pos_w - left_pos;
                    if left_w < min_leaf || right_w < min_leaf {
                        continue;
                    }
                    let score = parent_gini
                        - (left_w / total_w) * gini(left_pos, left_w)
                        - (right_w / total_w) * gini(right_pos, right_w);
                    let threshold = (v + next_v) / 2.0;
                    let threshold = if threshold >= next_v { v } else { threshold };
                    if best.is_none_or(|(s, _, _)| score > s) && score > 1e-12 {
                        best = Some((score, f as u32, threshold));
                    }
                }
            }
            best.map(|(_, f, t)| (f, t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dataset(rows: &[(&[f32], bool)]) -> Dataset {
        let m = rows[0].0.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (r, label) in rows {
            x.extend_from_slice(r);
            y.push(*label);
        }
        let n = y.len();
        Dataset::from_parts(x, y, vec![0; n], m)
    }

    #[test]
    fn splits_a_separable_feature() {
        let data = dataset(&[
            (&[0.0, 9.0], false),
            (&[0.1, 8.0], false),
            (&[0.9, 7.0], true),
            (&[1.0, 9.5], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        assert_eq!(tree.predict(&[0.05, 0.0]), 0.0);
        assert_eq!(tree.predict(&[0.95, 0.0]), 1.0);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn learns_xor_with_enough_depth() {
        let data = dataset(&[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], false),
            (&[0.0, 0.1], false),
            (&[0.1, 1.0], true),
            (&[1.0, 0.1], true),
            (&[0.9, 1.0], false),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        assert!(tree.predict(&[0.0, 1.0]) > 0.5);
        assert!(tree.predict(&[1.0, 1.0]) < 0.5);
        assert!(tree.predict(&[0.0, 0.0]) < 0.5);
    }

    #[test]
    fn max_depth_limits_growth() {
        let data = dataset(&[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], false),
        ]);
        let stump = TreeTrainer { max_depth: Some(1), ..TreeTrainer::default() }.fit(&data, 0);
        assert!(stump.depth() <= 1);
    }

    #[test]
    fn covers_sum_correctly() {
        let data = dataset(&[(&[0.0], false), (&[0.2], false), (&[0.8], true), (&[1.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let root = &tree.nodes()[0];
        assert_eq!(root.cover, 4.0);
        // Children covers sum to parent cover.
        for n in tree.nodes() {
            if !n.is_leaf() {
                let l = tree.nodes()[n.left as usize].cover;
                let r = tree.nodes()[n.right as usize].cover;
                assert!((l + r - n.cover).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn weighted_fit_respects_weights() {
        // The single positive has huge weight: the root value reflects it.
        let data = dataset(&[(&[0.0], false), (&[1.0], true)]);
        let tree = TreeTrainer { max_depth: Some(0), ..TreeTrainer::default() }.fit_weighted(
            &data,
            &[1.0, 9.0],
            0,
        );
        assert!((tree.nodes()[0].value - 0.9).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_samples_are_ignored() {
        let data = dataset(&[(&[0.0], false), (&[1.0], true), (&[0.5], true)]);
        let tree = TreeTrainer::default().fit_weighted(&data, &[1.0, 1.0, 0.0], 0);
        assert_eq!(tree.nodes()[0].cover, 2.0);
    }

    #[test]
    fn pure_nodes_do_not_split() {
        let data = dataset(&[(&[0.0], true), (&[1.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.predict(&[0.5]), 1.0);
    }

    #[test]
    fn complexity_counts_nodes() {
        let data = dataset(&[(&[0.0], false), (&[0.4], false), (&[0.6], true), (&[1.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let c = tree.complexity();
        assert_eq!(c.num_parameters, tree.nodes().len() * 5);
        assert!(c.prediction_ops >= 2);
    }

    #[test]
    fn nan_aware_matches_plain_on_finite_inputs() {
        let data = dataset(&[
            (&[0.0, 9.0], false),
            (&[0.1, 8.0], false),
            (&[0.9, 7.0], true),
            (&[1.0, 9.5], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        for q in [[0.05f32, 7.5], [0.95, 9.0], [0.5, 8.2]] {
            assert_eq!(tree.predict_nan_aware(&q), tree.predict(&q));
        }
    }

    #[test]
    fn nan_routes_down_the_heavier_child() {
        // Three negatives below the split, one positive above: the default
        // direction at the root is the heavier left (negative) child.
        let data = dataset(&[(&[0.0], false), (&[0.1], false), (&[0.2], false), (&[1.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let p = tree.predict_nan_aware(&[f32::NAN]);
        assert_eq!(p, 0.0, "NaN should follow the 3-sample child");
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn short_vectors_degrade_to_default_direction() {
        let data = dataset(&[
            (&[0.0, 0.3], false),
            (&[0.2, 0.1], false),
            (&[0.8, 0.9], true),
            (&[1.0, 0.7], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        // Empty and short inputs still land on a leaf value.
        for x in [&[][..], &[0.9][..]] {
            let p = tree.predict_nan_aware(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn infinities_take_their_comparison_branch() {
        let data = dataset(&[(&[0.0], false), (&[1.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        assert_eq!(tree.predict_nan_aware(&[f32::NEG_INFINITY]), tree.predict(&[-1e30]));
        assert_eq!(tree.predict_nan_aware(&[f32::INFINITY]), tree.predict(&[1e30]));
    }

    /// Every node's bits: feature, threshold, children, value and cover.
    fn node_bits(tree: &DecisionTree) -> Vec<(u32, u32, i32, i32, u64, u64)> {
        tree.nodes()
            .iter()
            .map(|n| {
                (
                    n.feature,
                    n.threshold.to_bits(),
                    n.left,
                    n.right,
                    n.value.to_bits(),
                    n.cover.to_bits(),
                )
            })
            .collect()
    }

    /// Values that collide: NaNs of both signs, ±0.0, ±inf, arbitrary bit
    /// patterns, a few tied values and continuous draws.
    fn adversarial_value(rng: &mut ChaCha8Rng, ties: usize) -> f32 {
        const SPECIAL: [f32; 7] =
            [f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0];
        match rng.gen_range(0..4) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => rng.gen_range(0..ties) as f32 / 4.0,
            2 => f32::from_bits(rng.gen()),
            _ => rng.gen_range(-1.0f32..1.0),
        }
    }

    /// A dataset whose columns mix constant (NaN included), heavily tied,
    /// adversarial and continuous features, with weights that are all one,
    /// bootstrap-like integer counts with zeros, or fractional.
    fn adversarial_fit_input(seed: u64, rows: usize, features: usize) -> (Dataset, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let kinds: Vec<u32> = (0..features).map(|_| rng.gen_range(0..4)).collect();
        let constants: Vec<f32> = (0..features).map(|_| adversarial_value(&mut rng, 3)).collect();
        let mut x = Vec::with_capacity(rows * features);
        for _ in 0..rows {
            for f in 0..features {
                x.push(match kinds[f] {
                    0 => constants[f],
                    1 => rng.gen_range(0..3) as f32,
                    2 => adversarial_value(&mut rng, 5),
                    _ => rng.gen_range(-1.0f32..1.0),
                });
            }
        }
        let y: Vec<bool> = (0..rows).map(|_| rng.gen_bool(0.4)).collect();
        let mut weights: Vec<f64> = match rng.gen_range(0..3) {
            0 => vec![1.0; rows],
            1 => (0..rows).map(|_| rng.gen_range(0..4) as f64).collect(),
            _ => (0..rows)
                .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.0..2.0) })
                .collect(),
        };
        if weights.iter().all(|&w| w <= 0.0) {
            weights[0] = 1.0;
        }
        (Dataset::from_parts(x, y, vec![0; rows], features), weights)
    }

    fn assert_matches_reference(config: &TreeTrainer, data: &Dataset, weights: &[f64], seed: u64) {
        let ranked = config.fit_weighted(data, weights, seed);
        let expected = reference::fit_weighted(config, data, weights, seed);
        assert_eq!(node_bits(&ranked), node_bits(&expected), "{config:?} seed {seed}");
    }

    #[test]
    fn edge_shapes_match_the_reference() {
        let nan = f32::NAN;
        let cases: [(&[f32], &[bool], usize); 5] = [
            (&[0.5], &[true], 1),
            (&[nan, nan], &[true, false], 1),
            (&[nan, -nan, nan, -nan], &[true, false, false, true], 1),
            (&[-0.0, 0.0, -0.0, 0.0], &[true, false, true, false], 1),
            (&[nan, 1.0, nan, 2.0, nan, 1.0], &[true, false, false], 2),
        ];
        for (x, y, m) in cases {
            let data = Dataset::from_parts(x.to_vec(), y.to_vec(), vec![0; y.len()], m);
            for weights in [vec![1.0; y.len()], vec![2.5; y.len()]] {
                assert_matches_reference(&TreeTrainer::default(), &data, &weights, 0);
            }
        }
    }

    proptest! {
        /// The rank builder grows the comparison-sort reference's tree, bit
        /// for bit, on adversarial values, weights and settings.
        #[test]
        fn prop_rank_builder_matches_reference(
            seed in any::<u64>(),
            rows in 1usize..60,
            features in 1usize..8,
            depth in 0usize..8,
            max_features in 0usize..8,
            leaf in 0usize..5
        ) {
            let (data, weights) = adversarial_fit_input(seed, rows, features);
            let config = TreeTrainer {
                max_depth: (depth < 6).then_some(depth),
                min_samples_split: [2.0, 0.5, 4.0][leaf % 3],
                min_samples_leaf: [1.0, 0.5, 1.5, 2.5, 3.0][leaf],
                max_features: (max_features > 0).then_some(max_features),
            };
            let ranked = config.fit_weighted(&data, &weights, seed);
            let expected = reference::fit_weighted(&config, &data, &weights, seed);
            prop_assert_eq!(node_bits(&ranked), node_bits(&expected), "{:?}", config);
        }

        /// Training accuracy is perfect on duplicate-free unpruned fits.
        #[test]
        fn prop_unpruned_tree_memorizes(
            vals in prop::collection::hash_set(0u32..1000, 4..40)
        ) {
            let rows: Vec<(f32, bool)> = vals
                .into_iter()
                .map(|v| (v as f32 / 1000.0, v % 3 == 0))
                .collect();
            let mut x = Vec::new();
            let mut y = Vec::new();
            for &(v, l) in &rows {
                x.push(v);
                y.push(l);
            }
            let n = y.len();
            let data = Dataset::from_parts(x, y, vec![0; n], 1);
            let tree = TreeTrainer::default().fit(&data, 0);
            for &(v, l) in &rows {
                let p = tree.predict(&[v]);
                prop_assert_eq!(p > 0.5, l, "value {} label {}", v, l);
            }
        }

        /// Predictions are always valid probabilities.
        #[test]
        fn prop_predictions_are_probabilities(
            seed in any::<u64>(),
            queries in prop::collection::vec(-2.0f32..2.0, 1..20)
        ) {
            let data = dataset(&[
                (&[0.1, 0.5], false),
                (&[0.3, 0.1], true),
                (&[0.7, 0.9], false),
                (&[0.9, 0.3], true),
                (&[0.2, 0.2], true),
            ]);
            let tree = TreeTrainer {
                max_features: Some(1),
                ..TreeTrainer::default()
            }
            .fit(&data, seed);
            for q in queries {
                let p = tree.predict(&[q, -q]);
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
