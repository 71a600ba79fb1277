//! The compiled inference layout: a [`RandomForest`] flattened into one
//! packed node array and walked eight trees at a time.
//!
//! [`RandomForest::predict_proba`] walks `Vec<TreeNode>` nodes of 32 bytes
//! each, touching the `cover` field it never needs at inference time, one
//! tree after another: every step waits on the load the step before it
//! chose, and branches on a compare the predictor often misses. The compiled
//! layout packs each node's hot fields into one 16-byte node (four per
//! cache line), lays every tree out depth-first, keeps the `f64` leaf
//! values in their own slab, and precomputes each internal node's NaN
//! default direction, so the NaN-aware path pays no `cover` comparison per
//! visit. Child indices are global, so traversal never re-bases per tree.
//!
//! A row is scored in groups of eight consecutive trees. Each group first
//! steps all its lanes in lockstep a fixed number of times, picking
//! children without a branch, so the lanes' independent load chains
//! overlap; then each lane finishes alone with the plain walk. A leaf
//! points both children at itself, so a lane that reaches its leaf early
//! stays put. The lockstep count is the smallest cover-weighted mean leaf
//! depth among the group's trees (rounded down), fixed at compile time.
//!
//! Scoring is bit-equivalent to the reference paths by construction: for
//! every sample, leaf values are accumulated in tree order into an `f64`
//! and divided by the tree count — the exact operation sequence of
//! [`RandomForest::predict_proba`] / `predict_proba_nan_aware`. The
//! property tests in `drcshap-serve`'s `tests/compiled_equivalence.rs`
//! assert equality down to the bit pattern, NaN-laced inputs included.

use crate::{RandomForest, TreeNode};

/// Trees a row walks in lockstep.
const LANES: usize = 8;

/// One tree node. A leaf has feature 0 and `left == right ==` its own
/// index, so a step past a leaf reads `x[0]` and stays on the leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(16))]
struct Node {
    feature: u32,
    threshold: f32,
    left: u32,
    right: u32,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.left == self.right
    }

    /// `left` if `go_left`, else `right`, selected with a mask rather
    /// than a branch.
    #[inline(always)]
    fn child(&self, go_left: bool) -> u32 {
        let mask = u32::from(go_left).wrapping_neg();
        (self.left & mask) | (self.right & !mask)
    }
}

/// Up to [`LANES`] consecutive trees walked together.
#[derive(Debug, Clone, PartialEq)]
struct Group {
    /// Root of each lane. Lanes past `len` start, and stay, on a leaf.
    roots: [u32; LANES],
    /// Real trees in the group (`LANES` except in a last, partial group).
    len: usize,
    /// Lockstep steps before each lane finishes alone.
    steps: u32,
}

/// A [`RandomForest`] compiled for batched inference: one packed node
/// array, trees in depth-first order, walked eight trees at a time, with
/// precomputed NaN default directions.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledForest {
    n_features: usize,
    n_trees: usize,
    nodes: Vec<Node>,
    /// Node output value per node (read only at leaves).
    values: Vec<f64>,
    /// Whether a NaN routes left at this node (the heavier-cover child,
    /// ties left — matching `DecisionTree::predict_nan_aware`).
    default_left: Vec<bool>,
    groups: Vec<Group>,
}

impl CompiledForest {
    /// Flattens `forest` into the compiled layout. The forest itself is
    /// not consumed; compilation is a one-time cost of one pass over the
    /// nodes.
    pub fn compile(forest: &RandomForest) -> Self {
        let total = forest.total_nodes();
        let trees = forest.trees();
        let mut compiled = CompiledForest {
            n_features: forest.n_features(),
            n_trees: trees.len(),
            nodes: Vec::with_capacity(total),
            values: Vec::with_capacity(total),
            default_left: Vec::with_capacity(total),
            groups: Vec::with_capacity(trees.len().div_ceil(LANES)),
        };
        let mut roots = Vec::with_capacity(trees.len());
        for tree in trees {
            roots.push(compiled.nodes.len() as u32);
            compiled.push_tree(tree.nodes());
        }
        // Every tree has a leaf, so a nonempty forest has one to pad with.
        let pad = compiled.nodes.iter().position(Node::is_leaf).unwrap_or(0) as u32;
        for (group, roots) in trees.chunks(LANES).zip(roots.chunks(LANES)) {
            let mut lanes = [pad; LANES];
            lanes[..roots.len()].copy_from_slice(roots);
            // A mean leaf depth is at most the tree's depth, except under
            // covers no trainer writes (negative ones in an edited
            // artifact), which must not ask for billions of steps.
            let depth = group
                .iter()
                .map(|t| t.mean_path_length().min(t.depth() as f64))
                .fold(f64::INFINITY, f64::min);
            compiled.groups.push(Group { roots: lanes, len: roots.len(), steps: depth as u32 });
        }
        compiled
    }

    /// Appends one tree in depth-first order: a node, its left subtree,
    /// then its right subtree, so a left child always follows its parent.
    fn push_tree(&mut self, tree: &[TreeNode]) {
        // (source index, packed index of the parent whose right child it is)
        let mut stack = vec![(0usize, None::<usize>)];
        while let Some((src, right_of)) = stack.pop() {
            let at = self.nodes.len() as u32;
            if let Some(parent) = right_of {
                self.nodes[parent].right = at;
            }
            let node = &tree[src];
            self.values.push(node.value);
            if node.is_leaf() {
                self.nodes.push(Node { feature: 0, threshold: 0.0, left: at, right: at });
                self.default_left.push(true);
            } else {
                let (left, right) = (node.left as usize, node.right as usize);
                // `right` is patched in when the right child is placed.
                let (feature, threshold) = (node.feature, node.threshold);
                self.nodes.push(Node { feature, threshold, left: at + 1, right: 0 });
                self.default_left.push(tree[left].cover >= tree[right].cover);
                stack.push((right, Some(at as usize)));
                stack.push((left, None));
            }
        }
    }

    /// Number of features the source forest was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of trees in the compiled ensemble.
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Total node count across all trees.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Scores one sample — bit-identical to
    /// [`RandomForest::predict_proba`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than a split feature index requires.
    pub fn score_one(&self, x: &[f32]) -> f64 {
        self.score_row::<false>(x)
    }

    /// NaN-tolerant [`CompiledForest::score_one`] — bit-identical to
    /// [`RandomForest::predict_proba_nan_aware`]: NaN values (and feature
    /// indices past the end of a short vector) route down the precomputed
    /// default direction; infinities take their natural comparison branch.
    pub fn score_one_nan_aware(&self, x: &[f32]) -> f64 {
        self.score_row::<true>(x)
    }

    /// Scores a batch of samples, one row after another. `flat` is
    /// row-major with exactly `n_features` values per row; returns one
    /// score per row, each bit-identical to
    /// [`RandomForest::predict_proba`] on that row.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of `n_features`.
    pub fn score_batch(&self, flat: &[f32]) -> Vec<f64> {
        self.score_batch_impl::<false>(flat)
    }

    /// NaN-tolerant [`CompiledForest::score_batch`] — each row scored
    /// bit-identically to [`RandomForest::predict_proba_nan_aware`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of `n_features`.
    pub fn score_batch_nan_aware(&self, flat: &[f32]) -> Vec<f64> {
        self.score_batch_impl::<true>(flat)
    }

    fn score_batch_impl<const NAN_AWARE: bool>(&self, flat: &[f32]) -> Vec<f64> {
        assert_eq!(
            flat.len() % self.n_features,
            0,
            "flat batch length {} is not a multiple of the feature count {}",
            flat.len(),
            self.n_features
        );
        flat.chunks_exact(self.n_features).map(|x| self.score_row::<NAN_AWARE>(x)).collect()
    }

    /// Scores one row: each group's lanes step together, then finish one
    /// by one, adding their leaf values in tree order.
    #[inline]
    fn score_row<const NAN_AWARE: bool>(&self, x: &[f32]) -> f64 {
        let mut sum = 0.0f64;
        for group in &self.groups {
            let mut at = group.roots;
            for _ in 0..group.steps {
                for lane in &mut at {
                    *lane = self.step::<NAN_AWARE>(*lane, x);
                }
            }
            for &lane in &at[..group.len] {
                sum += self.finish::<NAN_AWARE>(lane, x);
            }
        }
        sum / self.n_trees as f64
    }

    /// Routes `x` from node `i` to a leaf and returns its value.
    #[inline]
    fn finish<const NAN_AWARE: bool>(&self, mut i: u32, x: &[f32]) -> f64 {
        while !self.nodes[i as usize].is_leaf() {
            i = self.step::<NAN_AWARE>(i, x);
        }
        self.values[i as usize]
    }

    /// The child of node `i` that `x` routes to: `x[f] <= threshold` goes
    /// left, anything else (NaN included) right — unless `NAN_AWARE` and
    /// the value is NaN or missing, which takes the default direction.
    #[inline(always)]
    fn step<const NAN_AWARE: bool>(&self, i: u32, x: &[f32]) -> u32 {
        let node = &self.nodes[i as usize];
        let f = node.feature as usize;
        let go_left = if NAN_AWARE {
            let v = x.get(f).copied().unwrap_or(f32::NAN);
            (v <= node.threshold) | (v.is_nan() & self.default_left[i as usize])
        } else {
            x[f] <= node.threshold
        };
        node.child(go_left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn noisy(n: usize, seed: u64) -> Dataset {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            let c: f32 = rng.gen_range(0.0..1.0);
            x.extend_from_slice(&[a, b, c]);
            y.push(a > 0.6 || (b > 0.8 && c > 0.3));
        }
        Dataset::from_parts(x, y, vec![0; n], 3)
    }

    #[test]
    fn compile_preserves_shape() {
        let data = noisy(200, 1);
        let rf = RandomForestTrainer { n_trees: 12, ..Default::default() }.fit(&data, 5);
        let cf = CompiledForest::compile(&rf);
        assert_eq!(cf.n_trees(), 12);
        assert_eq!(cf.n_features(), 3);
        assert_eq!(cf.total_nodes(), rf.total_nodes());
        // One full group of eight and a partial group of four.
        assert_eq!(cf.groups.iter().map(|g| g.len).collect::<Vec<_>>(), [8, 4]);
    }

    #[test]
    fn layout_is_depth_first_with_self_looping_leaves() {
        let data = noisy(200, 3);
        let rf = RandomForestTrainer { n_trees: 3, ..Default::default() }.fit(&data, 2);
        let cf = CompiledForest::compile(&rf);
        assert_eq!(std::mem::size_of::<Node>(), 16);
        for (i, node) in cf.nodes.iter().enumerate() {
            if node.is_leaf() {
                assert_eq!((node.left, node.right, node.feature), (i as u32, i as u32, 0));
            } else {
                // Depth-first: the left child follows its parent.
                assert_eq!(node.left, i as u32 + 1);
                assert!(node.right > node.left);
            }
        }
        // One group of three: it steps as deep as its shallowest tree.
        let shallowest =
            rf.trees().iter().map(|t| t.mean_path_length()).fold(f64::INFINITY, f64::min);
        assert_eq!(cf.groups.len(), 1);
        assert!(cf.groups[0].steps >= 1 && f64::from(cf.groups[0].steps) <= shallowest);
    }

    #[test]
    fn lockstep_steps_never_exceed_the_shallowest_depth() {
        // Leaf covers of -1e12 + 1 at depth 1 and 1e12 at depth 2 put the
        // cover-weighted mean depth near 1e12; the tree is two splits deep.
        let tree: crate::DecisionTree = serde_json::from_str(
            r#"{"nodes": [
                {"feature": 0, "threshold": 0.5, "left": 1, "right": 2, "value": 0.5, "cover": 1.0},
                {"feature": 0, "threshold": 0.0, "left": -1, "right": -1, "value": 0.0, "cover": -999999999999.0},
                {"feature": 0, "threshold": 0.8, "left": 3, "right": 4, "value": 0.7, "cover": 1000000000000.0},
                {"feature": 0, "threshold": 0.0, "left": -1, "right": -1, "value": 1.0, "cover": 1000000000000.0},
                {"feature": 0, "threshold": 0.0, "left": -1, "right": -1, "value": 0.25, "cover": 0.0}
            ], "n_features": 1}"#,
        )
        .expect("tree parses");
        assert!(tree.mean_path_length() > 1e6);
        let rf = RandomForest::from_trees(vec![tree], 1);
        let cf = CompiledForest::compile(&rf);
        assert_eq!(cf.groups[0].steps, 2);
        for x in [0.2f32, 0.7, 0.9] {
            assert_eq!(cf.score_one(&[x]).to_bits(), rf.predict_proba(&[x]).to_bits());
        }
    }

    #[test]
    fn score_one_is_bit_identical() {
        let data = noisy(300, 2);
        let rf = RandomForestTrainer { n_trees: 20, ..Default::default() }.fit(&data, 3);
        let cf = CompiledForest::compile(&rf);
        for probe in [[0.1f32, 0.9, 0.5], [0.7, 0.2, 0.8], [0.5, 0.5, 0.5]] {
            assert_eq!(cf.score_one(&probe).to_bits(), rf.predict_proba(&probe).to_bits());
        }
    }

    #[test]
    fn score_batch_is_bit_identical_across_block_boundaries() {
        let data = noisy(300, 4);
        let rf = RandomForestTrainer { n_trees: 15, ..Default::default() }.fit(&data, 9);
        let cf = CompiledForest::compile(&rf);
        let rows = 145;
        let mut flat = Vec::with_capacity(rows * 3);
        for i in 0..rows {
            let t = i as f32 / rows as f32;
            flat.extend_from_slice(&[t, 1.0 - t, (i % 7) as f32 / 7.0]);
        }
        let batch = cf.score_batch(&flat);
        assert_eq!(batch.len(), rows);
        for (i, s) in batch.iter().enumerate() {
            let reference = rf.predict_proba(&flat[i * 3..(i + 1) * 3]);
            assert_eq!(s.to_bits(), reference.to_bits(), "row {i}");
        }
    }

    #[test]
    fn nan_aware_batch_matches_reference() {
        let data = noisy(200, 6);
        let rf = RandomForestTrainer { n_trees: 10, ..Default::default() }.fit(&data, 2);
        let cf = CompiledForest::compile(&rf);
        let rows: Vec<[f32; 3]> = vec![
            [f32::NAN, 0.5, 0.5],
            [0.5, f32::NAN, f32::NAN],
            [f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
            [0.2, 0.8, 0.4],
        ];
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let batch = cf.score_batch_nan_aware(&flat);
        for (row, s) in rows.iter().zip(&batch) {
            assert_eq!(s.to_bits(), rf.predict_proba_nan_aware(row).to_bits(), "{row:?}");
            assert!((0.0..=1.0).contains(s));
        }
        assert_eq!(cf.score_one_nan_aware(&rows[0]).to_bits(), batch[0].to_bits());
        // A short row: missing features take the default direction.
        for short in [&[0.3f32][..], &[]] {
            assert_eq!(
                cf.score_one_nan_aware(short).to_bits(),
                rf.predict_proba_nan_aware(short).to_bits(),
                "{short:?}"
            );
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let data = noisy(100, 7);
        let rf = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&data, 1);
        let cf = CompiledForest::compile(&rf);
        assert!(cf.score_batch(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_batch_panics() {
        let data = noisy(100, 8);
        let rf = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&data, 1);
        let cf = CompiledForest::compile(&rf);
        let _ = cf.score_batch(&[0.0, 1.0]);
    }
}
