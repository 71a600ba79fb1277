//! SHAP **interaction values** (Lundberg, Erion & Lee 2018, §4): a matrix
//! `Φ` whose off-diagonal entries split each feature's credit into pairwise
//! interaction effects and whose diagonal holds the main effects, with
//! `Σⱼ Φᵢⱼ = φᵢ` (row sums recover the SHAP values) and
//! `ΣᵢΣⱼ Φᵢⱼ = f(x) − E[f(x)]`.
//!
//! Computed exactly for trees via *conditional* TreeSHAP: the Shapley
//! interaction index `Φᵢⱼ` equals half the difference between feature `j`'s
//! SHAP value when `i` is fixed to its observed value and when `i` is
//! marginalized out — both computable by one TreeSHAP pass each over the
//! `M−1`-feature game. For a DRC hotspot this answers questions like "how
//! much of the M4 overflow's credit exists only in combination with the
//! neighboring via crowding?".

use drcshap_forest::DecisionTree;

use crate::tree_shap::{conditional_shap_into, tree_shap_into, TreeShapScratch};

/// A dense symmetric `M × M` interaction matrix (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionValues {
    values: Vec<f64>,
    n_features: usize,
}

impl InteractionValues {
    /// Wraps a row-major `n_features × n_features` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_features²`.
    pub fn from_values(values: Vec<f64>, n_features: usize) -> Self {
        assert_eq!(values.len(), n_features * n_features, "matrix shape mismatch");
        Self { values, n_features }
    }

    /// The interaction value `Φᵢⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n_features && j < self.n_features, "index out of range");
        self.values[i * self.n_features + j]
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Row `i` (its sum is feature `i`'s SHAP value).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Total mass `ΣᵢΣⱼ Φᵢⱼ` (equals `f(x) − E[f(x)]`).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `k` strongest off-diagonal interactions as `(i, j, Φᵢⱼ)` with
    /// `i < j`, ordered by |Φ|.
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::new();
        for i in 0..self.n_features {
            for j in i + 1..self.n_features {
                let v = self.get(i, j);
                if v != 0.0 {
                    pairs.push((i, j, v));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        pairs.truncate(k);
        pairs
    }
}

/// Computes the SHAP interaction values of `tree` for sample `x`.
///
/// Cost: one conditional TreeSHAP pass per feature the tree uses (so
/// `O(U · L · D²)` for `U` used features, `L` leaves, depth `D`).
///
/// # Panics
///
/// Panics if `x.len() != tree.n_features()`.
pub fn tree_shap_interactions(tree: &DecisionTree, x: &[f32]) -> InteractionValues {
    assert_eq!(x.len(), tree.n_features(), "feature count mismatch");
    let m = tree.n_features();
    let mut values = vec![0.0; m * m];
    add_tree_interactions(tree, x, &mut TreeShapScratch::new(), &mut values);
    InteractionValues { values, n_features: m }
}

/// SHAP interaction values of a whole forest: the mean of the per-tree
/// matrices (interaction values, like SHAP values, are linear in the
/// model), summed in tree order.
///
/// # Panics
///
/// Panics if `x.len() != forest.n_features()`.
pub fn forest_shap_interactions(
    forest: &drcshap_forest::RandomForest,
    x: &[f32],
) -> InteractionValues {
    assert_eq!(x.len(), forest.n_features(), "feature count mismatch");
    let m = forest.n_features();
    let n_trees = forest.trees().len() as f64;
    let mut scratch = TreeShapScratch::new();
    let mut values = vec![0.0; m * m];
    for tree in forest.trees() {
        add_tree_interactions(tree, x, &mut scratch, &mut values);
    }
    for v in &mut values {
        *v /= n_trees;
    }
    InteractionValues { values, n_features: m }
}

/// Adds the interaction matrix of `tree` at `x` into the row-major
/// `values`, entry by entry. The rows and columns of features the tree
/// never splits on are zero and are skipped: every sum involved starts at
/// `+0.0`, so none is `−0.0`, and adding `+0.0` would leave its bits alone.
fn add_tree_interactions(
    tree: &DecisionTree,
    x: &[f32],
    scratch: &mut TreeShapScratch,
    values: &mut [f64],
) {
    let m = tree.n_features();
    let mut phi = vec![0.0; m];
    tree_shap_into(tree, x, scratch, &mut phi);
    let mut used: Vec<usize> =
        tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature as usize).collect();
    used.sort_unstable();
    used.dedup();

    let (mut present, mut absent) = (vec![0.0; m], vec![0.0; m]);
    for &i in &used {
        present.fill(0.0);
        absent.fill(0.0);
        conditional_shap_into(tree, x, i, true, scratch, &mut present);
        conditional_shap_into(tree, x, i, false, scratch, &mut absent);
        let mut off_diag_sum = 0.0;
        for &j in &used {
            if j == i {
                continue;
            }
            let v = (present[j] - absent[j]) / 2.0;
            values[i * m + j] += v;
            off_diag_sum += v;
        }
        values[i * m + i] += phi[i] - off_diag_sum;
    }
}

/// SHAP values of the `M−1`-feature game where `cond` is removed: fixed to
/// its observed value (`present`) or marginalized by training covers
/// (`absent`).
///
/// # Panics
///
/// Panics if `x.len() != tree.n_features()`.
pub fn shap_conditional(tree: &DecisionTree, x: &[f32], cond: usize, present: bool) -> Vec<f64> {
    let mut phi = vec![0.0; tree.n_features()];
    conditional_shap_into(tree, x, cond, present, &mut TreeShapScratch::new(), &mut phi);
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::cond_exp;
    use crate::tree_shap;
    use drcshap_forest::TreeTrainer;
    use drcshap_ml::{Dataset, Trainer};
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(n: usize, m: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = (row[0] > 0.5) ^ (row[1 % m] > 0.4);
            x.extend_from_slice(&row);
            y.push(label);
        }
        Dataset::from_parts(x, y, vec![0; n], m)
    }

    /// Brute-force Shapley interaction index over the tree's used features.
    fn exact_interaction(tree: &DecisionTree, x: &[f32], i: usize, j: usize) -> f64 {
        let mut used: Vec<usize> =
            tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature as usize).collect();
        used.sort_unstable();
        used.dedup();
        let k = used.len();
        assert!(k <= 16);
        if !used.contains(&i) || !used.contains(&j) {
            return 0.0;
        }
        let others: Vec<usize> = used.iter().copied().filter(|&f| f != i && f != j).collect();
        let fact: Vec<f64> = {
            let mut f = vec![1.0f64; k + 1];
            for t in 1..=k {
                f[t] = f[t - 1] * t as f64;
            }
            f
        };
        let mut known = vec![false; tree.n_features()];
        let mut total = 0.0;
        for mask in 0..(1u32 << others.len()) {
            known.iter_mut().for_each(|b| *b = false);
            let mut s = 0usize;
            for (bit, &f) in others.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    known[f] = true;
                    s += 1;
                }
            }
            let v00 = cond_exp(tree, x, &known);
            known[i] = true;
            let v10 = cond_exp(tree, x, &known);
            known[j] = true;
            let v11 = cond_exp(tree, x, &known);
            known[i] = false;
            let v01 = cond_exp(tree, x, &known);
            known[j] = false;
            // |S|! (k - |S| - 2)! / (2 (k-1)!)
            let w = fact[s] * fact[k - s - 2] / (2.0 * fact[k - 1]);
            total += w * (v11 - v10 - v01 + v00);
        }
        total
    }

    #[test]
    fn rows_sum_to_shap_values() {
        let data = random_dataset(80, 4, 1);
        let tree = TreeTrainer { max_depth: Some(4), ..Default::default() }.fit(&data, 2);
        let x = [0.3f32, 0.7, 0.2, 0.9];
        let inter = tree_shap_interactions(&tree, &x);
        let phi = tree_shap(&tree, &x);
        for (i, &p) in phi.iter().enumerate() {
            let row_sum: f64 = inter.row(i).iter().sum();
            assert!((row_sum - p).abs() < 1e-9, "row {i}: {row_sum} vs phi {p}");
        }
    }

    #[test]
    fn total_matches_prediction_gap() {
        let data = random_dataset(60, 3, 3);
        let tree = TreeTrainer { max_depth: Some(5), ..Default::default() }.fit(&data, 4);
        let x = [0.8f32, 0.1, 0.6];
        let inter = tree_shap_interactions(&tree, &x);
        let gap = tree.predict(&x) - tree.nodes()[0].value;
        assert!((inter.total() - gap).abs() < 1e-9);
    }

    #[test]
    fn matrix_is_symmetric() {
        let data = random_dataset(80, 4, 5);
        let tree = TreeTrainer { max_depth: Some(4), ..Default::default() }.fit(&data, 6);
        let x = [0.5f32, 0.5, 0.5, 0.5];
        let inter = tree_shap_interactions(&tree, &x);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (inter.get(i, j) - inter.get(j, i)).abs() < 1e-9,
                    "asymmetry at ({i},{j}): {} vs {}",
                    inter.get(i, j),
                    inter.get(j, i)
                );
            }
        }
    }

    #[test]
    fn off_diagonals_match_brute_force() {
        for seed in 0..4u64 {
            let data = random_dataset(50, 3, seed);
            let tree = TreeTrainer { max_depth: Some(3), ..Default::default() }.fit(&data, seed);
            let x = [0.25f32, 0.75, 0.5];
            let inter = tree_shap_interactions(&tree, &x);
            for i in 0..3 {
                for j in 0..3 {
                    if i == j {
                        continue;
                    }
                    let exact = exact_interaction(&tree, &x, i, j);
                    assert!(
                        (inter.get(i, j) - exact).abs() < 1e-8,
                        "seed {seed} ({i},{j}): fast {} vs exact {exact}",
                        inter.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn xor_task_has_strong_interaction() {
        // XOR with jitter (a perfectly balanced XOR gives greedy CART zero
        // first-split gain, so it would not grow a tree at all): the effect
        // is dominated by the feature interaction.
        let rows: &[(&[f32], bool)] = &[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], false),
            (&[0.1, 0.0], false),
            (&[0.0, 0.9], true),
            (&[0.9, 0.1], true),
            (&[1.0, 0.9], false),
        ];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (r, l) in rows {
            x.extend_from_slice(r);
            y.push(*l);
        }
        let n = y.len();
        let data = Dataset::from_parts(x, y, vec![0; n], 2);
        let tree = TreeTrainer::default().fit(&data, 0);
        let inter = tree_shap_interactions(&tree, &[1.0, 1.0]);
        assert!(inter.get(0, 1).abs() > 0.1, "no interaction detected: {:?}", inter);
        let pairs = inter.top_pairs(1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
    }

    #[test]
    fn conditional_shap_reduces_to_plain_when_feature_unused() {
        let data = random_dataset(40, 3, 9);
        let tree = TreeTrainer { max_depth: Some(3), ..Default::default() }.fit(&data, 1);
        // Condition on a feature the tree may not use: find one.
        let used: std::collections::HashSet<u32> =
            tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature).collect();
        if let Some(unused) = (0..3u32).find(|f| !used.contains(f)) {
            let x = [0.4f32, 0.6, 0.2];
            let plain = tree_shap(&tree, &x);
            let cond_p = shap_conditional(&tree, &x, unused as usize, true);
            let cond_a = shap_conditional(&tree, &x, unused as usize, false);
            for j in 0..3 {
                assert!((plain[j] - cond_p[j]).abs() < 1e-9);
                assert!((plain[j] - cond_a[j]).abs() < 1e-9);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_interactions_consistent(seed in 0u64..200, px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0) {
            let data = random_dataset(40, 3, seed);
            let tree = TreeTrainer { max_depth: Some(4), ..Default::default() }.fit(&data, seed);
            let x = [px, py, pz];
            let inter = tree_shap_interactions(&tree, &x);
            let phi = tree_shap(&tree, &x);
            for (i, &p) in phi.iter().enumerate() {
                let row_sum: f64 = inter.row(i).iter().sum();
                prop_assert!((row_sum - p).abs() < 1e-8);
                for j in 0..3 {
                    prop_assert!((inter.get(i, j) - inter.get(j, i)).abs() < 1e-8);
                }
            }
        }
    }
}
