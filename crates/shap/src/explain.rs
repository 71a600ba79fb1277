//! Explanation objects: per-feature contributions with the base value, for
//! trees and forests.

use drcshap_forest::{DecisionTree, RandomForest};
use drcshap_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::tree_shap::{tree_shap, tree_shap_into, TreeShapScratch};

/// A SHAP explanation of one prediction: the paper's Eq. (1) decomposition
/// `f(x) = E[f(x)] + Σⱼ φⱼ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The expected prediction `E[f(x)]` over the training distribution.
    pub base_value: f64,
    /// The model output `f(x)` for this sample.
    pub prediction: f64,
    /// Per-feature SHAP values `φⱼ`.
    pub contributions: Vec<f64>,
}

impl Explanation {
    /// The top `k` features by absolute contribution, as `(index, φ)` pairs,
    /// most influential first.
    pub fn top(&self, k: usize) -> Vec<(usize, f64)> {
        let mut order: Vec<usize> = (0..self.contributions.len()).collect();
        order.sort_by(|&a, &b| self.contributions[b].abs().total_cmp(&self.contributions[a].abs()));
        order.into_iter().take(k).map(|i| (i, self.contributions[i])).collect()
    }

    /// `|base + Σφ − f(x)|` — zero (to float precision) for exact
    /// explainers; the *local accuracy* property of SHAP.
    pub fn local_accuracy_gap(&self) -> f64 {
        (self.base_value + self.contributions.iter().sum::<f64>() - self.prediction).abs()
    }

    /// Sums contributions by an arbitrary feature grouping (e.g. the
    /// paper's placement / edge / via feature groups, or per metal layer):
    /// returns `(key, Σφ over the group)` sorted by descending |Σφ|.
    /// Additivity is preserved: the sums add up to `f(x) − E[f(x)]`.
    pub fn grouped_by<K, F>(&self, key_of: F) -> Vec<(K, f64)>
    where
        K: std::hash::Hash + Eq + Clone,
        F: Fn(usize) -> K,
    {
        let mut sums: std::collections::HashMap<K, f64> = Default::default();
        let mut order: Vec<K> = Vec::new();
        for (i, &phi) in self.contributions.iter().enumerate() {
            let k = key_of(i);
            if !sums.contains_key(&k) {
                order.push(k.clone());
            }
            *sums.entry(k).or_insert(0.0) += phi;
        }
        let mut out: Vec<(K, f64)> = order.into_iter().map(|k| (k.clone(), sums[&k])).collect();
        out.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        out
    }

    /// How many times more (or less) likely than average this prediction is
    /// (the paper's "35× more likely to be a DRC hotspot than average").
    pub fn odds_vs_average(&self) -> f64 {
        self.prediction / self.base_value.max(1e-12)
    }
}

/// Explains a single decision tree's prediction via the SHAP tree explainer.
///
/// # Panics
///
/// Panics if `x.len() != tree.n_features()`.
pub fn explain_tree(tree: &DecisionTree, x: &[f32]) -> Explanation {
    let contributions = tree_shap(tree, x);
    Explanation { base_value: tree.nodes()[0].value, prediction: tree.predict(x), contributions }
}

/// Explains a Random Forest prediction: SHAP values of the ensemble are the
/// means of the per-tree SHAP values (the forest output is the mean of tree
/// outputs, and SHAP is linear in the model). Trees are summed in order
/// into one accumulator, reusing one [`TreeShapScratch`].
///
/// # Panics
///
/// Panics if `x.len() != forest.n_features()`.
pub fn explain_forest(forest: &RandomForest, x: &[f32]) -> Explanation {
    let mut contributions = vec![0.0; forest.n_features()];
    forest_shap_into(forest, x, &mut TreeShapScratch::new(), &mut contributions);
    Explanation {
        base_value: forest.expected_value(),
        prediction: forest.predict_proba(x),
        contributions,
    }
}

/// Writes the forest's SHAP values for `x` into `phi`: the per-tree values
/// summed in tree order from `+0.0`, then divided by the tree count.
pub(crate) fn forest_shap_into(
    forest: &RandomForest,
    x: &[f32],
    scratch: &mut TreeShapScratch,
    phi: &mut [f64],
) {
    assert_eq!(x.len(), forest.n_features(), "feature count mismatch");
    let _span =
        telemetry::span_with("shap/explain_forest", || format!("{} trees", forest.trees().len()));
    telemetry::counter("shap/trees_explained", forest.trees().len() as u64);
    phi.fill(0.0);
    for tree in forest.trees() {
        tree_shap_into(tree, x, scratch, phi);
    }
    let n_trees = forest.trees().len() as f64;
    for v in phi {
        *v /= n_trees;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn noisy(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(0.0..1.0);
            let b: f32 = rng.gen_range(0.0..1.0);
            let c: f32 = rng.gen_range(0.0..1.0);
            x.extend_from_slice(&[a, b, c]);
            y.push(a > 0.6 || (b > 0.8 && a > 0.3));
        }
        Dataset::from_parts(x, y, vec![0; n], 3)
    }

    #[test]
    fn forest_explanation_is_locally_accurate() {
        let data = noisy(300, 1);
        let rf = RandomForestTrainer { n_trees: 25, ..Default::default() }.fit(&data, 3);
        for probe in [[0.9f32, 0.1, 0.5], [0.1, 0.9, 0.5], [0.5, 0.5, 0.5]] {
            let e = explain_forest(&rf, &probe);
            assert!(e.local_accuracy_gap() < 1e-9, "gap {}", e.local_accuracy_gap());
        }
    }

    #[test]
    fn informative_features_dominate_contributions() {
        let data = noisy(400, 2);
        let rf = RandomForestTrainer { n_trees: 30, ..Default::default() }.fit(&data, 5);
        let e = explain_forest(&rf, &[0.95, 0.1, 0.5]);
        let top = e.top(1);
        assert_eq!(top[0].0, 0, "feature 0 should dominate: {:?}", e.contributions);
        assert!(top[0].1 > 0.0, "feature 0 should push positive");
        // Irrelevant feature 2 contributes little.
        assert!(e.contributions[2].abs() < e.contributions[0].abs() / 3.0);
    }

    #[test]
    fn grouped_by_preserves_additivity() {
        let e = Explanation {
            base_value: 0.1,
            prediction: 0.4,
            contributions: vec![0.05, -0.3, 0.2, 0.35],
        };
        // Group even/odd features.
        let groups = e.grouped_by(|i| i % 2);
        let total: f64 = groups.iter().map(|&(_, s)| s).sum();
        assert!((total - (e.prediction - e.base_value)).abs() < 1e-12);
        // Sorted by |sum|: odd group = -0.3 + 0.35 = 0.05; even = 0.25.
        assert_eq!(groups[0].0, 0);
        assert!((groups[0].1 - 0.25).abs() < 1e-12);
        assert!((groups[1].1 - 0.05).abs() < 1e-12);
    }

    #[test]
    fn top_orders_by_absolute_value() {
        let e =
            Explanation { base_value: 0.1, prediction: 0.4, contributions: vec![0.05, -0.3, 0.2] };
        let top = e.top(3);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
        assert_eq!(top[2].0, 0);
        assert_eq!(e.top(1).len(), 1);
    }

    #[test]
    fn odds_vs_average_matches_paper_reading() {
        let e = Explanation { base_value: 0.016, prediction: 0.56, contributions: vec![] };
        // The paper's hotspot (a): 0.56 / 0.016 = 35x more likely.
        assert!((e.odds_vs_average() - 35.0).abs() < 0.1);
    }

    #[test]
    fn tree_and_forest_agree_on_single_tree_forest() {
        let data = noisy(200, 3);
        let rf = RandomForestTrainer { n_trees: 1, ..Default::default() }.fit(&data, 11);
        let probe = [0.7f32, 0.2, 0.9];
        let fe = explain_forest(&rf, &probe);
        let te = explain_tree(&rf.trees()[0], &probe);
        assert_eq!(fe.contributions, te.contributions);
        assert_eq!(fe.prediction, te.prediction);
    }
}
