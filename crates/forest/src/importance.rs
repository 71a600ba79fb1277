//! Global model diagnostics for Random Forests: out-of-bag (OOB) scoring
//! and impurity-based feature importance.
//!
//! Both are classic Breiman-forest instruments. Impurity importance gives a
//! *global* feature ranking; the paper's point is that SHAP adds *local*
//! (per-prediction) attributions on top — the ablation bench compares the
//! two rankings.

use drcshap_ml::Dataset;
use serde::{Deserialize, Serialize};

use crate::forest::{RandomForest, RandomForestTrainer};

/// Out-of-bag evaluation of a forest fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OobReport {
    /// Per-sample OOB probability; `None` for samples in every bootstrap.
    pub oob_scores: Vec<Option<f64>>,
    /// Fraction of samples with at least one OOB vote.
    pub coverage: f64,
}

impl OobReport {
    /// OOB scores and labels of covered samples, for metric computation.
    pub fn covered(&self, data: &Dataset) -> (Vec<f64>, Vec<bool>) {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for (i, s) in self.oob_scores.iter().enumerate() {
            if let Some(v) = s {
                scores.push(*v);
                labels.push(data.label(i));
            }
        }
        (scores, labels)
    }
}

impl RandomForestTrainer {
    /// Fits a forest exactly as `Trainer::fit` (same trees for the same
    /// seed) while also collecting out-of-bag predictions.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or zero trees.
    pub fn fit_with_oob(&self, data: &Dataset, seed: u64) -> (RandomForest, OobReport) {
        // A sample is out of bag for a tree when its bootstrap count is 0.
        let fits = self.fit_trees(data, seed, |tree, weights| {
            let oob: Vec<bool> = weights.iter().map(|&w| w == 0.0).collect();
            (tree, oob)
        });
        let n = data.n_samples();
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        for (tree, oob) in &fits {
            for i in 0..n {
                if oob[i] {
                    sums[i] += tree.predict(data.row(i));
                    counts[i] += 1;
                }
            }
        }
        let oob_scores: Vec<Option<f64>> =
            (0..n).map(|i| (counts[i] > 0).then(|| sums[i] / counts[i] as f64)).collect();
        let coverage = counts.iter().filter(|&&c| c > 0).count() as f64 / n as f64;

        let trees = fits.into_iter().map(|(t, _)| t).collect();
        (RandomForest::from_trees(trees, data.n_features()), OobReport { oob_scores, coverage })
    }
}

impl RandomForest {
    /// Impurity-based (mean-decrease-in-impurity) feature importance,
    /// normalized to sum to 1 (all-zero when no tree ever splits).
    ///
    /// Each split's Gini decrease, weighted by the fraction of training
    /// mass reaching it, is credited to its feature — reconstructed from
    /// the stored node values and covers.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut importance = vec![0.0f64; self.n_features()];
        let gini = |p: f64| 2.0 * p * (1.0 - p);
        for tree in self.trees() {
            let nodes = tree.nodes();
            let root_cover = nodes[0].cover.max(1e-12);
            for node in nodes {
                if node.is_leaf() {
                    continue;
                }
                let l = &nodes[node.left as usize];
                let r = &nodes[node.right as usize];
                let decrease = node.cover * gini(node.value)
                    - l.cover * gini(l.value)
                    - r.cover * gini(r.value);
                importance[node.feature as usize] += (decrease / root_cover).max(0.0);
            }
        }
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            for v in &mut importance {
                *v /= total;
            }
        }
        importance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_ml::Trainer;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Label = (x0 > 0.5); x1 is noise.
    fn threshold_data(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let v: f32 = rng.gen_range(0.0..1.0);
            x.push(v);
            x.push(rng.gen_range(0.0..1.0));
            y.push(v > 0.5);
        }
        Dataset::from_parts(x, y, vec![0; n], 2)
    }

    #[test]
    fn oob_fit_produces_identical_forest() {
        let data = threshold_data(150, 1);
        let trainer = RandomForestTrainer { n_trees: 12, ..Default::default() };
        let plain = trainer.fit(&data, 9);
        let (with_oob, _) = trainer.fit_with_oob(&data, 9);
        assert_eq!(plain, with_oob);
    }

    #[test]
    fn oob_coverage_is_high_with_enough_trees() {
        let data = threshold_data(100, 2);
        let trainer = RandomForestTrainer { n_trees: 30, ..Default::default() };
        let (_, oob) = trainer.fit_with_oob(&data, 1);
        // P(in every bootstrap of 30 trees) is essentially zero.
        assert!(oob.coverage > 0.99, "coverage {}", oob.coverage);
    }

    #[test]
    fn oob_score_estimates_generalization() {
        let data = threshold_data(400, 3);
        let trainer = RandomForestTrainer { n_trees: 30, ..Default::default() };
        let (_, oob) = trainer.fit_with_oob(&data, 1);
        let (scores, labels) = oob.covered(&data);
        let auc = drcshap_ml::roc_auc(&scores, &labels);
        assert!(auc > 0.9, "OOB AUC {auc}");
    }

    #[test]
    fn importance_identifies_the_informative_feature() {
        let data = threshold_data(300, 4);
        let rf = RandomForestTrainer { n_trees: 20, ..Default::default() }.fit(&data, 1);
        let imp = rf.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 5.0 * imp[1], "informative feature not dominant: {imp:?}");
    }

    #[test]
    fn importance_is_all_zero_for_stump_forest() {
        // Single-class data: no splits, no importance.
        let data = Dataset::from_parts(vec![0.0, 1.0, 2.0], vec![true, true, true], vec![0; 3], 1);
        let rf = RandomForestTrainer { n_trees: 3, ..Default::default() }.fit(&data, 1);
        let imp = rf.feature_importance();
        assert!(imp.iter().all(|&v| v == 0.0));
    }
}
