//! Global SHAP summaries: aggregate per-sample explanations into a global
//! feature ranking (mean |φ|), the "summary plot" view of the SHAP toolbox
//! — complementary to the paper's per-hotspot analysis and directly
//! comparable to impurity-based importance.

use drcshap_forest::RandomForest;
use drcshap_ml::Dataset;
use drcshap_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::explain::forest_shap_into;
use crate::tree_shap::TreeShapScratch;

/// Aggregated SHAP statistics over a set of samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalImportance {
    /// Mean absolute SHAP value per feature (the global ranking signal).
    pub mean_abs: Vec<f64>,
    /// Mean signed SHAP value per feature (directionality).
    pub mean: Vec<f64>,
    /// Number of samples aggregated.
    pub n_samples: usize,
}

impl GlobalImportance {
    /// The top `k` features by mean |φ|, as `(index, mean_abs)` pairs.
    pub fn top(&self, k: usize) -> Vec<(usize, f64)> {
        let mut order: Vec<usize> = (0..self.mean_abs.len()).collect();
        order.sort_by(|&a, &b| self.mean_abs[b].total_cmp(&self.mean_abs[a]));
        order.into_iter().take(k).map(|i| (i, self.mean_abs[i])).collect()
    }

    /// Renders a bar-list of the top `k` features using `names`.
    ///
    /// # Panics
    ///
    /// Panics if `names.len()` differs from the feature count.
    pub fn render(&self, names: &[String], k: usize) -> String {
        assert_eq!(names.len(), self.mean_abs.len(), "name count mismatch");
        let top = self.top(k);
        let max = top.first().map(|&(_, v)| v).unwrap_or(0.0).max(1e-12);
        let mut out = format!("global SHAP importance over {} samples\n", self.n_samples);
        for (i, v) in top {
            let bar = "█".repeat(((v / max) * 30.0).round() as usize);
            let sign = if self.mean[i] >= 0.0 { '+' } else { '-' };
            out.push_str(&format!("  {:<12} {:>8.4} ({}) {}\n", names[i], v, sign, bar));
        }
        out
    }
}

/// Aggregates SHAP explanations over (up to `max_samples` of) `data`,
/// evenly subsampled, summed in row order.
///
/// # Panics
///
/// Panics if `data` is empty or feature counts mismatch.
pub fn summarize(forest: &RandomForest, data: &Dataset, max_samples: usize) -> GlobalImportance {
    assert!(data.n_samples() > 0, "empty dataset");
    assert_eq!(data.n_features(), forest.n_features(), "feature count mismatch");
    let n = data.n_samples();
    let step = (n / max_samples.max(1)).max(1);
    let indices: Vec<usize> = (0..n).step_by(step).collect();
    let _span = telemetry::span_with("shap/summarize", || format!("{} samples", indices.len()));
    let m = data.n_features();
    let mut scratch = TreeShapScratch::new();
    let mut phi = vec![0.0; m];
    let (mut abs_sum, mut sum) = (vec![0.0; m], vec![0.0; m]);
    for &i in &indices {
        forest_shap_into(forest, data.row(i), &mut scratch, &mut phi);
        for j in 0..m {
            abs_sum[j] += phi[j].abs();
            sum[j] += phi[j];
        }
    }
    let count = indices.len();
    GlobalImportance {
        mean_abs: abs_sum.into_iter().map(|v| v / count as f64).collect(),
        mean: sum.into_iter().map(|v| v / count as f64).collect(),
        n_samples: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::Trainer;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn data(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f32 = rng.gen_range(0.0..1.0);
            x.push(a);
            x.push(rng.gen_range(0.0..1.0));
            x.push(rng.gen_range(0.0..1.0));
            y.push(a > 0.55);
        }
        Dataset::from_parts(x, y, vec![0; n], 3)
    }

    #[test]
    fn informative_feature_ranks_first_globally() {
        let train = data(300, 1);
        let rf = RandomForestTrainer { n_trees: 15, ..Default::default() }.fit(&train, 2);
        let imp = summarize(&rf, &train, 100);
        let top = imp.top(3);
        assert_eq!(top[0].0, 0, "feature 0 should rank first: {:?}", imp.mean_abs);
        assert!(top[0].1 > 3.0 * top[1].1);
    }

    #[test]
    fn shap_and_impurity_rankings_agree_on_the_winner() {
        let train = data(300, 3);
        let rf = RandomForestTrainer { n_trees: 15, ..Default::default() }.fit(&train, 4);
        let shap_rank = summarize(&rf, &train, 100).top(1)[0].0;
        let impurity = rf.feature_importance();
        let impurity_rank =
            impurity.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(shap_rank, impurity_rank);
    }

    #[test]
    fn subsampling_caps_the_work() {
        let train = data(500, 5);
        let rf = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&train, 6);
        let imp = summarize(&rf, &train, 50);
        assert!(imp.n_samples <= 51);
        assert!(imp.n_samples >= 50);
    }

    #[test]
    fn render_lists_names() {
        let train = data(100, 7);
        let rf = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&train, 8);
        let imp = summarize(&rf, &train, 30);
        let names: Vec<String> =
            ["density", "noise_a", "noise_b"].iter().map(|s| s.to_string()).collect();
        let s = imp.render(&names, 2);
        assert!(s.contains("density"));
        assert!(s.contains("global SHAP importance"));
    }
}
