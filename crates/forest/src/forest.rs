//! The Random Forest classifier (Breiman 2001): bagging over unpruned CART
//! trees with per-split feature subsampling, trained one tree after another
//! over one shared rank store — the paper's proposed model (500 unpruned
//! trees, §IV-A).

use drcshap_ml::{Classifier, Dataset, ModelComplexity, Trainer};
use drcshap_telemetry as telemetry;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::compiled::CompiledForest;
use crate::ranks::RankStore;
use crate::tree::{DecisionTree, TreeTrainer};

/// Per-split feature subsampling policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// `√M` features per split (the Random Forest default).
    Sqrt,
    /// `log₂(M)` features per split.
    Log2,
    /// A fixed count.
    Count(usize),
    /// All features (bagged trees, no feature randomization).
    All,
}

impl MaxFeatures {
    /// Resolves the policy for `m` total features (at least 1).
    pub fn resolve(self, m: usize) -> usize {
        match self {
            MaxFeatures::Sqrt => (m as f64).sqrt().round() as usize,
            MaxFeatures::Log2 => (m as f64).log2().round() as usize,
            MaxFeatures::Count(k) => k.min(m),
            MaxFeatures::All => m,
        }
        .max(1)
    }
}

/// Random Forest hyperparameters and trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForestTrainer {
    /// Number of trees (the paper reports 500).
    pub n_trees: usize,
    /// Maximum tree depth; `None` = unpruned (the paper's setting).
    pub max_depth: Option<usize>,
    /// Minimum weighted samples per leaf.
    pub min_samples_leaf: f64,
    /// Feature subsampling per split.
    pub max_features: MaxFeatures,
}

impl Default for RandomForestTrainer {
    fn default() -> Self {
        Self {
            n_trees: 100,
            max_depth: None,
            min_samples_leaf: 1.0,
            max_features: MaxFeatures::Sqrt,
        }
    }
}

impl RandomForestTrainer {
    /// Fits the forest's trees over one rank store of `data` and hands
    /// each tree, with its bootstrap weights, to `keep`. Tree `t` draws its
    /// bootstrap (`n` samples with replacement, as per-sample counts) and
    /// its CART seed from its own RNG stream, so the trees depend on
    /// `seed` alone. They fit one after another on the calling thread.
    pub(crate) fn fit_trees<T>(
        &self,
        data: &Dataset,
        seed: u64,
        keep: impl Fn(DecisionTree, Vec<f64>) -> T,
    ) -> Vec<T> {
        assert!(self.n_trees > 0, "forest needs at least one tree");
        assert!(data.n_samples() > 0, "empty training set");
        let _fit_span = telemetry::span_with("rf/fit", || {
            format!("{} trees x {} samples", self.n_trees, data.n_samples())
        });
        let store = RankStore::new(data);
        let tree_config = TreeTrainer {
            max_depth: self.max_depth,
            min_samples_split: 2.0,
            min_samples_leaf: self.min_samples_leaf,
            max_features: Some(self.max_features.resolve(data.n_features())),
        };
        let n = data.n_samples();
        (0..self.n_trees)
            .map(|t| {
                let _tree_span = telemetry::span("rf/fit_tree");
                telemetry::counter("rf/trees_fit", 1);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x9e37_79b9 + t as u64));
                let mut weights = vec![0f64; n];
                for _ in 0..n {
                    weights[rng.gen_range(0..n)] += 1.0;
                }
                let tree = tree_config.fit_ranked(data, &store, &weights, rng.gen());
                keep(tree, weights)
            })
            .collect()
    }
}

impl Trainer for RandomForestTrainer {
    type Model = RandomForest;

    /// Trains `n_trees` trees on bootstrap resamples, one after another.
    /// The result is deterministic for a given `seed`.
    fn fit(&self, data: &Dataset, seed: u64) -> RandomForest {
        let trees = self.fit_trees(data, seed, |tree, _| tree);
        RandomForest { trees, n_features: data.n_features() }
    }

    fn name(&self) -> &'static str {
        "RF"
    }

    fn describe(&self) -> String {
        format!(
            "RF(trees={}, depth={:?}, min_leaf={}, max_feat={:?})",
            self.n_trees, self.max_depth, self.min_samples_leaf, self.max_features
        )
    }
}

/// A trained Random Forest: the mean of the trees' leaf probabilities is the
/// predicted DRC-hotspot probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Assembles a forest from already-trained trees.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or any tree disagrees on `n_features`.
    pub fn from_trees(trees: Vec<DecisionTree>, n_features: usize) -> Self {
        assert!(!trees.is_empty(), "forest needs at least one tree");
        assert!(trees.iter().all(|t| t.n_features() == n_features), "tree feature-count mismatch");
        Self { trees, n_features }
    }

    /// The ensemble's trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of features the forest was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The predicted probability for one sample (mean over trees).
    pub fn predict_proba(&self, x: &[f32]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(x)).sum();
        sum / self.trees.len() as f64
    }

    /// NaN-tolerant [`RandomForest::predict_proba`]: every tree routes NaN
    /// values down its per-node default direction (see
    /// [`DecisionTree::predict_nan_aware`]), so the ensemble mean stays a
    /// probability in `[0, 1]` for any input.
    pub fn predict_proba_nan_aware(&self, x: &[f32]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_nan_aware(x)).sum();
        sum / self.trees.len() as f64
    }

    /// The expected prediction over the training distribution: the
    /// cover-weighted mean of root values — SHAP's base value `E[f(x)]`.
    pub fn expected_value(&self) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.nodes()[0].value).sum();
        sum / self.trees.len() as f64
    }

    /// Total node count across trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.nodes().len()).sum()
    }
}

impl Classifier for RandomForest {
    fn score(&self, x: &[f32]) -> f64 {
        self.predict_proba(x)
    }

    /// Compiles the forest once, then scores each row through
    /// [`CompiledForest::score_one`], which bit-equals
    /// [`RandomForest::predict_proba`]. Rows go one by one, so a dataset
    /// wider than the forest's feature count scores as the default would.
    fn score_dataset(&self, data: &Dataset) -> Vec<f64> {
        let compiled = CompiledForest::compile(self);
        (0..data.n_samples()).map(|i| compiled.score_one(data.row(i))).collect()
    }

    fn complexity(&self) -> ModelComplexity {
        let path_ops: f64 = self.trees.iter().map(|t| t.mean_path_length() * 2.0 + 1.0).sum();
        ModelComplexity {
            num_parameters: self.total_nodes() * 5,
            prediction_ops: path_ops.ceil() as usize + self.trees.len(),
        }
    }

    fn name(&self) -> &'static str {
        "RF"
    }

    fn expected_features(&self) -> Option<usize> {
        Some(self.n_features)
    }

    fn score_nan_aware(&self, x: &[f32]) -> f64 {
        self.predict_proba_nan_aware(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy threshold task: label = (x0 > 0.5) with ~10% flips.
    fn noisy_threshold(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let v: f32 = rng.gen_range(0.0..1.0);
            let noise: f32 = rng.gen_range(0.0..1.0);
            let label = if noise < 0.1 { v <= 0.5 } else { v > 0.5 };
            x.push(v);
            x.push(rng.gen_range(0.0..1.0)); // irrelevant feature
            y.push(label);
        }
        Dataset::from_parts(x, y, vec![0; n], 2)
    }

    #[test]
    fn forest_beats_chance_on_noisy_task() {
        let train = noisy_threshold(400, 1);
        let test = noisy_threshold(200, 2);
        let rf = RandomForestTrainer { n_trees: 30, ..Default::default() }.fit(&train, 7);
        let scores = rf.score_dataset(&test);
        let auc = drcshap_ml::roc_auc(&scores, test.labels());
        assert!(auc > 0.85, "auc {auc}");
    }

    #[test]
    fn fit_is_deterministic_across_runs() {
        let train = noisy_threshold(100, 3);
        let a = RandomForestTrainer { n_trees: 8, ..Default::default() }.fit(&train, 42);
        let b = RandomForestTrainer { n_trees: 8, ..Default::default() }.fit(&train, 42);
        assert_eq!(a, b);
        let c = RandomForestTrainer { n_trees: 8, ..Default::default() }.fit(&train, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn probabilities_average_trees() {
        let train = noisy_threshold(100, 4);
        let rf = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&train, 1);
        let x = [0.9f32, 0.5];
        let manual: f64 =
            rf.trees().iter().map(|t| t.predict(&x)).sum::<f64>() / rf.trees().len() as f64;
        assert!((rf.predict_proba(&x) - manual).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&rf.predict_proba(&x)));
    }

    #[test]
    fn expected_value_near_base_rate() {
        let train = noisy_threshold(500, 5);
        let rf = RandomForestTrainer { n_trees: 20, ..Default::default() }.fit(&train, 1);
        let base = train.positive_rate();
        assert!((rf.expected_value() - base).abs() < 0.1);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::Sqrt.resolve(387), 20);
        assert_eq!(MaxFeatures::Log2.resolve(387), 9);
        assert_eq!(MaxFeatures::Count(50).resolve(30), 30);
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(1), 1);
    }

    #[test]
    fn nan_aware_forest_stays_in_probability_range() {
        let train = noisy_threshold(200, 9);
        let rf = RandomForestTrainer { n_trees: 15, ..Default::default() }.fit(&train, 3);
        // NaN-free inputs: identical to the plain path.
        let x = [0.7f32, 0.3];
        assert_eq!(rf.predict_proba_nan_aware(&x), rf.predict_proba(&x));
        // Any mix of NaN/Inf still yields a probability.
        for x in [[f32::NAN, 0.3], [f32::NAN, f32::NAN], [f32::INFINITY, f32::NAN]] {
            let p = rf.predict_proba_nan_aware(&x);
            assert!((0.0..=1.0).contains(&p), "p = {p} for {x:?}");
        }
    }

    #[test]
    fn complexity_scales_with_trees() {
        let train = noisy_threshold(100, 6);
        let small = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&train, 1);
        let large = RandomForestTrainer { n_trees: 20, ..Default::default() }.fit(&train, 1);
        assert!(large.complexity().num_parameters > small.complexity().num_parameters);
        assert!(large.complexity().prediction_ops > small.complexity().prediction_ops);
    }

    #[test]
    fn more_trees_do_not_hurt() {
        // The paper: adding trees "would not hurt the predicting
        // performance". Compare 5 vs 50 trees on held-out data.
        let train = noisy_threshold(300, 7);
        let test = noisy_threshold(200, 8);
        let few = RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&train, 1);
        let many = RandomForestTrainer { n_trees: 50, ..Default::default() }.fit(&train, 1);
        let auc_few = drcshap_ml::roc_auc(&few.score_dataset(&test), test.labels());
        let auc_many = drcshap_ml::roc_auc(&many.score_dataset(&test), test.labels());
        assert!(auc_many >= auc_few - 0.02, "few {auc_few} many {auc_many}");
    }
}
