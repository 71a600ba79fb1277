//! RUSBoost (Seiffert et al.): AdaBoost.M1 with random undersampling of the
//! majority class before each boosting round — the boosting baseline the
//! paper compares against (Tabrizi et al. 2017, 100 iterations).

use drcshap_ml::{Classifier, Dataset, ModelComplexity, Trainer};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::ranks::RankStore;
use crate::tree::{DecisionTree, TreeTrainer};

/// RUSBoost hyperparameters and trainer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RusBoostTrainer {
    /// Boosting iterations (the paper's baseline uses 100).
    pub n_iterations: usize,
    /// Depth of the weak-learner trees.
    pub weak_depth: usize,
    /// Majority:minority ratio after undersampling (1.0 = balanced).
    pub target_ratio: f64,
    /// Learning rate applied to the stage weights.
    pub learning_rate: f64,
}

impl Default for RusBoostTrainer {
    fn default() -> Self {
        Self { n_iterations: 100, weak_depth: 4, target_ratio: 1.0, learning_rate: 1.0 }
    }
}

impl Trainer for RusBoostTrainer {
    type Model = RusBoost;

    /// Boosting is inherently sequential (the paper notes it is "not easy to
    /// parallelize due to sequential updates"); rounds run one after another.
    fn fit(&self, data: &Dataset, seed: u64) -> RusBoost {
        assert!(self.n_iterations > 0, "need at least one boosting round");
        let n = data.n_samples();
        assert!(n > 0, "empty training set");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let minority: Vec<usize> = (0..n).filter(|&i| data.label(i)).collect();
        let majority: Vec<usize> = (0..n).filter(|&i| !data.label(i)).collect();
        // Degenerate single-class data: constant model.
        if minority.is_empty() || majority.is_empty() {
            return RusBoost { stages: Vec::new(), n_features: data.n_features() };
        }

        let weak = TreeTrainer {
            max_depth: Some(self.weak_depth),
            min_samples_split: 2.0,
            min_samples_leaf: 1.0,
            max_features: None,
        };
        // Every round reweights the same samples: rank them once.
        let store = RankStore::new(data);

        // AdaBoost.M1 distribution over the full training set.
        let mut dist = vec![1.0 / n as f64; n];
        let mut stages: Vec<(DecisionTree, f64)> = Vec::with_capacity(self.n_iterations);
        for _ in 0..self.n_iterations {
            // Random undersampling: keep all minority samples, draw majority
            // samples (by current distribution) to the target ratio.
            let keep_majority =
                ((minority.len() as f64 * self.target_ratio) as usize).clamp(1, majority.len());
            let mut weights = vec![0f64; n];
            for &i in &minority {
                weights[i] = dist[i];
            }
            let total_major: f64 = majority.iter().map(|&i| dist[i]).sum();
            for _ in 0..keep_majority {
                // Draw proportionally to the boosting distribution.
                let mut u = rng.gen_range(0.0..total_major.max(1e-12));
                let mut chosen = majority[majority.len() - 1];
                for &i in &majority {
                    u -= dist[i];
                    if u <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
                weights[chosen] += dist[chosen].max(1e-12);
            }

            // Rescale to sample-count semantics so the weak learner's
            // min_samples_* thresholds keep their meaning.
            let nonzero = weights.iter().filter(|&&w| w > 0.0).count().max(1);
            let mass: f64 = weights.iter().sum();
            let scale = nonzero as f64 / mass.max(1e-12);
            for w in &mut weights {
                *w *= scale;
            }

            let tree = weak.fit_ranked(data, &store, &weights, rng.gen());

            // Weighted error on the FULL training distribution.
            let mut err = 0.0;
            let mut correct = vec![false; n];
            for i in 0..n {
                let predicted = tree.predict(data.row(i)) > 0.5;
                correct[i] = predicted == data.label(i);
                if !correct[i] {
                    err += dist[i];
                }
            }
            if err >= 0.5 {
                // Weak learner no better than chance: stop boosting.
                if stages.is_empty() {
                    stages.push((tree, 1.0));
                }
                break;
            }
            let err = err.max(1e-12);
            let alpha = self.learning_rate * 0.5 * ((1.0 - err) / err).ln();
            // Reweight: misclassified up, correct down; renormalize.
            let mut z = 0.0;
            for i in 0..n {
                dist[i] *= if correct[i] { (-alpha).exp() } else { alpha.exp() };
                z += dist[i];
            }
            for d in &mut dist {
                *d /= z;
            }
            stages.push((tree, alpha));
        }
        RusBoost { stages, n_features: data.n_features() }
    }

    fn name(&self) -> &'static str {
        "RUSBoost"
    }

    fn describe(&self) -> String {
        format!(
            "RUSBoost(iters={}, depth={}, ratio={}, lr={})",
            self.n_iterations, self.weak_depth, self.target_ratio, self.learning_rate
        )
    }
}

/// A trained RUSBoost ensemble: `Σ αₜ · (2hₜ(x) − 1)` is the decision score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RusBoost {
    stages: Vec<(DecisionTree, f64)>,
    n_features: usize,
}

impl RusBoost {
    /// The boosting stages `(tree, stage weight α)`.
    pub fn stages(&self) -> &[(DecisionTree, f64)] {
        &self.stages
    }

    /// Number of features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Classifier for RusBoost {
    fn score(&self, x: &[f32]) -> f64 {
        self.stages
            .iter()
            .map(|(tree, alpha)| alpha * (2.0 * (tree.predict(x) > 0.5) as i32 as f64 - 1.0))
            .sum()
    }

    fn complexity(&self) -> ModelComplexity {
        let nodes: usize = self.stages.iter().map(|(t, _)| t.nodes().len()).sum();
        let path_ops: f64 = self.stages.iter().map(|(t, _)| t.mean_path_length() * 2.0 + 2.0).sum();
        ModelComplexity {
            num_parameters: nodes * 5 + self.stages.len(),
            prediction_ops: path_ops.ceil() as usize,
        }
    }

    fn name(&self) -> &'static str {
        "RUSBoost"
    }

    fn expected_features(&self) -> Option<usize> {
        Some(self.n_features)
    }

    fn score_nan_aware(&self, x: &[f32]) -> f64 {
        // Same weighted vote, with each weak tree routing NaN down its
        // default direction.
        self.stages
            .iter()
            .map(|(tree, alpha)| {
                alpha * (2.0 * (tree.predict_nan_aware(x) > 0.5) as i32 as f64 - 1.0)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Imbalanced task: 5% positives above a threshold on feature 0.
    fn imbalanced(n: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let label = rng.gen_range(0.0..1.0) < 0.05;
            let v: f32 = if label { rng.gen_range(0.7..1.0) } else { rng.gen_range(0.0..0.8) };
            x.push(v);
            x.push(rng.gen_range(0.0..1.0));
            y.push(label);
        }
        Dataset::from_parts(x, y, vec![0; n], 2)
    }

    #[test]
    fn boosting_ranks_rare_positives_high() {
        let train = imbalanced(600, 1);
        let test = imbalanced(400, 2);
        let model = RusBoostTrainer { n_iterations: 30, ..Default::default() }.fit(&train, 3);
        let scores = model.score_dataset(&test);
        let auc = drcshap_ml::roc_auc(&scores, test.labels());
        assert!(auc > 0.8, "auc {auc}");
    }

    #[test]
    fn stages_have_positive_alpha() {
        let train = imbalanced(300, 4);
        let model = RusBoostTrainer { n_iterations: 10, ..Default::default() }.fit(&train, 5);
        assert!(!model.stages().is_empty());
        for (_, alpha) in model.stages() {
            assert!(*alpha > 0.0);
        }
    }

    #[test]
    fn deterministic_fit() {
        let train = imbalanced(200, 6);
        let a = RusBoostTrainer { n_iterations: 5, ..Default::default() }.fit(&train, 9);
        let b = RusBoostTrainer { n_iterations: 5, ..Default::default() }.fit(&train, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_data_degrades_gracefully() {
        let data =
            Dataset::from_parts(vec![0.0, 1.0, 2.0], vec![false, false, false], vec![0; 3], 1);
        let model = RusBoostTrainer::default().fit(&data, 0);
        assert_eq!(model.score(&[0.5]), 0.0);
    }

    #[test]
    fn weak_depth_limits_trees() {
        let train = imbalanced(300, 7);
        let model =
            RusBoostTrainer { n_iterations: 5, weak_depth: 2, ..Default::default() }.fit(&train, 1);
        for (tree, _) in model.stages() {
            assert!(tree.depth() <= 2);
        }
    }
}
