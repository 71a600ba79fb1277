#![warn(missing_docs)]
//! Tree-based models: CART decision trees, the Random Forest classifier
//! (the paper's proposed model) and RUSBoost (the boosting baseline of
//! Tabrizi et al., compared in Table II).
//!
//! Trees store per-node *cover* (training-weight mass reaching the node),
//! which the SHAP tree explainer (`drcshap-shap`) consumes to compute exact
//! Shapley values in polynomial time.
//!
//! [`CompiledForest`] is the batch scorer: a forest flattened into one
//! packed node array, with scores bit-identical to
//! [`RandomForest::predict_proba`]. The RF's `Classifier::score_dataset`,
//! the explanation service's triage and the serve engine all score
//! through it.
//!
//! # Example
//!
//! ```
//! use drcshap_forest::RandomForestTrainer;
//! use drcshap_ml::{Classifier, Dataset, Trainer};
//!
//! // XOR-free toy task: feature 0 decides the label.
//! let x: Vec<f32> = (0..40).flat_map(|i| vec![(i % 2) as f32, 0.5]).collect();
//! let y: Vec<bool> = (0..40).map(|i| i % 2 == 1).collect();
//! let data = Dataset::from_parts(x, y, vec![0; 40], 2);
//! let rf = RandomForestTrainer { n_trees: 20, ..RandomForestTrainer::default() }.fit(&data, 7);
//! assert!(rf.score(&[1.0, 0.5]) > rf.score(&[0.0, 0.5]));
//! ```

mod compiled;
mod forest;
mod importance;
mod ranks;
mod rusboost;
mod tree;

pub use compiled::CompiledForest;
pub use forest::{MaxFeatures, RandomForest, RandomForestTrainer};
pub use importance::OobReport;
pub use rusboost::{RusBoost, RusBoostTrainer};
pub use tree::{DecisionTree, TreeNode, TreeTrainer, LEAF};
