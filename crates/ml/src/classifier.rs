//! The classifier abstraction shared by all model families, and the model
//! complexity accounting of the paper's Table II (`# Model param.`,
//! `# Prediction op.`).

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::error::{DrcshapError, InputError};

/// How the admission boundary ([`NanPolicy::admit`]) treats NaN / infinite
/// feature values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NanPolicy {
    /// Reject the sample with [`InputError::NonFinite`] (the safe default:
    /// the feature extractor only produces finite values, so a non-finite
    /// input means an upstream bug).
    #[default]
    Reject,
    /// Replace every non-finite value with `0.0` before scoring.
    ImputeZero,
    /// Score NaN-aware: tree models route NaN down a per-node default
    /// direction (XGBoost-style, towards the heavier child); non-tree
    /// models fall back to zero-imputation. Infinities take their natural
    /// comparison branch.
    NanAware,
}

impl NanPolicy {
    /// Admits one feature row from outside the program: the one rule the
    /// scoring and explaining entry points share. The length is checked
    /// against `expected` (when known) first; then non-finite values meet
    /// the policy. [`NanPolicy::Reject`] fails on the first one;
    /// [`NanPolicy::ImputeZero`] replaces each with `0.0`;
    /// [`NanPolicy::NanAware`] keeps them when the consumer has a NaN path
    /// (`nan_path`, tree scoring) and zero-imputes them otherwise
    /// (TreeSHAP, abduction and non-tree models have none). An owned row
    /// is imputed in place; a borrowed one is copied only when a value
    /// must change.
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`] when the length is wrong;
    /// [`InputError::NonFinite`], naming the first non-finite value, under
    /// [`NanPolicy::Reject`].
    pub fn admit<'a>(
        self,
        x: impl Into<Cow<'a, [f32]>>,
        expected: Option<usize>,
        nan_path: bool,
    ) -> Result<Cow<'a, [f32]>, DrcshapError> {
        let mut x = x.into();
        if let Some(expected) = expected {
            if x.len() != expected {
                return Err(InputError::LengthMismatch { expected, found: x.len() }.into());
            }
        }
        if self == NanPolicy::NanAware && nan_path {
            return Ok(x);
        }
        let Some(index) = x.iter().position(|v| !v.is_finite()) else {
            return Ok(x);
        };
        if self == NanPolicy::Reject {
            return Err(InputError::NonFinite { index, value: x[index] }.into());
        }
        for v in &mut x.to_mut()[index..] {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        Ok(x)
    }
}

/// Model size and per-prediction cost, as reported in Table II.
///
/// *Parameters* counts every stored number the model needs at prediction
/// time (support vectors, tree node fields, NN weights). *Prediction ops*
/// counts arithmetic operations for scoring one sample (the paper's
/// "number of predictive operations" complexity metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ModelComplexity {
    /// Stored parameters.
    pub num_parameters: usize,
    /// Arithmetic operations per single-sample prediction.
    pub prediction_ops: usize,
}

impl std::fmt::Display for ModelComplexity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}k params, {:.1}k ops/prediction",
            self.num_parameters as f64 / 1e3,
            self.prediction_ops as f64 / 1e3
        )
    }
}

/// A trained binary scorer: maps a feature row to a continuous score where
/// higher means more likely positive (a probability for RF/NN, a margin for
/// SVM — the metrics are threshold-free, so any monotone score works).
pub trait Classifier: Send + Sync {
    /// Scores one sample.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len()` differs from the training
    /// feature count.
    fn score(&self, x: &[f32]) -> f64;

    /// Scores every sample of `data`, in row order.
    fn score_dataset(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_samples()).map(|i| self.score(data.row(i))).collect()
    }

    /// Size/cost accounting for Table II.
    fn complexity(&self) -> ModelComplexity;

    /// Short model-family name (`"RF"`, `"SVM-RBF"`, ...).
    fn name(&self) -> &'static str;

    /// The feature count this model was trained on, when known. Models that
    /// report `Some(m)` get length validation in [`Classifier::score_checked`].
    fn expected_features(&self) -> Option<usize> {
        None
    }

    /// Scores a sample that may contain NaN / infinite values, returning a
    /// defined (finite for probability models) result instead of poisoning
    /// the score. The default implementation zero-imputes non-finite values;
    /// tree ensembles override it with per-node default-direction routing.
    fn score_nan_aware(&self, x: &[f32]) -> f64 {
        let clean = NanPolicy::ImputeZero.admit(x, None, false).expect("no length to mismatch");
        self.score(&clean)
    }

    /// The validated predict boundary: admits `x` through
    /// [`NanPolicy::admit`] against [`Classifier::expected_features`], so
    /// no malformed input can reach the panic-prone raw
    /// [`Classifier::score`] path; [`NanPolicy::NanAware`] rows score
    /// through [`Classifier::score_nan_aware`].
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`] when the length is wrong;
    /// [`InputError::NonFinite`] when `policy` is [`NanPolicy::Reject`] and
    /// the vector contains a NaN or infinity.
    fn score_checked(&self, x: &[f32], policy: NanPolicy) -> Result<f64, DrcshapError> {
        let x = policy.admit(x, self.expected_features(), true)?;
        Ok(if policy == NanPolicy::NanAware { self.score_nan_aware(&x) } else { self.score(&x) })
    }
}

/// A model-family trainer: hyperparameters live on the implementing struct,
/// so a grid of trainers *is* a hyperparameter grid.
pub trait Trainer: Send + Sync {
    /// The trained model type.
    type Model: Classifier;

    /// Fits a model on `data`, deterministically for a given `seed`.
    fn fit(&self, data: &Dataset, seed: u64) -> Self::Model;

    /// Short model-family name, matching `Classifier::name`.
    fn name(&self) -> &'static str;

    /// A compact description of this trainer's hyperparameters.
    fn describe(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial threshold model over feature 0 for trait plumbing tests.
    struct Stump(f32);

    impl Classifier for Stump {
        fn score(&self, x: &[f32]) -> f64 {
            f64::from(x[0] - self.0)
        }
        fn complexity(&self) -> ModelComplexity {
            ModelComplexity { num_parameters: 1, prediction_ops: 2 }
        }
        fn name(&self) -> &'static str {
            "stump"
        }
    }

    #[test]
    fn score_dataset_matches_pointwise() {
        let data = Dataset::from_parts(
            vec![0.5, 0.0, 1.5, 0.0, -1.0, 0.0],
            vec![true, true, false],
            vec![0, 0, 0],
            2,
        );
        let m = Stump(1.0);
        let scores = m.score_dataset(&data);
        assert_eq!(scores.len(), 3);
        for (i, &s) in scores.iter().enumerate() {
            assert_eq!(s, m.score(data.row(i)));
        }
    }

    /// A stump that reports its expected feature count.
    struct SizedStump(f32);

    impl Classifier for SizedStump {
        fn score(&self, x: &[f32]) -> f64 {
            f64::from(x[0] - self.0)
        }
        fn complexity(&self) -> ModelComplexity {
            ModelComplexity { num_parameters: 1, prediction_ops: 2 }
        }
        fn name(&self) -> &'static str {
            "stump"
        }
        fn expected_features(&self) -> Option<usize> {
            Some(2)
        }
    }

    #[test]
    fn score_checked_validates_length() {
        let m = SizedStump(0.5);
        assert!(m.score_checked(&[1.0, 0.0], NanPolicy::Reject).is_ok());
        let e = m.score_checked(&[1.0], NanPolicy::Reject).unwrap_err();
        assert!(
            matches!(e, DrcshapError::Input(InputError::LengthMismatch { expected: 2, found: 1 })),
            "{e}"
        );
        // Models without a known width skip the check.
        assert!(Stump(0.5).score_checked(&[1.0, 2.0, 3.0], NanPolicy::Reject).is_ok());
    }

    #[test]
    fn reject_policy_names_the_offending_index() {
        let m = SizedStump(0.5);
        let e = m.score_checked(&[1.0, f32::NAN], NanPolicy::Reject).unwrap_err();
        assert!(matches!(e, DrcshapError::Input(InputError::NonFinite { index: 1, .. })), "{e}");
        let e = m.score_checked(&[f32::INFINITY, 0.0], NanPolicy::Reject).unwrap_err();
        assert!(matches!(e, DrcshapError::Input(InputError::NonFinite { index: 0, .. })), "{e}");
    }

    #[test]
    fn impute_zero_scores_as_if_zero() {
        let m = SizedStump(0.25);
        let imputed = m.score_checked(&[f32::NAN, 1.0], NanPolicy::ImputeZero).unwrap();
        assert_eq!(imputed, m.score(&[0.0, 1.0]));
        // Clean inputs are untouched.
        let clean = m.score_checked(&[0.75, 1.0], NanPolicy::ImputeZero).unwrap();
        assert_eq!(clean, m.score(&[0.75, 1.0]));
    }

    #[test]
    fn nan_aware_default_falls_back_to_imputation() {
        let m = SizedStump(0.25);
        let p = m.score_checked(&[f32::NAN, f32::NEG_INFINITY], NanPolicy::NanAware).unwrap();
        assert_eq!(p, m.score(&[0.0, 0.0]));
        assert!(p.is_finite());
    }

    #[test]
    fn complexity_displays_in_thousands() {
        let c = ModelComplexity { num_parameters: 4_269_700, prediction_ops: 34_300 };
        let s = c.to_string();
        assert!(s.contains("4269.7k"));
        assert!(s.contains("34.3k"));
    }
}
