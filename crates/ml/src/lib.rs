#![warn(missing_docs)]
//! ML substrate for the `drcshap` workspace: datasets, normalization, the
//! classifier abstraction, the paper's evaluation metrics, grouped
//! cross-validation with grid search, and model complexity accounting.
//!
//! The paper's protocol (Section II) is deliberately encoded in types here:
//!
//! - [`Dataset`] carries a *group* tag per sample (the design it came from)
//!   so that train/validation splits can never separate samples of the same
//!   design — the paper's data-availability argument against the optimistic
//!   splits of earlier work;
//! - [`metrics`] implements the paper's headline metrics: area under the
//!   precision-recall curve ([`metrics::average_precision`]) plus `TPR*` and
//!   `Prec*` at the classification threshold where FPR = 0.5%
//!   ([`metrics::tpr_prec_at_fpr`]);
//! - [`tune::grid_search`] runs the 4-pass grouped cross-validation of the
//!   paper's training stage, selecting hyperparameters by AUPRC.
//!
//! # Example
//!
//! ```
//! use drcshap_ml::metrics;
//!
//! let scores = [0.9, 0.8, 0.7, 0.1];
//! let labels = [true, false, true, false];
//! let ap = metrics::average_precision(&scores, &labels);
//! assert!(ap > 0.5 && ap <= 1.0);
//! ```

pub mod classifier;
pub mod dataset;
pub mod error;
pub mod metrics;
pub mod scaler;
pub mod tune;

pub use classifier::{Classifier, ModelComplexity, NanPolicy, Trainer};
pub use dataset::Dataset;
pub use error::{
    ArtifactError, DrcshapError, InputError, PipelineError, SchemaError, StoreError, XsatError,
};
pub use metrics::{
    average_precision, lift_curve, pr_curve, precision_at_k, roc_auc, roc_curve, tpr_prec_at_fpr,
    OperatingPoint, PAPER_FPR,
};
pub use scaler::StandardScaler;
pub use tune::{cross_validate, grid_search, CvOutcome, GridSearchOutcome, SelectionMetric};
