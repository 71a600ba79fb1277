//! Grouped cross-validation and grid search — the paper's training stage.
//!
//! For each candidate hyperparameter set, the trainer is fitted once per
//! *training group* held out for validation (4 passes in the paper's
//! protocol), scored on the held-out group, and the scores averaged.
//! Validation never sees samples of a design that also appears in training,
//! matching the paper's data-availability argument.

use drcshap_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::classifier::{Classifier, Trainer};
use crate::dataset::Dataset;
use crate::error::{DrcshapError, InputError};
use crate::metrics;

/// The model-selection metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionMetric {
    /// Area under the precision-recall curve (the paper's choice).
    Auprc,
    /// Area under the ROC curve (ablation baseline; §III-B argues it is
    /// less suited to rare-event prediction).
    Auroc,
}

impl SelectionMetric {
    fn evaluate(self, scores: &[f64], labels: &[bool]) -> f64 {
        match self {
            SelectionMetric::Auprc => metrics::average_precision(scores, labels),
            SelectionMetric::Auroc => metrics::roc_auc(scores, labels),
        }
    }
}

/// Cross-validation result for one hyperparameter candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CvOutcome {
    /// Score per validation fold (one per held-out group), in group order.
    pub fold_scores: Vec<f64>,
    /// Mean of the fold scores (0.0 when every fold was degenerate).
    pub mean: f64,
}

/// Runs grouped leave-one-group-out cross-validation of `trainer` on
/// `data`, scoring with `metric`.
///
/// Folds whose validation group lacks positive or negative samples are
/// skipped (the metric is undefined there).
///
/// # Errors
///
/// [`InputError::DegenerateGroups`] if `data` has fewer than two distinct
/// groups — leave-one-group-out cannot form a single train/validation split.
pub fn cross_validate<T: Trainer>(
    trainer: &T,
    data: &Dataset,
    metric: SelectionMetric,
    seed: u64,
) -> Result<CvOutcome, DrcshapError> {
    let groups = data.distinct_groups();
    if groups.len() < 2 {
        return Err(InputError::DegenerateGroups { found: groups.len() }.into());
    }
    let _cv_span = telemetry::span_with("cv/cross_validate", || trainer.describe());
    let mut fold_scores = Vec::with_capacity(groups.len());
    for (k, &held_out) in groups.iter().enumerate() {
        let _fold_span = telemetry::span_with("cv/fold", || format!("held-out group {held_out}"));
        let val = data.filter_groups(|g| g == held_out);
        let pos = val.num_positives();
        if pos == 0 || pos == val.n_samples() {
            telemetry::counter("cv/folds_skipped", 1);
            continue; // metric undefined on this fold
        }
        let train = data.filter_groups(|g| g != held_out);
        let model = trainer.fit(&train, seed.wrapping_add(k as u64));
        let scores = model.score_dataset(&val);
        fold_scores.push(metric.evaluate(&scores, val.labels()));
        telemetry::counter("cv/folds_scored", 1);
    }
    let mean = if fold_scores.is_empty() {
        0.0
    } else {
        fold_scores.iter().sum::<f64>() / fold_scores.len() as f64
    };
    Ok(CvOutcome { fold_scores, mean })
}

/// Grid-search result: per-candidate CV outcomes and the winner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSearchOutcome {
    /// One CV outcome per candidate, in input order.
    pub results: Vec<CvOutcome>,
    /// Index of the best candidate (highest mean fold score).
    pub best_index: usize,
    /// Hyperparameter descriptions, parallel to `results`.
    pub descriptions: Vec<String>,
}

/// Cross-validates every candidate and picks the best by mean score —
/// the paper's "grid search with 4-fold cross validation".
///
/// # Errors
///
/// [`InputError::DegenerateGroups`] if `data` has fewer than two distinct
/// groups.
///
/// # Panics
///
/// Panics if `candidates` is empty (a programming error, unlike the
/// data-dependent group count).
pub fn grid_search<T: Trainer>(
    candidates: &[T],
    data: &Dataset,
    metric: SelectionMetric,
    seed: u64,
) -> Result<GridSearchOutcome, DrcshapError> {
    assert!(!candidates.is_empty(), "empty hyperparameter grid");
    let _grid_span =
        telemetry::span_with("cv/grid_search", || format!("{} candidates", candidates.len()));
    let results: Vec<CvOutcome> = candidates
        .iter()
        .map(|t| cross_validate(t, data, metric, seed))
        .collect::<Result<_, _>>()?;
    let best_index = results
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.mean.total_cmp(&b.1.mean))
        .map(|(i, _)| i)
        .expect("non-empty grid");
    Ok(GridSearchOutcome {
        best_index,
        descriptions: candidates.iter().map(|t| t.describe()).collect(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ModelComplexity;

    /// Predicts with a fixed weight on feature 0 (fit is a no-op), so CV
    /// outcomes are exactly predictable in tests.
    #[derive(Clone, Debug)]
    struct LinearStub {
        weight: f64,
    }

    struct LinearModel {
        weight: f64,
    }

    impl Classifier for LinearModel {
        fn score(&self, x: &[f32]) -> f64 {
            self.weight * x[0] as f64
        }
        fn complexity(&self) -> ModelComplexity {
            ModelComplexity { num_parameters: 1, prediction_ops: 1 }
        }
        fn name(&self) -> &'static str {
            "linear-stub"
        }
    }

    impl Trainer for LinearStub {
        type Model = LinearModel;
        fn fit(&self, _data: &Dataset, _seed: u64) -> LinearModel {
            LinearModel { weight: self.weight }
        }
        fn name(&self) -> &'static str {
            "linear-stub"
        }
        fn describe(&self) -> String {
            format!("w={}", self.weight)
        }
    }

    /// Feature-0-is-the-label dataset over 3 groups.
    fn separable() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut g = Vec::new();
        for group in 0..3u32 {
            for i in 0..20 {
                let label = i % 4 == 0;
                x.push(if label { 1.0 } else { 0.0 });
                x.push(0.5);
                y.push(label);
                g.push(group);
            }
        }
        Dataset::from_parts(x, y, g, 2)
    }

    #[test]
    fn cv_scores_good_model_high() {
        let data = separable();
        let good =
            cross_validate(&LinearStub { weight: 1.0 }, &data, SelectionMetric::Auprc, 0).unwrap();
        let bad =
            cross_validate(&LinearStub { weight: -1.0 }, &data, SelectionMetric::Auprc, 0).unwrap();
        assert_eq!(good.fold_scores.len(), 3);
        assert!((good.mean - 1.0).abs() < 1e-9);
        assert!(bad.mean < good.mean);
    }

    #[test]
    fn grid_search_picks_the_winner() {
        let data = separable();
        let grid = vec![
            LinearStub { weight: -1.0 },
            LinearStub { weight: 1.0 },
            LinearStub { weight: -0.5 },
        ];
        let out = grid_search(&grid, &data, SelectionMetric::Auprc, 0).unwrap();
        assert_eq!(out.best_index, 1);
        assert_eq!(out.descriptions[1], "w=1");
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn degenerate_folds_are_skipped() {
        // Group 2 has no positives: only two folds scored.
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut g = Vec::new();
        for group in 0..3u32 {
            for i in 0..10 {
                let label = group != 2 && i % 2 == 0;
                x.push(if label { 1.0 } else { 0.0 });
                y.push(label);
                g.push(group);
            }
        }
        let data = Dataset::from_parts(x, y, g, 1);
        let out =
            cross_validate(&LinearStub { weight: 1.0 }, &data, SelectionMetric::Auprc, 0).unwrap();
        assert_eq!(out.fold_scores.len(), 2);
    }

    #[test]
    fn auroc_metric_is_supported() {
        let data = separable();
        let out =
            cross_validate(&LinearStub { weight: 1.0 }, &data, SelectionMetric::Auroc, 0).unwrap();
        assert!((out.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_groups_are_a_typed_error_not_a_panic() {
        let data = Dataset::from_parts(vec![0.0, 1.0], vec![true, false], vec![0, 0], 1);
        let err = cross_validate(&LinearStub { weight: 1.0 }, &data, SelectionMetric::Auprc, 0)
            .unwrap_err();
        assert!(
            matches!(err, DrcshapError::Input(InputError::DegenerateGroups { found: 1 })),
            "{err}"
        );
        // The same guard propagates through grid search.
        let err = grid_search(&[LinearStub { weight: 1.0 }], &data, SelectionMetric::Auprc, 0)
            .unwrap_err();
        assert!(matches!(err, DrcshapError::Input(InputError::DegenerateGroups { .. })), "{err}");
    }
}
