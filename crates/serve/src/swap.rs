//! Hot model swap: an epoch-guarded shared pointer to the serving model.
//!
//! Workers load the current [`ModelEpoch`] once per batch, so every batch
//! — and therefore every request — is scored by exactly one epoch; a swap
//! lands *between* batches without dropping or mixing requests. Swaps are
//! validated against the schema fingerprint and feature count the cell was
//! created with (the same identity checks `core::artifact` stamps into
//! model files), so a model trained against a different feature schema can
//! never slip into the hot path.
//!
//! An epoch also owns everything derived from its forest: the explanation
//! cache, the lazily encoded SAT engine, and, when analytics is mounted,
//! the analytics sink with the provenance its snapshots carry. A swap
//! replaces all of them with one pointer store, and an explanation
//! computed on an epoch can only land in that epoch's cache and sink.

use std::sync::{Arc, Mutex, RwLock};

use drcshap_analytics::{AnalyticsConfig, AnalyticsSink, AnalyticsSnapshot, Provenance};
use drcshap_core::SavedModel;
use drcshap_forest::{CompiledForest, RandomForest};
use drcshap_ml::{DrcshapError, SchemaError};
use drcshap_shap::InteractionValues;
use drcshap_telemetry as telemetry;
use drcshap_xsat::AbductiveEngine;

use crate::cache::ExplanationCache;

/// One immutable generation of the serving model: the reference forest
/// (kept for SHAP explanations), its compiled inference layout, the
/// identity it was validated against, and the state derived from it.
#[derive(Debug)]
pub struct ModelEpoch {
    /// Monotonically increasing epoch number; the initial model is 1.
    pub epoch: u64,
    /// Feature-schema fingerprint this model was validated against.
    pub fingerprint: u64,
    /// The reference forest (exact SHAP, expected value).
    pub forest: RandomForest,
    /// The compiled batched-inference layout every batch is scored by.
    pub compiled: CompiledForest,
    /// SHAP explanations of this epoch's forest.
    pub(crate) cache: ExplanationCache,
    /// The SAT engine encoded from this epoch's forest on its first
    /// abductive call; learned clauses carry over within the epoch.
    pub(crate) abductive: Mutex<Option<AbductiveEngine>>,
    /// This epoch's analytics; `None` when analytics is off.
    pub(crate) analytics: Option<EpochAnalytics>,
}

impl ModelEpoch {
    /// Compiles `forest` as epoch `epoch`, with an empty cache and, given
    /// an analytics config and the artifact CRC, an empty sink.
    fn new(
        epoch: u64,
        fingerprint: u64,
        forest: RandomForest,
        cache_capacity: usize,
        analytics: Option<(&AnalyticsConfig, u32)>,
    ) -> Self {
        let compiled = CompiledForest::compile(&forest);
        let analytics = analytics.map(|(config, artifact_crc)| EpochAnalytics {
            provenance: Provenance {
                artifact_crc,
                schema_fingerprint: fingerprint,
                model_epoch: epoch,
            },
            sink: Mutex::new(Some(AnalyticsSink::new(config.clone()))),
        });
        Self {
            epoch,
            fingerprint,
            forest,
            compiled,
            cache: ExplanationCache::new(cache_capacity),
            abductive: Mutex::new(None),
            analytics,
        }
    }

    /// Scores a row-major batch through this epoch's compiled forest,
    /// under the `kernel/compiled` telemetry span, whose detail is the
    /// batch size. Plain batches are bit-identical to
    /// `RandomForest::predict_proba` per row, `nan_aware` ones to
    /// `predict_proba_nan_aware`.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of the feature count.
    pub fn score_batch(&self, flat: &[f32], nan_aware: bool) -> Vec<f64> {
        let _span = telemetry::span_with("kernel/compiled", || {
            format!("{} samples", flat.len() / self.compiled.n_features().max(1))
        });
        if nan_aware {
            self.compiled.score_batch_nan_aware(flat)
        } else {
            self.compiled.score_batch(flat)
        }
    }
}

/// One epoch's analytics sink and the provenance its snapshots carry
/// (artifact CRC, schema fingerprint, epoch).
#[derive(Debug)]
pub(crate) struct EpochAnalytics {
    provenance: Provenance,
    /// The live sink; taken when a swap retires the epoch.
    sink: Mutex<Option<AnalyticsSink>>,
}

impl EpochAnalytics {
    /// Folds one explained request. `false` when the fold was dropped:
    /// the epoch was retired by a swap, or the shapes disagree.
    pub(crate) fn fold(&self, x: &[f32], phi: &[f64], iv: Option<&InteractionValues>) -> bool {
        let mut sink = self.sink.lock().expect("analytics sink lock poisoned");
        let Some(sink) = sink.as_mut() else { return false };
        if sink.fold(x, phi).is_err() {
            return false;
        }
        if let Some(iv) = iv {
            sink.fold_interactions(iv);
        }
        true
    }

    /// The live sink's snapshot, reporting `stale_folds`; `None` once the
    /// epoch is retired.
    pub(crate) fn snapshot(&self, stale_folds: u64) -> Option<AnalyticsSnapshot> {
        let sink = self.sink.lock().expect("analytics sink lock poisoned");
        sink.as_ref().map(|sink| {
            let mut snapshot = sink.snapshot(self.provenance);
            snapshot.stale_folds = stale_folds;
            snapshot
        })
    }

    /// Drops the sink; every later fold on this epoch is dropped too.
    pub(crate) fn retire(&self) {
        self.sink.lock().expect("analytics sink lock poisoned").take();
    }
}

/// CRC32 of the canonical artifact encoding of `forest` — the same bytes
/// `core::artifact::save_model` would write, so analytics provenance
/// matches the on-disk artifact identity.
fn artifact_crc_of(forest: &RandomForest, fingerprint: u64) -> u32 {
    drcshap_core::encode_model(&SavedModel::Rf(forest.clone()), fingerprint)
        .map(|bytes| drcshap_core::artifact::crc32(&bytes))
        .unwrap_or(0)
}

/// The epoch-guarded model pointer. `load` is a brief read lock returning
/// an [`Arc`] that keeps the epoch alive for the duration of a batch even
/// if a swap replaces it concurrently.
#[derive(Debug)]
pub struct EpochCell {
    current: RwLock<Arc<ModelEpoch>>,
    cache_capacity: usize,
    analytics: Option<AnalyticsConfig>,
}

impl EpochCell {
    /// Compiles `forest` and installs it as epoch 1, bound to
    /// `fingerprint` as the cell's schema identity. Every epoch gets an
    /// explanation cache of `cache_capacity` entries and, when `analytics`
    /// is set, a sink of its own, stamped with the artifact CRC (computed
    /// only then).
    pub fn new(
        forest: RandomForest,
        fingerprint: u64,
        cache_capacity: usize,
        analytics: Option<AnalyticsConfig>,
    ) -> Self {
        let crc = analytics.as_ref().map(|_| artifact_crc_of(&forest, fingerprint));
        let initial =
            ModelEpoch::new(1, fingerprint, forest, cache_capacity, analytics.as_ref().zip(crc));
        Self { current: RwLock::new(Arc::new(initial)), cache_capacity, analytics }
    }

    /// The currently serving epoch.
    pub fn load(&self) -> Arc<ModelEpoch> {
        self.current.read().expect("epoch lock poisoned").clone()
    }

    /// Validates and installs a replacement model as the next epoch, with
    /// a fresh cache and sink, and returns the epoch it replaced.
    /// In-flight batches and explanations keep working with the epoch
    /// they loaded; the next ones pick up the replacement.
    ///
    /// # Errors
    ///
    /// [`SchemaError::FingerprintMismatch`] when `fingerprint` differs from
    /// the cell's schema identity; [`SchemaError::FeatureCountMismatch`]
    /// when the replacement forest was trained on a different feature
    /// count.
    pub fn swap(
        &self,
        forest: RandomForest,
        fingerprint: u64,
    ) -> Result<Arc<ModelEpoch>, DrcshapError> {
        let crc = self.analytics.as_ref().map(|_| artifact_crc_of(&forest, fingerprint));
        let mut guard = self.current.write().expect("epoch lock poisoned");
        if fingerprint != guard.fingerprint {
            return Err(SchemaError::FingerprintMismatch {
                expected: guard.fingerprint,
                found: fingerprint,
            }
            .into());
        }
        if forest.n_features() != guard.forest.n_features() {
            return Err(SchemaError::FeatureCountMismatch {
                expected: guard.forest.n_features(),
                found: forest.n_features(),
            }
            .into());
        }
        let next = ModelEpoch::new(
            guard.epoch + 1,
            fingerprint,
            forest,
            self.cache_capacity,
            self.analytics.as_ref().zip(crc),
        );
        Ok(std::mem::replace(&mut *guard, Arc::new(next)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn forest(seed: u64, n_features: usize) -> RandomForest {
        let n = 60;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            for j in 0..n_features {
                x.push(((i * 7 + j * 3 + seed as usize) % 10) as f32 / 10.0);
            }
            y.push(i % 3 == 0);
        }
        let data = Dataset::from_parts(x, y, vec![0; n], n_features);
        RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&data, seed)
    }

    #[test]
    fn swap_bumps_the_epoch_and_replaces_the_model() {
        let cell = EpochCell::new(forest(1, 2), 99, 4, None);
        assert_eq!(cell.load().epoch, 1);
        let before = cell.load();
        let replaced = cell.swap(forest(2, 2), 99).expect("valid swap");
        assert!(Arc::ptr_eq(&replaced, &before));
        let after = cell.load();
        assert_eq!(after.epoch, 2);
        // The old epoch is still alive for whoever holds it.
        assert_eq!(before.epoch, 1);
        assert_eq!(before.compiled.n_trees(), 5);
    }

    #[test]
    fn swap_rejects_wrong_fingerprint() {
        let cell = EpochCell::new(forest(1, 2), 99, 4, None);
        let e = cell.swap(forest(2, 2), 98).unwrap_err();
        assert!(
            matches!(
                e,
                DrcshapError::Schema(SchemaError::FingerprintMismatch { expected: 99, found: 98 })
            ),
            "{e}"
        );
        assert_eq!(cell.load().epoch, 1, "failed swap must not bump the epoch");
    }

    #[test]
    fn swap_rejects_wrong_feature_count() {
        let cell = EpochCell::new(forest(1, 2), 99, 4, None);
        let e = cell.swap(forest(2, 3), 99).unwrap_err();
        assert!(
            matches!(
                e,
                DrcshapError::Schema(SchemaError::FeatureCountMismatch { expected: 2, found: 3 })
            ),
            "{e}"
        );
        assert_eq!(cell.load().epoch, 1);
    }
}
