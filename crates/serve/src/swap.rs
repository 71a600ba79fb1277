//! Hot model swap: an epoch-guarded shared pointer to the serving model.
//!
//! Workers load the current [`ModelEpoch`] once per batch, so every batch
//! — and therefore every request — is scored by exactly one epoch; a swap
//! lands *between* batches without dropping or mixing requests. Swaps are
//! validated against the schema fingerprint and feature count the cell was
//! created with (the same identity checks `core::artifact` stamps into
//! model files), so a model trained against a different feature schema can
//! never slip into the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use drcshap_forest::{CompiledForest, RandomForest};
use drcshap_ml::{DrcshapError, SchemaError};
use drcshap_telemetry as telemetry;

/// One immutable generation of the serving model: the reference forest
/// (kept for SHAP explanations), its compiled inference layout, and the
/// identity it was validated against.
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
}

impl ModelEpoch {
    /// Scores a row-major batch through this epoch's compiled forest,
    /// under the `kernel/compiled` telemetry span. Plain batches are
    /// bit-identical to `RandomForest::predict_proba` per row, `nan_aware`
    /// ones to `predict_proba_nan_aware`.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of the feature count.
    pub fn score_batch(&self, flat: &[f32], nan_aware: bool) -> Vec<f64> {
        let _span = telemetry::span("kernel/compiled");
        telemetry::counter(
            "serve/kernel_rows",
            (flat.len() / self.compiled.n_features().max(1)) as u64,
        );
        if nan_aware {
            self.compiled.score_batch_nan_aware(flat)
        } else {
            self.compiled.score_batch(flat)
        }
    }
}

/// The epoch-guarded model pointer. `load` is a brief read lock returning
/// an [`Arc`] that keeps the epoch alive for the duration of a batch even
/// if a swap replaces it concurrently.
#[derive(Debug)]
pub struct EpochCell {
    current: RwLock<Arc<ModelEpoch>>,
    /// Cached copy of the live epoch number, readable without the lock.
    epoch: AtomicU64,
}

impl EpochCell {
    /// Compiles `forest` and installs it as epoch 1, bound to
    /// `fingerprint` as the cell's schema identity.
    pub fn new(forest: RandomForest, fingerprint: u64) -> Self {
        let compiled = CompiledForest::compile(&forest);
        let initial = Arc::new(ModelEpoch { epoch: 1, fingerprint, forest, compiled });
        Self { current: RwLock::new(initial), epoch: AtomicU64::new(1) }
    }

    /// The currently serving epoch.
    pub fn load(&self) -> Arc<ModelEpoch> {
        self.current.read().expect("epoch lock poisoned").clone()
    }

    /// The live epoch number, without taking the lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Validates and installs a replacement model, returning the new epoch
    /// number. In-flight batches keep scoring with the epoch they loaded;
    /// the next batch picks up the replacement.
    ///
    /// # Errors
    ///
    /// [`SchemaError::FingerprintMismatch`] when `fingerprint` differs from
    /// the cell's schema identity; [`SchemaError::FeatureCountMismatch`]
    /// when the replacement forest was trained on a different feature
    /// count.
    pub fn swap(&self, forest: RandomForest, fingerprint: u64) -> Result<u64, DrcshapError> {
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
        let epoch = guard.epoch + 1;
        let compiled = CompiledForest::compile(&forest);
        *guard = Arc::new(ModelEpoch { epoch, fingerprint, forest, compiled });
        self.epoch.store(epoch, Ordering::Release);
        Ok(epoch)
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
        let cell = EpochCell::new(forest(1, 2), 99);
        assert_eq!(cell.epoch(), 1);
        let before = cell.load();
        let epoch = cell.swap(forest(2, 2), 99).expect("valid swap");
        assert_eq!(epoch, 2);
        assert_eq!(cell.epoch(), 2);
        let after = cell.load();
        assert_eq!(after.epoch, 2);
        // The old epoch is still alive for whoever holds it.
        assert_eq!(before.epoch, 1);
        assert_eq!(before.compiled.n_trees(), 5);
    }

    #[test]
    fn swap_rejects_wrong_fingerprint() {
        let cell = EpochCell::new(forest(1, 2), 99);
        let e = cell.swap(forest(2, 2), 98).unwrap_err();
        assert!(
            matches!(
                e,
                DrcshapError::Schema(SchemaError::FingerprintMismatch { expected: 99, found: 98 })
            ),
            "{e}"
        );
        assert_eq!(cell.epoch(), 1, "failed swap must not bump the epoch");
    }

    #[test]
    fn swap_rejects_wrong_feature_count() {
        let cell = EpochCell::new(forest(1, 2), 99);
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
