//! Staged fleet rollout: canary one shard, verify bit-exactness through
//! the live serving path, then roll or roll back.
//!
//! A model update is only safe if the *compiled* serving path of the new
//! model reproduces its reference `predict_proba` bit for bit — the same
//! oracle the testkit holds a single engine to. `staged_rollout` enforces
//! that fleet-wide: swap the canary shard, replay a deterministic probe
//! set through its engine (micro-batching and all), CRC32-digest the
//! score bits, and compare against the reference digest computed from the
//! uncompiled forest. Any mismatch — wrong bits, wrong epoch, a scoring
//! error — reinstalls the previous model on every shard touched and
//! aborts with [`DrcshapError::RolloutAborted`]. Only a bit-exact canary
//! lets the rollout proceed to the rest of the fleet.
//!
//! The `inject-shap-fault` feature flips one expected score bit in the
//! reference digest so CI can drill the rollback path end to end.

use std::time::Duration;

use drcshap_core::artifact::Crc32;
use drcshap_forest::RandomForest;
use drcshap_ml::{DrcshapError, NanPolicy};
use drcshap_store::RegistryWatch;
use drcshap_telemetry as telemetry;
use serde::Serialize;

use crate::Gateway;

/// Probes replayed through the canary shard per rollout.
const CANARY_PROBES: usize = 64;

/// Retryable-error retries the canary check tolerates per probe (the
/// canary keeps serving live traffic during the check, so transient
/// `Overloaded` must not abort a healthy rollout).
const CANARY_RETRIES: usize = 400;

/// The outcome of a successful [`Gateway::staged_rollout`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RolloutReport {
    /// The shard that served as canary.
    pub canary_shard: usize,
    /// Probes replayed through the canary's live serving path.
    pub canary_probes: usize,
    /// CRC32 over the canary's score bits (== the reference digest).
    pub canary_digest: u32,
    /// Post-rollout model epoch per shard. Killed shards are skipped and
    /// report the epoch they were left at.
    pub epochs: Vec<u64>,
}

impl Gateway {
    /// Rolls `forest` out across the fleet with a digest-validated canary:
    /// shard-by-shard hot swap, canary-first, bit-exactness enforced
    /// through the live serving path, automatic rollback on any failure.
    /// Rollouts are serialized; scoring traffic continues throughout.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::RolloutAborted`] after a rollback (canary digest
    /// mismatch, canary scoring failure, or a mid-fleet swap failure);
    /// the schema errors of [`drcshap_serve::ServeEngine::swap`] if the
    /// canary swap itself is rejected (nothing to roll back);
    /// [`DrcshapError::Overloaded`] when no shard is available to canary.
    pub fn staged_rollout(
        &self,
        forest: RandomForest,
        fingerprint: u64,
    ) -> Result<RolloutReport, DrcshapError> {
        let _guard = self.rollout_lock.lock().expect("rollout lock poisoned");
        let _span = telemetry::span("gateway/rollout");
        self.counters.rollouts.add(1);
        let now_ns = self.now_ns();
        let canary = (0..self.shards.len())
            .find(|&s| self.shards[s].health.available(now_ns))
            .ok_or(DrcshapError::Overloaded { capacity: self.shards.len() })?;
        let probes = canary_probes(fingerprint, forest.n_features(), CANARY_PROBES);
        let expected = self.reference_digest(&forest, &probes);
        // Remember what the canary served before the swap; this is the
        // rollback target for the whole rollout.
        let previous = self.shards[canary].engine.model();
        let (prev_forest, prev_fp) = (previous.forest.clone(), previous.fingerprint);
        drop(previous);
        let new_epoch = self.shards[canary].engine.swap(forest.clone(), fingerprint)?;
        if let Err(detail) = self.canary_check(canary, new_epoch, &probes, expected) {
            self.roll_back(&[(canary, prev_forest.clone(), prev_fp)]);
            return Err(DrcshapError::RolloutAborted { shard: canary, detail });
        }
        // The canary is bit-exact through the live path: roll the fleet.
        let mut swapped = vec![(canary, prev_forest, prev_fp)];
        let mut epochs = vec![0u64; self.shards.len()];
        epochs[canary] = new_epoch;
        for (s, epoch_slot) in epochs.iter_mut().enumerate() {
            if s == canary {
                continue;
            }
            if self.shards[s].health.is_killed() {
                // A dead shard serves nothing; leave it at its old epoch
                // instead of torturing a drained engine.
                *epoch_slot = self.shards[s].engine.model().epoch;
                continue;
            }
            let model = self.shards[s].engine.model();
            let (old_forest, old_fp) = (model.forest.clone(), model.fingerprint);
            drop(model);
            match self.shards[s].engine.swap(forest.clone(), fingerprint) {
                Ok(epoch) => {
                    *epoch_slot = epoch;
                    swapped.push((s, old_forest, old_fp));
                }
                Err(e) => {
                    // Torn rollout: reinstall the previous model on every
                    // shard already swapped (canary included).
                    self.roll_back(&swapped);
                    return Err(DrcshapError::RolloutAborted {
                        shard: s,
                        detail: format!("fleet swap failed: {e}"),
                    });
                }
            }
        }
        self.counters.rollouts_completed.add(1);
        Ok(RolloutReport {
            canary_shard: canary,
            canary_probes: probes.len(),
            canary_digest: expected,
            epochs,
        })
    }

    /// Polls `watch` for a generation published since the last poll and,
    /// if one is there, rolls it out with the full canary discipline of
    /// [`Gateway::staged_rollout`]. The registry has already verified the
    /// generation end to end (journal record, content hash, container
    /// CRC32, schema fingerprint), so what reaches the canary digest check
    /// is bit-identical to what the trainer published.
    ///
    /// Returns `Ok(None)` when the registry holds nothing newer.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::usage`] if the new generation is not a Random
    /// Forest (the gateway serves nothing else; the generation counts as
    /// seen, so a bad publish cannot wedge the watch); otherwise the
    /// errors of [`RegistryWatch::poll`] and [`Gateway::staged_rollout`].
    pub fn rollout_from_watch(
        &self,
        watch: &mut RegistryWatch,
    ) -> Result<Option<RolloutReport>, DrcshapError> {
        let Some(loaded) = watch.poll()? else {
            return Ok(None);
        };
        let generation = loaded.generation;
        let forest = loaded
            .model
            .into_forest()
            .map_err(|e| DrcshapError::usage(format!("registry generation {generation}: {e}")))?;
        self.staged_rollout(forest, loaded.fingerprint).map(Some)
    }

    /// CRC32 over the reference scores the candidate model must produce
    /// on `probes`, honoring the fleet's NaN policy so the compiled path
    /// under comparison is the one that will actually serve.
    fn reference_digest(&self, forest: &RandomForest, probes: &[Vec<f32>]) -> u32 {
        let mut digest = Crc32::new();
        for (i, probe) in probes.iter().enumerate() {
            let score = match self.config.serve.nan_policy {
                NanPolicy::NanAware => forest.predict_proba_nan_aware(probe),
                _ => forest.predict_proba(probe),
            };
            digest.update(&fault_mask(i, score.to_bits()).to_le_bytes());
        }
        digest.finalize()
    }

    /// Replays `probes` through the canary's live engine and compares the
    /// score-bit digest against `expected`. `Err` carries the operator-
    /// facing abort reason.
    fn canary_check(
        &self,
        canary: usize,
        epoch: u64,
        probes: &[Vec<f32>],
        expected: u32,
    ) -> Result<(), String> {
        let mut digest = Crc32::new();
        for (i, probe) in probes.iter().enumerate() {
            let mut tries = 0usize;
            let response = loop {
                match self.shards[canary].engine.score(probe.clone()) {
                    Ok(response) => break response,
                    Err(e) if e.is_retryable() && tries < CANARY_RETRIES => {
                        tries += 1;
                        std::thread::sleep(Duration::from_micros(250));
                    }
                    Err(e) => return Err(format!("canary probe {i} failed: {e}")),
                }
            };
            if response.epoch != epoch {
                return Err(format!(
                    "canary probe {i} scored by epoch {} instead of {epoch}",
                    response.epoch
                ));
            }
            digest.update(&response.score.to_bits().to_le_bytes());
        }
        let got = digest.finalize();
        if got != expected {
            return Err(format!(
                "canary digest {got:#010x} != reference {expected:#010x} over {} probes",
                probes.len()
            ));
        }
        Ok(())
    }

    /// Reinstalls the pre-rollout model on every shard in `swapped`. The
    /// identity (fingerprint, feature count) cannot have changed, so
    /// these swaps cannot fail; the rollback bumps each shard's epoch
    /// again — epochs mark *swaps*, not model content.
    fn roll_back(&self, swapped: &[(usize, RandomForest, u64)]) {
        for (shard, forest, fingerprint) in swapped {
            self.shards[*shard]
                .engine
                .swap(forest.clone(), *fingerprint)
                .expect("rollback swap preserves identity");
        }
        self.counters.rollbacks.add(1);
    }
}

/// Identity in real builds: the reference digest is exactly the candidate
/// model's own scores.
#[cfg(not(feature = "inject-shap-fault"))]
fn fault_mask(_index: usize, bits: u64) -> u64 {
    bits
}

/// Fault drill: corrupts the first expected score bit so the canary
/// digest comparison must fail and the rollback path is exercised.
#[cfg(feature = "inject-shap-fault")]
fn fault_mask(index: usize, bits: u64) -> u64 {
    if index == 0 {
        bits ^ 1
    } else {
        bits
    }
}

/// A deterministic probe set: xorshift64 over the rollout fingerprint, so
/// the same candidate model is always checked against the same probes
/// (reproducible aborts) without consuming any shared RNG state.
fn canary_probes(seed: u64, n_features: usize, count: usize) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut probes = Vec::with_capacity(count);
    for _ in 0..count {
        let mut probe = Vec::with_capacity(n_features);
        for _ in 0..n_features {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Top 24 bits -> [0, 1): exact in f32, well inside the
            // feature ranges the models train on.
            probe.push((state >> 40) as f32 / (1u64 << 24) as f32);
        }
        probes.push(probe);
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_probes_are_deterministic_and_in_range() {
        let a = canary_probes(7, 3, 16);
        let b = canary_probes(7, 3, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for probe in &a {
            assert_eq!(probe.len(), 3);
            for &v in probe {
                assert!((0.0..1.0).contains(&v), "{v} out of range");
            }
        }
        assert_ne!(canary_probes(8, 3, 16), a, "different fingerprints probe differently");
    }
}
