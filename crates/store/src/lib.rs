//! drcshap-store: the crash-safe model registry.
//!
//! Durable model storage for the drcshap serving stack, built from three
//! layers:
//!
//! - [`backend`] — the [`StorageBackend`] trait (the narrow syscall
//!   surface the registry needs, with durability made explicit) and
//!   [`FsBackend`], the real-filesystem implementation that honors the
//!   full atomic-publish discipline: write `*.tmp` → fsync file → rename
//!   → fsync parent directory.
//! - [`fault`] — [`MemBackend`], an in-memory filesystem whose crashes
//!   resolve unsynced state adversarially (torn writes, reverted renames,
//!   vanished creates), and [`FaultBackend`], which schedules crashes at
//!   exact syscall boundaries plus one-shot `ENOSPC`/`EIO` failures and
//!   durable bit flips. This is what the testkit crash soak drives.
//! - [`journal`] + [`registry`] — an append-only CRC-framed generation
//!   journal over content-addressed immutable blobs, and the
//!   [`Registry`] API (`publish` / `open_latest` / `watch` / `verify` /
//!   `gc`) whose recovery truncates torn journal tails and quarantines
//!   corrupt blobs until it lands on the newest *verified* generation.
//!
//! Invariants the crash soak holds this crate to: a publish that returned
//! `Ok` is never lost; `open_latest` after recovery always yields a
//! bit-identical, fingerprint-valid model; a quarantined blob is never
//! served again; every failure is a typed [`drcshap_ml::DrcshapError`].

pub mod backend;
pub mod fault;
pub mod journal;
pub mod registry;

pub use backend::{publish_file, FsBackend, StorageBackend};
pub use fault::{FaultBackend, FaultKind, FaultPlan, MemBackend};
pub use registry::{
    fnv1a64, kind_name, GcReport, GenerationInfo, GenerationStatus, Loaded, Published,
    RecoveryReport, Registry, RegistryWatch, VerifyReport,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use drcshap_core::artifact::SavedModel;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, DrcshapError, StoreError, Trainer};

    use super::backend::StorageBackend;
    use super::fault::{FaultBackend, FaultKind, FaultPlan};
    use super::registry::Registry;

    /// A tiny deterministic forest distinguishable per `seed`.
    fn forest(seed: u64) -> SavedModel {
        let n = 40;
        let mut x = Vec::with_capacity(n * 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let v = ((i * 2654435761 + seed) % 97) as f32 / 97.0;
            x.extend_from_slice(&[v, 1.0 - v, (v * 13.0) % 1.0]);
            y.push(v > 0.5);
        }
        let data = Dataset::from_parts(x, y, vec![0; n], 3);
        let trainer = RandomForestTrainer { n_trees: 3, ..Default::default() };
        SavedModel::Rf(trainer.fit(&data, seed))
    }

    fn open(backend: &Arc<FaultBackend>) -> Registry {
        Registry::open(backend.clone() as Arc<dyn super::StorageBackend>).unwrap()
    }

    #[test]
    fn publish_then_open_latest_round_trips_bit_identically() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        let model = forest(1);
        let published = registry.publish_model(&model, 0xfeed).unwrap();
        assert_eq!(published.generation, 1);
        let loaded = registry.open_latest().unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.fingerprint, 0xfeed);
        assert_eq!(loaded.model, model);
    }

    #[test]
    fn empty_registry_is_a_typed_error() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        match registry.open_latest() {
            Err(DrcshapError::Store(StoreError::Empty)) => {}
            other => panic!("expected StoreError::Empty, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_latest_blob_is_quarantined_and_previous_served() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        let old = forest(1);
        registry.publish_model(&old, 7).unwrap();
        let published = registry.publish_model(&forest(2), 7).unwrap();
        let blob = format!("blobs/{:016x}.blob", published.hash);
        backend.mem().corrupt(&blob, 40, 2).unwrap();
        let loaded = registry.open_latest().unwrap();
        assert_eq!(loaded.generation, 1, "falls back to the last good generation");
        assert_eq!(loaded.model, old);
        assert!(
            backend.exists(&format!("quarantine/{:016x}.blob", published.hash)),
            "corrupt blob must land in quarantine"
        );
        // The quarantined generation stays dead even after re-open.
        let registry = open(&backend);
        assert_eq!(registry.open_latest().unwrap().generation, 1);
    }

    #[test]
    fn verify_reports_every_generation() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        registry.publish_model(&forest(1), 7).unwrap();
        let bad = registry.publish_model(&forest(2), 7).unwrap();
        registry.publish_model(&forest(3), 7).unwrap();
        backend.mem().corrupt(&format!("blobs/{:016x}.blob", bad.hash), 50, 1).unwrap();
        let report = registry.verify().unwrap();
        assert_eq!(report.generations.len(), 3);
        assert_eq!((report.verified(), report.quarantined(), report.missing()), (2, 1, 0));
        assert_eq!(report.latest_verified, Some(3));
        // A second pass sees the quarantined blob as missing, not corrupt.
        let report = registry.verify().unwrap();
        assert_eq!((report.verified(), report.quarantined(), report.missing()), (2, 0, 1));
    }

    #[test]
    fn gc_keeps_newest_and_drops_unreferenced_blobs() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        for seed in 1..=5 {
            registry.publish_model(&forest(seed), 7).unwrap();
        }
        let report = registry.gc(2).unwrap();
        assert_eq!((report.kept, report.dropped, report.removed_blobs), (2, 3, 3));
        let loaded = registry.open_latest().unwrap();
        assert_eq!(loaded.generation, 5, "gc must not disturb the latest generation");
        // Re-open after compaction: generation numbering continues.
        let registry = open(&backend);
        let published = registry.publish_model(&forest(9), 7).unwrap();
        assert_eq!(published.generation, 6);
        assert!(registry.gc(0).is_err(), "keep=0 would empty the registry");
    }

    #[test]
    fn gc_keeps_shared_blob_of_republished_content() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        let model = forest(1);
        registry.publish_model(&model, 7).unwrap();
        registry.publish_model(&forest(2), 7).unwrap();
        // Re-publish generation 1's exact content: same hash, shared blob.
        registry.publish_model(&model, 7).unwrap();
        let report = registry.gc(1).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed_blobs, 1, "only the unshared blob goes");
        assert_eq!(registry.open_latest().unwrap().model, model);
    }

    #[test]
    fn watch_delivers_each_new_generation_once() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        registry.publish_model(&forest(1), 7).unwrap();
        let mut watch = registry.watch().unwrap();
        assert!(watch.poll().unwrap().is_none(), "pre-existing generation is not re-delivered");
        let expected = forest(2);
        registry.publish_model(&expected, 7).unwrap();
        let delivered = watch.poll().unwrap().expect("new generation delivered");
        assert_eq!(delivered.generation, 2);
        assert_eq!(delivered.model, expected);
        assert!(watch.poll().unwrap().is_none(), "delivered exactly once");
        // watch_from(0) replays from the start.
        let mut replay = registry.watch_from(0);
        assert_eq!(replay.poll().unwrap().unwrap().generation, 2);
    }

    #[test]
    fn enospc_mid_publish_fails_typed_and_registry_stays_consistent() {
        let backend = Arc::new(FaultBackend::new());
        let registry = open(&backend);
        let old = forest(1);
        registry.publish_model(&old, 7).unwrap();
        for op in 0..6 {
            backend
                .arm(FaultPlan { fail_at_op: Some((op, FaultKind::Enospc)), ..Default::default() });
            let err = registry.publish_model(&forest(100 + op), 7).unwrap_err();
            assert!(matches!(err, DrcshapError::Io { .. }), "op {op}: {err:?}");
            backend.arm(FaultPlan::default());
            // The failed publish must not have committed anything the
            // recovery walk can't handle.
            let registry = open(&backend);
            let loaded = registry.open_latest().unwrap();
            assert!(loaded.model == old || loaded.generation > 1, "op {op}");
        }
    }

    #[test]
    fn a_generation_served_after_a_failed_journal_sync_survives_a_crash() {
        for seed in 0..16u64 {
            let backend = Arc::new(FaultBackend::new());
            let registry = open(&backend);
            registry.publish_model(&forest(1), 7).unwrap();
            // Op 5 of a publish is the journal fsync: generation 2's record
            // is appended but never made durable by the publish itself.
            backend.arm(FaultPlan { fail_at_op: Some((5, FaultKind::Eio)), ..Default::default() });
            assert!(registry.publish_model(&forest(2), 7).is_err(), "seed {seed}");
            // Re-opened without a power cycle, recovery serves the record...
            let registry = open(&backend);
            assert_eq!(registry.open_latest().unwrap().generation, 2, "seed {seed}");
            // ...so it must survive any later crash.
            backend.power_cycle(seed);
            let registry = open(&backend);
            assert_eq!(registry.open_latest().unwrap().generation, 2, "seed {seed}");
        }
    }

    #[test]
    fn crash_at_every_publish_boundary_recovers_to_a_verified_generation() {
        for kill_op in 0..=6u64 {
            for seed in 0..8u64 {
                let backend = Arc::new(FaultBackend::new());
                let registry = open(&backend);
                let old = forest(1);
                registry.publish_model(&old, 7).unwrap();
                let new = forest(2);
                backend.arm(FaultPlan { crash_at_op: Some(kill_op), ..Default::default() });
                let result = registry.publish_model(&new, 7);
                backend.power_cycle(seed.wrapping_mul(0x9e37_79b9) ^ kill_op);
                let committed = result.is_ok();
                let registry = open(&backend);
                let loaded = registry.open_latest().unwrap_or_else(|e| {
                    panic!("kill {kill_op} seed {seed}: no generation after recovery: {e}")
                });
                if committed {
                    assert_eq!(loaded.generation, 2, "kill {kill_op} seed {seed}");
                    assert_eq!(loaded.model, new, "kill {kill_op} seed {seed}");
                } else {
                    assert!(
                        loaded.model == old || loaded.model == new,
                        "kill {kill_op} seed {seed}: recovered a model never published"
                    );
                    if loaded.generation == 1 {
                        assert_eq!(loaded.model, old, "kill {kill_op} seed {seed}");
                    }
                }
            }
        }
    }
}
