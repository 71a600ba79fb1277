//! Serve-path analytics: the engine's mounted sink must produce
//! bit-identical snapshot digests regardless of worker/client
//! parallelism, stop folding the old epoch on hot swap (new epoch starts
//! empty), and keep the explain path entirely unaffected when disabled.

use std::sync::Arc;
use std::time::Duration;

use drcshap_analytics::{AnalyticsConfig, AnalyticsSink, Provenance};
use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::{Dataset, Trainer};
use drcshap_serve::{ServeConfig, ServeEngine};

const M: usize = 4;

fn forest(seed: u64) -> RandomForest {
    let n = 120;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..n {
        let a = ((i * 7 + seed as usize) % 13) as f32 / 13.0;
        let b = ((i * 3) % 11) as f32 / 11.0;
        let c = ((i * 5) % 7) as f32 / 7.0;
        let d = ((i * 11) % 17) as f32 / 17.0;
        x.extend_from_slice(&[a, b, c, d]);
        y.push(a + 0.3 * b > 0.6);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], M);
    RandomForestTrainer { n_trees: 7, ..Default::default() }.fit(&data, seed)
}

fn probes(count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|i| {
            (0..M).map(|j| (((i * 31 + j * 17 + 5) % 101) as f32 / 101.0) * 2.0 - 0.5).collect()
        })
        .collect()
}

fn config_with_analytics(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 8,
        max_wait: Duration::from_micros(200),
        cache_capacity: 16,
        analytics: Some(AnalyticsConfig::default()),
        ..Default::default()
    }
}

/// The acceptance bar: the same explained multiset produces the same
/// snapshot digest whatever the engine's worker count or the number of
/// client threads (all of them folding into the serving epoch's one
/// sink, in whatever order they interleave) — and it equals a plain
/// single-threaded [`AnalyticsSink`] fold of the same cases.
#[test]
fn digests_are_bit_identical_across_worker_and_shard_counts() {
    let rf = forest(3);
    let cases = probes(160);

    // Reference: direct single-owner fold (NaN-free probes need no
    // cleaning, so the engine folds exactly these values).
    let mut reference = AnalyticsSink::new(AnalyticsConfig::default());
    for x in &cases {
        let explanation = drcshap_shap::explain_forest(&rf, x);
        reference.fold(x, &explanation.contributions).unwrap();
    }

    let mut digests = Vec::new();
    let mut reference_provenance = None;
    for (workers, clients) in [(1usize, 1usize), (2, 3), (4, 5)] {
        let engine = Arc::new(
            ServeEngine::start(config_with_analytics(workers), rf.clone(), 7).expect("start"),
        );
        std::thread::scope(|scope| {
            for chunk in cases.chunks(cases.len() / clients + 1) {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for x in chunk {
                        engine.explain(x).expect("explain");
                    }
                });
            }
        });
        let snapshot = engine.analytics_snapshot().expect("analytics mounted");
        assert_eq!(snapshot.n_vectors, cases.len() as u64);
        reference_provenance = Some(snapshot.provenance);
        digests.push(snapshot.digest());
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/analytics_folds"], cases.len() as u64);
        assert_eq!(counts["serve/analytics_stale_folds"], 0);
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "digests diverged: {digests:?}");
    // ...and the engine path matches the plain single-threaded fold.
    let want = reference.snapshot(reference_provenance.unwrap()).digest();
    assert_eq!(digests[0], want, "engine fold differs from direct sink fold");
}

/// Cache hits fold too: analytics is traffic-weighted, so explaining the
/// same probe twice counts two vectors.
#[test]
fn cache_hits_still_fold() {
    let engine = ServeEngine::start(config_with_analytics(1), forest(5), 7).expect("start");
    let x = probes(1).remove(0);
    engine.explain(&x).expect("miss");
    engine.explain(&x).expect("hit");
    let snapshot = engine.analytics_snapshot().expect("mounted");
    assert_eq!(snapshot.n_vectors, 2);
    let counts = engine.metrics().counts;
    assert!(counts["serve/cache_hits"] >= 1, "second explain must hit the cache");
    assert_eq!(counts["serve/analytics_folds"], 2);
}

/// Hot swap retires the old epoch's sink and starts the new epoch empty;
/// provenance tracks the new artifact.
#[test]
fn hot_swap_freezes_old_epoch_and_starts_empty() {
    let engine = ServeEngine::start(config_with_analytics(1), forest(3), 7).expect("start");
    let cases = probes(12);
    for x in &cases {
        engine.explain(x).expect("explain");
    }
    let before = engine.analytics_snapshot().expect("mounted");
    assert_eq!(before.n_vectors, 12);
    assert_eq!(before.provenance.model_epoch, 1);

    engine.swap(forest(9), 7).expect("swap");

    // The new epoch starts empty, with new provenance.
    let after = engine.analytics_snapshot().expect("mounted");
    assert_eq!(after.n_vectors, 0);
    assert_eq!(after.provenance.model_epoch, 2);
    assert_ne!(
        after.provenance.artifact_crc, before.provenance.artifact_crc,
        "swapped model must carry a different artifact identity"
    );

    // Folds keep working after the swap and land in the new epoch only.
    engine.explain(&cases[0]).expect("explain after swap");
    let after2 = engine.analytics_snapshot().expect("mounted");
    assert_eq!(after2.n_vectors, 1);
}

/// With analytics disabled (the default), the new surface is inert:
/// no snapshot, no fold counters.
#[test]
fn disabled_analytics_is_inert() {
    let engine = ServeEngine::start(ServeConfig { workers: 1, ..Default::default() }, forest(3), 7)
        .expect("start");
    engine.explain(&probes(1)[0]).expect("explain");
    assert!(engine.analytics_snapshot().is_none());
    let counts = engine.metrics().counts;
    assert_eq!(counts["serve/analytics_folds"], 0);
    assert_eq!(counts["serve/analytics_stale_folds"], 0);
}

/// `explain_interactions` returns a matrix satisfying the additivity
/// identity (row sums == SHAP vector), and when interaction aggregation
/// is enabled the pairs land in the snapshot.
#[test]
fn interactions_served_and_aggregated() {
    let rf = forest(3);
    let config = ServeConfig {
        workers: 1,
        analytics: Some(AnalyticsConfig { interactions: true, ..Default::default() }),
        ..Default::default()
    };
    let engine = ServeEngine::start(config, rf.clone(), 7).expect("start");
    let x = probes(1).remove(0);
    let iv = engine.explain_interactions(&x).expect("interactions");
    let explanation = drcshap_shap::explain_forest(&rf, &x);
    for i in 0..M {
        let row_sum: f64 = iv.row(i).iter().sum();
        assert!(
            (row_sum - explanation.contributions[i]).abs() < 1e-9,
            "additivity broken at feature {i}: {row_sum} vs {}",
            explanation.contributions[i]
        );
    }
    let snapshot = engine.analytics_snapshot().expect("mounted");
    assert_eq!(snapshot.n_interaction_folds, 1);
    assert!(!snapshot.pairs.is_empty(), "pair aggregates must be folded");
    assert_eq!(snapshot.n_vectors, 1, "interaction explain folds its SHAP vector too");
}

/// Invalid analytics knobs are rejected at engine start.
#[test]
fn invalid_analytics_config_is_rejected_at_start() {
    let bad = ServeConfig {
        analytics: Some(AnalyticsConfig { accuracy_bits: 0, ..Default::default() }),
        ..Default::default()
    };
    assert!(ServeEngine::start(bad, forest(3), 7).is_err());
}

/// Snapshot provenance carries the schema fingerprint the engine was
/// started with and a non-zero artifact CRC.
#[test]
fn provenance_is_stamped() {
    let engine = ServeEngine::start(config_with_analytics(1), forest(3), 99).expect("start");
    engine.explain(&probes(1)[0]).expect("explain");
    let snapshot = engine.analytics_snapshot().expect("mounted");
    assert_eq!(snapshot.provenance.schema_fingerprint, 99);
    assert_eq!(snapshot.provenance.model_epoch, 1);
    assert_ne!(snapshot.provenance.artifact_crc, 0, "artifact CRC must be computed");
    let _ = Provenance::default();
}
