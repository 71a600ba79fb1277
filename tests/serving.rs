//! End-to-end serving tests through the facade: train on real pipeline
//! data (387 features), persist a versioned artifact, serve it through the
//! batched engine, and verify the served scores are bit-identical to the
//! reference predict path — the same digest-equality contract the CI serve
//! smoke job checks through the CLI.

use std::sync::Arc;

use drcshap::core::pipeline::{build_design, PipelineConfig};
use drcshap::core::{load_model, save_model, SavedModel};
use drcshap::features::FeatureSchema;
use drcshap::forest::RandomForestTrainer;
use drcshap::ml::{DrcshapError, Trainer};
use drcshap::netlist::suite;
use drcshap::serve::{ServeConfig, ServeEngine};

#[test]
fn artifact_round_trip_serves_bit_identical_scores() {
    let config = PipelineConfig { scale: 0.22, ..Default::default() };
    let bundle = build_design(&suite::spec("fft_1").unwrap(), &config);
    let data = bundle.to_dataset();
    let rf = RandomForestTrainer { n_trees: 12, ..Default::default() }.fit(&data, 42);

    // Persist and reload through the versioned artifact layer.
    let dir = std::env::temp_dir().join(format!("drcshap-serving-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fft_1.model");
    let schema = FeatureSchema::paper_387();
    save_model(&path, &SavedModel::Rf(rf.clone()), &schema).expect("save");
    let loaded = load_model(&path, &schema).expect("load");

    let engine = ServeEngine::start_saved(ServeConfig::default(), loaded, schema.fingerprint())
        .expect("engine start");
    assert_eq!(engine.n_features(), 387);

    // Serve a slice of the design and compare to the reference model.
    for i in (0..bundle.features.n_samples()).step_by(37) {
        let row = bundle.features.row(i);
        let response = engine.score(row.to_vec()).expect("scored");
        assert_eq!(
            response.score.to_bits(),
            rf.predict_proba(row).to_bits(),
            "served score diverged at g-cell {i}"
        );
        assert_eq!(response.epoch, 1);
    }

    // Hot-swap the same artifact back in: epoch bumps, scores unchanged.
    let reloaded = load_model(&path, &schema).expect("reload");
    let forest = reloaded.into_forest().expect("an RF artifact");
    let epoch = engine.swap(forest, schema.fingerprint()).expect("swap");
    assert_eq!(epoch, 2);
    let row = bundle.features.row(0);
    let response = engine.score(row.to_vec()).expect("scored after swap");
    assert_eq!(response.epoch, 2);
    assert_eq!(response.score.to_bits(), rf.predict_proba(row).to_bits());

    // Explanations flow through the same engine, cached by feature vector.
    let first = engine.explain(row).expect("explain");
    assert!(first.local_accuracy_gap() < 1e-9);
    let second = engine.explain(row).expect("explain again");
    assert!(Arc::ptr_eq(&first, &second), "second lookup must hit the cache");

    let metrics = engine.metrics();
    assert!(metrics.counts["serve/samples"] >= 1);
    assert_eq!(metrics.model_epoch, 2);
    assert_eq!(metrics.counts["serve/cache_hits"], 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_rf_artifacts_are_rejected_by_the_serve_engine() {
    // The engine compiles decision trees; other families cannot serve.
    let n = 40;
    let x: Vec<f32> = (0..n * 2).map(|i| ((i * 13) % 11) as f32 / 11.0).collect();
    let y: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let data = drcshap::ml::Dataset::from_parts(x, y, vec![0; n], 2);
    let boosted = drcshap::forest::RusBoostTrainer::default().fit(&data, 1);
    let e = ServeEngine::start_saved(ServeConfig::default(), SavedModel::RusBoost(boosted), 7)
        .unwrap_err();
    assert!(matches!(e, DrcshapError::Input(_)), "{e}");
    assert!(e.to_string().contains("RUSBoost"), "{e}");
}
