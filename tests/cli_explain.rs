//! `drcshap explain` reports the SHAP values of the shared explainer path:
//! its φ and base value bits are `explain_forest`'s, and its interaction
//! pairs are `forest_shap_interactions`'s.

use std::process::Command;

use drcshap::core::{save_model, SavedModel};
use drcshap::features::FeatureSchema;
use drcshap::forest::RandomForestTrainer;
use drcshap::ml::{Dataset, Trainer};
use drcshap::shap::{explain_forest, forest_shap_interactions};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

fn bits(v: &Value) -> u64 {
    v.as_f64().expect("a JSON number").to_bits()
}

#[test]
fn cli_explain_reports_the_shared_shap_bits() {
    let schema = FeatureSchema::paper_387();
    let m = schema.len();
    let rows = 240;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let x: Vec<f32> = (0..rows * m).map(|_| rng.gen_range(0.0..1.0)).collect();
    let y: Vec<bool> = (0..rows).map(|i| x[i * m] + x[i * m + 1] > 1.0).collect();
    let data = Dataset::from_parts(x, y, vec![0; rows], m);
    let forest = RandomForestTrainer { n_trees: 6, ..Default::default() }.fit(&data, 3);

    let dir = std::env::temp_dir().join(format!("drcshap-cli-explain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model = dir.join("rf.model");
    save_model(&model, &SavedModel::Rf(forest.clone()), &schema).expect("save model");
    let cases = dir.join("cases.jsonl");
    let lines: Vec<String> = (0..4)
        .map(|i| serde_json::to_string(&data.row(i).to_vec()).expect("row serializes"))
        .collect();
    std::fs::write(&cases, lines.join("\n")).expect("write cases");

    let out = Command::new(env!("CARGO_BIN_EXE_drcshap"))
        .args(["explain", "--model"])
        .arg(&model)
        .args(["--method", "shap", "--interactions", "--top", "5", "--cases"])
        .arg(&cases)
        .output()
        .expect("run drcshap explain");
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "explain failed: {}", String::from_utf8_lossy(&out.stderr));
    let doc: Value = serde_json::from_slice(&out.stdout).expect("explain prints JSON");

    let reported = doc["cases"].as_array().expect("cases array");
    assert_eq!(reported.len(), 4);
    for case in reported {
        let row = data.row(case["case"].as_u64().expect("case index") as usize);
        let expected = explain_forest(&forest, row);
        let shap = &case["shap"];
        assert_eq!(bits(&shap["base_value"]), expected.base_value.to_bits());
        let phi = shap["contributions"].as_array().expect("contributions");
        assert_eq!(phi.len(), m);
        for (j, v) in phi.iter().enumerate() {
            assert_eq!(bits(v), expected.contributions[j].to_bits(), "φ[{j}]");
        }
        let pairs = case["interactions"].as_array().expect("interaction pairs");
        let expected_pairs = forest_shap_interactions(&forest, row).top_pairs(5);
        assert_eq!(pairs.len(), expected_pairs.len());
        for (pair, &(i, j, value)) in pairs.iter().zip(&expected_pairs) {
            assert_eq!((pair["i"].as_u64(), pair["j"].as_u64()), (Some(i as u64), Some(j as u64)));
            assert_eq!(bits(&pair["phi"]), value.to_bits(), "Φ[{i}][{j}]");
        }
    }
}
