//! `drcshap analytics --snapshot` checks the shape of every loaded file
//! before any merge or report: a malformed snapshot is a usage error
//! (exit 2), never a panic or a report rendered from wrapped shifts.

use std::process::Command;

use drcshap::analytics::{AnalyticsConfig, AnalyticsSink, Provenance};
use serde_json::Value;

#[test]
fn malformed_snapshot_files_are_usage_errors() {
    let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
    for i in 0..8 {
        let t = i as f32 / 8.0;
        sink.fold(&[t, 1.0 - t, 0.5, 0.25, 0.75], &[0.4, -0.02, 0.1, 0.0, -0.3]).expect("fold");
    }
    let good = serde_json::to_value(sink.snapshot(Provenance::default())).expect("serializes");
    let mut no_features = good.clone();
    no_features["features"] = Value::Array(Vec::new());
    let mut wide_sketch = good.clone();
    wide_sketch["params"]["accuracy_bits"] = 99u32.into();

    let dir = std::env::temp_dir().join(format!("drcshap-cli-analytics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str, snapshot: &Value| {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, snapshot.to_string()).expect("write snapshot");
        Command::new(env!("CARGO_BIN_EXE_drcshap"))
            .args(["analytics", "--snapshot"])
            .arg(&path)
            .output()
            .expect("run drcshap analytics")
    };
    let ok = run("good", &good);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    for (name, snapshot, want) in [
        ("no_features", &no_features, "feature aggregates"),
        ("accuracy_bits", &wide_sketch, "accuracy_bits"),
    ] {
        let out = run(name, snapshot);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains(name) && stderr.contains(want), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name}: a report was printed");
    }
    std::fs::remove_dir_all(&dir).ok();
}
