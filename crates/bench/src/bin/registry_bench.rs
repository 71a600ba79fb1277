//! Model-registry bench: publish throughput, `open_latest` latency, and
//! recovery (`Registry::open`) time as a function of journal length, on
//! the real filesystem backend with full fsync discipline.
//!
//! Every `open_latest` is verified bit-identical to the model that was
//! published before it counts — a registry that round-trips wrong bits
//! reports nothing.
//!
//! ```text
//! cargo run --release -p drcshap-bench --bin registry_bench
//! # merge a `registry` section into the committed serve baseline
//! cargo run --release -p drcshap-bench --bin registry_bench -- --out BENCH_serve.json
//! # CI regression gate against the committed baseline's registry section
//! cargo run --release -p drcshap-bench --bin registry_bench -- --gate BENCH_serve.json
//! ```
//!
//! `--out <path>` merges the report under a `"registry"` key, preserving
//! whatever else the file holds; a missing file is created fresh.
//! `--gate <baseline.json>` fails (exit 1) when the baseline has no
//! usable `registry.publish_per_s`, when the baseline was not
//! bit-identical, or when fresh publish throughput regresses more than
//! `DRCSHAP_BENCH_TOLERANCE` (default 0.25) below it.
//!
//! Environment knobs: `DRCSHAP_REGISTRY_TREES` (default 20),
//! `DRCSHAP_REGISTRY_FEATURES` (default 64), `DRCSHAP_REGISTRY_PUBLISHES`
//! (publishes timed for throughput, default 64),
//! `DRCSHAP_REGISTRY_OPENS` (`open_latest` calls timed, default 200).

use std::sync::Arc;
use std::time::Instant;

use drcshap_bench::{env_f64, env_usize, take_value};
use drcshap_core::SavedModel;
use drcshap_forest::RandomForestTrainer;
use drcshap_ml::{Dataset, Trainer};
use drcshap_store::{FsBackend, Registry, StorageBackend};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn train_forest(n_trees: usize, m: usize, rows: usize, seed: u64) -> SavedModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(rows * m);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut acc = 0.0f32;
        for j in 0..m {
            let v: f32 = rng.gen_range(0.0..1.0);
            if j % 7 == 0 {
                acc += v;
            }
            x.push(v);
        }
        y.push(acc > 0.5 * (m as f32 / 7.0));
    }
    let data = Dataset::from_parts(x, y, vec![0; rows], m);
    SavedModel::Rf(RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, seed))
}

/// A fresh throwaway registry directory plus its opened handle.
fn fresh_registry(dir: &std::path::Path) -> Registry {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create registry dir");
    let backend = FsBackend::new(dir).expect("fs backend");
    Registry::open(backend as Arc<dyn StorageBackend>).expect("registry open")
}

/// A finite, positive number from a nested baseline field.
fn baseline_number(report: &serde_json::Value, path: &[&str]) -> Option<f64> {
    let mut v = report;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64().filter(|v| v.is_finite() && *v > 0.0)
}

/// The CI regression gate: fresh publish throughput vs the committed
/// baseline's `registry.publish_per_s`.
fn run_gate(baseline_path: &str, fresh_publish: f64, tolerance: f64) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let baseline: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("gate: baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let registry = baseline.get("registry").unwrap_or(&serde_json::Value::Null);
    if registry.get("bit_identical").and_then(serde_json::Value::as_bool) != Some(true) {
        eprintln!("gate: baseline {baseline_path} registry section was not bit-identical");
        std::process::exit(1);
    }
    let Some(base) = baseline_number(&baseline, &["registry", "publish_per_s"]) else {
        eprintln!(
            "gate: baseline {baseline_path} has no usable registry.publish_per_s — \
             regenerate it with `registry_bench --out {baseline_path}`"
        );
        std::process::exit(1);
    };
    let floor = base * (1.0 - tolerance);
    eprintln!(
        "gate: fresh publish {fresh_publish:.3e}/s vs baseline {base:.3e}/s \
         ({:.1}% of baseline, floor {:.0}%)",
        fresh_publish / base * 100.0,
        (1.0 - tolerance) * 100.0
    );
    if fresh_publish < floor {
        eprintln!(
            "gate: FAIL — registry publish throughput regressed more than {:.0}% below the \
             baseline",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("gate: PASS");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = take_value(&mut args, "--out");
    let gate_path = take_value(&mut args, "--gate");
    if let Some(extra) = args.first() {
        eprintln!("error: unexpected argument {extra:?}");
        std::process::exit(2);
    }

    let n_trees = env_usize("DRCSHAP_REGISTRY_TREES", 20);
    let m = env_usize("DRCSHAP_REGISTRY_FEATURES", 64);
    let publishes = env_usize("DRCSHAP_REGISTRY_PUBLISHES", 64).max(1);
    let opens = env_usize("DRCSHAP_REGISTRY_OPENS", 200).max(1);
    let tolerance = env_f64("DRCSHAP_BENCH_TOLERANCE", 0.25);
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: DRCSHAP_BENCH_TOLERANCE must be in [0, 1), got {tolerance}");
        std::process::exit(2);
    }

    eprintln!("training {n_trees}-tree forest on {m} features...");
    let model = train_forest(n_trees, m, 1000, 42);
    let dir = std::env::temp_dir().join(format!("drcshap-registry-bench-{}", std::process::id()));

    // Publish throughput: full atomic protocol (blob write + 2 fsyncs +
    // rename + dir fsync + journal append + fsync) per generation. The
    // fingerprint varies per publish so every container (and blob) is
    // distinct — the realistic case.
    let registry = fresh_registry(&dir);
    let t0 = Instant::now();
    for i in 0..publishes {
        registry.publish_model(&model, 0x1000 + i as u64).expect("publish");
    }
    let publish_per_s = publishes as f64 / t0.elapsed().as_secs_f64();
    let blob_bytes = registry.list().expect("list")[0].len;

    // open_latest latency: journal scan + newest blob read + hash + CRC +
    // decode + bitwise equality against what went in.
    let expected_fingerprint = 0x1000 + (publishes as u64 - 1);
    let mut open_us = Vec::with_capacity(opens);
    for _ in 0..opens {
        let t = Instant::now();
        let loaded = registry.open_latest().expect("open_latest");
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(loaded.model, model, "round trip not bit-identical");
        assert_eq!(loaded.fingerprint, expected_fingerprint, "fingerprint lost");
    }
    open_us.sort_by(f64::total_cmp);
    let quantile = |q: f64| open_us[((open_us.len() - 1) as f64 * q).round() as usize];
    let (open_p50_us, open_p99_us) = (quantile(0.50), quantile(0.99));

    // Recovery cost as the journal grows: time Registry::open on fresh
    // registries with increasingly long journals.
    let mut recovery = Vec::new();
    for gens in [16usize, 64, 256] {
        let sub = dir.join(format!("recovery-{gens}"));
        let reg = fresh_registry(&sub);
        for i in 0..gens {
            reg.publish_model(&model, 0x2000 + i as u64).expect("publish");
        }
        drop(reg);
        let backend = FsBackend::new(&sub).expect("fs backend");
        let t = Instant::now();
        let reopened = Registry::open(backend as Arc<dyn StorageBackend>).expect("recover");
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(reopened.recovery_report().generations, gens, "journal lost records");
        recovery.push(serde_json::json!({ "generations": gens, "open_ms": open_ms }));
        eprintln!("recovery over {gens:>4} generations: {open_ms:.3} ms");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let report = serde_json::json!({
        "bench": "registry_bench",
        "status": "measured",
        "trees": n_trees,
        "features": m,
        "publishes": publishes,
        "blob_bytes": blob_bytes,
        "publish_per_s": publish_per_s,
        "open_latest_p50_us": open_p50_us,
        "open_latest_p99_us": open_p99_us,
        "recovery": recovery,
        "bit_identical": true,
    });
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{pretty}");
    eprintln!(
        "publish {publish_per_s:.3e}/s ({blob_bytes}-byte blobs) | open_latest p50 \
         {open_p50_us:.0}us p99 {open_p99_us:.0}us"
    );

    if let Some(path) = out_path {
        for (name, value) in
            [("publish throughput", publish_per_s), ("open_latest p50", open_p50_us)]
        {
            if !value.is_finite() || value <= 0.0 {
                eprintln!("error: refusing to write {path}: {name} is {value}");
                std::process::exit(1);
            }
        }
        // Merge under the `registry` key, preserving the other sections.
        let mut doc: serde_json::Value = match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("error: {path} exists but is not valid JSON: {e}");
                std::process::exit(1);
            }),
            Err(_) => serde_json::json!({}),
        };
        match doc.as_object_mut() {
            Some(obj) => {
                obj.insert("registry".to_string(), report);
            }
            None => {
                eprintln!("error: {path} is not a JSON object; cannot merge a registry section");
                std::process::exit(1);
            }
        }
        let merged = serde_json::to_string_pretty(&doc).expect("merged report serializes");
        std::fs::write(&path, format!("{merged}\n")).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("merged registry section into {path}");
    }
    if let Some(path) = gate_path {
        run_gate(&path, publish_per_s, tolerance);
    }
}
