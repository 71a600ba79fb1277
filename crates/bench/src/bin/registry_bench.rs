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
//! `--out` and `--gate` are the shared harness's (`drcshap_bench::gate`):
//! the report is the `registry` section of the baseline file, a baseline
//! must match this run's trees, features and publishes, and the gated
//! throughput is `publish_per_s`.
//!
//! Environment knobs: `DRCSHAP_REGISTRY_TREES` (default 20),
//! `DRCSHAP_REGISTRY_FEATURES` (default 64), `DRCSHAP_REGISTRY_PUBLISHES`
//! (publishes timed for throughput, default 64),
//! `DRCSHAP_REGISTRY_OPENS` (`open_latest` calls timed, default 200).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use drcshap_bench::gate::Bench;
use drcshap_bench::{env_usize, quantile, synthetic_dataset};
use drcshap_core::SavedModel;
use drcshap_forest::RandomForestTrainer;
use drcshap_ml::Trainer;
use drcshap_store::{FsBackend, Registry, StorageBackend};

/// This bench's declaration to the shared gate.
const BENCH: Bench = Bench {
    section: "registry",
    knobs: &["trees", "features", "publishes"],
    positive: &["publish_per_s", "open_latest_p50_us"],
    gated: "publish_per_s",
};

/// A fresh throwaway registry directory plus its opened handle.
fn fresh_registry(dir: &std::path::Path) -> Registry {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create registry dir");
    let backend = FsBackend::new(dir).expect("fs backend");
    Registry::open(backend as Arc<dyn StorageBackend>).expect("registry open")
}

fn main() -> ExitCode {
    let harness = drcshap_bench::harness(&BENCH, std::env::args().skip(1).collect());

    let n_trees = env_usize("DRCSHAP_REGISTRY_TREES", 20);
    let m = env_usize("DRCSHAP_REGISTRY_FEATURES", 64);
    let publishes = env_usize("DRCSHAP_REGISTRY_PUBLISHES", 64).max(1);
    let opens = env_usize("DRCSHAP_REGISTRY_OPENS", 200).max(1);

    eprintln!("training {n_trees}-tree forest on {m} features...");
    let data = synthetic_dataset(1000, m, 7, 42);
    let model =
        SavedModel::Rf(RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, 42));
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
    let (open_p50_us, open_p99_us) = (quantile(&open_us, 0.50), quantile(&open_us, 0.99));

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

    eprintln!(
        "publish {publish_per_s:.3e}/s ({blob_bytes}-byte blobs) | open_latest p50 \
         {open_p50_us:.0}us p99 {open_p99_us:.0}us"
    );
    let report = serde_json::json!({
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
    harness.finish(report).exit_code()
}
