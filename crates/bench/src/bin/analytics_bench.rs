//! Explanation-analytics fold/merge bench: streams seeded SHAP-shaped
//! vectors through an [`AnalyticsSink`], reporting fold throughput
//! (vectors/s), snapshot and k-way merge latency, and the live memory
//! footprint after the full stream — asserted against the sink's
//! *analytic* cell ceiling, which is independent of stream length.
//!
//! Two correctness gates run before anything is timed and the bench
//! refuses to report numbers if either fails:
//!
//! - **digest identity**: the stream split `k` ways round-robin and
//!   merged in rotated order must produce a snapshot digest bit-identical
//!   to the single-stream fold;
//! - **memory ceiling**: after the full stream, `occupied_cells()` must
//!   sit under `n_features · (max_buckets(φ) + max_buckets(dep)) +
//!   K(K−1)/2` — the bound DESIGN.md §17 derives.
//!
//! ```text
//! cargo run --release -p drcshap-bench --bin analytics_bench
//! # merge an `analytics` section into the committed baseline
//! cargo run --release -p drcshap-bench --bin analytics_bench -- --out BENCH_serve.json
//! # CI regression gate against that baseline
//! cargo run --release -p drcshap-bench --bin analytics_bench -- --gate BENCH_serve.json
//! ```
//!
//! `--out` and `--gate` are the shared harness's (`drcshap_bench::gate`):
//! the report is the `analytics` section of the baseline file, a baseline
//! must match this run's features, vectors and shards, and the gated
//! throughput is `fold_vectors_per_s`.
//!
//! Environment knobs: `DRCSHAP_ANALYTICS_FEATURES` (default 64),
//! `DRCSHAP_ANALYTICS_VECTORS` (default 1_000_000 — the acceptance run
//! folds a million vectors), and `DRCSHAP_ANALYTICS_SHARDS` (merge fan-in,
//! default 8).

use std::process::ExitCode;
use std::time::Instant;

use drcshap_analytics::{AnalyticsConfig, AnalyticsSink, Provenance};
use drcshap_bench::env_usize;
use drcshap_bench::gate::Bench;
use drcshap_telemetry::QuantileSketch;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// This bench's declaration to the shared gate.
const BENCH: Bench = Bench {
    section: "analytics",
    knobs: &["features", "vectors", "shards"],
    positive: &["fold_vectors_per_s"],
    gated: "fold_vectors_per_s",
};

/// One seeded "explained request": a feature row and a SHAP-shaped φ
/// vector — log-spread magnitudes over several decades (the shape real
/// TreeSHAP output has: a few dominant features, a long near-zero tail),
/// signed, with exact zeros mixed in to exercise the zero bucket.
fn seeded_case(rng: &mut ChaCha8Rng, m: usize, x: &mut Vec<f32>, phi: &mut Vec<f64>) {
    x.clear();
    phi.clear();
    for j in 0..m {
        x.push(rng.gen_range(0.0..1.0));
        if j % 17 == 0 {
            phi.push(0.0);
        } else {
            let magnitude = 10f64.powf(rng.gen_range(-6.0..0.0));
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            phi.push(sign * magnitude);
        }
    }
}

fn main() -> ExitCode {
    let harness = drcshap_bench::harness(&BENCH, std::env::args().skip(1).collect());

    let m = env_usize("DRCSHAP_ANALYTICS_FEATURES", 64);
    let n_vectors = env_usize("DRCSHAP_ANALYTICS_VECTORS", 1_000_000);
    let fan_in = env_usize("DRCSHAP_ANALYTICS_SHARDS", 8).max(2);

    let config = AnalyticsConfig::default();
    let provenance = Provenance { artifact_crc: 42, schema_fingerprint: 7, model_epoch: 1 };

    // Timed fold: the full stream through one sink, regenerating each
    // case from the seeded rng (generation cost is part of no real serve
    // path, so it is measured separately and subtracted).
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11A);
    let (mut x, mut phi) = (Vec::with_capacity(m), Vec::with_capacity(m));
    let gen_start = Instant::now();
    for _ in 0..n_vectors {
        seeded_case(&mut rng, m, &mut x, &mut phi);
        std::hint::black_box((&x, &phi));
    }
    let gen_secs = gen_start.elapsed().as_secs_f64();

    let mut sink = AnalyticsSink::new(config.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11A);
    let fold_start = Instant::now();
    for _ in 0..n_vectors {
        seeded_case(&mut rng, m, &mut x, &mut phi);
        sink.fold(&x, &phi).expect("fold");
    }
    let fold_secs = (fold_start.elapsed().as_secs_f64() - gen_secs).max(1e-9);
    let fold_tp = n_vectors as f64 / fold_secs;
    eprintln!("folded {n_vectors} vectors x {m} features: {fold_tp:.0} vectors/s");

    // Memory ceiling: the analytic bound, independent of stream length.
    let occupied = sink.occupied_cells();
    let per_feature =
        config.sketch_params().max_buckets() + config.dependence_params().max_buckets();
    let k = config.max_interaction_features as usize;
    let ceiling = m * per_feature + k * (k - 1) / 2;
    assert!(
        occupied <= ceiling,
        "memory ceiling violated: {occupied} occupied cells > analytic bound {ceiling}"
    );
    eprintln!("memory: {occupied} occupied cells (analytic ceiling {ceiling})");

    // Snapshot latency (median of 32 snapshots of the full sink).
    let mut snapshot_us = QuantileSketch::default();
    for _ in 0..32 {
        let t = Instant::now();
        std::hint::black_box(sink.snapshot(provenance));
        snapshot_us.insert(t.elapsed().as_secs_f64() * 1e6);
    }
    let snapshot_median_us = snapshot_us.quantile(0.5).expect("32 snapshots timed");
    let single = sink.snapshot(provenance);

    // Digest identity: k-way round-robin split, merged in rotated order.
    let mut shards: Vec<AnalyticsSink> =
        (0..fan_in).map(|_| AnalyticsSink::new(config.clone())).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11A);
    for i in 0..n_vectors {
        seeded_case(&mut rng, m, &mut x, &mut phi);
        shards[i % fan_in].fold(&x, &phi).expect("shard fold");
    }
    let shard_snapshots: Vec<_> = shards.iter().map(|s| s.snapshot(provenance)).collect();
    let merge_start = Instant::now();
    let mut merged = shard_snapshots[fan_in / 2].clone();
    for offset in 1..fan_in {
        merged.merge(&shard_snapshots[(fan_in / 2 + offset) % fan_in]).expect("merge");
    }
    let merge_us = merge_start.elapsed().as_secs_f64() * 1e6;
    assert_eq!(
        merged.digest(),
        single.digest(),
        "{fan_in}-way rotated merge digest differs from the single-stream fold"
    );
    eprintln!(
        "digest identity verified: single-stream == {fan_in}-way merge ({:#010x})",
        single.digest()
    );

    let report = serde_json::json!({
        "features": m,
        "vectors": n_vectors,
        "shards": fan_in,
        "accuracy_bits": config.accuracy_bits,
        "epsilon": config.sketch_params().epsilon(),
        "fold_vectors_per_s": fold_tp,
        "snapshot_median_us": snapshot_median_us,
        "merge_us": merge_us,
        "occupied_cells": occupied,
        "cell_ceiling": ceiling,
        "digest": single.digest(),
        "bit_identical": true,
    });
    harness.finish(report).exit_code()
}
