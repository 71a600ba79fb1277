//! Serving-path throughput bench: per-sample `RandomForest::predict_proba`
//! vs the serve engine's `CompiledForest::score_batch`, the NaN-aware
//! batch path, the full micro-batching engine, and TreeSHAP explanations
//! (`explain_forest`) of the first probe rows, reported as JSON.
//!
//! Every timed scoring path must be *bit-identical* to the reference model,
//! and every timed explanation must satisfy local accuracy
//! (`|E[f] + Σφ − f(x)| ≤ 1e-9`, the paper's Eq. 1) — this bench verifies
//! that on every row before timing anything and refuses to report numbers
//! for a divergent build.
//!
//! ```text
//! cargo run --release -p drcshap-bench --bin serve_bench [-- --out BENCH_serve.json]
//! # CI regression gate against a committed baseline
//! cargo run --release -p drcshap-bench --bin serve_bench -- --gate BENCH_serve.json
//! # record the engine's flush and `kernel/compiled` spans as a Chrome trace
//! cargo run --release -p drcshap-bench --bin serve_bench -- --trace serve.json --stats
//! ```
//!
//! The report records the wall time of the forest fit (`fit_s`, recorded
//! but not gated; the training data is generated before its clock starts).
//! `--out` and `--gate` are the shared harness's (`drcshap_bench::gate`):
//! the report is the `serve` section of the baseline file, a baseline must
//! match this run's trees, features, batch and depth, and the gated
//! throughput is `compiled_batch_per_s`.
//!
//! Environment knobs: `DRCSHAP_SERVE_TREES` (default 100),
//! `DRCSHAP_SERVE_FEATURES` (default 64), `DRCSHAP_SERVE_SAMPLES`
//! (default 4096, also the batch size; the acceptance floor is 256), and
//! `DRCSHAP_SERVE_DEPTH` (max tree depth; default 0 = unpruned — small
//! depths sweep the tree size the compiled walk is measured at).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drcshap_bench::gate::Bench;
use drcshap_bench::{env_usize, synthetic_dataset, take_value};
use drcshap_forest::RandomForestTrainer;
use drcshap_ml::{NanPolicy, Trainer};
use drcshap_serve::{CompiledForest, ServeConfig, ServeEngine};
use drcshap_shap::explain_forest;
use drcshap_telemetry as telemetry;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// How many probe rows the explanation section explains per timed call.
const EXPLAIN_ROWS: usize = 32;

/// This bench's declaration to the shared gate.
const BENCH: Bench = Bench {
    section: "serve",
    knobs: &["trees", "features", "batch", "depth"],
    positive: &[
        "single_sample_per_s",
        "compiled_batch_per_s",
        "nan_aware_batch_per_s",
        "engine_per_s",
        "explain_per_s",
    ],
    gated: "compiled_batch_per_s",
};

/// Runs `body` (which processes `per_call` samples) until ~0.5 s of wall
/// clock is spent, after one warmup call; returns samples/second.
fn throughput(per_call: usize, mut body: impl FnMut()) -> f64 {
    body(); // warmup
    let target = Duration::from_millis(500);
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < target {
        body();
        calls += 1;
    }
    (calls * per_call as u64) as f64 / start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = take_value(&mut args, "--trace");
    let stats = match args.iter().position(|a| a == "--stats") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    let harness = drcshap_bench::harness(&BENCH, args);
    if trace_path.is_some() || stats {
        telemetry::enable();
    }

    let n_trees = env_usize("DRCSHAP_SERVE_TREES", 100);
    let m = env_usize("DRCSHAP_SERVE_FEATURES", 64);
    let batch = env_usize("DRCSHAP_SERVE_SAMPLES", 4096);
    // 0 = unpruned (the paper's setting). Depth caps sweep tree size
    // (see DESIGN.md §16).
    let depth = env_usize("DRCSHAP_SERVE_DEPTH", 0);
    let max_depth = if depth == 0 { None } else { Some(depth) };

    eprintln!("training {n_trees}-tree forest on {m} features (depth {depth}; 0 = unpruned)...");
    let data = synthetic_dataset(2000, m, 7, 42);
    let fit_start = Instant::now();
    let rf = RandomForestTrainer { n_trees, max_depth, ..Default::default() }.fit(&data, 42);
    let fit_s = fit_start.elapsed().as_secs_f64();
    let mean_leaves =
        rf.trees().iter().map(|t| t.num_leaves()).sum::<usize>() as f64 / rf.trees().len() as f64;
    eprintln!("fit in {fit_s:.3} s; mean leaves per tree: {mean_leaves:.1}");
    let compiled = CompiledForest::compile(&rf);

    // The probe batch: random rows, plus a NaN-laced copy for the NaN path.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let flat: Vec<f32> = (0..batch * m).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut flat_nan = flat.clone();
    for (i, v) in flat_nan.iter_mut().enumerate() {
        if i % 11 == 0 {
            *v = f32::NAN;
        }
    }

    // Bit-identity gate: every score must match the reference model exactly.
    let batch_scores = compiled.score_batch(&flat);
    let nan_scores = compiled.score_batch_nan_aware(&flat_nan);
    for i in 0..batch {
        let row = &flat[i * m..(i + 1) * m];
        assert_eq!(
            batch_scores[i].to_bits(),
            rf.predict_proba(row).to_bits(),
            "compiled score diverges from predict_proba at row {i}"
        );
        let nan_row = &flat_nan[i * m..(i + 1) * m];
        assert_eq!(
            nan_scores[i].to_bits(),
            rf.predict_proba_nan_aware(nan_row).to_bits(),
            "compiled NaN-aware score diverges at row {i}"
        );
    }
    eprintln!("bit-identity verified on {batch} rows (plain and NaN-aware)");

    let single = throughput(batch, || {
        let mut acc = 0.0;
        for i in 0..batch {
            acc += rf.predict_proba(&flat[i * m..(i + 1) * m]);
        }
        std::hint::black_box(acc);
    });
    let compiled_tp = throughput(batch, || {
        std::hint::black_box(compiled.score_batch(&flat));
    });
    let nan_tp = throughput(batch, || {
        std::hint::black_box(compiled.score_batch_nan_aware(&flat_nan));
    });

    // The whole engine, queueing included: submit the batch as individual
    // requests through a sliding window and wait them all out.
    let config = ServeConfig {
        max_batch: 256,
        queue_capacity: batch.max(256),
        nan_policy: NanPolicy::Reject,
        ..Default::default()
    };
    let engine = ServeEngine::start(config, rf.clone(), 1).expect("engine start");
    let engine_tp = throughput(batch, || {
        let tickets: Vec<_> = (0..batch)
            .map(|i| engine.submit(flat[i * m..(i + 1) * m].to_vec()).expect("submit"))
            .collect();
        for t in tickets {
            std::hint::black_box(t.wait().expect("scored"));
        }
    });
    let metrics = engine.metrics();
    engine.shutdown();

    // Explanations: TreeSHAP of the first probe rows, each checked for
    // local accuracy before timing.
    let explain_rows: Vec<&[f32]> = flat.chunks(m).take(EXPLAIN_ROWS).collect();
    let mut explain_max_gap = 0.0f64;
    for (i, row) in explain_rows.iter().enumerate() {
        let gap = explain_forest(&rf, row).local_accuracy_gap();
        assert!(gap <= 1e-9, "explanation of probe row {i} misses local accuracy by {gap:e}");
        explain_max_gap = explain_max_gap.max(gap);
    }
    eprintln!(
        "local accuracy verified on {} explanations (max gap {explain_max_gap:.1e})",
        explain_rows.len()
    );
    let explain_tp = throughput(explain_rows.len(), || {
        for row in &explain_rows {
            std::hint::black_box(explain_forest(&rf, row));
        }
    });

    let speedup = compiled_tp / single;
    eprintln!("speedup compiled-batch vs single-sample: {speedup:.1}x");
    if let Some(path) = trace_path {
        std::fs::write(&path, telemetry::hub().chrome_trace()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote Chrome trace to {path}");
    }
    if stats {
        let summary = telemetry::hub().summary();
        eprintln!("{}", serde_json::to_string_pretty(&summary).expect("summary serialize"));
    }
    let report = serde_json::json!({
        "trees": n_trees,
        "features": m,
        "batch": batch,
        "depth": depth,
        "mean_leaves": mean_leaves,
        "threads": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "fit_s": fit_s,
        "single_sample_per_s": single,
        "compiled_batch_per_s": compiled_tp,
        "nan_aware_batch_per_s": nan_tp,
        "engine_per_s": engine_tp,
        "speedup_compiled_vs_single": speedup,
        "engine_mean_batch": metrics.mean_batch,
        "engine_latency_p99_us": metrics.latency_p99_us,
        "explain_rows": explain_rows.len(),
        "explain_per_s": explain_tp,
        "explain_max_gap": explain_max_gap,
        "bit_identical": true,
    });
    harness.finish(report).exit_code()
}
