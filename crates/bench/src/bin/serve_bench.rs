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
//! The report records the host it ran on (`host.cpus`, `host.cpu`) and
//! the wall time of the forest fit (`fit_s`, recorded but not gated; the
//! training data is generated before its clock starts).
//! `--out <path>` merges the serve fields into an existing JSON baseline
//! (preserving the `gateway`, `registry`, and `xsat` sections other
//! benches maintain) or creates the file fresh.
//!
//! `--gate <baseline.json>` compares the fresh run against a committed
//! baseline: it fails (exit 1) when the baseline's recorded knobs (trees,
//! features, batch) differ from this run's environment knobs — comparing
//! runs at different knobs is meaningless — when the baseline was not
//! bit-identical, when the baseline's `compiled_batch_per_s` is null or
//! non-positive (a placeholder that never got regenerated), or when fresh
//! compiled throughput regresses more than `DRCSHAP_BENCH_TOLERANCE`
//! (default 0.25, i.e. 25%) below the baseline.
//!
//! Environment knobs: `DRCSHAP_SERVE_TREES` (default 100),
//! `DRCSHAP_SERVE_FEATURES` (default 64), `DRCSHAP_SERVE_SAMPLES`
//! (default 4096, also the batch size; the acceptance floor is 256), and
//! `DRCSHAP_SERVE_DEPTH` (max tree depth; default 0 = unpruned — small
//! depths sweep the tree size the compiled walk is measured at).

use std::time::{Duration, Instant};

use drcshap_bench::{env_f64, env_usize, take_value};
use drcshap_forest::RandomForestTrainer;
use drcshap_ml::{Dataset, NanPolicy, Trainer};
use drcshap_serve::{CompiledForest, ServeConfig, ServeEngine};
use drcshap_shap::explain_forest;
use drcshap_telemetry as telemetry;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// How many probe rows the explanation section explains per timed call.
const EXPLAIN_ROWS: usize = 32;

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

/// The forest's training set: `rows` of `m` uniform features, labelled by
/// whether the sum of every seventh feature exceeds `m / 14`.
fn training_data(m: usize, rows: usize, seed: u64) -> Dataset {
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
    Dataset::from_parts(x, y, vec![0; rows], m)
}

/// A finite, positive throughput from a baseline field — anything else
/// (missing, null, zero, the unregenerated placeholder) is `None`.
fn baseline_throughput(report: &serde_json::Value, field: &str) -> Option<f64> {
    report.get(field)?.as_f64().filter(|v| v.is_finite() && *v > 0.0)
}

/// One throughput comparison inside the gate: fails (exit 1) when `fresh`
/// drops more than `tolerance` below `base`.
fn gate_compare(what: &str, fresh: f64, base: f64, tolerance: f64) {
    let floor = base * (1.0 - tolerance);
    eprintln!(
        "gate: fresh {what} {fresh:.3e}/s vs baseline {base:.3e}/s ({:.1}% of baseline, \
         floor {:.0}%)",
        fresh / base * 100.0,
        (1.0 - tolerance) * 100.0
    );
    if fresh < floor {
        eprintln!(
            "gate: FAIL — {what} throughput regressed more than {:.0}% below the baseline",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
}

/// The CI regression gate: fresh vs committed baseline. Refuses (exit 1)
/// a baseline recorded at different knobs than this run — the two are not
/// comparable — then fails on a null/placeholder or non-bit-identical
/// baseline, or a fresh compiled throughput more than `tolerance` below
/// the baseline.
fn run_gate(baseline_path: &str, fresh: &serde_json::Value, tolerance: f64) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let baseline: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("gate: baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    // Knob guard: a baseline committed at different TREES/FEATURES/SAMPLES
    // knobs would make every comparison below meaningless — refuse rather
    // than pass or fail on noise.
    for knob in ["trees", "features", "batch", "depth"] {
        let base_knob = baseline.get(knob).and_then(serde_json::Value::as_u64);
        let fresh_knob = fresh.get(knob).and_then(serde_json::Value::as_u64);
        if base_knob != fresh_knob {
            eprintln!(
                "gate: REFUSED — baseline {baseline_path} was recorded with {knob}={}, but \
                 this run uses {knob}={}; rerun with the baseline's DRCSHAP_SERVE_* knobs or \
                 regenerate the baseline",
                base_knob.map_or("null".to_string(), |v| v.to_string()),
                fresh_knob.map_or("null".to_string(), |v| v.to_string()),
            );
            std::process::exit(1);
        }
    }
    if baseline.get("bit_identical").and_then(serde_json::Value::as_bool) != Some(true) {
        eprintln!("gate: baseline {baseline_path} was not bit-identical — rejecting it");
        std::process::exit(1);
    }
    let Some(base_compiled) = baseline_throughput(&baseline, "compiled_batch_per_s") else {
        eprintln!(
            "gate: baseline {baseline_path} has a null or non-positive compiled_batch_per_s \
             — regenerate it with `serve_bench --out {baseline_path}`"
        );
        std::process::exit(1);
    };
    let fresh_compiled = fresh["compiled_batch_per_s"].as_f64().expect("fresh report is complete");
    gate_compare("compiled", fresh_compiled, base_compiled, tolerance);
    eprintln!("gate: PASS");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = take_value(&mut args, "--out");
    let gate_path = take_value(&mut args, "--gate");
    let trace_path = take_value(&mut args, "--trace");
    let stats = match args.iter().position(|a| a == "--stats") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    if let Some(extra) = args.first() {
        eprintln!("error: unexpected argument {extra:?}");
        std::process::exit(2);
    }
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
    let tolerance = env_f64("DRCSHAP_BENCH_TOLERANCE", 0.25);
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: DRCSHAP_BENCH_TOLERANCE must be in [0, 1), got {tolerance}");
        std::process::exit(2);
    }

    eprintln!("training {n_trees}-tree forest on {m} features (depth {depth}; 0 = unpruned)...");
    let data = training_data(m, 2000, 42);
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
    let report = serde_json::json!({
        "bench": "serve_bench",
        "status": "measured",
        "host": drcshap_bench::host(),
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
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{pretty}");
    if let Some(path) = out_path {
        // Never overwrite a baseline with numbers the gate would reject.
        for (field, value) in [
            ("single", single),
            ("compiled", compiled_tp),
            ("nan", nan_tp),
            ("engine", engine_tp),
            ("explain", explain_tp),
        ] {
            if !value.is_finite() || value <= 0.0 {
                eprintln!("error: refusing to write {path}: {field} throughput is {value}");
                std::process::exit(1);
            }
        }
        // Merge into the existing baseline so the `gateway`, `registry`,
        // and `xsat` sections other benches maintain survive.
        let mut doc: serde_json::Value = match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("error: {path} is not valid JSON: {e}");
                std::process::exit(1);
            }),
            Err(_) => serde_json::json!({}),
        };
        match (doc.as_object_mut(), report.as_object()) {
            (Some(obj), Some(fresh)) => {
                for (key, value) in fresh {
                    obj.insert(key.clone(), value.clone());
                }
            }
            _ => {
                eprintln!("error: {path} is not a JSON object; cannot merge the serve fields");
                std::process::exit(1);
            }
        }
        let merged = serde_json::to_string_pretty(&doc).expect("merged report serializes");
        std::fs::write(&path, format!("{merged}\n")).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("merged serve fields into {path}");
    }
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
    if let Some(path) = gate_path {
        run_gate(&path, &report, tolerance);
    }
}
