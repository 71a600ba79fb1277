//! Abductive-explanation bench: explanations per second through the
//! persistent [`AbductiveEngine`], plus a conflicts-vs-forest-shape sweep
//! (how SAT work grows with tree count and depth), reported as JSON.
//!
//! Every primary-phase explanation is verified against the forest's own
//! majority vote, and the engine's determinism is re-proven (two fresh
//! engines must produce bit-identical explanations) before any number is
//! reported — a drifted explainer reports nothing.
//!
//! ```text
//! cargo run --release -p drcshap-bench --bin xsat_bench
//! # merge an `xsat` section into the committed serve baseline
//! cargo run --release -p drcshap-bench --bin xsat_bench -- --out BENCH_serve.json
//! # CI regression gate against the committed baseline's xsat section
//! cargo run --release -p drcshap-bench --bin xsat_bench -- --gate BENCH_serve.json
//! ```
//!
//! The report records the host it ran on (`host.cpus`, `host.cpu`).
//! `--out <path>` merges the report under an `"xsat"` key, preserving
//! whatever else the file holds (serve_bench / gateway_bench fields); a
//! missing file is created fresh. `--gate <baseline.json>` fails (exit 1)
//! when the baseline's xsat section was recorded at other knobs (trees,
//! depth, features) than this run — comparing runs at different knobs is
//! meaningless — when it has no usable `xsat.primary.explanations_per_s`,
//! when it was not bit-identical, or when fresh throughput regresses more
//! than `DRCSHAP_BENCH_TOLERANCE` (default 0.25) below it.
//!
//! Environment knobs: `DRCSHAP_XSAT_TREES` (default 25),
//! `DRCSHAP_XSAT_DEPTH` (default 5), `DRCSHAP_XSAT_FEATURES` (default
//! 12), `DRCSHAP_XSAT_SECS` (primary-phase wall clock, default 0.6).
//! Raising trees × depth quickly makes the majority-vote UNSAT proofs
//! (sufficiency checks near the vote boundary) dramatically harder —
//! that growth is what `conflicts_vs_shape` charts.

use std::time::{Duration, Instant};

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::{Dataset, Trainer};
use drcshap_xsat::{forest_vote, AbductiveEngine, XsatBudget};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: bad value {s:?} for {name}");
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}

fn env_f64(name: &str, default: f64) -> f64 {
    match std::env::var(name) {
        Ok(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: bad value {s:?} for {name}");
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}

fn train_forest(n_trees: usize, depth: usize, m: usize, rows: usize, seed: u64) -> RandomForest {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(rows * m);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut acc = 0.0f32;
        for j in 0..m {
            let v: f32 = rng.gen_range(0.0..1.0);
            if j % 3 == 0 {
                acc += v;
            }
            x.push(v);
        }
        y.push(acc > 0.5 * (m as f32 / 3.0));
    }
    let data = Dataset::from_parts(x, y, vec![0; rows], m);
    RandomForestTrainer { n_trees, max_depth: Some(depth), ..Default::default() }.fit(&data, seed)
}

/// Extracts `--flag <value>` from `args`, removing both tokens.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    }
    let value = args[pos + 1].clone();
    args.drain(pos..=pos + 1);
    Some(value)
}

/// One measured configuration: explanation throughput and mean SAT work.
struct PhaseResult {
    explanations_per_s: f64,
    mean_conflicts: f64,
    mean_sat_calls: f64,
    mean_core_features: f64,
}

/// Explains probes round-robin through one persistent engine until `secs`
/// of wall clock (always completing at least one pass over the probe
/// pool), cross-checking every predicted class against the forest's own
/// majority vote. Panics on any error or class mismatch.
fn run_phase(forest: &RandomForest, probes: &[Vec<f32>], secs: f64) -> PhaseResult {
    let mut engine = AbductiveEngine::new(forest).expect("encodable forest");
    let budget = XsatBudget::default();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let started = Instant::now();
    let mut n = 0u64;
    let mut conflicts = 0u64;
    let mut sat_calls = 0u64;
    let mut core_features = 0u64;
    let mut i = 0usize;
    while n < probes.len() as u64 || Instant::now() < deadline {
        let p = i % probes.len();
        let ex = engine.explain(&probes[p], &budget).expect("explain within default budget");
        assert_eq!(
            ex.predicted_hotspot,
            forest_vote(forest, &probes[p]),
            "probe {p}: explained class disagrees with the forest vote"
        );
        n += 1;
        conflicts += ex.conflicts;
        sat_calls += u64::from(ex.sat_calls);
        core_features += ex.sufficient.len() as u64;
        i += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    PhaseResult {
        explanations_per_s: n as f64 / elapsed,
        mean_conflicts: conflicts as f64 / n as f64,
        mean_sat_calls: sat_calls as f64 / n as f64,
        mean_core_features: core_features as f64 / n as f64,
    }
}

/// Two fresh engines over the same forest must produce identical
/// explanations, solver accounting included — the bit-stability contract
/// `drcshap explain` relies on.
fn verify_deterministic(forest: &RandomForest, probes: &[Vec<f32>]) {
    let explain_all = || {
        let mut engine = AbductiveEngine::new(forest).expect("encodable forest");
        probes
            .iter()
            .take(4)
            .map(|x| {
                let ex = engine.explain(x, &XsatBudget::default()).expect("explains");
                (ex.sufficient, ex.contrastive, ex.sat_calls, ex.conflicts)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(explain_all(), explain_all(), "explanations are not bit-stable across engines");
}

/// A finite, positive number from a nested baseline field.
fn baseline_number(report: &serde_json::Value, path: &[&str]) -> Option<f64> {
    let mut v = report;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64().filter(|v| v.is_finite() && *v > 0.0)
}

/// The CI regression gate: the fresh report's primary throughput vs the
/// committed baseline's `xsat.primary.explanations_per_s`, refused when the
/// two were recorded at different knobs.
fn run_gate(baseline_path: &str, fresh: &serde_json::Value, tolerance: f64) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let baseline: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("gate: baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let xsat = baseline.get("xsat").unwrap_or(&serde_json::Value::Null);
    for knob in ["trees", "depth", "features"] {
        let base_knob = xsat.get(knob).and_then(serde_json::Value::as_u64);
        let fresh_knob = fresh.get(knob).and_then(serde_json::Value::as_u64);
        if base_knob != fresh_knob {
            eprintln!(
                "gate: REFUSED — baseline {baseline_path} xsat section was recorded with \
                 {knob}={}, but this run uses {knob}={}; rerun with the baseline's \
                 DRCSHAP_XSAT_* knobs or regenerate the baseline",
                base_knob.map_or("null".to_string(), |v| v.to_string()),
                fresh_knob.map_or("null".to_string(), |v| v.to_string()),
            );
            std::process::exit(1);
        }
    }
    if xsat.get("bit_identical").and_then(serde_json::Value::as_bool) != Some(true) {
        eprintln!("gate: baseline {baseline_path} xsat section was not bit-identical");
        std::process::exit(1);
    }
    let Some(base) = baseline_number(&baseline, &["xsat", "primary", "explanations_per_s"]) else {
        eprintln!(
            "gate: baseline {baseline_path} has no usable xsat.primary.explanations_per_s — \
             regenerate it with `xsat_bench --out {baseline_path}`"
        );
        std::process::exit(1);
    };
    let fresh = fresh["primary"]["explanations_per_s"].as_f64().expect("fresh report is complete");
    let floor = base * (1.0 - tolerance);
    eprintln!(
        "gate: fresh {fresh:.3e} explanations/s vs baseline {base:.3e}/s \
         ({:.1}% of baseline, floor {:.0}%)",
        fresh / base * 100.0,
        (1.0 - tolerance) * 100.0
    );
    if fresh < floor {
        eprintln!(
            "gate: FAIL — explanation throughput regressed more than {:.0}% below the baseline",
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

    let n_trees = env_usize("DRCSHAP_XSAT_TREES", 25);
    let depth = env_usize("DRCSHAP_XSAT_DEPTH", 5);
    let m = env_usize("DRCSHAP_XSAT_FEATURES", 12);
    let secs = env_f64("DRCSHAP_XSAT_SECS", 0.6);
    let tolerance = env_f64("DRCSHAP_BENCH_TOLERANCE", 0.25);
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: DRCSHAP_BENCH_TOLERANCE must be in [0, 1), got {tolerance}");
        std::process::exit(2);
    }
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("error: DRCSHAP_XSAT_SECS must be positive, got {secs}");
        std::process::exit(2);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let probes: Vec<Vec<f32>> =
        (0..64).map(|_| (0..m).map(|_| rng.gen_range(0.0f32..1.0)).collect()).collect();

    // Primary configuration: throughput, SAT work, and the determinism
    // re-proof the gate insists on.
    eprintln!("training {n_trees}-tree depth-{depth} forest on {m} features...");
    let forest = train_forest(n_trees, depth, m, 2000, 42);
    verify_deterministic(&forest, &probes);
    let primary = run_phase(&forest, &probes, secs);
    eprintln!(
        "primary: {:.3e} explanations/s, {:.1} conflicts and {:.1} SAT calls per explanation, \
         mean core {:.1} features",
        primary.explanations_per_s,
        primary.mean_conflicts,
        primary.mean_sat_calls,
        primary.mean_core_features
    );

    // Conflicts vs forest shape: one pass over the probe pool per
    // (trees, depth) point, same features and training distribution.
    // The grid is deliberately modest: UNSAT proofs over a near-boundary
    // majority vote get combinatorially harder with trees × depth, and
    // the sweep exists to chart exactly that growth, not to stall CI.
    let mut sweep = Vec::new();
    for &(t, d) in &[(5usize, 3usize), (10, 4), (15, 5), (25, 6)] {
        let f = train_forest(t, d, m, 2000, 42);
        let r = run_phase(&f, &probes, 0.0);
        eprintln!(
            "sweep trees={t} depth={d}: {:.3e}/s, {:.1} conflicts, {:.1} SAT calls, core {:.1}",
            r.explanations_per_s, r.mean_conflicts, r.mean_sat_calls, r.mean_core_features
        );
        sweep.push(serde_json::json!({
            "trees": t,
            "depth": d,
            "explanations_per_s": r.explanations_per_s,
            "mean_conflicts": r.mean_conflicts,
            "mean_sat_calls": r.mean_sat_calls,
            "mean_core_features": r.mean_core_features,
        }));
    }

    let report = serde_json::json!({
        "bench": "xsat_bench",
        "status": "measured",
        "host": drcshap_bench::host(),
        "trees": n_trees,
        "depth": depth,
        "features": m,
        "phase_secs": secs,
        "primary": {
            "explanations_per_s": primary.explanations_per_s,
            "mean_conflicts": primary.mean_conflicts,
            "mean_sat_calls": primary.mean_sat_calls,
            "mean_core_features": primary.mean_core_features,
        },
        "conflicts_vs_shape": sweep,
        "bit_identical": true,
    });
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{pretty}");

    if let Some(path) = out_path {
        if !primary.explanations_per_s.is_finite() || primary.explanations_per_s <= 0.0 {
            eprintln!(
                "error: refusing to write {path}: primary throughput is {}",
                primary.explanations_per_s
            );
            std::process::exit(1);
        }
        // Merge under the `xsat` key, preserving every other section.
        let mut doc: serde_json::Value = match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("error: {path} exists but is not valid JSON: {e}");
                std::process::exit(1);
            }),
            Err(_) => serde_json::json!({}),
        };
        match doc.as_object_mut() {
            Some(obj) => {
                obj.insert("xsat".to_string(), report.clone());
            }
            None => {
                eprintln!("error: {path} is not a JSON object; cannot merge an xsat section");
                std::process::exit(1);
            }
        }
        let merged = serde_json::to_string_pretty(&doc).expect("merged report serializes");
        std::fs::write(&path, format!("{merged}\n")).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("merged xsat section into {path}");
    }
    if let Some(path) = gate_path {
        run_gate(&path, &report, tolerance);
    }
}
