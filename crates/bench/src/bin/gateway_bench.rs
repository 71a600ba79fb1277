//! Gateway throughput/latency bench: concurrent clients scoring through
//! the multi-shard gateway, healthy fleet vs one-slow-shard (where hedged
//! requests must hold the line), reported as JSON.
//!
//! Every response is verified bit-identical to the reference model before
//! it counts — a gateway that returns wrong bits reports nothing.
//!
//! ```text
//! cargo run --release -p drcshap-bench --bin gateway_bench
//! # merge a `gateway` section into the committed serve baseline
//! cargo run --release -p drcshap-bench --bin gateway_bench -- --out BENCH_serve.json
//! # CI regression gate against the committed baseline's gateway section
//! cargo run --release -p drcshap-bench --bin gateway_bench -- --gate BENCH_serve.json
//! ```
//!
//! `--out <path>` merges the report under a `"gateway"` key, preserving
//! whatever else the file holds (the serve_bench fields); a missing file
//! is created fresh. `--gate <baseline.json>` fails (exit 1) when the
//! baseline has no usable `gateway.healthy.throughput_per_s`, when the
//! baseline was not bit-identical, or when fresh healthy throughput
//! regresses more than `DRCSHAP_BENCH_TOLERANCE` (default 0.25) below it.
//!
//! Environment knobs: `DRCSHAP_SERVE_TREES` (default 100),
//! `DRCSHAP_SERVE_FEATURES` (default 64), `DRCSHAP_GATEWAY_SHARDS`
//! (default 4), `DRCSHAP_GATEWAY_CLIENTS` (default 4),
//! `DRCSHAP_GATEWAY_SECS` (per-phase wall clock, default 0.6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use drcshap_bench::{env_f64, env_usize, take_value};
use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_gateway::{Gateway, GatewayConfig, Request};
use drcshap_ml::{Dataset, Trainer};
use drcshap_serve::ServeConfig;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn train_forest(n_trees: usize, m: usize, rows: usize, seed: u64) -> RandomForest {
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
    RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, seed)
}

/// One load phase: throughput plus client-observed latency quantiles.
struct PhaseResult {
    throughput_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Hammers the gateway from `clients` threads for `secs` of wall clock,
/// validating every response bitwise against `expected` and collecting
/// client-side latencies. Panics on any error or score mismatch — the
/// bench only reports numbers for a correct gateway.
fn run_phase(
    gateway: &Gateway,
    probes: &[Vec<f32>],
    expected: &[u64],
    clients: usize,
    secs: f64,
) -> PhaseResult {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let hedged = AtomicU64::new(0);
    let started = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let hedged = &hedged;
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(4096);
                    let mut i = c; // stagger clients across the probe pool
                    while Instant::now() < deadline {
                        let p = i % probes.len();
                        let t0 = Instant::now();
                        let r =
                            gateway.score(Request::new(probes[p].clone())).expect("gateway score");
                        lats.push(t0.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(
                            r.score.to_bits(),
                            expected[p],
                            "probe {p} not bit-identical to the reference model"
                        );
                        if r.hedged {
                            hedged.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    latencies_us.sort_by(f64::total_cmp);
    let quantile = |q: f64| -> f64 {
        if latencies_us.is_empty() {
            return f64::NAN;
        }
        let idx = ((latencies_us.len() - 1) as f64 * q).round() as usize;
        latencies_us[idx]
    };
    PhaseResult {
        throughput_per_s: latencies_us.len() as f64 / elapsed,
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
    }
}

/// A finite, positive number from a nested baseline field.
fn baseline_number(report: &serde_json::Value, path: &[&str]) -> Option<f64> {
    let mut v = report;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64().filter(|v| v.is_finite() && *v > 0.0)
}

/// The CI regression gate: fresh healthy throughput vs the committed
/// baseline's `gateway.healthy.throughput_per_s`.
fn run_gate(baseline_path: &str, fresh_healthy: f64, tolerance: f64) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read baseline {baseline_path}: {e}");
        std::process::exit(1);
    });
    let baseline: serde_json::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("gate: baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let gateway = baseline.get("gateway").unwrap_or(&serde_json::Value::Null);
    if gateway.get("bit_identical").and_then(serde_json::Value::as_bool) != Some(true) {
        eprintln!("gate: baseline {baseline_path} gateway section was not bit-identical");
        std::process::exit(1);
    }
    let Some(base) = baseline_number(&baseline, &["gateway", "healthy", "throughput_per_s"]) else {
        eprintln!(
            "gate: baseline {baseline_path} has no usable gateway.healthy.throughput_per_s — \
             regenerate it with `gateway_bench --out {baseline_path}`"
        );
        std::process::exit(1);
    };
    let floor = base * (1.0 - tolerance);
    eprintln!(
        "gate: fresh healthy {fresh_healthy:.3e}/s vs baseline {base:.3e}/s \
         ({:.1}% of baseline, floor {:.0}%)",
        fresh_healthy / base * 100.0,
        (1.0 - tolerance) * 100.0
    );
    if fresh_healthy < floor {
        eprintln!(
            "gate: FAIL — gateway throughput regressed more than {:.0}% below the baseline",
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

    let n_trees = env_usize("DRCSHAP_SERVE_TREES", 100);
    let m = env_usize("DRCSHAP_SERVE_FEATURES", 64);
    let shards = env_usize("DRCSHAP_GATEWAY_SHARDS", 4);
    let clients = env_usize("DRCSHAP_GATEWAY_CLIENTS", 4);
    let secs = env_f64("DRCSHAP_GATEWAY_SECS", 0.6);
    let tolerance = env_f64("DRCSHAP_BENCH_TOLERANCE", 0.25);
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: DRCSHAP_BENCH_TOLERANCE must be in [0, 1), got {tolerance}");
        std::process::exit(2);
    }
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("error: DRCSHAP_GATEWAY_SECS must be positive, got {secs}");
        std::process::exit(2);
    }

    eprintln!("training {n_trees}-tree forest on {m} features...");
    let rf = train_forest(n_trees, m, 2000, 42);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let probes: Vec<Vec<f32>> =
        (0..256).map(|_| (0..m).map(|_| rng.gen_range(0.0f32..1.0)).collect()).collect();
    let expected: Vec<u64> = probes.iter().map(|p| rf.predict_proba(p).to_bits()).collect();

    let config = GatewayConfig {
        shards,
        serve: ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_capacity: 512,
            ..Default::default()
        },
        hedge_after: Some(Duration::from_millis(2)),
        ..Default::default()
    };
    let gateway = Gateway::start(config, rf, 42).expect("gateway start");
    eprintln!("gateway up: {shards} shards, {clients} clients, {secs}s per phase");

    // Warmup, then the healthy fleet.
    run_phase(&gateway, &probes, &expected, clients, (secs / 4.0).min(0.2));
    let healthy = run_phase(&gateway, &probes, &expected, clients, secs);

    // One slow shard: 5ms of injected response latency on shard 0. Hedged
    // requests (armed at 2ms) must keep its keys flowing through backups.
    gateway.set_shard_delay(0, Duration::from_millis(5)).expect("slow injection");
    let hedges_before = gateway.metrics().hedges_total;
    let slow = run_phase(&gateway, &probes, &expected, clients, secs);
    let metrics = gateway.metrics();
    let hedges = metrics.hedges_total - hedges_before;
    gateway.shutdown();

    let report = serde_json::json!({
        "bench": "gateway_bench",
        "status": "measured",
        "trees": n_trees,
        "features": m,
        "shards": shards,
        "clients": clients,
        "phase_secs": secs,
        "healthy": {
            "throughput_per_s": healthy.throughput_per_s,
            "p50_us": healthy.p50_us,
            "p99_us": healthy.p99_us,
        },
        "one_slow_shard": {
            "throughput_per_s": slow.throughput_per_s,
            "p50_us": slow.p50_us,
            "p99_us": slow.p99_us,
            "hedges": hedges,
            "hedge_wins": metrics.hedge_wins_total,
        },
        "bit_identical": true,
    });
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{pretty}");
    eprintln!(
        "healthy {:.3e}/s p99 {:.0}us | one-slow-shard {:.3e}/s p99 {:.0}us ({hedges} hedges)",
        healthy.throughput_per_s, healthy.p99_us, slow.throughput_per_s, slow.p99_us
    );

    if let Some(path) = out_path {
        for (name, value) in [
            ("healthy throughput", healthy.throughput_per_s),
            ("one-slow-shard throughput", slow.throughput_per_s),
        ] {
            if !value.is_finite() || value <= 0.0 {
                eprintln!("error: refusing to write {path}: {name} is {value}");
                std::process::exit(1);
            }
        }
        // Merge under the `gateway` key, preserving the serve_bench fields.
        let mut doc: serde_json::Value = match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("error: {path} exists but is not valid JSON: {e}");
                std::process::exit(1);
            }),
            Err(_) => serde_json::json!({}),
        };
        match doc.as_object_mut() {
            Some(obj) => {
                obj.insert("gateway".to_string(), report);
            }
            None => {
                eprintln!("error: {path} is not a JSON object; cannot merge a gateway section");
                std::process::exit(1);
            }
        }
        let merged = serde_json::to_string_pretty(&doc).expect("merged report serializes");
        std::fs::write(&path, format!("{merged}\n")).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("merged gateway section into {path}");
    }
    if let Some(path) = gate_path {
        run_gate(&path, healthy.throughput_per_s, tolerance);
    }
}
