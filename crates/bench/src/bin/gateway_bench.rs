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
//! `--out` and `--gate` are the shared harness's (`drcshap_bench::gate`):
//! the report is the `gateway` section of the baseline file, a baseline
//! must match this run's trees, features, shards and clients, and the
//! gated throughput is `healthy.throughput_per_s`.
//!
//! Environment knobs: `DRCSHAP_SERVE_TREES` (default 100),
//! `DRCSHAP_SERVE_FEATURES` (default 64), `DRCSHAP_GATEWAY_SHARDS`
//! (default 4), `DRCSHAP_GATEWAY_CLIENTS` (default 4),
//! `DRCSHAP_GATEWAY_SECS` (per-phase wall clock, default 0.6).

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use drcshap_bench::gate::Bench;
use drcshap_bench::{env_f64, env_usize, quantile, synthetic_dataset};
use drcshap_forest::RandomForestTrainer;
use drcshap_gateway::{Gateway, GatewayConfig, Request};
use drcshap_ml::Trainer;
use drcshap_serve::ServeConfig;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// This bench's declaration to the shared gate.
const BENCH: Bench = Bench {
    section: "gateway",
    knobs: &["trees", "features", "shards", "clients"],
    positive: &["healthy.throughput_per_s", "one_slow_shard.throughput_per_s"],
    gated: "healthy.throughput_per_s",
};

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
    PhaseResult {
        throughput_per_s: latencies_us.len() as f64 / elapsed,
        p50_us: quantile(&latencies_us, 0.50),
        p99_us: quantile(&latencies_us, 0.99),
    }
}

fn main() -> ExitCode {
    let harness = drcshap_bench::harness(&BENCH, std::env::args().skip(1).collect());

    let n_trees = env_usize("DRCSHAP_SERVE_TREES", 100);
    let m = env_usize("DRCSHAP_SERVE_FEATURES", 64);
    let shards = env_usize("DRCSHAP_GATEWAY_SHARDS", 4);
    let clients = env_usize("DRCSHAP_GATEWAY_CLIENTS", 4);
    let secs = env_f64("DRCSHAP_GATEWAY_SECS", 0.6);
    if !secs.is_finite() || secs <= 0.0 {
        eprintln!("error: DRCSHAP_GATEWAY_SECS must be positive, got {secs}");
        std::process::exit(2);
    }

    eprintln!("training {n_trees}-tree forest on {m} features...");
    let data = synthetic_dataset(2000, m, 7, 42);
    let rf = RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, 42);
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

    eprintln!(
        "healthy {:.3e}/s p99 {:.0}us | one-slow-shard {:.3e}/s p99 {:.0}us ({hedges} hedges)",
        healthy.throughput_per_s, healthy.p99_us, slow.throughput_per_s, slow.p99_us
    );
    let report = serde_json::json!({
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
    harness.finish(report).exit_code()
}
