//! The gateway's counts, its shard engine's counts and the process-wide
//! telemetry counters of the same names describe one event stream: each
//! event is counted by one call, which bumps the owner's count and, with
//! telemetry enabled, the process-wide one.
//!
//! Telemetry is process-global, so this is its own test binary with one
//! test.

use std::time::{Duration, Instant};

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_gateway::{Gateway, GatewayConfig, Priority, QuotaConfig, Request};
use drcshap_ml::{Dataset, DrcshapError, Trainer};
use drcshap_serve::ServeConfig;
use drcshap_telemetry as telemetry;

const N_FEATURES: usize = 3;

fn forest() -> RandomForest {
    let n = 60;
    let x: Vec<f32> = (0..n * N_FEATURES).map(|i| ((i * 37) % 19) as f32 / 19.0).collect();
    let y: Vec<bool> = (0..n).map(|i| x[i * N_FEATURES] > 0.5).collect();
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees: 4, ..Default::default() }.fit(&data, 3)
}

#[test]
fn gateway_engine_and_process_counts_agree_on_three_sheds() {
    telemetry::hub().reset();
    telemetry::enable();
    // One shard whose batches never flush on their timer, one token per
    // tenant, and 20 ms of response delay on the shard.
    let config = GatewayConfig {
        shards: 1,
        serve: ServeConfig {
            max_wait: Duration::from_secs(3600),
            workers: 1,
            ..Default::default()
        },
        quota: Some(QuotaConfig { burst: 1.0, refill_per_sec: 1e-3 }),
        ..Default::default()
    };
    let gateway = Gateway::start(config, forest(), 7).expect("start");
    gateway.set_shard_delay(0, Duration::from_millis(20)).expect("delay");
    let x = vec![0.25f32; N_FEATURES];
    let request = |tenant: &str| Request::new(x.clone()).tenant(tenant).priority(Priority::High);

    // In-shard deadline shed: admitted and queued, but the 1 ms deadline
    // has passed when the caller's wait flushes the batch 20 ms later.
    let e = gateway.score(request("a").deadline_in(Duration::from_millis(1))).unwrap_err();
    assert!(matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: false }), "{e}");
    // Quota shed: tenant `a` spent its one token.
    let e = gateway.score(request("a")).unwrap_err();
    assert!(matches!(e, DrcshapError::Overloaded { .. }), "{e}");
    // Pre-route deadline shed: tenant `b` is admitted, already too late.
    let e = gateway.score(request("b").deadline(Instant::now())).unwrap_err();
    assert!(matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: true }), "{e}");

    let metrics = gateway.metrics();
    let process = telemetry::hub().summary().counters;
    let engine = &metrics.shards[0].engine.counts;
    let expected = [
        ("gateway/requests", 3),
        ("gateway/shed_quota", 1),
        ("gateway/shed_deadline", 2),
        ("gateway/completed", 0),
        ("gateway/errors", 0),
        ("serve/requests", 1),
        ("serve/deadline_shed", 1),
        ("serve/samples", 0),
    ];
    for (name, want) in expected {
        let owner = if name.starts_with("gateway/") { &metrics.counts } else { engine };
        assert_eq!(owner[name], want, "{name} in the owner's metrics");
    }
    // Every count either owner keeps reads the same process-wide.
    for (name, &count) in metrics.counts.iter().chain(engine) {
        assert_eq!(process.get(name).copied().unwrap_or(0), count, "{name} process-wide");
    }
    telemetry::disable();
}
