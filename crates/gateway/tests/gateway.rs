//! Gateway integration tests: bit-exact scoring through the fleet,
//! failover off killed shards, admission quotas with priority shedding,
//! hedged requests beating a slow shard, and shutdown semantics.

use std::time::Duration;

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_gateway::{Gateway, GatewayConfig, Priority, QuotaConfig, Request};
use drcshap_ml::{Dataset, DrcshapError, NanPolicy, Trainer};
use drcshap_serve::ServeConfig;
use drcshap_xsat::XsatBudget;

const N_FEATURES: usize = 3;
const FINGERPRINT: u64 = 7;

fn forest(seed: u64) -> RandomForest {
    let n = 100;
    let threshold = 0.25 + (seed % 5) as f32 * 0.12;
    let mut x = Vec::with_capacity(n * N_FEATURES);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..N_FEATURES {
            x.push((((i * 131 + j * 17 + seed as usize * 7) % 97) as f32) / 97.0);
        }
        y.push(x[i * N_FEATURES] > threshold);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees: 8, ..Default::default() }.fit(&data, seed)
}

fn quick_config(shards: usize) -> GatewayConfig {
    GatewayConfig {
        shards,
        serve: ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_capacity: 256,
            workers: 1,
            nan_policy: NanPolicy::Reject,
            cache_capacity: 16,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn probe(i: usize) -> Vec<f32> {
    (0..N_FEATURES).map(|j| (((i * 13 + j * 29) % 23) as f32) / 23.0).collect()
}

#[test]
fn scores_are_bit_exact_and_attributed_to_a_shard() {
    let rf = forest(1);
    let gateway = Gateway::start(quick_config(3), rf.clone(), FINGERPRINT).expect("start");
    for i in 0..24 {
        let x = probe(i);
        let expected = rf.predict_proba(&x).to_bits();
        let response = gateway.score(Request::new(x)).expect("scored");
        assert_eq!(response.score.to_bits(), expected, "probe {i} not bit-exact");
        assert_eq!(response.epoch, 1);
        assert!(response.shard < 3);
        assert_eq!(response.attempts, 1);
        assert!(!response.hedged);
    }
    let metrics = gateway.metrics();
    assert_eq!(metrics.counts["gateway/requests"], 24);
    assert_eq!(metrics.counts["gateway/completed"], 24);
    assert_eq!(metrics.counts["gateway/errors"], 0);
    // The ring spreads distinct probes over more than one shard.
    let busy = metrics.shards.iter().filter(|s| s.engine.counts["serve/samples"] > 0).count();
    assert!(busy > 1, "all probes landed on one shard");
}

#[test]
fn same_key_keeps_hitting_the_same_shard() {
    let gateway = Gateway::start(quick_config(4), forest(1), FINGERPRINT).expect("start");
    let shards: Vec<usize> = (0..10)
        .map(|_| gateway.score(Request::new(probe(5)).tenant("t")).expect("scored").shard)
        .collect();
    assert!(shards.windows(2).all(|w| w[0] == w[1]), "routing flapped: {shards:?}");
}

#[test]
fn killed_shard_fails_over_without_dropping_requests() {
    let rf = forest(2);
    let gateway = Gateway::start(quick_config(3), rf.clone(), FINGERPRINT).expect("start");
    // Find a probe owned by shard 0 so killing it forces a failover.
    let owned = (0..64)
        .map(probe)
        .find(|x| gateway.score(Request::new(x.clone())).expect("scored").shard == 0)
        .expect("some probe is owned by shard 0");
    gateway.kill_shard(0).expect("kill");
    for _ in 0..8 {
        let response = gateway.score(Request::new(owned.clone())).expect("failed over");
        assert_ne!(response.shard, 0, "killed shard must not answer");
        assert_eq!(response.score.to_bits(), rf.predict_proba(&owned).to_bits());
    }
    let metrics = gateway.metrics();
    let failovers = metrics.counts["gateway/failovers"];
    assert!(failovers >= 8, "failovers: {failovers}");
    assert!(metrics.shards[0].killed);
    assert!(!metrics.shards[0].available);
}

#[test]
fn killing_every_shard_makes_the_fleet_overloaded() {
    let gateway = Gateway::start(quick_config(2), forest(3), FINGERPRINT).expect("start");
    gateway.kill_shard(0).expect("kill");
    gateway.kill_shard(1).expect("kill");
    let e = gateway.score(Request::new(probe(0))).unwrap_err();
    assert!(matches!(e, DrcshapError::Overloaded { .. }), "{e}");
    assert!(gateway.kill_shard(9).is_err(), "out-of-range shard index is a usage error");
}

#[test]
fn quota_sheds_low_priority_first() {
    let config = GatewayConfig {
        quota: Some(QuotaConfig { burst: 10.0, refill_per_sec: 0.001 }),
        ..quick_config(2)
    };
    let gateway = Gateway::start(config, forest(1), FINGERPRINT).expect("start");
    // Low priority may draw the tenant bucket down to 30%: 7 requests.
    let mut low = 0;
    while gateway.score(Request::new(probe(low)).tenant("t").priority(Priority::Low)).is_ok() {
        low += 1;
        assert!(low < 100, "quota never engaged");
    }
    assert_eq!(low, 7);
    // High priority still has the reserve: 3 more tokens.
    for i in 0..3 {
        gateway
            .score(Request::new(probe(i)).tenant("t").priority(Priority::High))
            .expect("reserve admits high priority");
    }
    let e = gateway.score(Request::new(probe(0)).tenant("t").priority(Priority::High)).unwrap_err();
    assert!(matches!(e, DrcshapError::Overloaded { capacity: 10 }), "{e}");
    // Another tenant is unaffected.
    gateway
        .score(Request::new(probe(0)).tenant("other").priority(Priority::Low))
        .expect("tenants have independent buckets");
    let shed = gateway.metrics().counts["gateway/shed_quota"];
    assert!(shed >= 2, "quota sheds counted: {shed}");
}

#[test]
fn hedging_beats_a_slow_shard() {
    let rf = forest(4);
    let config = GatewayConfig { hedge_after: Some(Duration::from_millis(2)), ..quick_config(2) };
    let gateway = Gateway::start(config, rf.clone(), FINGERPRINT).expect("start");
    let x = probe(3);
    // The shard that owns `x` answers an unhedged request. A request
    // slower than `hedge_after` (a loaded host, a debug build) is hedged
    // and may be answered by the backup, so skip those.
    let owner = (0..20)
        .map(|_| gateway.score(Request::new(x.clone())).expect("scored"))
        .find(|r| !r.hedged)
        .expect("some request answers within the hedge window")
        .shard;
    gateway.set_shard_delay(owner, Duration::from_millis(80)).expect("delay");
    let started = std::time::Instant::now();
    let response = gateway.score(Request::new(x.clone())).expect("hedged");
    let elapsed = started.elapsed();
    assert!(response.hedged, "slow primary must trigger a hedge");
    assert_ne!(response.shard, owner, "the backup should win the race");
    assert_eq!(response.score.to_bits(), rf.predict_proba(&x).to_bits());
    assert!(elapsed < Duration::from_millis(60), "hedge did not beat the slow shard: {elapsed:?}");
    let counts = gateway.metrics().counts;
    assert!(counts["gateway/hedges"] >= 1);
    assert!(counts["gateway/hedge_wins"] >= 1);
    // The slow shard's EWMA reflects the injected latency once it answers.
    gateway.set_shard_delay(owner, Duration::ZERO).expect("clear delay");
}

#[test]
fn explain_routes_and_validates() {
    let gateway = Gateway::start(quick_config(2), forest(5), FINGERPRINT).expect("start");
    let request = Request::new(probe(1)).tenant("t");
    let budget = XsatBudget::default();
    let both = gateway.explain_both(&request, &budget).expect("explained");
    assert!(both.shap.local_accuracy_gap() < 1e-9);
    assert!(both.shard < 2);
    // Same request, same shard: the explanation cache is warmed.
    let again = gateway.explain_both(&request, &budget).expect("explained");
    assert_eq!(both.shard, again.shard);
    assert!(std::sync::Arc::ptr_eq(&both.shap, &again.shap), "cache hit expected");
    let bad = Request::new(vec![0.5]);
    assert!(gateway.explain_both(&bad, &budget).is_err(), "length mismatch surfaces");
}

#[test]
fn shutdown_is_typed_and_sticky() {
    let gateway = Gateway::start(quick_config(2), forest(6), FINGERPRINT).expect("start");
    gateway.score(Request::new(probe(0))).expect("scored before shutdown");
    gateway.shutdown();
    let e = gateway.score(Request::new(probe(0))).unwrap_err();
    // All engines drain; the fleet answers with a retryable typed error
    // (ShuttingDown from the engines, surfaced after bounded retries).
    assert!(matches!(e, DrcshapError::ShuttingDown | DrcshapError::Overloaded { .. }), "{e}");
}

#[test]
fn per_request_deadline_overrides_the_default() {
    let config =
        GatewayConfig { default_deadline: Some(Duration::from_secs(3600)), ..quick_config(2) };
    let gateway = Gateway::start(config, forest(1), FINGERPRINT).expect("start");
    // The generous default admits normally.
    gateway.score(Request::new(probe(0))).expect("scored");
    // An explicitly expired per-request deadline is shed pre-route.
    let expired = Request::new(probe(0)).deadline(std::time::Instant::now());
    let e = gateway.score(expired).unwrap_err();
    assert!(matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: true }), "{e}");
}
