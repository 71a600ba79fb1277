//! Property test for deadline shedding (the O(1) fast path): a request
//! whose deadline has already expired at admission must be shed by the
//! gateway *before any shard is touched* — no queue slot consumed, no
//! engine counter moved, and the typed error carries the shard-untouched
//! marker — regardless of tenant, priority, payload, or how stale the
//! deadline is.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_gateway::{Gateway, GatewayConfig, Priority, Request};
use drcshap_ml::{Dataset, DrcshapError, Trainer};
use drcshap_serve::ServeConfig;
use proptest::prelude::*;

const N_FEATURES: usize = 2;

fn forest() -> RandomForest {
    let n = 60;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..n {
        let a = (i % 10) as f32 / 10.0;
        let b = ((i * 3) % 10) as f32 / 10.0;
        x.extend_from_slice(&[a, b]);
        y.push(a > 0.5);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees: 4, ..Default::default() }.fit(&data, 1)
}

fn start_gateway() -> Gateway {
    let config = GatewayConfig {
        shards: 3,
        serve: ServeConfig { workers: 1, ..Default::default() },
        ..Default::default()
    };
    Gateway::start(config, forest(), 7).expect("start")
}

/// One shared fleet for every proptest case: the property is about the
/// admission path, not about gateway construction. Only the proptest uses
/// it, so no other test's requests land between its snapshots.
fn gateway() -> &'static Gateway {
    static GATEWAY: OnceLock<Gateway> = OnceLock::new();
    GATEWAY.get_or_init(start_gateway)
}

fn priority_strategy() -> impl Strategy<Value = Priority> {
    (0u8..3).prop_map(|i| match i {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    })
}

fn tenant_strategy() -> impl Strategy<Value = String> {
    (0usize..4).prop_map(|i| ["alpha", "beta", "gamma", "delta"][i].to_string())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn expired_deadline_is_shed_without_touching_any_shard(
        x in prop::collection::vec(0.0f32..1.0, N_FEATURES),
        tenant in tenant_strategy(),
        priority in priority_strategy(),
        staleness_us in 0u64..5_000_000,
    ) {
        let gateway = gateway();
        let before = gateway.metrics().shards;
        // A deadline that expired `staleness_us` ago (or exactly now).
        let deadline = Instant::now() - Duration::from_micros(staleness_us);
        let request = Request::new(x)
            .tenant(tenant)
            .priority(priority)
            .deadline(deadline);
        let e = gateway.score(request).unwrap_err();
        // The typed error proves the fast path: shed pre-route, with the
        // shard-untouched marker set.
        prop_assert!(
            matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: true }),
            "expected pre-route deadline shed, got: {e}"
        );
        // No shard saw the request: every engine-side counter that a
        // dispatch would move is unchanged.
        for (old, now) in before.iter().zip(gateway.metrics().shards) {
            prop_assert_eq!(&now.engine.counts, &old.engine.counts, "shard {} was touched", old.shard);
        }
    }
}

#[test]
fn gateway_counts_the_shed_and_stays_usable() {
    let gateway = start_gateway();
    let shed_before = gateway.metrics().counts["gateway/shed_deadline"];
    let e = gateway
        .score(Request::new(vec![0.4, 0.6]).deadline(Instant::now() - Duration::from_secs(1)))
        .unwrap_err();
    assert!(matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: true }), "{e}");
    assert!(gateway.metrics().counts["gateway/shed_deadline"] > shed_before);
    // A fresh deadline goes through normally afterwards.
    let response = gateway
        .score(Request::new(vec![0.4, 0.6]).deadline_in(Duration::from_secs(30)))
        .expect("scored");
    assert_eq!(response.epoch, 1);
}
