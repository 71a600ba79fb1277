//! The gateway's dual explanation path: `explain_both` must return SHAP
//! attributions *always*, attach an abductive explanation when the budget
//! allows, and degrade to SHAP-only — without dropping the request or
//! erroring — when the budget forces an `ExplanationTimeout`. The shard
//! keeps serving afterwards (a timed-out explanation never stalls it).

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_gateway::{Gateway, GatewayConfig, Request};
use drcshap_ml::{Dataset, Trainer};
use drcshap_serve::ServeConfig;
use drcshap_xsat::{forest_vote, XsatBudget};

const N_FEATURES: usize = 3;

fn forest(seed: u64) -> RandomForest {
    let n = 90;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..n {
        let a = (i % 10) as f32 / 10.0;
        let b = ((i * 3) % 10) as f32 / 10.0;
        let c = ((i * 7) % 10) as f32 / 10.0;
        x.extend_from_slice(&[a, b, c]);
        y.push(a + 0.3 * b > 0.6);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees: 5, ..Default::default() }.fit(&data, seed)
}

fn gateway() -> Gateway {
    let config = GatewayConfig {
        shards: 2,
        serve: ServeConfig { workers: 1, ..Default::default() },
        ..Default::default()
    };
    Gateway::start(config, forest(11), 7).expect("start")
}

#[test]
fn both_views_come_from_one_shard_and_agree_on_the_class() {
    let gateway = gateway();
    let rf = forest(11);
    let x = vec![0.8f32, 0.2, 0.5];
    let both =
        gateway.explain_both(&Request::new(x.clone()), &XsatBudget::default()).expect("both views");
    assert!(both.degraded.is_none());
    let abductive = both.abductive.expect("abductive present under a roomy budget");
    assert_eq!(abductive.predicted_hotspot, forest_vote(&rf, &x));
    assert_eq!(both.shap.contributions.len(), N_FEATURES);
    assert!(both.shard < 2);
    // The sufficient reason is non-trivial on a non-constant forest.
    assert!(!abductive.sufficient.is_empty());
}

#[test]
fn exhausted_budget_degrades_to_shap_only_without_dropping_the_request() {
    let gateway = gateway();
    let x = vec![0.5f32, 0.5, 0.5];
    // A zero-conflict budget cannot even run the encoding invariant check.
    let both = gateway
        .explain_both(&Request::new(x.clone()), &XsatBudget::conflicts(0))
        .expect("degraded response is still a response");
    assert!(both.abductive.is_none(), "no abductive view under a zero budget");
    let degraded = both.degraded.expect("degradation detail carried");
    assert_eq!(degraded.sat_calls, 0);
    // The request was served (SHAP view present) and the shard is healthy:
    // scoring and a follow-up roomy explanation both still work.
    assert_eq!(both.shap.contributions.len(), N_FEATURES);
    gateway.score(Request::new(x.clone())).expect("shard keeps scoring");
    let retry = gateway
        .explain_both(&Request::new(x), &XsatBudget::default())
        .expect("roomy budget succeeds");
    assert!(retry.abductive.is_some());
    assert!(retry.degraded.is_none());
    // No breaker opened: timeouts are not retryable and must not feed
    // failover.
    let metrics = gateway.metrics();
    assert!(metrics.shards.iter().all(|s| s.available), "{metrics:?}");
}

#[test]
fn expired_request_deadline_caps_the_abductive_budget() {
    let gateway = gateway();
    let x = vec![0.4f32, 0.6, 0.1];
    // The request deadline is already past; the SHAP view still serves,
    // and the abductive side degrades instead of blocking.
    let request =
        Request::new(x).deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
    let both = gateway.explain_both(&request, &XsatBudget::default()).expect("served");
    assert!(both.abductive.is_none());
    assert!(both.degraded.is_some());
}

#[test]
fn the_default_deadline_caps_the_abductive_budget() {
    let config = GatewayConfig {
        shards: 1,
        serve: ServeConfig { workers: 1, ..Default::default() },
        default_deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let gateway = Gateway::start(config, forest(11), 7).expect("start");
    // The request carries no deadline of its own, so the gateway's
    // default, already due, applies and the abductive side degrades.
    let request = Request::new(vec![0.8f32, 0.2, 0.5]);
    let both = gateway.explain_both(&request, &XsatBudget::default()).expect("served");
    assert!(both.abductive.is_none());
    assert!(both.degraded.is_some());
    assert_eq!(both.shap.contributions.len(), N_FEATURES);
}
