//! Staged-rollout tests: a clean rollout swaps the whole fleet to a
//! bit-exact new model; schema violations abort before touching the
//! fleet; and (under `inject-shap-fault`) a corrupted canary digest
//! triggers the automatic rollback drill.

use std::time::Duration;

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_gateway::{Gateway, GatewayConfig, Request};
use drcshap_ml::{Dataset, DrcshapError, Trainer};
use drcshap_serve::ServeConfig;

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

fn gateway(shards: usize) -> Gateway {
    let config = GatewayConfig {
        shards,
        serve: ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            workers: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    Gateway::start(config, forest(1), FINGERPRINT).expect("start")
}

fn probe(i: usize) -> Vec<f32> {
    (0..N_FEATURES).map(|j| (((i * 13 + j * 29) % 23) as f32) / 23.0).collect()
}

#[cfg(not(feature = "inject-shap-fault"))]
mod clean {
    use super::*;

    #[test]
    fn staged_rollout_swaps_the_whole_fleet_bit_exactly() {
        let gateway = gateway(3);
        let new_model = forest(4);
        let report = gateway.staged_rollout(new_model.clone(), FINGERPRINT).expect("rollout");
        assert_eq!(report.canary_shard, 0);
        assert_eq!(report.canary_probes, 64);
        assert_eq!(report.epochs, vec![2, 2, 2], "every shard on the new epoch");
        assert_eq!(gateway.shard_epochs(), vec![2, 2, 2]);
        // Every shard now serves the new model, bit for bit.
        for i in 0..12 {
            let x = probe(i);
            let response = gateway.score(Request::new(x.clone())).expect("scored");
            assert_eq!(response.epoch, 2);
            assert_eq!(response.score.to_bits(), new_model.predict_proba(&x).to_bits());
        }
        let counts = gateway.metrics().counts;
        assert_eq!(counts["gateway/rollouts"], 1);
        assert_eq!(counts["gateway/rollbacks"], 0);
    }

    #[test]
    fn rollout_skips_killed_shards() {
        let gateway = gateway(3);
        gateway.kill_shard(2).expect("kill");
        let report = gateway.staged_rollout(forest(4), FINGERPRINT).expect("rollout");
        assert_eq!(report.epochs, vec![2, 2, 1], "dead shard left at its old epoch");
    }

    #[test]
    fn schema_violation_aborts_before_touching_the_fleet() {
        let gateway = gateway(2);
        let e = gateway.staged_rollout(forest(4), FINGERPRINT + 1).unwrap_err();
        assert!(
            matches!(e, DrcshapError::Schema(_)),
            "fingerprint mismatch is a schema error, got: {e}"
        );
        assert_eq!(gateway.shard_epochs(), vec![1, 1], "no shard was swapped");
        assert_eq!(gateway.metrics().counts["gateway/rollbacks"], 0);
    }

    #[test]
    fn rollout_under_concurrent_load_stays_consistent() {
        let gateway = std::sync::Arc::new(gateway(3));
        let old_model = forest(1);
        let new_model = forest(4);
        let refs: Vec<(u64, u64)> = (0..8)
            .map(|i| {
                let x = probe(i);
                (old_model.predict_proba(&x).to_bits(), new_model.predict_proba(&x).to_bits())
            })
            .collect();
        let producers: Vec<_> = (0..3)
            .map(|t| {
                let gateway = std::sync::Arc::clone(&gateway);
                let refs = refs.clone();
                std::thread::spawn(move || {
                    for i in 0..300 {
                        let p = (t * 31 + i * 7) % 8;
                        let response = gateway.score(Request::new(probe(p))).expect("scored");
                        // Epoch 1 must carry the old model's bits, epoch 2
                        // the new model's — never a mix.
                        let (old_bits, new_bits) = refs[p];
                        let want = if response.epoch == 1 { old_bits } else { new_bits };
                        assert_eq!(
                            response.score.to_bits(),
                            want,
                            "probe {p} epoch {} returned the wrong model's bits",
                            response.epoch
                        );
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(2));
        gateway.staged_rollout(new_model.clone(), FINGERPRINT).expect("rollout under load");
        for producer in producers {
            producer.join().expect("producer thread");
        }
        assert_eq!(gateway.shard_epochs(), vec![2, 2, 2]);
    }
}

/// The CI rollback drill: with `inject-shap-fault` the reference digest
/// is corrupted, so the canary comparison MUST fail, roll shard 0 back,
/// and leave the rest of the fleet untouched on the old model.
#[cfg(feature = "inject-shap-fault")]
mod drill {
    use super::*;

    #[test]
    fn corrupted_canary_digest_rolls_back_automatically() {
        let gateway = gateway(3);
        let old_model = forest(1);
        let e = gateway.staged_rollout(forest(4), FINGERPRINT).unwrap_err();
        match &e {
            DrcshapError::RolloutAborted { shard, detail } => {
                assert_eq!(*shard, 0, "the canary is shard 0");
                assert!(detail.contains("digest"), "abort reason names the digest: {detail}");
            }
            other => panic!("expected RolloutAborted, got: {other}"),
        }
        // The canary was swapped then rolled back (epoch 3 = old model
        // again); the rest of the fleet never left epoch 1.
        assert_eq!(gateway.shard_epochs(), vec![3, 1, 1]);
        let counts = gateway.metrics().counts;
        assert_eq!(counts["gateway/rollouts"], 1);
        assert_eq!(counts["gateway/rollbacks"], 1);
        // Every shard — canary included — still serves the OLD model's
        // bits: the bad candidate never reached steady-state traffic.
        for i in 0..12 {
            let x = probe(i);
            let response = gateway.score(Request::new(x.clone())).expect("scored");
            assert_eq!(
                response.score.to_bits(),
                old_model.predict_proba(&x).to_bits(),
                "probe {i} must score with the rolled-back model"
            );
        }
    }
}
