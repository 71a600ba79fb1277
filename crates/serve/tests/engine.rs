//! Engine-level integration tests: backpressure at queue capacity,
//! graceful shutdown draining every accepted request, a blocked caller
//! flushing its batch, every interleaving of budgets and client waits
//! answered exactly once, hot model swap under concurrent load (every
//! response scored by exactly one model epoch, no request dropped or
//! mixed), and the explanation cache short-circuiting repeat lookups.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_geom::{CancelToken, StageBudget};
use drcshap_ml::{Dataset, DrcshapError, NanPolicy, SchemaError, Trainer};
use drcshap_serve::{ServeConfig, ServeEngine};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N_FEATURES: usize = 3;

/// A deterministic forest per seed; different seeds produce forests with
/// different scores on the same probes.
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

/// An unpruned forest on noisy labels: deep trees, so scoring a batch
/// takes the worker a while.
fn deep_forest(n_trees: usize) -> RandomForest {
    let n = 1000;
    let mut x = Vec::with_capacity(n * N_FEATURES);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..N_FEATURES {
            x.push((((i * 131 + j * 17) % 997) as f32) / 997.0);
        }
        // A label hash the features only partly explain keeps splitting.
        y.push((i * 2_654_435_761) % 7 < 3 || x[i * N_FEATURES] > 0.7);
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, 11)
}

/// A config whose worker pool cannot flush on its own: one worker, a batch
/// size and wait the test never reaches — queue behavior is then fully
/// deterministic.
fn frozen_config(queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_secs(3600),
        queue_capacity,
        workers: 1,
        nan_policy: NanPolicy::Reject,
        cache_capacity: 16,
        analytics: None,
    }
}

#[test]
fn overloaded_fires_exactly_at_queue_capacity_and_shutdown_drains() {
    let rf = forest(1);
    let engine = ServeEngine::start(frozen_config(4), rf.clone(), 7).expect("start");
    let probe = vec![0.6f32, 0.3, 0.9];

    // Fill the queue to capacity; nothing flushes (frozen config).
    let tickets: Vec<_> =
        (0..4).map(|_| engine.submit(probe.clone()).expect("within capacity")).collect();
    // The fifth request is shed with the typed backpressure error.
    let e = engine.submit(probe.clone()).unwrap_err();
    assert!(matches!(e, DrcshapError::Overloaded { capacity: 4 }), "{e}");
    let metrics = engine.metrics();
    assert_eq!(metrics.counts["serve/rejected"], 1);
    assert_eq!(metrics.counts["serve/requests"], 4);
    assert_eq!(metrics.queue_depth, 4);

    // Shutdown must drain: every accepted request still gets its score.
    engine.shutdown();
    let expected = rf.predict_proba(&probe);
    for ticket in tickets {
        let response = ticket.wait().expect("drained on shutdown");
        assert_eq!(response.score.to_bits(), expected.to_bits());
        assert_eq!(response.epoch, 1);
    }
    assert_eq!(engine.metrics().counts["serve/samples"], 4);
}

/// A batch's answers are published together: a client waiting on ticket 0
/// wakes once and finds every later ticket answered, instead of waking and
/// blocking again per answer. Answers published one at a time would fail
/// this on one CPU when the woken client preempts the worker, which a
/// batch long enough to use up the worker's time slice makes likely; the
/// test runs several batches so it does not rely on one.
#[test]
fn waiting_on_the_oldest_ticket_finds_the_whole_batch_answered() {
    const N: usize = 256;
    const ROUNDS: usize = 4;
    let rf = deep_forest(96);
    let config = ServeConfig {
        max_batch: N,
        max_wait: Duration::from_secs(600),
        queue_capacity: N,
        ..frozen_config(N)
    };
    let engine = ServeEngine::start(config, rf.clone(), 7).expect("start");
    let probes: Vec<Vec<f32>> = (0..N)
        .map(|i| (0..N_FEATURES).map(|j| (((i * 7 + j * 13) % 31) as f32) / 31.0).collect())
        .collect();
    let expected: Vec<u64> = probes.iter().map(|p| rf.predict_proba(p).to_bits()).collect();
    for round in 0..ROUNDS {
        // The N-th submission fills the batch; nothing flushes before it.
        let mut tickets: Vec<_> =
            probes.iter().map(|p| engine.submit(p.clone()).expect("within capacity")).collect();
        let rest = tickets.split_off(1);
        let first = tickets.pop().expect("ticket 0").wait().expect("scored");
        assert_eq!(first.batch_size, N);
        for (i, ticket) in rest.iter().enumerate() {
            let response = ticket
                .wait_for(Duration::ZERO)
                .unwrap_or_else(|| panic!("round {round}: ticket {} pending after ticket 0", i + 1))
                .expect("scored");
            assert_eq!(response.score.to_bits(), expected[i + 1]);
            assert_eq!(response.batch_size, N);
        }
    }
    assert_eq!(engine.metrics().counts["serve/batches"], ROUNDS as u64);
}

/// `n` distinct probe rows.
fn probes(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| (0..N_FEATURES).map(|j| (((i * 13 + j * 29) % 23) as f32) / 23.0).collect())
        .collect()
}

/// A caller blocked on a ticket flushes its batch at once, where the
/// frozen config's timer would hold the batch for an hour; a zero-timeout
/// poll does not.
#[test]
fn a_blocked_caller_flushes_a_partial_batch() {
    let rf = forest(1);
    let engine = ServeEngine::start(frozen_config(8), rf.clone(), 7).expect("start");
    let probes = probes(3);
    let tickets: Vec<_> =
        probes.iter().map(|p| engine.submit(p.clone()).expect("within capacity")).collect();
    assert!(tickets[0].wait_for(Duration::ZERO).is_none(), "a poll must not flush");
    assert_eq!(engine.metrics().queue_depth, 3);
    let first = tickets[0]
        .wait_for(Duration::from_secs(10))
        .expect("the blocked caller flushes its batch")
        .expect("scored");
    assert_eq!(first.batch_size, 3);
    for (ticket, probe) in tickets.iter().zip(&probes) {
        let response =
            ticket.wait_for(Duration::ZERO).expect("answered with ticket 0").expect("scored");
        assert_eq!(response.score.to_bits(), rf.predict_proba(probe).to_bits());
        assert_eq!(response.batch_size, 3);
    }
    let metrics = engine.metrics();
    assert_eq!((metrics.counts["serve/batches"], metrics.queue_depth), (1, 0));
}

/// How the client treats one ticket in the interleaving property.
const WAIT: u8 = 0;
const POLL_THEN_WAIT: u8 = 1;
const WAIT_FOR: u8 = 2;
const DROP: u8 = 3;

/// The longest any wait in the interleaving property may block.
const WAIT_CAP: Duration = Duration::from_secs(10);

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any pool size, batch size and timer; budgets that stay within,
    /// expire while queued, or are cancelled; tickets waited on in any
    /// order, polled first, or dropped. Every waited ticket answers within
    /// 10 s with `predict_proba`'s bits or its budget's typed error, and
    /// the metrics count each accepted request once as scored, shed or
    /// cancelled.
    #[test]
    fn every_accepted_request_is_answered_once_in_any_interleaving(
        workers in 1usize..=3,
        max_batch in 1usize..=8,
        timer in any::<bool>(),
        requests in prop::collection::vec((0u8..3, 0u8..4, 0usize..8), 1..40),
        order_seed in any::<u64>(),
    ) {
        let rf = forest(3);
        let probes = probes(8);
        let config = ServeConfig {
            max_batch,
            max_wait: if timer { Duration::from_secs(3600) } else { Duration::ZERO },
            workers,
            ..frozen_config(64)
        };
        let engine = ServeEngine::start(config, rf.clone(), 7).expect("start");
        let cancel = CancelToken::new();
        let mut tickets = Vec::new();
        let mut shed_at_admission = 0;
        for (i, &(budget, _, probe)) in requests.iter().enumerate() {
            let budget = match budget {
                0 => StageBudget::unlimited(),
                1 => StageBudget::with_deadline(Duration::from_micros(300)),
                _ => StageBudget::unlimited().cancelled_by(cancel.clone()),
            };
            match engine.submit_with_budget(probes[probe].clone(), budget) {
                Ok(ticket) => tickets.push((i, ticket)),
                Err(DrcshapError::DeadlineExceeded { shard_untouched: true }) => {
                    shed_at_admission += 1;
                }
                Err(e) => prop_assert!(false, "request {i} refused: {e}"),
            }
        }
        let accepted = tickets.len() as u64;
        // Expire the short deadlines and fire the token while requests may
        // still be queued.
        std::thread::sleep(Duration::from_millis(1));
        cancel.cancel();
        tickets.shuffle(&mut ChaCha8Rng::seed_from_u64(order_seed));
        for (i, ticket) in tickets {
            let (budget, client, probe) = requests[i];
            let started = Instant::now();
            let answer = match client {
                WAIT => Some(ticket.wait()),
                POLL_THEN_WAIT => ticket.wait_for(Duration::ZERO).or_else(|| ticket.wait_for(WAIT_CAP)),
                WAIT_FOR => ticket.wait_for(WAIT_CAP),
                DROP => continue,
                _ => unreachable!("client actions are drawn from 0..4"),
            };
            prop_assert!(started.elapsed() <= WAIT_CAP, "request {i} waited {:?}", started.elapsed());
            let Some(answer) = answer else {
                return Err(TestCaseError::fail(format!("request {i} unanswered after {WAIT_CAP:?}")));
            };
            match (budget, answer) {
                (_, Ok(response)) => {
                    prop_assert_eq!(response.score.to_bits(), rf.predict_proba(&probes[probe]).to_bits());
                    prop_assert!((1..=max_batch).contains(&response.batch_size));
                }
                (1, Err(DrcshapError::DeadlineExceeded { shard_untouched: false })) => {}
                (2, Err(DrcshapError::Interrupted)) => {}
                (_, Err(e)) => prop_assert!(false, "request {i} with budget {budget}: {e}"),
            }
        }
        engine.shutdown();
        let m = engine.metrics();
        let count = |name: &str| m.counts[name];
        prop_assert_eq!(count("serve/requests"), accepted);
        prop_assert_eq!(
            count("serve/samples") + (count("serve/deadline_shed") - shed_at_admission)
                + count("serve/cancelled"),
            accepted
        );
        prop_assert_eq!((m.queue_depth, count("serve/rejected")), (0, 0));
    }
}

#[test]
fn swap_validation_rejects_wrong_identity_through_the_engine() {
    let engine = ServeEngine::start(frozen_config(8), forest(1), 7).expect("start");
    let e = engine.swap(forest(2), 8).unwrap_err();
    assert!(matches!(e, DrcshapError::Schema(SchemaError::FingerprintMismatch { .. })), "{e}");
    // Failed swaps leave the serving epoch untouched.
    assert_eq!(engine.metrics().model_epoch, 1);
    assert_eq!(engine.metrics().counts["serve/swaps"], 0);
    let epoch = engine.swap(forest(2), 7).expect("valid swap");
    assert_eq!(epoch, 2);
    assert_eq!(engine.metrics().counts["serve/swaps"], 1);
}

#[test]
fn hot_swap_under_load_never_drops_or_mixes_requests() {
    let model_a = forest(1);
    let model_b = forest(4);
    let probes: Vec<Vec<f32>> = (0..8)
        .map(|i| (0..N_FEATURES).map(|j| (((i * 13 + j * 29) % 23) as f32) / 23.0).collect())
        .collect();
    // Per-probe reference scores for both models; the two must differ on at
    // least one probe or the test cannot detect mixing.
    let ref_a: Vec<u64> = probes.iter().map(|p| model_a.predict_proba(p).to_bits()).collect();
    let ref_b: Vec<u64> = probes.iter().map(|p| model_b.predict_proba(p).to_bits()).collect();
    assert!(ref_a.iter().zip(&ref_b).any(|(a, b)| a != b), "models must disagree somewhere");

    let config = ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(200),
        queue_capacity: 4096,
        workers: 2,
        nan_policy: NanPolicy::Reject,
        cache_capacity: 0,
        analytics: None,
    };
    let engine = Arc::new(ServeEngine::start(config, model_a.clone(), 7).expect("start"));

    // Swapper: alternate A/B while producers hammer the queue. Odd epochs
    // serve model A (epoch 1 is the initial A), even epochs model B.
    let swapper = {
        let engine = Arc::clone(&engine);
        let (a, b) = (model_a.clone(), model_b.clone());
        std::thread::spawn(move || {
            for round in 0..30 {
                let next = if round % 2 == 0 { b.clone() } else { a.clone() };
                engine.swap(next, 7).expect("swap");
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    let producers: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut responses = Vec::new();
                for i in 0..250 {
                    let p = (t * 31 + i * 7) % probes.len();
                    let ticket = engine.submit(probes[p].clone()).expect("capacity is ample");
                    responses.push((p, ticket.wait().expect("scored")));
                }
                responses
            })
        })
        .collect();

    let mut total = 0usize;
    let mut epochs_seen = std::collections::HashSet::new();
    for producer in producers {
        for (p, response) in producer.join().expect("producer thread") {
            total += 1;
            epochs_seen.insert(response.epoch);
            // The response's epoch determines exactly one model; the score
            // must be that model's, bit for bit — a mixed batch or a torn
            // swap would break this.
            let expected = if response.epoch % 2 == 1 { ref_a[p] } else { ref_b[p] };
            assert_eq!(
                response.score.to_bits(),
                expected,
                "probe {p} scored by epoch {} returned the wrong model's score",
                response.epoch
            );
        }
    }
    swapper.join().expect("swapper thread");
    // Nothing dropped: all 4 * 250 requests answered.
    assert_eq!(total, 1000);
    assert!(!epochs_seen.is_empty());
    let counts = engine.metrics().counts;
    assert_eq!(counts["serve/samples"], 1000);
    assert_eq!(counts["serve/rejected"], 0);
    assert_eq!(counts["serve/swaps"], 30);
}

/// Regression test for the shutdown race: a request submitted concurrently
/// with a drain must either be accepted (and then drained to a real score)
/// or refused with the typed `ShuttingDown` error — never silently dropped,
/// and never a panic or an untyped failure. Runs several rounds so the
/// submit/shutdown interleaving lands on both sides of the drain flag.
#[test]
fn submit_racing_shutdown_is_answered_or_typed_never_dropped() {
    for round in 0..8u64 {
        let rf = forest(round);
        let expected = rf.predict_proba(&[0.6, 0.3, 0.9]).to_bits();
        let config = ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            queue_capacity: 1024,
            workers: 2,
            nan_policy: NanPolicy::Reject,
            cache_capacity: 0,
            analytics: None,
        };
        let engine = Arc::new(ServeEngine::start(config, rf, 7).expect("start"));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut accepted = 0u64;
                    let mut refused = 0u64;
                    for _ in 0..200 {
                        match engine.submit(vec![0.6, 0.3, 0.9]) {
                            Ok(ticket) => {
                                // Accepted concurrently with the drain: the
                                // response must still arrive, bit-exact.
                                let response = ticket.wait().expect("accepted => drained");
                                assert_eq!(response.score.to_bits(), expected);
                                accepted += 1;
                            }
                            Err(DrcshapError::ShuttingDown) => {
                                refused += 1;
                                // Sticky: once draining, every later submit
                                // from this thread is refused the same way.
                                let e = engine.submit(vec![0.6, 0.3, 0.9]).unwrap_err();
                                assert!(matches!(e, DrcshapError::ShuttingDown), "{e}");
                                break;
                            }
                            Err(e) => panic!("unexpected submit error during drain race: {e}"),
                        }
                    }
                    (accepted, refused)
                })
            })
            .collect();
        barrier.wait();
        // Let the submitters land a few requests, then drain mid-stream.
        std::thread::sleep(Duration::from_micros(300));
        engine.shutdown();
        let mut total_accepted = 0;
        for handle in submitters {
            let (accepted, _) = handle.join().expect("submitter thread");
            total_accepted += accepted;
        }
        // Every accepted request was scored — the engine's own ledger must
        // agree with the per-thread counts (nothing vanished in the queue).
        assert_eq!(engine.metrics().counts["serve/samples"], total_accepted);
    }
}

#[test]
fn explanation_cache_short_circuits_repeat_lookups() {
    let rf = forest(2);
    let engine = ServeEngine::start(frozen_config(8), rf, 7).expect("start");
    let probe = [0.7f32, 0.1, 0.4];
    let first = engine.explain(&probe).expect("explain");
    assert!(first.local_accuracy_gap() < 1e-9);
    let second = engine.explain(&probe).expect("explain");
    // Same Arc: the hit path returned the cached explanation without
    // walking a single tree.
    assert!(Arc::ptr_eq(&first, &second));
    let counts = engine.metrics().counts;
    assert_eq!(counts["serve/explains"], 2);
    assert_eq!(counts["serve/cache_hits"], 1);
    assert_eq!(counts["serve/cache_misses"], 1);

    // The next epoch starts with its own empty cache: same probe, fresh
    // explanation for the new model, and the counters keep counting.
    let rf2 = forest(5);
    engine.swap(rf2.clone(), 7).expect("swap");
    assert_eq!(engine.metrics().cache_len, 0);
    let third = engine.explain(&probe).expect("explain after swap");
    assert!(!Arc::ptr_eq(&second, &third), "stale explanation served after swap");
    assert!(third.local_accuracy_gap() < 1e-9);
    assert_eq!(third.contributions, drcshap_shap::explain_forest(&rf2, &probe).contributions);
    let fourth = engine.explain(&probe).expect("explain after swap");
    assert!(Arc::ptr_eq(&third, &fourth));
    let metrics = engine.metrics();
    let (hits, misses) = (metrics.counts["serve/cache_hits"], metrics.counts["serve/cache_misses"]);
    assert_eq!((hits, misses, metrics.cache_len), (2, 2, 1));
}
