//! Chaos/soak harness for the [`ServeEngine`]: concurrent clients,
//! randomized hot swaps, deliberate overload bursts, and a shutdown-drain
//! finale — with every response validated bitwise against the forest of
//! the epoch it claims to come from.
//!
//! The two load-bearing invariants:
//!
//! - **No lost responses.** Every accepted ticket resolves. A submission
//!   may be shed with the typed [`DrcshapError::Overloaded`] error (that
//!   is the queue doing its job, and the harness provokes it on purpose),
//!   but once `submit` returns a ticket, `wait` must produce a score —
//!   including tickets still in flight when `shutdown` begins draining.
//! - **Epoch consistency.** A response tagged epoch `e` must carry the
//!   bit-exact score the epoch-`e` forest assigns its probe. A worker
//!   that tears a batch across a hot swap (scoring half a batch with the
//!   old model after the epoch tag advanced) fails this immediately.
//!   Explanations are held to the same bar: every client round also
//!   explains a small fixed probe pool (so the explanation cache hits),
//!   and each φ must bit-equal the explanation of some epoch that served
//!   during the call. An explanation computed on one epoch that lands in
//!   the next epoch's cache fails this on its next hit.
//!
//! The harness is seeded like every other scenario: the forest variants,
//! probe streams, burst sizes, and swap cadence all derive from one `u64`,
//! so a failure report's seed regenerates the same pressure pattern
//! (thread interleaving itself is the one thing a seed cannot pin down —
//! the invariants above hold under *every* interleaving, which is the
//! point of soaking).

pub mod gateway;

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use drcshap_forest::RandomForest;
use drcshap_ml::{DrcshapError, NanPolicy};
use drcshap_serve::{ScoredResponse, ServeConfig, ServeEngine};
use drcshap_shap::explain_forest;
use rand::Rng;

use crate::scenario::{self, SizeLevel};

/// Knobs for one soak run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// How long the clients and the swapper keep up the pressure.
    pub duration: Duration,
    /// Concurrent client threads submitting probe bursts.
    pub clients: usize,
    /// Distinct forest variants the swapper rotates between.
    pub variants: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self { duration: Duration::from_secs(2), clients: 3, variants: 4 }
    }
}

/// What a completed soak observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Tickets accepted and resolved with a score.
    pub responses: u64,
    /// Responses validated bitwise against their claimed epoch's forest.
    pub validated: u64,
    /// Explanations validated bitwise against an epoch live during the
    /// call.
    pub explanations: u64,
    /// Submissions shed with the typed overload error (expected).
    pub overloads: u64,
    /// Successful hot swaps performed.
    pub swaps: u64,
    /// Distinct model epochs observed in responses.
    pub epochs_observed: u64,
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} responses ({} validated) and {} explanations validated across {} epochs, {} \
             swaps, {} overload sheds",
            self.responses,
            self.validated,
            self.explanations,
            self.epochs_observed,
            self.swaps,
            self.overloads
        )
    }
}

/// Validates one response against the forest its epoch tag claims scored
/// it. `Ok(false)` means the epoch is not in the map yet (the client won
/// the race against the swapper's bookkeeping) — the caller defers it.
fn check_response(
    variants: &[RandomForest],
    epoch_map: &HashMap<u64, usize>,
    probe: &[f32],
    response: &ScoredResponse,
) -> Result<bool, String> {
    let Some(&variant) = epoch_map.get(&response.epoch) else {
        return Ok(false);
    };
    let want = variants[variant].predict_proba_nan_aware(probe);
    if response.score.to_bits() != want.to_bits() {
        return Err(format!(
            "epoch {} (variant {variant}) served {} but that epoch's forest scores {} — \
             cross-epoch batch tearing",
            response.epoch, response.score, want
        ));
    }
    Ok(true)
}

/// Probes every client round explains.
const EXPLAIN_POOL: usize = 4;

/// One pooled probe and its φ under each forest variant.
struct PoolProbe {
    x: Vec<f32>,
    phi: Vec<Vec<f64>>,
}

/// Explains `probe` and validates its φ against the variants of the
/// epochs that served from just before the call to just after it.
fn check_explanation(
    engine: &ServeEngine,
    epoch_map: &Mutex<HashMap<u64, usize>>,
    probe: &PoolProbe,
) -> Result<(), String> {
    let first = engine.model().epoch;
    let explanation = engine.explain(&probe.x).map_err(|e| format!("explain failed: {e}"))?;
    let last = engine.model().epoch;
    // The swapper records an epoch before releasing the map, so every
    // epoch up to `last` is in it once the lock is ours.
    let map = epoch_map.lock().expect("epoch map poisoned");
    let got = &explanation.contributions;
    for epoch in first..=last {
        let variant =
            *map.get(&epoch).ok_or_else(|| format!("epoch {epoch} was never recorded"))?;
        let want = &probe.phi[variant];
        if want.len() == got.len() && want.iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Ok(());
        }
    }
    Err(format!(
        "explain over epochs {first}..={last} returned phi of no live epoch: {:?}",
        explanation.contributions
    ))
}

struct ClientOutcome {
    responses: u64,
    validated: u64,
    explanations: u64,
    overloads: u64,
    epochs: Vec<u64>,
    deferred: Vec<(Vec<f32>, ScoredResponse)>,
}

fn client_loop(
    id: usize,
    seed: u64,
    deadline: Instant,
    engine: &ServeEngine,
    variants: &[RandomForest],
    pool: &[PoolProbe],
    epoch_map: &Mutex<HashMap<u64, usize>>,
) -> Result<ClientOutcome, String> {
    let mut rng = scenario::rng_for(seed ^ 0xC11E ^ ((id as u64) << 32));
    let m = engine.n_features();
    let mut out = ClientOutcome {
        responses: 0,
        validated: 0,
        explanations: 0,
        overloads: 0,
        epochs: Vec::new(),
        deferred: Vec::new(),
    };
    while Instant::now() < deadline {
        // Mostly small bursts; occasionally a burst bigger than the queue
        // to force the typed overload path.
        let burst =
            if rng.gen_bool(0.15) { rng.gen_range(96..=160) } else { rng.gen_range(1usize..=24) };
        let mut tickets = Vec::with_capacity(burst);
        for _ in 0..burst {
            let probe = scenario::probes(&mut rng, m, 1, true).pop().expect("one probe");
            match engine.submit(probe.clone()) {
                Ok(ticket) => tickets.push((probe, ticket)),
                Err(DrcshapError::Overloaded { .. }) => out.overloads += 1,
                Err(e) => return Err(format!("client {id}: unexpected submit error: {e}")),
            }
        }
        for (probe, ticket) in tickets {
            let response =
                ticket.wait().map_err(|e| format!("client {id}: lost a response: {e}"))?;
            out.responses += 1;
            if !out.epochs.contains(&response.epoch) {
                out.epochs.push(response.epoch);
            }
            let map = epoch_map.lock().expect("epoch map poisoned");
            match check_response(variants, &map, &probe, &response)? {
                true => out.validated += 1,
                false => out.deferred.push((probe, response)),
            }
        }
        for probe in pool {
            check_explanation(engine, epoch_map, probe).map_err(|e| format!("client {id}: {e}"))?;
            out.explanations += 1;
        }
    }
    Ok(out)
}

/// Runs the full soak: start an engine on variant 0, hammer it from
/// [`ChaosConfig::clients`] threads while a swapper rotates variants at a
/// seeded jittered cadence, then drain through `shutdown` with tickets
/// still in flight.
///
/// Returns `Err` with a diagnostic on any invariant violation: a lost
/// response, a non-overload submit failure, a bitwise score mismatch
/// against the claimed epoch's forest, an explanation of no epoch live
/// during its call, or (for soaks of at least one second) fewer than two
/// epochs observed in responses.
pub fn chaos_soak(seed: u64, config: &ChaosConfig) -> Result<ChaosReport, String> {
    let level = SizeLevel(1);
    let variants: Vec<RandomForest> =
        (0..config.variants.max(2) as u64).map(|v| scenario::forest(seed ^ v, level)).collect();
    let pool: Vec<PoolProbe> = scenario::probes(
        &mut scenario::rng_for(seed ^ 0xE9A1),
        level.n_features(),
        EXPLAIN_POOL,
        false,
    )
    .into_iter()
    .map(|x| {
        let phi = variants.iter().map(|f| explain_forest(f, &x).contributions).collect();
        PoolProbe { x, phi }
    })
    .collect();
    let fingerprint = seed;
    let serve_config = ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(200),
        queue_capacity: 64,
        workers: 2,
        nan_policy: NanPolicy::NanAware,
        cache_capacity: 64,
        analytics: None,
    };
    let engine = ServeEngine::start(serve_config, variants[0].clone(), fingerprint)
        .map_err(|e| format!("engine start: {e}"))?;
    let epoch_map = Mutex::new(HashMap::from([(1u64, 0usize)]));
    let deadline = Instant::now() + config.duration;
    let mut report = ChaosReport::default();
    let mut epochs: Vec<u64> = Vec::new();
    let mut deferred: Vec<(Vec<f32>, ScoredResponse)> = Vec::new();

    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let swapper = scope.spawn(|| {
            let mut rng = scenario::rng_for(seed ^ 0x54A9);
            let mut swaps = 0u64;
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(rng.gen_range(1..=6)));
                let variant = rng.gen_range(0..variants.len());
                // Hold the map lock across the swap so an epoch number is
                // recorded before any client can look it up — and so the
                // mapping can never disagree with swap ordering.
                let mut map = epoch_map.lock().expect("epoch map poisoned");
                match engine.swap(variants[variant].clone(), fingerprint) {
                    Ok(epoch) => {
                        map.insert(epoch, variant);
                        swaps += 1;
                    }
                    Err(e) => return Err(format!("swap rejected: {e}")),
                }
            }
            Ok(swaps)
        });
        let clients: Vec<_> = (0..config.clients.max(1))
            .map(|id| {
                let (engine, variants, pool, epoch_map) = (&engine, &variants, &pool, &epoch_map);
                scope.spawn(move || {
                    client_loop(id, seed, deadline, engine, variants, pool, epoch_map)
                })
            })
            .collect();
        for handle in clients {
            let out = handle.join().map_err(|_| "client thread panicked".to_string())??;
            report.responses += out.responses;
            report.validated += out.validated;
            report.explanations += out.explanations;
            report.overloads += out.overloads;
            for e in out.epochs {
                if !epochs.contains(&e) {
                    epochs.push(e);
                }
            }
            deferred.extend(out.deferred);
        }
        report.swaps = swapper.join().map_err(|_| "swapper thread panicked".to_string())??;
        Ok(())
    });
    outcome?;

    // Shutdown-drain finale: accept a last burst, then shut down with the
    // tickets still in flight. Every one of them must still resolve.
    let mut rng = scenario::rng_for(seed ^ 0xD9A1);
    let mut last_tickets = Vec::new();
    for _ in 0..16 {
        let probe = scenario::probes(&mut rng, engine.n_features(), 1, true).pop().expect("probe");
        match engine.submit(probe.clone()) {
            Ok(ticket) => last_tickets.push((probe, ticket)),
            Err(DrcshapError::Overloaded { .. }) => report.overloads += 1,
            Err(e) => return Err(format!("drain burst submit error: {e}")),
        }
    }
    engine.shutdown();
    let map = epoch_map.into_inner().expect("epoch map poisoned");
    for (probe, ticket) in last_tickets {
        let response =
            ticket.wait().map_err(|e| format!("response dropped during shutdown drain: {e}"))?;
        report.responses += 1;
        if !epochs.contains(&response.epoch) {
            epochs.push(response.epoch);
        }
        deferred.push((probe, response));
    }
    // Every epoch is in the map now; deferred responses must all validate.
    for (probe, response) in &deferred {
        if !check_response(&variants, &map, probe, response)? {
            return Err(format!("response claims unknown epoch {}", response.epoch));
        }
        report.validated += 1;
    }
    report.epochs_observed = epochs.len() as u64;
    if config.duration >= Duration::from_secs(1) && report.epochs_observed < 2 {
        return Err(format!(
            "soak of {:?} observed only {} epoch(s) across {} swaps — swaps are not reaching \
             the scoring path",
            config.duration, report.epochs_observed, report.swaps
        ));
    }
    if report.validated != report.responses {
        return Err(format!(
            "{} responses but only {} validated — harness accounting bug",
            report.responses, report.validated
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_holds_invariants() {
        let config = ChaosConfig { duration: Duration::from_millis(400), clients: 2, variants: 3 };
        let report = chaos_soak(11, &config).expect("soak must hold its invariants");
        assert!(report.responses > 0);
        assert_eq!(report.validated, report.responses);
        assert!(report.explanations > 0, "no explanation validated in {report}");
    }

    #[test]
    fn overload_bursts_are_shed_not_dropped() {
        let config = ChaosConfig { duration: Duration::from_millis(600), clients: 3, variants: 2 };
        let report = chaos_soak(5, &config).expect("soak must hold its invariants");
        // The 15% oversized bursts against a 64-deep queue must trip the
        // typed overload path at least once in 600ms of pressure.
        assert!(report.overloads > 0, "no overload shed in {report}");
    }
}
