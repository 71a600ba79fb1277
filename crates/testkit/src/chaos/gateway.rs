//! Gateway chaos mode: the engine soak's invariants, one layer up.
//!
//! A fleet of [`Gateway`] shards is hammered by concurrent clients while a
//! chaos driver injects the four failure modes the gateway exists to
//! absorb — a shard made slow, a shard killed outright, sustained
//! admission overload (tight per-tenant quotas), and one staged rollout
//! launched mid-load. The invariants mirror [`super::chaos_soak`]:
//!
//! - **No silent drops.** Every `score` call resolves to either a score
//!   or a *typed* error from the expected taxonomy: [`Overloaded`]
//!   (quota or queue doing its job), [`DeadlineExceeded`] (shed before
//!   wasted work), or — rarely, in the shadow of a kill — a retryable
//!   error surfaced after the gateway exhausted its bounded retries.
//!   Anything else fails the soak.
//! - **Epoch consistency across the fleet.** A response tagged epoch `e`
//!   must carry the bit-exact score that epoch's forest assigns its
//!   probe, even while shard 0 is mid-canary and the rest of the fleet
//!   is still on the old model. A torn rollout fails immediately.
//! - **Survivor quality.** After the kill, the surviving shards keep
//!   answering: at least 99% of non-shed requests must succeed, and a
//!   finale burst after the chaos window must be served entirely by
//!   surviving shards.
//!
//! [`Overloaded`]: DrcshapError::Overloaded
//! [`DeadlineExceeded`]: DrcshapError::DeadlineExceeded

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drcshap_core::SavedModel;
use drcshap_forest::RandomForest;
use drcshap_gateway::{Gateway, GatewayConfig, Priority, QuotaConfig, Request};
use drcshap_ml::{DrcshapError, NanPolicy};
use drcshap_serve::ServeConfig;
use drcshap_store::{FsBackend, Registry, StorageBackend};
use rand::Rng;

use crate::scenario::{self, SizeLevel};

/// Knobs for one gateway soak run.
#[derive(Debug, Clone)]
pub struct GatewayChaosConfig {
    /// How long the clients keep up the pressure.
    pub duration: Duration,
    /// Concurrent client threads.
    pub clients: usize,
    /// Shards in the fleet (the acceptance drill uses 4).
    pub shards: usize,
    /// Inject a slow shard at one fifth of the run.
    pub slow_a_shard: bool,
    /// Kill one shard at two fifths of the run.
    pub kill_a_shard: bool,
    /// Launch one staged rollout at the midpoint, under load.
    pub rollout_mid_run: bool,
}

impl Default for GatewayChaosConfig {
    fn default() -> Self {
        Self {
            duration: Duration::from_secs(2),
            clients: 4,
            shards: 4,
            slow_a_shard: true,
            kill_a_shard: true,
            rollout_mid_run: true,
        }
    }
}

/// What a completed gateway soak observed.
#[derive(Debug, Clone, Default)]
pub struct GatewayChaosReport {
    /// Requests resolved with a score.
    pub responses: u64,
    /// Responses validated bitwise against their claimed epoch's forest.
    pub validated: u64,
    /// Typed overload sheds (admission quota or queue pressure — expected).
    pub overloads: u64,
    /// Typed deadline sheds (expected; pre-expired ones are provoked).
    pub deadline_sheds: u64,
    /// Retryable errors surfaced after the gateway's bounded retries
    /// (tolerated only in the shadow of a kill, bounded to < 1%).
    pub transient_errors: u64,
    /// Ring failovers the gateway performed (from its metrics).
    pub failovers: u64,
    /// Hedged requests launched against the slow shard.
    pub hedges: u64,
    /// Retried attempts across the fleet.
    pub retries: u64,
    /// Distinct model epochs observed in responses.
    pub epochs_observed: u64,
    /// The shard the driver slowed, if any.
    pub slowed_shard: Option<usize>,
    /// The shard the driver killed, if any.
    pub killed_shard: Option<usize>,
    /// Whether the mid-load staged rollout completed.
    pub rolled_out: bool,
}

impl std::fmt::Display for GatewayChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} responses ({} validated) across {} epochs; {} overload + {} deadline sheds, \
             {} transient errors; {} failovers, {} hedges, {} retries; slow={:?} killed={:?} \
             rollout={}",
            self.responses,
            self.validated,
            self.epochs_observed,
            self.overloads,
            self.deadline_sheds,
            self.transient_errors,
            self.failovers,
            self.hedges,
            self.retries,
            self.slowed_shard,
            self.killed_shard,
            self.rolled_out
        )
    }
}

/// Validates one gateway response against the forest its epoch tag claims
/// scored it. `Ok(false)` defers an epoch the map has not recorded yet.
fn check_response(
    variants: &[RandomForest],
    epoch_map: &HashMap<u64, usize>,
    probe: &[f32],
    epoch: u64,
    shard: usize,
    score: f64,
) -> Result<bool, String> {
    let Some(&variant) = epoch_map.get(&epoch) else {
        return Ok(false);
    };
    let want = variants[variant].predict_proba_nan_aware(probe);
    if score.to_bits() != want.to_bits() {
        return Err(format!(
            "shard {shard} epoch {epoch} (variant {variant}) served {score} but that epoch's \
             forest scores {want} — torn rollout or cross-epoch batch tearing"
        ));
    }
    Ok(true)
}

struct ClientOutcome {
    responses: u64,
    validated: u64,
    overloads: u64,
    deadline_sheds: u64,
    transient_errors: u64,
    epochs: Vec<u64>,
    deferred: Vec<(Vec<f32>, u64, usize, f64)>,
}

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// How long a client waits after an overload shed before it sends again.
/// It bounds the soak's sheds at `clients / SHED_BACKOFF` per second, well
/// below the traffic the quota admits, so most requests reach a shard.
const SHED_BACKOFF: Duration = Duration::from_millis(10);

fn client_loop(
    id: usize,
    seed: u64,
    deadline: Instant,
    gateway: &Gateway,
    variants: &[RandomForest],
    epoch_map: &Mutex<HashMap<u64, usize>>,
) -> Result<ClientOutcome, String> {
    let mut rng = scenario::rng_for(seed ^ 0x6A7E ^ ((id as u64) << 32));
    let m = gateway.n_features();
    let mut out = ClientOutcome {
        responses: 0,
        validated: 0,
        overloads: 0,
        deadline_sheds: 0,
        transient_errors: 0,
        epochs: Vec::new(),
        deferred: Vec::new(),
    };
    while Instant::now() < deadline {
        let probe = scenario::probes(&mut rng, m, 1, true).pop().expect("one probe");
        let tenant = TENANTS[rng.gen_range(0..TENANTS.len())];
        let priority = match rng.gen_range(0u32..10) {
            0 => Priority::High,
            1 | 2 => Priority::Low,
            _ => Priority::Normal,
        };
        let mut request = Request::new(probe.clone()).tenant(tenant).priority(priority);
        // 5% of requests carry an already-expired deadline: the gateway
        // must shed them in O(1) with the shard-untouched marker.
        let pre_expired = rng.gen_bool(0.05);
        if pre_expired {
            request = request.deadline(Instant::now() - Duration::from_millis(1));
        } else if rng.gen_bool(0.10) {
            // A tight-but-live deadline: may succeed, may shed mid-flight.
            request = request.deadline_in(Duration::from_micros(rng.gen_range(200..=2_000)));
        }
        match gateway.score(request) {
            Ok(response) => {
                if pre_expired {
                    return Err(format!(
                        "client {id}: a request with an expired deadline was scored"
                    ));
                }
                out.responses += 1;
                if !out.epochs.contains(&response.epoch) {
                    out.epochs.push(response.epoch);
                }
                let map = epoch_map.lock().expect("epoch map poisoned");
                match check_response(
                    variants,
                    &map,
                    &probe,
                    response.epoch,
                    response.shard,
                    response.score,
                )? {
                    true => out.validated += 1,
                    false => {
                        out.deferred.push((probe, response.epoch, response.shard, response.score));
                    }
                }
            }
            Err(DrcshapError::Overloaded { .. }) => {
                out.overloads += 1;
                std::thread::sleep(SHED_BACKOFF);
            }
            Err(DrcshapError::DeadlineExceeded { shard_untouched }) => {
                if pre_expired && !shard_untouched {
                    return Err(format!(
                        "client {id}: pre-expired deadline reached a shard — the O(1) \
                         admission shed did not engage"
                    ));
                }
                out.deadline_sheds += 1;
            }
            // In the shadow of a kill the gateway may exhaust its bounded
            // retries and surface the last retryable error; that is loud,
            // typed, and counted against the 99% survivor bound.
            Err(e) if e.is_retryable() => out.transient_errors += 1,
            Err(e) => return Err(format!("client {id}: unexpected error class: {e}")),
        }
    }
    Ok(out)
}

/// Runs the full gateway soak: start a fleet on variant 0 behind tight
/// per-tenant quotas, hammer it from [`GatewayChaosConfig::clients`]
/// threads, and let the chaos driver slow one shard, kill another, and
/// launch a staged rollout mid-load — then verify a finale burst is
/// served entirely by surviving shards before shutdown.
///
/// Returns `Err` with a diagnostic on any invariant violation: an
/// untyped error, a bitwise score mismatch against the claimed epoch's
/// forest, a pre-expired deadline that touched a shard, a transient
/// error rate over 1%, or (for soaks of at least one second with a
/// rollout) fewer than two epochs observed.
pub fn gateway_chaos_soak(
    seed: u64,
    config: &GatewayChaosConfig,
) -> Result<GatewayChaosReport, String> {
    let level = SizeLevel(1);
    // Variant 0 boots the fleet; variant 1 is the mid-load rollout
    // candidate.
    let variants: Vec<RandomForest> =
        (0..2u64).map(|v| scenario::forest(seed ^ v, level)).collect();
    let fingerprint = seed;
    let gateway_config = GatewayConfig {
        shards: config.shards.max(2),
        serve: ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
            queue_capacity: 64,
            workers: 2,
            nan_policy: NanPolicy::NanAware,
            cache_capacity: 64,
            analytics: None,
        },
        // Quotas below what the clients can send make sustained pressure
        // trip the typed admission shed path — the overload burst, by
        // construction — while admitting thousands of requests a second.
        quota: Some(QuotaConfig { burst: 400.0, refill_per_sec: 2000.0 }),
        default_deadline: Some(Duration::from_millis(250)),
        hedge_after: Some(Duration::from_millis(3)),
        ..GatewayConfig::default()
    };
    // The fleet is fed from a real on-disk crash-safe registry: variant 0
    // is published as generation 1 and the gateway boots from
    // `open_latest` (so even epoch 1 scores prove the disk round trip is
    // bit-exact); the mid-load rollout is later *published* by the driver
    // and pulled through `Registry::watch`.
    let registry_dir =
        std::env::temp_dir().join(format!("drcshap-gw-soak-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry_dir);
    let backend = FsBackend::new(&registry_dir).map_err(|e| format!("registry dir: {e}"))?;
    let registry = Registry::open(backend as Arc<dyn StorageBackend>)
        .map_err(|e| format!("registry open: {e}"))?;
    registry
        .publish_model(&SavedModel::Rf(variants[0].clone()), fingerprint)
        .map_err(|e| format!("registry publish (boot): {e}"))?;
    let boot = registry.open_latest().map_err(|e| format!("registry open_latest: {e}"))?;
    let mut watch = registry.watch().map_err(|e| format!("registry watch: {e}"))?;
    let gateway = Gateway::start_saved(gateway_config, boot.model, boot.fingerprint)
        .map_err(|e| format!("gateway start: {e}"))?;
    let shards = gateway.n_shards();
    // Every shard boots at epoch 1 on variant 0; the single clean rollout
    // moves shards to epoch 2 on variant 1. Recording the mapping up
    // front keeps validation lock-free with respect to the rollout.
    let epoch_map = Mutex::new(HashMap::from([(1u64, 0usize), (2u64, 1usize)]));
    let deadline = Instant::now() + config.duration;
    let mut report = GatewayChaosReport::default();
    let mut epochs: Vec<u64> = Vec::new();
    let mut deferred: Vec<(Vec<f32>, u64, usize, f64)> = Vec::new();

    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let watch = &mut watch;
        let driver = scope.spawn(|| -> Result<(Option<usize>, Option<usize>, bool), String> {
            let mut rng = scenario::rng_for(seed ^ 0xD21F);
            let fifth = config.duration / 5;
            let mut slowed = None;
            let mut killed = None;
            let mut rolled_out = false;
            std::thread::sleep(fifth);
            if config.slow_a_shard {
                let s = rng.gen_range(0..shards);
                gateway
                    .set_shard_delay(s, Duration::from_millis(5))
                    .map_err(|e| format!("slow injection: {e}"))?;
                slowed = Some(s);
            }
            std::thread::sleep(fifth);
            if config.kill_a_shard {
                // Kill a different shard than the slowed one so both
                // failure modes stay live for the rest of the run.
                let k = match slowed {
                    Some(s) => (s + 1 + rng.gen_range(0..shards - 1)) % shards,
                    None => rng.gen_range(0..shards),
                };
                gateway.kill_shard(k).map_err(|e| format!("kill injection: {e}"))?;
                killed = Some(k);
            }
            std::thread::sleep(fifth / 2);
            if config.rollout_mid_run {
                // The rollout arrives the way production updates do: the
                // trainer publishes a new generation into the registry,
                // and the gateway pulls it through its watch — same
                // canary digest discipline, now sourced from disk.
                registry
                    .publish_model(&SavedModel::Rf(variants[1].clone()), fingerprint)
                    .map_err(|e| format!("registry publish (rollout): {e}"))?;
                let report = gateway
                    .rollout_from_watch(watch)
                    .map_err(|e| format!("mid-load staged rollout failed: {e}"))?;
                if report.is_none() {
                    return Err("watch did not deliver the published generation".into());
                }
                rolled_out = true;
            }
            // Let the slow shard recover for the tail of the run, unless
            // it was the one killed.
            std::thread::sleep(fifth + fifth / 2);
            if let Some(s) = slowed {
                if Some(s) != killed {
                    gateway
                        .set_shard_delay(s, Duration::ZERO)
                        .map_err(|e| format!("slow recovery: {e}"))?;
                }
            }
            Ok((slowed, killed, rolled_out))
        });
        let clients: Vec<_> = (0..config.clients.max(1))
            .map(|id| {
                let gateway = &gateway;
                let variants = &variants;
                let epoch_map = &epoch_map;
                scope.spawn(move || client_loop(id, seed, deadline, gateway, variants, epoch_map))
            })
            .collect();
        for handle in clients {
            let out = handle.join().map_err(|_| "client thread panicked".to_string())??;
            report.responses += out.responses;
            report.validated += out.validated;
            report.overloads += out.overloads;
            report.deadline_sheds += out.deadline_sheds;
            report.transient_errors += out.transient_errors;
            for e in out.epochs {
                if !epochs.contains(&e) {
                    epochs.push(e);
                }
            }
            deferred.extend(out.deferred);
        }
        let (slowed, killed, rolled_out) =
            driver.join().map_err(|_| "chaos driver panicked".to_string())??;
        report.slowed_shard = slowed;
        report.killed_shard = killed;
        report.rolled_out = rolled_out;
        Ok(())
    });
    outcome?;

    // Finale: with the chaos window over, the surviving shards must still
    // answer — generously deadlined, bit-exact, and never from the
    // killed shard (its engine finished draining when the kill landed).
    let mut rng = scenario::rng_for(seed ^ 0xF1A1E);
    let map = epoch_map.into_inner().expect("epoch map poisoned");
    for i in 0..16 {
        let probe = scenario::probes(&mut rng, gateway.n_features(), 1, true).pop().expect("probe");
        let request = Request::new(probe.clone())
            .tenant("finale")
            .priority(Priority::High)
            .deadline_in(Duration::from_secs(5));
        let response =
            gateway.score(request).map_err(|e| format!("finale probe {i} failed: {e}"))?;
        if Some(response.shard) == report.killed_shard {
            return Err(format!(
                "finale probe {i} was answered by killed shard {}",
                response.shard
            ));
        }
        report.responses += 1;
        if !epochs.contains(&response.epoch) {
            epochs.push(response.epoch);
        }
        deferred.push((probe, response.epoch, response.shard, response.score));
    }
    let metrics = gateway.metrics();
    gateway.shutdown();
    let _ = std::fs::remove_dir_all(&registry_dir);

    // Deferred responses must all validate now that the run is over.
    for (probe, epoch, shard, score) in &deferred {
        if !check_response(&variants, &map, probe, *epoch, *shard, *score)? {
            return Err(format!("shard {shard} response claims unknown epoch {epoch}"));
        }
        report.validated += 1;
    }
    let counts = &metrics.counts;
    report.failovers = counts["gateway/failovers"];
    report.hedges = counts["gateway/hedges"];
    report.retries = counts["gateway/retries"];
    report.epochs_observed = epochs.len() as u64;
    if report.validated != report.responses {
        return Err(format!(
            "{} responses but only {} validated — harness accounting bug",
            report.responses, report.validated
        ));
    }
    if counts["gateway/completed"] != report.responses {
        return Err(format!(
            "gateway counted {} completions but clients saw {} responses — a response was \
             dropped or double-counted",
            counts["gateway/completed"], report.responses
        ));
    }
    // Survivor quality: at least 99% of requests that were not typed
    // sheds must have succeeded.
    let attempts = report.responses + report.transient_errors;
    if report.transient_errors * 100 > attempts {
        return Err(format!(
            "{} transient errors out of {} non-shed requests — surviving shards are below \
             the 99% success bound",
            report.transient_errors, attempts
        ));
    }
    if config.rollout_mid_run
        && config.duration >= Duration::from_secs(1)
        && report.epochs_observed < 2
    {
        return Err(format!(
            "soak of {:?} with a mid-load rollout observed only {} epoch(s) — the rollout \
             never reached the scoring path",
            config.duration, report.epochs_observed
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_gateway_soak_holds_invariants() {
        let config = GatewayChaosConfig {
            duration: Duration::from_millis(700),
            clients: 3,
            shards: 3,
            ..GatewayChaosConfig::default()
        };
        let report = gateway_chaos_soak(11, &config).expect("soak must hold its invariants");
        assert!(report.responses > 0);
        assert_eq!(report.validated, report.responses);
        assert!(report.rolled_out, "mid-load rollout must complete: {report}");
        assert!(report.killed_shard.is_some() && report.slowed_shard.is_some());
        assert_ne!(report.killed_shard, report.slowed_shard);
        assert!(report.deadline_sheds > 0, "pre-expired deadlines must shed: {report}");
    }

    #[test]
    fn quotas_shed_sustained_pressure_without_drops() {
        let config = GatewayChaosConfig {
            duration: Duration::from_millis(900),
            clients: 4,
            shards: 2,
            slow_a_shard: false,
            kill_a_shard: false,
            rollout_mid_run: false,
        };
        let report = gateway_chaos_soak(5, &config).expect("soak must hold its invariants");
        // Sustained pressure from 4 clients against a 400-token burst and
        // 2000/s refill must trip the typed admission shed path.
        assert!(report.overloads > 0, "no quota shed in {report}");
        assert_eq!(report.validated, report.responses);
        assert_eq!(report.transient_errors, 0, "no kills, so no transients: {report}");
    }
}
