//! Multi-shard serving gateway: the fault-tolerant front end over a fleet
//! of [`ServeEngine`] shards.
//!
//! The single-engine serving layer (`drcshap-serve`) already gives typed
//! `Overloaded` backpressure, micro-batching, and hot swap — but one
//! engine is one failure domain. This crate owns N engines ("shards")
//! and layers the reliability story on top:
//!
//! - **Routing** ([`HashRing`]): consistent hashing with virtual nodes
//!   maps each request key to an owner shard plus a stable failover order,
//!   so cache locality survives and a dead shard's keys spill onto
//!   deterministic secondaries instead of reshuffling the whole fleet.
//! - **Admission** ([`Priority`], [`QuotaConfig`]): per-tenant token
//!   buckets with priority reserve floors shed abusive bursts *before*
//!   any shard is touched, stacked in front of the engines' own queue
//!   backpressure.
//! - **Deadlines**: a request deadline becomes a
//!   [`StageBudget`] that rides into engine
//!   micro-batching — an already-expired request is shed in O(1) at the
//!   gateway (`DeadlineExceeded { shard_untouched: true }`), and one that
//!   expires while queued is shed by the shard worker before any scoring
//!   work.
//! - **Health & failover**: per-shard latency EWMAs and
//!   consecutive-failure circuit breakers steer routing away from sick
//!   shards; retryable failures ([`DrcshapError::is_retryable`])
//!   are retried on the next shard in ring order with bounded exponential
//!   backoff, and optionally *hedged* — a duplicate sent to a backup when
//!   the primary is slow, first bit-exact answer wins.
//! - **Staged rollout** ([`Gateway::staged_rollout`]): a model update
//!   swaps one canary shard first, replays a deterministic probe set
//!   through the live serving path, and compares a CRC32 digest of the
//!   score bits against the reference model — bit-exact agreement rolls
//!   the fleet, any mismatch rolls the canary back and aborts with
//!   [`DrcshapError::RolloutAborted`].
//!
//! Every response carries the shard and model epoch that produced it, so
//! the testkit's chaos harness can hold the whole fleet to the same
//! bit-exactness oracle as a single engine.

#![warn(missing_docs)]

mod admission;
mod health;
mod metrics;
mod rollout;
mod routing;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drcshap_core::SavedModel;
use drcshap_forest::RandomForest;
use drcshap_geom::StageBudget;
use drcshap_ml::DrcshapError;
use drcshap_serve::{ScoredResponse, ServeConfig, ServeEngine, Ticket};
use drcshap_shap::Explanation;
use drcshap_store::fnv1a64;
use drcshap_telemetry::{self as telemetry, Latency};
use drcshap_xsat::{AbductiveExplanation, XsatBudget};

pub use admission::{Priority, QuotaConfig};
pub use metrics::{GatewayCounters, GatewayMetrics, ShardStatus};
pub use rollout::RolloutReport;
pub use routing::HashRing;

use admission::Admission;
use health::ShardHealth;

/// Polling slice while a request is hedged across two shards.
const HEDGE_POLL: Duration = Duration::from_micros(200);

/// Initial retry backoff; doubled per retry, capped at [`BACKOFF_CAP`],
/// and never slept past the request deadline.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// Ceiling on the per-retry exponential backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// Gateway tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Number of serving shards (each a full [`ServeEngine`]).
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// Per-shard engine configuration.
    pub serve: ServeConfig,
    /// Deadline applied to requests that do not carry their own. One past
    /// the end of the clock's range means no deadline.
    pub default_deadline: Option<Duration>,
    /// Retry attempts after the first (0 disables retries), with an
    /// exponential backoff from 200 µs capped at 50 ms.
    pub max_retries: usize,
    /// Hedge a request to a backup shard when the primary has not
    /// answered within this window (`None` disables hedging).
    pub hedge_after: Option<Duration>,
    /// Per-tenant admission quota (`None` admits everything).
    pub quota: Option<QuotaConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            vnodes: 16,
            serve: ServeConfig::default(),
            default_deadline: None,
            max_retries: 2,
            hedge_after: None,
            quota: None,
        }
    }
}

impl GatewayConfig {
    /// Checks the knobs for values that cannot run.
    ///
    /// # Errors
    ///
    /// A usage [`DrcshapError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), DrcshapError> {
        if self.shards == 0 {
            return Err(DrcshapError::usage("gateway config: shards must be at least 1"));
        }
        if self.vnodes == 0 {
            return Err(DrcshapError::usage("gateway config: vnodes must be at least 1"));
        }
        self.serve.validate()?;
        if let Some(quota) = &self.quota {
            quota.validate()?;
        }
        Ok(())
    }
}

/// Result of [`Gateway::explain_both`]: SHAP attributions always, the
/// abductive explanation when its budget allowed, and the degradation
/// record when it did not.
#[derive(Debug)]
pub struct BothExplanations {
    /// SHAP attributions (cache-shared within the shard's epoch).
    pub shap: Arc<Explanation>,
    /// The abductive explanation, `None` when the budget expired.
    pub abductive: Option<AbductiveExplanation>,
    /// Timeout detail when the abductive side degraded to SHAP-only.
    pub degraded: Option<AbductiveDegradation>,
    /// The shard that served both views.
    pub shard: usize,
}

/// Detail of an abductive budget expiry, mirroring
/// [`DrcshapError::ExplanationTimeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbductiveDegradation {
    /// Solver conflicts spent before giving up.
    pub conflicts: u64,
    /// SAT calls completed before giving up.
    pub sat_calls: u32,
}

/// One gateway request: the feature vector plus routing and shedding
/// context. Built fluently: `Request::new(x).tenant("t").deadline_in(d)`.
#[derive(Debug, Clone)]
pub struct Request {
    x: Vec<f32>,
    tenant: Option<String>,
    key: Option<u64>,
    priority: Priority,
    deadline: Option<Instant>,
}

impl Request {
    /// A request for feature vector `x` with default routing (key derived
    /// from tenant + feature bits), normal priority, and no deadline.
    #[must_use]
    pub fn new(x: Vec<f32>) -> Self {
        Self { x, tenant: None, key: None, priority: Priority::Normal, deadline: None }
    }

    /// Sets the tenant for admission quotas and key derivation.
    #[must_use]
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Pins the routing key (e.g. a cell id), overriding derivation.
    #[must_use]
    pub fn key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Sets the priority class for admission shedding.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `limit` from now. A limit past the end of the
    /// clock's range sets none.
    #[must_use]
    pub fn deadline_in(mut self, limit: Duration) -> Self {
        self.deadline = Instant::now().checked_add(limit);
        self
    }
}

/// One scored gateway response: the engine's answer plus the dispatch
/// provenance the chaos oracle verifies against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayResponse {
    /// The predicted hotspot probability — bit-identical to the reference
    /// forest for the epoch that scored it.
    pub score: f64,
    /// The model epoch (of the answering shard) that scored this request.
    pub epoch: u64,
    /// The shard whose engine produced the answer.
    pub shard: usize,
    /// Size of the engine batch this request was flushed in.
    pub batch_size: usize,
    /// Dispatch attempts it took (1 = first try).
    pub attempts: u32,
    /// Whether a hedge request was issued for this response.
    pub hedged: bool,
}

pub(crate) struct Shard {
    pub(crate) engine: ServeEngine,
    pub(crate) health: ShardHealth,
    /// Injected extra service latency in nanoseconds (chaos/bench: a
    /// "slow shard"). Applied on the response path, so hedging and the
    /// latency EWMA see it as real slowness.
    pub(crate) delay_ns: AtomicU64,
}

/// The multi-shard serving gateway. Cheap to share: all methods take
/// `&self`, and the gateway is `Send + Sync`.
pub struct Gateway {
    pub(crate) config: GatewayConfig,
    pub(crate) shards: Vec<Shard>,
    ring: HashRing,
    admission: Admission,
    pub(crate) counters: GatewayCounters,
    /// End-to-end latency per completed request, in nanoseconds.
    latency: Latency,
    /// Serializes staged rollouts; concurrent scoring is unaffected.
    pub(crate) rollout_lock: Mutex<()>,
    /// Epoch of the gateway's monotonic clock (`now_ns` is relative to it).
    start: Instant,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Gateway {
    /// Starts `config.shards` engines, each serving `forest` compiled as
    /// epoch 1 and bound to `fingerprint`.
    ///
    /// # Errors
    ///
    /// A usage error from [`GatewayConfig::validate`], or any
    /// [`ServeEngine::start`] error.
    pub fn start(
        config: GatewayConfig,
        forest: RandomForest,
        fingerprint: u64,
    ) -> Result<Self, DrcshapError> {
        config.validate()?;
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            shards.push(Shard {
                engine: ServeEngine::start(config.serve.clone(), forest.clone(), fingerprint)?,
                health: ShardHealth::default(),
                delay_ns: AtomicU64::new(0),
            });
        }
        let ring = HashRing::new(config.shards, config.vnodes);
        let admission = Admission::new(config.quota);
        Ok(Self {
            shards,
            ring,
            admission,
            counters: GatewayCounters::default(),
            latency: Latency::default(),
            rollout_lock: Mutex::new(()),
            start: Instant::now(),
            config,
        })
    }

    /// [`Gateway::start`] from a loaded artifact model; non-RF models are
    /// rejected with a usage error.
    ///
    /// # Errors
    ///
    /// Every [`Gateway::start`] error, plus a usage error for a non-RF
    /// model.
    pub fn start_saved(
        config: GatewayConfig,
        model: SavedModel,
        fingerprint: u64,
    ) -> Result<Self, DrcshapError> {
        Self::start(config, model.into_forest()?, fingerprint)
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Feature count of the serving model (identical across shards).
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.shards[0].engine.n_features()
    }

    /// The model epoch each shard is currently serving.
    #[must_use]
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.engine.model().epoch).collect()
    }

    /// Nanoseconds on the gateway's own monotonic clock (0 = start).
    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Scores one request through the fleet: admission, O(1) deadline
    /// pre-check, ring routing, bounded retry with failover and backoff,
    /// and (when configured) hedging.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Overloaded`] from admission quotas, a fully
    /// unavailable fleet, or shard queue backpressure after retries;
    /// [`DrcshapError::DeadlineExceeded`] when the deadline expires
    /// (`shard_untouched: true` iff no shard was ever involved);
    /// [`DrcshapError::ShuttingDown`] after [`Gateway::shutdown`]; plus
    /// the engine's input-validation errors.
    pub fn score(&self, request: Request) -> Result<GatewayResponse, DrcshapError> {
        let _span = telemetry::span("gateway/score");
        self.counters.requests.add(1);
        let t0 = Instant::now();
        let tenant = request.tenant.as_deref().unwrap_or("default");
        if !self.admission.admit(tenant, request.priority, t0) {
            self.counters.shed_quota.add(1);
            return Err(DrcshapError::Overloaded { capacity: self.admission.capacity() });
        }
        let deadline = request
            .deadline
            .or_else(|| self.config.default_deadline.and_then(|d| t0.checked_add(d)));
        // O(1) pre-route shed: an already-expired deadline costs no
        // routing work, no queue slot, and no scoring — the response
        // carries the shard-untouched marker to prove it.
        if deadline.is_some_and(|d| t0 >= d) {
            self.counters.shed_deadline.add(1);
            return Err(DrcshapError::DeadlineExceeded { shard_untouched: true });
        }
        let budget = match deadline {
            Some(d) => StageBudget::unlimited()
                .deadline_in(Some(d.saturating_duration_since(Instant::now()))),
            None => StageBudget::unlimited(),
        };
        let key = request.key.unwrap_or_else(|| derive_key(tenant, &request.x));
        let order = self.ring.route(key);
        let max_attempts = self.config.max_retries.saturating_add(1) as u32;
        let mut attempts = 0u32;
        let mut pos = 0usize;
        let mut backoff = RETRY_BACKOFF;
        let mut last_err: Option<DrcshapError> = None;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.counters.shed_deadline.add(1);
                return Err(DrcshapError::DeadlineExceeded { shard_untouched: attempts == 0 });
            }
            let now_ns = self.now_ns();
            let Some(step) = (0..order.len())
                .find(|&i| self.shards[order[(pos + i) % order.len()]].health.available(now_ns))
            else {
                // Every shard is killed or breaker-open: the fleet as a
                // whole is (transiently) over capacity.
                self.counters.errors.add(1);
                return Err(last_err.unwrap_or(DrcshapError::Overloaded { capacity: order.len() }));
            };
            pos = (pos + step) % order.len();
            let shard = order[pos];
            if shard != order[0] {
                self.counters.failovers.add(1);
            }
            attempts += 1;
            match self.attempt(shard, &order, pos, &request.x, &budget) {
                Ok((scored, winner, hedged)) => {
                    self.counters.completed.add(1);
                    self.latency.lock().insert(t0.elapsed().as_nanos() as f64);
                    return Ok(GatewayResponse {
                        score: scored.score,
                        epoch: scored.epoch,
                        shard: winner,
                        batch_size: scored.batch_size,
                        attempts,
                        hedged,
                    });
                }
                Err(e) => {
                    if !e.is_retryable() || attempts >= max_attempts {
                        if matches!(e, DrcshapError::DeadlineExceeded { .. }) {
                            self.counters.shed_deadline.add(1);
                        } else {
                            self.counters.errors.add(1);
                        }
                        return Err(e);
                    }
                    last_err = Some(e);
                    self.counters.retries.add(1);
                    // Fail over: resume the ring walk at the next shard.
                    pos = (pos + 1) % order.len();
                    let mut pause = backoff;
                    if let Some(d) = deadline {
                        // Never sleep past the deadline.
                        pause = pause.min(d.saturating_duration_since(Instant::now()));
                    }
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
    }

    /// One dispatch attempt against `primary` (position `pos` in the
    /// ring `order`), hedging to the next available shard when the
    /// primary is slow. Returns the scored response, the shard that
    /// answered, and whether a hedge was issued.
    fn attempt(
        &self,
        primary: usize,
        order: &[usize],
        pos: usize,
        x: &[f32],
        budget: &StageBudget,
    ) -> Result<(ScoredResponse, usize, bool), DrcshapError> {
        let started = Instant::now();
        let ticket =
            match self.shards[primary].engine.submit_with_budget(x.to_vec(), budget.clone()) {
                Ok(ticket) => ticket,
                Err(e) => {
                    self.note_shard_error(primary, &e);
                    return Err(e);
                }
            };
        let visible_at = started + self.shard_delay(primary);
        let result = match self.config.hedge_after {
            None => {
                sleep_until(visible_at);
                ticket.wait().map(|scored| (scored, primary, false))
            }
            Some(hedge_after) => {
                self.wait_hedged(primary, order, pos, x, budget, ticket, hedge_after, visible_at)
            }
        };
        match &result {
            Ok((_, winner, _)) => self.shards[*winner].health.observe_success(started.elapsed()),
            Err(e) => self.note_shard_error(primary, e),
        }
        result
    }

    /// Waits on the primary's ticket for `hedge_after`; past that, issues
    /// a duplicate to the next available shard and returns whichever
    /// answers first (both scores are bit-identical by the engine's
    /// epoch guarantee, so "first wins" is safe). A failed primary falls
    /// back to the hedge and vice versa.
    #[allow(clippy::too_many_arguments)]
    fn wait_hedged(
        &self,
        primary: usize,
        order: &[usize],
        pos: usize,
        x: &[f32],
        budget: &StageBudget,
        ticket: Ticket,
        hedge_after: Duration,
        visible_at: Instant,
    ) -> Result<(ScoredResponse, usize, bool), DrcshapError> {
        // Phase 1: give the primary its hedge window.
        let primary_ready_in = visible_at.saturating_duration_since(Instant::now());
        if primary_ready_in < hedge_after {
            sleep_until(visible_at);
            if let Some(result) = ticket.wait_for(hedge_after - primary_ready_in) {
                return result.map(|scored| (scored, primary, false));
            }
        } else {
            std::thread::sleep(hedge_after);
        }
        // Phase 2: the primary is slow — pick a backup along the ring.
        let now_ns = self.now_ns();
        let backup = (1..order.len())
            .map(|i| order[(pos + i) % order.len()])
            .find(|&s| s != primary && self.shards[s].health.available(now_ns));
        let Some(backup) = backup else {
            sleep_until(visible_at);
            return ticket.wait().map(|scored| (scored, primary, false));
        };
        let hedge_ticket =
            match self.shards[backup].engine.submit_with_budget(x.to_vec(), budget.clone()) {
                Ok(ticket) => ticket,
                Err(e) => {
                    // The backup refused the hedge; stay on the primary.
                    self.note_shard_error(backup, &e);
                    sleep_until(visible_at);
                    return ticket.wait().map(|scored| (scored, primary, false));
                }
            };
        self.counters.hedges.add(1);
        let backup_started = Instant::now();
        let backup_visible = backup_started + self.shard_delay(backup);
        // Phase 3: race the two tickets; first answer wins.
        loop {
            let now = Instant::now();
            if now < visible_at && now < backup_visible {
                sleep_until(visible_at.min(backup_visible));
                continue;
            }
            if now >= visible_at {
                if let Some(result) = ticket.wait_for(HEDGE_POLL) {
                    match result {
                        Ok(scored) => return Ok((scored, primary, true)),
                        Err(e) => {
                            // Primary failed mid-hedge: the backup is the
                            // request's last chance.
                            self.note_shard_error(primary, &e);
                            sleep_until(backup_visible);
                            return hedge_ticket.wait().map(|scored| {
                                self.counters.hedge_wins.add(1);
                                (scored, backup, true)
                            });
                        }
                    }
                }
            }
            if Instant::now() >= backup_visible {
                if let Some(result) = hedge_ticket.wait_for(HEDGE_POLL) {
                    match result {
                        Ok(scored) => {
                            self.counters.hedge_wins.add(1);
                            return Ok((scored, backup, true));
                        }
                        Err(e) => {
                            self.note_shard_error(backup, &e);
                            sleep_until(visible_at);
                            return ticket.wait().map(|scored| (scored, primary, true));
                        }
                    }
                }
            }
        }
    }

    /// Folds a dispatch error into `shard`'s health. Only transient
    /// (retryable) failures feed the breaker — input errors and expired
    /// client deadlines say nothing about the shard itself.
    fn note_shard_error(&self, shard: usize, e: &DrcshapError) {
        if e.is_retryable() && self.shards[shard].health.observe_failure(self.now_ns()) {
            self.counters.breaker_opens.add(1);
        }
    }

    fn shard_delay(&self, shard: usize) -> Duration {
        Duration::from_nanos(self.shards[shard].delay_ns.load(Ordering::Relaxed))
    }

    /// The first available shard of `request`'s ring order: the one that
    /// explains it (shards share the model, but each warms its own cache).
    fn explain_shard(&self, request: &Request) -> Result<usize, DrcshapError> {
        let tenant = request.tenant.as_deref().unwrap_or("default");
        let key = request.key.unwrap_or_else(|| derive_key(tenant, &request.x));
        let order = self.ring.route(key);
        let now_ns = self.now_ns();
        order
            .iter()
            .copied()
            .find(|&s| self.shards[s].health.available(now_ns))
            .ok_or(DrcshapError::Overloaded { capacity: order.len() })
    }

    /// Serves *both* explanation views of one request: SHAP attributions
    /// plus a SAT-based abductive explanation, computed on the same shard
    /// from one loaded epoch ([`ServeEngine::explain_both`]), so the two
    /// views describe the same model even across a hot swap.
    ///
    /// The abductive side runs under `budget`, tightened to the request's
    /// deadline or, when it carries none, to
    /// [`GatewayConfig::default_deadline`]. If the budget runs out the
    /// response **degrades to SHAP-only** instead of failing: the request
    /// is never dropped, the shard is never stalled, and the typed
    /// [`DrcshapError::ExplanationTimeout`] detail is carried in
    /// [`BothExplanations::degraded`]. Timeouts are deliberately not
    /// retryable, so no failover cascade amplifies a hard instance across
    /// the fleet.
    ///
    /// # Errors
    ///
    /// [`DrcshapError::Overloaded`] when no shard is available, the
    /// engine's input-validation errors, and [`DrcshapError::Xsat`] for
    /// encoding invariant violations. A timeout is *not* an error here.
    pub fn explain_both(
        &self,
        request: &Request,
        budget: &XsatBudget,
    ) -> Result<BothExplanations, DrcshapError> {
        let _span = telemetry::span("gateway/explain_both");
        let shard = self.explain_shard(request)?;
        let mut capped = *budget;
        let deadline = request
            .deadline
            .or_else(|| self.config.default_deadline.and_then(|d| Instant::now().checked_add(d)));
        if let Some(deadline) = deadline {
            capped.deadline = Some(capped.deadline.map_or(deadline, |d| d.min(deadline)));
        }
        let (shap, abductive) = self.shards[shard].engine.explain_both(&request.x, &capped)?;
        match abductive {
            Ok(abductive) => {
                Ok(BothExplanations { shap, abductive: Some(abductive), degraded: None, shard })
            }
            // Counted once, by the shard engine's `serve/abductive_timeouts`.
            Err(DrcshapError::ExplanationTimeout { conflicts, sat_calls }) => {
                Ok(BothExplanations {
                    shap,
                    abductive: None,
                    degraded: Some(AbductiveDegradation { conflicts, sat_calls }),
                    shard,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Kills a shard: removes it from routing permanently and drains its
    /// engine (queued requests still get their typed responses — a kill
    /// never silently drops work). Chaos and failover drills use this.
    ///
    /// # Errors
    ///
    /// A usage error for an out-of-range shard index.
    pub fn kill_shard(&self, shard: usize) -> Result<(), DrcshapError> {
        let s = self
            .shards
            .get(shard)
            .ok_or_else(|| DrcshapError::usage(format!("gateway has no shard {shard}")))?;
        s.health.kill();
        s.engine.shutdown();
        self.counters.shards_killed.add(1);
        Ok(())
    }

    /// Injects `delay` of extra service latency into a shard (chaos and
    /// bench: a "slow shard"). Zero removes the injection.
    ///
    /// # Errors
    ///
    /// A usage error for an out-of-range shard index.
    pub fn set_shard_delay(&self, shard: usize, delay: Duration) -> Result<(), DrcshapError> {
        let s = self
            .shards
            .get(shard)
            .ok_or_else(|| DrcshapError::usage(format!("gateway has no shard {shard}")))?;
        let ns = delay.as_nanos().min(u128::from(u64::MAX)) as u64;
        s.delay_ns.store(ns, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshots fleet and per-shard metrics.
    #[must_use]
    pub fn metrics(&self) -> GatewayMetrics {
        let now_ns = self.now_ns();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStatus {
                shard: i,
                available: s.health.available(now_ns),
                killed: s.health.is_killed(),
                breaker_open: s.health.breaker_open(now_ns),
                consecutive_failures: s.health.consecutive_failures(),
                ewma_latency_us: s.health.ewma_latency_us(),
                engine: s.engine.metrics(),
            })
            .collect();
        GatewayMetrics { counts: self.counters.counts(), latency: self.latency.quantiles(), shards }
    }

    /// Drains every shard engine. Idempotent; also run on drop. Requests
    /// accepted before the drain still receive their responses;
    /// submissions after it get [`DrcshapError::ShuttingDown`].
    pub fn shutdown(&self) {
        for shard in &self.shards {
            shard.engine.shutdown();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Derives a routing key from the tenant name and the feature bits, so
/// identical requests from one tenant keep landing on (and warming) the
/// same shard.
fn derive_key(tenant: &str, x: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(tenant.len() + x.len() * 4);
    bytes.extend_from_slice(tenant.as_bytes());
    for v in x {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Sleeps until `at` (no-op when `at` has passed).
fn sleep_until(at: Instant) {
    let remaining = at.saturating_duration_since(Instant::now());
    if !remaining.is_zero() {
        std::thread::sleep(remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    #[test]
    fn config_validates_its_knobs() {
        assert!(GatewayConfig { shards: 0, ..Default::default() }.validate().is_err());
        assert!(GatewayConfig { vnodes: 0, ..Default::default() }.validate().is_err());
        let bad_quota = GatewayConfig {
            quota: Some(QuotaConfig { burst: 0.0, refill_per_sec: 1.0 }),
            ..Default::default()
        };
        assert!(bad_quota.validate().is_err());
        assert!(GatewayConfig::default().validate().is_ok());
    }

    /// A one-shard fleet over a 4-tree forest on two features.
    fn small_gateway(default_deadline: Option<Duration>) -> Gateway {
        let n = 40;
        let x: Vec<f32> = (0..2 * n).map(|i| (i % 10) as f32 / 10.0).collect();
        let y: Vec<bool> = (0..n).map(|i| x[2 * i] > 0.5).collect();
        let data = Dataset::from_parts(x, y, vec![0; n], 2);
        let forest = RandomForestTrainer { n_trees: 4, ..Default::default() }.fit(&data, 1);
        let config = GatewayConfig {
            shards: 1,
            serve: ServeConfig { workers: 1, ..Default::default() },
            default_deadline,
            ..Default::default()
        };
        Gateway::start(config, forest, 7).expect("start")
    }

    #[test]
    fn a_request_deadline_past_the_clock_range_means_none() {
        let gateway = small_gateway(None);
        let request = Request::new(vec![0.4, 0.6]).deadline_in(Duration::MAX);
        assert!(request.deadline.is_none());
        assert_eq!(gateway.score(request).expect("scored").attempts, 1);
    }

    #[test]
    fn a_default_deadline_past_the_clock_range_means_none() {
        let gateway = small_gateway(Some(Duration::MAX));
        assert_eq!(gateway.score(Request::new(vec![0.4, 0.6])).expect("scored").attempts, 1);
        assert_eq!(gateway.metrics().counts["gateway/shed_deadline"], 0);
    }

    #[test]
    fn derived_keys_separate_tenants_and_inputs() {
        let x = vec![0.1f32, 0.2];
        assert_ne!(derive_key("a", &x), derive_key("b", &x));
        assert_ne!(derive_key("a", &x), derive_key("a", &[0.1, 0.3]));
        assert_eq!(derive_key("a", &x), derive_key("a", &x), "keys are deterministic");
    }
}
