//! The serving engine: a bounded request queue with micro-batching, a
//! worker pool draining it through the compiled forest, typed
//! backpressure, hot model swap, and graceful shutdown.
//!
//! # Batching policy
//!
//! Requests accepted by [`ServeEngine::submit`] wait in a bounded queue.
//! A worker flushes a batch when either `max_batch` requests are waiting
//! or the oldest request has waited `max_wait` — the classic
//! latency/throughput trade dial. When the queue is at `queue_capacity`,
//! submission fails fast with [`DrcshapError::Overloaded`] instead of
//! queueing without bound: load shedding at the admission boundary keeps
//! tail latency bounded under overload.
//!
//! # Epochs
//!
//! Each worker loads the current [`crate::swap::ModelEpoch`] once per
//! batch, so a hot swap ([`ServeEngine::swap`]) lands between batches:
//! every response reports the single epoch that scored it, and no request
//! is ever dropped or scored by a mix of models.
//!
//! # Shutdown
//!
//! [`ServeEngine::shutdown`] (also run on drop) stops admissions, wakes
//! every worker, and joins them after they drain the queue — every
//! accepted request still receives its response.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drcshap_analytics::{AnalyticsConfig, AnalyticsSnapshot, Provenance, ShardedAnalytics};
use drcshap_core::SavedModel;
use drcshap_forest::RandomForest;
use drcshap_geom::{BudgetState, StageBudget};
use drcshap_ml::{DrcshapError, InputError, NanPolicy};
use drcshap_shap::{explain_forest, forest_shap_interactions, Explanation, InteractionValues};
use drcshap_telemetry as telemetry;
use drcshap_xsat::{AbductiveEngine, AbductiveExplanation, XsatBudget};

use crate::cache::ExplanationCache;
use crate::metrics::{MetricsRegistry, ServeMetrics};
use crate::swap::{EpochCell, ModelEpoch};

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Flush a batch as soon as this many requests are waiting.
    pub max_batch: usize,
    /// Flush a batch once the oldest waiting request is this old.
    pub max_wait: Duration,
    /// Requests the queue holds before submissions are shed with
    /// [`DrcshapError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// How non-finite feature values are treated at admission
    /// ([`NanPolicy::NanAware`] batches take the NaN-aware scoring path).
    pub nan_policy: NanPolicy,
    /// Explanation-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Streaming explanation analytics. `None` (the default) disables the
    /// sink entirely — the explain path then pays a single branch, no
    /// locks, no allocation.
    pub analytics: Option<AnalyticsConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            max_wait: Duration::from_millis(2),
            queue_capacity: 4096,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8),
            nan_policy: NanPolicy::default(),
            cache_capacity: 1024,
            analytics: None,
        }
    }
}

impl ServeConfig {
    /// Checks the knobs for values that cannot run.
    ///
    /// # Errors
    ///
    /// A usage [`DrcshapError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), DrcshapError> {
        if self.max_batch == 0 {
            return Err(DrcshapError::usage("serve config: max_batch must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(DrcshapError::usage("serve config: queue_capacity must be at least 1"));
        }
        if self.workers == 0 {
            return Err(DrcshapError::usage("serve config: workers must be at least 1"));
        }
        if let Some(analytics) = &self.analytics {
            analytics.validate()?;
        }
        Ok(())
    }
}

/// One scored request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredResponse {
    /// The predicted hotspot probability — bit-identical to the reference
    /// `RandomForest` path for the epoch that scored it.
    pub score: f64,
    /// The model epoch that scored this request.
    pub epoch: u64,
    /// Size of the batch this request was flushed in.
    pub batch_size: usize,
}

/// A pending response handle returned by [`ServeEngine::submit`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<ScoredResponse, DrcshapError>>,
}

impl Ticket {
    /// Blocks until the engine scores the request.
    ///
    /// # Errors
    ///
    /// The scoring error for this request, or a usage error if the engine
    /// terminated without responding (worker panic — not reachable from
    /// any input).
    pub fn wait(self) -> Result<ScoredResponse, DrcshapError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => {
                Err(DrcshapError::usage("serve engine dropped the request (worker terminated)"))
            }
        }
    }

    /// Waits up to `timeout` for the response without consuming the ticket.
    /// `None` means the request is still in flight — poll again, hedge it
    /// to another shard, or keep waiting with [`Ticket::wait`].
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<ScoredResponse, DrcshapError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(DrcshapError::usage(
                "serve engine dropped the request (worker terminated)",
            ))),
        }
    }
}

struct Pending {
    x: Vec<f32>,
    enqueued: Instant,
    budget: StageBudget,
    tx: mpsc::Sender<Result<ScoredResponse, DrcshapError>>,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    config: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signalled on submission and shutdown; workers wait on it.
    flush: Condvar,
    cell: EpochCell,
    cache: ExplanationCache,
    metrics: MetricsRegistry,
    /// Lazily built SAT engine for abductive explanations, tagged with the
    /// epoch it was encoded from; rebuilt after a swap. Held by abductive
    /// callers only — the scoring workers never touch this lock.
    abductive: Mutex<Option<(u64, AbductiveEngine)>>,
    /// Streaming explanation analytics (None when disabled: the explain
    /// path then pays exactly one branch).
    analytics: Option<AnalyticsState>,
}

/// The mounted analytics sink plus the artifact CRC of the serving model
/// (updated on swap; part of every snapshot's provenance).
struct AnalyticsState {
    sharded: ShardedAnalytics,
    artifact_crc: std::sync::atomic::AtomicU32,
}

/// CRC32 of the canonical artifact encoding of `forest` — the same bytes
/// `core::artifact::save_model` would write, so analytics provenance
/// matches the on-disk artifact identity.
fn artifact_crc_of(forest: &RandomForest, fingerprint: u64) -> u32 {
    drcshap_core::encode_model(&SavedModel::Rf(forest.clone()), fingerprint)
        .map(|bytes| drcshap_core::artifact::crc32(&bytes))
        .unwrap_or(0)
}

/// The in-process batched inference engine. Cheap to share: all methods
/// take `&self`, and the engine is `Send + Sync`.
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("config", &self.shared.config)
            .field("epoch", &self.shared.cell.epoch())
            .finish()
    }
}

impl ServeEngine {
    /// Compiles `forest`, installs it as epoch 1 bound to `fingerprint`,
    /// and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// A usage error from [`ServeConfig::validate`], or an I/O error if a
    /// worker thread cannot be spawned.
    pub fn start(
        config: ServeConfig,
        forest: RandomForest,
        fingerprint: u64,
    ) -> Result<Self, DrcshapError> {
        config.validate()?;
        let cache_capacity = config.cache_capacity;
        let analytics = match &config.analytics {
            Some(cfg) => Some(AnalyticsState {
                sharded: ShardedAnalytics::new(cfg.clone(), 1)?,
                artifact_crc: std::sync::atomic::AtomicU32::new(artifact_crc_of(
                    &forest,
                    fingerprint,
                )),
            }),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            flush: Condvar::new(),
            cell: EpochCell::new(forest, fingerprint),
            cache: ExplanationCache::new(cache_capacity),
            metrics: MetricsRegistry::default(),
            abductive: Mutex::new(None),
            analytics,
            config,
        });
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("drcshap-serve-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(|e| DrcshapError::io(format!("spawn serve worker {i}"), e))?;
            workers.push(handle);
        }
        Ok(Self { shared, workers: Mutex::new(workers) })
    }

    /// [`ServeEngine::start`] from a loaded artifact model. Only Random
    /// Forests have a compiled layout; other families are rejected with a
    /// usage error.
    ///
    /// # Errors
    ///
    /// Every [`ServeEngine::start`] error, plus a usage error for a
    /// non-RF model.
    pub fn start_saved(
        config: ServeConfig,
        model: SavedModel,
        fingerprint: u64,
    ) -> Result<Self, DrcshapError> {
        match model {
            SavedModel::Rf(forest) => Self::start(config, forest, fingerprint),
            other => Err(DrcshapError::usage(format!(
                "serve engine requires an RF artifact, got {}",
                other.kind()
            ))),
        }
    }

    /// The feature count of the currently serving model.
    pub fn n_features(&self) -> usize {
        self.shared.cell.load().compiled.n_features()
    }

    /// The currently serving model epoch.
    pub fn model(&self) -> Arc<ModelEpoch> {
        self.shared.cell.load()
    }

    /// Validates `x` under the configured [`NanPolicy`] and enqueues it,
    /// returning a [`Ticket`] without blocking on the score.
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`] / [`InputError::NonFinite`] from
    /// admission validation; [`DrcshapError::Overloaded`] when the queue
    /// is full; [`DrcshapError::ShuttingDown`] once a drain has begun.
    pub fn submit(&self, x: Vec<f32>) -> Result<Ticket, DrcshapError> {
        self.submit_with_budget(x, StageBudget::unlimited())
    }

    /// [`ServeEngine::submit`] with a deadline/cancellation budget attached
    /// to the request. An already-exhausted budget is shed in O(1) here at
    /// admission — no queue slot, no worker wakeup, no scoring work — and a
    /// budget that expires *while queued* is shed by the worker before any
    /// scoring, so a full queue of stale requests costs no forest walks.
    ///
    /// # Errors
    ///
    /// Every [`ServeEngine::submit`] error, plus
    /// [`DrcshapError::DeadlineExceeded`] / [`DrcshapError::Interrupted`]
    /// when the budget is exhausted at admission.
    pub fn submit_with_budget(
        &self,
        x: Vec<f32>,
        budget: StageBudget,
    ) -> Result<Ticket, DrcshapError> {
        match budget.check() {
            BudgetState::Within => {}
            BudgetState::DeadlineExpired => {
                self.shared.metrics.deadline_shed.fetch_add(1, Ordering::Relaxed);
                return Err(DrcshapError::DeadlineExceeded { shard_untouched: true });
            }
            BudgetState::Cancelled => return Err(DrcshapError::Interrupted),
        }
        let x = self.shared.config.nan_policy.admit(x, Some(self.n_features()), true)?.into_owned();
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().expect("queue lock poisoned");
            if q.shutdown {
                // The drain flag is checked under the queue lock, so a
                // submission racing `shutdown` either lands in the queue
                // (and is drained to a response) or gets this typed error —
                // never a silent drop.
                return Err(DrcshapError::ShuttingDown);
            }
            if q.items.len() >= self.shared.config.queue_capacity {
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(DrcshapError::Overloaded {
                    capacity: self.shared.config.queue_capacity,
                });
            }
            q.items.push_back(Pending { x, enqueued: Instant::now(), budget, tx });
            self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
            self.shared.metrics.queue_depth.store(q.items.len() as u64, Ordering::Relaxed);
        }
        self.shared.flush.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits `x` and blocks for the response —
    /// [`ServeEngine::submit`] + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// Every [`ServeEngine::submit`] and [`Ticket::wait`] error.
    pub fn score(&self, x: Vec<f32>) -> Result<ScoredResponse, DrcshapError> {
        self.submit(x)?.wait()
    }

    /// SHAP-explains one sample, consulting the explanation cache first: a
    /// hit returns the shared explanation without walking a single tree.
    /// Non-finite values are rejected under [`NanPolicy::Reject`] and
    /// zero-imputed otherwise (tree SHAP has no NaN default-direction
    /// variant).
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`], or [`InputError::NonFinite`] under
    /// the reject policy.
    pub fn explain(&self, x: &[f32]) -> Result<Arc<Explanation>, DrcshapError> {
        let model = self.shared.cell.load();
        // The explainers have no NaN path: NaN-aware rows are zero-imputed.
        let key =
            self.shared.config.nan_policy.admit(x, Some(model.compiled.n_features()), false)?;
        self.shared.metrics.explains.fetch_add(1, Ordering::Relaxed);
        let explanation = match self.shared.cache.get(&key) {
            Some(hit) => hit,
            None => {
                let fresh = Arc::new(explain_forest(&model.forest, &key));
                self.shared.cache.insert(&key, Arc::clone(&fresh));
                fresh
            }
        };
        // Cache hits fold too: analytics weights features by *traffic*,
        // and a repeated request is real traffic.
        self.fold_analytics(&model, &key, &explanation.contributions);
        Ok(explanation)
    }

    /// Folds one explained request into the analytics sink (single branch
    /// and out when analytics is disabled). When interaction aggregation
    /// is configured, the O(m²) interaction matrix is computed here, on
    /// the explaining caller's thread — never on the scoring workers.
    fn fold_analytics(&self, model: &ModelEpoch, x: &[f32], phi: &[f64]) {
        let Some(state) = &self.shared.analytics else { return };
        let interactions = if state.sharded.config().interactions {
            Some(forest_shap_interactions(&model.forest, x))
        } else {
            None
        };
        // `x` was validated against this model, so the only fold outcome
        // besides success is an epoch race (dropped + counted).
        match state.sharded.fold(model.epoch, x, phi, interactions.as_ref()) {
            Ok(true) => {
                self.shared.metrics.analytics_folds.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) | Err(_) => {
                self.shared.metrics.analytics_stale_folds.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// SHAP interaction values for one sample (the dense symmetric matrix
    /// of Lundberg, Erion & Lee 2018 §4), validated and NaN-handled
    /// exactly like [`ServeEngine::explain`]. Costs `O(features²)` tree
    /// walks — orders of magnitude above a plain explain — and runs on
    /// the caller's thread, so the scoring workers are never involved.
    /// When analytics interaction aggregation is enabled, the matrix is
    /// folded into the sink as well.
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`], or [`InputError::NonFinite`] under
    /// the reject policy.
    pub fn explain_interactions(&self, x: &[f32]) -> Result<InteractionValues, DrcshapError> {
        let _span = telemetry::span("serve/explain_interactions");
        let model = self.shared.cell.load();
        let key =
            self.shared.config.nan_policy.admit(x, Some(model.compiled.n_features()), false)?;
        let iv = forest_shap_interactions(&model.forest, &key);
        if let Some(state) = &self.shared.analytics {
            if state.sharded.config().interactions {
                let phi: Vec<f64> = (0..iv.n_features()).map(|i| iv.row(i).iter().sum()).collect();
                match state.sharded.fold(model.epoch, &key, &phi, Some(&iv)) {
                    Ok(true) => {
                        self.shared.metrics.analytics_folds.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) | Err(_) => {
                        self.shared.metrics.analytics_stale_folds.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(iv)
    }

    /// The analytics provenance of the given model epoch.
    fn provenance_for(&self, state: &AnalyticsState, epoch: u64, fingerprint: u64) -> Provenance {
        Provenance {
            artifact_crc: state.artifact_crc.load(Ordering::Acquire),
            schema_fingerprint: fingerprint,
            model_epoch: epoch,
        }
    }

    /// Snapshots the analytics sink for the currently serving epoch:
    /// per-worker shards merged on read, provenance-stamped, digest
    /// bit-identical for the same folded multiset regardless of worker
    /// or shard counts. `None` when analytics is disabled.
    pub fn analytics_snapshot(&self) -> Option<AnalyticsSnapshot> {
        let state = self.shared.analytics.as_ref()?;
        let model = self.shared.cell.load();
        Some(state.sharded.snapshot(self.provenance_for(state, model.epoch, model.fingerprint)))
    }

    /// Retained old-epoch analytics snapshots (frozen at each hot swap),
    /// oldest first — the drift window. Empty when analytics is disabled
    /// or no swap has happened.
    pub fn analytics_history(&self) -> Vec<AnalyticsSnapshot> {
        self.shared.analytics.as_ref().map(|s| s.sharded.history()).unwrap_or_default()
    }

    /// Computes a SAT-based abductive explanation (subset-minimal
    /// sufficient reason plus contrastive dual) for one sample, within a
    /// per-request `budget`. The underlying CNF encoding is built lazily on
    /// first use and cached per model epoch; a hot swap invalidates it.
    ///
    /// This runs on the *caller's* thread behind its own lock — the
    /// scoring worker pool and the batching queue are never involved, so
    /// an expensive (or timed-out) explanation can never stall a shard.
    /// Non-finite inputs follow the same policy as [`ServeEngine::explain`]
    /// (reject or zero-impute), keeping the SHAP and abductive views of a
    /// request consistent.
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`] / [`InputError::NonFinite`] from
    /// validation; [`DrcshapError::ExplanationTimeout`] when `budget` is
    /// exhausted (callers degrade to SHAP-only — see
    /// `drcshap-gateway`'s `explain_both`); [`DrcshapError::Xsat`] for
    /// encoding invariant violations.
    pub fn explain_abductive(
        &self,
        x: &[f32],
        budget: &XsatBudget,
    ) -> Result<AbductiveExplanation, DrcshapError> {
        let _span = telemetry::span("serve/explain_abductive");
        let model = self.shared.cell.load();
        let key =
            self.shared.config.nan_policy.admit(x, Some(model.compiled.n_features()), false)?;
        self.shared.metrics.abductive.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.shared.abductive.lock().expect("abductive lock poisoned");
        match slot.as_ref() {
            Some((epoch, _)) if *epoch == model.epoch => {}
            _ => *slot = Some((model.epoch, AbductiveEngine::new(&model.forest)?)),
        }
        let (_, engine) = slot.as_mut().expect("engine just ensured");
        let result = engine.explain(&key, budget);
        if matches!(result, Err(DrcshapError::ExplanationTimeout { .. })) {
            self.shared.metrics.abductive_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Hot-swaps the serving model (see [`EpochCell::swap`]) and clears
    /// the explanation cache, which is only valid within one epoch. When
    /// analytics is mounted, the old epoch's aggregates are frozen into a
    /// retained snapshot (stamped with the old provenance) and the sink
    /// restarts empty for the new epoch; an explain racing the swap is
    /// dropped from analytics and counted, never blended across models.
    ///
    /// # Errors
    ///
    /// The [`EpochCell::swap`] schema-validation errors; on error the
    /// serving model, cache, and analytics are untouched.
    pub fn swap(&self, forest: RandomForest, fingerprint: u64) -> Result<u64, DrcshapError> {
        let new_crc = self.shared.analytics.as_ref().map(|_| artifact_crc_of(&forest, fingerprint));
        let old = self.shared.cell.load();
        let epoch = self.shared.cell.swap(forest, fingerprint)?;
        self.shared.cache.clear();
        self.shared.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        if let (Some(state), Some(new_crc)) = (&self.shared.analytics, new_crc) {
            let old_provenance = self.provenance_for(state, old.epoch, old.fingerprint);
            state.sharded.rotate(old_provenance, epoch);
            state.artifact_crc.store(new_crc, Ordering::Release);
        }
        Ok(epoch)
    }

    /// [`ServeEngine::swap`] from a loaded artifact model; non-RF models
    /// are rejected with a usage error.
    ///
    /// # Errors
    ///
    /// Every [`ServeEngine::swap`] error, plus a usage error for a non-RF
    /// model.
    pub fn swap_saved(&self, model: SavedModel, fingerprint: u64) -> Result<u64, DrcshapError> {
        match model {
            SavedModel::Rf(forest) => self.swap(forest, fingerprint),
            other => Err(DrcshapError::usage(format!(
                "serve engine requires an RF artifact, got {}",
                other.kind()
            ))),
        }
    }

    /// Snapshots the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics.snapshot(self.shared.cache.stats(), self.shared.cell.epoch())
    }

    /// Stops admissions, drains every queued request through the workers,
    /// and joins the pool. Idempotent; also run on drop.
    pub fn shutdown(&self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock poisoned");
            q.shutdown = true;
        }
        self.shared.flush.notify_all();
        let mut workers = self.workers.lock().expect("worker registry poisoned");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: wait for a flush condition, drain up to `max_batch`
/// requests, score them against a single model epoch, respond newest
/// first.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if q.shutdown || q.items.len() >= shared.config.max_batch {
                    break;
                }
                match q.items.front() {
                    Some(front) => {
                        let age = front.enqueued.elapsed();
                        if age >= shared.config.max_wait {
                            break;
                        }
                        let (guard, _) = shared
                            .flush
                            .wait_timeout(q, shared.config.max_wait - age)
                            .expect("queue lock poisoned");
                        q = guard;
                    }
                    None => {
                        q = shared.flush.wait(q).expect("queue lock poisoned");
                    }
                }
            }
            if q.items.is_empty() {
                if q.shutdown {
                    return;
                }
                continue;
            }
            let take = q.items.len().min(shared.config.max_batch);
            let batch: Vec<Pending> = q.items.drain(..take).collect();
            shared.metrics.queue_depth.store(q.items.len() as u64, Ordering::Relaxed);
            // More than a batch left (burst): hand the rest to a peer.
            if !q.items.is_empty() {
                shared.flush.notify_one();
            }
            batch
        };

        let model = shared.cell.load();
        let m = model.compiled.n_features();
        let mut flat = Vec::with_capacity(batch.len() * m);
        let mut accepted = Vec::with_capacity(batch.len());
        for pending in batch {
            // Shed-before-work: a request whose budget was exhausted while
            // it sat in the queue gets its typed error now, before a single
            // tree is walked — under overload, stale requests cost nothing.
            match pending.budget.check() {
                BudgetState::Within => {}
                BudgetState::DeadlineExpired => {
                    shared.metrics.deadline_shed.fetch_add(1, Ordering::Relaxed);
                    let _ = pending
                        .tx
                        .send(Err(DrcshapError::DeadlineExceeded { shard_untouched: false }));
                    continue;
                }
                BudgetState::Cancelled => {
                    shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                    let _ = pending.tx.send(Err(DrcshapError::Interrupted));
                    continue;
                }
            }
            // Length is validated at submit and swaps preserve the feature
            // count, so this arm is unreachable; kept so a future invariant
            // break degrades to a typed error instead of a panic.
            if pending.x.len() == m {
                flat.extend_from_slice(&pending.x);
                accepted.push(pending);
            } else {
                let _ = pending.tx.send(Err(InputError::LengthMismatch {
                    expected: m,
                    found: pending.x.len(),
                }
                .into()));
            }
        }
        if accepted.is_empty() {
            continue;
        }
        let scores = {
            let _flush_span =
                telemetry::span_with("serve/flush", || format!("{} samples", accepted.len()));
            model.score_batch(&flat, shared.config.nan_policy == NanPolicy::NanAware)
        };
        let batch_size = accepted.len();
        shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
        shared.metrics.samples.fetch_add(batch_size as u64, Ordering::Relaxed);
        telemetry::counter("serve/batches", 1);
        telemetry::counter("serve/samples", batch_size as u64);
        // Newest first: a client waiting on its oldest ticket wakes once,
        // after every other response of the batch is already sent.
        let mut latency = shared.metrics.latency.lock().expect("latency lock poisoned");
        for (pending, score) in accepted.into_iter().zip(scores).rev() {
            latency.insert(pending.enqueued.elapsed().as_nanos() as f64);
            let _ = pending.tx.send(Ok(ScoredResponse { score, epoch: model.epoch, batch_size }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn forest(seed: u64) -> RandomForest {
        let n = 80;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 10) as f32 / 10.0;
            let b = ((i * 3) % 10) as f32 / 10.0;
            x.extend_from_slice(&[a, b]);
            y.push(a > 0.5);
        }
        let data = Dataset::from_parts(x, y, vec![0; n], 2);
        RandomForestTrainer { n_trees: 9, ..Default::default() }.fit(&data, seed)
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        }
    }

    #[test]
    fn scores_match_the_reference_model() {
        let rf = forest(1);
        let engine = ServeEngine::start(quick_config(), rf.clone(), 7).expect("start");
        for probe in [[0.1f32, 0.9], [0.7, 0.2], [0.55, 0.5]] {
            let response = engine.score(probe.to_vec()).expect("scored");
            assert_eq!(response.score.to_bits(), rf.predict_proba(&probe).to_bits());
            assert_eq!(response.epoch, 1);
            assert!(response.batch_size >= 1);
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.requests_total, 3);
        assert_eq!(metrics.samples_scored, 3);
        assert!(metrics.batches_total >= 1);
    }

    #[test]
    fn abductive_explanations_serve_and_cache_per_epoch() {
        let rf = forest(4);
        let engine = ServeEngine::start(quick_config(), rf.clone(), 7).expect("start");
        let x = [0.8f32, 0.3];
        let ex = engine.explain_abductive(&x, &XsatBudget::default()).expect("explains");
        assert_eq!(ex.predicted_hotspot, drcshap_xsat::forest_vote(&rf, &x));
        assert!(!ex.sufficient.is_empty() || ex.contrastive.is_empty());
        // A second call reuses the cached encoding (same epoch).
        let again = engine.explain_abductive(&x, &XsatBudget::default()).expect("explains");
        assert_eq!(again.sufficient, ex.sufficient);
        let metrics = engine.metrics();
        assert_eq!(metrics.abductive_total, 2);
        assert_eq!(metrics.abductive_timeout_total, 0);
        // A hot swap invalidates the SAT engine; the next call re-encodes
        // and explains the *new* model.
        let rf2 = forest(40);
        engine.swap(rf2.clone(), 7).expect("swap");
        let ex2 = engine.explain_abductive(&x, &XsatBudget::default()).expect("explains");
        assert_eq!(ex2.predicted_hotspot, drcshap_xsat::forest_vote(&rf2, &x));
    }

    #[test]
    fn abductive_timeout_is_typed_and_never_stalls() {
        let engine = ServeEngine::start(quick_config(), forest(5), 7).expect("start");
        let zero = XsatBudget::conflicts(0);
        let e = engine.explain_abductive(&[0.5, 0.5], &zero).unwrap_err();
        assert!(matches!(e, DrcshapError::ExplanationTimeout { .. }), "{e}");
        assert!(!e.is_retryable(), "timeouts must not trigger failover retries");
        // The engine keeps serving: scoring and SHAP still answer, and a
        // roomier budget succeeds on the same (cached) encoding.
        engine.score(vec![0.5, 0.5]).expect("scoring unaffected");
        engine.explain(&[0.5, 0.5]).expect("shap unaffected");
        engine.explain_abductive(&[0.5, 0.5], &XsatBudget::default()).expect("recovers");
        let metrics = engine.metrics();
        assert_eq!(metrics.abductive_timeout_total, 1);
        assert_eq!(metrics.abductive_total, 2);
    }

    #[test]
    fn admission_validates_inputs() {
        let engine = ServeEngine::start(quick_config(), forest(2), 7).expect("start");
        let e = engine.score(vec![0.5]).unwrap_err();
        assert!(
            matches!(e, DrcshapError::Input(InputError::LengthMismatch { expected: 2, found: 1 })),
            "{e}"
        );
        let e = engine.score(vec![0.5, f32::NAN]).unwrap_err();
        assert!(matches!(e, DrcshapError::Input(InputError::NonFinite { index: 1, .. })), "{e}");
    }

    #[test]
    fn explain_entry_points_admit_rows_like_submit() {
        let rf = forest(8);
        let budget = XsatBudget::default();
        let imputed = [0.5f32, 0.0];
        let mut abduction = AbductiveEngine::new(&rf).expect("encodes");
        let want_abductive = abduction.explain(&imputed, &budget).expect("explains");
        for policy in [NanPolicy::Reject, NanPolicy::ImputeZero, NanPolicy::NanAware] {
            let config = ServeConfig { nan_policy: policy, ..quick_config() };
            let engine = ServeEngine::start(config, rf.clone(), 7).expect("start");
            let mut bad_rows = vec![vec![0.5f32]];
            if policy == NanPolicy::Reject {
                bad_rows.push(vec![0.5, f32::NAN]);
            }
            for row in &bad_rows {
                let want = format!("{:?}", engine.submit(row.clone()).unwrap_err());
                let errors = [
                    engine.explain(row).unwrap_err(),
                    engine.explain_interactions(row).unwrap_err(),
                    engine.explain_abductive(row, &budget).unwrap_err(),
                ];
                for e in errors {
                    assert_eq!(format!("{e:?}"), want, "{policy:?} {row:?}");
                }
            }
            if policy == NanPolicy::Reject {
                continue;
            }
            // The explainers have no NaN path: both other policies explain
            // the zero-imputed row.
            let nan_row = [0.5, f32::NAN];
            let shap = engine.explain(&nan_row).expect("explains");
            assert_eq!(shap.contributions, explain_forest(&rf, &imputed).contributions);
            let iv = engine.explain_interactions(&nan_row).expect("explains");
            assert_eq!(iv, forest_shap_interactions(&rf, &imputed), "{policy:?}");
            let abductive = engine.explain_abductive(&nan_row, &budget).expect("explains");
            assert_eq!(abductive.sufficient, want_abductive.sufficient, "{policy:?}");
            assert_eq!(abductive.contrastive, want_abductive.contrastive, "{policy:?}");
        }
    }

    #[test]
    fn nan_aware_engine_uses_the_nan_path() {
        let rf = forest(3);
        let config = ServeConfig { nan_policy: NanPolicy::NanAware, ..quick_config() };
        let engine = ServeEngine::start(config, rf.clone(), 7).expect("start");
        let probe = [f32::NAN, 0.4];
        let response = engine.score(probe.to_vec()).expect("scored");
        assert_eq!(response.score.to_bits(), rf.predict_proba_nan_aware(&probe).to_bits());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = ServeConfig { max_batch: 0, ..Default::default() };
        assert!(ServeEngine::start(bad, forest(4), 7).is_err());
        let bad = ServeConfig { workers: 0, ..Default::default() };
        assert!(ServeEngine::start(bad, forest(4), 7).is_err());
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let engine = ServeEngine::start(quick_config(), forest(5), 7).expect("start");
        engine.shutdown();
        let e = engine.submit(vec![0.5, 0.5]).unwrap_err();
        assert!(matches!(e, DrcshapError::ShuttingDown), "{e}");
        assert!(e.is_retryable(), "a draining replica is a transient condition");
    }

    #[test]
    fn expired_budget_is_shed_at_admission_without_queueing() {
        let engine = ServeEngine::start(quick_config(), forest(6), 7).expect("start");
        let budget = StageBudget::with_deadline(Duration::ZERO);
        let e = engine.submit_with_budget(vec![0.5, 0.5], budget).unwrap_err();
        assert!(matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: true }), "{e}");
        let metrics = engine.metrics();
        assert_eq!(metrics.requests_total, 0, "shed request must never enter the queue");
        assert_eq!(metrics.deadline_shed_total, 1);
    }

    #[test]
    fn cancelled_budget_is_rejected_at_admission() {
        let engine = ServeEngine::start(quick_config(), forest(6), 7).expect("start");
        let token = drcshap_geom::CancelToken::new();
        token.cancel();
        let budget = StageBudget::unlimited().cancelled_by(token);
        let e = engine.submit_with_budget(vec![0.5, 0.5], budget).unwrap_err();
        assert!(matches!(e, DrcshapError::Interrupted), "{e}");
    }

    #[test]
    fn budget_expiring_in_queue_is_shed_by_the_worker_before_work() {
        // One worker, giant batch/wait: requests sit in the queue until
        // shutdown drains them, by which time the budget has expired.
        let config = ServeConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
            queue_capacity: 8,
            workers: 1,
            ..quick_config()
        };
        let engine = ServeEngine::start(config, forest(7), 7).expect("start");
        let budget = StageBudget::with_deadline(Duration::from_millis(20));
        let stale = engine.submit_with_budget(vec![0.5, 0.5], budget).expect("queued");
        let fresh = engine.submit(vec![0.5, 0.5]).expect("queued");
        std::thread::sleep(Duration::from_millis(40));
        engine.shutdown();
        let e = stale.wait().unwrap_err();
        assert!(matches!(e, DrcshapError::DeadlineExceeded { shard_untouched: false }), "{e}");
        fresh.wait().expect("unbudgeted request still scored");
        let metrics = engine.metrics();
        assert_eq!(metrics.deadline_shed_total, 1);
        assert_eq!(metrics.samples_scored, 1);
    }
}
