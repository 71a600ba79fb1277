//! The serving engine: a bounded queue of micro-batches formed at
//! submission, a worker pool draining it through the compiled forest,
//! typed backpressure, hot model swap, and graceful shutdown.
//!
//! # Batching policy
//!
//! [`ServeEngine::submit`] appends each accepted request to the queue's
//! back batch and opens a new batch once the back one holds `max_batch`
//! requests, so only the back batch can be partial. A worker flushes the
//! front batch when it is full, when its oldest request has waited
//! `max_wait`, on shutdown, or as soon as a caller blocks on one of its
//! tickets: `max_wait` only holds back requests nobody is waiting on yet,
//! such as a client still filling its ticket window. When the queue holds
//! `queue_capacity` requests, submission fails fast with
//! [`DrcshapError::Overloaded`] instead of queueing without bound: load
//! shedding at the admission boundary keeps tail latency bounded under
//! overload.
//!
//! A submission wakes a worker only when a flush decision can change: the
//! queue goes from empty to non-empty, or a batch fills. A blocked caller
//! wakes one only when a worker sleeps on a partial batch's `max_wait`
//! timer; otherwise the next worker to look at the queue sees the batch
//! is waited on.
//!
//! # Answers
//!
//! Every ticket of a batch shares the batch's one answer slot. The worker
//! publishes all of the batch's answers at once and wakes the slot's
//! waiters once, so a client waiting on its oldest ticket finds every
//! later ticket of the batch answered. A batch dropped unanswered (a
//! worker panicked mid-flush) answers its tickets with a usage error.
//!
//! # Epochs
//!
//! Each worker loads the current [`crate::swap::ModelEpoch`] once per
//! batch, so a hot swap ([`ServeEngine::swap`]) lands between batches:
//! every response reports the single epoch that scored it, and no request
//! is ever dropped or scored by a mix of models. Every explain path works
//! from the one epoch it loaded, through that epoch's cache, SAT engine
//! and analytics sink, so a late answer lands in the epoch it was computed
//! for and never in its successor.
//!
//! # Shutdown
//!
//! [`ServeEngine::shutdown`] (also run on drop) stops admissions, wakes
//! every worker, and joins them after they drain the queue — every
//! accepted request still receives its response.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drcshap_analytics::{AnalyticsConfig, AnalyticsSnapshot};
use drcshap_core::SavedModel;
use drcshap_forest::RandomForest;
use drcshap_geom::{BudgetState, StageBudget};
use drcshap_ml::{DrcshapError, InputError, NanPolicy};
use drcshap_shap::{explain_forest, forest_shap_interactions, Explanation, InteractionValues};
use drcshap_telemetry::{self as telemetry, Latency};
use drcshap_xsat::{AbductiveEngine, AbductiveExplanation, XsatBudget};

use crate::metrics::{ServeCounters, ServeMetrics};
use crate::swap::{EpochCell, ModelEpoch};

/// Engine tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Flush a batch as soon as this many requests are waiting.
    pub max_batch: usize,
    /// Flush a batch once its oldest request is this old. A caller that
    /// blocks on a ticket flushes its batch at once, so this only holds
    /// back requests nobody is waiting on yet.
    pub max_wait: Duration,
    /// Requests the queue holds before submissions are shed with
    /// [`DrcshapError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// How non-finite feature values are treated at admission
    /// ([`NanPolicy::NanAware`] batches take the NaN-aware scoring path).
    pub nan_policy: NanPolicy,
    /// Explanation-cache capacity of each model epoch (0 disables
    /// caching).
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

/// A pending response handle returned by [`ServeEngine::submit`]: its
/// batch's answer slot and its index in the batch.
pub struct Ticket {
    slot: Arc<Slot>,
    index: usize,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("index", &self.index)
            .field("answered", &self.slot.answers.get().is_some())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the engine scores the request, flushing its batch if
    /// the batch is still queued.
    ///
    /// # Errors
    ///
    /// The scoring error for this request, or a usage error if the engine
    /// terminated without responding (worker panic — not reachable from
    /// any input).
    pub fn wait(self) -> Result<ScoredResponse, DrcshapError> {
        self.slot.wait(self.index, None).expect("a wait without a timeout returns an answer")
    }

    /// Waits up to `timeout` for the response without consuming the ticket.
    /// `None` means the request is still in flight — poll again, hedge it
    /// to another shard, or keep waiting with [`Ticket::wait`]. A nonzero
    /// `timeout` flushes a still-queued batch like [`Ticket::wait`]; a
    /// zero one only polls.
    pub fn wait_for(&self, timeout: Duration) -> Option<Result<ScoredResponse, DrcshapError>> {
        self.slot.wait(self.index, Some(timeout))
    }
}

/// One accepted request, waiting in its batch.
struct Request {
    x: Vec<f32>,
    enqueued: Instant,
    budget: StageBudget,
}

/// Requests formed into one batch at submission, in ticket order, and the
/// slot their answers are published to. Dropping a batch before its
/// answers are published (a worker panicked mid-flush) answers every
/// ticket with the worker-terminated error, so no caller stays blocked.
struct Batch {
    requests: Vec<Request>,
    slot: Arc<Slot>,
}

impl Drop for Batch {
    fn drop(&mut self) {
        self.slot.publish(Answers::Terminated);
    }
}

/// [`Slot::stage`]: the batch is queued and nobody waits on it.
const QUEUED: u8 = 0;
/// [`Slot::stage`]: the batch is queued and a worker sleeps on its
/// `max_wait` timer.
const TIMED: u8 = 1;
/// [`Slot::stage`]: the batch is queued and a caller blocks on it.
const WAITED: u8 = 2;
/// [`Slot::stage`]: a worker has taken the batch.
const TAKEN: u8 = 3;

/// The one answer slot every ticket of a batch shares.
struct Slot {
    /// Published once, by the worker that scored the batch.
    answers: OnceLock<Answers>,
    /// [`QUEUED`], [`TIMED`], [`WAITED`] or [`TAKEN`]. Relaxed
    /// throughout: the stage publishes no other data, a worker rereads it
    /// under the queue lock, and that lock orders a timed sleeper's wait
    /// before the caller's wake-up.
    stage: AtomicU8,
    /// Callers blocked on `answered`.
    waiters: Mutex<usize>,
    answered: Condvar,
    /// The engine whose queue holds the batch, for a blocked caller's
    /// flush. Weak, so a queued batch does not keep its engine alive.
    engine: Weak<Shared>,
}

impl Slot {
    fn new(engine: Weak<Shared>) -> Self {
        Self {
            answers: OnceLock::new(),
            stage: AtomicU8::new(QUEUED),
            waiters: Mutex::new(0),
            answered: Condvar::new(),
            engine,
        }
    }

    /// The answer at `index`, waiting for it up to `timeout` (`None`:
    /// without limit). A zero timeout only polls.
    fn wait(
        &self,
        index: usize,
        timeout: Option<Duration>,
    ) -> Option<Result<ScoredResponse, DrcshapError>> {
        if let Some(answers) = self.answers.get() {
            return Some(answers.get(index));
        }
        if timeout == Some(Duration::ZERO) {
            return None;
        }
        // A timeout past the clock's range waits without limit.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        self.flush_if_queued();
        let mut waiters = self.waiters.lock().expect("slot lock poisoned");
        *waiters += 1;
        let answer = loop {
            if let Some(answers) = self.answers.get() {
                break Some(answers.get(index));
            }
            match deadline {
                None => waiters = self.answered.wait(waiters).expect("slot lock poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break None;
                    }
                    waiters = self
                        .answered
                        .wait_timeout(waiters, deadline - now)
                        .expect("slot lock poisoned")
                        .0;
                }
            }
        };
        *waiters -= 1;
        answer
    }

    /// Marks a still-queued batch as waited on, so the next worker to look
    /// at the queue flushes it, and wakes the worker sleeping on its
    /// `max_wait` timer, if any.
    fn flush_if_queued(&self) {
        let marked = self.stage.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |stage| {
            matches!(stage, QUEUED | TIMED).then_some(WAITED)
        });
        if marked != Ok(TIMED) {
            return;
        }
        let Some(shared) = self.engine.upgrade() else { return };
        // The sleeper marked the batch under the queue lock and holds the
        // lock until its wait begins, so taking the lock here orders this
        // wake-up after that wait began.
        drop(shared.queue.lock().expect("queue lock poisoned"));
        shared.flush.notify_one();
    }

    /// Publishes `answers` unless the slot already holds some, and wakes
    /// every blocked caller.
    fn publish(&self, answers: Answers) {
        if self.answers.set(answers).is_err() {
            return;
        }
        // A caller counts itself under this lock before it looks for the
        // answers, so one that missed them is counted by now. Every update
        // leaves the count valid, and `Batch::drop` calls this, so a
        // poisoned lock is read through rather than panicked on.
        let waiters = *self.waiters.lock().unwrap_or_else(PoisonError::into_inner);
        if waiters > 0 {
            self.answered.notify_all();
        }
    }
}

/// A batch's published outcome.
enum Answers {
    /// The worker scored the batch against `epoch`.
    Published {
        epoch: u64,
        /// Rows scored (shed rows excluded).
        batch_size: usize,
        /// The epoch's feature count, for a wrong-length answer.
        n_features: usize,
        /// One answer per request, in ticket order.
        rows: Vec<Answer>,
    },
    /// The batch was dropped unanswered.
    Terminated,
}

/// One request's outcome within [`Answers::Published`].
#[derive(Clone, Copy)]
enum Answer {
    Scored(f64),
    DeadlineShed,
    Cancelled,
    WrongLength(usize),
}

impl Answers {
    fn get(&self, index: usize) -> Result<ScoredResponse, DrcshapError> {
        let Answers::Published { epoch, batch_size, n_features, rows } = self else {
            return Err(DrcshapError::usage(
                "serve engine dropped the request (worker terminated)",
            ));
        };
        match rows[index] {
            Answer::Scored(score) => {
                Ok(ScoredResponse { score, epoch: *epoch, batch_size: *batch_size })
            }
            Answer::DeadlineShed => Err(DrcshapError::DeadlineExceeded { shard_untouched: false }),
            Answer::Cancelled => Err(DrcshapError::Interrupted),
            Answer::WrongLength(found) => {
                Err(InputError::LengthMismatch { expected: *n_features, found }.into())
            }
        }
    }
}

#[derive(Default)]
struct QueueState {
    /// Oldest first; every batch but the back one is full.
    batches: VecDeque<Batch>,
    /// Requests across `batches`.
    len: usize,
    shutdown: bool,
}

struct Shared {
    config: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signalled when a flush decision can change; workers wait on it.
    flush: Condvar,
    cell: EpochCell,
    counters: ServeCounters,
    /// Enqueue-to-response latency per scored request, in nanoseconds.
    latency: Latency,
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
            .field("epoch", &self.shared.cell.load().epoch)
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
        let cell =
            EpochCell::new(forest, fingerprint, config.cache_capacity, config.analytics.clone());
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            flush: Condvar::new(),
            cell,
            counters: ServeCounters::default(),
            latency: Latency::default(),
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
        Self::start(config, model.into_forest()?, fingerprint)
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
                self.shared.counters.deadline_shed.add(1);
                return Err(DrcshapError::DeadlineExceeded { shard_untouched: true });
            }
            BudgetState::Cancelled => return Err(DrcshapError::Interrupted),
        }
        let x = self.shared.config.nan_policy.admit(x, Some(self.n_features()), true)?.into_owned();
        let shared = &*self.shared;
        let max_batch = shared.config.max_batch;
        let (ticket, wake) = {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            if q.shutdown {
                // The drain flag is checked under the queue lock, so a
                // submission racing `shutdown` either lands in the queue
                // (and is drained to a response) or gets this typed error —
                // never a silent drop.
                return Err(DrcshapError::ShuttingDown);
            }
            if q.len >= shared.config.queue_capacity {
                shared.counters.rejected.add(1);
                return Err(DrcshapError::Overloaded { capacity: shared.config.queue_capacity });
            }
            let was_empty = q.batches.is_empty();
            if q.batches.back().is_none_or(|back| back.requests.len() == max_batch) {
                let slot = Arc::new(Slot::new(Arc::downgrade(&self.shared)));
                q.batches.push_back(Batch { requests: Vec::new(), slot });
            }
            let back = q.batches.back_mut().expect("a back batch was just ensured");
            back.requests.push(Request { x, enqueued: Instant::now(), budget });
            let ticket = Ticket { slot: Arc::clone(&back.slot), index: back.requests.len() - 1 };
            let filled = back.requests.len() == max_batch;
            q.len += 1;
            shared.counters.requests.add(1);
            (ticket, was_empty || filled)
        };
        // Any other submission changes no worker's flush decision: the
        // queue already had a front batch, and no batch filled.
        if wake {
            shared.flush.notify_one();
        }
        Ok(ticket)
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

    /// Admits `x` for the explainers, which have no NaN path: NaN-aware
    /// rows are zero-imputed like [`NanPolicy::ImputeZero`] rows.
    fn admit<'x>(&self, model: &ModelEpoch, x: &'x [f32]) -> Result<Cow<'x, [f32]>, DrcshapError> {
        self.shared.config.nan_policy.admit(x, Some(model.compiled.n_features()), false)
    }

    /// SHAP-explains one sample, consulting the serving epoch's
    /// explanation cache first: a hit returns the shared explanation
    /// without walking a single tree. Non-finite values are rejected under
    /// [`NanPolicy::Reject`] and zero-imputed otherwise (tree SHAP has no
    /// NaN default-direction variant).
    ///
    /// # Errors
    ///
    /// [`InputError::LengthMismatch`], or [`InputError::NonFinite`] under
    /// the reject policy.
    pub fn explain(&self, x: &[f32]) -> Result<Arc<Explanation>, DrcshapError> {
        let model = self.shared.cell.load();
        let key = self.admit(&model, x)?;
        Ok(self.shap_on(&model, &key))
    }

    /// The SHAP explanation of an admitted row on `model`, through its
    /// cache, folded into its analytics sink.
    fn shap_on(&self, model: &ModelEpoch, key: &[f32]) -> Arc<Explanation> {
        let counters = &self.shared.counters;
        counters.explains.add(1);
        let explanation = match model.cache.get(key) {
            Some(hit) => {
                counters.cache_hits.add(1);
                hit
            }
            None => {
                counters.cache_misses.add(1);
                let fresh = Arc::new(explain_forest(&model.forest, key));
                model.cache.insert(key, Arc::clone(&fresh));
                fresh
            }
        };
        // Cache hits fold too: analytics weights features by *traffic*,
        // and a repeated request is real traffic. The O(m²) interaction
        // matrix, when aggregated, is computed here on the explaining
        // caller's thread — never on the scoring workers.
        if model.analytics.is_some() {
            let iv =
                self.folds_interactions().then(|| forest_shap_interactions(&model.forest, key));
            self.fold(model, key, &explanation.contributions, iv.as_ref());
        }
        explanation
    }

    /// Whether the mounted analytics aggregates interaction pairs.
    fn folds_interactions(&self) -> bool {
        self.shared.config.analytics.as_ref().is_some_and(|a| a.interactions)
    }

    /// Folds one explained request into `model`'s sink (a no-op when
    /// analytics is off), counting it as folded or, when a swap already
    /// retired the epoch, as stale.
    fn fold(&self, model: &ModelEpoch, x: &[f32], phi: &[f64], iv: Option<&InteractionValues>) {
        let Some(analytics) = &model.analytics else { return };
        let counters = &self.shared.counters;
        let counter = if analytics.fold(x, phi, iv) {
            &counters.analytics_folds
        } else {
            &counters.analytics_stale_folds
        };
        counter.add(1);
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
        let key = self.admit(&model, x)?;
        let iv = forest_shap_interactions(&model.forest, &key);
        if self.folds_interactions() {
            let phi: Vec<f64> = (0..iv.n_features()).map(|i| iv.row(i).iter().sum()).collect();
            self.fold(&model, &key, &phi, Some(&iv));
        }
        Ok(iv)
    }

    /// Snapshots the serving epoch's analytics sink: provenance-stamped,
    /// digest bit-identical for the same folded multiset regardless of
    /// worker or client counts. `None` when analytics is disabled.
    pub fn analytics_snapshot(&self) -> Option<AnalyticsSnapshot> {
        self.shared.config.analytics.as_ref()?;
        let stale = self.shared.counters.analytics_stale_folds.get();
        // An epoch loaded just before a swap retired it has no sink left;
        // the epoch that replaced it has.
        loop {
            let model = self.shared.cell.load();
            if let Some(snapshot) = model.analytics.as_ref()?.snapshot(stale) {
                return Some(snapshot);
            }
        }
    }

    /// Both explanation views of one sample from one loaded epoch, so the
    /// SHAP attributions and the abductive explanation (subset-minimal
    /// sufficient reason plus contrastive dual) describe the same forest
    /// even across a concurrent swap. Counts as one
    /// [`ServeEngine::explain`] plus one `serve/abductive`.
    ///
    /// The abductive side runs within `budget` on the *caller's* thread,
    /// behind the epoch's own lock: the scoring worker pool and the
    /// batching queue are never involved, so an expensive (or timed-out)
    /// explanation can never stall a shard. Each epoch encodes its forest
    /// into one SAT engine on its first abductive call and keeps it, with
    /// the clauses it learns, for the rest of the epoch. Non-finite inputs
    /// follow the same policy as [`ServeEngine::explain`] (reject or
    /// zero-impute), keeping the two views of a request consistent.
    ///
    /// # Errors
    ///
    /// The admission errors of [`ServeEngine::explain`]. The abductive
    /// outcome is the second element for the caller to degrade on:
    /// [`DrcshapError::ExplanationTimeout`] when `budget` is exhausted
    /// (see `drcshap-gateway`'s `explain_both`), [`DrcshapError::Xsat`]
    /// for encoding invariant violations.
    pub fn explain_both(
        &self,
        x: &[f32],
        budget: &XsatBudget,
    ) -> Result<(Arc<Explanation>, Result<AbductiveExplanation, DrcshapError>), DrcshapError> {
        let model = self.shared.cell.load();
        let key = self.admit(&model, x)?;
        let shap = self.shap_on(&model, &key);
        Ok((shap, self.abductive_on(&model, &key, budget)))
    }

    /// The abductive explanation of an admitted row on `model`, through
    /// its SAT engine.
    fn abductive_on(
        &self,
        model: &ModelEpoch,
        key: &[f32],
        budget: &XsatBudget,
    ) -> Result<AbductiveExplanation, DrcshapError> {
        let _span = telemetry::span("serve/explain_abductive");
        self.shared.counters.abductive.add(1);
        let mut slot = model.abductive.lock().expect("abductive lock poisoned");
        if slot.is_none() {
            *slot = Some(AbductiveEngine::new(&model.forest)?);
        }
        let result = slot.as_mut().expect("engine just built").explain(key, budget);
        if matches!(result, Err(DrcshapError::ExplanationTimeout { .. })) {
            self.shared.counters.abductive_timeouts.add(1);
        }
        result
    }

    /// Hot-swaps the serving model (see [`EpochCell::swap`]): the next
    /// epoch starts with an empty cache, no SAT engine and, when analytics
    /// is mounted, an empty sink. The old epoch's sink is then dropped; an
    /// explain on the old epoch that folds after that is dropped from
    /// analytics and counted, never blended across models.
    ///
    /// # Errors
    ///
    /// The [`EpochCell::swap`] schema-validation errors; on error the
    /// serving epoch is untouched.
    pub fn swap(&self, forest: RandomForest, fingerprint: u64) -> Result<u64, DrcshapError> {
        let old = self.shared.cell.swap(forest, fingerprint)?;
        self.shared.counters.swaps.add(1);
        if let Some(analytics) = &old.analytics {
            analytics.retire();
        }
        Ok(old.epoch + 1)
    }

    /// Snapshots the serving metrics.
    pub fn metrics(&self) -> ServeMetrics {
        let model = self.shared.cell.load();
        ServeMetrics {
            counts: self.shared.counters.counts(),
            queue_depth: self.shared.queue.lock().expect("queue lock poisoned").len as u64,
            model_epoch: model.epoch,
            cache_len: model.cache.len(),
            latency: self.shared.latency.quantiles(),
        }
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

/// One worker: take the front batch once a flush condition holds, score
/// it against a single model epoch, publish its answers.
fn worker_loop(shared: &Shared) {
    while let Some(batch) = next_batch(shared) {
        flush(shared, batch);
    }
}

/// Blocks until the front batch is due — full, `max_wait` old, waited on,
/// or shutting down — and takes it; `None` once shutdown has drained the
/// queue.
fn next_batch(shared: &Shared) -> Option<Batch> {
    let config = &shared.config;
    let mut q = shared.queue.lock().expect("queue lock poisoned");
    loop {
        let Some(front) = q.batches.front() else {
            if q.shutdown {
                return None;
            }
            q = shared.flush.wait(q).expect("queue lock poisoned");
            continue;
        };
        let age = front.requests[0].enqueued.elapsed();
        if q.shutdown || front.requests.len() == config.max_batch || age >= config.max_wait {
            break;
        }
        // Mark the timed sleep, unless a caller already waits on the batch.
        // The mark is made under the queue lock, which the wait releases
        // only once it has begun (`Slot::flush_if_queued`).
        let stage = &front.slot.stage;
        if stage.compare_exchange(QUEUED, TIMED, Ordering::Relaxed, Ordering::Relaxed)
            == Err(WAITED)
        {
            break;
        }
        q = shared.flush.wait_timeout(q, config.max_wait - age).expect("queue lock poisoned").0;
    }
    let batch = q.batches.pop_front().expect("the front batch was just checked");
    batch.slot.stage.store(TAKEN, Ordering::Relaxed);
    q.len -= batch.requests.len();
    // More batches queued (burst): hand them to a peer.
    if !q.batches.is_empty() {
        shared.flush.notify_one();
    }
    Some(batch)
}

/// Scores `batch` against the epoch loaded now and publishes every answer
/// at once.
fn flush(shared: &Shared, batch: Batch) {
    let counters = &shared.counters;
    let model = shared.cell.load();
    let m = model.compiled.n_features();
    let mut flat = Vec::with_capacity(batch.requests.len() * m);
    let mut rows: Vec<Answer> = batch
        .requests
        .iter()
        .map(|request| {
            // Shed-before-work: a request whose budget was exhausted while
            // it sat in the queue gets its typed error now, before a single
            // tree is walked — under overload, stale requests cost nothing.
            match request.budget.check() {
                BudgetState::Within => {}
                BudgetState::DeadlineExpired => {
                    counters.deadline_shed.add(1);
                    return Answer::DeadlineShed;
                }
                BudgetState::Cancelled => {
                    counters.cancelled.add(1);
                    return Answer::Cancelled;
                }
            }
            // Length is validated at submit and swaps preserve the feature
            // count, so this arm is unreachable; kept so a future invariant
            // break degrades to a typed error instead of a panic.
            if request.x.len() != m {
                return Answer::WrongLength(request.x.len());
            }
            flat.extend_from_slice(&request.x);
            Answer::Scored(f64::NAN)
        })
        .collect();
    let batch_size = rows.iter().filter(|row| matches!(row, Answer::Scored(_))).count();
    if batch_size > 0 {
        let scores = model.score_batch(&flat, shared.config.nan_policy == NanPolicy::NanAware);
        counters.batches.add(1);
        counters.samples.add(batch_size as u64);
        let now = Instant::now();
        let mut latency = shared.latency.lock();
        let mut scores = scores.into_iter();
        for (row, request) in rows.iter_mut().zip(&batch.requests) {
            if let Answer::Scored(score) = row {
                *score = scores.next().expect("one score per scored row");
                latency.insert(now.saturating_duration_since(request.enqueued).as_nanos() as f64);
            }
        }
    }
    batch.slot.publish(Answers::Published { epoch: model.epoch, batch_size, n_features: m, rows });
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
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/requests"], 3);
        assert_eq!(counts["serve/samples"], 3);
        assert!(counts["serve/batches"] >= 1);
    }

    #[test]
    fn abductive_explanations_serve_and_cache_per_epoch() {
        let rf = forest(4);
        let engine = ServeEngine::start(quick_config(), rf.clone(), 7).expect("start");
        let x = [0.8f32, 0.3];
        let abductive = |engine: &ServeEngine, budget: &XsatBudget| {
            engine.explain_both(&x, budget).expect("admitted").1
        };
        let ex = abductive(&engine, &XsatBudget::default()).expect("explains");
        assert_eq!(ex.predicted_hotspot, drcshap_xsat::forest_vote(&rf, &x));
        assert!(!ex.sufficient.is_empty() || ex.contrastive.is_empty());
        // A second call reuses the cached encoding (same epoch).
        let again = abductive(&engine, &XsatBudget::default()).expect("explains");
        assert_eq!(again.sufficient, ex.sufficient);
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/abductive"], 2);
        assert_eq!(counts["serve/abductive_timeouts"], 0);
        // The swapped-in epoch encodes its own SAT engine on its first
        // call and explains the *new* model.
        let rf2 = forest(40);
        engine.swap(rf2.clone(), 7).expect("swap");
        let ex2 = abductive(&engine, &XsatBudget::default()).expect("explains");
        assert_eq!(ex2.predicted_hotspot, drcshap_xsat::forest_vote(&rf2, &x));
    }

    #[test]
    fn a_late_explain_on_a_swapped_out_epoch_stays_in_that_epoch() {
        let config = ServeConfig { analytics: Some(AnalyticsConfig::default()), ..quick_config() };
        let (rf, rf2) = (forest(11), forest(12));
        let (x, late) = ([0.8f32, 0.3], [0.2f32, 0.6]);
        let (phi, phi2) =
            (explain_forest(&rf, &late).contributions, explain_forest(&rf2, &late).contributions);
        assert_ne!(phi, phi2, "the two models must explain the probe differently");
        let engine = ServeEngine::start(config, rf, 7).expect("start");
        engine.explain(&x).expect("explains");
        // An explain that loaded epoch 1 and misses its cache only after
        // the swap to epoch 2.
        let old = engine.model();
        engine.swap(rf2, 7).expect("swap");
        assert_eq!(engine.shap_on(&old, &late).contributions, phi);
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/analytics_folds"], 1);
        assert_eq!(
            counts["serve/analytics_stale_folds"], 1,
            "the late fold is dropped and counted"
        );
        let now = engine.analytics_snapshot().expect("mounted");
        assert_eq!((now.n_vectors, now.stale_folds), (0, 1));
        // Nor does the late answer reach the new epoch's cache.
        assert_eq!(engine.explain(&late).expect("explains").contributions, phi2);
    }

    #[test]
    fn abductive_timeout_is_typed_and_never_stalls() {
        let engine = ServeEngine::start(quick_config(), forest(5), 7).expect("start");
        let zero = XsatBudget::conflicts(0);
        let (_, abductive) = engine.explain_both(&[0.5, 0.5], &zero).expect("admitted");
        let e = abductive.unwrap_err();
        assert!(matches!(e, DrcshapError::ExplanationTimeout { .. }), "{e}");
        assert!(!e.is_retryable(), "timeouts must not trigger failover retries");
        // The engine keeps serving: scoring and SHAP still answer, and a
        // roomier budget succeeds on the same (cached) encoding.
        engine.score(vec![0.5, 0.5]).expect("scoring unaffected");
        engine.explain(&[0.5, 0.5]).expect("shap unaffected");
        let (_, abductive) =
            engine.explain_both(&[0.5, 0.5], &XsatBudget::default()).expect("admitted");
        abductive.expect("recovers");
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/abductive_timeouts"], 1);
        assert_eq!(counts["serve/abductive"], 2);
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
                    engine.explain_both(row, &budget).unwrap_err(),
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
            let abductive = engine.explain_both(&nan_row, &budget).expect("admitted").1;
            let abductive = abductive.expect("explains");
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
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/requests"], 0, "shed request must never enter the queue");
        assert_eq!(counts["serve/deadline_shed"], 1);
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
    fn a_batch_dropped_unanswered_answers_its_tickets_with_worker_terminated() {
        // What a worker panicking mid-flush leaves behind: its batch is
        // dropped during the unwind, unanswered.
        let slot = Arc::new(Slot::new(Weak::new()));
        let request = || Request {
            x: vec![0.5, 0.5],
            enqueued: Instant::now(),
            budget: StageBudget::default(),
        };
        let batch = Batch { requests: vec![request(), request()], slot: Arc::clone(&slot) };
        let blocked = Ticket { slot: Arc::clone(&slot), index: 0 };
        let polled = Ticket { slot, index: 1 };
        let waiter = std::thread::spawn(move || blocked.wait());
        assert!(polled.wait_for(Duration::from_millis(20)).is_none(), "nothing published yet");
        drop(batch);
        let answers = [
            waiter.join().expect("the blocked caller returns"),
            polled.wait_for(Duration::ZERO).expect("answered by the drop"),
        ];
        for answer in answers {
            let e = answer.unwrap_err();
            assert!(matches!(e, DrcshapError::Input(InputError::Usage(_))), "{e}");
            assert!(e.to_string().contains("worker terminated"), "{e}");
        }
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
        let counts = engine.metrics().counts;
        assert_eq!(counts["serve/deadline_shed"], 1);
        assert_eq!(counts["serve/samples"], 1);
    }
}
