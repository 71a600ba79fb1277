//! Serving metrics: the engine's counters, declared once, and the
//! serializable snapshot the CLI's `--stats` document nests.

use std::collections::BTreeMap;

use drcshap_telemetry::Quantiles;
use serde::Serialize;

drcshap_telemetry::counters! {
    /// What a serving engine counts, each under `serve/<field>`. Updated
    /// with relaxed atomics from the submit, worker, swap and explain
    /// paths.
    pub struct ServeCounters("serve") {
        /// Requests accepted into the queue.
        requests,
        /// Requests shed with `Overloaded` at the admission boundary.
        rejected,
        /// Requests shed with `DeadlineExceeded`, at admission or by a
        /// worker before scoring work.
        deadline_shed,
        /// Requests dropped with `Interrupted` after their cancel token
        /// fired.
        cancelled,
        /// Batches flushed to the compiled forest.
        batches,
        /// Samples scored across all batches.
        samples,
        /// Successful hot model swaps.
        swaps,
        /// Explanation requests served (cache hits and misses combined).
        explains,
        /// Abductive (SAT-based) explanation requests attempted.
        abductive,
        /// Abductive requests that exhausted their budget and degraded to
        /// SHAP-only.
        abductive_timeouts,
        /// Explained requests folded into the analytics sink.
        analytics_folds,
        /// Analytics folds dropped because their epoch's sink was already
        /// retired by a hot swap.
        analytics_stale_folds,
        /// Explanations answered from an epoch's cache.
        cache_hits,
        /// Explanations computed fresh.
        cache_misses,
    }
}

/// A point-in-time snapshot of a serving engine: what `drcshap serve
/// --stats` nests under `metrics`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeMetrics {
    /// Every [`ServeCounters`] count, keyed by its name (`serve/requests`,
    /// …), which is also the name of the process-wide counter.
    pub counts: BTreeMap<String, u64>,
    /// Requests queued at snapshot time.
    pub queue_depth: u64,
    /// Epoch of the currently serving model (1 = the initial model).
    pub model_epoch: u64,
    /// Explanations cached for the serving epoch.
    pub cache_len: usize,
    /// Enqueue-to-response latency of scored requests.
    pub latency: Quantiles,
}
