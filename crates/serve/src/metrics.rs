//! Serving metrics: relaxed-atomic counters, a queue-depth gauge, and a
//! [`QuantileSketch`] of request latencies.
//!
//! Counters are relaxed atomics; the latency sketch sits behind a mutex
//! that a worker takes once per flushed batch. [`ServeMetrics`] is the
//! serializable snapshot the CLI's `--stats` flag and operators consume.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use drcshap_telemetry::QuantileSketch;
use serde::Serialize;

/// Live counters of a serving engine. Updated with relaxed atomics from
/// submit, worker, swap, and explain paths; snapshotted by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Requests accepted into the queue.
    pub requests: AtomicU64,
    /// Requests shed with `Overloaded` at the admission boundary.
    pub rejected: AtomicU64,
    /// Requests shed with `DeadlineExceeded` — at admission or by a worker
    /// before scoring work.
    pub deadline_shed: AtomicU64,
    /// Requests dropped with `Interrupted` after their cancel token fired.
    pub cancelled: AtomicU64,
    /// Batches flushed to the compiled forest.
    pub batches: AtomicU64,
    /// Samples scored across all batches.
    pub samples: AtomicU64,
    /// Current queue depth (gauge, not a counter).
    pub queue_depth: AtomicU64,
    /// Successful hot model swaps.
    pub swaps: AtomicU64,
    /// Explanation requests served (cache hits and misses combined).
    pub explains: AtomicU64,
    /// Abductive (SAT-based) explanation requests attempted.
    pub abductive: AtomicU64,
    /// Abductive requests that exhausted their budget and degraded to
    /// SHAP-only.
    pub abductive_timeouts: AtomicU64,
    /// Explained requests folded into the analytics sink.
    pub analytics_folds: AtomicU64,
    /// Analytics folds dropped because their epoch's sink was already
    /// retired by a hot swap.
    pub analytics_stale_folds: AtomicU64,
    /// Explanations answered from an epoch's cache.
    pub cache_hits: AtomicU64,
    /// Explanations computed fresh.
    pub cache_misses: AtomicU64,
    /// Enqueue-to-response latency per request, in nanoseconds.
    pub latency: Mutex<QuantileSketch>,
}

impl MetricsRegistry {
    /// Snapshots every counter, with the serving epoch's number and the
    /// number of explanations resident in its cache.
    pub fn snapshot(&self, model_epoch: u64, cache_len: usize) -> ServeMetrics {
        let batches = self.batches.load(Ordering::Relaxed);
        let samples = self.samples.load(Ordering::Relaxed);
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        let lookups = cache_hits + cache_misses;
        let latency = self.latency.lock().expect("latency lock poisoned");
        let latency_us = |q| latency.quantile(q).unwrap_or(0.0) / 1e3;
        ServeMetrics {
            requests_total: self.requests.load(Ordering::Relaxed),
            rejected_total: self.rejected.load(Ordering::Relaxed),
            deadline_shed_total: self.deadline_shed.load(Ordering::Relaxed),
            cancelled_total: self.cancelled.load(Ordering::Relaxed),
            batches_total: batches,
            samples_scored: samples,
            mean_batch: if batches == 0 { 0.0 } else { samples as f64 / batches as f64 },
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            swaps_total: self.swaps.load(Ordering::Relaxed),
            model_epoch,
            explains_total: self.explains.load(Ordering::Relaxed),
            abductive_total: self.abductive.load(Ordering::Relaxed),
            abductive_timeout_total: self.abductive_timeouts.load(Ordering::Relaxed),
            analytics_folds_total: self.analytics_folds.load(Ordering::Relaxed),
            analytics_stale_folds_total: self.analytics_stale_folds.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            cache_len,
            cache_hit_rate: if lookups == 0 { 0.0 } else { cache_hits as f64 / lookups as f64 },
            latency_p50_us: latency_us(0.50),
            latency_p99_us: latency_us(0.99),
        }
    }
}

/// A point-in-time snapshot of the serving engine's counters — what
/// `drcshap serve --stats` prints as JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeMetrics {
    /// Requests accepted into the queue.
    pub requests_total: u64,
    /// Requests shed with `Overloaded` backpressure.
    pub rejected_total: u64,
    /// Requests shed with `DeadlineExceeded` before any scoring work.
    pub deadline_shed_total: u64,
    /// Requests dropped with `Interrupted` by a fired cancel token.
    pub cancelled_total: u64,
    /// Batches flushed.
    pub batches_total: u64,
    /// Samples scored.
    pub samples_scored: u64,
    /// Mean samples per flushed batch.
    pub mean_batch: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Successful hot swaps.
    pub swaps_total: u64,
    /// Epoch of the currently serving model (1 = the initial model).
    pub model_epoch: u64,
    /// Explanation requests served.
    pub explains_total: u64,
    /// Abductive (SAT-based) explanation attempts.
    pub abductive_total: u64,
    /// Abductive attempts that timed out and degraded to SHAP-only.
    pub abductive_timeout_total: u64,
    /// Explained requests folded into the analytics sink (0 when
    /// analytics is disabled).
    pub analytics_folds_total: u64,
    /// Analytics folds dropped because they raced a hot swap.
    pub analytics_stale_folds_total: u64,
    /// Explanation-cache hits, over the engine's life.
    pub cache_hits: u64,
    /// Explanation-cache misses, over the engine's life.
    pub cache_misses: u64,
    /// Explanations cached for the serving epoch.
    pub cache_len: usize,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub cache_hit_rate: f64,
    /// Median enqueue-to-response latency, microseconds, within 2^-7 of
    /// the rank-⌈n/2⌉ latency (0 before the first response).
    pub latency_p50_us: f64,
    /// 99th-percentile enqueue-to-response latency, microseconds, within
    /// 2^-7 of the rank-⌈0.99n⌉ latency (0 before the first response).
    pub latency_p99_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_computes_derived_rates() {
        let m = MetricsRegistry::default();
        m.requests.store(10, Ordering::Relaxed);
        m.batches.store(4, Ordering::Relaxed);
        m.samples.store(10, Ordering::Relaxed);
        m.cache_hits.store(3, Ordering::Relaxed);
        m.cache_misses.store(1, Ordering::Relaxed);
        let snap = m.snapshot(2, 2);
        assert_eq!(snap.model_epoch, 2);
        assert!((snap.mean_batch - 2.5).abs() < 1e-12);
        assert!((snap.cache_hit_rate - 0.75).abs() < 1e-12);
        let json = serde_json::to_string(&snap).expect("serializable");
        assert!(json.contains("\"requests_total\":10"), "{json}");
        assert!(json.contains("\"model_epoch\":2"), "{json}");
        assert_eq!((snap.latency_p50_us, snap.latency_p99_us), (0.0, 0.0), "no responses yet");
    }

    #[test]
    fn latency_quantiles_are_within_the_sketch_accuracy() {
        let m = MetricsRegistry::default();
        {
            let mut latency = m.latency.lock().unwrap();
            for us in 1..=1000u32 {
                latency.insert(f64::from(us) * 1e3);
            }
        }
        let snap = m.snapshot(1, 0);
        // The exact rank-⌈qn⌉ latencies are 500 and 990 µs.
        for (got, exact) in [(snap.latency_p50_us, 500.0), (snap.latency_p99_us, 990.0)] {
            assert!((got - exact).abs() <= exact / 128.0, "{got} vs {exact}");
        }
    }
}
