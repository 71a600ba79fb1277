//! Serving metrics: lock-free counters, a queue-depth gauge, and
//! log-bucketed latency histograms with quantile extraction.
//!
//! Everything on the record path is a relaxed atomic — no locks, no
//! allocation — so instrumenting the hot path costs a handful of
//! nanoseconds per request. [`ServeMetrics`] is the serializable snapshot
//! the CLI's `--stats` flag and operators consume.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::Serialize;

/// Number of power-of-two latency buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds; bucket 63 absorbs everything larger.
const BUCKETS: usize = 64;

/// A log-bucketed histogram of durations. Buckets are powers of two in
/// nanoseconds, so 64 buckets span sub-nanosecond to centuries with ~2×
/// quantile resolution — plenty for latency work, at a fixed 512-byte
/// footprint and a wait-free `record`.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Index of the highest set bit (0 for 0..=1 ns).
        let idx = (64 - nanos.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as an upper bound in nanoseconds:
    /// the smallest bucket boundary below which at least a `q` fraction of
    /// samples fall. Returns 0 when the histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper edge of bucket i: 2^(i+1) ns, saturating at the top.
                return if i + 1 >= 64 { u64::MAX } else { 1u64 << (i + 1) };
            }
        }
        u64::MAX
    }
}

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
    /// Analytics folds dropped because they raced a hot swap.
    pub analytics_stale_folds: AtomicU64,
    /// Enqueue-to-response latency per request.
    pub latency: LatencyHistogram,
}

impl MetricsRegistry {
    /// Snapshots every counter, combining the engine-side numbers with the
    /// explanation cache's hit/miss counters and the current model epoch.
    pub fn snapshot(&self, cache: crate::cache::CacheStats, model_epoch: u64) -> ServeMetrics {
        let batches = self.batches.load(Ordering::Relaxed);
        let samples = self.samples.load(Ordering::Relaxed);
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
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_len: cache.len,
            cache_hit_rate: cache.hit_rate(),
            latency_p50_us: self.latency.quantile_ns(0.50) as f64 / 1e3,
            latency_p99_us: self.latency.quantile_ns(0.99) as f64 / 1e3,
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
    /// Explanation-cache hits.
    pub cache_hits: u64,
    /// Explanation-cache misses.
    pub cache_misses: u64,
    /// Explanations currently cached.
    pub cache_len: usize,
    /// `hits / (hits + misses)`, 0 when no lookups happened.
    pub cache_hit_rate: f64,
    /// Median enqueue-to-response latency, microseconds (bucket upper
    /// bound).
    pub latency_p50_us: f64,
    /// 99th-percentile enqueue-to-response latency, microseconds.
    pub latency_p99_us: f64,
}

impl std::fmt::Display for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests {} (rejected {}, deadline-shed {}, cancelled {}), batches {} (mean {:.1}), \
             queue depth {}",
            self.requests_total,
            self.rejected_total,
            self.deadline_shed_total,
            self.cancelled_total,
            self.batches_total,
            self.mean_batch,
            self.queue_depth
        )?;
        writeln!(
            f,
            "model epoch {} ({} swaps), explains {} (cache {:.0}% of {} lookups)",
            self.model_epoch,
            self.swaps_total,
            self.explains_total,
            self.cache_hit_rate * 100.0,
            self.cache_hits + self.cache_misses
        )?;
        write!(f, "latency p50 {:.1} us, p99 {:.1} us", self.latency_p50_us, self.latency_p99_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(3)); // bucket 1
        h.record(Duration::from_nanos(1000)); // bucket 9 (512..1024 ns)
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 1);
        assert_eq!(h.buckets[9].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_nanos(100)); // bucket 6, upper edge 128
        }
        h.record(Duration::from_micros(100)); // bucket 16, upper edge 131072
        assert_eq!(h.quantile_ns(0.5), 128);
        assert_eq!(h.quantile_ns(0.99), 128);
        assert_eq!(h.quantile_ns(1.0), 131_072);
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.99));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn zero_duration_lands_in_the_first_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_computes_derived_rates() {
        let m = MetricsRegistry::default();
        m.requests.store(10, Ordering::Relaxed);
        m.batches.store(4, Ordering::Relaxed);
        m.samples.store(10, Ordering::Relaxed);
        let cache = crate::cache::CacheStats { hits: 3, misses: 1, len: 2, capacity: 8 };
        let snap = m.snapshot(cache, 2);
        assert_eq!(snap.model_epoch, 2);
        assert!((snap.mean_batch - 2.5).abs() < 1e-12);
        assert!((snap.cache_hit_rate - 0.75).abs() < 1e-12);
        let json = serde_json::to_string(&snap).expect("serializable");
        assert!(json.contains("\"requests_total\":10"), "{json}");
        let text = snap.to_string();
        assert!(text.contains("epoch 2"), "{text}");
    }
}
