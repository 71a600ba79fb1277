//! Gateway-level metrics: fleet counters layered on top of each shard's
//! own [`ServeMetrics`], snapshotted into one serializable
//! [`GatewayMetrics`] for the CLI's `--stats` flag and the bench gate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use drcshap_serve::ServeMetrics;
use drcshap_telemetry::QuantileSketch;
use serde::Serialize;

/// Live fleet counters. Updated with relaxed atomics from the routing,
/// admission, retry, hedge, and rollout paths; the latency sketch is
/// locked once per completed request.
#[derive(Debug, Default)]
pub(crate) struct GatewayRegistry {
    /// Requests entering `Gateway::score` (before admission).
    pub requests: AtomicU64,
    /// Requests answered with a score.
    pub completed: AtomicU64,
    /// Retry attempts after a retryable shard failure.
    pub retries: AtomicU64,
    /// Attempts served off the key's owner shard (failover moves).
    pub failovers: AtomicU64,
    /// Hedge requests issued to a backup shard.
    pub hedges: AtomicU64,
    /// Hedges whose backup answered first (or rescued a failed primary).
    pub hedge_wins: AtomicU64,
    /// Requests shed by the per-tenant admission quota.
    pub shed_quota: AtomicU64,
    /// Requests shed for an expired deadline (pre-route or in-shard).
    pub shed_deadline: AtomicU64,
    /// Requests that failed with a non-deadline error after retries.
    pub errors: AtomicU64,
    /// Staged rollouts attempted.
    pub rollouts: AtomicU64,
    /// Rollouts rolled back (canary digest mismatch or mid-fleet failure).
    pub rollbacks: AtomicU64,
    /// End-to-end gateway latency per completed request, in nanoseconds.
    pub latency: Mutex<QuantileSketch>,
}

impl GatewayRegistry {
    /// Snapshots the fleet counters, attaching per-shard status rows.
    pub(crate) fn snapshot(&self, shards: Vec<ShardStatus>) -> GatewayMetrics {
        let latency = self.latency.lock().expect("latency lock poisoned");
        let latency_us = |q| latency.quantile(q).unwrap_or(0.0) / 1e3;
        GatewayMetrics {
            requests_total: self.requests.load(Ordering::Relaxed),
            completed_total: self.completed.load(Ordering::Relaxed),
            retries_total: self.retries.load(Ordering::Relaxed),
            failovers_total: self.failovers.load(Ordering::Relaxed),
            hedges_total: self.hedges.load(Ordering::Relaxed),
            hedge_wins_total: self.hedge_wins.load(Ordering::Relaxed),
            shed_quota_total: self.shed_quota.load(Ordering::Relaxed),
            shed_deadline_total: self.shed_deadline.load(Ordering::Relaxed),
            errors_total: self.errors.load(Ordering::Relaxed),
            breaker_opens_total: shards.iter().map(|s| s.breaker_opens).sum(),
            rollouts_total: self.rollouts.load(Ordering::Relaxed),
            rollbacks_total: self.rollbacks.load(Ordering::Relaxed),
            latency_p50_us: latency_us(0.50),
            latency_p99_us: latency_us(0.99),
            shards,
        }
    }
}

/// Point-in-time status of one shard, as seen by the gateway.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardStatus {
    /// Shard index (stable for the life of the gateway).
    pub shard: usize,
    /// Whether routing would currently send this shard traffic.
    pub available: bool,
    /// Whether the shard was killed (operator or chaos).
    pub killed: bool,
    /// Whether the circuit breaker is open right now.
    pub breaker_open: bool,
    /// Times the breaker has tripped closed -> open.
    pub breaker_opens: u64,
    /// Retryable failures since the last success.
    pub consecutive_failures: u32,
    /// EWMA of successful-request latency, microseconds (0 until the
    /// first success).
    pub ewma_latency_us: f64,
    /// The shard engine's own serving metrics.
    pub engine: ServeMetrics,
}

/// A point-in-time snapshot of the whole gateway — what
/// `drcshap gateway --stats` prints as JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GatewayMetrics {
    /// Requests entering the gateway (before admission).
    pub requests_total: u64,
    /// Requests answered with a score.
    pub completed_total: u64,
    /// Retry attempts after retryable shard failures.
    pub retries_total: u64,
    /// Attempts served off the key's owner shard.
    pub failovers_total: u64,
    /// Hedge requests issued.
    pub hedges_total: u64,
    /// Hedges won by the backup shard.
    pub hedge_wins_total: u64,
    /// Requests shed by admission quotas.
    pub shed_quota_total: u64,
    /// Requests shed for expired deadlines.
    pub shed_deadline_total: u64,
    /// Requests failed with a non-deadline error after retries.
    pub errors_total: u64,
    /// Breaker closed -> open transitions across the fleet.
    pub breaker_opens_total: u64,
    /// Staged rollouts attempted.
    pub rollouts_total: u64,
    /// Rollouts rolled back.
    pub rollbacks_total: u64,
    /// Median end-to-end gateway latency, microseconds, within 2^-7 of
    /// the rank-⌈n/2⌉ latency (0 before the first completed request).
    pub latency_p50_us: f64,
    /// 99th-percentile end-to-end gateway latency, microseconds, within
    /// 2^-7 of the rank-⌈0.99n⌉ latency (0 before the first completed
    /// request).
    pub latency_p99_us: f64,
    /// Per-shard status rows, indexed by shard.
    pub shards: Vec<ShardStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serializes_with_shard_rows() {
        let registry = GatewayRegistry::default();
        registry.requests.store(5, Ordering::Relaxed);
        registry.completed.store(4, Ordering::Relaxed);
        let snap = registry.snapshot(vec![]);
        assert_eq!(snap.requests_total, 5);
        assert_eq!(snap.completed_total, 4);
        let json = serde_json::to_string(&snap).expect("serializable");
        assert!(json.contains("\"requests_total\":5"), "{json}");
        assert!(json.contains("\"shards\":[]"), "{json}");
        assert_eq!((snap.latency_p50_us, snap.latency_p99_us), (0.0, 0.0), "no requests yet");
    }

    #[test]
    fn latency_quantiles_are_within_the_sketch_accuracy() {
        let registry = GatewayRegistry::default();
        {
            let mut latency = registry.latency.lock().unwrap();
            for us in 1..=1000u32 {
                latency.insert(f64::from(us) * 1e3);
            }
        }
        let snap = registry.snapshot(vec![]);
        // The exact rank-⌈qn⌉ latencies are 500 and 990 µs.
        for (got, exact) in [(snap.latency_p50_us, 500.0), (snap.latency_p99_us, 990.0)] {
            assert!((got - exact).abs() <= exact / 128.0, "{got} vs {exact}");
        }
    }
}
