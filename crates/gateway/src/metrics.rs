//! Gateway-level metrics: fleet counters, declared once, layered on top
//! of each shard's own [`ServeMetrics`], and the serializable
//! [`GatewayMetrics`] snapshot the CLI's `--stats` document nests.

use std::collections::BTreeMap;

use drcshap_serve::ServeMetrics;
use drcshap_telemetry::Quantiles;
use serde::Serialize;

drcshap_telemetry::counters! {
    /// What a gateway counts, each under `gateway/<field>`. Updated with
    /// relaxed atomics from the routing, admission, retry, hedge, health
    /// and rollout paths.
    pub struct GatewayCounters("gateway") {
        /// Requests entering `Gateway::score` (before admission).
        requests,
        /// Requests answered with a score.
        completed,
        /// Retry attempts after a retryable shard failure.
        retries,
        /// Attempts served off the key's owner shard (failover moves).
        failovers,
        /// Hedge requests issued to a backup shard.
        hedges,
        /// Hedges whose backup answered first or rescued a failed
        /// primary.
        hedge_wins,
        /// Requests shed by the per-tenant admission quota.
        shed_quota,
        /// Requests shed for an expired deadline: before routing, between
        /// attempts, or by a shard.
        shed_deadline,
        /// Requests that failed with a non-deadline error after retries.
        errors,
        /// Circuit-breaker trips, closed to open, across the fleet.
        breaker_opens,
        /// Shard kills (operator or chaos).
        shards_killed,
        /// Staged rollouts attempted.
        rollouts,
        /// Staged rollouts that swapped the whole fleet.
        rollouts_completed,
        /// Rollouts rolled back (canary digest mismatch or mid-fleet
        /// failure).
        rollbacks,
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
    /// Retryable failures since the last success.
    pub consecutive_failures: u32,
    /// EWMA of successful-request latency, microseconds (0 until the
    /// first success).
    pub ewma_latency_us: f64,
    /// The shard engine's own serving metrics.
    pub engine: ServeMetrics,
}

/// A point-in-time snapshot of the whole gateway: what `drcshap gateway
/// --stats` nests under `metrics`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GatewayMetrics {
    /// Every [`GatewayCounters`] count, keyed by its name
    /// (`gateway/requests`, …), which is also the name of the
    /// process-wide counter.
    pub counts: BTreeMap<String, u64>,
    /// End-to-end gateway latency of completed requests.
    pub latency: Quantiles,
    /// Per-shard status rows, indexed by shard.
    pub shards: Vec<ShardStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serializes_with_shard_rows() {
        let counters = GatewayCounters::default();
        counters.requests.add(5);
        counters.completed.add(4);
        let latency = Quantiles { p50_us: 0.0, p99_us: 0.0 };
        let snap = GatewayMetrics { counts: counters.counts(), latency, shards: vec![] };
        let json = serde_json::to_string(&snap).expect("serializable");
        assert!(json.contains("\"gateway/requests\":5"), "{json}");
        assert!(json.contains("\"gateway/completed\":4"), "{json}");
        assert!(json.contains("\"gateway/shed_deadline\":0"), "{json}");
        assert!(json.contains("\"shards\":[]"), "{json}");
    }
}
