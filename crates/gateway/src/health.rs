//! Per-shard health: a latency EWMA, a consecutive-failure circuit
//! breaker, and an operator kill switch.
//!
//! Everything is relaxed atomics — health is consulted on every routing
//! decision and must cost nanoseconds. The breaker opens after three
//! consecutive retryable failures and blocks routing for 250 ms; after
//! the cooloff the shard becomes *half-open* (routable again), and the
//! next outcome either closes the breaker (a success resets everything)
//! or re-opens it for a fresh cooloff.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Consecutive retryable failures that trip the breaker open.
const FAILURE_THRESHOLD: u32 = 3;

/// How long an open breaker keeps routing away from the shard before
/// allowing a half-open probe through.
const BREAKER_COOLOFF: Duration = Duration::from_millis(250);

/// EWMA smoothing factor for per-shard latency (higher reacts faster,
/// lower smooths harder).
const EWMA_ALPHA: f64 = 0.2;

/// Live health state of one shard. Times are nanoseconds on the gateway's
/// own monotonic clock (`Gateway::now_ns`), so 0 is "gateway start" and
/// an `open_until_ns` of 0 means "breaker closed".
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    /// EWMA of successful-request latency, microseconds, as f64 bits.
    ewma_us: AtomicU64,
    /// Consecutive retryable failures since the last success.
    failures: AtomicU32,
    /// 0 = breaker closed; otherwise the gateway-clock nanosecond at
    /// which a half-open probe may pass.
    open_until_ns: AtomicU64,
    /// Operator/chaos kill switch: a killed shard never takes traffic.
    killed: AtomicBool,
}

impl ShardHealth {
    /// Whether the routing layer may send this shard a request right now.
    pub(crate) fn available(&self, now_ns: u64) -> bool {
        if self.killed.load(Ordering::Relaxed) {
            return false;
        }
        let open_until = self.open_until_ns.load(Ordering::Relaxed);
        open_until == 0 || now_ns >= open_until
    }

    /// Records a successful request: resets the failure streak, closes the
    /// breaker, and folds `latency` into the EWMA.
    pub(crate) fn observe_success(&self, latency: Duration) {
        self.failures.store(0, Ordering::Relaxed);
        self.open_until_ns.store(0, Ordering::Relaxed);
        let sample = latency.as_secs_f64() * 1e6;
        let mut current = self.ewma_us.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(current);
            let next = if old == 0.0 { sample } else { old + EWMA_ALPHA * (sample - old) };
            match self.ewma_us.compare_exchange_weak(
                current,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Records a retryable failure; returns `true` when this failure
    /// newly tripped the breaker open (the gateway counts the trip).
    pub(crate) fn observe_failure(&self, now_ns: u64) -> bool {
        let failures = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= FAILURE_THRESHOLD {
            let cooloff = BREAKER_COOLOFF.as_nanos() as u64;
            // 0 is reserved for "closed", so an open deadline is always >= 1.
            let until = now_ns.saturating_add(cooloff).max(1);
            return self.open_until_ns.swap(until, Ordering::Relaxed) == 0;
        }
        false
    }

    /// Permanently removes the shard from routing (sticky, like
    /// [`drcshap_geom::CancelToken`] — there is no resurrect).
    pub(crate) fn kill(&self) {
        self.killed.store(true, Ordering::Relaxed);
    }

    pub(crate) fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    pub(crate) fn breaker_open(&self, now_ns: u64) -> bool {
        let open_until = self.open_until_ns.load(Ordering::Relaxed);
        open_until != 0 && now_ns < open_until
    }

    pub(crate) fn consecutive_failures(&self) -> u32 {
        self.failures.load(Ordering::Relaxed)
    }

    pub(crate) fn ewma_latency_us(&self) -> f64 {
        f64::from_bits(self.ewma_us.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooloff() {
        let health = ShardHealth::default();
        let cooloff = BREAKER_COOLOFF.as_nanos() as u64;
        assert!(health.available(0));
        assert!(!health.observe_failure(0));
        assert!(!health.observe_failure(0));
        assert!(health.observe_failure(0), "third failure trips the breaker");
        assert!(!health.available(500), "open breaker blocks routing");
        assert!(!health.available(cooloff - 1), "still open just before the cooloff ends");
        assert!(health.breaker_open(500));
        // After the cooloff the shard is half-open: routable for a probe.
        assert!(health.available(cooloff + 500));
        assert!(!health.breaker_open(cooloff + 500));
        // A failed probe re-opens, but is not a new trip.
        assert!(!health.observe_failure(cooloff + 500), "a half-open re-open counted twice");
        assert!(!health.available(cooloff + 600));
        // A success closes everything.
        health.observe_success(Duration::from_micros(100));
        assert!(health.available(cooloff + 700));
        assert_eq!(health.consecutive_failures(), 0);
    }

    #[test]
    fn ewma_tracks_latency() {
        let health = ShardHealth::default();
        health.observe_success(Duration::from_micros(100));
        assert!((health.ewma_latency_us() - 100.0).abs() < 1e-9, "first sample seeds the EWMA");
        health.observe_success(Duration::from_micros(200));
        assert!((health.ewma_latency_us() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn killed_is_sticky_and_unroutable() {
        let health = ShardHealth::default();
        health.kill();
        assert!(health.is_killed());
        assert!(!health.available(0));
        // Even a success cannot resurrect a killed shard.
        health.observe_success(Duration::from_micros(10));
        assert!(!health.available(u64::MAX));
    }
}
