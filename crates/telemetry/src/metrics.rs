//! Owned metrics: the counts and latencies a serving engine or gateway
//! keeps for its own snapshot, declared once per component with
//! [`counters!`](crate::counters).
//!
//! A [`Counter`] is the component's own count and, while telemetry is
//! enabled, also bumps the process-wide counter of the same name, so the
//! component's snapshot and the hub's summary read one event stream
//! instead of two that can disagree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use serde::Serialize;

use crate::{counter_handle, is_enabled, QuantileSketch};

/// A named count owned by one component. Building one allocates nothing.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    /// The hub's counter of the same name, looked up on the first add
    /// made while telemetry is enabled.
    mirror: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// A counter at zero, counting under `name`.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0), mirror: OnceLock::new() }
    }

    /// Adds `delta` to this count and, while telemetry is enabled, to the
    /// process-wide counter of the same name. Disabled, the mirror costs
    /// one relaxed load.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        if is_enabled() {
            self.mirror
                .get_or_init(|| counter_handle(self.name))
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The name this count is reported under, here and process-wide.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Declares a component's counters once: a struct with one public
/// [`Counter`] per listed field, named `"<scope>/<field>"`, built at zero
/// by [`Default`], with `counts()`, the snapshot keyed by those names.
///
/// ```
/// drcshap_telemetry::counters! {
///     /// What a cache counts.
///     pub struct CacheCounters("cache") {
///         /// Lookups answered from the cache.
///         hits,
///     }
/// }
/// let counters = CacheCounters::default();
/// counters.hits.add(2);
/// assert_eq!(counters.hits.name(), "cache/hits");
/// assert_eq!(counters.counts()["cache/hits"], 2);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident($scope:literal) {
            $($(#[$doc:meta])* $field:ident,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug)]
        $vis struct $name {
            $($(#[$doc])* pub $field: $crate::Counter,)*
        }

        impl Default for $name {
            fn default() -> Self {
                Self {
                    $($field: $crate::Counter::new(concat!($scope, "/", stringify!($field))),)*
                }
            }
        }

        impl $name {
            /// Every count, keyed by its counter's name.
            pub fn counts(&self) -> ::std::collections::BTreeMap<String, u64> {
                [$(&self.$field),*].into_iter().map(|c| (c.name().to_string(), c.get())).collect()
            }
        }
    };
}

/// An owned latency distribution: a [`QuantileSketch`] of durations in
/// nanoseconds. Building one allocates nothing.
#[derive(Debug, Default)]
pub struct Latency(Mutex<QuantileSketch>);

impl Latency {
    /// The sketch, locked, to record durations into.
    pub fn lock(&self) -> MutexGuard<'_, QuantileSketch> {
        self.0.lock().expect("latency lock poisoned")
    }

    /// The recorded durations' median and 99th percentile.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles::of(&self.lock())
    }
}

/// The median and 99th percentile of a sketch of nanosecond durations,
/// in microseconds: each within 2^-7 of the exact rank-⌈qn⌉ duration, and
/// 0 when nothing was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Quantiles {
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
}

impl Quantiles {
    /// The quantiles of `ns`, a sketch of nanosecond durations.
    pub(crate) fn of(ns: &QuantileSketch) -> Self {
        let us = |q| ns.quantile(q).unwrap_or(0.0) / 1e3;
        Self { p50_us: us(0.50), p99_us: us(0.99) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_are_within_the_sketch_accuracy() {
        let latency = Latency::default();
        assert_eq!(latency.quantiles(), Quantiles { p50_us: 0.0, p99_us: 0.0 }, "nothing yet");
        for us in 1..=1000u32 {
            latency.lock().insert(f64::from(us) * 1e3);
        }
        let q = latency.quantiles();
        // The exact rank-⌈qn⌉ latencies are 500 and 990 µs.
        for (got, exact) in [(q.p50_us, 500.0), (q.p99_us, 990.0)] {
            assert!((got - exact).abs() <= exact / 128.0, "{got} vs {exact}");
        }
    }
}
