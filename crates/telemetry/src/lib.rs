#![warn(missing_docs)]
//! Lightweight workspace telemetry: RAII spans and relaxed-atomic counters,
//! exported as a JSON summary (per-span count/total/p50/p99) or as Chrome
//! trace-event format loadable in `chrome://tracing` / Perfetto.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Telemetry is off by default. A
//!    disabled [`span`] or [`counter`] call is one relaxed atomic load —
//!    no allocation, no clock read, no thread-local initialisation. Hot
//!    loops (per-tree fits, router rounds, serve flushes) can stay
//!    instrumented unconditionally.
//! 2. **Thread-safe.** Each thread records spans into its own buffer
//!    (registered once with the global [`TelemetryHub`]); counters are
//!    shared relaxed atomics, so increments from any number of workers
//!    merge trivially. Export merges the per-thread buffers and sorts
//!    deterministically, so two exports of the same run are byte-identical.
//! 3. **No dependencies beyond serde.** This crate sits below everything
//!    else in the workspace; `drcshap-core` re-exports it as
//!    `core::telemetry`.
//!
//! # Usage
//!
//! ```
//! drcshap_telemetry::enable();
//! {
//!     let _span = drcshap_telemetry::span("stage/route");
//!     drcshap_telemetry::counter("route/ripups", 3);
//! }
//! let summary = drcshap_telemetry::hub().summary();
//! assert_eq!(summary.counters["route/ripups"], 3);
//! let trace = drcshap_telemetry::hub().chrome_trace();
//! assert!(trace.contains("\"traceEvents\""));
//! # drcshap_telemetry::hub().reset();
//! # drcshap_telemetry::disable();
//! ```

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// Global on/off switch. Off by default; every recording call checks this
/// first and bails with a single relaxed load when telemetry is disabled.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry on. Spans and counters recorded from this point on are
/// visible in [`TelemetryHub::summary`] / [`TelemetryHub::chrome_trace`].
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns telemetry off. Already-recorded data is kept (use
/// [`TelemetryHub::reset`] to drop it); in-flight span guards created while
/// enabled still record on drop.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether telemetry is currently enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide time origin: all span timestamps are nanoseconds since
/// the first enabled span. Monotonic (`Instant`), never wall clock.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span, as recorded by the thread that ran it.
#[derive(Debug, Clone)]
struct SpanRecord {
    name: &'static str,
    detail: Option<String>,
    start_ns: u64,
    dur_ns: u64,
    depth: u32,
}

/// Per-thread span cap: a hot loop traced for minutes (the gateway chaos
/// soak records one span per request) must not grow memory and the trace
/// file without bound. Past the cap, spans are counted in
/// [`SpanSink::dropped`] instead of stored; counters are unaffected.
const SPAN_CAP: usize = 1 << 18;

/// Per-thread span buffer, registered once with the hub. The mutex is
/// uncontended in steady state (only export locks it from another thread).
struct SpanSink {
    tid: u64,
    spans: Mutex<Vec<SpanRecord>>,
    /// Spans discarded after this sink hit [`SPAN_CAP`].
    dropped: AtomicU64,
}

thread_local! {
    /// This thread's registered sink (lazily created on first recorded span).
    static SINK: RefCell<Option<Arc<SpanSink>>> = const { RefCell::new(None) };
    /// Nesting depth of live spans on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Cache of counter handles, so steady-state increments skip the hub's
    /// registry lock entirely.
    static COUNTERS: RefCell<HashMap<&'static str, &'static AtomicU64>> =
        RefCell::new(HashMap::new());
}

fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The global registry of per-thread span sinks and named counters.
///
/// There is exactly one hub per process ([`hub`]); spans and counters from
/// every thread land here and are merged at export time.
pub struct TelemetryHub {
    sinks: Mutex<Vec<Arc<SpanSink>>>,
    counters: Mutex<BTreeMap<&'static str, &'static AtomicU64>>,
    next_tid: AtomicU64,
}

/// The process-wide [`TelemetryHub`].
pub fn hub() -> &'static TelemetryHub {
    static HUB: OnceLock<TelemetryHub> = OnceLock::new();
    HUB.get_or_init(|| TelemetryHub {
        sinks: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        next_tid: AtomicU64::new(1),
    })
}

/// Returns this thread's sink, registering a fresh one with the hub on
/// first use.
fn local_sink() -> Arc<SpanSink> {
    SINK.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(sink) = slot.as_ref() {
            return Arc::clone(sink);
        }
        let h = hub();
        let sink = Arc::new(SpanSink {
            tid: h.next_tid.fetch_add(1, Ordering::Relaxed),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        lock_ignore_poison(&h.sinks).push(Arc::clone(&sink));
        *slot = Some(Arc::clone(&sink));
        sink
    })
}

/// RAII guard for one timed span: created by [`span`] / [`span_with`],
/// records `(name, start, duration, nesting depth)` into the calling
/// thread's buffer when dropped. Inert (and allocation-free) when telemetry
/// was disabled at creation.
#[must_use = "a span guard measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    name: &'static str,
    detail: Option<String>,
    /// `None` when telemetry was disabled at creation: drop is a no-op.
    start: Option<Instant>,
    start_ns: u64,
    depth: u32,
}

impl SpanGuard {
    fn inert(name: &'static str) -> Self {
        Self { name, detail: None, start: None, start_ns: 0, depth: 0 }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let record = SpanRecord {
            name: self.name,
            detail: self.detail.take(),
            start_ns: self.start_ns,
            dur_ns,
            depth: self.depth,
        };
        let sink = local_sink();
        let mut spans = lock_ignore_poison(&sink.spans);
        if spans.len() < SPAN_CAP {
            spans.push(record);
        } else {
            sink.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Opens a timed span; the returned guard records it when dropped.
///
/// `name` should be a stable `scope/what` identifier (`"stage/route"`,
/// `"rf/fit_tree"`): the summary aggregates by exact name. When telemetry
/// is disabled this is one atomic load and returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::inert(name);
    }
    let origin = epoch();
    let now = Instant::now();
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard {
        name,
        detail: None,
        start: Some(now),
        start_ns: now.duration_since(origin).as_nanos() as u64,
        depth,
    }
}

/// Like [`span`], with a lazily-built detail string (shown in the Chrome
/// trace's `args`). The closure only runs when telemetry is enabled, so
/// formatting costs nothing in the disabled path.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::inert(name);
    }
    let mut guard = span(name);
    guard.detail = Some(detail());
    guard
}

/// Adds `delta` to the named counter. Counters are process-global relaxed
/// atomics, so concurrent increments from any threads merge exactly.
/// A `delta` of zero still registers the counter (useful to report "this
/// happened zero times" explicitly). Disabled: one atomic load, no effect.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    counter_handle(name).fetch_add(delta, Ordering::Relaxed);
}

fn counter_handle(name: &'static str) -> &'static AtomicU64 {
    COUNTERS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&handle) = cache.get(name) {
            return handle;
        }
        let mut registry = lock_ignore_poison(&hub().counters);
        let handle: &'static AtomicU64 =
            registry.entry(name).or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
        cache.insert(name, handle);
        handle
    })
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Serialize)]
pub struct SpanStats {
    /// Number of recorded spans with this name.
    pub count: u64,
    /// Total time across all occurrences, milliseconds.
    pub total_ms: f64,
    /// Mean duration, microseconds.
    pub mean_us: f64,
    /// Median duration, microseconds.
    pub p50_us: f64,
    /// 99th-percentile duration (nearest-rank), microseconds.
    pub p99_us: f64,
}

/// The JSON summary: per-span aggregate stats plus final counter values,
/// both keyed by name in sorted order.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySummary {
    /// Aggregates per span name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Final value per counter name.
    pub counters: BTreeMap<String, u64>,
    /// Spans discarded after a thread's buffer hit its cap (the stats
    /// above cover only the retained prefix of such threads).
    pub dropped_spans: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 1]`).
fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64
}

impl TelemetryHub {
    /// Merges every thread's buffer into one deterministically-ordered list:
    /// by start time, then thread id, then depth (parents before children at
    /// equal timestamps), then name.
    fn collect(&self) -> Vec<(u64, SpanRecord)> {
        let sinks = lock_ignore_poison(&self.sinks);
        let mut merged: Vec<(u64, SpanRecord)> = Vec::new();
        for sink in sinks.iter() {
            let spans = lock_ignore_poison(&sink.spans);
            merged.extend(spans.iter().map(|r| (sink.tid, r.clone())));
        }
        merged.sort_by(|(ta, a), (tb, b)| {
            (a.start_ns, *ta, a.depth, a.name).cmp(&(b.start_ns, *tb, b.depth, b.name))
        });
        merged
    }

    /// Total spans discarded across all threads after their buffers hit
    /// the per-thread cap.
    pub fn dropped_spans(&self) -> u64 {
        lock_ignore_poison(&self.sinks)
            .iter()
            .map(|sink| sink.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Builds the JSON-ready summary: per-span count/total/mean/p50/p99 and
    /// final counter values.
    pub fn summary(&self) -> TelemetrySummary {
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (_, record) in self.collect() {
            durations.entry(record.name).or_default().push(record.dur_ns);
        }
        let spans = durations
            .into_iter()
            .map(|(name, mut ns)| {
                ns.sort_unstable();
                let total: u64 = ns.iter().sum();
                let stats = SpanStats {
                    count: ns.len() as u64,
                    total_ms: total as f64 / 1e6,
                    mean_us: total as f64 / 1e3 / ns.len() as f64,
                    p50_us: percentile(&ns, 0.50) / 1e3,
                    p99_us: percentile(&ns, 0.99) / 1e3,
                };
                (name.to_string(), stats)
            })
            .collect();
        let counters = lock_ignore_poison(&self.counters)
            .iter()
            .map(|(&name, value)| (name.to_string(), value.load(Ordering::Relaxed)))
            .collect();
        TelemetrySummary { spans, counters, dropped_spans: self.dropped_spans() }
    }

    /// Renders every recorded span (and final counter values) in Chrome
    /// trace-event format: open the result in `chrome://tracing` or
    /// <https://ui.perfetto.dev>. Timestamps are microseconds since the
    /// telemetry epoch; output is deterministic for a given set of records.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<serde_json::Value> = Vec::new();
        let mut last_ts_us = 0.0f64;
        for (tid, record) in self.collect() {
            let ts_us = record.start_ns as f64 / 1e3;
            let dur_us = record.dur_ns as f64 / 1e3;
            last_ts_us = last_ts_us.max(ts_us + dur_us);
            let mut args = serde_json::json!({ "depth": record.depth });
            if let Some(detail) = &record.detail {
                args["detail"] = serde_json::Value::from(detail.clone());
            }
            events.push(serde_json::json!({
                "name": record.name,
                "cat": "drcshap",
                "ph": "X",
                "ts": ts_us,
                "dur": dur_us,
                "pid": 1,
                "tid": tid,
                "args": args,
            }));
        }
        for (&name, value) in lock_ignore_poison(&self.counters).iter() {
            events.push(serde_json::json!({
                "name": name,
                "cat": "drcshap",
                "ph": "C",
                "ts": last_ts_us,
                "pid": 1,
                "tid": 0,
                "args": { "value": value.load(Ordering::Relaxed) },
            }));
        }
        // Make a truncated trace say so, in the trace itself.
        let dropped = self.dropped_spans();
        if dropped > 0 {
            events.push(serde_json::json!({
                "name": "telemetry/spans_dropped",
                "cat": "drcshap",
                "ph": "C",
                "ts": last_ts_us,
                "pid": 1,
                "tid": 0,
                "args": { "value": dropped },
            }));
        }
        let trace = serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
        });
        serde_json::to_string_pretty(&trace).expect("trace serializes")
    }

    /// Drops all recorded spans and zeroes all counters. Registered sinks
    /// and counter identities survive (threads keep their cached handles);
    /// only the data is cleared. Intended for tests and between-phase resets.
    pub fn reset(&self) {
        for sink in lock_ignore_poison(&self.sinks).iter() {
            lock_ignore_poison(&sink.spans).clear();
            sink.dropped.store(0, Ordering::Relaxed);
        }
        for value in lock_ignore_poison(&self.counters).values() {
            value.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; tests that record must not
    /// interleave. (`cargo test` runs them on multiple threads.)
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        hub().reset();
        enable();
        guard
    }

    fn teardown() {
        disable();
        hub().reset();
    }

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let _guard = exclusive();
        {
            let _outer = span("test/outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test/inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let records = hub().collect();
        let outer = records.iter().find(|(_, r)| r.name == "test/outer").unwrap();
        let inner = records.iter().find(|(_, r)| r.name == "test/inner").unwrap();
        assert_eq!(outer.1.depth, 0);
        assert_eq!(inner.1.depth, 1);
        // The inner span lies inside the outer span's interval.
        assert!(inner.1.start_ns >= outer.1.start_ns);
        assert!(
            inner.1.start_ns + inner.1.dur_ns <= outer.1.start_ns + outer.1.dur_ns,
            "inner must end before outer"
        );
        assert!(outer.1.dur_ns > inner.1.dur_ns);
        teardown();
    }

    #[test]
    fn summary_aggregates_counts_and_percentiles() {
        let _guard = exclusive();
        for _ in 0..10 {
            let _s = span("test/repeat");
        }
        let summary = hub().summary();
        let stats = &summary.spans["test/repeat"];
        assert_eq!(stats.count, 10);
        assert!(stats.total_ms >= 0.0);
        assert!(stats.p50_us <= stats.p99_us, "{stats:?}");
        assert!(stats.mean_us * 10.0 <= stats.total_ms * 1000.0 + 1e-6);
        teardown();
    }

    /// Runs `body(worker)` on four scoped threads at once: each records
    /// into its own sink, which export must merge.
    fn on_four_threads(body: impl Fn(u64) + Sync) {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let (start, body) = (&start, &body);
                scope.spawn(move || {
                    start.wait();
                    body(worker);
                });
            }
        });
    }

    #[test]
    fn counters_merge_across_threads() {
        let _guard = exclusive();
        on_four_threads(|_| {
            for i in 0..250 {
                counter("test/par_events", 1);
                if i % 2 == 0 {
                    let _s = span("test/par_span");
                }
            }
        });
        let summary = hub().summary();
        assert_eq!(summary.counters["test/par_events"], 1000);
        assert_eq!(summary.spans["test/par_span"].count, 500);
        teardown();
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = exclusive();
        disable();
        {
            let _s = span("test/should_not_appear");
            counter("test/should_not_count", 5);
        }
        let summary = hub().summary();
        assert!(!summary.spans.contains_key("test/should_not_appear"));
        assert!(!summary.counters.contains_key("test/should_not_count"));
        teardown();
    }

    #[test]
    fn chrome_trace_is_valid_json_and_deterministic() {
        let _guard = exclusive();
        on_four_threads(|worker| {
            for _ in 0..2 {
                let _s = span_with("test/traced", || format!("worker {worker}"));
                counter("test/traced_count", 1);
            }
        });
        let a = hub().chrome_trace();
        let b = hub().chrome_trace();
        assert_eq!(a, b, "export must be deterministic for fixed records");
        let parsed: serde_json::Value = serde_json::from_str(&a).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        let traced: Vec<_> = events.iter().filter(|e| e["name"] == "test/traced").collect();
        assert_eq!(traced.len(), 8, "2 spans from each of 4 threads");
        let tids: std::collections::BTreeSet<_> =
            traced.iter().map(|e| e["tid"].as_u64().unwrap()).collect();
        assert_eq!(tids.len(), 4, "one sink per thread: {tids:?}");
        for e in events {
            for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
                assert!(e.get(key).is_some(), "event missing {key}: {e}");
            }
        }
        assert!(events.iter().any(|e| e["ph"] == "C"), "counter event present");
        teardown();
    }

    #[test]
    fn reset_clears_spans_and_zeroes_counters() {
        let _guard = exclusive();
        {
            let _s = span("test/reset_me");
        }
        counter("test/reset_count", 7);
        hub().reset();
        let summary = hub().summary();
        assert!(summary.spans.is_empty() || !summary.spans.contains_key("test/reset_me"));
        assert_eq!(summary.counters.get("test/reset_count"), Some(&0));
        teardown();
    }

    #[test]
    fn span_with_skips_detail_closure_when_disabled() {
        let _guard = exclusive();
        disable();
        let _s = span_with("test/lazy", || unreachable!("detail built while disabled"));
        teardown();
    }

    #[test]
    fn span_buffer_is_capped_and_drops_are_reported() {
        let _guard = exclusive();
        for _ in 0..SPAN_CAP + 100 {
            let _s = span("test/capped");
        }
        let summary = hub().summary();
        assert_eq!(summary.spans["test/capped"].count as usize, SPAN_CAP);
        assert_eq!(summary.dropped_spans, 100);
        // The trace itself says it was truncated.
        let trace = hub().chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        let drop_event = events
            .iter()
            .find(|e| e["name"] == "telemetry/spans_dropped")
            .expect("truncated trace must carry a spans_dropped counter");
        assert_eq!(drop_event["args"]["value"], 100);
        // reset() rearms the buffer and zeroes the drop count.
        hub().reset();
        assert_eq!(hub().summary().dropped_spans, 0);
        teardown();
    }
}
