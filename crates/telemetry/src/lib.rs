#![warn(missing_docs)]
//! Lightweight workspace telemetry: RAII spans and relaxed-atomic counters,
//! exported as a JSON summary (per-span count/total/p50/p99) or as Chrome
//! trace-event format loadable in `chrome://tracing` / Perfetto, plus the
//! workspace's one quantile structure, the deterministic mergeable
//! [`QuantileSketch`] ([`sketch`]), and the owned metrics a serving engine
//! or gateway keeps for its own snapshot ([`metrics`]).
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Telemetry is off by default. A
//!    disabled [`span`] or [`counter`] call, and the process-wide mirror
//!    of a [`Counter::add`], is one relaxed atomic load — no allocation,
//!    no clock read, no thread-local initialisation. Hot loops (per-tree
//!    fits, router rounds, serve flushes) can stay instrumented
//!    unconditionally.
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

pub mod metrics;
pub mod sketch;

pub use metrics::{Counter, Latency, Quantiles};
pub use sketch::{BucketEntry, QuantileSketch, SketchParams};

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

/// Per-thread cap on the spans kept for the Chrome trace: a hot loop
/// traced for minutes (the gateway chaos soak records one span per
/// request) must not grow memory and the trace file without bound. Past
/// the cap, spans are counted in [`SinkState::dropped`] instead of stored;
/// the summary and counters still cover them.
const SPAN_CAP: usize = 1 << 18;

/// Per-thread span buffer, registered once with the hub. The mutex is
/// uncontended in steady state (only export locks it from another thread).
struct SpanSink {
    tid: u64,
    state: Mutex<SinkState>,
}

#[derive(Default)]
struct SinkState {
    /// The spans kept for the Chrome trace, at most [`SPAN_CAP`].
    records: Vec<SpanRecord>,
    /// Spans left out of `records` after it hit [`SPAN_CAP`].
    dropped: u64,
    /// Every span's duration in nanoseconds, folded per name as it is
    /// recorded: the total and a sketch.
    durations: BTreeMap<&'static str, (u64, QuantileSketch)>,
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
            state: Mutex::new(SinkState::default()),
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
        let mut state = lock_ignore_poison(&sink.state);
        let (total, durations) = state.durations.entry(self.name).or_default();
        *total += dur_ns;
        durations.insert(dur_ns as f64);
        if state.records.len() < SPAN_CAP {
            state.records.push(record);
        } else {
            state.dropped += 1;
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
    /// Median duration, microseconds, from a [`QuantileSketch`] of the
    /// durations (within 2^-7 of the rank-⌈n/2⌉ duration).
    pub p50_us: f64,
    /// 99th-percentile duration, microseconds, from the same sketch.
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
    /// Spans left out of the Chrome trace after a thread's buffer hit its
    /// cap (the stats above still cover them).
    pub dropped_spans: u64,
    /// The snapshot of the serving engine or gateway the process ran,
    /// nested whole by [`TelemetryHub::stats_line`]; `None` otherwise.
    pub metrics: Option<serde_json::Value>,
}

impl TelemetryHub {
    /// Merges every thread's buffer into one deterministically-ordered list
    /// (for [`TelemetryHub::chrome_trace`]): by start time, then thread id,
    /// then depth (parents before children at equal timestamps), then name.
    fn collect(&self) -> Vec<(u64, SpanRecord)> {
        let sinks = lock_ignore_poison(&self.sinks);
        let mut merged: Vec<(u64, SpanRecord)> = Vec::new();
        for sink in sinks.iter() {
            let state = lock_ignore_poison(&sink.state);
            merged.extend(state.records.iter().map(|r| (sink.tid, r.clone())));
        }
        merged.sort_by(|(ta, a), (tb, b)| {
            (a.start_ns, *ta, a.depth, a.name).cmp(&(b.start_ns, *tb, b.depth, b.name))
        });
        merged
    }

    /// Builds the JSON-ready summary: per-span count/total/mean/p50/p99 over
    /// every recorded span, and final counter values.
    ///
    /// Each thread folds its spans per name as it records them; this
    /// merges those folds, which gives the same totals and sketches
    /// whatever order the threads are merged in.
    pub fn summary(&self) -> TelemetrySummary {
        let mut durations: BTreeMap<&'static str, (u64, QuantileSketch)> = BTreeMap::new();
        let mut dropped_spans = 0;
        for sink in lock_ignore_poison(&self.sinks).iter() {
            let state = lock_ignore_poison(&sink.state);
            dropped_spans += state.dropped;
            for (&name, (total, ns)) in &state.durations {
                let (merged_total, merged) = durations.entry(name).or_default();
                *merged_total += total;
                merged.merge(ns).expect("span sketches share the default params");
            }
        }
        let spans = durations
            .into_iter()
            .map(|(name, (total, ns))| {
                let Quantiles { p50_us, p99_us } = Quantiles::of(&ns);
                let stats = SpanStats {
                    count: ns.count(),
                    total_ms: total as f64 / 1e6,
                    mean_us: total as f64 / 1e3 / ns.count() as f64,
                    p50_us,
                    p99_us,
                };
                (name.to_string(), stats)
            })
            .collect();
        let counters = lock_ignore_poison(&self.counters)
            .iter()
            .map(|(&name, value)| (name.to_string(), value.load(Ordering::Relaxed)))
            .collect();
        TelemetrySummary { spans, counters, dropped_spans, metrics: None }
    }

    /// The one `--stats` document: [`TelemetryHub::summary`] on a single
    /// compact JSON line, with `metrics` — the snapshot of the serving
    /// engine or gateway the process ran, if any — nested under
    /// `"metrics"`.
    pub fn stats_line(&self, metrics: Option<serde_json::Value>) -> String {
        let summary = TelemetrySummary { metrics, ..self.summary() };
        serde_json::to_string(&summary).expect("the summary serializes")
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
        let dropped: u64 = lock_ignore_poison(&self.sinks)
            .iter()
            .map(|sink| lock_ignore_poison(&sink.state).dropped)
            .sum();
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
            *lock_ignore_poison(&sink.state) = SinkState::default();
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
    fn owned_counters_mirror_into_the_hub_only_while_enabled() {
        let _guard = exclusive();
        static OWNED: Counter = Counter::new("test/owned");
        on_four_threads(|_| OWNED.add(5));
        disable();
        OWNED.add(1);
        assert_eq!(OWNED.get(), 21, "the owner counts whether or not telemetry is on");
        assert_eq!(hub().summary().counters["test/owned"], 20);
        teardown();
    }

    #[test]
    fn summary_folds_every_threads_spans_as_collect_sees_them() {
        let _guard = exclusive();
        on_four_threads(|worker| {
            for i in 0..40 + 10 * worker {
                let _s = span(if i % 3 == 0 { "test/fold_a" } else { "test/fold_b" });
                if i % 5 == 0 {
                    let _inner = span("test/fold_inner");
                }
            }
        });
        let mut expected: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (_, record) in hub().collect() {
            let (count, total_ns) = expected.entry(record.name).or_default();
            *count += 1;
            *total_ns += record.dur_ns;
        }
        let summary = hub().summary();
        assert_eq!(summary.spans.len(), 3);
        for (name, (count, total_ns)) in expected {
            let stats = &summary.spans[name];
            assert_eq!(stats.count, count, "{name}");
            assert_eq!(stats.total_ms.to_bits(), (total_ns as f64 / 1e6).to_bits(), "{name}");
        }
        // 40 + 50 + 60 + 70 spans, a third of each thread's on `fold_a`.
        assert_eq!(summary.spans["test/fold_a"].count, 14 + 17 + 20 + 24);
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
        // The summary covers every span; only the trace is capped.
        assert_eq!(summary.spans["test/capped"].count as usize, SPAN_CAP + 100);
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
