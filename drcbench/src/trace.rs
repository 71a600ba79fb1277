//! Bench-side tracing: in-memory spans around the public calls each op
//! makes, written out once at exit as Chrome trace-event JSON (which
//! Perfetto and `chrome://tracing` open), plus the per-layer metrics and
//! layer table derived from them.
//!
//! Lane 1 holds each op's own span and the public calls inside it. Lane 2
//! holds the isolation pass that follows each op: the same inputs sent
//! through the layers' own entry points, which is how nested layers are
//! timed without instrumenting the program.

use std::fmt::Write as _;
use std::time::Instant;

use crate::Metric;

/// Lane of an op and the public calls it makes.
pub(crate) const CLIENT: u8 = 1;
/// Lane of the isolation pass over an op's inputs.
pub(crate) const ISOLATION: u8 = 2;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.synth_ms", "ms"),
    ("place.place_ms", "ms"),
    ("route.route_ms", "ms"),
    ("drc.label_ms", "ms"),
    ("features.extract_ms", "ms"),
    ("features.gcells", "count"),
    ("forest.predict_ms", "ms"),
    ("forest.fit_s", "s"),
    ("shap.explain_ms", "ms"),
    ("shap.explain_us", "us"),
    ("core.corpus_s", "s"),
    ("core.decode_ms", "ms"),
    ("core.triage_other_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_fill", "share"),
    ("serve.start_ms", "ms"),
    ("serve.self_us", "us"),
    ("serve.kernel_us", "us"),
    ("serve.kernel_share", "share"),
    ("gateway.self_us", "us"),
    ("gateway.attempts", "count"),
    ("gateway.start_ms", "ms"),
    ("xsat.explain_ms", "ms"),
    ("xsat.sat_calls", "count"),
    ("xsat.conflicts", "count"),
    ("xsat.propagations", "count"),
    ("xsat.timeouts", "count"),
    ("xsat.encode_ms", "ms"),
    ("analytics.fold_us", "us"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_pct", "%"),
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Sequence number of the op the span belongs to.
    pub op: usize,
    /// [`CLIENT`] or [`ISOLATION`].
    pub lane: u8,
}

/// An in-memory span recorder. A disabled tracer only runs the calls.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self { origin: Instant::now(), enabled: true, spans: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::new() }
    }

    /// Opens a span; returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        lane: u8,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op, lane });
        self.spans.len() - 1
    }

    /// Closes a span; returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        lane: u8,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op, lane);
        let out = f();
        self.close(id);
        out
    }

    /// Number of spans named `name` and their summed duration (ns).
    pub fn total(&self, name: &str) -> (usize, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, sum), s| (n + 1, sum + (s.end_ns - s.start_ns) as f64))
    }

    /// Summed duration (ns) of the spans named `name`, per op.
    pub fn per_op_ns(&self, name: &str, ops: usize) -> f64 {
        self.total(name).1 / ops.max(1) as f64
    }

    /// Writes the spans of ops `0..max_ops` as Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// The I/O error of creating the directory or writing the file.
    pub fn write_chrome(&self, path: &std::path::Path, max_ops: usize) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op < max_ops) {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"drcbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-layer metrics of a traced run: every name in [`PER_LAYER`],
/// zero where the workload leaves the layer idle.
#[derive(Debug, Clone)]
pub(crate) struct LayerMetrics {
    values: Vec<f64>,
}

impl Default for LayerMetrics {
    fn default() -> Self {
        Self { values: vec![0.0; PER_LAYER.len()] }
    }
}

impl LayerMetrics {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// On a name missing from [`PER_LAYER`] (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.values[i] = value;
    }

    /// The metrics, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| Metric { name, value, unit })
            .collect()
    }
}

/// Renders the layer table of one workload: each layer's time per op and
/// share of the op, then the unattributed remainder. Returns the lines and
/// the unattributed share.
pub(crate) fn layer_table(workload: &str, op_ns: f64, rows: &[(&str, f64)]) -> (Vec<String>, f64) {
    let mut lines = vec![format!("layer table ({workload}, per op, op = {:.1} us):", op_ns / 1e3)];
    let mut attributed = 0.0;
    for &(layer, ns) in rows {
        attributed += ns;
        lines.push(format!("  {layer:<48} {:>12.1} us {:>7.2}%", ns / 1e3, 100.0 * ns / op_ns));
    }
    let unattributed = (op_ns - attributed) / op_ns;
    lines.push(format!(
        "  {:<48} {:>12.1} us {:>7.2}%",
        "unattributed",
        (op_ns - attributed) / 1e3,
        100.0 * unattributed
    ));
    (lines, unattributed)
}

/// The tracing-overhead line: traced minus untraced p50, as a share of
/// the untraced p50 (in percent).
pub(crate) fn overhead(untraced_p50_ns: u64, traced_p50_ns: u64) -> (String, f64) {
    let pct = 100.0 * (traced_p50_ns as f64 - untraced_p50_ns as f64) / untraced_p50_ns as f64;
    let line = format!(
        "tracing overhead: traced p50 {:.1} us - untraced p50 {:.1} us = {pct:+.2}%",
        traced_p50_ns as f64 / 1e3,
        untraced_p50_ns as f64 / 1e3
    );
    (line, pct)
}
