//! The repository's end-to-end benchmark.
//!
//! Four seeded, closed-loop workloads drive the workspace's public entry
//! points in-process with one client thread, check every output, and
//! report `setup_s`, `ops_per_s`, `p50_us` and `tail_us`. A traced run
//! replays the same seeded ops with in-memory spans around each public
//! call and splits every op across the layers it crosses (see
//! [`trace`]). Why each workload exists, and which layers it loads, is
//! recorded in `BENCHMARK.json` at the repository root.
//!
//! Every op sequence is a pure function of the seed: ops come in cycles,
//! each a seeded permutation (or, for `abductive`, a seeded stratified
//! sample) of the workload's inputs, and a timed phase always runs whole
//! cycles. Every seed therefore times the same mix of inputs, in a
//! different order; only the order and, for `abductive`, the cells drawn
//! depend on the seed.

mod serving;
pub mod trace;
mod triage;

use std::time::Instant;

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::DrcshapError;

/// Seed of every forest fit (the CLI's).
pub(crate) const FIT_SEED: u64 = 42;
/// Largest local-accuracy gap |base + sum(phi) - f(x)| a SHAP explanation
/// may show (the paper's Eq. 1).
pub(crate) const MAX_SHAP_GAP: f64 = 1e-9;
/// A traced run writes the spans of this many leading ops to its file.
pub(crate) const TRACE_OPS: usize = 2048;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build one design, then `Explainer::triage` it (the paper's Fig. 1).
    Triage,
    /// Score one design's g-cells through `ServeEngine::submit`.
    Bulk,
    /// One g-cell row through `Gateway::score`.
    Score,
    /// `Gateway::explain_both` on one g-cell.
    Abductive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Triage, Workload::Bulk, Workload::Score, Workload::Abductive];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Triage => "triage",
            Workload::Bulk => "bulk",
            Workload::Score => "score",
            Workload::Abductive => "abductive",
        }
    }

    /// The percentile `tail_us` reports. Each leaves at least ten samples
    /// beyond it at the committed run length, and each is the highest that
    /// repeated within a few percent across seeds on a 2-vCPU VM:
    /// `triage` completes only ~42 ops in 10 s, too few for p90; the p99 of
    /// `bulk` and `score` varied by 18-38% (interquartile range over
    /// median) from run to run, their p90 and p95 by 3-7%; `abductive`'s
    /// p90 sits at the edge of a cluster of slow explanations (p95 ~100 ms
    /// against a ~72 ms median) and jumped by a third while the host was
    /// contended, where its p75 held.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::Triage | Workload::Abductive => 0.75,
            Workload::Bulk => 0.90,
            Workload::Score => 0.95,
        }
    }
}

/// Input sizes and model shapes. [`Size::full`] is the benchmark;
/// [`Size::tiny`] exists so tests can run every workload in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Scale of the 14-design corpus the models train on and the serving
    /// workloads draw rows from.
    pub corpus_scale: f64,
    /// Scale of the design each `triage` op builds.
    pub triage_scale: f64,
    /// Trees in the unpruned forest (`triage`, `bulk`, `score`).
    pub trees: usize,
    /// Trees in the compact forest (`abductive`).
    pub compact_trees: usize,
    /// Depth limit of the compact forest.
    pub compact_depth: usize,
    /// How many of the highest-scoring cells `abductive` draws from.
    pub top_cells: usize,
    /// Set-ups per run of `triage` (each builds the corpus and fits).
    pub triage_setups: usize,
    /// Set-ups per run of the serving workloads.
    pub serving_setups: usize,
}

impl Size {
    /// The committed benchmark size.
    pub fn full() -> Self {
        Self {
            corpus_scale: 0.25,
            triage_scale: 0.5,
            trees: 100,
            compact_trees: 25,
            compact_depth: 5,
            top_cells: 256,
            triage_setups: 3,
            serving_setups: 9,
        }
    }

    /// A size small enough for tests.
    pub fn tiny() -> Self {
        Self {
            corpus_scale: 0.1,
            triage_scale: 0.1,
            trees: 4,
            compact_trees: 3,
            compact_depth: 3,
            top_cells: 16,
            triage_setups: 1,
            serving_setups: 1,
        }
    }
}

/// The unpruned forest's trainer (`triage`, `bulk`, `score`).
pub(crate) fn unpruned_trainer(size: &Size) -> RandomForestTrainer {
    RandomForestTrainer { n_trees: size.trees, ..Default::default() }
}

/// The compact forest's trainer (`abductive`): unpruned forests are too
/// deep for the SAT encoding to explain in reasonable time.
pub(crate) fn compact_trainer(size: &Size) -> RandomForestTrainer {
    RandomForestTrainer {
        n_trees: size.compact_trees,
        max_depth: Some(size.compact_depth),
        ..Default::default()
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the op sequence.
    pub seed: u64,
    /// Length of each timed phase, in seconds (whole cycles are run).
    pub seconds: f64,
    /// Whether to run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops attempted in the timed phases.
    pub attempted: u64,
    /// Ops that errored, failed a check, or (in `abductive`) degraded.
    pub failed: u64,
    /// CRC32 over the outputs of the first cycle of ops.
    pub digest: u32,
    /// Input ids of the first cycle of ops, in order.
    pub first_cycle: Vec<usize>,
    /// `setup_s`, `ops_per_s`, `p50_us`, `tail_us`.
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric (zero where the layer is idle); empty
    /// unless traced.
    pub per_layer: Vec<Metric>,
    /// Provenance, knobs, check verdicts and the layer table.
    pub notes: Vec<String>,
}

/// The serve engine picks its scoring kernel from this variable when it
/// starts; the benchmark always measures the engine's own choice.
const KERNEL_ENV: &str = "DRCSHAP_KERNEL";

/// Where traced runs write their Chrome trace-event files.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Runs one workload. `DRCSHAP_KERNEL` is cleared before any engine
/// starts.
///
/// # Errors
///
/// Any error a set-up step returns (an op's error is counted as a failed
/// op instead).
pub fn run(opts: &Options) -> Result<Outcome, DrcshapError> {
    if std::env::var_os(KERNEL_ENV).is_some() {
        eprintln!("note: ignoring {KERNEL_ENV}; the engine picks its own kernel");
        std::env::remove_var(KERNEL_ENV);
    }
    match opts.workload {
        Workload::Triage => triage::run(opts),
        Workload::Bulk => serving::run_bulk(opts),
        Workload::Score => serving::run_score(opts),
        Workload::Abductive => serving::run_abductive(opts),
    }
}

/// SplitMix64: the op-sequence generator. The benchmark owns it, so op
/// sequences do not change when the workspace's `rand` does.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// CRC-32 (IEEE), the format of every output digest.
#[derive(Debug, Clone)]
pub(crate) struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self(!0)
    }
}

impl Crc32 {
    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let mut c = (self.0 ^ u32::from(b)) & 0xff;
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            self.0 = (self.0 >> 8) ^ c;
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Feeds an `f64`'s bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// The timed part of a run: latencies of the completed ops and the op
/// counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Phase {
    /// Latency of each completed op, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Wall time of the phase, in seconds.
    pub wall_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Input ids of the first cycle.
    pub first_cycle: Vec<usize>,
}

/// Runs one client's closed loop: whole cycles from `next_cycle`, each op
/// issued after the previous one returned, until `seconds` have elapsed
/// at a cycle boundary. `op(cycle, seq, input)` returns the op's latency
/// in nanoseconds, or `None` when it failed.
pub(crate) fn closed_loop(
    seconds: f64,
    mut next_cycle: impl FnMut() -> Vec<usize>,
    mut op: impl FnMut(usize, usize, usize) -> Option<u64>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut seq = 0;
    for cycle in 0.. {
        let inputs = next_cycle();
        if cycle == 0 {
            phase.first_cycle = inputs.clone();
        }
        for input in inputs {
            phase.attempted += 1;
            match op(cycle, seq, input) {
                Some(ns) => phase.latencies_ns.push(ns),
                None => phase.failed += 1,
            }
            seq += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// An op's result for [`closed_loop`]: its latency when its outputs pass
/// the checks, otherwise `None` and one more check violation. (An op that
/// errors fails without a violation: the run stays correct.)
pub(crate) fn check(ok: bool, ns: u64, violations: &mut u64) -> Option<u64> {
    *violations += u64::from(!ok);
    ok.then_some(ns)
}

/// Nanoseconds elapsed since `t0`.
pub(crate) fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Nearest-rank percentile of unsorted samples, with the number of
/// samples above its rank.
pub(crate) fn percentile(samples: &[u64], q: f64) -> (u64, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n == 0 {
        return (0, 0);
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Median of floating-point samples (mean of the middle two when even).
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The end-to-end metrics of a run, and a note on the tail's sample count.
pub(crate) fn end_to_end(
    workload: Workload,
    setups_s: &[f64],
    phase: &Phase,
) -> (Vec<Metric>, String) {
    let completed = phase.latencies_ns.len();
    let (p50, _) = percentile(&phase.latencies_ns, 0.5);
    let q = workload.tail_quantile();
    let (tail, beyond) = percentile(&phase.latencies_ns, q);
    let metrics = vec![
        Metric { name: "setup_s", value: median(setups_s), unit: "s" },
        Metric { name: "ops_per_s", value: completed as f64 / phase.wall_s, unit: "1/s" },
        Metric { name: "p50_us", value: p50 as f64 / 1e3, unit: "us" },
        Metric { name: "tail_us", value: tail as f64 / 1e3, unit: "us" },
    ];
    let spread: Vec<String> = [0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| {
            format!("p{} {:.1}", q * 100.0, percentile(&phase.latencies_ns, q).0 as f64 / 1e3)
        })
        .collect();
    let note = format!(
        "tail_us: p{} over {completed} completed ops, {beyond} samples beyond it ({} set-ups, median reported); latency us: {}",
        q * 100.0,
        setups_s.len(),
        spread.join(", ")
    );
    (metrics, note)
}

/// Writes a traced run's spans to `drcbench/out/`; returns the note naming
/// the file.
///
/// # Errors
///
/// The I/O error of writing the file.
pub(crate) fn write_trace(tracer: &trace::Tracer, opts: &Options) -> Result<String, DrcshapError> {
    let name = format!("trace-{}-seed{}.json", opts.workload.name(), opts.seed);
    let path = std::path::Path::new(TRACE_DIR).join(name);
    tracer
        .write_chrome(&path, TRACE_OPS)
        .map_err(|e| DrcshapError::io(path.display().to_string(), e))?;
    Ok(format!(
        "trace: {} (spans of the first {TRACE_OPS} ops, Chrome trace-event JSON)",
        path.display()
    ))
}

/// Assembles a run's outcome: the end-to-end metrics of the untraced
/// `phase`, and with `traced`, the replay's op counts and per-layer
/// metrics.
pub(crate) fn outcome(
    opts: &Options,
    setups_s: &[f64],
    phase: &Phase,
    traced: Option<(&Phase, Vec<Metric>)>,
    correct: bool,
    digest: &Crc32,
    mut notes: Vec<String>,
) -> Outcome {
    let (end_to_end, tail_note) = end_to_end(opts.workload, setups_s, phase);
    notes.push(tail_note);
    notes.push(format!(
        "digest: crc32 {:#010x} over the first cycle ({} ops)",
        digest.finish(),
        phase.first_cycle.len()
    ));
    let (extra_attempted, extra_failed, per_layer) =
        traced.map_or((0, 0, Vec::new()), |(t, m)| (t.attempted, t.failed, m));
    Outcome {
        correct,
        attempted: phase.attempted + extra_attempted,
        failed: phase.failed + extra_failed,
        digest: digest.finish(),
        first_cycle: phase.first_cycle.clone(),
        end_to_end,
        per_layer,
        notes,
    }
}

/// Trees, total nodes and mean leaves per tree of a forest.
pub(crate) fn forest_shape(forest: &RandomForest) -> String {
    let trees = forest.trees();
    let leaves: usize =
        trees.iter().map(|t| t.nodes().iter().filter(|n| n.is_leaf()).count()).sum();
    format!(
        "{} trees, {} nodes, {:.1} mean leaves",
        trees.len(),
        forest.total_nodes(),
        leaves as f64 / trees.len().max(1) as f64
    )
}

/// Host and build provenance: nproc, CPU model, rustc version, git SHA.
pub(crate) fn host_provenance() -> Vec<String> {
    let usable = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let online = cpuinfo.lines().filter(|l| l.starts_with("processor")).count();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |m| m.trim().to_string());
    vec![
        format!("nproc: {online} online, {usable} in this process's affinity mask"),
        format!("cpu: {cpu}"),
        format!("rustc: {}", command_line("rustc", &["-V"])),
        format!("git: {}", command_line("git", &["rev-parse", "HEAD"])),
    ]
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size in MB (`VmHWM`), 0 where `/proc` lacks it.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
