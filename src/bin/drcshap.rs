//! `drcshap` — command-line front end to the workflow.
//!
//! ```text
//! drcshap list                             the 14-design suite with Table I stats
//! drcshap build <design> [scale]           run the pipeline, print summaries + heatmap
//! drcshap explain <design> [scale]         train (grouped) and explain 3 hotspots
//! drcshap explain --model <artifact> [--method shap|abductive|both]
//!                 [--cases <file.jsonl> | --design <name> [--scale <s>]]
//!                 [--interactions] [--limit <n>] [--top <k>]
//!                 [--budget-conflicts <n>]
//!     explain a saved RF artifact's predictions as one bit-stable JSON
//!     document: SHAP attributions, SAT-based abductive explanations
//!     (subset-minimal sufficient reasons + contrastive duals), or both,
//!     with provenance (artifact CRC, schema fingerprint, epoch);
//!     `--interactions` adds each case's top-k SHAP interaction pairs;
//!     an exhausted conflict budget is reported per case as
//!     `abductive_timeout`, never a crash
//! drcshap analytics <--model <artifact> [--cases <file.jsonl> |
//!                    --design <name> [--scale <s>]] [--interactions]
//!                    [--limit <n>] | --snapshot <file>...>
//!                   [--top <k>] [--out <snapshot.json>]
//!     streaming explanation analytics: live mode explains every case
//!     through a serve engine with the analytics sink mounted and prints
//!     the rendered report (per-feature quantiles, beeswarm bins,
//!     dependence curves, top-k ranking) as one JSON line; snapshot mode
//!     merges saved snapshot files (bit-stable in any order) into the
//!     same report; `--out` writes the raw mergeable snapshot
//! drcshap triage <design> [scale] [p]      archetype triage of predicted hotspots
//! drcshap export <design> <dir> [scale]    write CSV dataset + DEF
//! drcshap train <design> <out.model> [scale] [--registry <dir>]
//!     fit RF, save a versioned artifact; `--registry` also publishes it
//!     as the next generation of the crash-safe model registry at <dir>
//! drcshap registry <dir> <ls | verify | gc --keep <n>>
//!     inspect and maintain a model registry: `ls` lists journaled
//!     generations read-only, `verify` re-proves every blob (hash,
//!     checksum, fingerprint, decode) and quarantines failures, `gc`
//!     keeps the newest n generations and deletes unreferenced blobs
//! drcshap predict <model> <design> [scale]     load artifact, score the design
//! drcshap run <dir> [scale] [--deadline <secs>] [--design <name>]
//!     supervised suite build with checkpoints into <dir>; `--design`
//!     restricts the run to one design
//! drcshap resume <dir> [--deadline <secs>]         resume a run from its manifest
//! drcshap serve <model> [--design <name>] [--scale <s>] [--batch <n>]
//!               [--wait-ms <ms>] [--workers <n>] [--queue <n>] [--nan-aware]
//!               [--stats]
//!     batched inference through the serve engine: scores JSONL feature rows
//!     from stdin (one JSON array per line) to JSONL on stdout, or a whole
//!     built design with `--design`, through the compiled forest;
//!     `--stats` nests the engine's metrics in its JSON line on stderr
//! drcshap gateway <model> [--shards <n>] [--batch <n>] [--wait-ms <ms>]
//!                 [--workers <n>] [--queue <n>] [--nan-aware]
//!                 [--deadline-ms <ms>] [--hedge-ms <ms>] [--retries <n>]
//!                 [--quota-burst <b>] [--quota-refill <r>]
//!                 [--listen <addr>] [--max-conns <n>] [--stats]
//!     multi-shard serving through the gateway: scores JSONL requests from
//!     stdin — each line either a bare JSON feature array or an object
//!     {"x":[..],"tenant":"..","priority":"high|normal|low",
//!     "deadline_ms":..,"key":..} — to JSONL on stdout; typed sheds
//!     (overload, deadline) are emitted as JSON error lines, not process
//!     failures. `--listen <addr>` starts a minimal TCP front end serving
//!     the same protocol per connection (`--max-conns` bounds how many
//!     before exiting); `--stats` nests the gateway's metrics, with each
//!     shard engine's, in its JSON line on stderr
//! drcshap testkit run [--seeds <n>] [--base-seed <s>] [--check <name>]...
//!                     [--soak-secs <t>] [--gateway-soak-secs <t>]
//!                     [--crash-soak-iters <n>] [--xsat-checks]
//!     sweep every conformance check (with `--xsat-checks`, also the
//!     SAT-explainer consistency oracles; repeatable `--check` narrows the
//!     sweep to the named checks and skips the soaks unless they are
//!     requested explicitly) over n consecutive seeds, then
//!     chaos-soak the serve engine for t seconds, the multi-shard
//!     gateway (slow shard, killed shard, quota overload, registry-driven
//!     staged rollout mid-load) for the gateway soak duration, and the
//!     model registry for n kill-point iterations (crash at every publish
//!     syscall boundary, ENOSPC/EIO, bit rot, gc — each followed by
//!     recovery and verification); each failure prints a replay line with
//!     the minimized seed/level
//! drcshap testkit replay --check <name> --seed <s> [--level <l>]
//!     re-run one check on the exact scenario a failure reported
//! drcshap testkit list                     the conformance check registry
//! ```
//!
//! Every verb also accepts the global telemetry flags, stripped before
//! dispatch: `--trace <out.json>` records spans and counters and writes a
//! Chrome trace-event file (open in `chrome://tracing` or Perfetto), and
//! `--stats` prints the span/counter summary as one JSON line on stderr,
//! the last line the process prints there (for `serve` and `gateway`,
//! with the engine's or gateway's metrics nested under `metrics`).
//!
//! Every failure on the serving path surfaces as a typed
//! [`DrcshapError`] — usage mistakes exit with status 2, runtime failures
//! (I/O, corrupted artifacts, schema mismatches) with status 1, and no
//! input reachable from this binary panics.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::time::Duration;

use drcshap::core::artifact::{crc32, Crc32};
use drcshap::core::explain::Explainer;
use drcshap::core::pipeline::{try_build_design, try_build_suite, PipelineConfig};
use drcshap::core::{load_model, read_manifest, run_supervised, save_model};
use drcshap::core::{SavedModel, SupervisorConfig};
use drcshap::features::{FeatureMatrix, FeatureSchema};
use drcshap::forest::RandomForestTrainer;
use drcshap::gateway::{Gateway, GatewayConfig, Priority, QuotaConfig, Request};
use drcshap::geom::CancelToken;
use drcshap::ml::{
    Classifier, DrcshapError, InputError, NanPolicy, PipelineError, StoreError, Trainer,
};
use drcshap::netlist::{suite, write_def, DesignSpec};
use drcshap::route::{render_heatmap, HeatSource};
use drcshap::serve::{ServeConfig, ServeEngine, Ticket};
use drcshap::shap::{Explanation, ForceOptions};
use drcshap::store::{FsBackend, GenerationStatus, Registry, StorageBackend};
use drcshap::telemetry;
use drcshap::testkit::{self, ChaosConfig, CrashSoakConfig, GatewayChaosConfig, SizeLevel};

const USAGE: &str = "usage: drcshap <list | build <design> [scale] | explain <design> [scale] | \
                     explain --model <artifact> [--method shap|abductive|both] \
                     [--cases <file.jsonl> | --design <name> [--scale <s>]] [--interactions] \
                     [--limit <n>] [--top <k>] [--budget-conflicts <n>] | \
                     analytics <--model <artifact> [--cases <file.jsonl> | --design <name> \
                     [--scale <s>]] [--interactions] [--limit <n>] | --snapshot <file>...> \
                     [--top <k>] [--out <snapshot.json>] | \
                     triage <design> [scale] [threshold] | export <design> <dir> [scale] | \
                     train <design> <out.model> [scale] [--registry <dir>] | \
                     predict <model> <design> [scale] | \
                     registry <dir> <ls | verify | gc --keep <n>> | \
                     run <dir> [scale] [--deadline <secs>] [--design <name>] | \
                     resume <dir> [--deadline <secs>] | \
                     serve <model> [--design <name>] [--scale <s>] [--batch <n>] \
                     [--wait-ms <ms>] [--workers <n>] [--queue <n>] [--nan-aware] [--stats] | \
                     gateway <model> [--shards <n>] [--batch <n>] [--wait-ms <ms>] \
                     [--workers <n>] [--queue <n>] [--nan-aware] [--deadline-ms <ms>] \
                     [--hedge-ms <ms>] [--retries <n>] [--quota-burst <b>] \
                     [--quota-refill <r>] [--listen <addr>] [--max-conns <n>] [--stats] | \
                     testkit <run [--seeds <n>] [--base-seed <s>] [--check <name>]... \
                     [--soak-secs <t>] [--gateway-soak-secs <t>] [--crash-soak-iters <n>] \
                     [--xsat-checks] | \
                     replay --check <name> --seed <s> [--level <l>] | list>> \
                     -- every verb also accepts --trace <out.json> and --stats";

/// The global telemetry flags, stripped from the argument list before the
/// verb dispatch: `--trace <out.json>` writes a Chrome trace-event file,
/// `--stats` prints the span/counter summary as one JSON line on stderr.
/// Either flag enables span and counter recording for the whole
/// invocation.
struct TelemetryOpts {
    trace: Option<String>,
    stats: bool,
}

impl TelemetryOpts {
    fn parse(args: &mut Vec<String>) -> Result<Self, DrcshapError> {
        let trace = take_value(args, "--trace")?;
        let stats = take_switch(args, "--stats");
        if trace.is_some() || stats {
            telemetry::enable();
        }
        Ok(Self { trace, stats })
    }

    /// Exports whatever the run recorded, with `metrics`, the snapshot of
    /// the engine or gateway the verb ran, if any. Called on success and
    /// on failure alike, so a trace of a failing run is still written.
    fn finish(&self, metrics: Option<serde_json::Value>) -> Result<(), DrcshapError> {
        if let Some(path) = &self.trace {
            std::fs::write(path, telemetry::hub().chrome_trace())
                .map_err(|e| DrcshapError::io(path.clone(), e))?;
            eprintln!("wrote Chrome trace to {path}");
        }
        if self.stats {
            eprintln!("{}", telemetry::hub().stats_line(metrics));
        }
        Ok(())
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = run_cli(&mut args);
    if let Err(e) = result {
        eprintln!("error: {e}");
        let code = match &e {
            DrcshapError::Input(InputError::Usage(_))
            | DrcshapError::Input(InputError::InvalidScale { .. }) => 2,
            _ => 1,
        };
        std::process::exit(code);
    }
}

/// Strips the global telemetry flags, dispatches the verb, then exports
/// the trace/summary. Export runs even when the verb fails — a trace of a
/// failing run is exactly when you want one — and the verb's error wins
/// over any export error.
fn run_cli(args: &mut Vec<String>) -> Result<(), DrcshapError> {
    let telem = TelemetryOpts::parse(args)?;
    let mut metrics = None;
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("build") => cmd_build(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("triage") => cmd_triage(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("registry") => cmd_registry(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("analytics") => cmd_analytics(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]).map(|m| metrics = Some(m)),
        Some("gateway") => cmd_gateway(&args[1..]).map(|m| metrics = Some(m)),
        Some("testkit") => cmd_testkit(&args[1..]),
        _ => Err(DrcshapError::usage(USAGE)),
    };
    match (result, telem.finish(metrics)) {
        (Err(e), _) => Err(e),
        (Ok(()), export) => export,
    }
}

/// Parses the optional scale argument. Absent means the default 0.25; a
/// present-but-unparseable value is a usage error, never a silent default.
fn parse_scale(args: &[String], position: usize) -> Result<f64, DrcshapError> {
    match args.get(position) {
        None => Ok(0.25),
        Some(s) => s.parse().map_err(|_| {
            DrcshapError::usage(format!("bad scale {s:?}: expected a float in (0, 1]"))
        }),
    }
}

fn spec_arg(args: &[String], position: usize) -> Result<DesignSpec, DrcshapError> {
    let name = args
        .get(position)
        .ok_or_else(|| DrcshapError::usage("missing design name (try `drcshap list`)"))?;
    design_spec(name)
}

/// The suite design called `name`; an unknown name is a usage error.
fn design_spec(name: &str) -> Result<DesignSpec, DrcshapError> {
    suite::spec(name)
        .ok_or_else(|| DrcshapError::usage(format!("unknown design {name:?} (try `drcshap list`)")))
}

/// Streams rows through the model under the strict `Reject` policy and
/// ranks the scores with [`rank_scores`].
fn stream_scores<'a>(
    model: &dyn Classifier,
    rows: impl Iterator<Item = &'a [f32]>,
    top_k: usize,
) -> Result<(Vec<(usize, f64)>, String), DrcshapError> {
    rank_scores(rows.map(|row| model.score_checked(row, NanPolicy::Reject)), top_k)
}

/// Ranks a stream of row scores keeping only `O(top_k)` state: the
/// top-scored rows (ranked by score descending, index ascending on ties)
/// and an incremental CRC32 digest of the exact score bit patterns — two
/// runs print the same digest iff every score is bit-identical. Memory
/// stays bounded no matter how many rows stream through.
fn rank_scores(
    scores: impl Iterator<Item = Result<f64, DrcshapError>>,
    top_k: usize,
) -> Result<(Vec<(usize, f64)>, String), DrcshapError> {
    let mut digest = Crc32::new();
    let mut top: Vec<(usize, f64)> = Vec::with_capacity(top_k + 1);
    let mut n = 0usize;
    for (i, s) in scores.enumerate() {
        let s = s?;
        digest.update(&s.to_bits().to_le_bytes());
        n += 1;
        if top_k == 0 {
            continue;
        }
        top.push((i, s));
        if top.len() > top_k {
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            top.truncate(top_k);
        }
    }
    top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok((top, format!("crc32 {:#010x} over {n} scores", digest.finalize())))
}

/// Prints a design's top predicted hotspots and its score digest.
fn print_hotspots(spec: &DesignSpec, ranked: &[(usize, f64)], digest: &str) {
    println!("top predicted hotspots for {}:", spec.name);
    for (i, s) in ranked {
        println!("  g-cell {i:>6}  p = {s:.4}");
    }
    println!("score digest: {digest}");
}

/// All rows of a feature matrix, in g-cell order.
fn matrix_rows(features: &FeatureMatrix) -> impl Iterator<Item = &[f32]> {
    (0..features.n_samples()).map(|i| features.row(i))
}

fn cmd_list() -> Result<(), DrcshapError> {
    println!(
        "{:<12} {:>5} {:>9} {:>10} {:>8} {:>10}",
        "design", "group", "g-cells", "hotspots", "macros", "cells (k)"
    );
    for s in suite::all_specs() {
        println!(
            "{:<12} {:>5} {:>9} {:>10} {:>8} {:>10.1}",
            s.name, s.group, s.table1.gcells, s.table1.hotspots, s.table1.macros, s.table1.cells_k
        );
    }
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), DrcshapError> {
    let spec = spec_arg(args, 0)?;
    let config = PipelineConfig { scale: parse_scale(args, 1)?, ..Default::default() };
    eprintln!("building {} at scale {}...", spec.name, config.scale);
    let bundle = try_build_design(&spec, &config)?;
    println!("{}", bundle.route);
    println!("{}", bundle.report.render_summary());
    println!(
        "{}",
        render_heatmap(&bundle.route.congestion, HeatSource::AllMetals, |g| {
            bundle.report.labels[bundle.design.grid.index_of(g)]
        })
    );
    Ok(())
}

fn trained_explainer(
    spec: &DesignSpec,
    config: &PipelineConfig,
) -> Result<(Explainer, drcshap::core::pipeline::DesignBundle), DrcshapError> {
    eprintln!("building the suite at scale {}...", config.scale);
    let bundles = try_build_suite(&suite::all_specs(), config)?;
    let train: Vec<_> =
        bundles.iter().filter(|b| b.design.spec.group != spec.group).cloned().collect();
    eprintln!("training RF on {} designs (group {} held out)...", train.len(), spec.group);
    let explainer =
        Explainer::train(&train, &RandomForestTrainer { n_trees: 150, ..Default::default() }, 42);
    let bundle = bundles
        .into_iter()
        .find(|b| b.design.spec.name == spec.name)
        .expect("target design in suite");
    Ok((explainer, bundle))
}

fn cmd_explain(args: &[String]) -> Result<(), DrcshapError> {
    // `--model` switches to the artifact-based dual-explanation mode; the
    // bare positional form keeps the original force-plot walkthrough.
    if args.iter().any(|a| a == "--model") {
        return cmd_explain_model(args);
    }
    let spec = spec_arg(args, 0)?;
    let config = PipelineConfig { scale: parse_scale(args, 1)?, ..Default::default() };
    let (explainer, bundle) = trained_explainer(&spec, &config)?;
    if bundle.report.num_hotspots() == 0 {
        println!("{} has no DRC hotspots at this scale", spec.name);
        return Ok(());
    }
    for case in explainer.select_cases(&bundle, 3) {
        println!("{}", explainer.render(&case, &ForceOptions::default()));
        println!(
            "validation against actual DRC errors: {}\n",
            if explainer.validate_case(&case, &bundle) { "CONSISTENT" } else { "inconsistent" }
        );
    }
    Ok(())
}

/// Which explanation views `explain --model` computes.
#[derive(Clone, Copy, PartialEq)]
enum ExplainMethod {
    Shap,
    Abductive,
    Both,
}

impl ExplainMethod {
    fn parse(s: &str) -> Result<Self, DrcshapError> {
        match s {
            "shap" => Ok(Self::Shap),
            "abductive" => Ok(Self::Abductive),
            "both" => Ok(Self::Both),
            other => Err(DrcshapError::usage(format!(
                "bad value {other:?} for --method (expected shap | abductive | both)"
            ))),
        }
    }

    fn wants_shap(self) -> bool {
        matches!(self, Self::Shap | Self::Both)
    }

    fn wants_abductive(self) -> bool {
        matches!(self, Self::Abductive | Self::Both)
    }

    fn name(self) -> &'static str {
        match self {
            Self::Shap => "shap",
            Self::Abductive => "abductive",
            Self::Both => "both",
        }
    }
}

/// Provenance block of the `explain --model` JSON: enough to tie an
/// explanation document back to the exact artifact that produced it.
#[derive(serde::Serialize)]
struct ExplainProvenance {
    /// CRC32 of the raw artifact bytes on disk.
    artifact_crc: u32,
    /// The feature schema the artifact is bound to.
    schema_fingerprint: u64,
    /// Model family (always "RF" today — the only encodable family).
    model_kind: String,
    /// Serve-convention epoch: 1 = the initial (file-loaded) model. The
    /// serve path stamps later epochs on hot swaps.
    model_epoch: u64,
    /// Feature count.
    n_features: usize,
}

/// One case's `explain_forest` output: the φ and base value bits that
/// `ServeEngine::explain` and the analytics live mode report too.
#[derive(serde::Serialize)]
struct ShapView {
    base_value: f64,
    contributions: Vec<f64>,
    top: Vec<ShapTopFeature>,
}

#[derive(serde::Serialize)]
struct ShapTopFeature {
    feature: usize,
    name: String,
    phi: f64,
}

/// One SHAP interaction pair `(i, j)` of the `--interactions` view, with
/// `i < j` and `phi` the upper-triangle interaction value `Φᵢⱼ` — the
/// same single-sided convention the analytics pair aggregates use (the
/// matrix is symmetric, so the full pair mass is `2·Φᵢⱼ`).
#[derive(serde::Serialize)]
struct InteractionPair {
    i: usize,
    j: usize,
    name_i: String,
    name_j: String,
    phi: f64,
}

#[derive(serde::Serialize)]
struct ExplainedCase {
    case: usize,
    proba: f64,
    hotspot: bool,
    votes_for: usize,
    n_trees: usize,
    shap: Option<ShapView>,
    interactions: Option<Vec<InteractionPair>>,
    abductive: Option<drcshap::xsat::AbductiveExplanation>,
    abductive_timeout: Option<AbductiveTimeout>,
}

#[derive(serde::Serialize)]
struct AbductiveTimeout {
    conflicts: u64,
    sat_calls: u32,
}

#[derive(serde::Serialize)]
struct ExplainDocument {
    method: &'static str,
    provenance: ExplainProvenance,
    budget_conflicts_per_call: u64,
    budget_conflicts_total: u64,
    cases: Vec<ExplainedCase>,
}

/// `drcshap explain --model <artifact> [--method shap|abductive|both]
/// [--cases <file.jsonl> | --design <name> [--scale <s>]] [--limit <n>]
/// [--top <k>] [--budget-conflicts <n>]` — explain individual predictions
/// of a saved RF artifact with SHAP attributions, SAT-based abductive
/// explanations (subset-minimal sufficient reasons + contrastive duals),
/// or both, as one JSON document on stdout.
///
/// The output is bit-stable: SHAP is summed per tree in a fixed order, the
/// abductive engine is deterministic under conflict-only budgets, and the
/// provenance block pins the artifact CRC — two runs over the same
/// artifact and cases produce byte-identical JSON.
fn cmd_explain_model(args: &[String]) -> Result<(), DrcshapError> {
    let mut args = args.to_vec();
    let model_path = take_value(&mut args, "--model")?.expect("--model checked by dispatch");
    let method = match take_value(&mut args, "--method")? {
        None => ExplainMethod::Both,
        Some(s) => ExplainMethod::parse(&s)?,
    };
    let cases_path = take_value(&mut args, "--cases")?;
    let design = take_value(&mut args, "--design")?;
    let interactions = take_switch(&mut args, "--interactions");
    let scale: f64 = parse_flag(&mut args, "--scale", 0.25)?;
    let limit: usize = parse_flag(&mut args, "--limit", 3)?;
    let top: usize = parse_flag(&mut args, "--top", 5)?;
    let budget =
        match take_value(&mut args, "--budget-conflicts")? {
            None => drcshap::xsat::XsatBudget::default(),
            Some(s) => drcshap::xsat::XsatBudget::conflicts(s.parse().map_err(|_| {
                DrcshapError::usage(format!("bad value {s:?} for --budget-conflicts"))
            })?),
        };
    if let Some(extra) = args.first() {
        return Err(DrcshapError::usage(format!("unexpected argument {extra:?}")));
    }

    let schema = FeatureSchema::paper_387();
    let bytes = std::fs::read(&model_path).map_err(|e| DrcshapError::io(model_path.clone(), e))?;
    let artifact_crc = crc32(&bytes);
    let model = drcshap::core::artifact::decode_model(&bytes, schema.fingerprint())?;
    let model_kind = model.kind().to_string();
    let forest = &model.into_forest()?;

    // Case rows: an explicit JSONL file of feature vectors, or the
    // top-`limit` predicted hotspots of a built design.
    let rows: Vec<(usize, Vec<f32>)> = match (&cases_path, &design) {
        (Some(path), None) => read_case_rows(path, forest.n_features())?,
        (None, Some(name)) => {
            let spec = design_spec(name)?;
            let config = PipelineConfig { scale, ..Default::default() };
            eprintln!("building {} at scale {}...", spec.name, config.scale);
            let bundle = try_build_design(&spec, &config)?;
            let (ranked, _) = stream_scores(forest, matrix_rows(&bundle.features), limit)?;
            ranked.iter().map(|&(i, _)| (i, bundle.features.row(i).to_vec())).collect()
        }
        _ => {
            return Err(DrcshapError::usage(
                "explain --model needs exactly one case source: --cases <file.jsonl> or \
                 --design <name>",
            ))
        }
    };

    let mut engine = if method.wants_abductive() {
        Some(drcshap::xsat::AbductiveEngine::new(forest).map_err(DrcshapError::from)?)
    } else {
        None
    };
    let names = schema.names().to_vec();
    let n_trees = forest.trees().len();
    let mut cases = Vec::with_capacity(rows.len());
    for (case, x) in &rows {
        let proba = forest.predict_proba(x);
        let votes_for = drcshap::xsat::forest_vote_count(forest, x);
        let shap = method.wants_shap().then(|| {
            let Explanation { base_value, contributions, .. } =
                drcshap::shap::explain_forest(forest, x);
            let mut ranked: Vec<usize> = (0..contributions.len()).collect();
            ranked.sort_by(|&a, &b| {
                contributions[b].abs().total_cmp(&contributions[a].abs()).then(a.cmp(&b))
            });
            let top = ranked
                .iter()
                .take(top)
                .map(|&j| ShapTopFeature {
                    feature: j,
                    name: names[j].to_string(),
                    phi: contributions[j],
                })
                .collect();
            ShapView { base_value, contributions, top }
        });
        let interaction_pairs = interactions.then(|| {
            drcshap::shap::forest_shap_interactions(forest, x)
                .top_pairs(top)
                .into_iter()
                .map(|(i, j, phi)| InteractionPair {
                    i,
                    j,
                    name_i: names[i].to_string(),
                    name_j: names[j].to_string(),
                    phi,
                })
                .collect::<Vec<_>>()
        });
        let (abductive, abductive_timeout) = match engine.as_mut() {
            None => (None, None),
            Some(engine) => match engine.explain(x, &budget) {
                Ok(ex) => (Some(ex), None),
                Err(DrcshapError::ExplanationTimeout { conflicts, sat_calls }) => {
                    (None, Some(AbductiveTimeout { conflicts, sat_calls }))
                }
                Err(e) => return Err(e),
            },
        };
        cases.push(ExplainedCase {
            case: *case,
            proba,
            hotspot: 2 * votes_for > n_trees,
            votes_for,
            n_trees,
            shap,
            interactions: interaction_pairs,
            abductive,
            abductive_timeout,
        });
    }

    let document = ExplainDocument {
        method: method.name(),
        provenance: ExplainProvenance {
            artifact_crc,
            schema_fingerprint: schema.fingerprint(),
            model_kind,
            model_epoch: 1,
            n_features: forest.n_features(),
        },
        budget_conflicts_per_call: budget.max_conflicts_per_call,
        budget_conflicts_total: budget.max_total_conflicts,
        cases,
    };
    println!("{}", serde_json::to_string(&document).expect("document serializes"));
    Ok(())
}

/// Reads case rows from a JSONL file: each line a JSON array of `expected`
/// feature values.
fn read_case_rows(path: &str, expected: usize) -> Result<Vec<(usize, Vec<f32>)>, DrcshapError> {
    let text = std::fs::read_to_string(path).map_err(|e| DrcshapError::io(path.to_string(), e))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let x: Vec<f32> = serde_json::from_str(line).map_err(|e| {
            DrcshapError::usage(format!("{path}:{}: not a JSON feature array: {e}", i + 1))
        })?;
        if x.len() != expected {
            return Err(DrcshapError::usage(format!(
                "{path}:{}: expected {expected} features, found {}",
                i + 1,
                x.len()
            )));
        }
        rows.push((i, x));
    }
    if rows.is_empty() {
        return Err(DrcshapError::usage(format!("{path}: no case rows")));
    }
    Ok(rows)
}

/// `drcshap analytics` — explanation-analytics summaries from a live
/// explain run or saved snapshot files.
///
/// Live mode — `--model <artifact> [--cases <file.jsonl> | --design
/// <name> [--scale <s>]] [--interactions] [--limit <n>] [--top <k>]
/// [--out <snapshot.json>]` — streams every case through a serve engine
/// with the analytics sink mounted, then prints the rendered
/// [`drcshap::analytics::AnalyticsReport`] as one JSON line on stdout.
/// `--out` additionally writes the raw [`AnalyticsSnapshot`] (the exact
/// mergeable wire form, digest included) for later offline use.
///
/// Snapshot mode — `--snapshot <file>` (repeatable) `[--top <k>] [--out
/// <merged.json>]` — loads saved snapshots, checks each one's shape
/// ([`AnalyticsSnapshot::validate`]), merges them (bit-stable: any merge
/// order yields the same digest; snapshots from different models or
/// sketch params are a usage error), and renders the same report. This
/// is how per-shard or per-host snapshots become a fleet view offline.
fn cmd_analytics(args: &[String]) -> Result<(), DrcshapError> {
    use drcshap::analytics::{build_report, merge_fleet, AnalyticsConfig, AnalyticsSnapshot};

    let mut args = args.to_vec();
    let mut snapshot_paths: Vec<String> = Vec::new();
    while let Some(path) = take_value(&mut args, "--snapshot")? {
        snapshot_paths.push(path);
    }
    let model_path = take_value(&mut args, "--model")?;
    let cases_path = take_value(&mut args, "--cases")?;
    let design = take_value(&mut args, "--design")?;
    let interactions = take_switch(&mut args, "--interactions");
    let scale: f64 = parse_flag(&mut args, "--scale", 0.25)?;
    let limit: usize = parse_flag(&mut args, "--limit", 0)?;
    let top: usize = parse_flag(&mut args, "--top", 10)?;
    let out = take_value(&mut args, "--out")?;
    if let Some(extra) = args.first() {
        return Err(DrcshapError::usage(format!("unexpected argument {extra:?}")));
    }
    let schema = FeatureSchema::paper_387();
    let names = schema.names().iter().map(|n| n.to_string()).collect::<Vec<_>>();

    let snapshot: AnalyticsSnapshot = match (&model_path, snapshot_paths.is_empty()) {
        (Some(_), false) | (None, true) => {
            return Err(DrcshapError::usage(
                "analytics needs exactly one source: --model <artifact> (live) or \
                 --snapshot <file>... (offline)",
            ))
        }
        (None, false) => {
            let mut snapshots = Vec::with_capacity(snapshot_paths.len());
            for path in &snapshot_paths {
                let text =
                    std::fs::read_to_string(path).map_err(|e| DrcshapError::io(path.clone(), e))?;
                let snapshot: AnalyticsSnapshot = serde_json::from_str(&text).map_err(|e| {
                    DrcshapError::usage(format!("{path}: not an analytics snapshot: {e}"))
                })?;
                snapshot.validate().map_err(|e| match e {
                    DrcshapError::Input(why) => DrcshapError::usage(format!("{path}: {why}")),
                    other => other,
                })?;
                snapshots.push(snapshot);
            }
            merge_fleet(&snapshots)?
        }
        (Some(path), true) => {
            let model = load_model(path, &schema)?;
            eprintln!("loaded {} model from {path}", model.kind());
            let rows: Vec<(usize, Vec<f32>)> =
                match (&cases_path, &design) {
                    (Some(cases), None) => read_case_rows(cases, names.len())?,
                    (None, Some(name)) => {
                        let spec = design_spec(name)?;
                        let config = PipelineConfig { scale, ..Default::default() };
                        eprintln!("building {} at scale {}...", spec.name, config.scale);
                        let bundle = try_build_design(&spec, &config)?;
                        matrix_rows(&bundle.features)
                            .enumerate()
                            .map(|(i, r)| (i, r.to_vec()))
                            .collect()
                    }
                    _ => return Err(DrcshapError::usage(
                        "analytics --model needs exactly one case source: --cases <file.jsonl> \
                         or --design <name>",
                    )),
                };
            let rows = match limit {
                0 => rows,
                n => rows.into_iter().take(n).collect(),
            };
            let config = ServeConfig {
                analytics: Some(AnalyticsConfig { interactions, ..Default::default() }),
                ..Default::default()
            };
            let engine = ServeEngine::start_saved(config, model, schema.fingerprint())?;
            for (_, x) in &rows {
                if interactions {
                    engine.explain_interactions(x)?;
                } else {
                    engine.explain(x)?;
                }
            }
            eprintln!("folded {} explained case(s)", rows.len());
            let snapshot = engine.analytics_snapshot().expect("analytics is mounted");
            engine.shutdown();
            snapshot
        }
    };

    let report_names = (snapshot.n_features as usize == names.len()).then_some(names.as_slice());
    let report = build_report(&snapshot, top, report_names)?;
    println!("{}", serde_json::to_string(&report).expect("report serializes"));
    if let Some(path) = out {
        let text = serde_json::to_string(&snapshot).expect("snapshot serializes");
        std::fs::write(&path, text).map_err(|e| DrcshapError::io(path.clone(), e))?;
        eprintln!("wrote analytics snapshot to {path}");
    }
    Ok(())
}

fn cmd_triage(args: &[String]) -> Result<(), DrcshapError> {
    let spec = spec_arg(args, 0)?;
    let config = PipelineConfig { scale: parse_scale(args, 1)?, ..Default::default() };
    let threshold: f64 = match args.get(2) {
        None => 0.3,
        Some(s) => s
            .parse()
            .map_err(|_| DrcshapError::usage(format!("bad threshold {s:?}: expected a float")))?,
    };
    let (explainer, bundle) = trained_explainer(&spec, &config)?;
    println!("{}", explainer.triage(&bundle, threshold, 200).render());
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), DrcshapError> {
    let spec = spec_arg(args, 0)?;
    let dir = args.get(1).ok_or_else(|| DrcshapError::usage("missing output directory"))?;
    let config = PipelineConfig { scale: parse_scale(args, 2)?, ..Default::default() };
    std::fs::create_dir_all(dir).map_err(|e| DrcshapError::io(dir.clone(), e))?;
    let bundle = try_build_design(&spec, &config)?;
    let names = FeatureSchema::paper_387().names().to_vec();
    let csv = std::path::Path::new(dir).join(format!("{}.csv", spec.name));
    std::fs::write(&csv, bundle.to_dataset().to_csv(Some(&names)))
        .map_err(|e| DrcshapError::io(csv.display().to_string(), e))?;
    let def = std::path::Path::new(dir).join(format!("{}.def", spec.name));
    std::fs::write(&def, write_def(&bundle.design))
        .map_err(|e| DrcshapError::io(def.display().to_string(), e))?;
    println!("wrote {} and {}", csv.display(), def.display());
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), DrcshapError> {
    let mut args = args.to_vec();
    let registry_dir = take_value(&mut args, "--registry")?;
    let args = &args[..];
    let spec = spec_arg(args, 0)?;
    let out = args
        .get(1)
        .ok_or_else(|| DrcshapError::usage("missing output model path (e.g. fft_1.model)"))?;
    let config = PipelineConfig { scale: parse_scale(args, 2)?, ..Default::default() };
    eprintln!("building {} at scale {}...", spec.name, config.scale);
    let bundle = try_build_design(&spec, &config)?;
    let data = bundle.to_dataset();
    eprintln!(
        "training RF on {} samples ({} hotspots)...",
        data.n_samples(),
        bundle.report.num_hotspots()
    );
    let trainer = RandomForestTrainer { n_trees: 100, ..Default::default() };
    let model = SavedModel::Rf(trainer.fit(&data, 42));
    let schema = FeatureSchema::paper_387();
    save_model(out, &model, &schema)?;
    let (_, digest) = stream_scores(model.as_classifier(), matrix_rows(&bundle.features), 0)?;
    println!("saved {} model to {out}", model.kind());
    println!("score digest: {digest}");
    if let Some(dir) = registry_dir {
        let registry = open_registry(&dir)?;
        let published = registry.publish(&model, &schema)?;
        println!(
            "published generation {} ({} bytes, blob {:016x}) to registry {dir}",
            published.generation, published.len, published.hash
        );
    }
    Ok(())
}

/// Opens (and recovers) the on-disk registry at `dir`, reporting any
/// repairs recovery made on stderr.
fn open_registry(dir: &str) -> Result<Registry, DrcshapError> {
    let backend = FsBackend::new(dir).map_err(|e| DrcshapError::io(dir.to_string(), e))?;
    let registry = Registry::open(backend as std::sync::Arc<dyn StorageBackend>)?;
    let recovery = registry.recovery_report();
    if recovery.truncated_bytes > 0 {
        eprintln!(
            "recovery: truncated {} torn journal byte(s) ({})",
            recovery.truncated_bytes,
            recovery.torn_detail.as_deref().unwrap_or("torn tail")
        );
    }
    if recovery.swept_tmp_files > 0 {
        eprintln!("recovery: swept {} stray temp file(s)", recovery.swept_tmp_files);
    }
    Ok(registry)
}

/// `drcshap registry <dir> <ls | verify | gc --keep <n>>` — inspect and
/// maintain an on-disk model registry. Opening always runs recovery
/// (torn-tail truncation, temp-file sweep); repairs are reported on
/// stderr.
fn cmd_registry(args: &[String]) -> Result<(), DrcshapError> {
    const USAGE: &str = "usage: drcshap registry <dir> <ls | verify | gc --keep <n>>";
    let mut args = args.to_vec();
    let keep: usize = parse_flag(&mut args, "--keep", 0)?;
    let dir = args.first().ok_or_else(|| DrcshapError::usage(USAGE))?.clone();
    let registry = open_registry(&dir)?;
    match args.get(1).map(String::as_str) {
        Some("ls") => {
            let generations = registry.list()?;
            if generations.is_empty() {
                println!("registry {dir} is empty");
                return Ok(());
            }
            println!(
                "{:>10} {:<8} {:>10} {:>18} {:>18} {:>8}",
                "generation", "kind", "bytes", "blob hash", "fingerprint", "blob"
            );
            for g in &generations {
                println!(
                    "{:>10} {:<8} {:>10} {:>18} {:>18} {:>8}",
                    g.generation,
                    drcshap::store::kind_name(g.kind),
                    g.len,
                    format!("{:016x}", g.hash),
                    format!("{:#018x}", g.fingerprint),
                    if g.blob_present { "present" } else { "missing" }
                );
            }
            Ok(())
        }
        Some("verify") => {
            let report = registry.verify()?;
            for (generation, status) in &report.generations {
                match status {
                    GenerationStatus::Verified => println!("generation {generation}: verified"),
                    GenerationStatus::Missing => {
                        println!("generation {generation}: blob missing (collected or quarantined)")
                    }
                    GenerationStatus::Quarantined { detail } => {
                        println!("generation {generation}: QUARANTINED — {detail}")
                    }
                }
            }
            println!(
                "{} verified, {} quarantined, {} missing",
                report.verified(),
                report.quarantined(),
                report.missing()
            );
            match report.latest_verified {
                Some(generation) => {
                    println!("latest verified generation: {generation}");
                    Ok(())
                }
                None => Err(StoreError::Empty.into()),
            }
        }
        Some("gc") => {
            if keep == 0 {
                return Err(DrcshapError::usage("gc needs --keep <n> with n >= 1"));
            }
            let report = registry.gc(keep)?;
            println!(
                "kept {} generation(s), dropped {} journal record(s), removed {} blob(s)",
                report.kept, report.dropped, report.removed_blobs
            );
            Ok(())
        }
        _ => Err(DrcshapError::usage(USAGE)),
    }
}

/// Extracts an optional `--deadline <secs>` flag, removing it from `args`.
fn parse_deadline(args: &mut Vec<String>) -> Result<Option<Duration>, DrcshapError> {
    let Some(pos) = args.iter().position(|a| a == "--deadline") else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| DrcshapError::usage("--deadline needs a value in seconds"))?;
    let secs: f64 = value.parse().map_err(|_| {
        DrcshapError::usage(format!("bad deadline {value:?}: expected seconds as a float"))
    })?;
    let deadline = duration(secs, 1.0).filter(|_| secs > 0.0).ok_or_else(|| {
        DrcshapError::usage(format!("bad deadline {secs}: must be positive and in range"))
    })?;
    args.drain(pos..=pos + 1);
    Ok(Some(deadline))
}

/// `amount` of a time unit with `per_sec` units to the second (1 for
/// seconds, 1e3 for milliseconds) as a [`Duration`], or `None` when the
/// amount is NaN, negative, or beyond [`Duration::MAX`]. Every time span
/// the CLI reads from outside passes through here, so none panics it.
fn duration(amount: f64, per_sec: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(amount / per_sec).ok()
}

/// Runs the supervised suite build and prints the per-design table plus a
/// CRC32 digest over the exact feature bit patterns of every completed
/// design — a resumed run and an uninterrupted one print the same digest.
///
/// # Errors
///
/// The supervisor's run errors, and [`PipelineError::Incomplete`] after
/// the table and digest when a design failed or was cancelled.
fn run_and_report(specs: &[DesignSpec], sup: &SupervisorConfig) -> Result<(), DrcshapError> {
    eprintln!(
        "supervised suite build at scale {} into {}{}...",
        sup.pipeline.scale,
        sup.run_dir.display(),
        match sup.stage_deadline {
            Some(d) => format!(" (stage deadline {}s)", d.as_secs_f64()),
            None => String::new(),
        }
    );
    let report = run_supervised(specs, sup, &CancelToken::new())?;
    println!("{}", report.render());
    let mut bytes = Vec::new();
    for bundle in report.bundles.iter().flatten() {
        for i in 0..bundle.features.n_samples() {
            for v in bundle.features.row(i) {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    println!(
        "feature digest: crc32 {:#010x} over {} completed designs",
        crc32(&bytes),
        report.completed()
    );
    if report.completed() < report.designs.len() {
        return Err(PipelineError::Incomplete {
            completed: report.completed(),
            designs: report.designs.len(),
        }
        .into());
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), DrcshapError> {
    let mut args = args.to_vec();
    let deadline = parse_deadline(&mut args)?;
    let specs = match take_value(&mut args, "--design")? {
        None => suite::all_specs(),
        Some(name) => vec![design_spec(&name)?],
    };
    let dir = args
        .first()
        .ok_or_else(|| DrcshapError::usage("missing run directory (e.g. runs/full)"))?
        .clone();
    let scale = match args.get(1) {
        None => PipelineConfig::from_env()?.scale,
        Some(s) => s.parse().map_err(|_| {
            DrcshapError::usage(format!("bad scale {s:?}: expected a float in (0, 1]"))
        })?,
    };
    let mut sup = SupervisorConfig::new(PipelineConfig { scale, ..Default::default() }, dir);
    sup.stage_deadline = deadline;
    run_and_report(&specs, &sup)
}

fn cmd_resume(args: &[String]) -> Result<(), DrcshapError> {
    let mut args = args.to_vec();
    let deadline = parse_deadline(&mut args)?;
    let dir = args
        .first()
        .ok_or_else(|| DrcshapError::usage("missing run directory of the run to resume"))?
        .clone();
    let manifest = read_manifest(std::path::Path::new(&dir))?;
    if let Some(s) = args.get(1) {
        let requested: f64 = s.parse().map_err(|_| {
            DrcshapError::usage(format!("bad scale {s:?}: expected a float in (0, 1]"))
        })?;
        if requested != manifest.scale {
            return Err(PipelineError::ManifestMismatch {
                detail: format!(
                    "run was started at scale {}, cannot resume at {requested}",
                    manifest.scale
                ),
            }
            .into());
        }
    }
    // The designs the run was started with, not the whole suite.
    let specs = manifest
        .designs
        .iter()
        .map(|design| {
            suite::spec(&design.name).ok_or_else(|| {
                DrcshapError::from(PipelineError::ManifestMismatch {
                    detail: format!(
                        "the run lists design {:?}, which the suite lacks",
                        design.name
                    ),
                })
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pipeline = PipelineConfig { scale: manifest.scale, ..Default::default() };
    let mut sup = SupervisorConfig::new(pipeline, dir);
    sup.stage_deadline = deadline;
    run_and_report(&specs, &sup)
}

fn cmd_predict(args: &[String]) -> Result<(), DrcshapError> {
    let path = args.first().ok_or_else(|| DrcshapError::usage("missing model path"))?;
    let spec = spec_arg(args, 1)?;
    let config = PipelineConfig { scale: parse_scale(args, 2)?, ..Default::default() };
    let schema = FeatureSchema::paper_387();
    let model = load_model(path, &schema)?;
    eprintln!("loaded {} model from {path}", model.kind());
    eprintln!("building {} at scale {}...", spec.name, config.scale);
    let bundle = try_build_design(&spec, &config)?;
    let (ranked, digest) = stream_scores(model.as_classifier(), matrix_rows(&bundle.features), 10)?;
    print_hotspots(&spec, &ranked, &digest);
    Ok(())
}

/// Extracts `--flag <value>` from `args`, removing both tokens.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, DrcshapError> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| DrcshapError::usage(format!("{flag} needs a value")))?
        .clone();
    args.drain(pos..=pos + 1);
    Ok(Some(value))
}

/// Extracts a boolean `--flag` from `args`, removing it.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, DrcshapError> {
    match take_value(args, flag)? {
        None => Ok(default),
        Some(s) => {
            s.parse().map_err(|_| DrcshapError::usage(format!("bad value {s:?} for {flag}")))
        }
    }
}

/// The engine flags `drcshap serve` and `drcshap gateway` share:
/// `--nan-aware`, `--wait-ms`, `--batch`, `--queue` and `--workers`.
fn serve_config(args: &mut Vec<String>) -> Result<ServeConfig, DrcshapError> {
    let nan_aware = take_switch(args, "--nan-aware");
    let defaults = ServeConfig::default();
    let wait_ms: f64 = parse_flag(args, "--wait-ms", defaults.max_wait.as_secs_f64() * 1e3)?;
    let max_wait = duration(wait_ms, 1e3)
        .ok_or_else(|| DrcshapError::usage(format!("bad value {wait_ms} for --wait-ms")))?;
    Ok(ServeConfig {
        max_batch: parse_flag(args, "--batch", defaults.max_batch)?,
        max_wait,
        queue_capacity: parse_flag(args, "--queue", defaults.queue_capacity)?,
        workers: parse_flag(args, "--workers", defaults.workers)?,
        nan_policy: if nan_aware { NanPolicy::NanAware } else { NanPolicy::Reject },
        ..defaults
    })
}

/// `drcshap serve <model> [flags]`; returns the engine's final metrics
/// for the `--stats` document.
fn cmd_serve(args: &[String]) -> Result<serde_json::Value, DrcshapError> {
    let mut args = args.to_vec();
    let design = take_value(&mut args, "--design")?;
    let scale: f64 = parse_flag(&mut args, "--scale", 0.25)?;
    let config = serve_config(&mut args)?;
    let path = args.first().cloned().ok_or_else(|| DrcshapError::usage("missing model path"))?;
    if args.len() > 1 {
        return Err(DrcshapError::usage(format!("unexpected argument {:?}", args[1])));
    }
    let schema = FeatureSchema::paper_387();
    let model = load_model(&path, &schema)?;
    eprintln!("loaded {} model from {path}", model.kind());
    // Never let the in-flight window outrun the queue: the submit loop keeps
    // at most `window` unresolved tickets, so `Overloaded` cannot fire.
    let window = config.queue_capacity;
    let engine = ServeEngine::start_saved(config, model, schema.fingerprint())?;
    match design {
        Some(name) => serve_design(&engine, &design_spec(&name)?, scale, window)?,
        None => serve_jsonl(&engine, window)?,
    }
    let metrics = serde_json::to_value(engine.metrics()).expect("metrics serialize");
    engine.shutdown();
    Ok(metrics)
}

/// `drcshap gateway <model> [flags]` — multi-shard serving behind the
/// gateway: JSONL requests from stdin, or the same protocol per TCP
/// connection with `--listen`. Returns the gateway's final metrics for
/// the `--stats` document.
fn cmd_gateway(args: &[String]) -> Result<serde_json::Value, DrcshapError> {
    let mut args = args.to_vec();
    let listen = take_value(&mut args, "--listen")?;
    let max_conns: u64 = parse_flag(&mut args, "--max-conns", 0)?;
    let serve = serve_config(&mut args)?;
    let gateway_defaults = GatewayConfig::default();
    let deadline_ms: f64 = parse_flag(&mut args, "--deadline-ms", 0.0)?;
    let hedge_ms: f64 = parse_flag(&mut args, "--hedge-ms", 0.0)?;
    let (Some(deadline), Some(hedge)) = (duration(deadline_ms, 1e3), duration(hedge_ms, 1e3))
    else {
        return Err(DrcshapError::usage(
            "--deadline-ms and --hedge-ms must be non-negative and in range",
        ));
    };
    let quota_burst: f64 = parse_flag(&mut args, "--quota-burst", 0.0)?;
    let quota_refill: f64 = parse_flag(&mut args, "--quota-refill", 0.0)?;
    let quota = match (quota_burst > 0.0, quota_refill > 0.0) {
        (true, true) => Some(QuotaConfig { burst: quota_burst, refill_per_sec: quota_refill }),
        (false, false) => None,
        _ => {
            return Err(DrcshapError::usage(
                "--quota-burst and --quota-refill must be given together",
            ))
        }
    };
    let config = GatewayConfig {
        shards: parse_flag(&mut args, "--shards", gateway_defaults.shards)?,
        serve,
        default_deadline: (deadline_ms > 0.0).then_some(deadline),
        max_retries: parse_flag(&mut args, "--retries", gateway_defaults.max_retries)?,
        hedge_after: (hedge_ms > 0.0).then_some(hedge),
        quota,
        ..gateway_defaults
    };
    let path = args.first().cloned().ok_or_else(|| DrcshapError::usage("missing model path"))?;
    if args.len() > 1 {
        return Err(DrcshapError::usage(format!("unexpected argument {:?}", args[1])));
    }
    let schema = FeatureSchema::paper_387();
    let model = load_model(&path, &schema)?;
    eprintln!("loaded {} model from {path}", model.kind());
    let gateway = Gateway::start_saved(config, model, schema.fingerprint())?;
    eprintln!("gateway up: {} shards", gateway.n_shards());
    match listen {
        Some(addr) => gateway_listen(&gateway, &addr, max_conns)?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            gateway_jsonl(&gateway, stdin.lock(), &mut out)?;
            out.flush().map_err(|e| DrcshapError::io("stdout", e))?;
        }
    }
    let metrics = serde_json::to_value(gateway.metrics()).expect("metrics serialize");
    gateway.shutdown();
    Ok(metrics)
}

/// One JSONL request line: either a bare feature array or this object.
#[derive(serde::Deserialize)]
struct GatewayLine {
    x: Vec<f32>,
    tenant: Option<String>,
    priority: Option<String>,
    deadline_ms: Option<f64>,
    key: Option<u64>,
}

/// Parses one request line (bare array or object form) into a [`Request`].
fn parse_gateway_line(lineno: usize, line: &str) -> Result<Request, DrcshapError> {
    let malformed =
        |message: String| DrcshapError::from(InputError::Malformed { line: lineno, message });
    if line.trim_start().starts_with('[') {
        let x: Vec<f32> = serde_json::from_str(line)
            .map_err(|e| malformed(format!("expected a JSON array of numbers: {e}")))?;
        return Ok(Request::new(x));
    }
    let parsed: GatewayLine = serde_json::from_str(line)
        .map_err(|e| malformed(format!("expected a feature array or a request object: {e}")))?;
    let mut request = Request::new(parsed.x);
    if let Some(tenant) = parsed.tenant {
        request = request.tenant(tenant);
    }
    if let Some(priority) = parsed.priority {
        request = request.priority(priority.parse::<Priority>()?);
    }
    if let Some(ms) = parsed.deadline_ms {
        let limit = duration(ms, 1e3).filter(|_| ms > 0.0).ok_or_else(|| {
            malformed(format!("bad deadline_ms {ms}: must be positive and in range"))
        })?;
        request = request.deadline_in(limit);
    }
    if let Some(key) = parsed.key {
        request = request.key(key);
    }
    Ok(request)
}

/// The gateway JSONL loop: requests in, one JSON response line out per
/// request, in input order. Typed sheds (overload, deadline) are part of
/// the protocol — emitted as `{"line":..,"error":..}` — while anything
/// non-retryable and untyped (malformed input, schema mismatch) aborts.
fn gateway_jsonl(
    gateway: &Gateway,
    input: impl BufRead,
    out: &mut impl Write,
) -> Result<(), DrcshapError> {
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| DrcshapError::io("request input", e))?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = lineno + 1;
        let request = parse_gateway_line(lineno, &line)?;
        match gateway.score(request) {
            Ok(r) => writeln!(
                out,
                "{{\"line\":{lineno},\"score\":{},\"epoch\":{},\"shard\":{},\"attempts\":{}\
                 ,\"hedged\":{}}}",
                r.score, r.epoch, r.shard, r.attempts, r.hedged
            ),
            Err(DrcshapError::Overloaded { capacity }) => writeln!(
                out,
                "{{\"line\":{lineno},\"error\":\"overloaded\",\"capacity\":{capacity}}}"
            ),
            Err(DrcshapError::DeadlineExceeded { shard_untouched }) => writeln!(
                out,
                "{{\"line\":{lineno},\"error\":\"deadline exceeded\",\
                 \"shard_untouched\":{shard_untouched}}}"
            ),
            Err(e) => return Err(e),
        }
        .map_err(|e| DrcshapError::io("response output", e))?;
        // Flush per response: a lockstep socket client (one request, wait
        // for its reply) must not deadlock on a buffered answer.
        out.flush().map_err(|e| DrcshapError::io("response output", e))?;
    }
    Ok(())
}

/// The minimal socket front end: accepts TCP connections and speaks the
/// JSONL protocol on each, concurrently. A bad request line closes its
/// connection (reported on stderr), never the process. `max_conns > 0`
/// exits after that many connections; 0 serves until killed.
fn gateway_listen(gateway: &Gateway, addr: &str, max_conns: u64) -> Result<(), DrcshapError> {
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| DrcshapError::io(format!("bind {addr}"), e))?;
    let local = listener.local_addr().map_err(|e| DrcshapError::io("local addr", e))?;
    eprintln!("gateway listening on {local}");
    std::thread::scope(|scope| -> Result<(), DrcshapError> {
        let mut accepted = 0u64;
        for conn in listener.incoming() {
            let stream = conn.map_err(|e| DrcshapError::io(format!("accept on {local}"), e))?;
            accepted += 1;
            scope.spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "<unknown>".into());
                let reader = std::io::BufReader::new(stream.try_clone().expect("clone TCP stream"));
                let mut writer = std::io::BufWriter::new(stream);
                match gateway_jsonl(gateway, reader, &mut writer)
                    .and_then(|()| writer.flush().map_err(|e| DrcshapError::io("socket", e)))
                {
                    Ok(()) => eprintln!("connection {peer} done"),
                    Err(e) => eprintln!("connection {peer} closed: {e}"),
                }
            });
            if max_conns > 0 && accepted >= max_conns {
                break;
            }
        }
        Ok(())
    })
}

/// `drcshap testkit run|replay|list` — the conformance engine front end.
/// A failing run or replay prints every (minimized) failure with its
/// replay line and exits with status 1.
fn cmd_testkit(args: &[String]) -> Result<(), DrcshapError> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for check in testkit::registry() {
                println!("{}", check.name);
            }
            for check in testkit::xsat_checks() {
                println!("{} (run with --xsat-checks)", check.name);
            }
            Ok(())
        }
        Some("run") => {
            let mut args = args[1..].to_vec();
            let xsat = take_switch(&mut args, "--xsat-checks");
            // Repeatable `--check <name>` narrows the sweep to the named
            // checks (the CI conformance matrix runs one cell per job);
            // a filtered run skips the soaks unless asked for explicitly.
            let mut only: Vec<String> = Vec::new();
            while let Some(name) = take_value(&mut args, "--check")? {
                only.push(name);
            }
            let soak_default = if only.is_empty() { 2.0 } else { 0.0 };
            let seeds: u64 = parse_flag(&mut args, "--seeds", 16)?;
            let base_seed: u64 = parse_flag(&mut args, "--base-seed", 0)?;
            let soak_secs: f64 = parse_flag(&mut args, "--soak-secs", soak_default)?;
            let soak_duration = duration(soak_secs, 1.0).ok_or_else(|| {
                DrcshapError::usage(format!("bad value {soak_secs} for --soak-secs"))
            })?;
            let gateway_soak_secs: f64 =
                parse_flag(&mut args, "--gateway-soak-secs", soak_default)?;
            let gateway_soak_duration = duration(gateway_soak_secs, 1.0).ok_or_else(|| {
                DrcshapError::usage(format!(
                    "bad value {gateway_soak_secs} for --gateway-soak-secs"
                ))
            })?;
            let crash_default =
                if only.is_empty() { CrashSoakConfig::default().iterations } else { 0 };
            let crash_soak_iters: u64 = parse_flag(&mut args, "--crash-soak-iters", crash_default)?;
            if let Some(extra) = args.first() {
                return Err(DrcshapError::usage(format!("unexpected argument {extra:?}")));
            }
            if seeds == 0 {
                return Err(DrcshapError::usage("--seeds must be at least 1"));
            }
            let mut checks = testkit::registry();
            if xsat {
                checks.extend(testkit::xsat_checks());
            }
            if !only.is_empty() {
                for name in &only {
                    if !checks.iter().any(|c| c.name == name) {
                        return Err(DrcshapError::usage(format!(
                            "unknown check {name:?} — see `drcshap testkit list`"
                        )));
                    }
                }
                checks.retain(|c| only.iter().any(|n| n == c.name));
            }
            let report = testkit::run_checks(checks, base_seed, seeds);
            for (name, passed) in &report.passes {
                println!("conformance {name}: {passed}/{seeds} seeds ok");
            }
            for failure in &report.failures {
                eprintln!("FAIL {failure}");
            }
            if !report.ok() {
                eprintln!("{} conformance failure(s)", report.failures.len());
                std::process::exit(1);
            }
            if soak_secs > 0.0 {
                let config = ChaosConfig { duration: soak_duration, ..ChaosConfig::default() };
                match testkit::chaos_soak(base_seed, &config) {
                    Ok(soak) => println!("chaos soak ({soak_secs}s): {soak}"),
                    Err(detail) => {
                        eprintln!(
                            "FAIL chaos soak ({soak_secs}s, seed {base_seed}): {detail}\n  \
                             replay: drcshap testkit run --base-seed {base_seed} --seeds 1 \
                             --soak-secs {soak_secs}"
                        );
                        std::process::exit(1);
                    }
                }
            }
            if gateway_soak_secs > 0.0 {
                let config = GatewayChaosConfig {
                    duration: gateway_soak_duration,
                    ..GatewayChaosConfig::default()
                };
                match testkit::gateway_chaos_soak(base_seed, &config) {
                    Ok(soak) => println!("gateway chaos soak ({gateway_soak_secs}s): {soak}"),
                    Err(detail) => {
                        eprintln!(
                            "FAIL gateway chaos soak ({gateway_soak_secs}s, seed {base_seed}): \
                             {detail}\n  replay: drcshap testkit run --base-seed {base_seed} \
                             --seeds 1 --soak-secs 0 --gateway-soak-secs {gateway_soak_secs}"
                        );
                        std::process::exit(1);
                    }
                }
            }
            if crash_soak_iters > 0 {
                let config =
                    CrashSoakConfig { iterations: crash_soak_iters, ..CrashSoakConfig::default() };
                match testkit::crash_soak(base_seed, &config) {
                    Ok(soak) => {
                        println!("registry crash soak ({crash_soak_iters} kill-points): {soak}")
                    }
                    Err(detail) => {
                        eprintln!(
                            "FAIL registry crash soak ({crash_soak_iters} kill-points, seed \
                             {base_seed}): {detail}\n  replay: drcshap testkit run --base-seed \
                             {base_seed} --seeds 1 --soak-secs 0 --gateway-soak-secs 0 \
                             --crash-soak-iters {crash_soak_iters}"
                        );
                        std::process::exit(1);
                    }
                }
            }
            Ok(())
        }
        Some("replay") => {
            let mut args = args[1..].to_vec();
            let check = take_value(&mut args, "--check")?
                .ok_or_else(|| DrcshapError::usage("replay needs --check <name>"))?;
            let seed: u64 = parse_flag(&mut args, "--seed", u64::MAX)?;
            if seed == u64::MAX {
                return Err(DrcshapError::usage("replay needs --seed <s>"));
            }
            let level: u8 = parse_flag(&mut args, "--level", SizeLevel::DEFAULT.0)?;
            if let Some(extra) = args.first() {
                return Err(DrcshapError::usage(format!("unexpected argument {extra:?}")));
            }
            match testkit::replay(&check, seed, SizeLevel::new(level)) {
                Ok(()) => {
                    println!("replay {check} seed {seed} level {level}: ok");
                    Ok(())
                }
                Err(detail) if detail.starts_with("unknown check") => {
                    Err(DrcshapError::usage(detail))
                }
                Err(detail) => {
                    eprintln!("FAIL {check} seed {seed} level {level}: {detail}");
                    std::process::exit(1);
                }
            }
        }
        _ => Err(DrcshapError::usage("usage: drcshap testkit <run | replay | list>")),
    }
}

/// Scores a built design through the serve engine, printing the same
/// top-10 ranking and score digest as `drcshap predict` — the scores are
/// bit-identical by construction, so the digests must match.
fn serve_design(
    engine: &ServeEngine,
    spec: &DesignSpec,
    scale: f64,
    window_cap: usize,
) -> Result<(), DrcshapError> {
    let config = PipelineConfig { scale, ..Default::default() };
    eprintln!("building {} at scale {}...", spec.name, config.scale);
    let bundle = try_build_design(spec, &config)?;
    // A sliding window of at most `window_cap` in-flight tickets keeps
    // batches full; the scores come back in row order.
    let mut rows = matrix_rows(&bundle.features);
    let mut window: VecDeque<Ticket> = VecDeque::new();
    let scores = std::iter::from_fn(|| {
        while window.len() < window_cap {
            let Some(row) = rows.next() else { break };
            match engine.submit(row.to_vec()) {
                Ok(ticket) => window.push_back(ticket),
                Err(e) => return Some(Err(e)),
            }
        }
        window.pop_front().map(|ticket| ticket.wait().map(|response| response.score))
    });
    let (ranked, digest) = rank_scores(scores, 10)?;
    print_hotspots(spec, &ranked, &digest);
    Ok(())
}

/// The JSONL loop: each stdin line is a JSON array of feature values; each
/// stdout line is `{"line":..,"score":..,"epoch":..,"batch":..}` in input
/// order. A sliding window of in-flight tickets keeps batches full without
/// ever tripping the engine's backpressure.
fn serve_jsonl(engine: &ServeEngine, window_cap: usize) -> Result<(), DrcshapError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut window: VecDeque<(usize, Ticket)> = VecDeque::new();
    let mut emit = |window: &mut VecDeque<(usize, Ticket)>| -> Result<(), DrcshapError> {
        let (line, ticket) = window.pop_front().expect("emit called on empty window");
        let response = ticket.wait()?;
        writeln!(
            out,
            "{{\"line\":{line},\"score\":{},\"epoch\":{},\"batch\":{}}}",
            response.score, response.epoch, response.batch_size
        )
        .map_err(|e| DrcshapError::io("stdout", e))?;
        Ok(())
    };
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| DrcshapError::io("stdin", e))?;
        if line.trim().is_empty() {
            continue;
        }
        let x: Vec<f32> = serde_json::from_str(&line).map_err(|e| {
            DrcshapError::from(InputError::Malformed {
                line: lineno + 1,
                message: format!("expected a JSON array of numbers: {e}"),
            })
        })?;
        if window.len() == window_cap {
            emit(&mut window)?;
        }
        window.push_back((lineno + 1, engine.submit(x)?));
    }
    while !window.is_empty() {
        emit(&mut window)?;
    }
    out.flush().map_err(|e| DrcshapError::io("stdout", e))?;
    Ok(())
}
