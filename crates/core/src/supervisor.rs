//! Supervised, resumable execution of the data-acquisition pipeline.
//!
//! [`crate::pipeline::build_suite`] is the happy path: it assumes every
//! stage of every design finishes, and a panic or a kill loses the whole
//! run. The supervisor runs the same stage sequence — synth, place, route,
//! DRC, extract, each one [`crate::pipeline`]'s own stage body — under
//! adult supervision:
//!
//! - each completed stage is written to disk as a **checksummed
//!   checkpoint** (the [`crate::artifact`] container format) together with
//!   a snapshot of the RNG state, so a crashed or cancelled run resumes
//!   from the last good stage *bit-exactly* — a resumed run produces the
//!   same features as an uninterrupted one;
//! - a **run manifest** (`manifest.json`) records the configuration
//!   fingerprint and per-design progress; resuming under a different
//!   configuration is rejected with a typed error instead of silently
//!   mixing incompatible intermediate state;
//! - every stage runs under a [`StageBudget`]: deadline expiry makes the
//!   stage *degrade* (fallback routes, spill placement) while cancellation
//!   unwinds cleanly and marks the run resumable;
//! - a panicking stage is **isolated** ([`std::panic::catch_unwind`]) and
//!   mapped to [`PipelineError::StagePanicked`]; the design is retried once
//!   with derated routing capacity, then marked failed — the rest of the
//!   suite continues;
//! - a corrupt or truncated checkpoint is detected by the container CRC,
//!   counted as a recovery event, and recomputed from the last good stage —
//!   never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use drcshap_drc::DrcReport;
use drcshap_features::FeatureMatrix;
use drcshap_geom::budget::{CancelToken, Interrupted, StageBudget};
use drcshap_ml::{DrcshapError, PipelineError};
use drcshap_netlist::{suite::DesignSpec, Design};
use drcshap_route::{RouteConfig, RouteOutcome};
use drcshap_telemetry as telemetry;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::artifact::{decode_container, encode_container};
use crate::faults::{StageFault, StageFaultKind};
use crate::pipeline::{run_stage, DesignBundle, PipelineConfig, Stage, StageState};

/// Manifest schema version written by this build.
pub const MANIFEST_VERSION: u32 = 1;

/// Capacity derate applied to the retry attempt of a failed design.
const RETRY_DERATE: f64 = 0.5;

/// A restorable snapshot of the pipeline RNG ([`ChaCha8Rng`]), captured at
/// each stage boundary. The 128-bit word position is stored as two `u64`
/// halves because JSON has no 128-bit integer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngSnapshot {
    seed: [u8; 32],
    stream: u64,
    word_pos_hi: u64,
    word_pos_lo: u64,
}

impl RngSnapshot {
    fn capture(rng: &ChaCha8Rng) -> Self {
        let word_pos = rng.get_word_pos();
        Self {
            seed: rng.get_seed(),
            stream: rng.get_stream(),
            word_pos_hi: (word_pos >> 64) as u64,
            word_pos_lo: word_pos as u64,
        }
    }

    fn restore(&self) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::from_seed(self.seed);
        rng.set_stream(self.stream);
        rng.set_word_pos((u128::from(self.word_pos_hi) << 64) | u128::from(self.word_pos_lo));
        rng
    }
}

/// The output of one completed stage, as persisted in its checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum StagePayload {
    /// Synth and Place checkpoints both store the (partially built) design.
    Design(Box<Design>),
    /// Route checkpoint: the routing outcome.
    Route(Box<RouteOutcome>),
    /// DRC checkpoint: the labelling report.
    Drc(Box<DrcReport>),
    /// Extract checkpoint: the feature matrix.
    Extract(Box<FeatureMatrix>),
}

impl StagePayload {
    fn matches(&self, stage: Stage) -> bool {
        matches!(
            (self, stage),
            (StagePayload::Design(_), Stage::Synth | Stage::Place)
                | (StagePayload::Route(_), Stage::Route)
                | (StagePayload::Drc(_), Stage::Drc)
                | (StagePayload::Extract(_), Stage::Extract)
        )
    }
}

/// One stage checkpoint: the stage's output, the RNG state *after* the
/// stage, and whether the stage finished degraded.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Checkpoint {
    rng: RngSnapshot,
    degraded: bool,
    payload: StagePayload,
}

/// Per-design progress record in the run manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignRecord {
    /// Design name (scaled spec name equals the suite name).
    pub name: String,
    /// Stage names checkpointed so far, in execution order.
    pub completed_stages: Vec<String>,
    /// `pending`, `completed`, `cancelled` or `failed: <message>`.
    pub status: String,
}

/// The run manifest: configuration identity plus per-design progress,
/// rewritten atomically after every stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Linear design scale the run was started with.
    pub scale: f64,
    /// [`PipelineConfig::fingerprint`] of the run's configuration.
    pub config_fingerprint: u64,
    /// One record per design in the run.
    pub designs: Vec<DesignRecord>,
}

/// Reads and validates the manifest of an existing run directory.
///
/// # Errors
///
/// [`DrcshapError::Io`] when the file cannot be read;
/// [`PipelineError::ManifestMismatch`] when it does not parse or was
/// written by an incompatible manifest version.
pub fn read_manifest(run_dir: &Path) -> Result<RunManifest, DrcshapError> {
    let path = run_dir.join("manifest.json");
    let bytes =
        std::fs::read(&path).map_err(|e| DrcshapError::io(path.display().to_string(), e))?;
    let manifest: RunManifest = serde_json::from_slice(&bytes).map_err(|e| {
        DrcshapError::from(PipelineError::ManifestMismatch {
            detail: format!("{} does not parse: {e}", path.display()),
        })
    })?;
    if manifest.version != MANIFEST_VERSION {
        return Err(PipelineError::ManifestMismatch {
            detail: format!(
                "manifest version {} (this build reads {MANIFEST_VERSION})",
                manifest.version
            ),
        }
        .into());
    }
    Ok(manifest)
}

/// Configuration of a supervised run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The pipeline parameters (scale, router, DRC oracle).
    pub pipeline: PipelineConfig,
    /// Directory holding the manifest and per-design checkpoints.
    pub run_dir: PathBuf,
    /// Optional per-stage wall-clock deadline. Expiry degrades the stage
    /// (it still completes); it never fails the run.
    pub stage_deadline: Option<Duration>,
    /// Attempts per design (first try + retries). The second attempt
    /// derates routing capacity by 0.5×. Minimum 1.
    pub max_attempts: usize,
    /// Deterministic fault injection for tests; `None` in production.
    pub fault: Option<StageFault>,
}

impl SupervisorConfig {
    /// A supervisor over `pipeline` writing to `run_dir`, with no stage
    /// deadline, one retry, and no fault injection.
    pub fn new(pipeline: PipelineConfig, run_dir: impl Into<PathBuf>) -> Self {
        Self {
            pipeline,
            run_dir: run_dir.into(),
            stage_deadline: None,
            max_attempts: 2,
            fault: None,
        }
    }
}

/// Terminal status of one design in a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignStatus {
    /// All five stages checkpointed; a bundle was produced.
    Completed,
    /// Every attempt failed; the rest of the suite continued.
    Failed {
        /// Rendered [`PipelineError::DesignFailed`] message.
        message: String,
    },
    /// The run's cancel token fired during this design.
    Cancelled,
}

/// Per-design outcome of a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    /// Design name.
    pub name: String,
    /// Terminal status.
    pub status: DesignStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// Stages actually executed (all attempts combined).
    pub stages_run: usize,
    /// Stages restored from checkpoints instead of executed.
    pub stages_resumed: usize,
    /// Corrupt checkpoints detected and recomputed.
    pub recovered_checkpoints: usize,
    /// Stages that finished degraded (deadline expiry).
    pub degraded_stages: Vec<Stage>,
}

/// The outcome of [`run_supervised`]: per-design bundles (where produced)
/// and outcomes, in spec order.
#[derive(Debug)]
pub struct SuiteReport {
    /// One entry per requested spec; `None` for failed/cancelled designs.
    pub bundles: Vec<Option<DesignBundle>>,
    /// One outcome per requested spec, same order.
    pub designs: Vec<DesignOutcome>,
    /// Whether the run's cancel token fired.
    pub cancelled: bool,
}

impl SuiteReport {
    /// Number of designs that completed.
    pub fn completed(&self) -> usize {
        self.designs.iter().filter(|d| d.status == DesignStatus::Completed).count()
    }

    /// Renders a per-design status table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<14} {:>9} {:>8} {:>8} {:>9} {:>9}  status\n",
            "design", "attempts", "run", "resumed", "recovered", "degraded"
        );
        for d in &self.designs {
            let status = match &d.status {
                DesignStatus::Completed => "completed".to_string(),
                DesignStatus::Failed { message } => format!("failed: {message}"),
                DesignStatus::Cancelled => "cancelled".to_string(),
            };
            out.push_str(&format!(
                "{:<14} {:>9} {:>8} {:>8} {:>9} {:>9}  {}\n",
                d.name,
                d.attempts,
                d.stages_run,
                d.stages_resumed,
                d.recovered_checkpoints,
                d.degraded_stages.len(),
                status
            ));
        }
        out.push_str(&format!(
            "{}/{} designs completed{}\n",
            self.completed(),
            self.designs.len(),
            if self.cancelled { " (run cancelled)" } else { "" }
        ));
        out
    }
}

/// Writes `bytes` to `path` with the workspace-wide crash-atomic publish
/// discipline (temp file, fsync, rename, parent-dir fsync), so a kill at
/// any point never leaves a half-written checkpoint or manifest.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DrcshapError> {
    crate::artifact::write_atomic(path, bytes)
}

/// Applies `update` to the shared manifest and rewrites it atomically.
/// Tolerates a poisoned lock: the manifest is plain data, and a panicked
/// sibling design must not take the rest of the suite down with it.
fn update_manifest(
    manifest: &Mutex<RunManifest>,
    path: &Path,
    update: impl FnOnce(&mut RunManifest),
) -> Result<(), DrcshapError> {
    let mut guard = manifest.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    update(&mut guard);
    let json = serde_json::to_vec_pretty(&*guard).expect("manifest serializes");
    write_atomic(path, &json)
}

/// Loads one stage checkpoint. `Ok(None)` means "no checkpoint" (run the
/// stage); `Err(detail)` means the file exists but is unusable (corrupt,
/// wrong kind, wrong fingerprint) and must be recomputed.
fn load_checkpoint(
    path: &Path,
    stage: Stage,
    fingerprint: u64,
) -> Result<Option<Checkpoint>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.to_string()),
    };
    let (kind, payload) = decode_container(&bytes, fingerprint).map_err(|e| e.to_string())?;
    if kind != stage.code() {
        return Err(format!("kind byte {kind:#04x} is not a {stage} checkpoint"));
    }
    let checkpoint: Checkpoint = serde_json::from_slice(payload).map_err(|e| e.to_string())?;
    if !checkpoint.payload.matches(stage) {
        return Err(format!("payload variant does not match stage {stage}"));
    }
    Ok(Some(checkpoint))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Counters accumulated across one design's attempts.
#[derive(Default)]
struct DesignStats {
    stages_run: usize,
    stages_resumed: usize,
    recovered: usize,
    degraded: Vec<Stage>,
}

/// One attempt at one design: walk the stages, resuming from the longest
/// contiguous prefix of valid checkpoints, executing (and checkpointing)
/// the rest.
#[allow(clippy::too_many_arguments)] // internal plumbing, not public API
fn run_design_attempt(
    spec: &DesignSpec,
    route_cfg: &RouteConfig,
    sup: &SupervisorConfig,
    cancel: &CancelToken,
    fault_armed: &AtomicBool,
    manifest: &Mutex<RunManifest>,
    manifest_path: &Path,
    stats: &mut DesignStats,
) -> Result<DesignBundle, DrcshapError> {
    let dir = sup.run_dir.join(&spec.name);
    std::fs::create_dir_all(&dir).map_err(|e| DrcshapError::io(dir.display().to_string(), e))?;
    let fingerprint = sup.pipeline.fingerprint();
    let mut state = StageState::default();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed());
    // True while walking the contiguous prefix of reusable checkpoints;
    // flips to false at the first missing or corrupt one.
    let mut resuming = true;

    for stage in Stage::ALL {
        let path = dir.join(format!("{}.ckpt", stage.name()));
        if resuming {
            match load_checkpoint(&path, stage, fingerprint) {
                Ok(Some(checkpoint)) => {
                    rng = checkpoint.rng.restore();
                    if checkpoint.degraded {
                        stats.degraded.push(stage);
                    }
                    match checkpoint.payload {
                        StagePayload::Design(d) => state.design = Some(*d),
                        StagePayload::Route(r) => state.route = Some(*r),
                        StagePayload::Drc(r) => state.report = Some(*r),
                        StagePayload::Extract(f) => state.features = Some(*f),
                    }
                    stats.stages_resumed += 1;
                    telemetry::counter("supervisor/stages_resumed", 1);
                    continue;
                }
                Ok(None) => resuming = false,
                Err(_detail) => {
                    // Corrupt checkpoint: recompute from here on. The CRC
                    // caught it; recovery is recomputation, never a panic.
                    stats.recovered += 1;
                    telemetry::counter("supervisor/checkpoints_recovered", 1);
                    resuming = false;
                }
            }
        }

        // Deterministic fault injection (tests only). The armed flag makes
        // each fault one-shot so a retry or resume proceeds cleanly.
        let mut inject_panic = false;
        let mut corrupt_after = false;
        if let Some(fault) = &sup.fault {
            if fault.design == spec.name
                && fault.stage == stage
                && fault_armed.swap(false, Ordering::SeqCst)
            {
                match fault.kind {
                    StageFaultKind::Cancel => cancel.cancel(),
                    StageFaultKind::Panic => inject_panic = true,
                    StageFaultKind::CorruptCheckpoint => corrupt_after = true,
                }
            }
        }

        let budget =
            StageBudget::unlimited().deadline_in(sup.stage_deadline).cancelled_by(cancel.clone());
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault at {}/{}", spec.name, stage);
            }
            run_stage(stage, spec, route_cfg, &sup.pipeline.drc, &mut state, &mut rng, &budget)
        }));
        let degraded = match result {
            Ok(Ok(degraded)) => degraded,
            Ok(Err(Interrupted)) => {
                return Err(PipelineError::Cancelled {
                    design: spec.name.clone(),
                    stage: stage.name().to_string(),
                }
                .into())
            }
            Err(payload) => {
                return Err(PipelineError::StagePanicked {
                    design: spec.name.clone(),
                    stage: stage.name().to_string(),
                    message: panic_message(payload),
                }
                .into())
            }
        };
        stats.stages_run += 1;
        telemetry::counter("supervisor/stages_run", 1);
        if degraded {
            stats.degraded.push(stage);
        }

        let payload = match stage {
            Stage::Synth | Stage::Place => {
                StagePayload::Design(Box::new(state.design.clone().expect("stage ran")))
            }
            Stage::Route => StagePayload::Route(Box::new(state.route.clone().expect("stage ran"))),
            Stage::Drc => StagePayload::Drc(Box::new(state.report.clone().expect("stage ran"))),
            Stage::Extract => {
                StagePayload::Extract(Box::new(state.features.clone().expect("stage ran")))
            }
        };
        let checkpoint = Checkpoint { rng: RngSnapshot::capture(&rng), degraded, payload };
        let json = serde_json::to_vec(&checkpoint).expect("checkpoint serializes");
        write_atomic(&path, &encode_container(stage.code(), fingerprint, &json))?;
        if corrupt_after {
            let mut bytes = std::fs::read(&path)
                .map_err(|e| DrcshapError::io(path.display().to_string(), e))?;
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            std::fs::write(&path, bytes)
                .map_err(|e| DrcshapError::io(path.display().to_string(), e))?;
        }

        update_manifest(manifest, manifest_path, |m| {
            if let Some(record) = m.designs.iter_mut().find(|d| d.name == spec.name) {
                let name = stage.name().to_string();
                if !record.completed_stages.contains(&name) {
                    record.completed_stages.push(name);
                }
            }
        })?;
    }

    Ok(state.into_bundle())
}

/// Supervises one design: up to `max_attempts` attempts, the retry with
/// derated routing capacity. Cancellation is terminal (no retry).
fn supervise_design(
    spec: &DesignSpec,
    sup: &SupervisorConfig,
    cancel: &CancelToken,
    fault_armed: &AtomicBool,
    manifest: &Mutex<RunManifest>,
    manifest_path: &Path,
) -> (Option<DesignBundle>, DesignOutcome) {
    let _design_span = telemetry::span_with("supervisor/design", || spec.name.clone());
    let mut stats = DesignStats::default();
    let max_attempts = sup.max_attempts.max(1);
    let mut attempts = 0;
    let mut last_error = String::new();
    let mut cancelled = false;

    while attempts < max_attempts && !cancelled {
        attempts += 1;
        let route_cfg = if attempts == 1 {
            sup.pipeline.route_for(spec)
        } else {
            sup.pipeline.route_for(spec).derated(RETRY_DERATE)
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_design_attempt(
                spec,
                &route_cfg,
                sup,
                cancel,
                fault_armed,
                manifest,
                manifest_path,
                &mut stats,
            )
        }));
        match result {
            Ok(Ok(bundle)) => {
                let _ = update_manifest(manifest, manifest_path, |m| {
                    if let Some(r) = m.designs.iter_mut().find(|d| d.name == spec.name) {
                        r.status = "completed".to_string();
                    }
                });
                let outcome = DesignOutcome {
                    name: spec.name.clone(),
                    status: DesignStatus::Completed,
                    attempts,
                    stages_run: stats.stages_run,
                    stages_resumed: stats.stages_resumed,
                    recovered_checkpoints: stats.recovered,
                    degraded_stages: stats.degraded,
                };
                return (Some(bundle), outcome);
            }
            Ok(Err(e)) => {
                cancelled = matches!(&e, DrcshapError::Pipeline(PipelineError::Cancelled { .. }))
                    || cancel.is_cancelled();
                last_error = e.to_string();
            }
            Err(payload) => {
                // A panic outside the stage sandbox (checkpoint IO, manifest
                // bookkeeping) still only costs this design its attempt.
                last_error = panic_message(payload);
            }
        }
    }

    let status = if cancelled {
        DesignStatus::Cancelled
    } else {
        DesignStatus::Failed {
            message: PipelineError::DesignFailed {
                design: spec.name.clone(),
                attempts,
                last_error: last_error.clone(),
            }
            .to_string(),
        }
    };
    let manifest_status = match &status {
        DesignStatus::Cancelled => "cancelled".to_string(),
        DesignStatus::Failed { message } => format!("failed: {message}"),
        DesignStatus::Completed => unreachable!("completed returns above"),
    };
    let _ = update_manifest(manifest, manifest_path, |m| {
        if let Some(r) = m.designs.iter_mut().find(|d| d.name == spec.name) {
            r.status = manifest_status.clone();
        }
    });
    let outcome = DesignOutcome {
        name: spec.name.clone(),
        status,
        attempts,
        stages_run: stats.stages_run,
        stages_resumed: stats.stages_resumed,
        recovered_checkpoints: stats.recovered,
        degraded_stages: stats.degraded,
    };
    (None, outcome)
}

/// Runs the suite under supervision: per-design checkpoints and retries,
/// per-stage deadlines, cooperative cancellation, and a persistent run
/// manifest. Safe to call again on the same `run_dir` after a crash, kill
/// or cancellation — completed stages are resumed from their checkpoints
/// and the result is bit-identical to an uninterrupted run.
///
/// Designs run one after another, in `specs` order; a failed design never
/// takes the suite down.
///
/// # Errors
///
/// [`InputError::InvalidScale`](drcshap_ml::InputError) for an invalid
/// pipeline config; [`DrcshapError::Io`] when the run directory is
/// unusable; [`PipelineError::ManifestMismatch`] when `run_dir` holds a
/// manifest from a different configuration. Per-design failures are *not*
/// errors — they are reported in the [`SuiteReport`].
pub fn run_supervised(
    specs: &[DesignSpec],
    sup: &SupervisorConfig,
    cancel: &CancelToken,
) -> Result<SuiteReport, DrcshapError> {
    sup.pipeline.validate()?;
    std::fs::create_dir_all(&sup.run_dir)
        .map_err(|e| DrcshapError::io(sup.run_dir.display().to_string(), e))?;
    let fingerprint = sup.pipeline.fingerprint();
    let manifest_path = sup.run_dir.join("manifest.json");

    let mut manifest = if manifest_path.exists() {
        let m = read_manifest(&sup.run_dir)?;
        if m.config_fingerprint != fingerprint {
            return Err(PipelineError::ManifestMismatch {
                detail: format!(
                    "run directory {} was created with config fingerprint {:#018x}, \
                     the current config is {:#018x}",
                    sup.run_dir.display(),
                    m.config_fingerprint,
                    fingerprint
                ),
            }
            .into());
        }
        m
    } else {
        RunManifest {
            version: MANIFEST_VERSION,
            scale: sup.pipeline.scale,
            config_fingerprint: fingerprint,
            designs: Vec::new(),
        }
    };
    for spec in specs {
        if !manifest.designs.iter().any(|d| d.name == spec.name) {
            manifest.designs.push(DesignRecord {
                name: spec.name.clone(),
                completed_stages: Vec::new(),
                status: "pending".to_string(),
            });
        }
    }
    let json = serde_json::to_vec_pretty(&manifest).expect("manifest serializes");
    write_atomic(&manifest_path, &json)?;

    let manifest = Mutex::new(manifest);
    let fault_armed = AtomicBool::new(true);
    let scaled: Vec<DesignSpec> = specs.iter().map(|s| s.scaled(sup.pipeline.scale)).collect();
    let results: Vec<(Option<DesignBundle>, DesignOutcome)> = scaled
        .iter()
        .map(|spec| supervise_design(spec, sup, cancel, &fault_armed, &manifest, &manifest_path))
        .collect();

    let mut bundles = Vec::with_capacity(results.len());
    let mut designs = Vec::with_capacity(results.len());
    for (bundle, outcome) in results {
        bundles.push(bundle);
        designs.push(outcome);
    }
    Ok(SuiteReport { bundles, designs, cancelled: cancel.is_cancelled() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_netlist::suite;

    fn specs() -> Vec<DesignSpec> {
        vec![suite::spec("fft_1").unwrap()]
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("drcshap-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn rng_snapshot_round_trips_mid_stream() {
        use rand::RngCore;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        rng.set_stream(7);
        for _ in 0..13 {
            rng.next_u32();
        }
        let snap = RngSnapshot::capture(&rng);
        let mut restored = snap.restore();
        for _ in 0..32 {
            assert_eq!(rng.next_u32(), restored.next_u32());
        }
    }

    #[test]
    fn stage_codes_are_stable_and_disjoint() {
        let codes: Vec<u8> = Stage::ALL.iter().map(|s| s.code()).collect();
        assert_eq!(codes, vec![0x10, 0x11, 0x12, 0x13, 0x14]);
        assert_eq!(Stage::Route.to_string(), "route");
    }

    #[test]
    fn supervised_run_matches_unsupervised_build() {
        let dir = tmp_dir("match");
        let pipeline = PipelineConfig { scale: 0.15, ..Default::default() };
        let sup = SupervisorConfig::new(pipeline.clone(), &dir);
        let report = run_supervised(&specs(), &sup, &CancelToken::new()).unwrap();
        assert_eq!(report.completed(), 1);
        let supervised = report.bundles[0].as_ref().unwrap();
        let direct = crate::pipeline::build_design(&specs()[0], &pipeline);
        assert_eq!(supervised.report.labels, direct.report.labels);
        assert_eq!(supervised.features.row(3), direct.features.row(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_run_resumes_every_stage_from_checkpoints() {
        let dir = tmp_dir("resume");
        let pipeline = PipelineConfig { scale: 0.15, ..Default::default() };
        let sup = SupervisorConfig::new(pipeline, &dir);
        let first = run_supervised(&specs(), &sup, &CancelToken::new()).unwrap();
        assert_eq!(first.designs[0].stages_run, 5);
        let second = run_supervised(&specs(), &sup, &CancelToken::new()).unwrap();
        assert_eq!(second.designs[0].stages_resumed, 5);
        assert_eq!(second.designs[0].stages_run, 0);
        let a = first.bundles[0].as_ref().unwrap();
        let b = second.bundles[0].as_ref().unwrap();
        assert_eq!(a.features.row(0), b.features.row(0));
        assert_eq!(a.report.labels, b.report.labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_config_is_rejected_on_resume() {
        let dir = tmp_dir("mismatch");
        let sup = SupervisorConfig::new(PipelineConfig { scale: 0.15, ..Default::default() }, &dir);
        run_supervised(&specs(), &sup, &CancelToken::new()).unwrap();
        let other =
            SupervisorConfig::new(PipelineConfig { scale: 0.12, ..Default::default() }, &dir);
        let err = run_supervised(&specs(), &other, &CancelToken::new()).unwrap_err();
        assert!(
            matches!(err, DrcshapError::Pipeline(PipelineError::ManifestMismatch { .. })),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_stage_is_retried_and_the_design_completes() {
        let dir = tmp_dir("panic");
        let mut sup =
            SupervisorConfig::new(PipelineConfig { scale: 0.15, ..Default::default() }, &dir);
        sup.fault = Some(StageFault {
            design: "fft_1".to_string(),
            stage: Stage::Route,
            kind: StageFaultKind::Panic,
        });
        let report = run_supervised(&specs(), &sup, &CancelToken::new()).unwrap();
        let outcome = &report.designs[0];
        assert_eq!(outcome.status, DesignStatus::Completed);
        assert_eq!(outcome.attempts, 2);
        // The retry resumed synth and place from their checkpoints.
        assert!(outcome.stages_resumed >= 2, "{outcome:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
