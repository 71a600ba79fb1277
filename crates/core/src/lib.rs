#![warn(missing_docs)]
//! The paper's workflow (Fig. 1), end to end: synthetic design generation →
//! placement → global routing → DRC labels → 387-feature extraction →
//! grouped training/tuning → per-design evaluation → per-hotspot SHAP
//! explanations.
//!
//! - [`pipeline`] — data acquisition: one [`pipeline::DesignBundle`] per
//!   suite design, convertible to a labelled [`drcshap_ml::Dataset`];
//! - [`zoo`] — the five model families of Table II with the paper's
//!   hyperparameter anchors and tuning grids;
//! - [`eval`] — the Table II protocol: leave-the-test-group-out training,
//!   4-pass grouped grid search on AUPRC, retrain, evaluate
//!   `TPR*`/`Prec*`/`A_prc` per design;
//! - [`explain`] — the explanation service: train RF, pick example hotspots
//!   by dominant cause (the paper's Fig. 3 (a)/(b)/(c) archetypes), render
//!   Fig. 4-style force plots, validate explanations against the oracle's
//!   injected causes, and triage whole designs by archetype;
//! - [`flow`] — the closed loop the paper motivates: predict, rip up and
//!   reroute the traffic over the worst predictions, re-extract, re-predict;
//! - [`artifact`] — versioned, checksummed on-disk model artifacts with
//!   strict validation on load;
//! - [`faults`] — a fault-injection harness proving that corrupted inputs
//!   and artifacts produce typed errors, never panics;
//! - [`supervisor`] — supervised, resumable suite builds: per-stage
//!   checkpoints, a run manifest, per-stage deadlines with degraded-mode
//!   completion, cooperative cancellation, and panic-isolated retries;
//! - [`telemetry`] — workspace-wide spans and counters (re-export of
//!   `drcshap-telemetry`): enable with [`telemetry::enable`], export a
//!   JSON summary or Chrome trace from [`telemetry::hub`].
//!
//! # Example
//!
//! ```no_run
//! use drcshap_core::pipeline::{build_design, PipelineConfig};
//! use drcshap_netlist::suite;
//!
//! let config = PipelineConfig { scale: 0.2, ..PipelineConfig::default() };
//! let bundle = build_design(&suite::spec("fft_1").unwrap(), &config);
//! println!(
//!     "{}: {} g-cells, {} hotspots",
//!     bundle.design.spec.name,
//!     bundle.design.grid.num_cells(),
//!     bundle.report.num_hotspots()
//! );
//! ```

pub mod artifact;
pub mod eval;
pub mod explain;
pub mod faults;
pub mod flow;
pub mod pipeline;
pub mod supervisor;
pub mod zoo;

pub use drcshap_telemetry as telemetry;

pub use artifact::{decode_model, encode_model, load_model, save_model, ModelKind, SavedModel};
pub use eval::{evaluate_models, DesignMetrics, EvalConfig, Table2};
pub use explain::{CaseArchetype, Explainer, ExplanationCase, TriageReport, TriageRow};
pub use faults::{
    run_artifact_faults, run_vector_faults, ArtifactFault, FaultReport, StageFault, StageFaultKind,
    VectorFault,
};
pub use flow::{run_fix_loop, FixIteration, FixLoopReport};
pub use pipeline::{
    build_design, build_suite, try_build_design, try_build_suite, DesignBundle, PipelineConfig,
    Stage,
};
pub use supervisor::{
    read_manifest, run_supervised, DesignOutcome, DesignStatus, RunManifest, SuiteReport,
    SupervisorConfig,
};
pub use zoo::{ModelFamily, TrainedModel};
