#![warn(missing_docs)]
//! Streaming explanation analytics — the paper's *global* SHAP story
//! (summary rankings, beeswarm distributions, dependence curves) folded
//! from per-request explanation traffic in bounded memory.
//!
//! The serve/gateway stack emits one SHAP vector per request; answering
//! "what drives DRC hotspots this week" must not require re-scanning
//! every request. This crate folds each vector, as it is explained, into
//! mergeable aggregates:
//!
//! - per-feature φ-distribution sketches: [`drcshap_telemetry::QuantileSketch`],
//!   the workspace's one quantile structure, with a fixed relative error
//!   bound ε and a hard memory ceiling. Its state is a pure function of
//!   the input *multiset*, so any fold/merge topology (single stream,
//!   k-way split, N serve workers, a whole gateway fleet) produces
//!   **bit-identical** snapshots — see [`drcshap_telemetry::sketch`] for
//!   why KLL/GK cannot offer this;
//! - [`FixedSum`] — fixed-point Σφ / Σ|φ| accumulators (exact integer
//!   addition, so means are order-independent too);
//! - binned dependence curves (feature value × mean φ) and optional
//!   SHAP interaction-pair aggregation from [`drcshap_shap::interactions`];
//! - [`AnalyticsSnapshot`] — the provenance-stamped (artifact CRC,
//!   schema fingerprint, model epoch, sketch params), digest-stable wire
//!   form, with exact [`AnalyticsSnapshot::merge`] for fleet views;
//! - [`AnalyticsSink`] — the single-owner fold. The serve engine gives
//!   each model epoch one sink and drops it when a hot swap retires the
//!   epoch;
//! - [`build_report`] — rendered summaries: top-k mean-|φ| ranking,
//!   beeswarm bins, dependence points, and interaction pairs.
//!
//! Every sketch in this crate is held to an exact full-sort reference by
//! the testkit `sketch-differential` oracle, and the end-to-end fold is
//! held to [`drcshap_shap::summarize`] by `analytics-consistency`.
//!
//! # Example
//!
//! ```
//! use drcshap_analytics::{AnalyticsConfig, AnalyticsSink, Provenance};
//!
//! let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
//! sink.fold(&[0.9, 0.1], &[0.4, -0.02]).unwrap();
//! sink.fold(&[0.8, 0.3], &[0.3, 0.05]).unwrap();
//! let snapshot = sink.snapshot(Provenance::default());
//! assert_eq!(snapshot.n_vectors, 2);
//! // Feature 0 dominates the global mean-|φ| ranking.
//! assert_eq!(drcshap_analytics::ranking(&snapshot)[0], 0);
//! ```

pub mod accum;
pub mod report;
pub mod sink;
pub mod snapshot;

pub use accum::{quantize, FixedSum, QFIX_BITS, QFIX_CLAMP_BITS};
pub use report::{
    build_report, ranking, AnalyticsReport, BeeswarmBin, DependencePoint, FeatureReport,
    PairReport, QuantilePoint, REPORT_QUANTILES,
};
pub use sink::{AnalyticsConfig, AnalyticsSink};
pub use snapshot::{
    merge_fleet, AnalyticsSnapshot, DependenceCell, FeatureSnapshot, PairSnapshot, Provenance,
    SnapshotParams, SNAPSHOT_SCHEMA_VERSION,
};
