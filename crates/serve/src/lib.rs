//! drcshap-serve: the in-process batched inference engine.
//!
//! This crate owns the serving hot path for DRC hotspot prediction:
//!
//! - [`CompiledForest`] (re-exported from `drcshap-forest`) — a Random
//!   Forest flattened into one packed 16-byte node array, built once per
//!   model, walking eight trees of a row in lockstep, with scores
//!   bit-identical to the reference `RandomForest::predict_proba` /
//!   `predict_proba_nan_aware`.
//! - [`ServeEngine`] — a bounded queue of micro-batches formed at
//!   submission (flushed when full, `max_wait` old, or waited on), a
//!   worker pool, one answer slot per batch, typed backpressure
//!   ([`drcshap_ml::DrcshapError::Overloaded`]) when the queue is full,
//!   and graceful shutdown that drains in-flight work.
//! - [`ExplanationCache`] — a thread-safe LRU cache of SHAP explanations
//!   keyed by the exact bit patterns of the feature vector; a hit skips
//!   the tree-walk entirely.
//! - [`EpochCell`] — epoch-guarded hot model swap: a new validated
//!   artifact replaces the model between batches without dropping
//!   requests, and swaps with a different schema fingerprint are
//!   rejected. Each [`ModelEpoch`] owns what its forest derives: its
//!   explanation cache, its lazily encoded SAT engine and, when analytics
//!   is mounted, its analytics sink, so a swap is one pointer store and
//!   no explanation crosses from one epoch into the next.
//! - [`ServeCounters`] — every count the engine keeps, declared once and
//!   mirrored into the process-wide telemetry counter of the same name
//!   while telemetry is enabled; [`ServeMetrics`] is the serializable
//!   snapshot of those counts, the queue depth, and latency quantiles
//!   from a `drcshap_telemetry::QuantileSketch`.
//!
//! Every batch is scored by the epoch's [`CompiledForest`]; the
//! reference `RandomForest::predict_proba` / `predict_proba_nan_aware`
//! stays the differential oracle it is checked against.
//!
//! The binary surface lives in the root crate (`drcshap serve`) and in
//! `drcshap-bench` (`serve_bench`); this crate is the library they share.

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod swap;

pub use cache::ExplanationCache;
pub use drcshap_forest::CompiledForest;
pub use engine::{ScoredResponse, ServeConfig, ServeEngine, Ticket};
pub use metrics::{ServeCounters, ServeMetrics};
pub use swap::{EpochCell, ModelEpoch};
