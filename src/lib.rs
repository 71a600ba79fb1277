#![warn(missing_docs)]
//! # drcshap
//!
//! A production-quality Rust reproduction of *"Explainable DRC Hotspot
//! Prediction with Random Forest and SHAP Tree Explainer"* (Zeng, Davoodi &
//! Topaloglu, DATE 2020): predict, at the global-routing stage, which
//! g-cells will contain DRC violations after detailed routing — and explain
//! each individual prediction with exact, polynomial-time SHAP values.
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`geom`], [`netlist`], [`place`], [`route`], [`drc`] — the EDA
//!   substrates (g-cell grids, design database with the 14-design synthetic
//!   ISPD-2015-like suite, placer, 5-metal-layer global router, DRC oracle);
//! - [`features`] — the paper's 387 placement + congestion features;
//! - [`ml`], [`forest`], [`svm`], [`nn`] — the ML substrate and the five
//!   model families of Table II (Random Forest, SVM-RBF, RUSBoost, NN-1/2);
//! - [`shap`] — the SHAP tree explainer, exact brute-force reference and
//!   sampling baseline;
//! - [`core`] — the paper's end-to-end workflow: pipeline, grouped
//!   evaluation protocol and the explanation service;
//! - [`serve`] — the batched inference engine: compiled forests,
//!   micro-batching with backpressure, an LRU explanation cache, hot model
//!   swap and serving metrics;
//! - [`gateway`] — the multi-shard serving front end: consistent-hash
//!   routing over a fleet of serve engines, per-tenant admission quotas
//!   with priority shedding, deadline propagation, shard health with
//!   circuit breaking and failover, hedged requests, and staged
//!   (canary-verified) fleet rollouts with automatic rollback;
//! - [`store`] — the crash-safe model registry: pluggable storage
//!   backends with an atomic-publish discipline, an append-only
//!   CRC-framed generation journal over content-hash-addressed immutable
//!   blobs, recovery (torn-tail truncation, temp-file sweep, blob
//!   quarantine), verification, garbage collection, and a watch API the
//!   gateway's staged rollouts pull new generations from;
//! - [`analytics`] — streaming explanation analytics: deterministic
//!   mergeable per-feature quantile sketches (fixed error bound ε,
//!   bit-stable digests under any fold/merge topology), signed-importance
//!   accumulators, beeswarm payload bins, binned dependence curves and
//!   interaction-pair aggregation, every snapshot stamped with
//!   provenance;
//! - [`xsat`] — SAT-based abductive explanations served next to SHAP: a
//!   self-contained CDCL solver, a CNF encoding of a trained forest's
//!   decision paths and majority vote, and an engine computing
//!   subset-minimal sufficient reasons (with their contrastive duals)
//!   under explicit conflict/deadline budgets;
//! - [`telemetry`] — workspace-wide spans and counters with JSON-summary
//!   and Chrome-trace export (`--trace` / `--stats` on the CLI);
//! - [`testkit`] — the deterministic conformance engine: seeded scenario
//!   generators, differential oracles against independent reference
//!   implementations, metamorphic properties, and a chaos/soak harness
//!   for the serve engine, all replayable from a single seed
//!   (`drcshap testkit run | replay | list`).
//!
//! # Quickstart
//!
//! ```no_run
//! use drcshap::core::pipeline::{build_design, PipelineConfig};
//! use drcshap::core::explain::Explainer;
//! use drcshap::forest::RandomForestTrainer;
//! use drcshap::netlist::suite;
//! use drcshap::shap::ForceOptions;
//!
//! let config = PipelineConfig { scale: 0.25, ..Default::default() };
//! let bundle = build_design(&suite::spec("des_perf_1").unwrap(), &config);
//! let trainer = RandomForestTrainer { n_trees: 100, ..Default::default() };
//! let explainer = Explainer::train(std::slice::from_ref(&bundle), &trainer, 42);
//! for case in explainer.select_cases(&bundle, 3) {
//!     println!("{}", explainer.render(&case, &ForceOptions::default()));
//! }
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and per-experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

pub use drcshap_analytics as analytics;
pub use drcshap_core as core;
pub use drcshap_drc as drc;
pub use drcshap_features as features;
pub use drcshap_forest as forest;
pub use drcshap_gateway as gateway;
pub use drcshap_geom as geom;
pub use drcshap_ml as ml;
pub use drcshap_netlist as netlist;
pub use drcshap_nn as nn;
pub use drcshap_place as place;
pub use drcshap_route as route;
pub use drcshap_serve as serve;
pub use drcshap_shap as shap;
pub use drcshap_store as store;
pub use drcshap_svm as svm;
pub use drcshap_telemetry as telemetry;
pub use drcshap_testkit as testkit;
pub use drcshap_xsat as xsat;
