//! The conformance registry: differential oracles and metamorphic
//! properties, every one a pure function of `(seed, SizeLevel)`.
//!
//! A differential oracle pits two independent implementations of the same
//! contract against each other (TreeSHAP vs brute-force `shap::exact`,
//! compiled batch scoring vs the reference forest, serve responses vs
//! offline prediction under each NaN policy, fast metrics vs
//! `reference::*`). A metamorphic
//! property checks an invariant a correct implementation must satisfy
//! under an input transformation (monotone score transforms, consistent
//! pair permutations, dummy features).
//!
//! On failure a check reports a [`Failure`] whose `(check, seed, level)`
//! triple regenerates the exact scenario; [`minimize`] shrinks the level
//! before reporting.

use drcshap_core::artifact::crc32;
use drcshap_forest::{DecisionTree, RandomForest, RandomForestTrainer};
use drcshap_ml::{metrics, Dataset, NanPolicy, Trainer};
use drcshap_serve::{CompiledForest, ServeConfig, ServeEngine};
use drcshap_shap::{exact::exact_shap, explain_forest, tree_shap};
use rand::Rng;

use crate::reference;
use crate::scenario::{self, SizeLevel};

/// One reproducible check failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Registry name of the failing check.
    pub check: &'static str,
    /// The seed that regenerates the failing scenario.
    pub seed: u64,
    /// The smallest size level at which the seed still fails.
    pub level: u8,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}\n  replay: drcshap testkit replay --check {} --seed {} --level {}",
            self.check, self.detail, self.check, self.seed, self.level
        )
    }
}

/// A registered conformance check.
pub struct Check {
    /// Stable name, used by `testkit replay --check`.
    pub name: &'static str,
    /// The check body: `Err(detail)` on divergence.
    pub run: fn(u64, SizeLevel) -> Result<(), String>,
}

/// TreeSHAP output for `tree` at `x` — the seam where the test-only
/// `inject-shap-fault` feature perturbs a contribution sign, proving the
/// differential oracle catches a drifted explainer.
fn tree_shap_under_test(tree: &DecisionTree, x: &[f32]) -> Vec<f64> {
    #[allow(unused_mut)]
    let mut phi = tree_shap(tree, x);
    #[cfg(feature = "inject-shap-fault")]
    if let Some(v) = phi.iter_mut().find(|v| v.abs() > 1e-12) {
        *v = -*v;
    }
    phi
}

fn check_tree_shap_vs_exact(seed: u64, level: SizeLevel) -> Result<(), String> {
    let forest = scenario::forest(seed, level);
    let mut rng = scenario::rng_for(seed ^ 0xE7AC);
    let probes = scenario::probes(&mut rng, forest.n_features(), level.n_probes(), false);
    for (t, tree) in forest.trees().iter().enumerate() {
        for (p, x) in probes.iter().enumerate() {
            let fast = tree_shap_under_test(tree, x);
            let brute = exact_shap(tree, x);
            for (f, (a, b)) in fast.iter().zip(&brute).enumerate() {
                if (a - b).abs() > 1e-9 {
                    return Err(format!(
                        "tree {t} probe {p} feature {f}: tree_shap {a} vs exact {b}"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn check_shap_additivity(seed: u64, level: SizeLevel) -> Result<(), String> {
    let forest = scenario::forest(seed, level);
    let mut rng = scenario::rng_for(seed ^ 0xADD1);
    let probes = scenario::probes(&mut rng, forest.n_features(), level.n_probes(), false);
    for (p, x) in probes.iter().enumerate() {
        let explanation = explain_forest(&forest, x);
        let reconstructed = explanation.base_value + explanation.contributions.iter().sum::<f64>();
        let predicted = forest.predict_proba(x);
        if (reconstructed - predicted).abs() > 1e-9 {
            return Err(format!(
                "probe {p}: base + Σφ = {reconstructed} but predict_proba = {predicted}"
            ));
        }
        if (explanation.prediction - predicted).abs() > 1e-12 {
            return Err(format!(
                "probe {p}: explanation.prediction {} vs predict_proba {predicted}",
                explanation.prediction
            ));
        }
    }
    Ok(())
}

fn check_dummy_feature_zero(seed: u64, level: SizeLevel) -> Result<(), String> {
    let data = scenario::dataset_with_dummy_feature(seed, level);
    let trainer = RandomForestTrainer { n_trees: level.n_trees(), ..Default::default() };
    let forest = trainer.fit(&data, seed ^ 0xD033);
    let dummy = data.n_features() - 1;
    let mut rng = scenario::rng_for(seed ^ 0xD034);
    let probes = scenario::probes(&mut rng, data.n_features(), level.n_probes(), false);
    for (p, x) in probes.iter().enumerate() {
        let explanation = explain_forest(&forest, x);
        let phi = explanation.contributions[dummy];
        if phi.abs() > 1e-12 {
            return Err(format!("probe {p}: constant feature {dummy} received attribution {phi}"));
        }
    }
    Ok(())
}

/// The shared body of the kernel differential oracles: the compiled
/// forest must reproduce `predict_proba` / `predict_proba_nan_aware` bit
/// for bit on random probes, NaN/±∞-laced probes, and probes sitting
/// exactly on the forest's own split thresholds (where a comparison drift
/// would first show).
fn run_kernel_differential(
    forest: &RandomForest,
    shape: &str,
    seed: u64,
    level: SizeLevel,
) -> Result<(), String> {
    let compiled = CompiledForest::compile(forest);
    let m = forest.n_features();
    let mut rng = scenario::rng_for(seed ^ 0x4E7E);
    let mut plain = scenario::probes(&mut rng, m, level.n_probes(), false);
    let thresholds: Vec<f32> = forest
        .trees()
        .iter()
        .flat_map(|t| t.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.threshold))
        .collect();
    if !thresholds.is_empty() {
        // Boundary probes: every coordinate is one of the forest's own
        // thresholds, so `x[f] <= t` ties are common.
        for _ in 0..level.n_probes().min(4) {
            plain.push((0..m).map(|_| thresholds[rng.gen_range(0..thresholds.len())]).collect());
        }
    }
    let laced = scenario::probes(&mut rng, m, level.n_probes(), true);
    for (nan_aware, probe_set) in [(false, &plain), (true, &laced)] {
        let flat: Vec<f32> = probe_set.iter().flatten().copied().collect();
        let scores = if nan_aware {
            compiled.score_batch_nan_aware(&flat)
        } else {
            compiled.score_batch(&flat)
        };
        for (p, x) in probe_set.iter().enumerate() {
            let want =
                if nan_aware { forest.predict_proba_nan_aware(x) } else { forest.predict_proba(x) };
            if scores[p].to_bits() != want.to_bits() {
                return Err(format!(
                    "{shape}: compiled probe {p} (nan_aware={nan_aware}): {} vs reference {want}",
                    scores[p]
                ));
            }
        }
    }
    Ok(())
}

fn check_kernel_differential(seed: u64, level: SizeLevel) -> Result<(), String> {
    let forest = scenario::forest(seed, level);
    run_kernel_differential(&forest, "trained-forest", seed, level)
}

fn check_kernel_degenerate_shapes(seed: u64, level: SizeLevel) -> Result<(), String> {
    for (shape, forest) in scenario::degenerate_forests(seed, level) {
        run_kernel_differential(&forest, shape, seed, level)?;
    }
    Ok(())
}

/// End-to-end: a [`ServeEngine`] under each NaN policy must serve scores
/// bit-identical to that policy's reference semantics — reject sees only
/// finite rows, impute-zero scores the zero-filled row, nan-aware takes
/// the default-direction path — every one stamped with epoch 1 (no swap
/// happened), and with the same score digest as the offline reference.
fn check_serve_kernel_policies(seed: u64, level: SizeLevel) -> Result<(), String> {
    let forest = scenario::forest(seed, level);
    let m = forest.n_features();
    let mut rng = scenario::rng_for(seed ^ 0x5EA1);
    let plain = scenario::probes(&mut rng, m, level.n_probes(), false);
    let laced = scenario::probes(&mut rng, m, level.n_probes(), true);
    for policy in [NanPolicy::Reject, NanPolicy::ImputeZero, NanPolicy::NanAware] {
        // Reject admits only finite rows; the laced set exercises the
        // imputing and NaN-aware admission paths.
        let probes = if policy == NanPolicy::Reject { &plain } else { &laced };
        let config = ServeConfig {
            max_batch: 4,
            queue_capacity: 256,
            workers: 2,
            nan_policy: policy,
            ..Default::default()
        };
        let engine = ServeEngine::start(config, forest.clone(), seed)
            .map_err(|e| format!("engine start ({policy:?}): {e}"))?;
        let tickets: Result<Vec<_>, _> = probes.iter().map(|x| engine.submit(x.clone())).collect();
        let tickets = tickets.map_err(|e| format!("submit ({policy:?}): {e}"))?;
        let mut served = Vec::with_capacity(probes.len());
        for (p, ticket) in tickets.into_iter().enumerate() {
            let response =
                ticket.wait().map_err(|e| format!("probe {p} lost ({policy:?}): {e}"))?;
            if response.epoch != 1 {
                return Err(format!(
                    "policy {policy:?} probe {p}: epoch {} without any swap",
                    response.epoch
                ));
            }
            served.push(response.score);
        }
        engine.shutdown();
        let offline: Vec<f64> = probes
            .iter()
            .map(|x| match policy {
                NanPolicy::Reject => forest.predict_proba(x),
                NanPolicy::ImputeZero => {
                    let clean: Vec<f32> =
                        x.iter().map(|&v| if v.is_finite() { v } else { 0.0 }).collect();
                    forest.predict_proba(&clean)
                }
                NanPolicy::NanAware => forest.predict_proba_nan_aware(x),
            })
            .collect();
        for (p, (got, want)) in served.iter().zip(&offline).enumerate() {
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "policy {policy:?} probe {p}: served {got} vs reference {want}"
                ));
            }
        }
        let (sd, od) = (score_digest(&served), score_digest(&offline));
        if sd != od {
            return Err(format!("policy {policy:?}: score digest {sd:08x} vs offline {od:08x}"));
        }
    }
    Ok(())
}

/// CRC-32 over the raw bit patterns of a score vector — the same digest
/// `drcshap predict` and `drcshap serve` print.
fn score_digest(scores: &[f64]) -> u32 {
    let bytes: Vec<u8> = scores.iter().flat_map(|s| s.to_bits().to_le_bytes()).collect();
    crc32(&bytes)
}

fn check_metrics_vs_reference(seed: u64, level: SizeLevel) -> Result<(), String> {
    for with_nan in [false, true] {
        let (scores, labels) = scenario::score_label_scenario(seed, level, with_nan);
        let fast_ap = metrics::average_precision(&scores, &labels);
        let slow_ap = reference::average_precision(&scores, &labels);
        if (fast_ap - slow_ap).abs() > 1e-9 {
            return Err(format!("AP {fast_ap} vs O(n²) reference {slow_ap} (nan={with_nan})"));
        }
        let fast_auc = metrics::roc_auc(&scores, &labels);
        let slow_auc = reference::roc_auc(&scores, &labels);
        if (fast_auc - slow_auc).abs() > 1e-9 {
            return Err(format!(
                "AUC {fast_auc} vs pairwise reference {slow_auc} (nan={with_nan})"
            ));
        }
        for max_fpr in [0.0, metrics::PAPER_FPR, 0.1, 0.5] {
            let fast = metrics::tpr_prec_at_fpr(&scores, &labels, max_fpr);
            let (_, tpr, fpr, precision) = reference::tpr_prec_at_fpr(&scores, &labels, max_fpr);
            if (fast.tpr - tpr).abs() > 1e-9
                || (fast.fpr - fpr).abs() > 1e-9
                || (fast.precision - precision).abs() > 1e-9
            {
                return Err(format!(
                    "operating point at FPR≤{max_fpr}: fast (tpr {}, fpr {}, prec {}) vs \
                     reference (tpr {tpr}, fpr {fpr}, prec {precision}) (nan={with_nan})",
                    fast.tpr, fast.fpr, fast.precision
                ));
            }
        }
    }
    Ok(())
}

fn check_ap_monotone_invariance(seed: u64, level: SizeLevel) -> Result<(), String> {
    let (scores, labels) = scenario::score_label_scenario(seed, level, false);
    let mut rng = scenario::rng_for(seed ^ 0x303A);
    let a = rng.gen_range(0.5f64..3.0);
    let b = rng.gen_range(-1.0f64..1.0);
    let transformed: [(&str, Vec<f64>); 3] = [
        ("affine", scores.iter().map(|&s| a * s + b).collect()),
        ("exp", scores.iter().map(|&s| s.exp()).collect()),
        ("cube", scores.iter().map(|&s| a * s * s * s + b).collect()),
    ];
    let ap = metrics::average_precision(&scores, &labels);
    let auc = metrics::roc_auc(&scores, &labels);
    for (name, mapped) in &transformed {
        let ap2 = metrics::average_precision(mapped, &labels);
        let auc2 = metrics::roc_auc(mapped, &labels);
        if (ap - ap2).abs() > 1e-9 {
            return Err(format!("AP not invariant under {name}: {ap} vs {ap2}"));
        }
        if (auc - auc2).abs() > 1e-9 {
            return Err(format!("AUC not invariant under {name}: {auc} vs {auc2}"));
        }
    }
    Ok(())
}

fn check_pair_permutation_invariance(seed: u64, level: SizeLevel) -> Result<(), String> {
    let (scores, labels) = scenario::score_label_scenario(seed, level, true);
    let mut rng = scenario::rng_for(seed ^ 0x9E48);
    let mut order: Vec<usize> = (0..scores.len()).collect();
    use rand::seq::SliceRandom;
    order.shuffle(&mut rng);
    let ps: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
    let pl: Vec<bool> = order.iter().map(|&i| labels[i]).collect();
    let (ap, ap2) =
        (metrics::average_precision(&scores, &labels), metrics::average_precision(&ps, &pl));
    if (ap - ap2).abs() > 1e-12 {
        return Err(format!("AP changed under consistent permutation: {ap} vs {ap2}"));
    }
    let op = metrics::tpr_prec_at_fpr(&scores, &labels, metrics::PAPER_FPR);
    let op2 = metrics::tpr_prec_at_fpr(&ps, &pl, metrics::PAPER_FPR);
    if (op.tpr - op2.tpr).abs() > 1e-12 || (op.precision - op2.precision).abs() > 1e-12 {
        return Err(format!(
            "operating point changed under permutation: ({}, {}) vs ({}, {})",
            op.tpr, op.precision, op2.tpr, op2.precision
        ));
    }
    Ok(())
}

fn check_degenerate_groups_train(seed: u64, level: SizeLevel) -> Result<(), String> {
    // The degenerate tail group (identical rows, single label) must not
    // break training or scoring; predictions must stay in [0, 1].
    let data = scenario::dataset(seed, level);
    let sub: Dataset = data.filter_groups(|g| g == 7);
    if sub.n_samples() == 0 {
        return Err("scenario lost its degenerate group".into());
    }
    let forest = scenario::forest(seed, level);
    for i in 0..data.n_samples() {
        let p = forest.predict_proba(data.row(i));
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("sample {i}: probability {p} outside [0, 1]"));
        }
    }
    Ok(())
}

/// Every registered check, in reporting order.
pub fn registry() -> Vec<Check> {
    vec![
        Check { name: "tree-shap-vs-exact", run: check_tree_shap_vs_exact },
        Check { name: "shap-additivity", run: check_shap_additivity },
        Check { name: "shap-dummy-feature-zero", run: check_dummy_feature_zero },
        Check { name: "kernel-differential", run: check_kernel_differential },
        Check { name: "kernel-degenerate-shapes", run: check_kernel_degenerate_shapes },
        Check { name: "serve-kernel-policies", run: check_serve_kernel_policies },
        Check { name: "metrics-vs-reference", run: check_metrics_vs_reference },
        Check { name: "ap-monotone-invariance", run: check_ap_monotone_invariance },
        Check { name: "pair-permutation-invariance", run: check_pair_permutation_invariance },
        Check { name: "degenerate-groups-train", run: check_degenerate_groups_train },
        Check { name: "sketch-differential", run: crate::analytics::check_sketch_differential },
        Check { name: "analytics-consistency", run: crate::analytics::check_analytics_consistency },
    ]
}

/// Re-runs a failing `(check, seed)` at ascending levels and returns the
/// smallest level that still fails (with its detail). Falls back to the
/// original failure if smaller scenarios pass.
pub fn minimize(check: &Check, seed: u64, failing: SizeLevel, detail: String) -> Failure {
    for level in 0..failing.0 {
        if let Err(small_detail) = (check.run)(seed, SizeLevel(level)) {
            return Failure { check: check.name, seed, level, detail: small_detail };
        }
    }
    Failure { check: check.name, seed, level: failing.0, detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<_> = registry().iter().map(|c| c.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }

    #[cfg(not(feature = "inject-shap-fault"))]
    #[test]
    fn every_check_passes_a_seed_sweep() {
        for check in registry() {
            for seed in 0..4 {
                if let Err(detail) = (check.run)(seed, SizeLevel(1)) {
                    panic!("{} failed at seed {seed}: {detail}", check.name);
                }
            }
        }
    }

    #[cfg(feature = "inject-shap-fault")]
    #[test]
    fn injected_fault_is_caught_with_a_replayable_seed() {
        let registry = registry();
        let check = registry.iter().find(|c| c.name == "tree-shap-vs-exact").unwrap();
        let detail = (check.run)(3, SizeLevel::DEFAULT)
            .expect_err("perturbed TreeSHAP must diverge from the exact oracle");
        let failure = minimize(check, 3, SizeLevel::DEFAULT, detail);
        assert_eq!(failure.seed, 3);
        assert!(failure.to_string().contains("replay: drcshap testkit replay"));
    }
}
