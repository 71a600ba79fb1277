//! Conformance oracles for the explanation-analytics sink.
//!
//! Two checks, both pure functions of `(seed, SizeLevel)` like the rest
//! of the registry:
//!
//! - **`sketch-differential`**: streams seeded SHAP vectors (real
//!   TreeSHAP output, not synthetic noise) through per-feature
//!   [`QuantileSketch`]es, then diffs *every* queried quantile against an
//!   exact full-sort oracle — the chosen bucket must contain the exact
//!   rank-`⌈qn⌉` element (zero rank error at bucket granularity) and the
//!   reported value must satisfy the ε relative bound. A merge
//!   metamorphic pass then splits the same stream `k` ways, merges the
//!   shards in a seeded shuffled order, and demands the canonical bytes —
//!   and hence the snapshot digest — be bit-identical to the
//!   single-stream fold.
//! - **`analytics-consistency`**: folds a whole dataset's explanations
//!   through an [`AnalyticsSink`] and checks the streaming mean-|φ| /
//!   mean-φ aggregates against the offline [`drcshap_shap::summarize`]
//!   path, plus the SHAP interaction additivity identity (each row of
//!   the interaction matrix sums to that feature's φ) on the same
//!   vectors the sink aggregates.
//!
//! Tolerances: `summarize` sums in row order in floating point while the
//! sink accumulates in fixed point, so the two differ by genuine rounding
//! — the comparison allows `1e-9` absolute (both sides aggregate values
//! well under 1.0). The interaction identity is exact
//! mathematics executed in float, held to `1e-8`.

use drcshap_analytics::{AnalyticsConfig, AnalyticsSink, Provenance};
use drcshap_shap::{explain_forest, forest_shap_interactions, summarize};
use drcshap_telemetry::{QuantileSketch, SketchParams};
use rand::seq::SliceRandom;

use crate::scenario::{self, SizeLevel};

/// Quantile grid every sketch query sweep covers: extremes, the paper's
/// usual box-plot points, and two tail probes.
const QUANTILE_GRID: [f64; 9] = [0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0];

/// SHAP vectors for `count` seeded probes of the scenario forest.
fn shap_vectors(seed: u64, level: SizeLevel, count: usize) -> Vec<Vec<f64>> {
    let forest = scenario::forest(seed, level);
    let mut rng = scenario::rng_for(seed ^ 0x5E7C);
    scenario::probes(&mut rng, forest.n_features(), count, false)
        .iter()
        .map(|x| explain_forest(&forest, x).contributions)
        .collect()
}

/// The exact rank-`⌈qn⌉` element of a sorted stream — the sketch's own
/// deterministic tie-breaking rule, computed by full sort.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = QuantileSketch::target_rank(q, sorted.len() as u64);
    sorted[(rank - 1) as usize]
}

pub(crate) fn check_sketch_differential(seed: u64, level: SizeLevel) -> Result<(), String> {
    // Enough vectors that tail quantiles are meaningful, scaled by level.
    let vectors = shap_vectors(seed, level, level.n_probes() * 8);
    let m = vectors[0].len();
    let params = SketchParams::default();
    let eps = params.epsilon();

    for feature in 0..m {
        let stream: Vec<f64> = vectors.iter().map(|phi| phi[feature]).collect();
        let mut sketch = QuantileSketch::new(params);
        for &v in &stream {
            sketch.insert(v);
        }
        let mut sorted = stream.clone();
        sorted.sort_by(f64::total_cmp);

        // Differential: every grid quantile against the full sort.
        for &q in &QUANTILE_GRID {
            let exact = exact_quantile(&sorted, q);
            let bucket = sketch
                .quantile_bucket(q)
                .ok_or_else(|| format!("feature {feature}: empty sketch at q={q}"))?;
            let exact_bucket = params.bucket_of(exact);
            if bucket != exact_bucket {
                return Err(format!(
                    "feature {feature} q={q}: sketch localized bucket {bucket} but the exact \
                     rank element {exact} lives in bucket {exact_bucket}"
                ));
            }
            let got = sketch.quantile(q).expect("non-empty sketch");
            if (got - exact).abs() > eps * exact.abs() + 1e-15 {
                return Err(format!(
                    "feature {feature} q={q}: sketch {got} vs exact {exact} breaks the \
                     eps={eps} bound"
                ));
            }
        }

        // Merge metamorphic: k-way split, shuffled merge order, bit-equal
        // canonical bytes.
        let mut rng = scenario::rng_for(seed ^ 0x3E86 ^ feature as u64);
        let parts = 2 + (feature % 4);
        let mut shards: Vec<QuantileSketch> =
            (0..parts).map(|_| QuantileSketch::new(params)).collect();
        for (i, &v) in stream.iter().enumerate() {
            shards[i % parts].insert(v);
        }
        let mut order: Vec<usize> = (0..parts).collect();
        order.shuffle(&mut rng);
        let mut merged = QuantileSketch::new(params);
        for &k in &order {
            merged.merge(&shards[k]).map_err(|e| format!("feature {feature}: merge: {e}"))?;
        }
        let (mut single_bytes, mut merged_bytes) = (Vec::new(), Vec::new());
        sketch.canonical_bytes(&mut single_bytes);
        merged.canonical_bytes(&mut merged_bytes);
        if single_bytes != merged_bytes {
            return Err(format!(
                "feature {feature}: {parts}-way shuffled merge (order {order:?}) is not \
                 bit-identical to the single-stream fold"
            ));
        }
    }
    Ok(())
}

pub(crate) fn check_analytics_consistency(seed: u64, level: SizeLevel) -> Result<(), String> {
    let forest = scenario::forest(seed, level);
    let data = scenario::dataset(seed, level);
    let m = data.n_features();

    // Stream every row's explanation through the sink, interactions too.
    let config = AnalyticsConfig {
        interactions: true,
        max_interaction_features: m as u32,
        ..Default::default()
    };
    let mut sink = AnalyticsSink::new(config);
    for i in 0..data.n_samples() {
        let x = data.row(i);
        let phi = explain_forest(&forest, x).contributions;
        let iv = forest_shap_interactions(&forest, x);

        // Interaction additivity on the very vectors the sink aggregates:
        // row j of the matrix sums to φⱼ.
        for (j, &phi_j) in phi.iter().enumerate() {
            let row_sum: f64 = iv.row(j).iter().sum();
            if (row_sum - phi_j).abs() > 1e-8 {
                return Err(format!(
                    "sample {i} feature {j}: interaction row sum {row_sum} vs phi {phi_j}"
                ));
            }
        }

        sink.fold(x, &phi).map_err(|e| format!("sample {i}: fold: {e}"))?;
        sink.fold_interactions(&iv);
    }

    // Differential: streaming aggregates vs the offline summarize() pass
    // over the identical sample set (max_samples = n ⇒ no subsampling).
    let offline = summarize(&forest, &data, data.n_samples());
    let snapshot = sink.snapshot(Provenance::default());
    if snapshot.n_vectors != data.n_samples() as u64 {
        return Err(format!(
            "sink folded {} vectors but the dataset has {}",
            snapshot.n_vectors,
            data.n_samples()
        ));
    }
    for j in 0..m {
        let feature = &snapshot.features[j];
        let streaming_abs = feature.mean_abs();
        let streaming_mean = feature.mean();
        if (streaming_abs - offline.mean_abs[j]).abs() > 1e-9 {
            return Err(format!(
                "feature {j}: streaming mean|phi| {streaming_abs} vs summarize {}",
                offline.mean_abs[j]
            ));
        }
        if (streaming_mean - offline.mean[j]).abs() > 1e-9 {
            return Err(format!(
                "feature {j}: streaming mean phi {streaming_mean} vs summarize {}",
                offline.mean[j]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_checks_pass_a_seed_sweep() {
        for seed in 0..4 {
            check_sketch_differential(seed, SizeLevel(1))
                .unwrap_or_else(|d| panic!("sketch-differential seed {seed}: {d}"));
            check_analytics_consistency(seed, SizeLevel(1))
                .unwrap_or_else(|d| panic!("analytics-consistency seed {seed}: {d}"));
        }
    }
}
