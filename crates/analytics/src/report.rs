//! Rendering snapshots into the paper's global-explanation surfaces:
//! top-k mean-|φ| rankings (the summary plot's bar order), beeswarm
//! payload bins, binned dependence curves, and interaction pairs.
//!
//! Reports are *derived* views — plain f64s, human-readable — and are
//! never merged or digested; the exact integer substrate lives in
//! [`crate::snapshot::AnalyticsSnapshot`]. Every report carries the
//! snapshot's digest and provenance so a reader can trace any number
//! back to the exact state that produced it.

use serde::{Deserialize, Serialize};

use drcshap_ml::DrcshapError;

use crate::snapshot::{AnalyticsSnapshot, Provenance};

/// The fixed quantile grid every report queries (deterministic output
/// shape; the sketch can answer any `q` on demand).
pub const REPORT_QUANTILES: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

/// One queried quantile point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantilePoint {
    /// The quantile in `[0, 1]`.
    pub q: f64,
    /// The sketch's φ estimate at `q`.
    pub phi: f64,
}

/// One beeswarm payload bin: a φ-range with its exact fold count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeeswarmBin {
    /// Lower φ edge (inclusive).
    pub lo: f64,
    /// Upper φ edge (exclusive).
    pub hi: f64,
    /// Exact folds in the bin.
    pub n: u64,
}

/// One dependence-curve point: a feature-value cell with its mean φ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DependencePoint {
    /// Representative feature value of the cell.
    pub value: f64,
    /// Exact folds in the cell.
    pub n: u64,
    /// Mean φ over the cell.
    pub mean_phi: f64,
}

/// One ranked feature's full report row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureReport {
    /// Feature index.
    pub feature: u32,
    /// Feature name when a schema was supplied.
    pub name: Option<String>,
    /// Global rank by mean |φ| (0 = most important).
    pub rank: u32,
    /// Non-NaN folds.
    pub count: u64,
    /// Mean |φ| — the summary-plot ranking statistic.
    pub mean_abs_phi: f64,
    /// Directional mean φ.
    pub mean_phi: f64,
    /// Fraction of folds with φ > 0 (pushes toward hotspot).
    pub positive_fraction: f64,
    /// Exact minimum φ.
    pub min_phi: f64,
    /// Exact maximum φ.
    pub max_phi: f64,
    /// φ quantiles on [`REPORT_QUANTILES`].
    pub quantiles: Vec<QuantilePoint>,
    /// Beeswarm payload bins, ascending φ.
    pub beeswarm: Vec<BeeswarmBin>,
    /// Dependence curve, ascending feature value.
    pub dependence: Vec<DependencePoint>,
}

/// One aggregated interaction pair's report row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairReport {
    /// First feature index.
    pub i: u32,
    /// Second feature index.
    pub j: u32,
    /// Feature names when a schema was supplied.
    pub names: Option<(String, String)>,
    /// Interaction folds aggregated.
    pub n: u64,
    /// Mean |Φᵢⱼ| — the pair ranking statistic.
    pub mean_abs: f64,
    /// Directional mean Φᵢⱼ.
    pub mean: f64,
}

/// The full rendered report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticsReport {
    /// Provenance of the current snapshot.
    pub provenance: Provenance,
    /// Digest of the current snapshot (trace any number back to state).
    pub digest: u32,
    /// The sketch's relative accuracy ε.
    pub epsilon: f64,
    /// SHAP vectors folded into the current snapshot.
    pub n_vectors: u64,
    /// Interaction matrices folded.
    pub n_interaction_folds: u64,
    /// Folds dropped racing hot swaps.
    pub stale_folds: u64,
    /// Top-k features by mean |φ| (ties broken by ascending index).
    pub top: Vec<FeatureReport>,
    /// Top interaction pairs by mean |Φ| (empty unless enabled).
    pub interactions: Vec<PairReport>,
}

/// All features ranked by descending mean |φ|, ties broken by ascending
/// index — the deterministic summary-plot order.
pub fn ranking(snapshot: &AnalyticsSnapshot) -> Vec<u32> {
    let mut order: Vec<u32> = (0..snapshot.n_features).collect();
    order.sort_by(|&a, &b| {
        let (ma, mb) =
            (snapshot.features[a as usize].mean_abs(), snapshot.features[b as usize].mean_abs());
        mb.total_cmp(&ma).then(a.cmp(&b))
    });
    order
}

fn feature_name(names: Option<&[String]>, idx: u32) -> Option<String> {
    names.and_then(|ns| ns.get(idx as usize)).cloned()
}

/// Renders `snapshot` into a report. `top_k` bounds both the feature and
/// pair tables; `feature_names` attaches schema names when available.
///
/// # Errors
///
/// Usage errors when a feature's serialized sketch is corrupt.
pub fn build_report(
    snapshot: &AnalyticsSnapshot,
    top_k: usize,
    feature_names: Option<&[String]>,
) -> Result<AnalyticsReport, DrcshapError> {
    let sketch_params = snapshot.sketch_params();
    let dep_params = snapshot.dependence_params();
    let order = ranking(snapshot);
    let mut top = Vec::with_capacity(top_k.min(order.len()));
    for (rank, &feature) in order.iter().take(top_k).enumerate() {
        let f = &snapshot.features[feature as usize];
        let sketch = f.sketch(sketch_params)?;
        let quantiles = REPORT_QUANTILES
            .iter()
            .map(|&q| QuantilePoint { q, phi: sketch.quantile(q).unwrap_or(0.0) })
            .collect();
        let beeswarm = f
            .sketch
            .iter()
            .map(|e| {
                let (lo, hi) = sketch_params.bucket_edges(e.id);
                BeeswarmBin { lo, hi, n: e.n }
            })
            .collect();
        let dependence = f
            .dependence
            .iter()
            .map(|c| DependencePoint {
                value: dep_params.representative(c.bucket),
                n: c.n,
                mean_phi: c.sum_phi.mean(c.n).unwrap_or(0.0),
            })
            .collect();
        top.push(FeatureReport {
            feature,
            name: feature_name(feature_names, feature),
            rank: rank as u32,
            count: f.count,
            mean_abs_phi: f.mean_abs(),
            mean_phi: f.mean(),
            positive_fraction: if f.count > 0 { f.positive as f64 / f.count as f64 } else { 0.0 },
            min_phi: if f.count > 0 { f64::from_bits(f.min_phi_bits) } else { 0.0 },
            max_phi: if f.count > 0 { f64::from_bits(f.max_phi_bits) } else { 0.0 },
            quantiles,
            beeswarm,
            dependence,
        });
    }
    let mut pairs: Vec<&crate::snapshot::PairSnapshot> = snapshot.pairs.iter().collect();
    pairs.sort_by(|a, b| b.mean_abs().total_cmp(&a.mean_abs()).then((a.i, a.j).cmp(&(b.i, b.j))));
    let interactions = pairs
        .into_iter()
        .take(top_k)
        .map(|p| PairReport {
            i: p.i,
            j: p.j,
            names: match (feature_name(feature_names, p.i), feature_name(feature_names, p.j)) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            },
            n: p.n,
            mean_abs: p.mean_abs(),
            mean: p.sum.mean(p.n).unwrap_or(0.0),
        })
        .collect();
    Ok(AnalyticsReport {
        provenance: snapshot.provenance,
        digest: snapshot.digest(),
        epsilon: sketch_params.epsilon(),
        n_vectors: snapshot.n_vectors,
        n_interaction_folds: snapshot.n_interaction_folds,
        stale_folds: snapshot.stale_folds,
        top,
        interactions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{AnalyticsConfig, AnalyticsSink};

    const PROV: Provenance = Provenance { artifact_crc: 1, schema_fingerprint: 2, model_epoch: 1 };

    fn folded_snapshot() -> AnalyticsSnapshot {
        let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
        for i in 0..50 {
            let t = i as f64 / 50.0;
            sink.fold(&[t as f32, (1.0 - t) as f32, 0.5], &[0.5 * t, 0.2 - 0.5 * t, 0.01]).unwrap();
        }
        sink.snapshot(PROV)
    }

    #[test]
    fn ranking_is_deterministic_with_index_tiebreak() {
        let snap = folded_snapshot();
        let order = ranking(&snap);
        assert_eq!(order.len(), 3);
        // Feature 2 has tiny |φ| — it must rank last.
        assert_eq!(order[2], 2);
    }

    #[test]
    fn report_shape_and_provenance() {
        let snap = folded_snapshot();
        let names = vec!["pin_density".to_string(), "overflow".to_string(), "via".to_string()];
        let report = build_report(&snap, 2, Some(&names)).unwrap();
        assert_eq!(report.top.len(), 2);
        assert_eq!(report.digest, snap.digest());
        assert_eq!(report.provenance, snap.provenance);
        assert!(report.top[0].name.is_some());
        assert_eq!(report.top[0].rank, 0);
        assert_eq!(report.top[0].quantiles.len(), REPORT_QUANTILES.len());
        assert!(!report.top[0].beeswarm.is_empty());
        assert!(!report.top[0].dependence.is_empty());
        let json = serde_json::to_string(&report).unwrap();
        let back: AnalyticsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.digest, report.digest);
    }

    #[test]
    fn mean_abs_matches_naive_reference() {
        let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
        let phis = [[0.5, -0.25], [-0.5, 0.75], [0.1, 0.0]];
        for phi in &phis {
            sink.fold(&[1.0, 2.0], phi).unwrap();
        }
        let snap = sink.snapshot(PROV);
        let report = build_report(&snap, 2, None).unwrap();
        let by_feature: std::collections::BTreeMap<u32, f64> =
            report.top.iter().map(|f| (f.feature, f.mean_abs_phi)).collect();
        let want0 = (0.5 + 0.5 + 0.1) / 3.0;
        let want1 = (0.25 + 0.75 + 0.0) / 3.0;
        assert!((by_feature[&0] - want0).abs() < 1e-9);
        assert!((by_feature[&1] - want1).abs() < 1e-9);
    }
}
