//! The streaming fold: per-request SHAP vectors → global aggregates.
//!
//! [`AnalyticsSink`] is the single-owner aggregator: it folds one φ
//! vector (plus the matching input vector for dependence curves, and
//! optionally an interaction matrix) at a time, in bounded memory, and
//! emits provenance-stamped [`AnalyticsSnapshot`]s. Every per-feature
//! statistic is either an exact integer, an exact-merge fixed-point sum,
//! or a multiset-pure sketch — so folding a stream in any partition and
//! merging the parts' snapshots ([`AnalyticsSnapshot::merge`]) yields
//! bit-identical snapshots.
//!
//! The serve engine gives each model epoch one sink behind a mutex; a hot
//! swap drops the old epoch's sink, so no fold is ever blended across
//! models.

use std::collections::BTreeMap;

use drcshap_ml::DrcshapError;
use drcshap_shap::interactions::InteractionValues;
use drcshap_telemetry::{QuantileSketch, SketchParams};

use crate::accum::FixedSum;
use crate::snapshot::{
    AnalyticsSnapshot, DependenceCell, FeatureSnapshot, PairSnapshot, Provenance, SnapshotParams,
    SNAPSHOT_SCHEMA_VERSION,
};

/// Analytics knobs. `Default` is the served configuration: ε ≈ 0.78%
/// sketches, quarter-octave dependence bins, interactions off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticsConfig {
    /// φ-sketch resolution: ε = 2^-(accuracy_bits+1). Default 6.
    pub accuracy_bits: u32,
    /// Feature-value bucketing for dependence curves. Default 2
    /// (quarter-octave cells — coarse on purpose; curves are for shape).
    pub dependence_bits: u32,
    /// Aggregate SHAP interaction pairs (costs an O(m²) explain per
    /// request on the serve path — off by default).
    pub interactions: bool,
    /// Only the first `max_interaction_features` features participate in
    /// pair aggregation, bounding pair memory at K·(K−1)/2 cells.
    pub max_interaction_features: u32,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        Self {
            accuracy_bits: 6,
            dependence_bits: 2,
            interactions: false,
            max_interaction_features: 16,
        }
    }
}

impl AnalyticsConfig {
    /// Checks the knobs are in range.
    ///
    /// # Errors
    ///
    /// A usage [`DrcshapError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), DrcshapError> {
        if !(1..=10).contains(&self.accuracy_bits) {
            return Err(DrcshapError::usage("analytics config: accuracy_bits must be 1..=10"));
        }
        if !(1..=10).contains(&self.dependence_bits) {
            return Err(DrcshapError::usage("analytics config: dependence_bits must be 1..=10"));
        }
        Ok(())
    }

    /// The φ-sketch params.
    pub fn sketch_params(&self) -> SketchParams {
        SketchParams { accuracy_bits: self.accuracy_bits }
    }

    /// The dependence-curve bucketing params.
    pub fn dependence_params(&self) -> SketchParams {
        SketchParams { accuracy_bits: self.dependence_bits }
    }

    fn snapshot_params(&self) -> SnapshotParams {
        SnapshotParams {
            accuracy_bits: self.accuracy_bits,
            dependence_bits: self.dependence_bits,
            interactions: self.interactions,
            max_interaction_features: self.max_interaction_features,
        }
    }
}

/// Live per-feature state (the snapshot's [`FeatureSnapshot`] with the
/// sketch and dependence map in queryable form).
#[derive(Debug, Clone)]
struct FeatureAggregate {
    count: u64,
    nan_skipped: u64,
    positive: u64,
    sum_phi: FixedSum,
    sum_abs_phi: FixedSum,
    min_phi: f64,
    max_phi: f64,
    sketch: QuantileSketch,
    dependence: BTreeMap<i32, (u64, FixedSum)>,
}

impl FeatureAggregate {
    fn new(params: SketchParams) -> Self {
        Self {
            count: 0,
            nan_skipped: 0,
            positive: 0,
            sum_phi: FixedSum::zero(),
            sum_abs_phi: FixedSum::zero(),
            min_phi: f64::INFINITY,
            max_phi: f64::NEG_INFINITY,
            sketch: QuantileSketch::new(params),
            dependence: BTreeMap::new(),
        }
    }
}

/// The single-owner streaming aggregator.
#[derive(Debug, Clone)]
pub struct AnalyticsSink {
    config: AnalyticsConfig,
    n_features: usize,
    n_vectors: u64,
    n_interaction_folds: u64,
    features: Vec<FeatureAggregate>,
    pairs: BTreeMap<(u32, u32), PairSnapshot>,
}

impl AnalyticsSink {
    /// An empty sink. The feature width latches on the first fold.
    pub fn new(config: AnalyticsConfig) -> Self {
        Self {
            config,
            n_features: 0,
            n_vectors: 0,
            n_interaction_folds: 0,
            features: Vec::new(),
            pairs: BTreeMap::new(),
        }
    }

    /// The configuration this sink folds under.
    pub fn config(&self) -> &AnalyticsConfig {
        &self.config
    }

    /// SHAP vectors folded so far.
    pub fn n_vectors(&self) -> u64 {
        self.n_vectors
    }

    /// Total occupied sketch/dependence/pair cells — the live memory
    /// footprint, bounded by `n_features · (max_buckets(φ) +
    /// max_buckets(dep)) + K(K−1)/2` independent of stream length.
    pub fn occupied_cells(&self) -> usize {
        self.features
            .iter()
            .map(|f| f.sketch.occupied_buckets() + f.dependence.len())
            .sum::<usize>()
            + self.pairs.len()
    }

    /// Folds one explained request: the input vector `x` and its SHAP
    /// vector `phi` (index-aligned). NaN φ entries are skipped and
    /// counted; NaN feature values skip only the dependence cell.
    ///
    /// # Errors
    ///
    /// A usage error when `x`/`phi` lengths disagree with each other or
    /// with the latched feature width.
    pub fn fold(&mut self, x: &[f32], phi: &[f64]) -> Result<(), DrcshapError> {
        if x.len() != phi.len() {
            return Err(DrcshapError::usage(format!(
                "analytics fold: x has {} features but phi has {}",
                x.len(),
                phi.len()
            )));
        }
        if self.n_features == 0 {
            self.n_features = phi.len();
            let params = self.config.sketch_params();
            self.features = (0..phi.len()).map(|_| FeatureAggregate::new(params)).collect();
        } else if phi.len() != self.n_features {
            return Err(DrcshapError::usage(format!(
                "analytics fold: expected {} features, got {}",
                self.n_features,
                phi.len()
            )));
        }
        let dep_params = self.config.dependence_params();
        for (j, agg) in self.features.iter_mut().enumerate() {
            let p = phi[j];
            if p.is_nan() {
                agg.nan_skipped += 1;
                continue;
            }
            agg.count += 1;
            if p > 0.0 {
                agg.positive += 1;
            }
            agg.sum_phi.add(p);
            agg.sum_abs_phi.add(p.abs());
            if p < agg.min_phi {
                agg.min_phi = p;
            }
            if p > agg.max_phi {
                agg.max_phi = p;
            }
            agg.sketch.insert(p);
            let v = x[j] as f64;
            if !v.is_nan() {
                let cell = agg.dependence.entry(dep_params.bucket_of(v)).or_default();
                cell.0 += 1;
                cell.1.add(p);
            }
        }
        self.n_vectors += 1;
        Ok(())
    }

    /// Folds one interaction matrix: every pair `(i, j)` with
    /// `i < j < max_interaction_features` accumulates `Φᵢⱼ` (NaN pairs
    /// skipped). No-op unless `config.interactions` is set.
    pub fn fold_interactions(&mut self, iv: &InteractionValues) {
        if !self.config.interactions {
            return;
        }
        let k = (self.config.max_interaction_features as usize).min(iv.n_features());
        for i in 0..k {
            for j in (i + 1)..k {
                let v = iv.get(i, j);
                if v.is_nan() {
                    continue;
                }
                let slot = self.pairs.entry((i as u32, j as u32)).or_insert(PairSnapshot {
                    i: i as u32,
                    j: j as u32,
                    n: 0,
                    sum_abs: FixedSum::zero(),
                    sum: FixedSum::zero(),
                });
                slot.n += 1;
                slot.sum_abs.add(v.abs());
                slot.sum.add(v);
            }
        }
        self.n_interaction_folds += 1;
    }

    /// Freezes the current state into a provenance-stamped snapshot.
    pub fn snapshot(&self, provenance: Provenance) -> AnalyticsSnapshot {
        let features = self
            .features
            .iter()
            .map(|f| FeatureSnapshot {
                count: f.count,
                nan_skipped: f.nan_skipped,
                positive: f.positive,
                sum_phi: f.sum_phi,
                sum_abs_phi: f.sum_abs_phi,
                min_phi_bits: f.min_phi.to_bits(),
                max_phi_bits: f.max_phi.to_bits(),
                sketch: f.sketch.to_entries(),
                dependence: f
                    .dependence
                    .iter()
                    .map(|(&bucket, &(n, sum_phi))| DependenceCell { bucket, n, sum_phi })
                    .collect(),
            })
            .collect();
        AnalyticsSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            provenance,
            params: self.config.snapshot_params(),
            n_features: self.n_features as u32,
            n_vectors: self.n_vectors,
            n_interaction_folds: self.n_interaction_folds,
            stale_folds: 0,
            features,
            pairs: self.pairs.values().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn prov(epoch: u64) -> Provenance {
        Provenance { artifact_crc: 0xBEEF, schema_fingerprint: 42, model_epoch: epoch }
    }

    fn random_case(rng: &mut ChaCha8Rng, m: usize) -> (Vec<f32>, Vec<f64>) {
        let x: Vec<f32> = (0..m).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let phi: Vec<f64> = (0..m).map(|_| rng.gen_range(-0.5f64..0.5)).collect();
        (x, phi)
    }

    #[test]
    fn fold_shapes_are_validated() {
        let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
        assert!(sink.fold(&[1.0, 2.0], &[0.1]).is_err());
        sink.fold(&[1.0, 2.0], &[0.1, 0.2]).unwrap();
        assert!(sink.fold(&[1.0], &[0.1]).is_err());
        assert_eq!(sink.n_vectors(), 1);
    }

    #[test]
    fn split_fold_merge_is_bit_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let cases: Vec<_> = (0..500).map(|_| random_case(&mut rng, 6)).collect();
        let mut single = AnalyticsSink::new(AnalyticsConfig::default());
        for (x, phi) in &cases {
            single.fold(x, phi).unwrap();
        }
        let mut parts: Vec<AnalyticsSink> =
            (0..5).map(|_| AnalyticsSink::new(AnalyticsConfig::default())).collect();
        for (i, (x, phi)) in cases.iter().enumerate() {
            parts[i % 5].fold(x, phi).unwrap();
        }
        let mut merged = AnalyticsSink::new(AnalyticsConfig::default()).snapshot(prov(1));
        for k in [4usize, 1, 3, 0, 2] {
            merged.merge(&parts[k].snapshot(prov(1))).unwrap();
        }
        let single = single.snapshot(prov(1));
        assert_eq!(single, merged);
        assert_eq!(single.digest(), merged.digest());
    }

    #[test]
    fn nan_phi_is_skipped_and_counted() {
        let mut sink = AnalyticsSink::new(AnalyticsConfig::default());
        sink.fold(&[1.0, 2.0], &[f64::NAN, 0.5]).unwrap();
        let snap = sink.snapshot(prov(1));
        assert_eq!(snap.features[0].count, 0);
        assert_eq!(snap.features[0].nan_skipped, 1);
        assert_eq!(snap.features[1].count, 1);
        assert!(snap.features[0].dependence.is_empty(), "NaN φ must not fold a dependence cell");
    }

    #[test]
    fn interactions_respect_feature_cap() {
        let config = AnalyticsConfig {
            interactions: true,
            max_interaction_features: 3,
            ..Default::default()
        };
        let mut sink = AnalyticsSink::new(config);
        // A 5-feature symmetric matrix with distinct entries.
        let m = 5;
        let mut values = vec![0.0f64; m * m];
        for i in 0..m {
            for j in 0..m {
                values[i * m + j] = (i * m + j) as f64 * 0.01;
            }
        }
        let iv = InteractionValues::from_values(values, m);
        sink.fold_interactions(&iv);
        let snap = sink.snapshot(prov(1));
        // Only pairs within the first 3 features: (0,1), (0,2), (1,2).
        assert_eq!(snap.pairs.len(), 3);
        assert!(snap.pairs.iter().all(|p| p.i < 3 && p.j < 3 && p.i < p.j));
        assert_eq!(snap.n_interaction_folds, 1);
    }

    /// The full sink (sketches + dependence + sums for every feature) also
    /// stays bounded: occupied cells are a function of the params, not of
    /// how many vectors streamed through.
    #[test]
    fn sink_occupancy_is_stream_length_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x51CC);
        let config = AnalyticsConfig::default();
        let m = 8;
        let mut sink = AnalyticsSink::new(config.clone());
        let mut occupancy_at_half = 0;
        for i in 0..100_000u64 {
            let x: Vec<f32> = (0..m).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
            let phi: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
            sink.fold(&x, &phi).unwrap();
            if i == 49_999 {
                occupancy_at_half = sink.occupied_cells();
            }
        }
        let ceiling =
            m * (config.sketch_params().max_buckets() + config.dependence_params().max_buckets());
        assert!(sink.occupied_cells() <= ceiling);
        // Doubling the stream adds at most one more discovered octave layer
        // (the rare near-zero magnitudes): growth is logarithmic with a small
        // constant, never linear in the stream length.
        assert!(
            sink.occupied_cells() as f64 <= occupancy_at_half as f64 * 1.25,
            "occupancy kept growing: {} at 50k vs {} at 100k",
            occupancy_at_half,
            sink.occupied_cells()
        );
        let _ = sink.snapshot(Provenance::default());
    }
}
