//! Provenance-stamped, digest-stable analytics snapshots.
//!
//! A snapshot is the serialized state of one epoch's [`crate::sink::AnalyticsSink`]:
//! integer-only on the wire (counts, fixed-point sums as `{hi, lo}`
//! splits, f64 extrema as IEEE-754 bit patterns) so a JSON round-trip is
//! exact and the digest survives serialization. The digest is a CRC32
//! (the same table-driven implementation artifacts use) over canonical
//! little-endian bytes of the *data* — params, counts, sums, sketches —
//! with provenance deliberately excluded, so two folds of the same
//! multiset digest identically even when stamped by different workers.
//!
//! Merging requires byte-equal params and provenance (artifact CRC,
//! schema fingerprint, model epoch): merging across epochs or models
//! would silently blend incomparable φ distributions, so it is a usage
//! error instead.

use serde::{Deserialize, Serialize};

use drcshap_core::artifact::crc32;
use drcshap_ml::DrcshapError;
use drcshap_telemetry::{BucketEntry, QuantileSketch, SketchParams};

use crate::accum::FixedSum;
use crate::sink::AnalyticsConfig;

/// Current snapshot schema version (bumped on any wire-format change).
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Identifies *what model* a snapshot describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Provenance {
    /// CRC32 of the model artifact the folds were explained against.
    pub artifact_crc: u32,
    /// Schema fingerprint of the feature space.
    pub schema_fingerprint: u64,
    /// Serve epoch (bumps on every hot swap).
    pub model_epoch: u64,
}

/// Sketch/binning knobs stamped into every snapshot; merge requires
/// byte-equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotParams {
    /// φ-sketch resolution (ε = 2^-(accuracy_bits+1)).
    pub accuracy_bits: u32,
    /// Feature-value bucketing resolution for dependence curves.
    pub dependence_bits: u32,
    /// Whether interaction pairs were aggregated.
    pub interactions: bool,
    /// Leading feature count eligible for pair aggregation.
    pub max_interaction_features: u32,
}

/// One dependence-curve cell: a feature-value bucket with the exact
/// count and fixed-point φ sum of the folds that landed in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependenceCell {
    /// Feature-value bucket id (under `dependence_bits` bucketing).
    pub bucket: i32,
    /// Exact fold count in this cell.
    pub n: u64,
    /// Fixed-point Σφ over the cell.
    pub sum_phi: FixedSum,
}

/// Per-feature aggregate state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSnapshot {
    /// Non-NaN φ folds.
    pub count: u64,
    /// φ values skipped as NaN.
    pub nan_skipped: u64,
    /// Folds with φ > 0 (pushes toward hotspot).
    pub positive: u64,
    /// Fixed-point Σφ (directional mean substrate).
    pub sum_phi: FixedSum,
    /// Fixed-point Σ|φ| (mean-|φ| ranking substrate).
    pub sum_abs_phi: FixedSum,
    /// Exact min φ as IEEE-754 bits (+∞ when count is 0).
    pub min_phi_bits: u64,
    /// Exact max φ as IEEE-754 bits (−∞ when count is 0).
    pub max_phi_bits: u64,
    /// Occupied φ-sketch buckets, ascending id order.
    pub sketch: Vec<BucketEntry>,
    /// Occupied dependence cells, ascending bucket order.
    pub dependence: Vec<DependenceCell>,
}

impl FeatureSnapshot {
    /// An empty aggregate.
    pub fn empty() -> Self {
        Self {
            count: 0,
            nan_skipped: 0,
            positive: 0,
            sum_phi: FixedSum::zero(),
            sum_abs_phi: FixedSum::zero(),
            min_phi_bits: f64::INFINITY.to_bits(),
            max_phi_bits: f64::NEG_INFINITY.to_bits(),
            sketch: Vec::new(),
            dependence: Vec::new(),
        }
    }

    /// Mean |φ| (0.0 when no folds — matches `shap::summary` on empties).
    pub fn mean_abs(&self) -> f64 {
        self.sum_abs_phi.mean(self.count).unwrap_or(0.0)
    }

    /// Directional mean φ.
    pub fn mean(&self) -> f64 {
        self.sum_phi.mean(self.count).unwrap_or(0.0)
    }

    /// Rebuilds the φ quantile sketch for querying.
    pub fn sketch(&self, params: SketchParams) -> Result<QuantileSketch, DrcshapError> {
        QuantileSketch::from_parts(
            params,
            &self.sketch,
            self.nan_skipped,
            self.min_phi_bits,
            self.max_phi_bits,
        )
        .map_err(DrcshapError::usage)
    }
}

/// One aggregated interaction pair `(i, j)`, `i < j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairSnapshot {
    /// First feature index.
    pub i: u32,
    /// Second feature index.
    pub j: u32,
    /// Interaction folds aggregated.
    pub n: u64,
    /// Fixed-point Σ|Φᵢⱼ| (symmetric off-diagonal entry).
    pub sum_abs: FixedSum,
    /// Fixed-point ΣΦᵢⱼ.
    pub sum: FixedSum,
}

impl PairSnapshot {
    /// Mean |Φᵢⱼ| over the aggregated folds.
    pub fn mean_abs(&self) -> f64 {
        self.sum_abs.mean(self.n).unwrap_or(0.0)
    }
}

/// A complete, self-describing epoch snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticsSnapshot {
    /// Wire-format version.
    pub schema_version: u32,
    /// What model the folds were explained against.
    pub provenance: Provenance,
    /// Sketch/binning knobs (merge requires byte-equality).
    pub params: SnapshotParams,
    /// Feature-space width (0 until the first fold).
    pub n_features: u32,
    /// SHAP vectors folded.
    pub n_vectors: u64,
    /// Interaction matrices folded.
    pub n_interaction_folds: u64,
    /// Folds dropped because they raced a hot swap.
    pub stale_folds: u64,
    /// Per-feature aggregates, index-aligned with the feature space.
    pub features: Vec<FeatureSnapshot>,
    /// Aggregated interaction pairs, ascending `(i, j)`.
    pub pairs: Vec<PairSnapshot>,
}

impl AnalyticsSnapshot {
    /// The φ-sketch params this snapshot was folded under.
    pub fn sketch_params(&self) -> SketchParams {
        SketchParams { accuracy_bits: self.params.accuracy_bits }
    }

    /// The feature-value bucketing params of the dependence curves.
    pub fn dependence_params(&self) -> SketchParams {
        SketchParams { accuracy_bits: self.params.dependence_bits }
    }

    /// Checks the shape of a snapshot read from outside the process, before
    /// it is merged or rendered: the schema version, the params against
    /// [`AnalyticsConfig::validate`]'s ranges, and one feature aggregate
    /// per feature.
    ///
    /// # Errors
    ///
    /// A usage [`DrcshapError`] naming the first violation.
    pub fn validate(&self) -> Result<(), DrcshapError> {
        if self.schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(DrcshapError::usage(format!(
                "analytics snapshot: schema version {} (expected {SNAPSHOT_SCHEMA_VERSION})",
                self.schema_version
            )));
        }
        AnalyticsConfig {
            accuracy_bits: self.params.accuracy_bits,
            dependence_bits: self.params.dependence_bits,
            interactions: self.params.interactions,
            max_interaction_features: self.params.max_interaction_features,
        }
        .validate()?;
        if self.features.len() != self.n_features as usize {
            return Err(DrcshapError::usage(format!(
                "analytics snapshot: {} feature aggregates for n_features {}",
                self.features.len(),
                self.n_features
            )));
        }
        Ok(())
    }

    /// Canonical little-endian bytes of everything *except* provenance —
    /// the digest substrate. Field order is fixed; any change bumps
    /// [`SNAPSHOT_SCHEMA_VERSION`].
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.features.len() * 128);
        out.extend_from_slice(&self.schema_version.to_le_bytes());
        out.extend_from_slice(&self.params.accuracy_bits.to_le_bytes());
        out.extend_from_slice(&self.params.dependence_bits.to_le_bytes());
        out.push(self.params.interactions as u8);
        out.extend_from_slice(&self.params.max_interaction_features.to_le_bytes());
        out.extend_from_slice(&self.n_features.to_le_bytes());
        out.extend_from_slice(&self.n_vectors.to_le_bytes());
        out.extend_from_slice(&self.n_interaction_folds.to_le_bytes());
        for f in &self.features {
            out.extend_from_slice(&f.count.to_le_bytes());
            out.extend_from_slice(&f.nan_skipped.to_le_bytes());
            out.extend_from_slice(&f.positive.to_le_bytes());
            f.sum_phi.canonical_bytes(&mut out);
            f.sum_abs_phi.canonical_bytes(&mut out);
            out.extend_from_slice(&f.min_phi_bits.to_le_bytes());
            out.extend_from_slice(&f.max_phi_bits.to_le_bytes());
            out.extend_from_slice(&(f.sketch.len() as u64).to_le_bytes());
            for e in &f.sketch {
                out.extend_from_slice(&e.id.to_le_bytes());
                out.extend_from_slice(&e.n.to_le_bytes());
            }
            out.extend_from_slice(&(f.dependence.len() as u64).to_le_bytes());
            for c in &f.dependence {
                out.extend_from_slice(&c.bucket.to_le_bytes());
                out.extend_from_slice(&c.n.to_le_bytes());
                c.sum_phi.canonical_bytes(&mut out);
            }
        }
        out.extend_from_slice(&(self.pairs.len() as u64).to_le_bytes());
        for p in &self.pairs {
            out.extend_from_slice(&p.i.to_le_bytes());
            out.extend_from_slice(&p.j.to_le_bytes());
            out.extend_from_slice(&p.n.to_le_bytes());
            p.sum_abs.canonical_bytes(&mut out);
            p.sum.canonical_bytes(&mut out);
        }
        out
    }

    /// The snapshot digest: CRC32 over [`AnalyticsSnapshot::canonical_bytes`].
    /// Bit-identical across fold topologies — the acceptance-bar digest.
    /// Note `stale_folds` is excluded: it describes the *collection*
    /// process, not the collected multiset, and may legitimately differ
    /// between two folds of the same data.
    pub fn digest(&self) -> u32 {
        crc32(&self.canonical_bytes())
    }

    /// Merges `other` into `self` (pointwise exact addition everywhere).
    ///
    /// # Errors
    ///
    /// Usage errors on schema-version, params, provenance, or
    /// feature-width mismatch — those snapshots describe incomparable
    /// streams.
    pub fn merge(&mut self, other: &AnalyticsSnapshot) -> Result<(), DrcshapError> {
        if self.schema_version != other.schema_version {
            return Err(DrcshapError::usage(format!(
                "analytics merge: schema version {} vs {}",
                self.schema_version, other.schema_version
            )));
        }
        if self.params != other.params {
            return Err(DrcshapError::usage(
                "analytics merge: sketch params differ; snapshots are incomparable",
            ));
        }
        if self.provenance != other.provenance {
            return Err(DrcshapError::usage(format!(
                "analytics merge: provenance mismatch (crc {:#x}/epoch {} vs crc {:#x}/epoch {})",
                self.provenance.artifact_crc,
                self.provenance.model_epoch,
                other.provenance.artifact_crc,
                other.provenance.model_epoch
            )));
        }
        // An empty side (no folds yet) has no feature width to defend.
        if self.n_features == 0 {
            *self = other.clone();
            return Ok(());
        }
        if other.n_features == 0 {
            self.stale_folds += other.stale_folds;
            return Ok(());
        }
        if self.n_features != other.n_features {
            return Err(DrcshapError::usage(format!(
                "analytics merge: feature width {} vs {}",
                self.n_features, other.n_features
            )));
        }
        let sketch_params = self.sketch_params();
        for (mine, theirs) in self.features.iter_mut().zip(&other.features) {
            mine.count += theirs.count;
            mine.nan_skipped += theirs.nan_skipped;
            mine.positive += theirs.positive;
            mine.sum_phi.merge(&theirs.sum_phi);
            mine.sum_abs_phi.merge(&theirs.sum_abs_phi);
            let (a, b) = (f64::from_bits(mine.min_phi_bits), f64::from_bits(theirs.min_phi_bits));
            mine.min_phi_bits = a.min(b).to_bits();
            let (a, b) = (f64::from_bits(mine.max_phi_bits), f64::from_bits(theirs.max_phi_bits));
            mine.max_phi_bits = a.max(b).to_bits();
            // Sketch merge = pointwise count addition over bucket ids.
            let mut merged = QuantileSketch::from_parts(
                sketch_params,
                &mine.sketch,
                0,
                mine.min_phi_bits,
                mine.max_phi_bits,
            )
            .map_err(DrcshapError::usage)?;
            let their_sketch = QuantileSketch::from_parts(
                sketch_params,
                &theirs.sketch,
                0,
                theirs.min_phi_bits,
                theirs.max_phi_bits,
            )
            .map_err(DrcshapError::usage)?;
            merged.merge(&their_sketch).map_err(DrcshapError::usage)?;
            mine.sketch = merged.to_entries();
            // Dependence cells merge by bucket id.
            let mut cells: std::collections::BTreeMap<i32, (u64, FixedSum)> =
                mine.dependence.iter().map(|c| (c.bucket, (c.n, c.sum_phi))).collect();
            for c in &theirs.dependence {
                let slot = cells.entry(c.bucket).or_insert((0, FixedSum::zero()));
                slot.0 += c.n;
                slot.1.merge(&c.sum_phi);
            }
            mine.dependence = cells
                .into_iter()
                .map(|(bucket, (n, sum_phi))| DependenceCell { bucket, n, sum_phi })
                .collect();
        }
        self.n_vectors += other.n_vectors;
        self.n_interaction_folds += other.n_interaction_folds;
        self.stale_folds += other.stale_folds;
        // Pairs merge by (i, j).
        let mut pairs: std::collections::BTreeMap<(u32, u32), PairSnapshot> =
            self.pairs.iter().map(|p| ((p.i, p.j), *p)).collect();
        for p in &other.pairs {
            let slot = pairs.entry((p.i, p.j)).or_insert(PairSnapshot {
                i: p.i,
                j: p.j,
                n: 0,
                sum_abs: FixedSum::zero(),
                sum: FixedSum::zero(),
            });
            slot.n += p.n;
            slot.sum_abs.merge(&p.sum_abs);
            slot.sum.merge(&p.sum);
        }
        self.pairs = pairs.into_values().collect();
        Ok(())
    }
}

/// Merges any number of same-provenance snapshots into one fleet view.
///
/// # Errors
///
/// Usage errors when `snapshots` is empty or any pair is incomparable
/// (see [`AnalyticsSnapshot::merge`]).
pub fn merge_fleet(snapshots: &[AnalyticsSnapshot]) -> Result<AnalyticsSnapshot, DrcshapError> {
    let mut iter = snapshots.iter();
    let mut acc = iter
        .next()
        .ok_or_else(|| DrcshapError::usage("analytics merge: no snapshots to merge"))?
        .clone();
    for s in iter {
        acc.merge(s)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_snapshot(epoch: u64) -> AnalyticsSnapshot {
        AnalyticsSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            provenance: Provenance { artifact_crc: 7, schema_fingerprint: 9, model_epoch: epoch },
            params: SnapshotParams {
                accuracy_bits: 6,
                dependence_bits: 2,
                interactions: false,
                max_interaction_features: 16,
            },
            n_features: 0,
            n_vectors: 0,
            n_interaction_folds: 0,
            stale_folds: 0,
            features: Vec::new(),
            pairs: Vec::new(),
        }
    }

    #[test]
    fn validate_rejects_malformed_snapshots() {
        assert!(empty_snapshot(1).validate().is_ok());
        let mut version = empty_snapshot(1);
        version.schema_version += 1;
        let mut bits = empty_snapshot(1);
        bits.params.accuracy_bits = 99;
        let mut width = empty_snapshot(1);
        width.n_features = 5;
        for bad in [version, bits, width] {
            let e = bad.validate().unwrap_err();
            assert!(matches!(e, DrcshapError::Input(drcshap_ml::InputError::Usage(_))), "{e}");
        }
    }

    #[test]
    fn merge_rejects_cross_epoch() {
        let mut a = empty_snapshot(1);
        let b = empty_snapshot(2);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn empty_merge_adopts_other_side() {
        let mut a = empty_snapshot(1);
        let mut b = empty_snapshot(1);
        b.n_features = 3;
        b.n_vectors = 5;
        b.features = vec![FeatureSnapshot::empty(); 3];
        a.merge(&b).unwrap();
        assert_eq!(a.n_features, 3);
        assert_eq!(a.n_vectors, 5);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_excludes_provenance_and_stale_folds() {
        let mut a = empty_snapshot(1);
        let mut b = empty_snapshot(2);
        b.stale_folds = 99;
        assert_eq!(a.digest(), b.digest());
        a.n_vectors = 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn snapshot_json_roundtrip_is_exact() {
        let mut s = empty_snapshot(3);
        s.n_features = 1;
        let mut f = FeatureSnapshot::empty();
        f.count = 2;
        f.sum_phi.add(0.125);
        f.sum_phi.add(-0.5);
        f.min_phi_bits = (-0.5f64).to_bits();
        f.max_phi_bits = (0.125f64).to_bits();
        f.sketch.push(BucketEntry { id: -42, n: 1 });
        f.dependence.push(DependenceCell { bucket: 3, n: 2, sum_phi: FixedSum::from_raw(-77) });
        s.features.push(f);
        s.pairs.push(PairSnapshot {
            i: 0,
            j: 1,
            n: 4,
            sum_abs: FixedSum::from_raw(1 << 41),
            sum: FixedSum::from_raw(-(1 << 40)),
        });
        let json = serde_json::to_string(&s).unwrap();
        let back: AnalyticsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.digest(), back.digest());
    }
}
