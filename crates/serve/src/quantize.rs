//! The quantized bitvector kernel: features binned on the forest's own
//! threshold set.
//!
//! A forest only ever compares a feature against its finite set of split
//! thresholds, so the real line collapses to at most `k + 1` equivalence
//! classes per feature (`k` = distinct thresholds). [`FeatureBins`] maps
//! a raw value to its class id — `bin(v) = #{thresholds < v}` — and the
//! kernel compares *bin ids* instead of floats:
//!
//! > `v <= t`  ⟺  `bin(v) <= bin(t)`
//!
//! (For `v <= t`, every threshold below `v` is below `t`; for `v > t`,
//! the count below `v` includes `t` itself. NaN is assigned the past-
//! every-threshold bin, so it fails every test — exactly the reference
//! comparison semantics.) Scores are therefore bit-identical to
//! [`RandomForest::predict_proba`] *by construction*: the quantization is
//! exact on the only comparisons the forest performs, including values
//! equal to a threshold, ±1-ulp neighbors, `-0.0`, and NaN — the proptest
//! in `tests/quantize_binning.rs` hammers precisely those.
//!
//! Bin ids fit `u8` when every feature has at most 255 thresholds, `u16`
//! up to 65535 — shrinking the sorted key runs the hot loop binary-
//! searches by 4×/2× versus `f32`, and replacing float compares with
//! integer compares.

use drcshap_forest::RandomForest;
use drcshap_ml::DrcshapError;
use rayon::prelude::*;

use crate::bitvector::QsLayout;

/// Samples per rayon work unit (kept in lockstep with the raw kernel).
const DOC_BLOCK: usize = 32;

/// Per-feature sorted distinct threshold sets of a forest, with the
/// value→bin mapping `bin(v) = #{thresholds < v}` (NaN → the maximal
/// bin, past every threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBins {
    /// `offsets[f]..offsets[f + 1]` delimits feature `f` in `thresholds`.
    offsets: Vec<u32>,
    /// Sorted, deduplicated split thresholds, all features concatenated.
    /// `-0.0`/`0.0` dedup to one entry — they compare equal everywhere.
    thresholds: Vec<f32>,
}

impl FeatureBins {
    /// Collects the distinct thresholds of every feature in `forest`.
    pub fn from_forest(forest: &RandomForest) -> Self {
        let mut columns: Vec<Vec<f32>> = vec![Vec::new(); forest.n_features()];
        for tree in forest.trees() {
            for node in tree.nodes() {
                if !node.is_leaf() {
                    columns[node.feature as usize].push(node.threshold);
                }
            }
        }
        Self::from_columns(columns)
    }

    /// Builds bins from explicit per-feature threshold lists (the proptest
    /// entry point; [`FeatureBins::from_forest`] is the production one).
    pub fn from_columns(mut columns: Vec<Vec<f32>>) -> Self {
        let mut offsets = Vec::with_capacity(columns.len() + 1);
        let mut thresholds = Vec::new();
        offsets.push(0u32);
        for column in &mut columns {
            column.sort_by(|a, b| a.total_cmp(b));
            // `==` dedup merges -0.0 with 0.0: they behave identically in
            // every `<`/`<=` comparison, so one representative suffices.
            column.dedup_by(|a, b| a == b);
            thresholds.extend_from_slice(column);
            offsets.push(thresholds.len() as u32);
        }
        Self { offsets, thresholds }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Distinct thresholds of feature `f`.
    pub fn n_thresholds(&self, f: usize) -> usize {
        (self.offsets[f + 1] - self.offsets[f]) as usize
    }

    /// The largest per-feature threshold count — bin ids span
    /// `0 ..= max_thresholds()`, which decides the `u8`/`u16` id width.
    pub fn max_thresholds(&self) -> usize {
        (0..self.n_features()).map(|f| self.n_thresholds(f)).max().unwrap_or(0)
    }

    /// The bin id of value `v` on feature `f`: the number of thresholds
    /// strictly below `v`; NaN maps past every threshold. Exact for the
    /// forest's comparisons: `v <= t` ⟺ `bin(v) <= bin(t)`.
    #[inline]
    pub fn bin(&self, f: usize, v: f32) -> usize {
        let ts = &self.thresholds[self.offsets[f] as usize..self.offsets[f + 1] as usize];
        if v.is_nan() {
            ts.len()
        } else {
            ts.partition_point(|t| *t < v)
        }
    }
}

/// The quantized layout at its two id widths.
#[derive(Debug, Clone, PartialEq)]
enum QuantLayout {
    /// Every feature has ≤ 255 distinct thresholds.
    U8(QsLayout<u8>),
    /// Every feature has ≤ 65535 distinct thresholds.
    U16(QsLayout<u16>),
}

/// The quantized QuickScorer kernel: [`FeatureBins`] binning in front of
/// the bitvector machine of [`crate::bitvector`], with integer bin ids as
/// the sort keys. Bit-identical to [`RandomForest::predict_proba`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedForest {
    bins: FeatureBins,
    layout: QuantLayout,
}

impl QuantizedForest {
    /// Builds the binned layout from `forest`, picking the narrowest id
    /// width that fits.
    ///
    /// # Errors
    ///
    /// A usage [`DrcshapError`] when some feature has more than
    /// `u16::MAX` distinct thresholds (use the raw bitvector kernel).
    pub fn compile(forest: &RandomForest) -> Result<Self, DrcshapError> {
        let bins = FeatureBins::from_forest(forest);
        let max = bins.max_thresholds();
        // The threshold→bin map is strictly monotone per feature, so the
        // threshold-ascending entry order of the layout carries over.
        let layout = if max <= u8::MAX as usize {
            QuantLayout::U8(QsLayout::build(forest, |f, t| bins.bin(f, t) as u8))
        } else if max <= u16::MAX as usize {
            QuantLayout::U16(QsLayout::build(forest, |f, t| bins.bin(f, t) as u16))
        } else {
            return Err(DrcshapError::usage(format!(
                "quantized kernel: a feature has {max} distinct thresholds (max {}); \
                 use the bitvector kernel",
                u16::MAX
            )));
        };
        Ok(Self { bins, layout })
    }

    /// Number of features the source forest was trained on.
    pub fn n_features(&self) -> usize {
        self.bins.n_features()
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        match &self.layout {
            QuantLayout::U8(l) => l.n_trees(),
            QuantLayout::U16(l) => l.n_trees(),
        }
    }

    /// The bin-id width in bits (8 or 16) this forest quantized to.
    pub fn bin_width_bits(&self) -> u32 {
        match &self.layout {
            QuantLayout::U8(_) => 8,
            QuantLayout::U16(_) => 16,
        }
    }

    /// The per-feature threshold sets backing the binning.
    pub fn bins(&self) -> &FeatureBins {
        &self.bins
    }

    /// Scores one sample — bit-identical to [`RandomForest::predict_proba`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the feature count.
    pub fn score_one(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.n_features(), "feature count mismatch");
        let mut score = [0.0f64];
        let mut masks = Vec::new();
        match &self.layout {
            QuantLayout::U8(layout) => {
                let keys = self.bin_rows::<u8>(x);
                layout.score_rows(&keys, 1, &mut score, &mut masks);
            }
            QuantLayout::U16(layout) => {
                let keys = self.bin_rows::<u16>(x);
                layout.score_rows(&keys, 1, &mut score, &mut masks);
            }
        }
        score[0]
    }

    /// Scores a row-major batch in parallel — each row bit-identical to
    /// [`RandomForest::predict_proba`].
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of the feature count.
    pub fn score_batch(&self, flat: &[f32]) -> Vec<f64> {
        let m = self.n_features();
        assert_eq!(
            flat.len() % m,
            0,
            "flat batch length {} is not a multiple of the feature count {m}",
            flat.len()
        );
        let rows = flat.len() / m;
        let mut out = vec![0.0f64; rows];
        out.par_chunks_mut(DOC_BLOCK).zip(flat.par_chunks(DOC_BLOCK * m)).for_each(
            |(scores, xs)| {
                let mut masks = Vec::new();
                match &self.layout {
                    QuantLayout::U8(layout) => {
                        let keys = self.bin_rows::<u8>(xs);
                        layout.score_rows(&keys, scores.len(), scores, &mut masks);
                    }
                    QuantLayout::U16(layout) => {
                        let keys = self.bin_rows::<u16>(xs);
                        layout.score_rows(&keys, scores.len(), scores, &mut masks);
                    }
                }
            },
        );
        out
    }

    fn bin_rows<T: TryFrom<usize> + Copy>(&self, xs: &[f32]) -> Vec<T> {
        let m = self.n_features();
        let mut keys = Vec::with_capacity(xs.len());
        for (i, &v) in xs.iter().enumerate() {
            let bin = self.bins.bin(i % m, v);
            keys.push(T::try_from(bin).unwrap_or_else(|_| unreachable!("bin fits the id width")));
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::RandomForestTrainer;
    use drcshap_ml::{Dataset, Trainer};

    fn train(n_trees: usize, m: usize, seed: u64) -> RandomForest {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = 200;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            y.push(row[0] > 0.55);
            x.extend(row);
        }
        let data = Dataset::from_parts(x, y, vec![0; n], m);
        RandomForestTrainer { n_trees, ..Default::default() }.fit(&data, seed)
    }

    #[test]
    fn bins_count_thresholds_strictly_below() {
        let bins = FeatureBins::from_columns(vec![vec![1.0, 3.0, 3.0, -0.0, 0.0]]);
        assert_eq!(bins.n_thresholds(0), 3, "-0.0/0.0 and duplicate 3.0 dedup");
        assert_eq!(bins.bin(0, -1.0), 0);
        assert_eq!(bins.bin(0, 0.0), 0, "0.0 <= the 0.0 threshold");
        assert_eq!(bins.bin(0, -0.0), 0);
        assert_eq!(bins.bin(0, 0.5), 1);
        assert_eq!(bins.bin(0, 1.0), 1);
        assert_eq!(bins.bin(0, 3.0), 2);
        assert_eq!(bins.bin(0, 4.0), 3);
        assert_eq!(bins.bin(0, f32::NAN), 3, "NaN fails every test");
        assert_eq!(bins.bin(0, f32::INFINITY), 3);
        assert_eq!(bins.bin(0, f32::NEG_INFINITY), 0);
        assert_eq!(bins.max_thresholds(), 3);
    }

    #[test]
    fn binning_preserves_every_comparison() {
        let bins = FeatureBins::from_columns(vec![vec![0.25, 0.5, 0.75]]);
        let probes = [0.0f32, 0.25, 0.25000003, 0.4999999, 0.5, 0.75, 1.0, f32::NAN, f32::INFINITY];
        for t in [0.25f32, 0.5, 0.75] {
            let bt = bins.bin(0, t);
            for v in probes {
                assert_eq!(v <= t, bins.bin(0, v) <= bt, "v={v} t={t}");
            }
        }
    }

    #[test]
    fn small_forest_quantizes_to_u8_and_matches_bitwise() {
        let rf = train(9, 3, 1);
        let q = QuantizedForest::compile(&rf).expect("eligible");
        assert_eq!(q.bin_width_bits(), 8);
        assert_eq!(q.n_trees(), 9);
        let flat: Vec<f32> = (0..50 * 3).map(|i| (i % 13) as f32 / 13.0).collect();
        let batch = q.score_batch(&flat);
        for (i, s) in batch.iter().enumerate() {
            let reference = rf.predict_proba(&flat[i * 3..(i + 1) * 3]);
            assert_eq!(s.to_bits(), reference.to_bits(), "row {i}");
        }
    }

    #[test]
    fn threshold_equal_and_nan_probes_match_bitwise() {
        let rf = train(7, 2, 2);
        let q = QuantizedForest::compile(&rf).expect("eligible");
        for tree in rf.trees() {
            for node in tree.nodes().iter().filter(|n| !n.is_leaf()).take(6) {
                for v in [
                    node.threshold,
                    f32::from_bits(node.threshold.to_bits() + 1),
                    f32::from_bits(node.threshold.to_bits().wrapping_sub(1)),
                ] {
                    let mut probe = vec![0.5f32; 2];
                    probe[node.feature as usize] = v;
                    assert_eq!(
                        q.score_one(&probe).to_bits(),
                        rf.predict_proba(&probe).to_bits(),
                        "probe {probe:?}"
                    );
                }
            }
        }
        let nan_probe = [f32::NAN, 0.3];
        assert_eq!(q.score_one(&nan_probe).to_bits(), rf.predict_proba(&nan_probe).to_bits());
    }

    #[test]
    fn u16_width_kicks_in_past_255_thresholds() {
        // A synthetic column with 300 distinct thresholds on feature 0.
        let bins = FeatureBins::from_columns(vec![(0..300).map(|i| i as f32).collect()]);
        assert_eq!(bins.max_thresholds(), 300);
        assert_eq!(bins.bin(0, 150.5), 151);
    }
}
