//! A deterministic, mergeable, bounded-memory quantile sketch — the
//! workspace's one quantile structure: analytics' per-feature φ
//! distributions, the serve engine's and gateway's request latencies,
//! the telemetry summary's span quantiles and the benches' latency
//! quantiles all read it.
//!
//! # Why not KLL or GK?
//!
//! The acceptance bar for analytics is *bit-identity*: folding a stream
//! in one pass, folding it split `k` ways and merging the parts in any
//! order, and folding it through any number of serve workers must all
//! produce byte-identical snapshots (and therefore identical digests).
//! KLL and GK compactions are functions of arrival order — two different
//! partitions of the same stream leave different survivor sets — so no
//! variant of either can meet that bar. This sketch instead makes its
//! state a **pure function of the input multiset**: exact `u64` counts
//! over a fixed, data-independent bucketing of the `f64` value line.
//! Merging is pointwise integer addition, which is exact, commutative,
//! and associative, so *any* fold topology yields the same bits.
//!
//! # Bucketing and the error bound ε
//!
//! Buckets are derived from the IEEE-754 bit pattern with pure integer
//! arithmetic (no `ln`/`log` calls, so no libm variance): a value's
//! bucket is its sign, its unbiased exponent `e` (clamped to
//! `[-EXP_MIN_ABS, EXP_MAX]`), and the top `M = accuracy_bits` mantissa
//! bits. Each octave `[2^e, 2^{e+1})` splits into `2^M` equal-width
//! slices, so a bucket `[lo, hi)` has `hi - lo = 2^{e-M} ≤ lo · 2^{-M}`.
//!
//! Counts per bucket are exact, so for any quantile `q` the bucket
//! containing the true rank-`⌈qn⌉` element is identified *exactly* —
//! the rank error of the bucket choice is zero. Reporting the bucket
//! midpoint then bounds the value error by half the bucket width:
//!
//! ```text
//! |quantile(q) − x*| ≤ 2^{-(M+1)} · |x*|  +  2^{-EXP_MIN_ABS}
//! ```
//!
//! where `x*` is the exact rank-`⌈qn⌉` value from a full sort and the
//! additive term covers the single "tiny" bucket around zero. We call
//! `ε = 2^{-(M+1)}` the sketch's relative accuracy. The `testkit`
//! `sketch-differential` oracle asserts both halves of this bound —
//! exact rank localization and the ε value envelope — against an
//! `O(n log n)` full-sort reference on every queried quantile.
//!
//! # Memory bound
//!
//! The bucket universe is finite: `2 · (EXP_SPAN · 2^M) + 1` ids. With
//! the default `M = 6` and the fixed exponent span `[-64, 64]` that is
//! 16 513 buckets — a hard ceiling *independent of the stream length*,
//! asserted by [`SketchParams::max_buckets`], the crate's proptests, and
//! `analytics_bench` at 10⁶ inserts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Smallest representable magnitude: `|v| < 2^{-EXP_MIN_ABS}` (and ±0)
/// collapse into the single "tiny" bucket with representative 0.0.
pub const EXP_MIN: i32 = -64;
/// Largest bucketed exponent: `|v| ≥ 2^{EXP_MAX+1}` clamps into the top
/// bucket of octave `EXP_MAX`.
pub const EXP_MAX: i32 = 64;

/// Bucketing parameters. Two sketches are mergeable iff their params are
/// byte-equal; params are stamped into every snapshot's provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchParams {
    /// Mantissa bits per bucket: each octave splits into `2^accuracy_bits`
    /// slices, giving relative accuracy `ε = 2^{-(accuracy_bits+1)}`.
    pub accuracy_bits: u32,
}

impl SketchParams {
    /// Params with the given sub-octave resolution (clamped to `1..=10`).
    pub fn new(accuracy_bits: u32) -> Self {
        Self { accuracy_bits: accuracy_bits.clamp(1, 10) }
    }

    /// The sketch's relative accuracy `ε = 2^{-(accuracy_bits+1)}`.
    pub fn epsilon(&self) -> f64 {
        (0.5f64).powi(self.accuracy_bits as i32 + 1)
    }

    /// Hard ceiling on the number of distinct buckets any stream can
    /// occupy: `2 · span · 2^M + 1`, independent of the stream length.
    pub fn max_buckets(&self) -> usize {
        let per_sign = ((EXP_MAX - EXP_MIN + 1) as usize) << self.accuracy_bits;
        2 * per_sign + 1
    }

    /// Bucket id of `v` (0 = tiny/zero; NaN is the caller's problem —
    /// [`QuantileSketch::insert`] skips NaN and counts it separately).
    /// Positive ids for positive values, negated for negative, and the
    /// id order agrees with the value order.
    #[inline]
    pub fn bucket_of(&self, v: f64) -> i32 {
        let bits = v.to_bits();
        let negative = bits >> 63 == 1;
        let magnitude = f64::from_bits(bits & !(1u64 << 63));
        if magnitude < (0.5f64).powi(-EXP_MIN) {
            return 0;
        }
        let mag_bits = magnitude.to_bits();
        let mut e = ((mag_bits >> 52) & 0x7FF) as i32 - 1023;
        let m = self.accuracy_bits;
        let mut slice = ((mag_bits >> (52 - m)) & ((1u64 << m) - 1)) as i32;
        if e > EXP_MAX {
            e = EXP_MAX;
            slice = (1 << m) - 1;
        }
        let idx = ((e - EXP_MIN) << m) + slice + 1;
        if negative {
            -idx
        } else {
            idx
        }
    }

    /// Exact `[lo, hi)` edges of bucket `id` (tiny bucket: the symmetric
    /// interval it absorbs). Assembled from bit patterns — no libm.
    pub fn bucket_edges(&self, id: i32) -> (f64, f64) {
        if id == 0 {
            let t = (0.5f64).powi(-EXP_MIN);
            return (-t, t);
        }
        let idx = id.unsigned_abs() - 1;
        let m = self.accuracy_bits;
        let e = (idx >> m) as i32 + EXP_MIN;
        let slice = (idx & ((1u32 << m) - 1)) as u64;
        let lo_bits = (((e + 1023) as u64) << 52) | (slice << (52 - m));
        let lo = f64::from_bits(lo_bits);
        let hi = if slice + 1 < (1u64 << m) {
            f64::from_bits((((e + 1023) as u64) << 52) | ((slice + 1) << (52 - m)))
        } else {
            f64::from_bits(((e + 1024) as u64) << 52)
        };
        if id > 0 {
            (lo, hi)
        } else {
            (-hi, -lo)
        }
    }

    /// The deterministic representative (midpoint) of bucket `id`.
    pub fn representative(&self, id: i32) -> f64 {
        if id == 0 {
            return 0.0;
        }
        let (lo, hi) = self.bucket_edges(id);
        lo / 2.0 + hi / 2.0
    }
}

impl Default for SketchParams {
    fn default() -> Self {
        Self { accuracy_bits: 6 }
    }
}

/// One occupied bucket of a serialized sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketEntry {
    /// Bucket id (see [`SketchParams::bucket_of`]).
    pub id: i32,
    /// Exact number of stream values in the bucket.
    pub n: u64,
}

/// The deterministic quantile sketch: exact counts over the fixed
/// bucketing, plus exact min/max (so the extreme quantiles are exact).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    params: SketchParams,
    buckets: BTreeMap<i32, u64>,
    count: u64,
    nan_skipped: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    /// An empty sketch with the default params (ε = 2^-7).
    fn default() -> Self {
        Self::new(SketchParams::default())
    }
}

impl QuantileSketch {
    /// An empty sketch with the given params.
    pub fn new(params: SketchParams) -> Self {
        Self {
            params,
            buckets: BTreeMap::new(),
            count: 0,
            nan_skipped: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucketing params.
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// Inserts one value. NaN is skipped (counted in
    /// [`QuantileSketch::nan_skipped`]); ±∞ clamps into the outermost
    /// buckets.
    #[inline]
    pub fn insert(&mut self, v: f64) {
        if v.is_nan() {
            self.nan_skipped += 1;
            return;
        }
        *self.buckets.entry(self.params.bucket_of(v)).or_insert(0) += 1;
        self.count += 1;
        // min/max over a multiset are order-independent, so they keep the
        // pure-function-of-multiset property (and make q=0 / q=1 exact).
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of inserted (non-NaN) values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN values skipped at insert.
    pub fn nan_skipped(&self) -> u64 {
        self.nan_skipped
    }

    /// Exact minimum (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of occupied buckets (the live memory footprint; bounded by
    /// [`SketchParams::max_buckets`] no matter how long the stream).
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The occupied buckets in ascending id (= ascending value) order.
    pub fn entries(&self) -> impl Iterator<Item = BucketEntry> + '_ {
        self.buckets.iter().map(|(&id, &n)| BucketEntry { id, n })
    }

    /// The integer target rank for quantile `q` over `n` values:
    /// `clamp(⌈q·n⌉, 1, n)` — the deterministic tie-breaking rule every
    /// query and oracle shares.
    pub fn target_rank(q: f64, n: u64) -> u64 {
        ((q * n as f64).ceil() as u64).clamp(1, n)
    }

    /// The id of the bucket containing the rank-`⌈qn⌉` element, or None
    /// when empty. Exact: counts are exact, so this is the same bucket a
    /// full sort would land the target rank in.
    pub fn quantile_bucket(&self, q: f64) -> Option<i32> {
        if self.count == 0 {
            return None;
        }
        let target = Self::target_rank(q, self.count);
        let mut seen = 0u64;
        for (&id, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Some(id);
            }
        }
        // Unreachable: seen == count >= target after the loop.
        self.buckets.keys().next_back().copied()
    }

    /// The `q`-quantile estimate: the midpoint of the (exactly located)
    /// target bucket, clamped into the exact `[min, max]` envelope; the
    /// extreme ranks (1 and n) return the exact tracked min/max. None
    /// when the sketch is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = Self::target_rank(q, self.count);
        if target == 1 {
            return Some(self.min);
        }
        if target == self.count {
            return Some(self.max);
        }
        let id = self.quantile_bucket(q)?;
        Some(self.params.representative(id).clamp(self.min, self.max))
    }

    /// Merges `other` into `self`: pointwise `u64` addition — exact,
    /// commutative, associative, and therefore bit-identical under any
    /// merge topology.
    ///
    /// # Errors
    ///
    /// A params-mismatch description; merging sketches with different
    /// bucketings would silently corrupt every guarantee.
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<(), String> {
        if self.params != other.params {
            return Err(format!("sketch params mismatch: {:?} vs {:?}", self.params, other.params));
        }
        for (&id, &n) in &other.buckets {
            *self.buckets.entry(id).or_insert(0) += n;
        }
        self.count += other.count;
        self.nan_skipped += other.nan_skipped;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
        Ok(())
    }

    /// Serializes the occupied buckets (ascending id order — canonical).
    pub fn to_entries(&self) -> Vec<BucketEntry> {
        self.entries().collect()
    }

    /// Rebuilds a sketch from serialized parts.
    ///
    /// # Errors
    ///
    /// A description when entries repeat or counts disagree.
    pub fn from_parts(
        params: SketchParams,
        entries: &[BucketEntry],
        nan_skipped: u64,
        min_bits: u64,
        max_bits: u64,
    ) -> Result<Self, String> {
        let mut buckets = BTreeMap::new();
        let mut count = 0u64;
        for e in entries {
            if buckets.insert(e.id, e.n).is_some() {
                return Err(format!("duplicate sketch bucket id {}", e.id));
            }
            count += e.n;
        }
        Ok(Self {
            params,
            buckets,
            count,
            nan_skipped,
            min: f64::from_bits(min_bits),
            max: f64::from_bits(max_bits),
        })
    }

    /// Appends the sketch's canonical bytes (params, counts, extrema,
    /// then ascending `(id, n)` pairs) — the digest substrate.
    pub fn canonical_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.params.accuracy_bits.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.nan_skipped.to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        for (&id, &n) in &self.buckets {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn bucket_order_agrees_with_value_order() {
        let p = SketchParams::default();
        let vals = [-3.5e4, -2.0, -1.0, -1e-30, 0.0, 1e-30, 0.5, 1.0, 1.0000001, 7.25, 3.1e8];
        for w in vals.windows(2) {
            assert!(
                p.bucket_of(w[0]) <= p.bucket_of(w[1]),
                "bucket order broken between {} and {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn edges_contain_their_values_and_midpoints() {
        let p = SketchParams::new(4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..2000 {
            let v: f64 = (rng.gen_range(-1.0f64..1.0)) * (2.0f64).powi(rng.gen_range(-40..40));
            let id = p.bucket_of(v);
            let (lo, hi) = p.bucket_edges(id);
            assert!(lo <= v && v < hi || (id == 0 && v.abs() < hi), "{v} outside [{lo},{hi})");
            let rep = p.representative(id);
            assert!(lo <= rep && rep <= hi);
        }
    }

    #[test]
    fn relative_error_bound_holds_per_bucket() {
        let p = SketchParams::new(6);
        let eps = p.epsilon();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..2000 {
            let v: f64 = rng.gen_range(1e-12f64..1e12) * if rng.gen() { 1.0 } else { -1.0 };
            let rep = p.representative(p.bucket_of(v));
            assert!(
                (rep - v).abs() <= eps * v.abs() + 1e-15,
                "rep {rep} too far from {v} (eps {eps})"
            );
        }
    }

    #[test]
    fn quantiles_track_a_full_sort() {
        let mut sketch = QuantileSketch::new(SketchParams::default());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut xs: Vec<f64> = (0..5000).map(|_| rng.gen_range(-2.0f64..2.0)).collect();
        for &x in &xs {
            sketch.insert(x);
        }
        xs.sort_by(f64::total_cmp);
        let eps = sketch.params().epsilon();
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let got = sketch.quantile(q).unwrap();
            let exact = xs[(QuantileSketch::target_rank(q, xs.len() as u64) - 1) as usize];
            assert!(
                (got - exact).abs() <= eps * exact.abs() + (0.5f64).powi(-EXP_MIN),
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(sketch.quantile(0.0), Some(xs[0]));
        assert_eq!(sketch.quantile(1.0), Some(xs[xs.len() - 1]));
    }

    #[test]
    fn duplicates_and_zeros_are_exact() {
        let mut sketch = QuantileSketch::new(SketchParams::default());
        for _ in 0..100 {
            sketch.insert(0.0);
        }
        for _ in 0..50 {
            sketch.insert(0.25);
        }
        assert_eq!(sketch.quantile(0.5), Some(0.0));
        assert_eq!(sketch.count(), 150);
        assert_eq!(sketch.occupied_buckets(), 2);
    }

    #[test]
    fn merge_is_bit_identical_to_single_stream() {
        let params = SketchParams::default();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let xs: Vec<f64> = (0..999).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
        let mut single = QuantileSketch::new(params);
        for &x in &xs {
            single.insert(x);
        }
        let mut parts: Vec<QuantileSketch> = (0..7).map(|_| QuantileSketch::new(params)).collect();
        for (i, &x) in xs.iter().enumerate() {
            parts[i % 7].insert(x);
        }
        // Merge in a scrambled order.
        let mut merged = QuantileSketch::new(params);
        for k in [3usize, 0, 6, 1, 5, 2, 4] {
            merged.merge(&parts[k]).unwrap();
        }
        assert_eq!(single, merged);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        single.canonical_bytes(&mut a);
        merged.canonical_bytes(&mut b);
        assert_eq!(a, b, "canonical bytes must be identical");
    }

    #[test]
    fn merge_rejects_param_mismatch() {
        let mut a = QuantileSketch::new(SketchParams::new(4));
        let b = QuantileSketch::new(SketchParams::new(6));
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn nan_is_skipped_and_counted() {
        let mut s = QuantileSketch::new(SketchParams::default());
        s.insert(f64::NAN);
        s.insert(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.nan_skipped(), 1);
    }

    #[test]
    fn infinities_clamp_into_outer_buckets() {
        let mut s = QuantileSketch::new(SketchParams::default());
        s.insert(f64::INFINITY);
        s.insert(f64::NEG_INFINITY);
        assert_eq!(s.count(), 2);
        assert!(s.occupied_buckets() <= 2);
    }

    #[test]
    fn memory_ceiling_is_respected() {
        let params = SketchParams::default();
        let mut s = QuantileSketch::new(params);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for _ in 0..100_000 {
            let v: f64 = rng.gen_range(-1.0f64..1.0) * (2.0f64).powi(rng.gen_range(-300..300));
            s.insert(v);
        }
        assert!(s.occupied_buckets() <= params.max_buckets());
    }

    #[test]
    fn roundtrips_through_parts() {
        let mut s = QuantileSketch::new(SketchParams::default());
        for v in [1.0, -2.5, 0.0, 1e-80, f64::NAN, 3.25] {
            s.insert(v);
        }
        let rebuilt = QuantileSketch::from_parts(
            s.params(),
            &s.to_entries(),
            s.nan_skipped(),
            s.min.to_bits(),
            s.max.to_bits(),
        )
        .unwrap();
        assert_eq!(s, rebuilt);
    }
}
