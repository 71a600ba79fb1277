//! Property tests for the deterministic quantile sketch: every queried
//! quantile is held to an exact full-sort reference (rank localization +
//! the ε value bound), the sketch CDF is monotone, merging is
//! associative/commutative down to the canonical bytes, and memory stays
//! under the hard bucket ceiling no matter the stream — including a
//! non-property 10⁶-insert soak.

use drcshap_telemetry::{QuantileSketch, SketchParams};
use proptest::prelude::*;

/// Exact rank-`⌈qn⌉` element of a sorted slice (the sketch's own
/// deterministic tie-breaking rule).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = QuantileSketch::target_rank(q, sorted.len() as u64);
    sorted[(rank - 1) as usize]
}

fn fold_all(params: SketchParams, xs: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(params);
    for &x in xs {
        s.insert(x);
    }
    s
}

fn canon(s: &QuantileSketch) -> Vec<u8> {
    let mut out = Vec::new();
    s.canonical_bytes(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Differential vs full sort: the queried bucket contains the exact
    /// rank-`⌈qn⌉` element (zero rank error at bucket granularity), and the
    /// reported value is within ε·|x*| of it.
    #[test]
    fn quantiles_match_full_sort_within_epsilon(
        xs in prop::collection::vec(-1e4f64..1e4, 1..400),
        bits in 2u32..8,
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let params = SketchParams::new(bits);
        let sketch = fold_all(params, &xs);
        let mut xs = xs;
        xs.sort_by(f64::total_cmp);
        let eps = params.epsilon();
        for &q in &qs {
            let exact = exact_quantile(&xs, q);
            // Rank localization: the exact element lies in the chosen bucket
            // (or at a clamped extreme).
            let bucket = sketch.quantile_bucket(q).unwrap();
            let exact_bucket = params.bucket_of(exact);
            prop_assert_eq!(
                bucket, exact_bucket,
                "q={} localized to bucket {} but exact value {} is in {}",
                q, bucket, exact, exact_bucket
            );
            // Value bound: midpoint within ε relative error (+ tiny-bucket
            // absolute slack).
            let got = sketch.quantile(q).unwrap();
            prop_assert!(
                (got - exact).abs() <= eps * exact.abs() + 1e-15,
                "q={}: got {}, exact {}, eps {}", q, got, exact, eps
            );
        }
    }

    /// The sketch CDF is monotone: quantile estimates never decrease as q
    /// increases, and extremes are exactly min/max.
    #[test]
    fn cdf_is_monotone(
        xs in prop::collection::vec(-50.0f64..50.0, 1..300),
        bits in 2u32..8,
    ) {
        let sketch = fold_all(SketchParams::new(bits), &xs);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=40 {
            let q = i as f64 / 40.0;
            let v = sketch.quantile(q).unwrap();
            prop_assert!(v >= prev, "quantile regressed at q={}: {} < {}", q, v, prev);
            prev = v;
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(sketch.quantile(0.0).unwrap(), lo);
        prop_assert_eq!(sketch.quantile(1.0).unwrap(), hi);
    }

    /// Merge is commutative and associative down to canonical bytes, and a
    /// k-way split-fold-merge in shuffled order is bit-identical to the
    /// single-stream fold.
    #[test]
    fn merge_is_commutative_associative_bit_stable(
        xs in prop::collection::vec(-100.0f64..100.0, 3..300),
        parts in 2usize..6,
        rot in 0usize..6,
    ) {
        let params = SketchParams::default();
        let single = fold_all(params, &xs);
        let mut shards: Vec<QuantileSketch> =
            (0..parts).map(|_| QuantileSketch::new(params)).collect();
        for (i, &x) in xs.iter().enumerate() {
            shards[i % parts].insert(x);
        }
        // Left fold in rotated order.
        let mut left = QuantileSketch::new(params);
        for k in 0..parts {
            left.merge(&shards[(k + rot) % parts]).unwrap();
        }
        // Right-associated fold in natural order.
        let mut right = QuantileSketch::new(params);
        for shard in shards.iter().rev() {
            let mut acc = shard.clone();
            acc.merge(&right).unwrap();
            right = acc;
        }
        prop_assert_eq!(canon(&single), canon(&left));
        prop_assert_eq!(canon(&single), canon(&right));
        // a ∪ b == b ∪ a on the first two shards.
        let (mut ab, mut ba) = (shards[0].clone(), shards[1].clone());
        ab.merge(&shards[1]).unwrap();
        ba.merge(&shards[0]).unwrap();
        prop_assert_eq!(canon(&ab), canon(&ba));
    }

    /// Memory never exceeds the params ceiling, across magnitudes from
    /// subnormal-adjacent to astronomically large (values are synthesized
    /// as mantissa·2^exp to sweep the whole exponent range), plus zeros
    /// and infinities.
    #[test]
    fn occupancy_stays_under_ceiling(
        raw in prop::collection::vec((-1.0f64..1.0, -300i32..300), 0..500),
        bits in 1u32..10,
    ) {
        let params = SketchParams::new(bits);
        let mut xs: Vec<f64> = raw.iter().map(|&(m, e)| m * (2.0f64).powi(e)).collect();
        xs.extend_from_slice(&[0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]);
        let sketch = fold_all(params, &xs);
        prop_assert!(sketch.occupied_buckets() <= params.max_buckets());
        prop_assert_eq!(sketch.count(), xs.len() as u64);
    }
}

/// 10⁶-insert soak: a long adversarial stream (many magnitudes, heavy
/// duplication) keeps the sketch under its hard memory ceiling, and the
/// sketch still answers within ε of the exact sort.
#[test]
fn million_insert_memory_ceiling() {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xA11A);
    let params = SketchParams::default();
    let mut sketch = QuantileSketch::new(params);
    let mut xs: Vec<f64> = Vec::with_capacity(1_000_000);
    for _ in 0..1_000_000 {
        let v: f64 = rng.gen_range(-1.0f64..1.0) * (2.0f64).powi(rng.gen_range(-60..60));
        sketch.insert(v);
        xs.push(v);
    }
    assert!(
        sketch.occupied_buckets() <= params.max_buckets(),
        "occupancy {} exceeds ceiling {}",
        sketch.occupied_buckets(),
        params.max_buckets()
    );
    xs.sort_by(f64::total_cmp);
    let eps = params.epsilon();
    for i in 0..=20 {
        let q = i as f64 / 20.0;
        let exact = exact_quantile(&xs, q);
        let got = sketch.quantile(q).unwrap();
        assert!(
            (got - exact).abs() <= eps * exact.abs() + 1e-15,
            "q={q}: got {got}, exact {exact}"
        );
    }
}
