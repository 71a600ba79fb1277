//! Word-level bitmask primitives shared by the bitvector kernels.
//!
//! The QuickScorer-style kernels in [`crate::bitvector`] and
//! [`crate::quantize`] represent the still-reachable leaves of every tree
//! as a packed `u64` bitvector. Scoring is three mask operations: clear a
//! bit interval (a false node killing its left subtree), find the lowest
//! surviving bit (the exit leaf), and bulk-reset masks between samples.
//! This module owns those primitives so the kernels stay readable and the
//! bit-twiddling gets its own unit tests (and the CI miri lane).
//!
//! With the nightly-only `simd` cargo feature the bulk reset runs through
//! `std::simd` lanes; the scalar loops remain the source of truth and the
//! feature changes no observable behavior (asserted by a unit test when
//! the feature is on).

/// Clears bits `lo..hi` (absolute bit indices into `words`, `lo < hi`).
///
/// This is the QuickScorer false-node step: the interval is the in-order
/// leaf range of the failed test's left subtree.
#[inline]
pub fn clear_range(words: &mut [u64], lo: usize, hi: usize) {
    debug_assert!(lo < hi, "empty clear interval");
    let wl = lo / 64;
    let wh = (hi - 1) / 64;
    // Bits below `lo` survive in the first word; bits at/above `hi`
    // survive in the last word.
    let keep_low = !(!0u64 << (lo % 64));
    let hi_rem = (hi - 1) % 64 + 1;
    let keep_high = if hi_rem == 64 { 0 } else { !0u64 << hi_rem };
    if wl == wh {
        words[wl] &= keep_low | keep_high;
    } else {
        words[wl] &= keep_low;
        for w in &mut words[wl + 1..wh] {
            *w = 0;
        }
        words[wh] &= keep_high;
    }
}

/// Index of the lowest set bit in `words`, or `None` when all are zero.
///
/// The exit-leaf lookup: after every false node cleared its interval, the
/// lowest surviving bit is the in-order index of the leaf the reference
/// traversal reaches.
#[inline]
pub fn first_set_bit(words: &[u64]) -> Option<usize> {
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Total number of set bits across `words` (surviving-leaf census; used
/// by layout sanity checks and exercised by the conformance tests).
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    #[cfg(feature = "simd")]
    {
        simd::popcount(words)
    }
    #[cfg(not(feature = "simd"))]
    {
        words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// Resets `masks` from the all-ones `template` (bulk copy; the per-tree
/// tail bits past the last leaf are pre-zeroed in the template so they
/// can never win a `first_set_bit` scan).
#[inline]
pub fn reset_from_template(masks: &mut [u64], template: &[u64]) {
    debug_assert_eq!(masks.len(), template.len());
    #[cfg(feature = "simd")]
    {
        simd::copy(masks, template);
    }
    #[cfg(not(feature = "simd"))]
    {
        masks.copy_from_slice(template);
    }
}

#[cfg(feature = "simd")]
mod simd {
    //! `std::simd` variants of the bulk lanes. Kept trivially equivalent
    //! to the scalar loops; the unit tests assert the equivalence.
    use std::simd::num::SimdUint;
    use std::simd::u64x4;

    pub fn popcount(words: &[u64]) -> u64 {
        let (chunks, tail) = words.split_at(words.len() - words.len() % 4);
        let mut acc = u64x4::splat(0);
        for c in chunks.chunks_exact(4) {
            acc += u64x4::from_slice(c).count_ones();
        }
        acc.reduce_sum() + tail.iter().map(|w| w.count_ones() as u64).sum::<u64>()
    }

    pub fn copy(dst: &mut [u64], src: &[u64]) {
        let split = src.len() - src.len() % 4;
        for (d, s) in dst[..split].chunks_exact_mut(4).zip(src[..split].chunks_exact(4)) {
            u64x4::from_slice(s).copy_to_slice(d);
        }
        dst[split..].copy_from_slice(&src[split..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference bit-clear: one bit at a time.
    fn clear_range_naive(words: &mut [u64], lo: usize, hi: usize) {
        for bit in lo..hi {
            words[bit / 64] &= !(1u64 << (bit % 64));
        }
    }

    #[test]
    fn clear_range_matches_naive_on_all_small_intervals() {
        for lo in 0..192 {
            for hi in lo + 1..=192 {
                let mut fast = [!0u64; 3];
                let mut slow = [!0u64; 3];
                clear_range(&mut fast, lo, hi);
                clear_range_naive(&mut slow, lo, hi);
                assert_eq!(fast, slow, "interval [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn clear_range_within_one_word() {
        let mut w = [!0u64];
        clear_range(&mut w, 3, 7);
        assert_eq!(w[0], !0b1111000);
    }

    #[test]
    fn first_set_bit_scans_across_words() {
        assert_eq!(first_set_bit(&[0, 0, 1 << 5]), Some(128 + 5));
        assert_eq!(first_set_bit(&[2, 0]), Some(1));
        assert_eq!(first_set_bit(&[0, 0]), None);
        assert_eq!(first_set_bit(&[]), None);
    }

    #[test]
    fn popcount_counts_every_word() {
        let words = [0b1011u64, 0, !0u64, 1 << 63, 0b1, 0b111, 0];
        let expected: u64 = words.iter().map(|w| w.count_ones() as u64).sum();
        assert_eq!(popcount(&words), expected);
    }

    #[test]
    fn reset_from_template_is_a_copy() {
        let template: Vec<u64> =
            (0..13u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let mut masks = vec![0u64; 13];
        reset_from_template(&mut masks, &template);
        assert_eq!(masks, template);
    }
}
