//! The rank store CART split search runs over: every feature's values
//! replaced by their dense rank under `f32::total_cmp`, stored feature-major,
//! plus each feature's distinct values in that order.
//!
//! Ranks order exactly as `total_cmp` orders the values, and two samples
//! share a rank exactly when their values have the same bits. A stable sort
//! of a node's samples by rank is therefore the stable `total_cmp` sort of
//! their values, and small rank ranges sort by counting (DESIGN.md §19).

use drcshap_ml::Dataset;

/// Dense per-feature ranks of one training set, built once per fit and
/// shared by every tree of the ensemble.
#[derive(Debug)]
pub(crate) struct RankStore {
    n_samples: usize,
    /// `ranks[f * n_samples + i]`: the rank of sample `i`'s value of `f`.
    ranks: Vec<u32>,
    /// Feature `f`'s distinct values, ascending by `total_cmp`, are
    /// `values[starts[f]..starts[f + 1]]`.
    values: Vec<f32>,
    starts: Vec<usize>,
}

/// A key whose unsigned order is `f32::total_cmp`'s: negative values have
/// every bit flipped, the rest only the sign bit.
fn total_order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

impl RankStore {
    /// Ranks every feature of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` has more than `u32::MAX` samples.
    pub(crate) fn new(data: &Dataset) -> Self {
        let n = data.n_samples();
        let m = data.n_features();
        assert!(u32::try_from(n).is_ok(), "too many samples to rank: {n}");
        let x = data.as_slice();
        let mut ranks = vec![0u32; n * m];
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(m + 1);
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        for f in 0..m {
            let column = &mut ranks[f * n..(f + 1) * n];
            starts.push(values.len());
            keys.clear();
            keys.extend((0..n).map(|i| u64::from(total_order_key(x[i * m + f])) << 32 | i as u64));
            keys.sort_unstable();
            let mut previous = None;
            for &key in &keys {
                let i = key as u32 as usize;
                if previous != Some(key >> 32) {
                    previous = Some(key >> 32);
                    values.push(x[i * m + f]);
                }
                column[i] = (values.len() - starts[f] - 1) as u32;
            }
        }
        starts.push(values.len());
        Self { n_samples: n, ranks, values, starts }
    }

    /// Number of ranked samples.
    pub(crate) fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of ranked features.
    pub(crate) fn n_features(&self) -> usize {
        self.starts.len() - 1
    }

    /// Feature `f`'s rank of every sample, by sample index.
    pub(crate) fn ranks(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.n_samples..(f + 1) * self.n_samples]
    }

    /// Feature `f`'s distinct values, indexed by rank.
    pub(crate) fn values(&self, f: usize) -> &[f32] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every bit class a feature value can take, NaNs of both signs included.
    const SPECIALS: [f32; 10] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        1.5,
    ];

    #[test]
    fn ranks_follow_total_cmp_and_bits() {
        let x: Vec<f32> = SPECIALS.iter().chain(SPECIALS.iter().rev()).copied().collect();
        let n = x.len();
        let data = Dataset::from_parts(x.clone(), vec![false; n], vec![0; n], 1);
        let store = RankStore::new(&data);
        assert_eq!(store.values(0).len(), SPECIALS.len());
        for i in 0..n {
            let rank = store.ranks(0)[i] as usize;
            assert_eq!(store.values(0)[rank].to_bits(), x[i].to_bits());
            for j in 0..n {
                let order = store.ranks(0)[i].cmp(&store.ranks(0)[j]);
                assert_eq!(order, x[i].total_cmp(&x[j]), "{} vs {}", x[i], x[j]);
            }
        }
    }

    #[test]
    fn a_single_sample_gets_rank_zero_in_every_feature() {
        let data = Dataset::from_parts(vec![3.0, f32::NAN, -0.0], vec![true], vec![0], 3);
        let store = RankStore::new(&data);
        assert_eq!((store.n_samples(), store.n_features()), (1, 3));
        for f in 0..3 {
            assert_eq!(store.ranks(f), &[0]);
            assert_eq!(store.values(f)[0].to_bits(), data.row(0)[f].to_bits());
        }
    }

    proptest! {
        /// The key's unsigned order is `total_cmp`'s over arbitrary bits.
        #[test]
        fn prop_key_order_is_total_cmp(a in any::<u32>(), b in any::<u32>()) {
            let (x, y) = (f32::from_bits(a), f32::from_bits(b));
            prop_assert_eq!(total_order_key(x).cmp(&total_order_key(y)), x.total_cmp(&y));
        }
    }
}
