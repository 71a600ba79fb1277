//! A thread-safe LRU cache for SHAP explanations.
//!
//! Tree SHAP is deterministic: for a fixed model, the same feature vector
//! always yields the same explanation. Repeated hot g-cells (the common
//! case in fix-loop workloads, which re-query the same windows every
//! iteration) can therefore skip the `O(trees · depth²)` path walk
//! entirely. Entries are keyed by the *bit patterns* of the feature
//! vector — no float-equality subtleties, no hash-collision false hits —
//! with two canonicalizations that are provably explanation-preserving
//! for tree traversal (`x[f] <= threshold` plus NaN default-direction):
//! `-0.0` keys as `+0.0` (IEEE `<=` ignores zero sign), and every NaN
//! payload keys as the canonical quiet NaN (any NaN fails every
//! comparison identically). Values are shared via [`Arc`], so a hit
//! costs one lock plus a pointer bump.
//!
//! A cache is only valid for one model epoch, so each
//! [`crate::ModelEpoch`] owns its own: a hot swap replaces it with the
//! epoch, and an explanation computed on an epoch can only land in that
//! epoch's cache. The engine counts hits and misses in its
//! [`crate::ServeCounters`], across epochs.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use drcshap_shap::Explanation;

/// The exact-bits cache key of a feature vector.
type Key = Vec<u32>;

struct Entry {
    value: Arc<Explanation>,
    /// Recency tick; also the entry's key in `LruState::order`.
    tick: u64,
}

#[derive(Default)]
struct LruState {
    map: HashMap<Key, Entry>,
    /// Recency index: lowest tick = least recently used.
    order: BTreeMap<u64, Key>,
    clock: u64,
}

/// A bounded, thread-safe, least-recently-used explanation cache.
pub struct ExplanationCache {
    state: Mutex<LruState>,
    capacity: usize,
}

impl std::fmt::Debug for ExplanationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplanationCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ExplanationCache {
    /// Creates a cache holding at most `capacity` explanations. A capacity
    /// of 0 disables caching: every lookup misses, inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        Self { state: Mutex::new(LruState::default()), capacity }
    }

    fn key_of(x: &[f32]) -> Key {
        x.iter()
            .map(|&v| {
                if v.is_nan() {
                    // All NaN payloads (and signs) fail every node
                    // comparison the same way: one canonical key.
                    f32::NAN.to_bits()
                } else if v == 0.0 {
                    // -0.0 == 0.0 under every IEEE comparison a tree
                    // performs: key both as +0.0.
                    0.0f32.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// Looks up the explanation for `x`, refreshing its recency on a hit.
    pub fn get(&self, x: &[f32]) -> Option<Arc<Explanation>> {
        if self.capacity == 0 {
            return None;
        }
        let key = Self::key_of(x);
        let mut state = self.state.lock().expect("cache lock poisoned");
        let state = &mut *state;
        let entry = state.map.get_mut(&key)?;
        state.order.remove(&entry.tick);
        state.clock += 1;
        entry.tick = state.clock;
        state.order.insert(entry.tick, key);
        Some(entry.value.clone())
    }

    /// Inserts (or refreshes) the explanation for `x`, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&self, x: &[f32], value: Arc<Explanation>) {
        if self.capacity == 0 {
            return;
        }
        let key = Self::key_of(x);
        let mut state = self.state.lock().expect("cache lock poisoned");
        let state = &mut *state;
        if let Some(entry) = state.map.get_mut(&key) {
            state.order.remove(&entry.tick);
            state.clock += 1;
            entry.tick = state.clock;
            entry.value = value;
            state.order.insert(entry.tick, key);
            return;
        }
        if state.map.len() >= self.capacity {
            let oldest = state.order.keys().next().copied();
            if let Some(oldest) = oldest {
                if let Some(victim) = state.order.remove(&oldest) {
                    state.map.remove(&victim);
                }
            }
        }
        state.clock += 1;
        let tick = state.clock;
        state.order.insert(tick, key.clone());
        state.map.insert(key, Entry { value, tick });
    }

    /// Explanations currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").map.len()
    }

    /// Whether no explanation is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explanation(tag: f64) -> Arc<Explanation> {
        Arc::new(Explanation { base_value: 0.1, prediction: tag, contributions: vec![tag] })
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = ExplanationCache::new(4);
        let x = [0.25f32, 0.5];
        assert!(cache.get(&x).is_none());
        let e = explanation(0.7);
        cache.insert(&x, e.clone());
        let back = cache.get(&x).expect("hit");
        assert!(Arc::ptr_eq(&back, &e));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_sign_and_nan_payload_canonicalize() {
        // Pins the intended key semantics: keys collapse exactly when tree
        // traversal cannot distinguish the inputs.
        let cache = ExplanationCache::new(8);
        // -0.0 and +0.0 compare equal at every split: one entry.
        cache.insert(&[0.0], explanation(1.0));
        assert_eq!(cache.get(&[-0.0]).expect("zero-sign hit").prediction, 1.0);
        // Every NaN (any payload, either sign) takes the default direction
        // at every split: one entry.
        cache.insert(&[f32::NAN], explanation(2.0));
        let odd_payload = f32::from_bits(f32::NAN.to_bits() | 0x1357);
        assert!(odd_payload.is_nan());
        assert_eq!(cache.get(&[odd_payload]).expect("payload hit").prediction, 2.0);
        assert_eq!(cache.get(&[-f32::NAN]).expect("sign hit").prediction, 2.0);
        // NaN does not collapse into zero or any real value.
        assert!(cache.get(&[1.0]).is_none());
        assert_eq!(cache.get(&[0.0]).unwrap().prediction, 1.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ExplanationCache::new(2);
        cache.insert(&[1.0], explanation(1.0));
        cache.insert(&[2.0], explanation(2.0));
        // Touch [1.0] so [2.0] becomes the LRU victim.
        assert!(cache.get(&[1.0]).is_some());
        cache.insert(&[3.0], explanation(3.0));
        assert!(cache.get(&[2.0]).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&[1.0]).is_some());
        assert!(cache.get(&[3.0]).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ExplanationCache::new(0);
        cache.insert(&[1.0], explanation(1.0));
        assert!(cache.get(&[1.0]).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let cache = ExplanationCache::new(2);
        cache.insert(&[1.0], explanation(1.0));
        cache.insert(&[2.0], explanation(2.0));
        cache.insert(&[1.0], explanation(9.0));
        // [2.0] is now the LRU entry.
        cache.insert(&[3.0], explanation(3.0));
        assert!(cache.get(&[2.0]).is_none());
        assert_eq!(cache.get(&[1.0]).unwrap().prediction, 9.0);
    }
}
