//! Consistent-hash routing: maps a request key to an ordered failover
//! sequence of shards.
//!
//! The ring hashes `vnodes` virtual points per shard with FNV-1a (the
//! registry's [`fnv1a64`]), sorts
//! them, and routes a key to the first point clockwise of the key's own
//! hash. Walking onward yields every remaining shard exactly once, in a
//! key-dependent order — the gateway uses that sequence for failover and
//! hedging, so a dead primary spills onto a *stable* secondary instead of
//! a random one, and a key keeps warming the same shard's explanation
//! cache across requests.

use drcshap_store::fnv1a64;

/// A consistent-hash ring over `shards` shards with `vnodes` virtual
/// points per shard. Immutable after construction; routing is lock-free.
#[derive(Debug)]
pub struct HashRing {
    /// `(point_hash, shard)` sorted by hash.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds the ring. Both `shards` and `vnodes` must be at least 1
    /// (`GatewayConfig::validate` enforces this before construction).
    #[must_use]
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(shard as u64).to_le_bytes());
                key[8..].copy_from_slice(&(vnode as u64).to_le_bytes());
                points.push((fnv1a64(&key), shard));
            }
        }
        points.sort_unstable();
        Self { points, shards }
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The full failover order for `key`: every shard exactly once,
    /// starting with the owner (the first virtual point clockwise of
    /// `key`, wrapping at the top of the hash space).
    #[must_use]
    pub fn route(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(hash, _)| hash < key) % self.points.len();
        let mut seen = vec![false; self.shards];
        let mut order = Vec::with_capacity(self.shards);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn route_is_a_permutation_of_all_shards() {
        let ring = HashRing::new(5, 16);
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            let mut order = ring.route(key);
            assert_eq!(order.len(), 5);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let a = HashRing::new(4, 8);
        let b = HashRing::new(4, 8);
        for key in 0..200u64 {
            assert_eq!(
                a.route(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                b.route(key.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            );
        }
    }

    #[test]
    fn owners_are_roughly_balanced() {
        let ring = HashRing::new(4, 32);
        let mut counts = [0usize; 4];
        for i in 0..4000u64 {
            counts[ring.route(fnv1a64(&i.to_le_bytes()))[0]] += 1;
        }
        // With 32 vnodes the spread is coarse but no shard should starve
        // or hog the keyspace.
        for &c in &counts {
            assert!(c > 400 && c < 2200, "owner distribution skewed: {counts:?}");
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_to_it() {
        let ring = HashRing::new(1, 4);
        assert_eq!(ring.route(123), vec![0]);
    }
}
