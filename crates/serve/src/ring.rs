//! Consistent-hash ring mapping user ids onto shard indices.
//!
//! Classic vnode construction: every shard contributes `vnodes` points
//! at `fnv1a64("shard-{s}/vnode-{v}")` on a `u64` circle; a key is owned
//! by the first point clockwise of its own hash. Because points are a
//! deterministic function of `(shard index, vnode)`, every router — and
//! every test — agrees on ownership without coordination, and adding a
//! shard moves only `~1/n` of the keyspace.
//!
//! Every shard loads the full corpus and model, so ownership is a
//! *cache-locality* assignment, not a correctness one: any shard answers
//! any key byte-identically, which is what makes ring walking on
//! ejection ([`HashRing::owner_where`]) trivially safe — failover just
//! warms a different shard's feature cache.

use hisrect::ckpt::fnv1a64;

/// splitmix64's finalizer: raw FNV over short, similar strings (vnode
/// labels, little-endian ids) leaves the high bits correlated, which
/// skews the ring badly; one avalanche pass spreads points evenly.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a user/profile id onto the ring's keyspace.
pub fn hash_key(uid: u64) -> u64 {
    mix64(fnv1a64(&uid.to_le_bytes()))
}

/// The ring: sorted vnode points, each tagged with its shard.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, shard index)`, sorted by hash.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Default vnodes per shard: enough to keep the keyspace split
    /// within a few percent of even for small clusters.
    pub const DEFAULT_VNODES: usize = 64;

    /// Builds the ring for `shards` shards with `vnodes` points each.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((mix64(fnv1a64(format!("shard-{s}/vnode-{v}").as_bytes())), s));
            }
        }
        // Ties (astronomically unlikely) resolve by shard index so the
        // ring is still a pure function of (shards, vnodes).
        points.sort_unstable();
        Self { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `uid`.
    pub fn owner(&self, uid: u64) -> usize {
        self.owner_where(uid, |_| true)
            .expect("a predicate accepting every shard always finds one")
    }

    /// The first shard clockwise of `uid`'s point that satisfies
    /// `routable` — ring-walk failover past ejected or draining shards.
    /// `None` when no shard qualifies.
    pub fn owner_where(&self, uid: u64, routable: impl Fn(usize) -> bool) -> Option<usize> {
        let h = hash_key(uid);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        let mut seen = 0usize;
        for k in 0..n {
            let (_, shard) = self.points[(start + k) % n];
            if routable(shard) {
                return Some(shard);
            }
            seen += 1;
            if seen >= n {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let a = HashRing::new(3, HashRing::DEFAULT_VNODES);
        let b = HashRing::new(3, HashRing::DEFAULT_VNODES);
        for uid in 0..1000u64 {
            let s = a.owner(uid);
            assert!(s < 3);
            assert_eq!(s, b.owner(uid), "two rings over the same config agree");
        }
    }

    #[test]
    fn keyspace_split_is_roughly_even() {
        let ring = HashRing::new(3, HashRing::DEFAULT_VNODES);
        let mut counts = [0usize; 3];
        for uid in 0..30_000u64 {
            counts[ring.owner(uid)] += 1;
        }
        for &c in &counts {
            assert!(
                (5_000..=15_000).contains(&c),
                "pathologically uneven split: {counts:?}"
            );
        }
    }

    #[test]
    fn ejection_walks_to_the_next_shard() {
        let ring = HashRing::new(3, HashRing::DEFAULT_VNODES);
        for uid in 0..200u64 {
            let owner = ring.owner(uid);
            let fallback = ring.owner_where(uid, |s| s != owner).unwrap();
            assert_ne!(fallback, owner);
            // Keys not owned by the dead shard keep their owner.
            if ring.owner(uid) != 1 {
                assert_eq!(ring.owner_where(uid, |s| s != 1), Some(ring.owner(uid)));
            }
        }
        assert_eq!(ring.owner_where(7, |_| false), None, "no routable shard");
    }

    #[test]
    fn adding_a_shard_moves_a_minority_of_keys() {
        let three = HashRing::new(3, HashRing::DEFAULT_VNODES);
        let four = HashRing::new(4, HashRing::DEFAULT_VNODES);
        let moved = (0..10_000u64)
            .filter(|&uid| {
                let o3 = three.owner(uid);
                let o4 = four.owner(uid);
                o3 != o4
            })
            .count();
        assert!(
            moved < 5_000,
            "consistent hashing must move ~1/n of keys, moved {moved}/10000"
        );
    }
}
