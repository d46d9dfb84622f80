//! Sharded LRU cache of per-profile HisRect features `F(r)`.
//!
//! `Fv`/`Fc` features are a pure function of (model, profile), so repeated
//! judgements touching the same user skip the expensive featurizer forward
//! pass. Keys carry the model generation, which makes hot-reload
//! correctness free: entries from the previous model can never be returned
//! for the new one and simply age out of the LRU.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: model generation, user id, and the FNV-1a fingerprint of
/// the full profile content (see `hisrect::profile_fingerprint`).
pub type FeatureKey = (u64, u32, u64);

const NIL: usize = usize::MAX;

struct Entry {
    key: FeatureKey,
    value: Arc<Vec<f32>>,
    prev: usize,
    next: usize,
}

/// One shard: an intrusive doubly-linked LRU list over a slab, plus a
/// key → slot index. All operations are O(1).
struct Shard {
    map: HashMap<FeatureKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slab[h].prev = slot,
        }
        self.head = slot;
    }

    fn get(&mut self, key: &FeatureKey) -> Option<Arc<Vec<f32>>> {
        let slot = *self.map.get(key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(Arc::clone(&self.slab[slot].value))
    }

    fn insert(&mut self, key: FeatureKey, value: Arc<Vec<f32>>) {
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
        }
        let entry = Entry {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = entry;
                s
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }
}

/// Concurrent feature cache: keys are spread over independently locked
/// shards so worker threads rarely contend.
pub struct FeatureCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

const N_SHARDS: usize = 8;

impl FeatureCache {
    /// A cache holding at most (roughly) `capacity` features in total.
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(N_SHARDS).max(1);
        Self {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &FeatureKey) -> &Mutex<Shard> {
        // The fingerprint is already well mixed; fold in uid for users
        // sharing a fingerprint-free shard distribution.
        let h = key.2 ^ (key.1 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h % N_SHARDS as u64) as usize]
    }

    /// Looks up a feature, counting the hit/miss.
    pub fn get(&self, key: &FeatureKey) -> Option<Arc<Vec<f32>>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key);
        self.count(found.is_some());
        found
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::incr("serve/cache_hit");
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            obs::incr("serve/cache_miss");
        }
    }

    /// Inserts (or refreshes) a feature.
    pub fn insert(&self, key: FeatureKey, value: Arc<Vec<f32>>) {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
    }

    /// The features of `keys`, in order. Each distinct key is looked up
    /// once; a repeat counts as a hit, as it would after a
    /// [`FeatureCache::get_or_compute`] fill. `fill` gets the positions in
    /// `keys` of the distinct keys that missed and returns their features
    /// in that order, all computed in one call (none when nothing
    /// missed); they are inserted.
    pub fn get_or_fill(
        &self,
        keys: &[FeatureKey],
        fill: impl FnOnce(&[usize]) -> Vec<Vec<f32>>,
    ) -> Vec<Arc<Vec<f32>>> {
        let mut first: HashMap<FeatureKey, usize> = HashMap::with_capacity(keys.len());
        let mut found = Vec::with_capacity(keys.len());
        let mut missing = Vec::new();
        for (pos, key) in keys.iter().enumerate() {
            let value = if first.contains_key(key) {
                self.count(true);
                None
            } else {
                first.insert(*key, pos);
                let value = self.get(key);
                if value.is_none() {
                    missing.push(pos);
                }
                value
            };
            found.push(value);
        }
        let filled = if missing.is_empty() {
            Vec::new()
        } else {
            fill(&missing)
        };
        assert_eq!(filled.len(), missing.len(), "one feature per miss");
        for (&pos, value) in missing.iter().zip(filled) {
            let value = Arc::new(value);
            self.insert(keys[pos], Arc::clone(&value));
            found[pos] = Some(value);
        }
        keys.iter()
            .map(|key| found[first[key]].clone().expect("every miss is filled"))
            .collect()
    }

    /// Looks up a feature, computing and inserting it on a miss: the
    /// one-key [`FeatureCache::get_or_fill`].
    pub fn get_or_compute(
        &self,
        key: FeatureKey,
        compute: impl FnOnce() -> Vec<f32>,
    ) -> Arc<Vec<f32>> {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = Arc::new(compute());
        self.insert(key, Arc::clone(&v));
        v
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached features across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cache key of a finished verdict: model generation plus the pair's
/// indices in canonical (low, high) order — the judge is symmetric, so
/// `(i, j)` and `(j, i)` share one slot.
pub type VerdictKey = (u64, usize, usize);

/// Builds the canonical [`VerdictKey`] for a pair under a generation.
pub fn verdict_key(generation: u64, i: usize, j: usize) -> VerdictKey {
    (generation, i.min(j), i.max(j))
}

/// Small FIFO cache of recently served verdicts, read when the circuit
/// breaker has the learned path open: a stale-but-exact probability beats
/// a heuristic one, so degraded reads consult this before falling back.
///
/// FIFO rather than LRU on purpose — reads while degraded must not churn
/// the order, and the window only needs to cover "recently answered"
/// pairs, not a working set.
pub struct VerdictCache {
    inner: Mutex<VerdictInner>,
    capacity: usize,
}

struct VerdictInner {
    map: HashMap<VerdictKey, f32>,
    order: std::collections::VecDeque<VerdictKey>,
}

impl VerdictCache {
    /// A cache remembering the last `capacity` distinct pair verdicts.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(VerdictInner {
                map: HashMap::new(),
                order: std::collections::VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Records a verdict served by the learned path.
    pub fn insert(&self, key: VerdictKey, p: f32) {
        let mut inner = self.inner.lock().expect("verdict cache poisoned");
        if inner.map.insert(key, p).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }

    /// The stale verdict for a pair, if one is still in the window.
    pub fn get(&self, key: &VerdictKey) -> Option<f32> {
        self.inner
            .lock()
            .expect("verdict cache poisoned")
            .map
            .get(key)
            .copied()
    }

    /// Number of remembered verdicts.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("verdict cache poisoned").map.len()
    }

    /// True when no verdict is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> FeatureKey {
        (1, n as u32, n)
    }

    fn val(n: u64) -> Arc<Vec<f32>> {
        Arc::new(vec![n as f32])
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = FeatureCache::new(16);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), val(1));
        assert_eq!(cache.get(&key(1)).unwrap()[0], 1.0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_per_shard() {
        // Capacity 8 over 8 shards → each shard holds exactly one entry,
        // so two keys landing in the same shard evict one another.
        let cache = FeatureCache::new(8);
        let mut same_shard = Vec::new();
        let probe = FeatureCache::new(8);
        for n in 0..64u64 {
            let k = key(n);
            if std::ptr::eq(probe.shard(&k), &probe.shards[0]) {
                same_shard.push(k);
            }
            if same_shard.len() == 2 {
                break;
            }
        }
        let (a, b) = (same_shard[0], same_shard[1]);
        cache.insert(a, val(1));
        cache.insert(b, val(2));
        assert!(cache.get(&a).is_none(), "a was evicted by b");
        assert!(cache.get(&b).is_some());
    }

    #[test]
    fn lru_order_follows_access() {
        // One shard of capacity 2: access a, insert c → b is the victim.
        let mut shard = Shard::new(2);
        shard.insert(key(1), val(1));
        shard.insert(key(2), val(2));
        assert!(shard.get(&key(1)).is_some());
        shard.insert(key(3), val(3));
        assert!(shard.get(&key(2)).is_none(), "lru entry evicted");
        assert!(shard.get(&key(1)).is_some());
        assert!(shard.get(&key(3)).is_some());
    }

    #[test]
    fn get_or_compute_computes_once() {
        let cache = FeatureCache::new(16);
        let mut calls = 0;
        let v1 = cache.get_or_compute(key(5), || {
            calls += 1;
            vec![5.0]
        });
        let v2 = cache.get_or_compute(key(5), || {
            calls += 1;
            vec![5.0]
        });
        assert_eq!(calls, 1);
        assert_eq!(v1, v2);
    }

    #[test]
    fn get_or_fill_fills_each_distinct_miss_once() {
        let cache = FeatureCache::new(16);
        cache.insert(key(2), val(2));
        let keys = [key(1), key(2), key(1), key(3), key(3), key(2)];
        let mut calls = 0;
        let got = cache.get_or_fill(&keys, |missing| {
            calls += 1;
            assert_eq!(missing, &[0, 3], "first occurrences of the misses");
            missing
                .iter()
                .map(|&pos| vec![keys[pos].2 as f32])
                .collect()
        });
        assert_eq!(calls, 1);
        let values: Vec<f32> = got.iter().map(|v| v[0]).collect();
        assert_eq!(values, [1.0, 2.0, 1.0, 3.0, 3.0, 2.0]);
        // Two misses; the cached key and every repeat hit.
        assert_eq!((cache.hits(), cache.misses()), (4, 2));
        assert_eq!(cache.len(), 3);
        assert!(Arc::ptr_eq(&got[0], &cache.get(&key(1)).unwrap()));
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let cache = FeatureCache::new(16);
        cache.insert((1, 9, 42), val(1));
        assert!(cache.get(&(2, 9, 42)).is_none());
    }

    #[test]
    fn verdict_key_is_order_invariant() {
        assert_eq!(verdict_key(3, 7, 2), verdict_key(3, 2, 7));
        assert_ne!(verdict_key(3, 2, 7), verdict_key(4, 2, 7));
    }

    #[test]
    fn verdict_cache_round_trips_and_evicts_fifo() {
        let cache = VerdictCache::new(2);
        cache.insert(verdict_key(1, 0, 1), 0.9);
        cache.insert(verdict_key(1, 0, 2), 0.8);
        assert_eq!(cache.get(&verdict_key(1, 1, 0)), Some(0.9));
        cache.insert(verdict_key(1, 0, 3), 0.7);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&verdict_key(1, 0, 1)), None, "oldest evicted");
        assert_eq!(cache.get(&verdict_key(1, 0, 3)), Some(0.7));
    }

    #[test]
    fn verdict_reinsert_refreshes_value_without_growth() {
        let cache = VerdictCache::new(4);
        cache.insert(verdict_key(1, 0, 1), 0.4);
        cache.insert(verdict_key(1, 1, 0), 0.6);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&verdict_key(1, 0, 1)), Some(0.6));
    }
}
