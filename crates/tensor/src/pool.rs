//! Thread-local buffer pool backing [`crate::Matrix`] storage.
//!
//! Every matrix constructor draws its `Vec<f32>` from here and `Drop`
//! returns it, so steady-state training loops (which allocate the same
//! shapes every iteration) stop touching the system allocator entirely.
//! Buffers are keyed by exact capacity: the shapes on the hot paths —
//! tape nodes, gradients, packed GEMM panels — repeat verbatim across
//! iterations, so exact-size reuse is the common case and there is no
//! need for best-fit searching.
//!
//! The pool is strictly thread-local. Long-lived threads (the main
//! thread, serving workers) each warm their own free lists; short-lived
//! scoped workers from `crates/parallel` simply miss and fall back to
//! plain allocation, which keeps the design lock-free and makes the
//! panic story trivial: `Drop` runs during unwinding, so buffers held
//! by a panicking scope are returned, never leaked into limbo.
//!
//! The pool is always on. Every take that it cannot serve is counted as
//! a miss and allocates, so `hits + misses` is the number of allocations
//! the same run would make without a pool, and the allocation-savings
//! tests read the pool's effect from one run's [`stats`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Shelf keys are buffer capacities, which are already well-spread
/// integers; a multiplicative mix is enough and saves the SipHash cost
/// that would otherwise be paid on every matrix allocation.
#[derive(Default)]
struct CapHasher(u64);

impl Hasher for CapHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type CapMap<V> = HashMap<usize, V, BuildHasherDefault<CapHasher>>;

/// Float budget per capacity class (8 MiB of `f32`). Training epochs keep
/// thousands of small per-example buffers of the same shape alive at
/// once, so shelves of small capacities must hold many entries; shelves
/// of big ones only need a few. A shelf always accepts at least one
/// buffer regardless of its capacity.
const MAX_SHELF_FLOATS: usize = 1 << 21;

/// Absolute entry cap per shelf, bounding bookkeeping overhead for
/// micro-capacities.
const MAX_PER_SHELF: usize = 16_384;

/// Cap on total floats cached per thread (128 MiB of `f32`).
const MAX_CACHED_FLOATS: usize = 1 << 25;

/// Allocation counters of the current thread's pool, cumulative since
/// thread start (or the last [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a free list (no allocator call).
    pub hits: u64,
    /// Takes that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers accepted back into a free list.
    pub returned: u64,
    /// Buffers rejected at return time (caps reached).
    pub dropped: u64,
}

#[derive(Default)]
struct Pool {
    /// capacity -> free buffers of exactly that capacity.
    shelves: CapMap<Vec<Vec<f32>>>,
    cached_floats: usize,
    stats: PoolStats,
    /// Stats already flushed to obs counters by [`publish_obs`].
    published: PoolStats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// An empty `Vec<f32>` with capacity of at least `len`, reused from the
/// current thread's free list when one of exactly that capacity is
/// available. Zero-length requests never touch the pool.
pub fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if let Some(mut v) = pool.shelves.get_mut(&len).and_then(Vec::pop) {
            pool.cached_floats -= len;
            pool.stats.hits += 1;
            v.clear();
            return v;
        }
        pool.stats.misses += 1;
        Vec::with_capacity(len)
    })
}

/// Returns a buffer to the current thread's free list. Buffers are
/// rejected (and freed normally) when the buffer has no capacity or the
/// per-shelf / total caps are reached.
pub fn put(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.cached_floats + cap > MAX_CACHED_FLOATS {
            pool.stats.dropped += 1;
            return;
        }
        let shelf = pool.shelves.entry(cap).or_default();
        let over_budget =
            !shelf.is_empty() && (shelf.len() + 1).saturating_mul(cap) > MAX_SHELF_FLOATS;
        if shelf.len() >= MAX_PER_SHELF || over_budget {
            pool.stats.dropped += 1;
            return;
        }
        shelf.push(v);
        pool.cached_floats += cap;
        pool.stats.returned += 1;
    });
}

/// Allocation counters of the current thread's pool.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Zeroes the current thread's counters (the cached buffers stay).
pub fn reset_stats() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.stats = PoolStats::default();
        pool.published = PoolStats::default();
    });
}

/// Total floats currently cached on this thread's free lists.
pub fn cached_floats() -> usize {
    POOL.with(|p| p.borrow().cached_floats)
}

/// Frees every cached buffer on the current thread.
pub fn clear() {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        pool.shelves.clear();
        pool.cached_floats = 0;
    });
}

/// Flushes the delta since the last publish into the obs counters
/// `tensor/pool_hits`, `tensor/pool_misses`, `tensor/pool_returned` and
/// `tensor/pool_dropped`. Called at phase boundaries (end of training
/// loops) so the hot path never takes the obs lock per allocation.
pub fn publish_obs() {
    if !obs::enabled() {
        return;
    }
    let (hits, misses, returned, dropped) = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let s = pool.stats;
        let d = (
            s.hits - pool.published.hits,
            s.misses - pool.published.misses,
            s.returned - pool.published.returned,
            s.dropped - pool.published.dropped,
        );
        pool.published = s;
        d
    });
    obs::add("tensor/pool_hits", hits);
    obs::add("tensor/pool_misses", misses);
    obs::add("tensor/pool_returned", returned);
    obs::add("tensor/pool_dropped", dropped);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each #[test] runs on its own thread, so the thread-local pool and
    // its counters start fresh per test: no cross-test interference.

    #[test]
    fn round_trip_reuses_exact_capacity() {
        let mut v = take(64);
        assert_eq!(v.capacity(), 64);
        v.resize(64, 1.0);
        let cap = v.capacity();
        put(v);
        assert_eq!(stats().returned, 1);
        let w = take(cap);
        assert!(w.is_empty(), "reused buffers come back cleared");
        assert_eq!(stats().hits, 1);
    }

    #[test]
    fn zero_length_requests_bypass_the_pool() {
        let v = take(0);
        assert_eq!(v.capacity(), 0);
        put(v);
        assert_eq!(stats(), PoolStats::default());
    }

    #[test]
    fn shelf_float_budget_bounds_growth() {
        // One buffer holding half the shelf budget: the second one fits,
        // the third would exceed the budget and is dropped.
        let cap = MAX_SHELF_FLOATS / 2;
        for _ in 0..3 {
            put(Vec::with_capacity(cap));
        }
        assert_eq!(cached_floats(), 2 * cap);
        assert_eq!(stats().dropped, 1);
        clear();
        assert_eq!(cached_floats(), 0);
    }

    #[test]
    fn oversized_buffers_still_get_one_shelf_slot() {
        let cap = 2 * MAX_SHELF_FLOATS;
        put(Vec::with_capacity(cap));
        assert_eq!(stats().returned, 1, "first oversized buffer is kept");
        put(Vec::with_capacity(cap));
        assert_eq!(stats().dropped, 1, "second one exceeds the budget");
        clear();
    }
}
