//! Behavioural contract of the thread-local tape buffer pool: steady-state
//! reuse (no growth across a thousand iterations), panic safety (buffers
//! come home during unwind), and the bounded cached footprint.
//!
//! The pool and its statistics are thread-local, and Rust runs every
//! `#[test]` on its own thread, so each test observes a fresh pool.

use tensor::{pool, Matrix};

/// A steady-state loop over fixed shapes must allocate only on the first
/// pass: every later take is served from the shelves, and the cached
/// footprint stays pinned at the working-set size.
#[test]
fn no_growth_across_1k_iterations() {
    pool::clear();
    pool::reset_stats();
    let mut checksum = 0.0f32;
    let mut high_water = 0usize;
    for i in 0..1_000 {
        // Mimics one tape iteration: a few live temporaries of distinct
        // shapes, all dropped at the end of the pass.
        let a = Matrix::filled(8, 16, i as f32);
        let b = Matrix::zeros(16, 4);
        let c = a.matmul(&b);
        checksum += c.get(0, 0) + a.get(0, 0) + b.get(0, 0);
        if i == 0 {
            high_water = pool::stats().misses as usize;
        }
    }
    assert_eq!(checksum, 499_500.0);
    let s = pool::stats();
    // Everything after the first pass must be a hit; allow a tiny slack
    // for transient scratch shapes that only exist on the first pass.
    assert!(
        s.misses <= high_water as u64 + 4,
        "pool grew after warmup: first-pass misses {high_water}, total {}",
        s.misses
    );
    assert!(
        s.hits >= 999 * 3,
        "steady state should hit on every take: hits {}",
        s.hits
    );
    assert_eq!(s.dropped, 0, "working set must fit the shelves");
}

/// Buffers owned by matrices that die during a panic unwind are still
/// returned to the pool (return-on-drop, not return-on-success).
#[test]
fn panic_unwind_returns_buffers() {
    pool::clear();
    pool::reset_stats();
    let result = std::panic::catch_unwind(|| {
        let m = Matrix::filled(13, 7, 1.0);
        assert_eq!(m.get(0, 0), 1.0);
        panic!("mid-iteration failure");
    });
    assert!(result.is_err());
    let returned = pool::stats().returned;
    assert!(returned >= 1, "unwound matrix never came home: {returned}");
    // The next take of the same shape is served from the shelf.
    let before = pool::stats().hits;
    let again = Matrix::filled(13, 7, 2.0);
    assert_eq!(again.get(12, 6), 2.0);
    assert!(pool::stats().hits > before, "post-unwind take should hit");
}

/// The cached footprint is bounded by the per-shelf float budget:
/// returning more same-capacity floats than one shelf's budget holds
/// drops the excess instead of caching it.
#[test]
fn cached_footprint_is_bounded() {
    pool::clear();
    pool::reset_stats();
    // 4 MiB buffers: the shelf budget (8 MiB of f32) holds two of them.
    let cap = 1usize << 20;
    let live: Vec<Matrix> = (0..8).map(|_| Matrix::zeros(1, cap)).collect();
    let returned_floats = live.len() * cap;
    drop(live);
    let s = pool::stats();
    assert!(s.dropped > 0, "overflow past the shelf budget must drop");
    assert!(
        pool::cached_floats() < returned_floats,
        "shelf kept everything: {} floats cached",
        pool::cached_floats()
    );
    assert!(
        pool::cached_floats() <= 2 * cap,
        "shelf exceeded its float budget: {} floats cached",
        pool::cached_floats()
    );
    pool::clear();
}
