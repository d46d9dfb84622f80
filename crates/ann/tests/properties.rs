//! Property tests for the ANN index.
//!
//! Three guarantees the rest of the stack builds on:
//!
//! 1. `query` is exact: it returns precisely the top-k of a brute-force
//!    "cell ring ∩ Δt window ∩ not removed" scan — same ids, same `d2`
//!    bits, same `(d2, id)` order — after a batch build, ascending or
//!    out-of-order inserts, removals, eviction, compaction, and a snapshot
//!    round-trip. With no spatial limit its top-1 is the exhaustive
//!    oracle's top-1, with and without a Δt window.
//! 2. Insertion order does not change the index structure or any answer —
//!    construction canonicalizes to id order.
//! 3. A serialized snapshot rebuilds to a bit-identical index.

use ann::{AnnConfig, AnnIndex, AnnItem, Neighbor, METERS_PER_DEG};
use geo::{GeoPoint, GridIndex};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A reproducible random world: clustered points with embeddings that are a
/// noisy function of position, ids 0..n. Timestamps fall on a 30-minute
/// grid so equal timestamps (ordered by slot) are common, and every eighth
/// item copies an earlier embedding so equal distances (ordered by id) are
/// too.
fn world(seed: u64, n: usize, dim: usize) -> Vec<AnnItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_centers = (n / 16).max(1);
    let centers: Vec<(f64, f64)> = (0..n_centers)
        .map(|_| {
            (
                40.4 + rng.gen_range(0.0..0.4),
                -74.3 + rng.gen_range(0.0..0.4),
            )
        })
        .collect();
    let mut items: Vec<AnnItem> = Vec::with_capacity(n);
    for i in 0..n {
        let (clat, clon) = centers[rng.gen_range(0..n_centers)];
        let lat = clat + rng.gen_range(-0.004..0.004);
        let lon = clon + rng.gen_range(-0.004..0.004);
        let mut e = vec![(lat - 40.4) as f32 * 50.0, (lon + 74.3) as f32 * 50.0];
        for _ in 2..dim {
            e.push(rng.gen_range(-0.25..0.25f32));
        }
        if i % 8 == 7 {
            e = items[rng.gen_range(0..i)].embedding.clone();
        }
        items.push(AnnItem {
            id: i as u32,
            point: GeoPoint::new(lat, lon),
            ts: rng.gen_range(0..48i64) * 1_800,
            embedding: e,
        });
    }
    items
}

fn cfg(delta_t: Option<i64>) -> AnnConfig {
    AnnConfig {
        cell_deg: 0.01,
        delta_t,
    }
}

fn bounds_of(items: &[AnnItem]) -> (f64, f64, f64, f64) {
    let mut b = (
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for it in items {
        b.0 = b.0.min(it.point.lat);
        b.1 = b.1.min(it.point.lon);
        b.2 = b.2.max(it.point.lat);
        b.3 = b.3.max(it.point.lon);
    }
    b
}

fn fisher_yates<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `(id, d2 bits)` in answer order.
fn bits(hits: &[Neighbor]) -> Vec<(u32, u32)> {
    hits.iter().map(|n| (n.id, n.d2.to_bits())).collect()
}

/// The brute-force reference: every item of `idx` in the query's cell ring
/// and Δt window that is not removed, ranked by `(d2, id)`, first `k`.
fn reference(idx: &AnnIndex, q: &AnnItem, k: usize, radius_m: f64) -> Vec<(u32, u32)> {
    let cfg = idx.config();
    let (min_lat, min_lon, max_lat, max_lon) = idx.bounds();
    let grid = GridIndex::new(min_lat, min_lon, max_lat, max_lon, cfg.cell_deg);
    let (qr, qc) = grid.cell_coords(&q.point);
    // Ring half-widths in cells; longitude cells shrink by the smallest
    // cos(lat) in the box.
    let (ring_r, ring_c) = if radius_m.is_finite() {
        let lat_cell_m = cfg.cell_deg * METERS_PER_DEG;
        let cos_min = min_lat.abs().max(max_lat.abs()).to_radians().cos();
        (
            (radius_m / lat_cell_m).ceil() as usize,
            (radius_m / (lat_cell_m * cos_min)).ceil() as usize,
        )
    } else {
        (usize::MAX, usize::MAX)
    };
    let mut hits: Vec<(f32, u32)> = idx
        .items()
        .iter()
        .filter(|it| !idx.is_removed(it.id))
        .filter(|it| cfg.delta_t.is_none_or(|dt| (it.ts - q.ts).abs() <= dt))
        .filter(|it| {
            let (r, c) = grid.cell_coords(&it.point);
            r.abs_diff(qr) <= ring_r && c.abs_diff(qc) <= ring_c
        })
        .map(|it| (ann::d2(&q.embedding, &it.embedding), it.id))
        .collect();
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    hits.truncate(k);
    hits.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
}

/// Radii the properties query at: inside one cell, a few cells, and no
/// spatial limit.
const RADII: [f64; 4] = [300.0, 1_500.0, 5_000.0, f64::INFINITY];

/// Checks `query` against [`reference`] for a spread of probes and radii.
fn assert_exact(idx: &AnnIndex, probes: &[AnnItem], k: usize) {
    for q in probes {
        for radius in RADII {
            prop_assert_eq!(
                bits(&idx.query(&q.point, q.ts, &q.embedding, k, radius)),
                reference(idx, q, k, radius),
                "probe {} k {} radius {}",
                q.id,
                k,
                radius
            );
        }
    }
}

fn probes(items: &[AnnItem]) -> Vec<AnnItem> {
    let n = items.len();
    [0, n / 3, n / 2, 2 * n / 3, n - 1]
        .iter()
        .map(|&i| items[i].clone())
        .collect()
}

/// No window, or a window of whole quarter hours up to 12 h: every other
/// width lands exactly on the 30-minute timestamp grid, so members sit on
/// both window edges.
fn delta_t() -> impl Strategy<Value = Option<i64>> {
    (any::<bool>(), 0i64..48).prop_map(|(on, m)| on.then_some(m * 900))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_build_query_is_exact(
        seed in any::<u64>(),
        n in 1usize..=256,
        k in 1usize..=24,
        dt in delta_t(),
    ) {
        let items = world(seed, n, 6);
        let idx = AnnIndex::build(items.clone(), cfg(dt));
        assert_exact(&idx, &probes(&items), k);
    }

    /// Unbounded-radius top-1 equals the exhaustive oracle's top-1 (same id,
    /// same `d2` bits), so it is never farther.
    #[test]
    fn beam_top1_never_worse_than_exhaustive(
        seed in any::<u64>(),
        n in 2usize..=256,
        probe in any::<u64>(),
    ) {
        let items = world(seed, n, 6);
        let idx = AnnIndex::build(items.clone(), cfg(None));
        let q = &items[(probe % n as u64) as usize];
        let got = idx.query(&q.point, q.ts, &q.embedding, 1, f64::INFINITY);
        let oracle = idx.exhaustive(q.ts, &q.embedding, 1);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(oracle.len(), 1);
        prop_assert!(
            got[0].d2 <= oracle[0].d2,
            "query d2 {} worse than oracle d2 {}",
            got[0].d2,
            oracle[0].d2
        );
        prop_assert_eq!(bits(&got), bits(&oracle));
    }

    /// The same top-1 agreement under a Δt window, including windows whose
    /// edges fall exactly on member timestamps.
    #[test]
    fn beam_with_delta_t_matches_oracle_top1(
        seed in any::<u64>(),
        n in 8usize..=192,
        dt in 600i64..43_200,
        edge in any::<bool>(),
    ) {
        let items = world(seed, n, 4);
        // Round to the 30-minute timestamp grid half the time so members
        // sit on both window edges.
        let dt = if edge { dt / 1_800 * 1_800 } else { dt };
        let idx = AnnIndex::build(items.clone(), cfg(Some(dt)));
        for q in probes(&items) {
            let got = idx.query(&q.point, q.ts, &q.embedding, 1, f64::INFINITY);
            let oracle = idx.exhaustive(q.ts, &q.embedding, 1);
            prop_assert_eq!(got.len(), oracle.len());
            if let (Some(g), Some(o)) = (got.first(), oracle.first()) {
                prop_assert!(g.d2 <= o.d2);
            }
            prop_assert_eq!(bits(&got), bits(&oracle));
        }
    }

    #[test]
    fn insertion_order_does_not_change_answers(
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        n in 2usize..=128,
    ) {
        let items = world(seed, n, 4);
        let mut shuffled = items.clone();
        fisher_yates(&mut shuffled, shuffle_seed);
        let a = AnnIndex::build(items.clone(), cfg(None));
        let b = AnnIndex::build(shuffled, cfg(None));
        prop_assert_eq!(a.structure_fingerprint(), b.structure_fingerprint());
        for probe in [0, n / 2, n - 1] {
            let q = &items[probe];
            prop_assert_eq!(
                a.query(&q.point, q.ts, &q.embedding, 5, 10_000.0),
                b.query(&q.point, q.ts, &q.embedding, 5, 10_000.0)
            );
        }
    }

    #[test]
    fn incremental_index_matches_batch_build(
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        n in 2usize..=96,
        k in 1usize..=16,
        dt in delta_t(),
    ) {
        let items = world(seed, n, 4);
        let bounds = bounds_of(&items);
        let batch = AnnIndex::build_bounded(items.clone(), cfg(dt), bounds);

        // Ascending ids: every insert appends a slot.
        let mut asc = AnnIndex::new_empty(cfg(dt), bounds);
        for it in &items {
            prop_assert!(asc.insert(it.clone()));
        }
        prop_assert_eq!(batch.structure_fingerprint(), asc.structure_fingerprint());

        // A shuffled order renumbers slots on every out-of-order id; the
        // end state must be the same index either way.
        let mut shuffled = items.clone();
        fisher_yates(&mut shuffled, shuffle_seed);
        let mut ooo = AnnIndex::new_empty(cfg(dt), bounds);
        for it in &shuffled {
            prop_assert!(ooo.insert(it.clone()));
        }
        prop_assert_eq!(batch.structure_fingerprint(), ooo.structure_fingerprint());

        let probes = probes(&items);
        assert_exact(&asc, &probes, k);
        assert_exact(&ooo, &probes, k);
        for q in &probes {
            let want = batch.query(&q.point, q.ts, &q.embedding, k, f64::INFINITY);
            prop_assert_eq!(
                bits(&want),
                bits(&ooo.query(&q.point, q.ts, &q.embedding, k, f64::INFINITY))
            );
        }
        // Re-delivery of any item is rejected without perturbing the index.
        let fp = asc.structure_fingerprint();
        prop_assert!(!asc.insert(items[n / 2].clone()));
        prop_assert_eq!(fp, asc.structure_fingerprint());
    }

    #[test]
    fn tombstoned_items_never_surface(
        seed in any::<u64>(),
        n in 4usize..=96,
        stride in 2usize..=5,
        k in 1usize..=16,
        dt in delta_t(),
        cutoff in 0i64..86_400,
    ) {
        let items = world(seed, n, 4);
        let mut idx = AnnIndex::build(items.clone(), cfg(dt));
        let removed: Vec<u32> = (0..n as u32).step_by(stride).collect();
        for &id in &removed {
            prop_assert!(idx.remove(id));
        }
        prop_assert_eq!(idx.live_len(), n - removed.len());
        let probes = probes(&items);
        assert_exact(&idx, &probes, k);
        let q = &items[1 % n];
        let all = idx.query(&q.point, q.ts, &q.embedding, n, f64::INFINITY);
        for hit in &all {
            prop_assert!(!removed.contains(&hit.id), "tombstoned id {} surfaced", hit.id);
        }
        if dt.is_none() {
            prop_assert_eq!(all.len(), idx.live_len());
        }

        // Eviction drops each bucket's time-sorted prefix.
        let stale = items
            .iter()
            .filter(|it| it.ts < cutoff && !removed.contains(&it.id))
            .count();
        prop_assert_eq!(idx.evict_older_than(cutoff), stale);
        prop_assert_eq!(idx.live_len(), n - removed.len() - stale);
        assert_exact(&idx, &probes, k);

        // Compaction renumbers slots without changing a live answer, and
        // matches a batch build over the survivors.
        let before: Vec<Vec<(u32, u32)>> = probes
            .iter()
            .map(|q| bits(&idx.query(&q.point, q.ts, &q.embedding, k, 1_500.0)))
            .collect();
        idx.compact();
        prop_assert_eq!(idx.len(), idx.live_len());
        assert_exact(&idx, &probes, k);
        for (q, want) in probes.iter().zip(&before) {
            prop_assert_eq!(&bits(&idx.query(&q.point, q.ts, &q.embedding, k, 1_500.0)), want);
        }
        let survivors = AnnIndex::build_bounded(idx.items().to_vec(), cfg(dt), idx.bounds());
        prop_assert_eq!(idx.structure_fingerprint(), survivors.structure_fingerprint());
    }

    #[test]
    fn serialized_rebuilt_index_answers_identically(
        seed in any::<u64>(),
        n in 2usize..=128,
        k in 1usize..=16,
        dt in delta_t(),
    ) {
        let items = world(seed, n, 4);
        let idx = AnnIndex::build(items.clone(), cfg(dt));
        let json = serde_json::to_string(&idx.snapshot()).expect("snapshot serializes");
        let snap = serde_json::from_str(&json).expect("snapshot parses");
        let back = AnnIndex::from_snapshot(snap);
        prop_assert_eq!(idx.structure_fingerprint(), back.structure_fingerprint());
        assert_exact(&back, &probes(&items), k);
        for probe in [0, n / 3, 2 * n / 3] {
            let q = &items[probe];
            prop_assert_eq!(
                bits(&idx.query(&q.point, q.ts, &q.embedding, k, f64::INFINITY)),
                bits(&back.query(&q.point, q.ts, &q.embedding, k, f64::INFINITY))
            );
            prop_assert_eq!(
                idx.exhaustive(q.ts, &q.embedding, k),
                back.exhaustive(q.ts, &q.embedding, k)
            );
        }
    }
}
