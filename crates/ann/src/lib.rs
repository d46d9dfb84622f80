//! Exact candidate retrieval over judge embeddings.
//!
//! The paper's judge scores a *given* pair; production traffic is a query —
//! one fresh tweet in, a ranked set of likely co-located users out. The
//! paper only judges users who tweeted within Δt of each other, and that
//! window, together with the search radius, is what prunes: a query reads
//! only the members of nearby grid cells whose timestamps fall inside it,
//! and scores every one of them exactly.
//!
//! Layout:
//!
//! - **Coarse quantizer**: items land in cells of the same uniform grid
//!   `geo::grid` uses for POIs, keyed by their tweet point. A query visits
//!   only the cell ring that can contain items within `radius_m`
//!   (conservative per-axis ring math, so the spatial prefilter never drops
//!   a true candidate).
//! - **Time-sorted columns**: each cell keeps its live members sorted by
//!   `(ts, slot)` in parallel columns — timestamps, slots, and the
//!   embeddings copied contiguously in that order. Two binary searches over
//!   the timestamp column find the cell's Δt range, and only that range is
//!   read.
//! - **Exact scan**: every member in range is scored and checked against
//!   the result heap's current worst `(d2, slot)` before it is pushed, so
//!   the heap never holds more than `k`. The answer is exactly the top-k of
//!   "cell ring ∩ Δt window ∩ not removed" (the property tests pin this).
//!
//! Determinism: slots number the items in ascending id order and every
//! cell is ordered by the total order on `(ts, slot)`, so the index — and
//! every answer — depends only on the item set and the grid bounds: not on
//! insertion order, on thread count (construction is serial), or on whether
//! the index was built in one batch or grown item by item.

use geo::{GeoPoint, GridIndex, EARTH_RADIUS_M};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Meters spanned by one degree of latitude (and of longitude at the
/// equator): `(π / 180) · R`.
pub const METERS_PER_DEG: f64 = std::f64::consts::PI / 180.0 * EARTH_RADIUS_M;

/// Index construction and search parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Coarse-quantizer cell side in degrees.
    pub cell_deg: f64,
    /// Temporal co-location window in seconds; `None` disables the Δt
    /// prefilter.
    pub delta_t: Option<i64>,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            cell_deg: 0.01,
            delta_t: None,
        }
    }
}

/// One indexed item: a user's fresh tweet plus its `E'` judge embedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnItem {
    /// Caller-side identifier (profile index / user id). Must be unique.
    pub id: u32,
    /// Tweet location, used by the coarse quantizer.
    pub point: GeoPoint,
    /// Tweet timestamp in seconds, used by the Δt prefilter.
    pub ts: i64,
    /// `E'` embedding the distance is computed over. Every item of one
    /// index has the same dimension.
    pub embedding: Vec<f32>,
}

/// A retrieved neighbour: item id plus squared L2 embedding distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Id of the matched item.
    pub id: u32,
    /// Squared L2 distance between query and item embeddings.
    pub d2: f32,
}

/// Squared L2 distance between two embeddings.
///
/// Scalar accumulation in index order: the same answer regardless of
/// `HISRECT_SIMD`, which is what lets CI run the gate on both settings and
/// demand identical fingerprints.
pub fn d2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let mut s = 0.0f32;
    for i in 0..n {
        let d = a[i] - b[i];
        s += d * d;
    }
    s
}

/// One grid cell's live members in `(ts, slot)` order, as parallel
/// columns; row `i` of `embeddings` (`dim` values) belongs to `slots[i]`.
#[derive(Debug, Clone, Default)]
struct Bucket {
    ts: Vec<i64>,
    slots: Vec<u32>,
    embeddings: Vec<f32>,
}

impl Bucket {
    /// Where `(ts, slot)` sits in the sorted order, or would be inserted.
    fn position(&self, ts: i64, slot: u32) -> usize {
        let lo = self.ts.partition_point(|&t| t < ts);
        let hi = lo + self.ts[lo..].partition_point(|&t| t == ts);
        lo + self.slots[lo..hi].partition_point(|&s| s < slot)
    }

    fn insert(&mut self, ts: i64, slot: u32, embedding: &[f32]) {
        let pos = self.position(ts, slot);
        let dim = embedding.len();
        self.ts.insert(pos, ts);
        self.slots.insert(pos, slot);
        self.embeddings
            .splice(pos * dim..pos * dim, embedding.iter().copied());
    }

    fn remove(&mut self, ts: i64, slot: u32, dim: usize) {
        let pos = self.position(ts, slot);
        debug_assert_eq!(self.slots.get(pos), Some(&slot), "slot not in its bucket");
        self.ts.remove(pos);
        self.slots.remove(pos);
        self.embeddings.drain(pos * dim..(pos + 1) * dim);
    }
}

/// Serializable form of the index: data only. The buckets are rebuilt
/// deterministically on load over the same grid bounds, so a
/// serialized/rebuilt index answers queries identically to the original;
/// it is the original after [`AnnIndex::compact`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnSnapshot {
    /// Construction parameters.
    pub cfg: AnnConfig,
    /// Grid bounding box `(min_lat, min_lon, max_lat, max_lon)`.
    pub bounds: (f64, f64, f64, f64),
    /// Live items in canonical (id-ascending) order; tombstoned items are
    /// not carried.
    pub items: Vec<AnnItem>,
}

/// Grid-bucketed index with time-sorted columnar buckets, queried exactly.
#[derive(Debug, Clone)]
pub struct AnnIndex {
    cfg: AnnConfig,
    /// Items sorted by id; buckets store indices ("slots") into this.
    items: Vec<AnnItem>,
    /// The coarse quantizer (cell geometry only; members live in
    /// `buckets`).
    grid: GridIndex,
    /// One bucket per grid cell, row-major.
    buckets: Vec<Bucket>,
    /// Embedding dimension shared by every item.
    dim: usize,
    /// Grid bounding box `(min_lat, min_lon, max_lat, max_lon)`; fixed at
    /// construction so incremental inserts never reshape the quantizer
    /// (out-of-box points clamp into edge cells, as in `GridIndex`).
    bounds: (f64, f64, f64, f64),
    /// Soft-deleted slots: already gone from the buckets, dropped from
    /// `items` by [`AnnIndex::compact`]. Parallel to `items`.
    tombstones: Vec<bool>,
    /// Count of non-tombstoned items.
    live: usize,
}

impl AnnIndex {
    /// Builds the index. Items are sorted into canonical id order first, so
    /// insertion order never changes query answers. Panics on duplicate ids
    /// or mixed embedding dimensions.
    pub fn build(items: Vec<AnnItem>, cfg: AnnConfig) -> Self {
        let bounds = bbox(&items);
        Self::build_bounded(items, cfg, bounds)
    }

    /// Builds the index over an explicit grid bounding box
    /// `(min_lat, min_lon, max_lat, max_lon)` instead of the items' own
    /// bbox. This is the streaming constructor: an incremental index and a
    /// batch index only agree bit-for-bit when both quantize over the same
    /// box, and a stream's eventual extent is known up front (the city)
    /// while its first items are not.
    pub fn build_bounded(
        mut items: Vec<AnnItem>,
        cfg: AnnConfig,
        bounds: (f64, f64, f64, f64),
    ) -> Self {
        items.sort_by_key(|it| it.id);
        for w in items.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate item id {}", w[0].id);
        }
        let dim = items.first().map_or(0, |it| it.embedding.len());
        assert!(
            items.iter().all(|it| it.embedding.len() == dim),
            "mixed embedding dimensions"
        );

        let (min_lat, min_lon, max_lat, max_lon) = bounds;
        let grid = GridIndex::new(min_lat, min_lon, max_lat, max_lon, cfg.cell_deg);
        let mut idx = Self {
            cfg,
            buckets: vec![Bucket::default(); grid.len_cells()],
            grid,
            dim,
            bounds,
            tombstones: vec![false; items.len()],
            live: items.len(),
            items: Vec::new(),
        };
        // One sort by (cell, ts, slot), then every bucket is appended to in
        // its final order.
        let mut order: Vec<(usize, i64, u32)> = items
            .iter()
            .enumerate()
            .map(|(slot, it)| (idx.cell_of(&it.point), it.ts, slot as u32))
            .collect();
        order.sort_unstable();
        for (cell, ts, slot) in order {
            let b = &mut idx.buckets[cell];
            b.ts.push(ts);
            b.slots.push(slot);
            b.embeddings
                .extend_from_slice(&items[slot as usize].embedding);
        }
        idx.items = items;
        idx
    }

    /// An empty index over `bounds`, ready for incremental
    /// [`AnnIndex::insert`] calls.
    pub fn new_empty(cfg: AnnConfig, bounds: (f64, f64, f64, f64)) -> Self {
        Self::build_bounded(Vec::new(), cfg, bounds)
    }

    /// The grid bounding box this index quantizes over.
    pub fn bounds(&self) -> (f64, f64, f64, f64) {
        self.bounds
    }

    /// Inserts one item incrementally: a sorted insert into its one
    /// bucket. Returns `false` (and changes nothing) when the id is already
    /// indexed — duplicate deliveries from an at-least-once stream are
    /// absorbed here, not just upstream. Panics when the embedding's
    /// dimension differs from the indexed items'.
    ///
    /// An ascending id — the streaming case, where ids are monotone
    /// sequence numbers — takes the next slot. An out-of-order id takes
    /// its id-ordered slot and renumbers every later one; the renumbering
    /// is monotone, so no bucket's `(ts, slot)` order changes. Either way
    /// the index is bit-identical to [`AnnIndex::build_bounded`] over the
    /// same items and bounds (the property tests pin this).
    pub fn insert(&mut self, item: AnnItem) -> bool {
        let slot = match self.items.binary_search_by_key(&item.id, |it| it.id) {
            Ok(_) => return false,
            Err(p) => p,
        };
        if self.items.is_empty() {
            self.dim = item.embedding.len();
        }
        assert_eq!(item.embedding.len(), self.dim, "mixed embedding dimensions");
        if slot < self.items.len() {
            for s in self.buckets.iter_mut().flat_map(|b| b.slots.iter_mut()) {
                if *s as usize >= slot {
                    *s += 1;
                }
            }
        }
        let cell = self.cell_of(&item.point);
        self.buckets[cell].insert(item.ts, slot as u32, &item.embedding);
        self.items.insert(slot, item);
        self.tombstones.insert(slot, false);
        self.live += 1;
        true
    }

    /// Tombstones `id`: it leaves its bucket at once, so no query sees it,
    /// and leaves `items` at [`AnnIndex::compact`]. Returns `false` when
    /// the id is not indexed or already tombstoned.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.items.binary_search_by_key(&id, |it| it.id) {
            Ok(slot) if !self.tombstones[slot] => {
                self.tombstones[slot] = true;
                self.live -= 1;
                let it = &self.items[slot];
                let cell = self.cell_of(&it.point);
                self.buckets[cell].remove(it.ts, slot as u32, self.dim);
                true
            }
            _ => false,
        }
    }

    /// Tombstones every live item with `ts < cutoff_ts` — the ring-buffer
    /// eviction step of a sliding retention window. Each bucket drops a
    /// time-sorted prefix. Returns the number of items evicted.
    pub fn evict_older_than(&mut self, cutoff_ts: i64) -> usize {
        let mut evicted = 0;
        for b in &mut self.buckets {
            let n = b.ts.partition_point(|&t| t < cutoff_ts);
            for slot in b.slots.drain(..n) {
                self.tombstones[slot as usize] = true;
            }
            b.ts.drain(..n);
            b.embeddings.drain(..n * self.dim);
            evicted += n;
        }
        self.live -= evicted;
        evicted
    }

    /// Rebuilds the index over only the live items, dropping tombstones
    /// (same bounds, deterministic).
    pub fn compact(&mut self) {
        *self = Self::from_snapshot(self.snapshot());
    }

    /// Number of live (non-tombstoned) items.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// True when `id` is indexed but tombstoned.
    pub fn is_removed(&self, id: u32) -> bool {
        match self.items.binary_search_by_key(&id, |it| it.id) {
            Ok(slot) => self.tombstones[slot],
            Err(_) => false,
        }
    }

    /// Rebuilds an index from a snapshot over the snapshot's bounds;
    /// answers are bit-identical to the index the snapshot was taken
    /// from, and the structure is that index's after
    /// [`AnnIndex::compact`].
    pub fn from_snapshot(snap: AnnSnapshot) -> Self {
        Self::build_bounded(snap.items, snap.cfg, snap.bounds)
    }

    /// The data needed to reconstruct this index: configuration, bounds
    /// and the live items.
    pub fn snapshot(&self) -> AnnSnapshot {
        let items = self
            .items
            .iter()
            .zip(&self.tombstones)
            .filter(|&(_, &dead)| !dead)
            .map(|(it, _)| it.clone())
            .collect();
        AnnSnapshot {
            cfg: self.cfg.clone(),
            bounds: self.bounds,
            items,
        }
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Construction parameters.
    pub fn config(&self) -> &AnnConfig {
        &self.cfg
    }

    /// Items in canonical (id-ascending) order.
    pub fn items(&self) -> &[AnnItem] {
        &self.items
    }

    /// The item with the given id, if indexed.
    pub fn get(&self, id: u32) -> Option<&AnnItem> {
        let slot = self.items.binary_search_by_key(&id, |it| it.id).ok()?;
        Some(&self.items[slot])
    }

    /// The stored embedding for `id`, if indexed.
    pub fn embedding_of(&self, id: u32) -> Option<&[f32]> {
        self.get(id).map(|it| it.embedding.as_slice())
    }

    /// Top-`k` items by embedding distance among those within `radius_m` of
    /// `point` (coarse cell ring) and inside the Δt window around `ts`,
    /// ordered by `(d2, id)`. Exact: every member of the ring's buckets
    /// inside the window is scored.
    ///
    /// The query item itself is *not* excluded — callers that index the
    /// querying user filter their own id from the result.
    pub fn query(
        &self,
        point: &GeoPoint,
        ts: i64,
        embedding: &[f32],
        k: usize,
        radius_m: f64,
    ) -> Vec<Neighbor> {
        if k == 0 || self.live == 0 {
            return Vec::new();
        }
        let (t_lo, t_hi) = match self.cfg.delta_t {
            Some(dt) => (ts.saturating_sub(dt), ts.saturating_add(dt)),
            None => (i64::MIN, i64::MAX),
        };
        let (r0, r1, c0, c1) = self.cell_ring(point, radius_m);
        let (cols, dim) = (self.grid.cols(), self.dim);
        // Worst-first heap of `(d2, slot)`, capped at `k`. Slots are in id
        // order, so its order is the final `(d2, id)` order.
        let mut best: BinaryHeap<(OrdF32, u32)> = BinaryHeap::with_capacity(k.min(self.live));
        for r in r0..=r1 {
            for b in &self.buckets[r * cols + c0..=r * cols + c1] {
                let lo = b.ts.partition_point(|&t| t < t_lo);
                let hi = b.ts.partition_point(|&t| t <= t_hi);
                for i in lo..hi {
                    let hit = (
                        OrdF32(d2(embedding, &b.embeddings[i * dim..(i + 1) * dim])),
                        b.slots[i],
                    );
                    if best.len() < k {
                        best.push(hit);
                    } else if let Some(mut worst) = best.peek_mut() {
                        if hit < *worst {
                            *worst = hit;
                        }
                    }
                }
            }
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|(OrdF32(d2), slot)| Neighbor {
                id: self.items[slot as usize].id,
                d2,
            })
            .collect()
    }

    /// Exhaustive oracle: scans every indexed item (no spatial limit),
    /// applying only the Δt prefilter. Recall and the property tests are
    /// measured against this.
    pub fn exhaustive(&self, ts: i64, embedding: &[f32], k: usize) -> Vec<Neighbor> {
        let mut hits: Vec<(f32, u32)> = self
            .items
            .iter()
            .enumerate()
            .filter(|&(slot, it)| !self.tombstones[slot] && self.in_window(it.ts, ts))
            .map(|(_, it)| (d2(embedding, &it.embedding), it.id))
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        hits.truncate(k);
        hits.into_iter()
            .map(|(d2, id)| Neighbor { id, d2 })
            .collect()
    }

    /// FNV-1a fingerprint over every bucket's `(ts, slot)` order; equal
    /// fingerprints mean bit-identical indexes. Used by the recall gate to
    /// prove the build is independent of `HISRECT_THREADS`.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        eat(self.items.len() as u64);
        for (cell, b) in self.buckets.iter().enumerate() {
            if !b.slots.is_empty() {
                eat(cell as u64);
                for (&ts, &slot) in b.ts.iter().zip(&b.slots) {
                    eat(ts as u64);
                    eat(slot as u64);
                }
            }
        }
        h
    }

    fn in_window(&self, item_ts: i64, query_ts: i64) -> bool {
        match self.cfg.delta_t {
            Some(dt) => (item_ts - query_ts).abs() <= dt,
            None => true,
        }
    }

    /// Row-major bucket index of the cell holding `p`.
    fn cell_of(&self, p: &GeoPoint) -> usize {
        let (r, c) = self.grid.cell_coords(p);
        r * self.grid.cols() + c
    }

    /// Clamped cell-coordinate ranges covering every cell that can contain
    /// a point within `radius_m` of `p`. Per-axis: cells `d` apart hold
    /// points at least `(d − 1) · cell_meters` apart along that axis, so a
    /// ring of `ceil(radius / cell_meters)` cells is conservative.
    fn cell_ring(&self, p: &GeoPoint, radius_m: f64) -> (usize, usize, usize, usize) {
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        if !radius_m.is_finite() {
            return (0, rows - 1, 0, cols - 1);
        }
        let lat_cell_m = self.cfg.cell_deg * METERS_PER_DEG;
        let ring_r = (radius_m / lat_cell_m).ceil() as usize;
        // Longitude degrees shrink by cos(lat); bound with the smallest
        // cos over the index's latitude span.
        let cos_min = self
            .bounds
            .0
            .abs()
            .max(self.bounds.2.abs())
            .to_radians()
            .cos();
        let ring_c = if cos_min <= 1e-6 {
            cols // polar box: cover everything
        } else {
            (radius_m / (lat_cell_m * cos_min)).ceil() as usize
        };
        let (r, c) = self.grid.cell_coords(p);
        (
            r.saturating_sub(ring_r),
            (r + ring_r).min(rows - 1),
            c.saturating_sub(ring_c),
            (c + ring_c).min(cols - 1),
        )
    }
}

/// Bounding box of all finite item points; degenerate boxes are fine (the
/// grid clamps edge points into its single cell).
fn bbox(items: &[AnnItem]) -> (f64, f64, f64, f64) {
    let mut b = (
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for it in items {
        if it.point.lat.is_finite() && it.point.lon.is_finite() {
            b.0 = b.0.min(it.point.lat);
            b.1 = b.1.min(it.point.lon);
            b.2 = b.2.max(it.point.lat);
            b.3 = b.3.max(it.point.lon);
        }
    }
    if !b.0.is_finite() || !b.2.is_finite() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        b
    }
}

/// Total-ordered f32 wrapper for the result heap.
#[derive(PartialEq)]
struct OrdF32(f32);
impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Conservative pairwise spatial prefilter for affinity-graph construction.
///
/// Precomputes each point's cell coordinates once; `may_be_within(i, j, r)`
/// returns `false` only when the *lower bound* on the pair's
/// equirectangular distance already exceeds `r` — exactly the pairs
/// `affinity()` would discard at its distance gate — so pruning with it is
/// bit-identical to the exhaustive scan.
pub struct SpatialPrefilter {
    coords: Vec<(u32, u32)>,
    finite: Vec<bool>,
    lat_cell_m: f64,
    lon_cell_m: f64,
}

impl SpatialPrefilter {
    /// Indexes `points` on a grid with `cell_deg`-degree cells.
    pub fn new(points: &[GeoPoint], cell_deg: f64) -> Self {
        let mut b = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        let mut finite = Vec::with_capacity(points.len());
        for p in points {
            let ok = p.lat.is_finite() && p.lon.is_finite();
            finite.push(ok);
            if ok {
                b.0 = b.0.min(p.lat);
                b.1 = b.1.min(p.lon);
                b.2 = b.2.max(p.lat);
                b.3 = b.3.max(p.lon);
            }
        }
        if !b.0.is_finite() || !b.2.is_finite() {
            b = (0.0, 0.0, 0.0, 0.0);
        }
        let grid = GridIndex::new(b.0, b.1, b.2, b.3, cell_deg);
        let coords = points
            .iter()
            .map(|p| {
                let (r, c) = grid.cell_coords(p);
                (r as u32, c as u32)
            })
            .collect();
        let lat_cell_m = cell_deg * METERS_PER_DEG;
        // Smallest meters a longitude cell can span anywhere in the box;
        // cos ≤ 0 (polar box) disables longitude-based pruning.
        let cos_min = b.0.abs().max(b.2.abs()).to_radians().cos();
        let lon_cell_m = if cos_min > 0.0 {
            lat_cell_m * cos_min
        } else {
            0.0
        };
        Self {
            coords,
            finite,
            lat_cell_m,
            lon_cell_m,
        }
    }

    /// Lower bound in meters on the equirectangular distance between points
    /// `i` and `j`; zero when the cells are adjacent or either point is
    /// non-finite (never prune what we cannot bound).
    pub fn min_dist_m(&self, i: usize, j: usize) -> f64 {
        if !self.finite[i] || !self.finite[j] {
            return 0.0;
        }
        let (ri, ci) = self.coords[i];
        let (rj, cj) = self.coords[j];
        let dr = (ri as f64 - rj as f64).abs() - 1.0;
        let dc = (ci as f64 - cj as f64).abs() - 1.0;
        let lb_lat = dr.max(0.0) * self.lat_cell_m;
        let lb_lon = dc.max(0.0) * self.lon_cell_m;
        lb_lat.max(lb_lon)
    }

    /// True unless the pair provably lies at or beyond `radius_m`.
    pub fn may_be_within(&self, i: usize, j: usize, radius_m: f64) -> bool {
        self.min_dist_m(i, j) < radius_m
    }

    /// Enumerates every unordered pair `(i, j)`, `i < j`, that
    /// [`SpatialPrefilter::may_be_within`] would keep at `radius_m` —
    /// *generating* the candidate set from grid-cell neighborhoods in
    /// `O(n · k)` (k = neighborhood occupancy) instead of testing all
    /// `O(n²)` pairs. Each emitted pair still passes the exact
    /// `may_be_within` bound, so the result is precisely the set the
    /// quadratic scan would keep, in unspecified order.
    ///
    /// Non-finite points cannot be bounded, so they pair with
    /// everything, exactly as `min_dist_m` treats them.
    pub fn candidate_pairs(&self, radius_m: f64) -> Vec<(usize, usize)> {
        use std::collections::HashMap;
        // NaN or non-positive radius: `min_dist < radius` can hold for
        // no pair, so there is nothing to emit.
        if radius_m.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Vec::new();
        }
        let mut cells: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        let mut nonfinite: Vec<usize> = Vec::new();
        for (i, &(r, c)) in self.coords.iter().enumerate() {
            if self.finite[i] {
                cells.entry((r, c)).or_default().push(i);
            } else {
                nonfinite.push(i);
            }
        }
        // Safe cell-span bounds: a kept pair has `(d-1)·cell < radius`,
        // so `d ≤ floor(radius/cell) + 1`. A zero lon cell (polar box)
        // disables longitude pruning — every column is a neighbor.
        let span = |cell_m: f64| -> Option<u32> {
            (cell_m > 0.0).then(|| (radius_m / cell_m).floor() as u32 + 1)
        };
        let dr_max = span(self.lat_cell_m).unwrap_or(u32::MAX);
        let dc_max = span(self.lon_cell_m).unwrap_or(u32::MAX);
        // Deterministic traversal: sorted cell list, neighborhoods
        // visited in lexicographic order ≥ the anchor cell.
        let mut keys: Vec<(u32, u32)> = cells.keys().copied().collect();
        keys.sort_unstable();
        let mut out = Vec::new();
        for &(r, c) in &keys {
            let anchor = &cells[&(r, c)];
            // Within-cell pairs (always within the bound).
            for a in 0..anchor.len() {
                for b in (a + 1)..anchor.len() {
                    let (i, j) = (anchor[a], anchor[b]);
                    out.push((i.min(j), i.max(j)));
                }
            }
            // Cross pairs with lexicographically greater cells in range.
            for nr in r..=r.saturating_add(dr_max) {
                let (c_lo, c_hi) = if nr == r {
                    (c + 1, c.saturating_add(dc_max))
                } else {
                    (c.saturating_sub(dc_max), c.saturating_add(dc_max))
                };
                // Polar boxes have unbounded columns: walk the sorted key
                // list for the row instead of a huge numeric range.
                if dc_max == u32::MAX {
                    for &(kr, kc) in &keys {
                        if kr == nr && (nr != r || kc > c) {
                            cross_pairs(self, radius_m, anchor, &cells[&(kr, kc)], &mut out);
                        }
                    }
                    continue;
                }
                for nc in c_lo..=c_hi {
                    if let Some(other) = cells.get(&(nr, nc)) {
                        cross_pairs(self, radius_m, anchor, other, &mut out);
                    }
                }
            }
        }
        // Non-finite points pair with everything (min_dist is zero).
        for (k, &i) in nonfinite.iter().enumerate() {
            for j in 0..self.coords.len() {
                if j != i && (self.finite[j] || nonfinite[..k].binary_search(&j).is_err()) {
                    out.push((i.min(j), i.max(j)));
                }
            }
        }
        out
    }
}

/// Pushes every pair across two distinct cells that survives the exact
/// lower-bound test at `radius_m`.
fn cross_pairs(
    pf: &SpatialPrefilter,
    radius_m: f64,
    a: &[usize],
    b: &[usize],
    out: &mut Vec<(usize, usize)>,
) {
    for &i in a {
        for &j in b {
            if pf.may_be_within(i, j, radius_m) {
                out.push((i.min(j), i.max(j)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid_world(n: usize, dim: usize) -> Vec<AnnItem> {
        // n items on a jittered lattice around NYC with embeddings that
        // track position, plus noise dims.
        let mut rng = StdRng::seed_from_u64(7);
        (0..n)
            .map(|i| {
                let lat = 40.5 + rng.gen_range(0.0..0.2);
                let lon = -74.2 + rng.gen_range(0.0..0.2);
                let mut e = vec![lat as f32 * 100.0, lon as f32 * 100.0];
                for _ in 2..dim {
                    e.push(rng.gen_range(-0.1..0.1f32));
                }
                AnnItem {
                    id: i as u32,
                    point: GeoPoint::new(lat, lon),
                    ts: (i as i64) * 60,
                    embedding: e,
                }
            })
            .collect()
    }

    fn small_cfg() -> AnnConfig {
        AnnConfig {
            cell_deg: 0.05,
            delta_t: None,
        }
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = AnnIndex::build(Vec::new(), AnnConfig::default());
        assert!(idx.is_empty());
        assert!(idx
            .query(&GeoPoint::new(40.7, -74.0), 0, &[0.0; 4], 5, 1e9)
            .is_empty());
        assert!(idx.exhaustive(0, &[0.0; 4], 5).is_empty());
    }

    #[test]
    fn k_zero_is_empty() {
        let idx = AnnIndex::build(grid_world(32, 4), small_cfg());
        assert!(idx
            .query(&GeoPoint::new(40.6, -74.1), 0, &[0.0; 4], 0, 1e9)
            .is_empty());
    }

    #[test]
    fn exact_small_world_matches_oracle() {
        let items = grid_world(64, 4);
        let idx = AnnIndex::build(items.clone(), small_cfg());
        for probe in [0usize, 17, 40, 63] {
            let q = &items[probe];
            let got = idx.query(&q.point, q.ts, &q.embedding, 10, f64::INFINITY);
            let want = idx.exhaustive(q.ts, &q.embedding, 10);
            // Infinite radius, no Δt: the ring is every bucket.
            assert_eq!(got, want, "probe {probe}");
        }
    }

    #[test]
    fn delta_t_window_filters() {
        let mut cfg = small_cfg();
        cfg.delta_t = Some(120); // items are 60 s apart
        let items = grid_world(64, 4);
        let idx = AnnIndex::build(items.clone(), cfg);
        let q = &items[30];
        let got = idx.query(&q.point, q.ts, &q.embedding, 64, f64::INFINITY);
        for n in &got {
            let it = idx.get(n.id).unwrap();
            assert!((it.ts - q.ts).abs() <= 120, "id {} ts {}", n.id, it.ts);
        }
        assert!(!got.is_empty());
    }

    #[test]
    fn single_cell_scan_sees_every_member() {
        // One bucket holding everything: k = n returns all of it, in
        // (d2, id) order.
        let mut cfg = small_cfg();
        cfg.cell_deg = 10.0; // single cell
        let items = grid_world(96, 4);
        let idx = AnnIndex::build(items.clone(), cfg);
        let q = &items[0];
        let got = idx.query(&q.point, q.ts, &q.embedding, 96, f64::INFINITY);
        assert_eq!(got, idx.exhaustive(q.ts, &q.embedding, 96));
        assert_eq!(got.len(), 96);
    }

    #[test]
    fn thread_count_does_not_change_structure() {
        let items = grid_world(256, 4);
        let cfg = small_cfg();
        parallel::set_threads(1);
        let a = AnnIndex::build(items.clone(), cfg.clone());
        parallel::set_threads(4);
        let b = AnnIndex::build(items, cfg);
        parallel::set_threads(0);
        assert_eq!(a.structure_fingerprint(), b.structure_fingerprint());
    }

    #[test]
    fn snapshot_roundtrip_is_identical() {
        let items = grid_world(128, 4);
        let idx = AnnIndex::build(items.clone(), small_cfg());
        let json = serde_json::to_string(&idx.snapshot()).unwrap();
        let back = AnnIndex::from_snapshot(serde_json::from_str(&json).unwrap());
        assert_eq!(idx.structure_fingerprint(), back.structure_fingerprint());
        let q = &items[5];
        assert_eq!(
            idx.query(&q.point, q.ts, &q.embedding, 10, 5_000.0),
            back.query(&q.point, q.ts, &q.embedding, 10, 5_000.0)
        );
    }

    #[test]
    fn radius_limits_candidates() {
        let items = grid_world(128, 4);
        let idx = AnnIndex::build(items.clone(), small_cfg());
        let q = &items[10];
        let near = idx.query(&q.point, q.ts, &q.embedding, 128, 500.0);
        let all = idx.query(&q.point, q.ts, &q.embedding, 128, f64::INFINITY);
        assert!(near.len() <= all.len());
        // Everything within the radius must still be found: compare against
        // a filtered oracle.
        let mut want: Vec<u32> = items
            .iter()
            .filter(|it| it.point.fast_dist_m(&q.point) <= 500.0)
            .map(|it| it.id)
            .collect();
        want.sort_unstable();
        let mut got: Vec<u32> = near.iter().map(|n| n.id).collect();
        got.sort_unstable();
        for id in want {
            assert!(got.contains(&id), "missing in-radius id {id}");
        }
    }

    #[test]
    fn prefilter_never_prunes_close_pairs() {
        let items = grid_world(200, 2);
        let points: Vec<GeoPoint> = items.iter().map(|it| it.point).collect();
        let pf = SpatialPrefilter::new(&points, 0.01);
        for i in (0..points.len()).step_by(7) {
            for j in (0..points.len()).step_by(11) {
                let d = points[i].fast_dist_m(&points[j]);
                let lb = pf.min_dist_m(i, j);
                assert!(
                    lb <= d + 1e-6,
                    "lower bound {lb} exceeds true distance {d} for ({i},{j})"
                );
                if d < 1_000.0 {
                    assert!(pf.may_be_within(i, j, 1_000.0));
                }
            }
        }
    }

    #[test]
    fn candidate_pairs_match_quadratic_scan() {
        let items = grid_world(200, 2);
        let mut points: Vec<GeoPoint> = items.iter().map(|it| it.point).collect();
        // Non-finite points must pair with everything.
        points.push(GeoPoint::new(f64::NAN, -74.0));
        for radius in [150.0, 1_000.0, 8_000.0] {
            let pf = SpatialPrefilter::new(&points, radius / METERS_PER_DEG);
            let mut want: Vec<(usize, usize)> = Vec::new();
            for i in 0..points.len() {
                for j in (i + 1)..points.len() {
                    if pf.may_be_within(i, j, radius) {
                        want.push((i, j));
                    }
                }
            }
            let mut got = pf.candidate_pairs(radius);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "radius {radius}");
        }
        let pf = SpatialPrefilter::new(&points, 0.01);
        assert!(pf.candidate_pairs(0.0).is_empty());
    }

    #[test]
    fn prefilter_prunes_far_pairs() {
        let points = vec![GeoPoint::new(40.0, -74.0), GeoPoint::new(40.5, -74.0)];
        let pf = SpatialPrefilter::new(&points, 0.01);
        // ~55 km apart: must be prunable at a 1 km radius.
        assert!(!pf.may_be_within(0, 1, 1_000.0));
        assert!(pf.min_dist_m(0, 1) > 40_000.0);
    }

    #[test]
    fn insertion_order_is_canonicalized() {
        let mut items = grid_world(64, 4);
        let idx_a = AnnIndex::build(items.clone(), small_cfg());
        items.reverse();
        let idx_b = AnnIndex::build(items.clone(), small_cfg());
        assert_eq!(idx_a.structure_fingerprint(), idx_b.structure_fingerprint());
        let q = &idx_a.items()[20].clone();
        assert_eq!(
            idx_a.query(&q.point, q.ts, &q.embedding, 8, f64::INFINITY),
            idx_b.query(&q.point, q.ts, &q.embedding, 8, f64::INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate item id")]
    fn duplicate_ids_panic() {
        let mut items = grid_world(4, 2);
        items[1].id = items[0].id;
        AnnIndex::build(items, small_cfg());
    }

    #[test]
    fn incremental_ascending_matches_bounded_batch() {
        let items = grid_world(128, 4);
        let bounds = bbox(&items);
        let batch = AnnIndex::build_bounded(items.clone(), small_cfg(), bounds);
        let mut inc = AnnIndex::new_empty(small_cfg(), bounds);
        for it in &items {
            assert!(inc.insert(it.clone()));
        }
        assert!(!inc.insert(items[7].clone()), "duplicates are rejected");
        assert_eq!(inc.len(), items.len());
        assert_eq!(batch.structure_fingerprint(), inc.structure_fingerprint());
        for probe in [0usize, 31, 64, 127] {
            let q = &items[probe];
            assert_eq!(
                batch.query(&q.point, q.ts, &q.embedding, 10, f64::INFINITY),
                inc.query(&q.point, q.ts, &q.embedding, 10, f64::INFINITY),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn out_of_order_insert_rebuilds_identically() {
        let items = grid_world(48, 4);
        let bounds = bbox(&items);
        let batch = AnnIndex::build_bounded(items.clone(), small_cfg(), bounds);
        let mut inc = AnnIndex::new_empty(small_cfg(), bounds);
        // Descending ids: every insert takes the rebuild path.
        for it in items.iter().rev() {
            assert!(inc.insert(it.clone()));
        }
        assert_eq!(batch.structure_fingerprint(), inc.structure_fingerprint());
    }

    #[test]
    fn incremental_single_cell_sees_every_member() {
        // One bucket grown item by item, ids descending so every insert
        // renumbers the slots already there.
        let mut cfg = small_cfg();
        cfg.cell_deg = 10.0; // single cell
        let items = grid_world(96, 4);
        let mut inc = AnnIndex::new_empty(cfg, bbox(&items));
        for it in items.iter().rev() {
            inc.insert(it.clone());
        }
        let q = &items[0];
        let got = inc.query(&q.point, q.ts, &q.embedding, 96, f64::INFINITY);
        assert_eq!(got, inc.exhaustive(q.ts, &q.embedding, 96));
        assert_eq!(got.len(), 96);
    }

    #[test]
    fn equal_timestamps_order_by_slot() {
        let mut b = Bucket::default();
        for (ts, slot) in [(5, 3), (5, 1), (2, 9), (5, 2), (7, 0)] {
            b.insert(ts, slot, &[slot as f32]);
        }
        assert_eq!(b.ts, vec![2, 5, 5, 5, 7]);
        assert_eq!(b.slots, vec![9, 1, 2, 3, 0]);
        assert_eq!(b.embeddings, vec![9.0, 1.0, 2.0, 3.0, 0.0]);
        b.remove(5, 2, 1);
        assert_eq!(b.slots, vec![9, 1, 3, 0]);
        assert_eq!(b.embeddings, vec![9.0, 1.0, 3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mixed embedding dimensions")]
    fn mixed_dimensions_panic() {
        let mut idx = AnnIndex::build(grid_world(4, 4), small_cfg());
        let mut it = grid_world(5, 3).pop().unwrap();
        it.id = 99;
        idx.insert(it);
    }

    #[test]
    fn removed_items_vanish_until_compact() {
        let items = grid_world(64, 4);
        let mut idx = AnnIndex::build(items.clone(), small_cfg());
        assert!(idx.remove(10));
        assert!(!idx.remove(10), "double remove is a no-op");
        assert!(idx.remove(20));
        assert!(idx.is_removed(10));
        assert_eq!(idx.live_len(), 62);
        let q = &items[10];
        let got = idx.query(&q.point, q.ts, &q.embedding, 64, f64::INFINITY);
        assert!(got.iter().all(|n| n.id != 10 && n.id != 20));
        assert!(idx
            .exhaustive(q.ts, &q.embedding, 64)
            .iter()
            .all(|n| n.id != 10));
        // Compacting drops the tombstones without changing live answers.
        let before = idx.exhaustive(q.ts, &q.embedding, 64);
        idx.compact();
        assert_eq!(idx.len(), 62);
        assert_eq!(idx.live_len(), 62);
        assert_eq!(before, idx.exhaustive(q.ts, &q.embedding, 64));
    }

    /// A bounded index with a tombstone survives a snapshot round trip:
    /// same grid bounds, the removed id stays gone, and the rebuilt
    /// structure is the compacted original's.
    #[test]
    fn snapshot_round_trip_keeps_bounds_and_drops_tombstones() {
        let bounds = (39.9, -74.1, 40.1, -73.9);
        let items: Vec<AnnItem> = (0..6u32)
            .map(|i| AnnItem {
                id: i,
                point: GeoPoint::new(40.0 + 0.003 * f64::from(i), -74.0),
                ts: i64::from(i) * 60,
                embedding: vec![i as f32, 1.0, -(i as f32) * 0.5],
            })
            .collect();
        let mut idx = AnnIndex::build_bounded(items.clone(), small_cfg(), bounds);
        assert!(idx.remove(2));
        let json = serde_json::to_string(&idx.snapshot()).expect("snapshot serializes");
        let back = AnnIndex::from_snapshot(serde_json::from_str(&json).expect("snapshot parses"));
        assert_eq!(back.bounds(), bounds);
        assert_eq!(back.live_len(), 5);
        assert_eq!(back.len(), 5);
        assert!(back.get(2).is_none(), "the tombstoned id is not carried");
        let mut compacted = idx.clone();
        compacted.compact();
        let survivors = AnnIndex::build_bounded(
            items.into_iter().filter(|it| it.id != 2).collect(),
            small_cfg(),
            bounds,
        );
        assert_eq!(
            back.structure_fingerprint(),
            compacted.structure_fingerprint()
        );
        assert_eq!(
            back.structure_fingerprint(),
            survivors.structure_fingerprint()
        );
        for q in [0usize, 2, 5].map(|i| idx.items[i].clone()) {
            let got = back.query(&q.point, q.ts, &q.embedding, 6, f64::INFINITY);
            assert!(got.iter().all(|n| n.id != 2));
            assert_eq!(
                got,
                idx.query(&q.point, q.ts, &q.embedding, 6, f64::INFINITY)
            );
        }
    }

    #[test]
    fn evict_older_than_windows_out_stale_items() {
        let items = grid_world(64, 4); // ts = i * 60
        let mut idx = AnnIndex::build(items.clone(), small_cfg());
        let evicted = idx.evict_older_than(32 * 60);
        assert_eq!(evicted, 32);
        assert_eq!(idx.live_len(), 32);
        assert_eq!(idx.evict_older_than(32 * 60), 0, "eviction is idempotent");
        let q = &items[40];
        let got = idx.query(&q.point, q.ts, &q.embedding, 64, f64::INFINITY);
        assert!(!got.is_empty());
        for n in &got {
            assert!(idx.get(n.id).unwrap().ts >= 32 * 60);
        }
    }
}
