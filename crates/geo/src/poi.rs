//! The POI universe `P` (Def. 1) with indexed spatial queries.

use crate::grid::GridIndex;
use crate::point::GeoPoint;
use crate::polygon::Polygon;
use serde::{Deserialize, Serialize};

/// Identifier of a POI — the index into its [`PoiSet`].
pub type PoiId = u32;

/// A point of interest: identifier, bounding polygon, central point (Def. 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Poi {
    /// The POI's dense identifier (index into its set).
    pub id: PoiId,
    /// Human-readable name.
    pub name: String,
    /// Bounding polygon `bp`.
    pub polygon: Polygon,
}

impl Poi {
    /// The polygon's central point.
    pub fn center(&self) -> GeoPoint {
        self.polygon.centroid()
    }
}

/// The set of POIs `P` with a uniform-grid index over polygon bboxes.
///
/// Supports the three spatial queries the paper needs:
/// - [`PoiSet::containing`] — which POI (if any) a geo-tagged tweet falls in
///   (the "POI tweet" test).
/// - [`PoiSet::min_distance_m`] — `d(r, P)`, the lower-bound distance
///   between a profile and all POIs (Section 3.1), used by the affinity
///   graph's `d(r, P) < ρ` condition.
/// - [`PoiSet::center_distances_m`] — `d(v, p_i)` for every POI, the vector
///   underlying `w(v)` in Eq. 1.
#[derive(Debug, Clone)]
pub struct PoiSet {
    pois: Vec<Poi>,
    /// `pois[i].center()`, contiguous: Eq. 1 walks every center once per
    /// visit, and a `Poi` drags its name and vertex ring along.
    centers: Vec<GeoPoint>,
    grid: GridIndex,
}

impl PoiSet {
    /// Builds the set and its index. POI ids are reassigned to be the dense
    /// indices `0..n`, matching the one-hot/classifier layouts downstream.
    pub fn new(mut pois: Vec<Poi>) -> Self {
        assert!(!pois.is_empty(), "PoiSet requires at least one POI");
        for (i, poi) in pois.iter_mut().enumerate() {
            poi.id = i as PoiId;
        }
        let mut min_lat = f64::MAX;
        let mut min_lon = f64::MAX;
        let mut max_lat = f64::MIN;
        let mut max_lon = f64::MIN;
        for p in &pois {
            let (a, b, c, d) = p.polygon.bbox();
            min_lat = min_lat.min(a);
            min_lon = min_lon.min(b);
            max_lat = max_lat.max(c);
            max_lon = max_lon.max(d);
        }
        // Pad so probes just outside the hull still map into the grid, and
        // size cells so a typical cell holds a handful of POIs.
        let pad = 0.02;
        let span = ((max_lat - min_lat).max(max_lon - min_lon) + 2.0 * pad).max(1e-6);
        let cell = (span / 64.0).max(1e-4);
        let mut grid = GridIndex::new(
            min_lat - pad,
            min_lon - pad,
            max_lat + pad,
            max_lon + pad,
            cell,
        );
        for p in &pois {
            grid.insert_bbox(p.id, p.polygon.bbox());
        }
        let centers = pois.iter().map(Poi::center).collect();
        Self {
            pois,
            centers,
            grid,
        }
    }

    /// Number of POIs, `|P|`.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// True when the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// All POIs in id order.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// The POI with the given id.
    pub fn get(&self, id: PoiId) -> &Poi {
        &self.pois[id as usize]
    }

    /// Returns the id of the POI whose bounding polygon contains `p`, if
    /// any. When polygons overlap, the lowest id wins deterministically.
    pub fn containing(&self, p: &GeoPoint) -> Option<PoiId> {
        let mut best: Option<PoiId> = None;
        for id in self.grid.candidates_at(p) {
            if self.pois[*id as usize].polygon.contains(p) {
                best = Some(best.map_or(*id, |b| b.min(*id)));
            }
        }
        best
    }

    /// `d(p, P)` in meters: the minimum distance from `p` to any POI
    /// polygon (zero when inside one).
    ///
    /// Probes expanding grid rings and stops once the ring's guaranteed
    /// minimum distance exceeds the best candidate found; falls back to a
    /// full scan only for points far outside the indexed area.
    pub fn min_distance_m(&self, p: &GeoPoint) -> f64 {
        let cell_m = self.grid.cell_side_m();
        let mut best = f64::MAX;
        let max_ring = 8usize;
        for ring in 0..=max_ring {
            for id in self.grid.candidates_within(p, ring) {
                let d = self.pois[id as usize].polygon.distance_m(p);
                best = best.min(d);
            }
            // Any POI outside this ring is at least (ring * cell) meters
            // away (conservative: ring cells of padding in every direction).
            if best <= (ring as f64) * cell_m {
                return best;
            }
        }
        if best < f64::MAX {
            return best;
        }
        // Distant probe: exact scan.
        self.pois
            .iter()
            .map(|poi| poi.polygon.distance_m(p))
            .fold(f64::MAX, f64::min)
    }

    /// The central point of every POI, in id order.
    pub fn centers(&self) -> &[GeoPoint] {
        &self.centers
    }

    /// `[d(p, p_1), ..., d(p, p_|P|)]` — distance in meters from `p` to the
    /// *central point* of every POI, in id order. This is the `d(v, p_i)`
    /// of Eq. 1.
    pub fn center_distances_m(&self, p: &GeoPoint) -> Vec<f64> {
        self.centers.iter().map(|c| p.fast_dist_m(c)).collect()
    }

    /// Ids of the `k` POIs with the nearest central points, closest first.
    pub fn nearest_k(&self, p: &GeoPoint, k: usize) -> Vec<PoiId> {
        let mut dists: Vec<(f64, PoiId)> = self
            .pois
            .iter()
            .map(|poi| (p.fast_dist_m(&poi.center()), poi.id))
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        dists.into_iter().take(k).map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_pois() -> PoiSet {
        let base = GeoPoint::new(40.75, -73.99);
        let mk = |dx: f64, dy: f64, name: &str| Poi {
            id: 0,
            name: name.to_string(),
            polygon: Polygon::regular(base.offset_m(dx, dy), 100.0, 8, 0.0),
        };
        PoiSet::new(vec![
            mk(0.0, 0.0, "alpha"),
            mk(1000.0, 0.0, "beta"),
            mk(0.0, 3000.0, "gamma"),
        ])
    }

    #[test]
    fn ids_are_dense_indices() {
        let set = three_pois();
        for (i, poi) in set.pois().iter().enumerate() {
            assert_eq!(poi.id as usize, i);
        }
    }

    #[test]
    fn containment_resolves_to_right_poi() {
        let set = three_pois();
        let base = GeoPoint::new(40.75, -73.99);
        assert_eq!(set.containing(&base), Some(0));
        assert_eq!(set.containing(&base.offset_m(1000.0, 0.0)), Some(1));
        assert_eq!(set.containing(&base.offset_m(0.0, 3000.0)), Some(2));
        assert_eq!(set.containing(&base.offset_m(500.0, 500.0)), None);
    }

    #[test]
    fn min_distance_zero_inside_and_grows_outside() {
        let set = three_pois();
        let base = GeoPoint::new(40.75, -73.99);
        assert_eq!(set.min_distance_m(&base), 0.0);
        // Halfway between alpha and beta: ~400 m from either boundary
        // (centers 1000 m apart, circumradius 100 m octagons).
        let mid = base.offset_m(500.0, 0.0);
        let d = set.min_distance_m(&mid);
        assert!((d - 400.0).abs() < 10.0, "d = {d}");
    }

    #[test]
    fn min_distance_matches_brute_force_far_away() {
        let set = three_pois();
        let base = GeoPoint::new(40.75, -73.99);
        let far = base.offset_m(50_000.0, 20_000.0);
        let brute = set
            .pois()
            .iter()
            .map(|poi| poi.polygon.distance_m(&far))
            .fold(f64::MAX, f64::min);
        let idx = set.min_distance_m(&far);
        assert!((brute - idx).abs() < 1.0, "brute = {brute}, idx = {idx}");
    }

    #[test]
    fn center_distances_in_id_order() {
        let set = three_pois();
        let base = GeoPoint::new(40.75, -73.99);
        let d = set.center_distances_m(&base);
        assert_eq!(d.len(), 3);
        assert!(d[0] < 5.0);
        assert!((d[1] - 1000.0).abs() < 5.0);
        assert!((d[2] - 3000.0).abs() < 10.0);
    }

    #[test]
    fn nearest_k_ordering() {
        let set = three_pois();
        let base = GeoPoint::new(40.75, -73.99);
        let near = set.nearest_k(&base.offset_m(900.0, 0.0), 3);
        assert_eq!(near, vec![1, 0, 2]);
        assert_eq!(set.nearest_k(&base, 1), vec![0]);
    }
}
