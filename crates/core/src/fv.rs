//! The historical-visit feature `Fv(r)` (§4.1, Eq. 1–2) and its one-hot
//! ablation.

use geo::{GeoPoint, PoiSet};
use std::collections::HashMap;
use twitter_sim::{Profile, Visit};

/// Eq. 1's `εd/(εd + d(v, p_i))` for every POI `p_i`, in id order.
fn relevance<'a>(
    point: &'a GeoPoint,
    pois: &'a PoiSet,
    eps_d_m: f64,
) -> impl Iterator<Item = f32> + 'a {
    pois.centers()
        .iter()
        .map(move |center| (eps_d_m / (eps_d_m + point.fast_dist_m(center))) as f32)
}

/// Computes Eq. 1: the spatial relevance vector
/// `w(v) = [εd/(εd + d(v, p_1)), ..., εd/(εd + d(v, p_|P|))]`.
pub fn visit_relevance(visit: &Visit, pois: &PoiSet, eps_d_m: f64) -> Vec<f32> {
    relevance(&visit.point, pois, eps_d_m).collect()
}

/// Eq. 2's temporal weight `εt/(εt + r.ts − v.ts)` (ages clamp at 0).
fn recency(profile: &Profile, visit: &Visit, eps_t_s: f64) -> f32 {
    let age = (profile.ts - visit.ts).max(0) as f64;
    (eps_t_s / (eps_t_s + age)) as f32
}

/// The §4.1 feature of a profile without history: `ℓ2-norm([1, ..., 1])`.
fn uniform(n: usize) -> Vec<f32> {
    vec![1.0 / (n as f32).sqrt(); n]
}

/// Computes Eq. 2:
/// `Fv(r) = ℓ2-norm( Σ_v  εt/(εt + r.ts − v.ts) · w(v) )`.
///
/// Profiles with no history get the uniform vector `ℓ2-norm([1, ..., 1])`
/// (§4.1), so timelines without POI tweets still featurize.
pub fn fv_feature(profile: &Profile, pois: &PoiSet, eps_d_m: f64, eps_t_s: f64) -> Vec<f32> {
    if profile.visits.is_empty() {
        return uniform(pois.len());
    }
    let mut acc = vec![0.0f32; pois.len()];
    for v in &profile.visits {
        let recency = recency(profile, v, eps_t_s);
        // Eq. 1 fused into the sum: `w(v)` is never materialized.
        for (a, w) in acc.iter_mut().zip(relevance(&v.point, pois, eps_d_m)) {
            *a += recency * w;
        }
    }
    l2_normalize(&mut acc);
    acc
}

/// [`fv_feature`] of every profile, in order and bit-identical to it,
/// with Eq. 1's `w(v)` computed once per distinct visit point. Profiles
/// of one user carry that user's history, so when a batch holds several
/// of them most of their visits repeat a point already seen; the memo
/// serves exactly those profiles, and a profile whose user appears once
/// takes the fused loop, paying nothing for it. The sum adds the same
/// `recency · w` products in the same order as the fused loop, whose `w`
/// is already rounded to f32 before the multiply, so reading it from the
/// memo changes no bit.
pub fn fv_features(
    profiles: &[&Profile],
    pois: &PoiSet,
    eps_d_m: f64,
    eps_t_s: f64,
) -> Vec<Vec<f32>> {
    let n = pois.len();
    let mut users: HashMap<u32, usize> = HashMap::new();
    for profile in profiles {
        *users.entry(profile.uid).or_default() += 1;
    }
    // Row of `weights` holding `w(v)` for each visit point seen so far,
    // keyed by the point's bits.
    let mut rows: HashMap<[u64; 2], usize> = HashMap::new();
    let mut weights: Vec<f32> = Vec::new();
    profiles
        .iter()
        .map(|profile| {
            if users[&profile.uid] == 1 || profile.visits.is_empty() {
                return fv_feature(profile, pois, eps_d_m, eps_t_s);
            }
            let mut acc = vec![0.0f32; n];
            for v in &profile.visits {
                let key = [v.point.lat.to_bits(), v.point.lon.to_bits()];
                let next = rows.len();
                let row = *rows.entry(key).or_insert_with(|| {
                    weights.extend(relevance(&v.point, pois, eps_d_m));
                    next
                });
                let recency = recency(profile, v, eps_t_s);
                for (a, &w) in acc.iter_mut().zip(&weights[row * n..(row + 1) * n]) {
                    *a += recency * w;
                }
            }
            l2_normalize(&mut acc);
            acc
        })
        .collect()
}

/// The §4.1 strawman the paper compares against (Table 4 "One-hot" row):
/// a binary indicator per POI of whether any historical visit fell inside
/// that POI, ℓ2-normalized. Visits outside every POI contribute nothing —
/// exactly the weakness Eq. 1–2 fixes.
pub fn one_hot_feature(profile: &Profile, pois: &PoiSet) -> Vec<f32> {
    let n = pois.len();
    let mut acc = vec![0.0f32; n];
    let mut any = false;
    for v in &profile.visits {
        if let Some(pid) = pois.containing(&v.point) {
            acc[pid as usize] = 1.0;
            any = true;
        }
    }
    if !any {
        return uniform(n);
    }
    l2_normalize(&mut acc);
    acc
}

fn l2_normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::{GeoPoint, Poi, Polygon};

    fn pois() -> PoiSet {
        let base = GeoPoint::new(40.75, -73.99);
        let mk = |dx: f64, dy: f64| Poi {
            id: 0,
            name: String::new(),
            polygon: Polygon::regular(base.offset_m(dx, dy), 100.0, 8, 0.0),
        };
        PoiSet::new(vec![mk(0.0, 0.0), mk(2000.0, 0.0), mk(8000.0, 0.0)])
    }

    fn base() -> GeoPoint {
        GeoPoint::new(40.75, -73.99)
    }

    fn profile(ts: i64, visits: Vec<Visit>) -> Profile {
        Profile {
            uid: 0,
            ts,
            tokens: vec![],
            geo: base(),
            visits,
            pid: None,
        }
    }

    #[test]
    fn relevance_decays_with_distance() {
        let v = Visit {
            ts: 0,
            point: base(),
        };
        let w = visit_relevance(&v, &pois(), 1000.0);
        assert_eq!(w.len(), 3);
        assert!(w[0] > w[1] && w[1] > w[2]);
        // At the POI center: εd/(εd+0) = 1.
        assert!((w[0] - 1.0).abs() < 0.01);
        // 2000 m away: 1000/3000.
        assert!((w[1] - 1.0 / 3.0).abs() < 0.01);
    }

    /// Eq. 2 spelled out over materialized Eq. 1 vectors, as `fv_feature`
    /// computed it before the two were fused.
    fn fv_reference(profile: &Profile, pois: &PoiSet, eps_d_m: f64, eps_t_s: f64) -> Vec<f32> {
        let n = pois.len();
        if profile.visits.is_empty() {
            return vec![1.0 / (n as f32).sqrt(); n];
        }
        let mut acc = vec![0.0f32; n];
        for v in &profile.visits {
            let age = (profile.ts - v.ts).max(0) as f64;
            let recency = (eps_t_s / (eps_t_s + age)) as f32;
            for (a, w) in acc.iter_mut().zip(visit_relevance(v, pois, eps_d_m)) {
                *a += recency * w;
            }
        }
        l2_normalize(&mut acc);
        acc
    }

    #[test]
    fn fused_fv_matches_the_two_step_formula_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let set = pois();
        for n_visits in [0usize, 1, 60] {
            for _ in 0..20 {
                let visits = (0..n_visits)
                    .map(|_| Visit {
                        // Some visits postdate the profile: age clamps to 0.
                        ts: rng.gen_range(0..1_100_000),
                        point: base().offset_m(
                            rng.gen_range(-3000.0..12_000.0),
                            rng.gen_range(-5000.0..5000.0),
                        ),
                    })
                    .collect();
                let p = profile(1_000_000, visits);
                let got = fv_feature(&p, &set, 1000.0, 86_400.0);
                let want = fv_reference(&p, &set, 1000.0, 86_400.0);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{n_visits} visits");
            }
        }
    }

    #[test]
    fn empty_history_gives_uniform_unit_vector() {
        let f = fv_feature(&profile(100, vec![]), &pois(), 1000.0, 86_400.0);
        assert!(f.iter().all(|&x| (x - f[0]).abs() < 1e-7));
        let norm: f32 = f.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn output_is_unit_norm() {
        let visits = vec![
            Visit {
                ts: 0,
                point: base(),
            },
            Visit {
                ts: 50,
                point: base().offset_m(2000.0, 0.0),
            },
        ];
        let f = fv_feature(&profile(100, visits), &pois(), 1000.0, 86_400.0);
        let norm: f32 = f.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn recent_visits_dominate_old_ones() {
        // Visit near POI 0 long ago, near POI 1 just now.
        let day = 86_400;
        let visits = vec![
            Visit {
                ts: 0,
                point: base(),
            },
            Visit {
                ts: 10 * day - 60,
                point: base().offset_m(2000.0, 0.0),
            },
        ];
        let f = fv_feature(&profile(10 * day, visits), &pois(), 1000.0, day as f64);
        assert!(
            f[1] > f[0],
            "recent visit near POI 1 must outweigh old visit near POI 0: {f:?}"
        );
    }

    #[test]
    fn visits_near_poi_raise_its_weight() {
        let visits = vec![Visit {
            ts: 0,
            point: base(),
        }];
        let f = fv_feature(&profile(100, visits), &pois(), 1000.0, 86_400.0);
        assert!(f[0] > f[1] && f[0] > f[2], "{f:?}");
    }

    #[test]
    fn off_poi_visits_still_inform_fv_but_not_one_hot() {
        // A visit 500 m from POI 0's center is outside its polygon.
        let visits = vec![Visit {
            ts: 0,
            point: base().offset_m(500.0, 0.0),
        }];
        let p = profile(100, visits);
        let set = pois();
        let fv = fv_feature(&p, &set, 1000.0, 86_400.0);
        assert!(fv[0] > fv[2], "fv should still prefer the nearby POI");
        let oh = one_hot_feature(&p, &set);
        // One-hot sees no in-POI visit and falls back to uniform.
        assert!((oh[0] - oh[2]).abs() < 1e-7);
    }

    #[test]
    fn one_hot_marks_contained_visits() {
        let visits = vec![
            Visit {
                ts: 0,
                point: base(),
            },
            Visit {
                ts: 1,
                point: base().offset_m(2000.0, 0.0),
            },
        ];
        let oh = one_hot_feature(&profile(10, visits), &pois());
        assert!(oh[0] > 0.0 && oh[1] > 0.0);
        assert_eq!(oh[2], 0.0);
        let norm: f32 = oh.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    /// A profile at `ts` with `n` visits drawn around `base()`; a nonzero
    /// `shift` moves every point by that many meters east.
    fn random_profile(rng: &mut rand::rngs::StdRng, ts: i64, n: usize, shift: f64) -> Profile {
        use rand::Rng;
        let visits = (0..n)
            .map(|_| Visit {
                ts: rng.gen_range(0..ts + 100_000),
                point: base().offset_m(
                    rng.gen_range(-3000.0..12_000.0) + shift,
                    rng.gen_range(-5000.0..5000.0),
                ),
            })
            .collect();
        profile(ts, visits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn batched_fv_equals_fv_feature_bit_for_bit(
            // Per profile: 0 = a new user with a disjoint history, 1 = the
            // previous profile's user and history plus new visits (that
            // user's next tweet), 2 = an empty history, 3 = a disjoint
            // history under an earlier user.
            kinds in proptest::collection::vec(0u8..4, 1..=40),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let set = pois();
            let mut batch: Vec<Profile> = Vec::new();
            for (k, &kind) in kinds.iter().enumerate() {
                let ts = 1_000_000 + 10_000 * k as i64;
                let fresh = rng.gen_range(0..30);
                let earlier = rng.gen_range(0..=k as u32);
                let mut p = match (kind, batch.last()) {
                    (1, Some(prev)) => {
                        let mut p = random_profile(&mut rng, ts, fresh % 4, 0.0);
                        let mut visits = prev.visits.clone();
                        visits.append(&mut p.visits);
                        Profile { uid: prev.uid, ..profile(ts, visits) }
                    }
                    (2, _) => profile(ts, Vec::new()),
                    _ => random_profile(&mut rng, ts, fresh + 1, k as f64),
                };
                if kind != 1 {
                    p.uid = if kind == 0 { k as u32 } else { earlier };
                }
                batch.push(p);
            }
            let refs: Vec<&Profile> = batch.iter().collect();
            let got = fv_features(&refs, &set, 1000.0, 86_400.0);
            assert_eq!(got.len(), batch.len());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (k, p) in batch.iter().enumerate() {
                let want = fv_feature(p, &set, 1000.0, 86_400.0);
                assert_eq!(bits(&got[k]), bits(&want), "profile {k}");
            }
        }
    }
}
