//! The affinity matrix `A` of the SSL framework (§4.4).
//!
//! Stored sparsely as one weight per pair — the dense `(L+U)²` matrix the
//! paper writes down is almost entirely zeros, and only pairs in
//! `Γ_L ∪ Γ_U` ever contribute to `L_u`.

use crate::config::HisRectConfig;
use ann::SpatialPrefilter;
use twitter_sim::{Dataset, Pair, ProfileIdx};

/// A pair with its affinity weight `a_ij`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPair {
    /// First profile of the pair.
    pub i: ProfileIdx,
    /// Second profile of the pair.
    pub j: ProfileIdx,
    /// The affinity weight `a_ij` in `[-1, 1]`.
    pub a: f32,
    /// True when the pair came from `Γ_L` (used for the per-epoch 1/10
    /// subsampling of negative and unlabeled pairs, §6.1.2).
    pub labeled_positive: bool,
}

/// Computes `a_ij` for one pair per the §4.4 case analysis. Returns `None`
/// for pairs whose weight is zero (they "have no impact on the penalty
/// L_u" and are dropped).
pub fn affinity(dataset: &Dataset, cfg: &HisRectConfig, pair: &Pair) -> Option<WeightedPair> {
    let (pi, pj) = (dataset.profile(pair.i), dataset.profile(pair.j));
    let weighted = |a: f32, pos: bool| WeightedPair {
        i: pair.i,
        j: pair.j,
        a,
        labeled_positive: pos,
    };
    match pair.co_label {
        Some(true) => Some(weighted(1.0, true)),
        Some(false) => Some(weighted(-1.0, false)),
        None => {
            // Pair construction already enforces |ts_i - ts_j| < Δt.
            let friends = cfg.social_w > 0.0 && dataset.are_friends(pi.uid, pj.uid);
            let d = pi.geo.fast_dist_m(&pj.geo);
            // §7 extension: friendship relaxes the proximity gate to 2ρ.
            let gate = if friends { 2.0 * cfg.rho_m } else { cfg.rho_m };
            if d >= gate {
                return None;
            }
            let pois = &dataset.world.pois;
            if pois.min_distance_m(&pi.geo) >= gate || pois.min_distance_m(&pj.geo) >= gate {
                return None;
            }
            let mut a = if d < cfg.rho_m {
                (cfg.eps_d2_m / (cfg.eps_d2_m + d)) as f32
            } else {
                0.0
            };
            if friends {
                a = (a + cfg.social_w).min(1.0);
            }
            (a > 0.0).then(|| weighted(a, false))
        }
    }
}

/// Minimum candidate pairs per worker before another worker pays off.
const MIN_PAIRS_PER_WORKER: usize = 256;

/// Unlabeled-pair count at which [`build_affinity`] switches from the
/// exhaustive scan to the grid prefilter: below this the grid build and
/// bound computations cost more than the pruned `affinity` calls save.
/// Both paths give the same list, so the count picks speed only.
const PREFILTER_MIN_PAIRS: usize = 4_096;

/// Builds the sparse affinity list over `Γ_L ∪ Γ_U` of the training split.
///
/// Bit-identical to [`build_affinity_exhaustive`] always: on large corpora
/// the unlabeled pairs go through [`build_affinity_prefiltered`], which
/// only ever drops pairs whose spatial lower bound already fails the
/// `affinity` distance gate — pairs the exhaustive scan would discard
/// anyway, in the same order.
pub fn build_affinity(dataset: &Dataset, cfg: &HisRectConfig) -> Vec<WeightedPair> {
    if dataset.train.unlabeled_pairs.len() >= PREFILTER_MIN_PAIRS {
        build_affinity_prefiltered(dataset, cfg)
    } else {
        build_affinity_exhaustive(dataset, cfg)
    }
}

/// Each candidate pair is independent, so the O(|Γ|) weight evaluations
/// (each with its own POI distance queries) fan out across at most
/// [`parallel::num_threads`] workers — clamped so tiny candidate sets
/// stay serial rather than paying thread-spawn overhead per few pairs;
/// output order matches the serial `pos → neg → unlabeled` chain
/// exactly.
pub fn build_affinity_exhaustive(dataset: &Dataset, cfg: &HisRectConfig) -> Vec<WeightedPair> {
    let train = &dataset.train;
    let candidates: Vec<&Pair> = train
        .pos_pairs
        .iter()
        .chain(&train.neg_pairs)
        .chain(&train.unlabeled_pairs)
        .collect();
    weigh_candidates(dataset, cfg, candidates)
}

/// [`build_affinity_exhaustive`] with the unlabeled candidates *generated*
/// from grid-cell neighborhoods rather than tested pair by pair: the
/// profiles appearing in `Γ_U` are indexed on a gate-sized grid, and
/// [`SpatialPrefilter::candidate_pairs`] enumerates every pair whose
/// spatial lower bound could still pass the `affinity` distance gate —
/// `O(n·k)` neighborhood work instead of an `O(n²)`-shaped sweep. The
/// enumerated set is intersected with the stored `Γ_U` list by rank, so
/// surviving pairs come out in stored order; a pair is dropped only when
/// its bound already fails the gate, i.e. exactly the pairs `affinity`
/// returns `None` for at its early distance check. Labeled pairs bypass
/// the filter (their weight ignores distance), so the output is
/// bit-identical to the exhaustive build.
pub fn build_affinity_prefiltered(dataset: &Dataset, cfg: &HisRectConfig) -> Vec<WeightedPair> {
    // Friendship relaxes the gate to 2ρ, so when the social extension is
    // live the bound must assume any pair might be friends.
    let gate = if cfg.social_w > 0.0 {
        2.0 * cfg.rho_m
    } else {
        cfg.rho_m
    };
    let train = &dataset.train;
    // Index only the profiles Γ_U actually touches: grid occupancy — and
    // with it the enumeration cost — tracks the pair universe, not the
    // corpus size.
    let mut involved: Vec<ProfileIdx> = train
        .unlabeled_pairs
        .iter()
        .flat_map(|p| [p.i, p.j])
        .collect();
    involved.sort_unstable();
    involved.dedup();
    let local_of = |profile: ProfileIdx| -> usize {
        involved
            .binary_search(&profile)
            .expect("every pair endpoint was collected")
    };
    let points: Vec<geo::GeoPoint> = involved.iter().map(|&i| dataset.profile(i).geo).collect();
    // One cell ≈ one gate radius: bound resolution matches the prune
    // distance without exploding the cell count.
    let cell_deg = (gate / ann::METERS_PER_DEG).max(1e-4);
    let pf = SpatialPrefilter::new(&points, cell_deg);
    // Rank of each stored pair under its unordered local key; the Δt
    // window scan emits each unordered pair at most once.
    let mut rank: std::collections::HashMap<(u32, u32), u32> =
        std::collections::HashMap::with_capacity(train.unlabeled_pairs.len());
    for (k, p) in train.unlabeled_pairs.iter().enumerate() {
        let (a, b) = (local_of(p.i) as u32, local_of(p.j) as u32);
        rank.insert((a.min(b), a.max(b)), k as u32);
    }
    let mut kept_ranks: Vec<u32> = pf
        .candidate_pairs(gate)
        .into_iter()
        .filter_map(|(a, b)| rank.get(&(a as u32, b as u32)).copied())
        .collect();
    kept_ranks.sort_unstable();
    let candidates: Vec<&Pair> = train
        .pos_pairs
        .iter()
        .chain(&train.neg_pairs)
        .chain(
            kept_ranks
                .iter()
                .map(|&k| &train.unlabeled_pairs[k as usize]),
        )
        .collect();
    obs::add(
        "affinity/pairs_prefiltered",
        (train.unlabeled_pairs.len() + train.n_labeled_pairs() - candidates.len()) as u64,
    );
    weigh_candidates(dataset, cfg, candidates)
}

fn weigh_candidates(
    dataset: &Dataset,
    cfg: &HisRectConfig,
    candidates: Vec<&Pair>,
) -> Vec<WeightedPair> {
    let _span = obs::span("affinity/build");
    obs::add("affinity/pairs_considered", candidates.len() as u64);
    let workers = parallel::clamp_workers(candidates.len(), MIN_PAIRS_PER_WORKER);
    let kept: Vec<WeightedPair> =
        parallel::parallel_map_range_with(workers, candidates.len(), |i| {
            affinity(dataset, cfg, candidates[i])
        })
        .into_iter()
        .flatten()
        .collect();
    obs::add("affinity/pairs_kept", kept.len() as u64);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use twitter_sim::{generate, SimConfig};

    fn setup() -> (Dataset, HisRectConfig) {
        (generate(&SimConfig::tiny(21)), HisRectConfig::fast())
    }

    #[test]
    fn labeled_pairs_get_plus_minus_one() {
        let (ds, cfg) = setup();
        for p in &ds.train.pos_pairs {
            let w = affinity(&ds, &cfg, p).expect("positive pairs always weighted");
            assert_eq!(w.a, 1.0);
            assert!(w.labeled_positive);
        }
        for p in ds.train.neg_pairs.iter().take(200) {
            let w = affinity(&ds, &cfg, p).expect("negative pairs always weighted");
            assert_eq!(w.a, -1.0);
            assert!(!w.labeled_positive);
        }
    }

    #[test]
    fn unlabeled_weights_in_unit_interval_and_distance_decayed() {
        let (ds, cfg) = setup();
        let mut seen = 0;
        for p in &ds.train.unlabeled_pairs {
            if let Some(w) = affinity(&ds, &cfg, p) {
                assert!(w.a > 0.0 && w.a <= 1.0, "a = {}", w.a);
                seen += 1;
                let (pi, pj) = (ds.profile(p.i), ds.profile(p.j));
                let d = pi.geo.fast_dist_m(&pj.geo);
                let expect = (cfg.eps_d2_m / (cfg.eps_d2_m + d)) as f32;
                assert!((w.a - expect).abs() < 1e-6);
            }
        }
        assert!(seen > 0, "some unlabeled pairs should pass the ρ filters");
    }

    #[test]
    fn distant_unlabeled_pairs_are_dropped() {
        let (ds, cfg) = setup();
        for p in &ds.train.unlabeled_pairs {
            let (pi, pj) = (ds.profile(p.i), ds.profile(p.j));
            if pi.geo.fast_dist_m(&pj.geo) >= cfg.rho_m {
                assert!(affinity(&ds, &cfg, p).is_none());
            }
        }
    }

    #[test]
    fn affinity_is_symmetric() {
        let (ds, cfg) = setup();
        for p in ds
            .train
            .unlabeled_pairs
            .iter()
            .chain(&ds.train.pos_pairs)
            .take(300)
        {
            let swapped = Pair {
                i: p.j,
                j: p.i,
                co_label: p.co_label,
            };
            let a = affinity(&ds, &cfg, p).map(|w| w.a);
            let b = affinity(&ds, &cfg, &swapped).map(|w| w.a);
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-6),
                (None, None) => {}
                other => panic!("asymmetric drop: {other:?}"),
            }
        }
    }

    #[test]
    fn build_affinity_covers_all_labeled_pairs() {
        let (ds, cfg) = setup();
        let ws = build_affinity(&ds, &cfg);
        let n_labeled = ds.train.pos_pairs.len() + ds.train.neg_pairs.len();
        assert!(ws.len() >= n_labeled);
        let n_pos = ws.iter().filter(|w| w.labeled_positive).count();
        assert_eq!(n_pos, ds.train.pos_pairs.len());
    }

    #[test]
    fn social_boost_raises_friend_pair_affinity() {
        let ds = generate(&SimConfig::tiny(21).with_social(3.0));
        let base_cfg = HisRectConfig::fast();
        let social_cfg = HisRectConfig {
            social_w: 0.4,
            ..HisRectConfig::fast()
        };
        let mut boosted = 0usize;
        for p in &ds.train.unlabeled_pairs {
            let (pi, pj) = (ds.profile(p.i), ds.profile(p.j));
            if !ds.are_friends(pi.uid, pj.uid) {
                // Non-friends are untouched by the extension.
                let a0 = affinity(&ds, &base_cfg, p).map(|w| w.a);
                let a1 = affinity(&ds, &social_cfg, p).map(|w| w.a);
                assert_eq!(a0, a1);
                continue;
            }
            let a0 = affinity(&ds, &base_cfg, p).map(|w| w.a).unwrap_or(0.0);
            let a1 = affinity(&ds, &social_cfg, p).map(|w| w.a).unwrap_or(0.0);
            assert!(a1 >= a0 - 1e-6, "friend affinity must not drop");
            if a1 > a0 {
                boosted += 1;
            }
        }
        assert!(boosted > 0, "some friend pairs should be boosted");
    }

    /// Over the unit-test corpus at three gate settings, and over the
    /// golden-run corpus (`tests/golden_run.rs`: tiny preset, seed 42):
    /// equal `(i, j, a)` lists there mean equal trainings, so the golden
    /// fingerprint holds on either path.
    #[test]
    fn prefiltered_build_is_bit_identical_to_exhaustive() {
        let golden = generate(&SimConfig::tiny(42));
        let cfg = HisRectConfig::fast();
        assert_eq!(
            build_affinity_exhaustive(&golden, &cfg),
            build_affinity_prefiltered(&golden, &cfg),
            "golden-run corpus"
        );
        let (ds, cfg) = setup();
        for cfg in [
            cfg.clone(),
            HisRectConfig {
                rho_m: 120.0,
                ..cfg.clone()
            },
            HisRectConfig {
                social_w: 0.4,
                ..cfg
            },
        ] {
            let a = build_affinity_exhaustive(&ds, &cfg);
            let b = build_affinity_prefiltered(&ds, &cfg);
            assert_eq!(a, b, "rho={} social_w={}", cfg.rho_m, cfg.social_w);
        }
    }

    #[test]
    fn prefilter_engages_on_social_corpus_too() {
        let ds = generate(&SimConfig::tiny(21).with_social(3.0));
        let cfg = HisRectConfig {
            social_w: 0.4,
            ..HisRectConfig::fast()
        };
        assert_eq!(
            build_affinity_exhaustive(&ds, &cfg),
            build_affinity_prefiltered(&ds, &cfg)
        );
    }

    #[test]
    fn tight_rho_drops_more_unlabeled_pairs() {
        let (ds, cfg) = setup();
        let loose = build_affinity(&ds, &cfg).len();
        let tight = build_affinity(&ds, &HisRectConfig { rho_m: 50.0, ..cfg }).len();
        assert!(tight <= loose);
    }
}
