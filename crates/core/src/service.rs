//! Library-level co-location judgement service.
//!
//! [`JudgeService`] bundles a trained [`HisRectModel`] with the POI
//! universe it judges against and exposes the three-step online pipeline
//! of §5 — load model → `features_for(profile)` → `judge_features(fa, fb)`
//! — as one API. The CLI `judge` command, the experiment harness and the
//! HTTP serving layer (`crates/serve`) all go through this type, so a
//! served verdict is computed by exactly the code path the offline
//! evaluation uses.

use crate::ckpt::fnv1a64;
use crate::error::ModelError;
use crate::fallback::FallbackJudge;
use crate::model::{Ablation, HisRectModel, Precision, Stacks, FEATURE_CHUNK};
use geo::PoiSet;
use serde::{Deserialize, Serialize};
use std::path::Path;
use twitter_sim::Profile;

/// A single pair verdict in its canonical serialized form. The CLI
/// (`judge --pair`) and the HTTP server both render responses through
/// this struct, so the two are byte-identical for the same model and
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Judgement {
    /// First profile index.
    pub i: usize,
    /// Second profile index.
    pub j: usize,
    /// Co-location probability `σ(C(|E′(F(ri)) − E′(F(rj))|))`.
    pub p_co: f32,
    /// The binary verdict at the paper's 0.5 threshold.
    pub co_located: bool,
}

impl Judgement {
    /// Builds the verdict for a pair from its co-location probability.
    pub fn from_probability(i: usize, j: usize, p_co: f32) -> Self {
        Self {
            i,
            j,
            p_co,
            co_located: p_co > 0.5,
        }
    }
}

/// A trained model plus its POI universe, ready to answer co-location
/// queries. Immutable after construction, so it is freely shared across
/// server worker threads.
///
/// The service binds the model's three dense stacks (featurizer head,
/// `E′`, `C`) to its [`Precision`] once at construction — `Int8`
/// quantizes them there — and every feature/judgement call below runs the
/// same body over them; the offline CLI, the bench harness and the HTTP
/// server therefore share one path at either precision.
pub struct JudgeService {
    model: HisRectModel,
    pois: PoiSet,
    precision: Precision,
    stacks: Stacks,
    fallback: FallbackJudge,
}

impl JudgeService {
    /// Wraps an already-trained model with the POI universe the profiles
    /// reference, at full precision.
    pub fn new(model: HisRectModel, pois: PoiSet) -> Self {
        Self::with_precision(model, pois, Precision::F32)
    }

    /// [`JudgeService::new`] at an explicit inference precision.
    pub fn with_precision(model: HisRectModel, pois: PoiSet, precision: Precision) -> Self {
        let stacks = model.stacks(precision);
        let fallback = FallbackJudge::from_config(&model.spec.config, None);
        Self {
            model,
            pois,
            precision,
            stacks,
            fallback,
        }
    }

    /// Loads a model snapshot written by
    /// [`HisRectModel::save_json`] and wraps it.
    pub fn load(model_path: &Path, pois: PoiSet) -> Result<Self, ModelError> {
        Self::load_with_precision(model_path, pois, Precision::F32)
    }

    /// [`JudgeService::load`] at an explicit inference precision.
    pub fn load_with_precision(
        model_path: &Path,
        pois: PoiSet,
        precision: Precision,
    ) -> Result<Self, ModelError> {
        Ok(Self::with_precision(
            HisRectModel::try_load_json(model_path)?,
            pois,
            precision,
        ))
    }

    /// The wrapped model.
    pub fn model(&self) -> &HisRectModel {
        &self.model
    }

    /// The inference precision this service was built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The POI universe profiles are judged against.
    pub fn pois(&self) -> &PoiSet {
        &self.pois
    }

    /// Feature dimensionality `|F(r)|`.
    pub fn feat_dim(&self) -> usize {
        self.model.feat_dim()
    }

    /// `F(r)` for one profile — the unit the serving layer caches:
    /// [`JudgeService::features_batch`] of one profile.
    pub fn features_for(&self, profile: &Profile) -> Vec<f32> {
        let mut feats = self.features_batch(&[profile]);
        feats.pop().expect("one feature per profile")
    }

    /// Eval-mode features for many profiles, in input order, computed on
    /// the calling thread a [`FEATURE_CHUNK`] at a time — the serving
    /// layer fills a request's cache misses with one call. Each row has
    /// the bits of [`JudgeService::features_for`].
    pub fn features_batch(&self, profiles: &[&Profile]) -> Vec<Vec<f32>> {
        let model = &self.model;
        let head = &self.stacks.head;
        profiles
            .chunks(FEATURE_CHUNK)
            .flat_map(|chunk| model.features_chunk(&self.pois, chunk, Ablation::default(), head))
            .collect()
    }

    /// Eval-mode features for many profiles, in input order, fanned out
    /// across workers (identical values to [`JudgeService::features_for`]
    /// per profile).
    pub fn features_many(&self, profiles: &[&Profile], ablation: Ablation) -> Vec<Vec<f32>> {
        self.model
            .features_profiles(&self.pois, profiles, ablation, &self.stacks.head)
    }

    /// Co-location probability from cached features.
    pub fn judge_features(&self, fa: &[f32], fb: &[f32]) -> f32 {
        self.stacks.judge.predict(&self.model.store, fa, fb)
    }

    /// Batched co-location probabilities from cached feature pairs; each
    /// row is bit-identical to the single-pair call at either precision.
    pub fn judge_features_batch(&self, pairs: &[(&[f32], &[f32])]) -> Vec<f32> {
        self.stacks.judge.predict_batch(&self.model.store, pairs)
    }

    /// End-to-end probability for two profiles (features are computed
    /// fresh; callers wanting reuse should cache
    /// [`JudgeService::features_for`]).
    pub fn judge_profiles(&self, a: &Profile, b: &Profile) -> f32 {
        let fa = self.features_for(a);
        let fb = self.features_for(b);
        self.judge_features(&fa, &fb)
    }

    /// Width of the `E'` embedding this service produces.
    pub fn embed_dim(&self) -> usize {
        self.model.spec.config.embed_dim
    }

    /// `E'` embeddings for many cached features, at the service's
    /// precision. Candidate retrieval indexes exactly these vectors.
    pub fn judge_embeddings(&self, feats: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.stacks.judge.embed(&self.model.store, feats)
    }

    /// Co-location probability from two precomputed `E'` embeddings, at
    /// the service's precision.
    pub fn judge_from_embeddings(&self, ei: &[f32], ej: &[f32]) -> f32 {
        self.stacks
            .judge
            .predict_from_embeddings(&self.model.store, ei, ej)
    }

    /// The degraded-mode judge this service falls back to when the
    /// learned path is unavailable (built once at construction from the
    /// model's own `ρ`/`ε` config).
    pub fn fallback(&self) -> &FallbackJudge {
        &self.fallback
    }

    /// Degraded co-location probability from the spatial heuristic alone:
    /// no tensor work, always available. The serving tier labels any
    /// response built from this path `x-hisrect-degraded`.
    pub fn judge_degraded(&self, a: &Profile, b: &Profile) -> f32 {
        self.fallback.probability(&self.pois, a, b)
    }
}

/// Stable 64-bit FNV-1a fingerprint of everything that influences a
/// profile's HisRect feature: user, timestamp, tokens, geo-tag, visit
/// history and label. Serving caches key on `(uid, fingerprint)` so a
/// changed profile can never alias a stale cached feature.
pub fn profile_fingerprint(profile: &Profile) -> u64 {
    let mut bytes = Vec::with_capacity(64 + profile.tokens.len() * 8 + profile.visits.len() * 24);
    bytes.extend_from_slice(&profile.uid.to_le_bytes());
    bytes.extend_from_slice(&profile.ts.to_le_bytes());
    bytes.extend_from_slice(&profile.geo.lat.to_bits().to_le_bytes());
    bytes.extend_from_slice(&profile.geo.lon.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(profile.tokens.len() as u64).to_le_bytes());
    for token in &profile.tokens {
        bytes.extend_from_slice(&(token.len() as u64).to_le_bytes());
        bytes.extend_from_slice(token.as_bytes());
    }
    bytes.extend_from_slice(&(profile.visits.len() as u64).to_le_bytes());
    for visit in &profile.visits {
        bytes.extend_from_slice(&visit.ts.to_le_bytes());
        bytes.extend_from_slice(&visit.point.lat.to_bits().to_le_bytes());
        bytes.extend_from_slice(&visit.point.lon.to_bits().to_le_bytes());
    }
    match profile.pid {
        Some(pid) => {
            bytes.push(1);
            bytes.extend_from_slice(&pid.to_le_bytes());
        }
        None => bytes.push(0),
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ApproachSpec;
    use twitter_sim::{generate, SimConfig};

    fn fast_spec() -> ApproachSpec {
        ApproachSpec::tweet_only().with_config(|c| {
            *c = crate::config::HisRectConfig {
                featurizer_iters: 40,
                judge_iters: 40,
                ..crate::config::HisRectConfig::fast()
            };
        })
    }

    #[test]
    fn service_matches_model_judgements() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(), 5);
        let pair = ds.test.pos_pairs[0];
        let direct = model.judge_pair(&ds, pair.i, pair.j);
        let service = JudgeService::new(model, ds.world.pois.clone());
        let fa = service.features_for(ds.profile(pair.i));
        let fb = service.features_for(ds.profile(pair.j));
        assert_eq!(service.judge_features(&fa, &fb), direct);
        assert_eq!(
            service.judge_profiles(ds.profile(pair.i), ds.profile(pair.j)),
            direct
        );
    }

    #[test]
    fn batched_judgements_are_bit_identical_to_singles() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(), 5);
        let service = JudgeService::new(model, ds.world.pois.clone());
        let pairs: Vec<_> = ds
            .test
            .pos_pairs
            .iter()
            .chain(&ds.test.neg_pairs)
            .take(6)
            .copied()
            .collect();
        let feats: Vec<(Vec<f32>, Vec<f32>)> = pairs
            .iter()
            .map(|p| {
                (
                    service.features_for(ds.profile(p.i)),
                    service.features_for(ds.profile(p.j)),
                )
            })
            .collect();
        let refs: Vec<(&[f32], &[f32])> = feats
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        let batched = service.judge_features_batch(&refs);
        for (k, (fa, fb)) in feats.iter().enumerate() {
            assert_eq!(batched[k], service.judge_features(fa, fb));
        }
    }

    #[test]
    fn features_many_matches_features_for() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(), 5);
        let service = JudgeService::new(model, ds.world.pois.clone());
        let profiles: Vec<&Profile> = ds
            .test
            .labeled
            .iter()
            .take(5)
            .map(|&i| ds.profile(i))
            .collect();
        let many = service.features_many(&profiles, Ablation::default());
        for (k, p) in profiles.iter().enumerate() {
            assert_eq!(many[k], service.features_for(p));
        }
    }

    #[test]
    fn int8_service_tracks_f32_verdicts() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(), 5);
        let twin = HisRectModel::try_from_snapshot(model.snapshot()).unwrap();
        let f32_svc = JudgeService::new(model, ds.world.pois.clone());
        let int8_svc = JudgeService::with_precision(twin, ds.world.pois.clone(), Precision::Int8);
        assert_eq!(int8_svc.precision(), Precision::Int8);
        assert_eq!(f32_svc.precision(), Precision::F32);
        let pairs: Vec<_> = ds
            .test
            .pos_pairs
            .iter()
            .chain(&ds.test.neg_pairs)
            .take(12)
            .copied()
            .collect();
        let mut agree = 0usize;
        for p in &pairs {
            let pf = f32_svc.judge_profiles(ds.profile(p.i), ds.profile(p.j));
            let pq = int8_svc.judge_profiles(ds.profile(p.i), ds.profile(p.j));
            assert!((pf - pq).abs() < 0.2, "prob drift {pf} vs {pq}");
            if (pf > 0.5) == (pq > 0.5) {
                agree += 1;
            }
        }
        assert!(
            agree >= pairs.len() - 1,
            "verdict agreement {agree}/{}",
            pairs.len()
        );
    }

    #[test]
    fn int8_fused_batch_is_verdict_identical_to_per_request() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ds = generate(&SimConfig::tiny(5));
        let trained = HisRectModel::train(&ds, &fast_spec(), 5);
        for precision in [Precision::F32, Precision::Int8] {
            let model = HisRectModel::from_snapshot(trained.snapshot());
            let service = JudgeService::with_precision(model, ds.world.pois.clone(), precision);
            let profiles: Vec<&Profile> = ds.test.labeled.iter().map(|&i| ds.profile(i)).collect();
            let feats = service.features_many(&profiles, Ablation::default());
            let mut rng = StdRng::seed_from_u64(99);
            // Random batch compositions, batch = 1 included: bit-identity,
            // not just verdict identity.
            for batch_len in [1usize, 2, 3, 7, 16] {
                let idx: Vec<(usize, usize)> = (0..batch_len)
                    .map(|_| (rng.gen_range(0..feats.len()), rng.gen_range(0..feats.len())))
                    .collect();
                let pairs: Vec<(&[f32], &[f32])> = idx
                    .iter()
                    .map(|&(a, b)| (feats[a].as_slice(), feats[b].as_slice()))
                    .collect();
                let fused = service.judge_features_batch(&pairs);
                for (k, &(a, b)) in idx.iter().enumerate() {
                    assert_eq!(
                        fused[k].to_bits(),
                        service.judge_features(&feats[a], &feats[b]).to_bits(),
                        "{precision}: batch {batch_len}, element {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn judgement_serialization_round_trips() {
        let j = Judgement::from_probability(3, 7, 0.75);
        assert!(j.co_located);
        let json = serde_json::to_string(&j).unwrap();
        let back: Judgement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j);
        assert!(!Judgement::from_probability(0, 1, 0.5).co_located);
    }

    #[test]
    fn fingerprint_tracks_profile_content() {
        let ds = generate(&SimConfig::tiny(5));
        let a = ds.profile(ds.test.labeled[0]);
        let b = ds.profile(ds.test.labeled[1]);
        assert_eq!(profile_fingerprint(a), profile_fingerprint(a));
        assert_ne!(profile_fingerprint(a), profile_fingerprint(b));
        let mut edited = a.clone();
        edited.tokens.push("extra".into());
        assert_ne!(profile_fingerprint(a), profile_fingerprint(&edited));
    }
}
