//! Candidate retrieval: tweet in, ranked co-located users out.
//!
//! [`CandidateService`] turns the pairwise judge into a query engine: at
//! build time it embeds every corpus profile with `E'` and indexes the
//! vectors in [`ann::AnnIndex`], keyed by tweet location (coarse grid
//! cell) and timestamp (each cell is sorted by time). A query retrieves
//! exactly the top-k nearest embeddings among the profiles in the radius's
//! cell ring that tweeted within Δt, and re-scores each hit with the
//! classifier `C` — O(embed_dim) per candidate instead of a full
//! featurize-and-judge pass.
//!
//! The CLI `candidates` command and the HTTP `POST /candidates` route
//! both render through [`CandidateSet`], and both score from the *stored*
//! embeddings, so the served response is byte-identical to the offline
//! one — cold or warm — for the same model snapshot and corpus.

use crate::service::JudgeService;
use ann::{AnnConfig, AnnIndex, AnnItem};
use serde::{Deserialize, Serialize};
use twitter_sim::Dataset;

/// Retrieval parameters layered on top of [`AnnConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateConfig {
    /// Spatial search radius in meters around the querying tweet.
    pub radius_m: f64,
    /// Probability above which a candidate is flagged co-located.
    pub threshold: f32,
    /// Index construction parameters; `delta_t` is overwritten with the
    /// corpus Δt at build time.
    pub ann: AnnConfig,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self {
            radius_m: 2_000.0,
            threshold: 0.5,
            ann: AnnConfig::default(),
        }
    }
}

/// One retrieved candidate, scored by the judge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Profile index of the candidate.
    pub j: usize,
    /// Squared L2 distance between the `E'` embeddings.
    pub d2: f32,
    /// `σ(C(|E′(F(ri)) − E′(F(rj))|))` from the stored embeddings.
    pub p_co: f32,
    /// True when `p_co` clears the configured threshold.
    pub co_located: bool,
}

/// The canonical serialized answer to one candidates query; the CLI and
/// the HTTP server both render exactly this struct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateSet {
    /// Querying profile index.
    pub i: usize,
    /// Requested result count.
    pub k: usize,
    /// Candidates in ascending embedding-distance order.
    pub candidates: Vec<Candidate>,
}

/// Embedding index over a corpus plus the scoring glue.
pub struct CandidateService {
    index: AnnIndex,
    radius_m: f64,
    threshold: f32,
}

impl CandidateService {
    /// Builds the index over every profile of `dataset` with default
    /// retrieval parameters.
    pub fn build(judge: &JudgeService, dataset: &Dataset) -> Self {
        Self::build_with(judge, dataset, CandidateConfig::default())
    }

    /// Builds the index over every profile of `dataset`: features at the
    /// service's precision, then `E'` embeddings, then the time-sorted grid
    /// buckets. Construction is deterministic (and thread-count
    /// independent), so two builds from the same snapshot answer
    /// identically.
    pub fn build_with(judge: &JudgeService, dataset: &Dataset, cfg: CandidateConfig) -> Self {
        let _span = obs::span("candidates/build");
        let refs: Vec<&twitter_sim::Profile> = dataset.profiles.iter().collect();
        let feats = judge.features_many(&refs, crate::model::Ablation::default());
        let embeddings = judge.judge_embeddings(&feats);
        let items: Vec<AnnItem> = dataset
            .profiles
            .iter()
            .zip(embeddings)
            .enumerate()
            .map(|(idx, (p, embedding))| AnnItem {
                id: idx as u32,
                point: p.geo,
                ts: p.ts,
                embedding,
            })
            .collect();
        let ann_cfg = AnnConfig {
            delta_t: Some(dataset.delta_t),
            ..cfg.ann
        };
        Self {
            index: AnnIndex::build(items, ann_cfg),
            radius_m: cfg.radius_m,
            threshold: cfg.threshold,
        }
    }

    /// Number of indexed profiles.
    pub fn population(&self) -> usize {
        self.index.len()
    }

    /// The underlying index (read-only), for diagnostics and tests.
    pub fn index(&self) -> &AnnIndex {
        &self.index
    }

    /// Top-`k` candidate co-located users for profile `i`, judged from
    /// the stored embeddings. Returns `None` when `i` is not indexed.
    /// The querying profile is excluded from its own answer.
    pub fn candidates(&self, judge: &JudgeService, i: usize, k: usize) -> Option<CandidateSet> {
        let t0 = obs::enabled().then(std::time::Instant::now);
        let item = self.index.get(i as u32)?;
        let ei = item.embedding.clone();
        // Over-fetch by one: the query point indexes itself.
        let hits = self
            .index
            .query(&item.point, item.ts, &ei, k + 1, self.radius_m);
        let candidates: Vec<Candidate> = hits
            .into_iter()
            .filter(|n| n.id as usize != i)
            .take(k)
            .map(|n| {
                let ej = self.index.embedding_of(n.id).expect("hit is indexed");
                let p_co = judge.judge_from_embeddings(&ei, ej);
                Candidate {
                    j: n.id as usize,
                    d2: n.d2,
                    p_co,
                    co_located: p_co > self.threshold,
                }
            })
            .collect();
        if let Some(t0) = t0 {
            obs::observe(
                "candidates/query_latency_ns",
                t0.elapsed().as_nanos() as f64,
            );
        }
        Some(CandidateSet { i, k, candidates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ApproachSpec;
    use crate::model::HisRectModel;
    use geo::PoiSet;
    use twitter_sim::SimConfig;

    fn tiny_service() -> (JudgeService, Dataset) {
        let ds = twitter_sim::generate(&SimConfig::tiny(5));
        let mut spec = ApproachSpec::tweet_only();
        spec.config.featurizer_iters = 20;
        spec.config.judge_iters = 20;
        let model = HisRectModel::train(&ds, &spec, 5);
        let pois: PoiSet = ds.world.pois.clone();
        (JudgeService::new(model, pois), ds)
    }

    #[test]
    fn candidates_are_deterministic_and_exclude_self() {
        let (svc, ds) = tiny_service();
        let cands = CandidateService::build(&svc, &ds);
        assert_eq!(cands.population(), ds.profiles.len());
        let i = 0usize;
        let a = cands.candidates(&svc, i, 5).expect("profile 0 indexed");
        let b = cands.candidates(&svc, i, 5).expect("profile 0 indexed");
        assert_eq!(a, b);
        assert_eq!(a.i, i);
        assert!(a.candidates.iter().all(|c| c.j != i));
        assert!(a.candidates.len() <= 5);
        // Ascending distance order.
        for w in a.candidates.windows(2) {
            assert!(w[0].d2 <= w[1].d2);
        }
    }

    #[test]
    fn unknown_profile_returns_none() {
        let (svc, ds) = tiny_service();
        let cands = CandidateService::build(&svc, &ds);
        assert!(cands.candidates(&svc, ds.profiles.len(), 3).is_none());
    }

    #[test]
    fn rebuild_answers_identically() {
        // Two independent builds from the same snapshot must agree — this
        // is what makes /reload generation swaps invisible when the model
        // file is unchanged.
        let (svc, ds) = tiny_service();
        let a = CandidateService::build(&svc, &ds);
        let b = CandidateService::build(&svc, &ds);
        assert_eq!(
            a.index().structure_fingerprint(),
            b.index().structure_fingerprint()
        );
        for i in 0..ds.profiles.len().min(4) {
            assert_eq!(a.candidates(&svc, i, 3), b.candidates(&svc, i, 3));
        }
    }
}
