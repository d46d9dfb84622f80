//! End-to-end model: skip-gram pretraining, featurizer training
//! (Algorithm 1 or its ablations), judge training, and inference APIs.

use crate::affinity::build_affinity;
use crate::ckpt::CheckpointConfig;
use crate::config::{ApproachSpec, HistoryEncoder, TrainMode};
use crate::error::{ModelError, TrainError};
use crate::featurizer::{BoundHead, Featurizer, ProfileInput};
use crate::fv::{fv_features, one_hot_feature};
use crate::judge::{comp2loc, try_train_judge, FeaturePair, Judge, JudgeEval};
use crate::ssl::{try_train_featurizer_with_validation, SslNets, SslStats};
use faultsim::FaultKind;
use nn::params::ParamSnapshot;
use nn::{Adam, AdamConfig, EvalStack, FeedForward, ParamStore, QuantFeedForward, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use tensor::Matrix;
use text::{SkipGram, SkipGramConfig, Vocab};
use twitter_sim::{Dataset, Profile, ProfileIdx};

/// Profiles featurized per batched evaluation call. A feature's bits do
/// not depend on the width. Measured inside the server (hisbench
/// `judge_batch_cold`, seed 1: int8, 64 cold profiles per request, the
/// server pinned to one core of a 2-vCPU x86-64 host; four interleaved
/// runs each), widths 16, 32 and 64 answer a request in a median 1.00,
/// 1.05 and 1.09 reference ms. 16 and 32 are within run-to-run noise of
/// each other and 32 gives the Eq. 1 memo twice the history to share.
/// Why 64 is slower is not pinned down; at 64 LV profiles (8 words a
/// tweet on average) the LSTM's saved activations alone come to about
/// 330 KB.
pub const FEATURE_CHUNK: usize = 32;

/// Input ablations for the Table 5 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// HisRect\H: blank the visit history.
    pub drop_history: bool,
    /// HisRect\T: blank the tweet content.
    pub drop_content: bool,
}

/// Numeric precision of the inference path. Training is always f32;
/// `Int8` derives quantized weights for the feed-forward stacks at model
/// load ([`HisRectModel::stacks`]) while the f32 parameters stay
/// authoritative for checkpoints and hot-reload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision inference through the training kernels.
    #[default]
    F32,
    /// Post-training int8 inference through the quantized kernels.
    Int8,
}

impl Precision {
    /// Canonical lowercase name (`f32` / `int8`), as accepted by
    /// `--precision`.
    pub fn as_str(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Binds a trained stack to this precision's arithmetic — the one
    /// place the inference path branches on precision.
    pub fn bind(self, store: &ParamStore, ff: &FeedForward) -> EvalStack {
        match self {
            Precision::F32 => EvalStack::F32(ff.clone()),
            Precision::Int8 => EvalStack::Int8(QuantFeedForward::from_feed_forward(store, ff)),
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" | "fp32" | "float" => Ok(Precision::F32),
            "int8" | "i8" => Ok(Precision::Int8),
            other => Err(format!("unknown precision '{other}' (expected f32|int8)")),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The three dense stacks of the inference path — the featurizer head,
/// `E′` and `C` — bound to one [`Precision`], with the content encoder's
/// word table. Derived (never persisted): rebuild with
/// [`HisRectModel::stacks`] after any reload or training.
#[derive(Debug, Clone)]
pub struct Stacks {
    /// The `Qf`-layer featurizer head and the word table.
    pub head: BoundHead,
    /// `E′` and `C`.
    pub judge: JudgeEval,
}

impl Stacks {
    fn bind(store: &ParamStore, featurizer: &Featurizer, judge: &Judge, p: Precision) -> Self {
        Self {
            head: featurizer.head_at(store, p),
            judge: judge.at(store, p),
        }
    }
}

/// Everything needed to reconstruct a trained [`HisRectModel`].
#[derive(Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Architecture + training spec the model was built from.
    pub spec: ApproachSpec,
    /// Size of the POI universe.
    pub n_pois: usize,
    /// Trained vocabulary.
    pub vocab: Vocab,
    /// Trained word vectors.
    pub skipgram: SkipGram,
    /// All network parameter values, keyed by name.
    pub params: ParamSnapshot,
}

/// A trained HisRect system (featurizer + POI classifier + judge).
pub struct HisRectModel {
    /// The approach this model implements.
    pub spec: ApproachSpec,
    /// Size of the POI universe the model was trained against.
    n_pois: usize,
    pub(crate) store: ParamStore,
    vocab: Vocab,
    skipgram: SkipGram,
    pub(crate) featurizer: Featurizer,
    nets: SslNets,
    judge: Judge,
    /// The f32 inference stacks. The dense stacks are ids into `store`,
    /// but the word table is a snapshot of it: rebound after each
    /// training phase.
    f32: Stacks,
    /// Loss traces from featurizer training.
    pub ssl_stats: SslStats,
    /// Loss trace from judge training (empty for One-phase, whose joint
    /// losses land in `one_phase_losses`).
    pub judge_losses: Vec<f32>,
    /// Joint-loss trace for the One-phase variant.
    pub one_phase_losses: Vec<f32>,
}

impl HisRectModel {
    /// Trains the full system for `spec` on the dataset's training split.
    pub fn train(dataset: &Dataset, spec: &ApproachSpec, seed: u64) -> Self {
        Self::try_train(dataset, spec, seed, None).expect("training failed")
    }

    /// [`HisRectModel::train`] with fault tolerance: when `ckpt` is set,
    /// each training phase writes periodic snapshots and (with
    /// `ckpt.resume`) continues from its latest valid one. The pre-phase
    /// pipeline (skip-gram, affinity, input precomputation) is
    /// deterministic per seed, so re-running it on resume reproduces the
    /// exact RNG stream up to the restore point — an interrupted + resumed
    /// run is bit-identical to an uninterrupted one.
    pub fn try_train(
        dataset: &Dataset,
        spec: &ApproachSpec,
        seed: u64,
        ckpt: Option<&CheckpointConfig>,
    ) -> Result<Self, TrainError> {
        Self::try_train_from(dataset, spec, seed, ckpt, None)
    }

    /// [`HisRectModel::try_train`] with an optional warm-start: when
    /// `init` is given, the freshly allocated networks load its values by
    /// name *before* any phase runs, so training continues from a
    /// previous generation's weights instead of a random init. Optimizer
    /// state, iteration budget and the RNG stream are untouched — this is
    /// a starting point, not a resume (a checkpoint resume restores
    /// *over* the warm-start, keeping crash recovery bit-identical).
    /// Vocabulary and word vectors are still retrained on this window;
    /// only [`ParamStore`] tensors carry over, which is safe because
    /// their shapes depend on the spec and POI universe, not the vocab.
    pub fn try_train_from(
        dataset: &Dataset,
        spec: &ApproachSpec,
        seed: u64,
        ckpt: Option<&CheckpointConfig>,
        init: Option<&ParamSnapshot>,
    ) -> Result<Self, TrainError> {
        let cfg = &spec.config;
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Word vectors over C_train (§4.2). The skip-gram corpus and the
        //    vocabulary are shared by every content encoder.
        obs::logln(obs::Level::Info, "train: skip-gram pretraining");
        let skipgram_span = obs::span("train/skipgram");
        let vocab = Vocab::build(dataset.train_docs.iter().map(|d| d.as_slice()), 10);
        let mut skipgram = SkipGram::new(
            &vocab,
            SkipGramConfig {
                dim: cfg.word_dim,
                ..SkipGramConfig::default()
            },
            &mut rng,
        );
        let encoded: Vec<Vec<usize>> = dataset.train_docs.iter().map(|d| vocab.encode(d)).collect();
        skipgram.train(&encoded, &mut rng);
        drop(skipgram_span);

        // 2. Allocate all networks in one store; optimizer groups keep the
        //    paper's Θ_F / Θ_P / Θ_E / Θ_E' / Θ_C separation.
        let mut store = ParamStore::new();
        let featurizer = Featurizer::new(
            &mut store,
            cfg,
            spec.history,
            spec.content,
            dataset.world.pois.len(),
            &mut rng,
        )
        .with_word_vectors(skipgram.vectors());
        let nets = SslNets::new(
            &mut store,
            cfg,
            featurizer.feat_dim(),
            dataset.world.pois.len(),
            &mut rng,
        );
        let judge = Judge::new(&mut store, cfg, featurizer.feat_dim(), &mut rng);
        if let Some(snap) = init {
            let restored = store
                .try_load_snapshot(snap)
                .map_err(TrainError::WarmStart)?;
            if restored == 0 {
                return Err(TrainError::WarmStart(
                    "snapshot shares no parameter names with this architecture".into(),
                ));
            }
            obs::logln(
                obs::Level::Info,
                &format!(
                    "train: warm-start restored {restored}/{} parameters",
                    store.len()
                ),
            );
            obs::incr("train/warm_starts");
        }

        let f32 = Stacks::bind(&store, &featurizer, &judge, Precision::F32);
        let mut model = Self {
            spec: spec.clone(),
            n_pois: dataset.world.pois.len(),
            store,
            vocab,
            skipgram,
            featurizer,
            nets,
            judge,
            f32,
            ssl_stats: SslStats::default(),
            judge_losses: Vec::new(),
            one_phase_losses: Vec::new(),
        };

        // 3. Precompute model inputs for every training profile we touch.
        let prepare_span = obs::span("train/prepare_inputs");
        let affinity = if spec.mode == TrainMode::SemiSupervised {
            build_affinity(dataset, cfg)
        } else {
            Vec::new()
        };
        let mut needed: Vec<ProfileIdx> = dataset.train.labeled.clone();
        needed.extend(affinity.iter().flat_map(|w| [w.i, w.j]));
        if cfg.early_stop {
            needed.extend(dataset.valid.labeled.iter().copied());
        }
        if spec.mode == TrainMode::OnePhase {
            needed.extend(
                dataset
                    .train
                    .pos_pairs
                    .iter()
                    .chain(&dataset.train.neg_pairs)
                    .flat_map(|p| [p.i, p.j]),
            );
        }
        needed.sort_unstable();
        needed.dedup();
        let mut inputs: HashMap<ProfileIdx, ProfileInput> = HashMap::with_capacity(needed.len());
        for chunk in needed.chunks(FEATURE_CHUNK) {
            let profiles: Vec<&Profile> = chunk.iter().map(|&idx| dataset.profile(idx)).collect();
            let batch = model.profile_inputs(&dataset.world.pois, &profiles, Ablation::default());
            inputs.extend(chunk.iter().copied().zip(batch));
        }
        drop(prepare_span);

        // 4. Train.
        match spec.mode {
            TrainMode::SemiSupervised | TrainMode::SupervisedOnly => {
                obs::logln(obs::Level::Info, "train: featurizer phase (Algorithm 1)");
                let phase_span = obs::span("train/featurizer_phase");
                let labeled: Vec<(ProfileIdx, usize)> = dataset
                    .train
                    .labeled
                    .iter()
                    .map(|&i| (i, dataset.profile(i).pid.expect("labeled") as usize))
                    .collect();
                let valid: Vec<(ProfileIdx, usize)> = if cfg.early_stop {
                    dataset
                        .valid
                        .labeled
                        .iter()
                        .map(|&i| (i, dataset.profile(i).pid.expect("labeled") as usize))
                        .collect()
                } else {
                    Vec::new()
                };
                model.ssl_stats = try_train_featurizer_with_validation(
                    &model.featurizer,
                    &model.nets,
                    &mut model.store,
                    &inputs,
                    &labeled,
                    &affinity,
                    &valid,
                    cfg,
                    spec.mode == TrainMode::SemiSupervised,
                    &mut rng,
                    ckpt,
                )?;
                drop(phase_span);
                // The judge phase featurizes through the word tables of
                // the trained weights, not of their initialization.
                model.f32 = model.stacks(Precision::F32);
                obs::logln(obs::Level::Info, "train: judge phase (E' + C)");
                let _judge_span = obs::span("train/judge_phase");
                model.train_judge_phase(dataset, &inputs, &mut rng, ckpt)?;
            }
            TrainMode::OnePhase => {
                obs::logln(obs::Level::Info, "train: one-phase joint training");
                let _span = obs::span("train/one_phase");
                model.train_one_phase(dataset, &inputs, &mut rng);
            }
        }
        model.f32 = model.stacks(Precision::F32);
        Ok(model)
    }

    /// Second phase: cache features with Θ_F frozen, then fit `E'` + `C`.
    fn train_judge_phase(
        &mut self,
        dataset: &Dataset,
        inputs: &HashMap<ProfileIdx, ProfileInput>,
        rng: &mut StdRng,
        ckpt: Option<&CheckpointConfig>,
    ) -> Result<(), TrainError> {
        let mut pair_profiles: Vec<ProfileIdx> = dataset
            .train
            .pos_pairs
            .iter()
            .chain(&dataset.train.neg_pairs)
            .flat_map(|p| [p.i, p.j])
            .collect();
        pair_profiles.sort_unstable();
        pair_profiles.dedup();
        // Θ_F is frozen here, so the eval-mode chunks are independent and
        // fan out across workers; a feature's bits do not depend on its
        // chunk. A worker panic (including the injected `worker-panic`
        // fault) drains the pool and surfaces as a typed error instead of
        // crossing the thread boundary.
        let this = &*self;
        let chunks: Vec<&[ProfileIdx]> = pair_profiles.chunks(FEATURE_CHUNK).collect();
        let parts = parallel::try_parallel_map(&chunks, |chunk| {
            if faultsim::fires(FaultKind::WorkerPanic) {
                panic!("faultsim: injected worker panic");
            }
            let owned: Vec<ProfileInput> = chunk
                .iter()
                .map(|idx| match inputs.get(idx) {
                    Some(input) => input.clone(),
                    None => {
                        this.profile_input_for(dataset, dataset.profile(*idx), Ablation::default())
                    }
                })
                .collect();
            let refs: Vec<&ProfileInput> = owned.iter().collect();
            let feats = this.featurize_inputs(&refs);
            chunk
                .iter()
                .enumerate()
                .map(|(k, idx)| (*idx, feats.row(k).to_vec()))
                .collect::<Vec<_>>()
        })?;
        let mut cache: HashMap<ProfileIdx, Vec<f32>> = HashMap::new();
        for part in parts {
            cache.extend(part);
        }
        let mk = |p: &twitter_sim::Pair, label: bool| FeaturePair {
            fi: &cache[&p.i],
            fj: &cache[&p.j],
            label,
        };
        let positives: Vec<FeaturePair<'_>> = dataset
            .train
            .pos_pairs
            .iter()
            .map(|p| mk(p, true))
            .collect();
        let negatives: Vec<FeaturePair<'_>> = dataset
            .train
            .neg_pairs
            .iter()
            .map(|p| mk(p, false))
            .collect();
        self.judge_losses = try_train_judge(
            &self.judge,
            &mut self.store,
            &positives,
            &negatives,
            &self.spec.config,
            rng,
            ckpt,
        )?;
        Ok(())
    }

    /// The One-phase alternative (§5): featurizer, `E'` and `C` trained
    /// jointly on labeled pairs with the co-location log loss only.
    fn train_one_phase(
        &mut self,
        dataset: &Dataset,
        inputs: &HashMap<ProfileIdx, ProfileInput>,
        rng: &mut StdRng,
    ) {
        let cfg = &self.spec.config;
        let mut ids = self.featurizer.param_ids();
        ids.extend(self.judge.param_ids());
        // Joint training is prone to an early collapse: while the features
        // are still uninformative, the fastest way to cut the pair loss is
        // to make E' constant (driving |E'(fi) - E'(fj)| to zero), which
        // permanently kills its ReLUs. A smaller step and no dropout noise
        // give the feature signal time to emerge first.
        let mut adam = Adam::new(
            &self.store,
            ids,
            AdamConfig {
                lr: cfg.lr * 0.3,
                ..AdamConfig::default()
            },
        );
        let positives = &dataset.train.pos_pairs;
        let negatives = &dataset.train.neg_pairs;
        assert!(!positives.is_empty() && !negatives.is_empty());
        let eff_pos = positives.len() as f64;
        let eff_neg = negatives.len() as f64 * cfg.neg_subsample;
        let p_pos = eff_pos / (eff_pos + eff_neg);
        // Same total gradient-step budget as the two-phase pipeline.
        let iters = cfg.featurizer_iters + cfg.judge_iters;
        for _ in 0..iters {
            let batch: Vec<&twitter_sim::Pair> = (0..cfg.batch)
                .map(|_| {
                    if rng.gen::<f64>() < p_pos {
                        &positives[rng.gen_range(0..positives.len())]
                    } else {
                        &negatives[rng.gen_range(0..negatives.len())]
                    }
                })
                .collect();
            let left: Vec<&ProfileInput> = batch.iter().map(|p| &inputs[&p.i]).collect();
            let right: Vec<&ProfileInput> = batch.iter().map(|p| &inputs[&p.j]).collect();
            let labels = Matrix::from_fn(batch.len(), 1, |r, _| {
                batch[r].co_label.unwrap_or(false) as u8 as f32
            });
            let mut tape = Tape::new();
            let fi = self
                .featurizer
                .forward_batch(&mut tape, &self.store, &left, false, rng);
            let fj = self
                .featurizer
                .forward_batch(&mut tape, &self.store, &right, false, rng);
            let logits = self.judge.forward_logits(&mut tape, &self.store, fi, fj);
            let loss = tape.bce_with_logits(logits, labels);
            self.one_phase_losses
                .push(tape.backward(loss, &mut self.store));
            adam.step(&mut self.store);
        }
    }

    /// Builds the model input for a profile of `dataset`: `Fv` per the
    /// history encoder and the word-vector matrix of the recent tweet.
    pub fn profile_input_for(
        &self,
        dataset: &Dataset,
        profile: &Profile,
        ablation: Ablation,
    ) -> ProfileInput {
        self.profile_input(&dataset.world.pois, profile, ablation)
    }

    /// Per-profile input construction against an explicit POI universe —
    /// the entry point serving layers use for profiles that are not part
    /// of a [`Dataset`]. [`HisRectModel::profile_inputs`] of one profile.
    pub fn profile_input(
        &self,
        pois: &geo::PoiSet,
        profile: &Profile,
        ablation: Ablation,
    ) -> ProfileInput {
        let mut inputs = self.profile_inputs(pois, &[profile], ablation);
        inputs.pop().expect("one input per profile")
    }

    /// Model inputs for a batch of profiles, in order: `Fv` per the
    /// history encoder (Eq. 1 computed once per distinct visit point of
    /// the batch, [`fv_features`]) and the words of each tweet as rows of
    /// the featurizer's word table.
    pub fn profile_inputs(
        &self,
        pois: &geo::PoiSet,
        profiles: &[&Profile],
        ablation: Ablation,
    ) -> Vec<ProfileInput> {
        let cfg = &self.spec.config;
        let fvs = match self.spec.history {
            HistoryEncoder::None => vec![Vec::new(); profiles.len()],
            HistoryEncoder::Rect | HistoryEncoder::OneHot if ablation.drop_history => {
                let n = pois.len();
                vec![vec![1.0 / (n as f32).sqrt(); n]; profiles.len()]
            }
            HistoryEncoder::Rect => fv_features(profiles, pois, cfg.eps_d_m, cfg.eps_t_s),
            HistoryEncoder::OneHot => profiles.iter().map(|p| one_hot_feature(p, pois)).collect(),
        };
        let vectors = self.featurizer.word_vectors();
        profiles
            .iter()
            .zip(fvs)
            .map(|(profile, fv)| {
                let ids = if ablation.drop_content {
                    vec![0; profile.tokens.len()]
                } else {
                    let vocab_ids = self.vocab.encode(&profile.tokens);
                    vocab_ids.iter().map(|&w| w as u32 + 1).collect()
                };
                let vectors = Arc::clone(vectors);
                ProfileInput { fv, ids, vectors }
            })
            .collect()
    }

    /// Evaluation-mode HisRect features for a set of profiles, keyed by
    /// profile index.
    pub fn featurize_many(
        &self,
        dataset: &Dataset,
        idxs: &[ProfileIdx],
        ablation: Ablation,
    ) -> HashMap<ProfileIdx, Vec<f32>> {
        let profiles: Vec<&Profile> = idxs.iter().map(|&i| dataset.profile(i)).collect();
        let feats =
            self.features_profiles(&dataset.world.pois, &profiles, ablation, &self.f32.head);
        idxs.iter().copied().zip(feats).collect()
    }

    /// Evaluation-mode HisRect features for explicit profiles against an
    /// explicit POI universe, in input order, through `head` (from
    /// [`HisRectModel::stacks`]): [`HisRectModel::features_chunk`] over
    /// every [`FEATURE_CHUNK`] profiles, the chunks fanned out across
    /// workers. This is the shared featurization path under
    /// [`HisRectModel::featurize_many`], the CLI `judge` command and the
    /// candidate index build, at either precision.
    pub fn features_profiles(
        &self,
        pois: &geo::PoiSet,
        profiles: &[&Profile],
        ablation: Ablation,
        head: &BoundHead,
    ) -> Vec<Vec<f32>> {
        let _span = obs::span("model/featurize_many");
        let chunks: Vec<&[&Profile]> = profiles.chunks(FEATURE_CHUNK).collect();
        let parts = parallel::parallel_map(&chunks, |chunk| {
            self.features_chunk(pois, chunk, ablation, head)
        });
        parts.into_iter().flatten().collect()
    }

    /// Evaluation-mode features of `profiles` as one batch on the calling
    /// thread: their inputs ([`HisRectModel::profile_inputs`]), one
    /// content-encoder pass and one head pass over all of them. A
    /// feature's bits do not depend on the batch it is computed in.
    pub fn features_chunk(
        &self,
        pois: &geo::PoiSet,
        profiles: &[&Profile],
        ablation: Ablation,
        head: &BoundHead,
    ) -> Vec<Vec<f32>> {
        let inputs = self.profile_inputs(pois, profiles, ablation);
        let refs: Vec<&ProfileInput> = inputs.iter().collect();
        let feats = self.featurizer.features(&self.store, &refs, head);
        feats
            .as_slice()
            .chunks_exact(feats.cols())
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Binds the featurizer head, `E′` and `C` to `precision`. `Int8`
    /// quantizes their trained f32 weights — one pass over them, cheap
    /// enough to run at every model (re)load.
    pub fn stacks(&self, precision: Precision) -> Stacks {
        let _span = obs::span("model/stacks");
        Stacks::bind(&self.store, &self.featurizer, &self.judge, precision)
    }

    /// Eval-mode f32 features for precomputed inputs (`B x feat_dim` rows).
    pub fn featurize_inputs(&self, inputs: &[&ProfileInput]) -> Matrix {
        self.featurizer
            .features(&self.store, inputs, &self.f32.head)
    }

    /// `F(r)` for a single profile.
    pub fn feature(&self, dataset: &Dataset, idx: ProfileIdx, ablation: Ablation) -> Vec<f32> {
        let input = self.profile_input_for(dataset, dataset.profile(idx), ablation);
        self.featurize_inputs(&[&input]).row(0).to_vec()
    }

    /// Co-location probability for a profile pair.
    pub fn judge_pair(&self, dataset: &Dataset, i: ProfileIdx, j: ProfileIdx) -> f32 {
        let fi = self.feature(dataset, i, Ablation::default());
        let fj = self.feature(dataset, j, Ablation::default());
        self.judge_features(&fi, &fj)
    }

    /// Co-location probability from cached features, at f32.
    pub fn judge_features(&self, fi: &[f32], fj: &[f32]) -> f32 {
        self.f32.judge.predict(&self.store, fi, fj)
    }

    /// f32 co-location probabilities for many cached feature pairs in one
    /// batched forward pass through `E'` and `C`. Each output row is
    /// bit-identical to the corresponding single-pair
    /// [`HisRectModel::judge_features`] call (per-row accumulation order
    /// does not depend on the batch size).
    pub fn judge_features_batch(&self, pairs: &[(&[f32], &[f32])]) -> Vec<f32> {
        self.f32.judge.predict_batch(&self.store, pairs)
    }

    /// POI class probabilities from a cached feature.
    pub fn poi_probs_from_feature(&self, feature: &[f32]) -> Vec<f32> {
        let mut tape = Tape::new();
        let f = tape.input(Matrix::row_vector(feature));
        let logits = self.nets.classifier.forward(&mut tape, &self.store, f);
        tape.softmax_probs(logits).row(0).to_vec()
    }

    /// POI class probabilities for a profile.
    pub fn poi_probs(&self, dataset: &Dataset, idx: ProfileIdx) -> Vec<f32> {
        let f = self.feature(dataset, idx, Ablation::default());
        self.poi_probs_from_feature(&f)
    }

    /// The naive Comp2Loc decision for a pair.
    pub fn comp2loc_pair(&self, dataset: &Dataset, i: ProfileIdx, j: ProfileIdx) -> bool {
        comp2loc(&self.poi_probs(dataset, i), &self.poi_probs(dataset, j))
    }

    /// Serializes the trained system (architecture spec, vocabulary, word
    /// vectors and every network parameter) for later reuse.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot {
            spec: self.spec.clone(),
            n_pois: self.n_pois,
            vocab: self.vocab.clone(),
            skipgram: self.skipgram.clone(),
            params: self.store.to_snapshot(),
        }
    }

    /// Reconstructs a trained model from a snapshot. The network layers are
    /// re-allocated (shapes are fully determined by the spec and `n_pois`)
    /// and their values restored by parameter name.
    ///
    /// Panics on an inconsistent snapshot; use
    /// [`HisRectModel::try_from_snapshot`] to get a typed error instead.
    pub fn from_snapshot(snap: ModelSnapshot) -> Self {
        Self::try_from_snapshot(snap).expect("valid snapshot")
    }

    /// [`HisRectModel::from_snapshot`] with full validation: the config is
    /// sanity-checked and the stored vocabulary, word-vector table and
    /// every network tensor must agree with the dimensions the spec
    /// declares (`word_dim`, `feat_dim`, `n_pois`, …) before anything is
    /// restored.
    pub fn try_from_snapshot(snap: ModelSnapshot) -> Result<Self, ModelError> {
        let cfg = &snap.spec.config;
        cfg.validate().map_err(ModelError::SchemaMismatch)?;
        if snap.n_pois == 0 {
            return Err(ModelError::ShapeMismatch(
                "snapshot declares an empty POI universe".into(),
            ));
        }
        if snap.skipgram.vocab_size() != snap.vocab.len() {
            return Err(ModelError::ShapeMismatch(format!(
                "word-vector table has {} rows but the vocabulary has {} entries",
                snap.skipgram.vocab_size(),
                snap.vocab.len()
            )));
        }
        if snap.skipgram.dim() != cfg.word_dim {
            return Err(ModelError::ShapeMismatch(format!(
                "word vectors are {}-dimensional but the spec declares word_dim = {}",
                snap.skipgram.dim(),
                cfg.word_dim
            )));
        }
        // Seed is irrelevant: every initialized value is overwritten below.
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let featurizer = Featurizer::new(
            &mut store,
            cfg,
            snap.spec.history,
            snap.spec.content,
            snap.n_pois,
            &mut rng,
        )
        .with_word_vectors(snap.skipgram.vectors());
        let nets = SslNets::new(
            &mut store,
            cfg,
            featurizer.feat_dim(),
            snap.n_pois,
            &mut rng,
        );
        let judge = Judge::new(&mut store, cfg, featurizer.feat_dim(), &mut rng);
        let restored = store
            .try_load_snapshot(&snap.params)
            .map_err(ModelError::ShapeMismatch)?;
        if restored != store.len() {
            return Err(ModelError::ShapeMismatch(format!(
                "snapshot covers {restored} of {} parameters (wrong n_pois or architecture?)",
                store.len()
            )));
        }
        let f32 = Stacks::bind(&store, &featurizer, &judge, Precision::F32);
        Ok(Self {
            spec: snap.spec,
            n_pois: snap.n_pois,
            store,
            vocab: snap.vocab,
            skipgram: snap.skipgram,
            featurizer,
            nets,
            judge,
            f32,
            ssl_stats: SslStats::default(),
            judge_losses: Vec::new(),
            one_phase_losses: Vec::new(),
        })
    }

    /// Writes the snapshot as JSON.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string(&self.snapshot()).expect("serializable snapshot");
        std::fs::write(path, json)
    }

    /// Loads a model previously written by [`HisRectModel::save_json`].
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        Self::try_load_json(path).map_err(|e| match e {
            ModelError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        })
    }

    /// [`HisRectModel::load_json`] with typed errors: unreadable files,
    /// non-JSON bytes, de-schema'd JSON and shape mismatches are reported
    /// as distinct [`ModelError`] variants.
    pub fn try_load_json(path: &std::path::Path) -> Result<Self, ModelError> {
        let json = std::fs::read_to_string(path)?;
        let snap: ModelSnapshot = match serde_json::from_str(&json) {
            Ok(snap) => snap,
            Err(e) => {
                // Distinguish "not JSON at all" from "JSON of the wrong
                // shape": the latter still parses as a generic value.
                return Err(
                    if serde_json::from_str::<serde_json::Value>(&json).is_ok() {
                        ModelError::SchemaMismatch(e.to_string())
                    } else {
                        ModelError::Parse(e.to_string())
                    },
                );
            }
        };
        Self::try_from_snapshot(snap)
    }

    /// Extracts just the network parameter values from a model file
    /// written by [`HisRectModel::save_json`] — the warm-start path
    /// ([`HisRectModel::try_train_from`]). The full model (vocabulary,
    /// word vectors) is deliberately *not* reconstructed: the next window
    /// retrains those, and validation against the new architecture
    /// happens when the snapshot is loaded into the fresh store.
    pub fn warm_start_params(path: &std::path::Path) -> Result<ParamSnapshot, ModelError> {
        let json = std::fs::read_to_string(path)?;
        let snap: ModelSnapshot =
            serde_json::from_str(&json).map_err(|e| ModelError::SchemaMismatch(e.to_string()))?;
        Ok(snap.params)
    }

    /// The trained vocabulary (for inspection / experiments).
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The trained word vectors.
    pub fn skipgram(&self) -> &SkipGram {
        &self.skipgram
    }

    /// Feature dimensionality `|F(r)|`.
    pub fn feat_dim(&self) -> usize {
        self.featurizer.feat_dim()
    }

    /// Number of trainable scalars across all components.
    pub fn n_parameters(&self) -> usize {
        self.store.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ApproachSpec;
    use twitter_sim::{generate, SimConfig};

    fn fast_spec(spec: ApproachSpec) -> ApproachSpec {
        spec.with_config(|c| {
            *c = crate::config::HisRectConfig {
                featurizer_iters: 60,
                judge_iters: 60,
                ..crate::config::HisRectConfig::fast()
            };
        })
    }

    #[test]
    fn trains_and_judges_end_to_end() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(ApproachSpec::hisrect()), 5);
        assert!(!model.ssl_stats.poi_losses.is_empty());
        assert!(!model.judge_losses.is_empty());
        let pair = ds.test.pos_pairs[0];
        let p = model.judge_pair(&ds, pair.i, pair.j);
        assert!((0.0..=1.0).contains(&p));
        let probs = model.poi_probs(&ds, ds.test.labeled[0]);
        assert_eq!(probs.len(), ds.world.pois.len());
        let s: f32 = probs.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn one_phase_trains_jointly() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(ApproachSpec::one_phase()), 5);
        assert!(model.judge_losses.is_empty());
        assert!(!model.one_phase_losses.is_empty());
        let pair = ds.test.neg_pairs[0];
        let p = model.judge_pair(&ds, pair.i, pair.j);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn ablations_change_features() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(ApproachSpec::hisrect()), 5);
        // Pick a labeled profile with both history and content, so both
        // ablations actually remove something.
        let idx = *ds
            .test
            .labeled
            .iter()
            .find(|&&i| !ds.profile(i).visits.is_empty() && !ds.profile(i).tokens.is_empty())
            .expect("such a profile exists in the tiny dataset");
        let full = model.feature(&ds, idx, Ablation::default());
        let no_h = model.feature(
            &ds,
            idx,
            Ablation {
                drop_history: true,
                drop_content: false,
            },
        );
        let no_t = model.feature(
            &ds,
            idx,
            Ablation {
                drop_history: false,
                drop_content: true,
            },
        );
        assert_ne!(full, no_h);
        assert_ne!(full, no_t);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(ApproachSpec::hisrect()), 5);
        let restored = HisRectModel::from_snapshot(model.snapshot());
        let pair = ds.test.pos_pairs[0];
        assert_eq!(
            model.judge_pair(&ds, pair.i, pair.j),
            restored.judge_pair(&ds, pair.i, pair.j)
        );
        let idx = ds.test.labeled[0];
        assert_eq!(model.poi_probs(&ds, idx), restored.poi_probs(&ds, idx));
    }

    #[test]
    fn save_load_json_round_trip() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(ApproachSpec::tweet_only()), 5);
        let dir = std::env::temp_dir().join("hisrect-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save_json(&path).unwrap();
        let restored = HisRectModel::load_json(&path).unwrap();
        let pair = ds.test.neg_pairs[0];
        assert_eq!(
            model.judge_pair(&ds, pair.i, pair.j),
            restored.judge_pair(&ds, pair.i, pair.j)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn featurize_many_matches_single() {
        let ds = generate(&SimConfig::tiny(5));
        let model = HisRectModel::train(&ds, &fast_spec(ApproachSpec::tweet_only()), 5);
        let idxs: Vec<_> = ds.test.labeled.iter().copied().take(5).collect();
        let many = model.featurize_many(&ds, &idxs, Ablation::default());
        for &i in &idxs {
            let single = model.feature(&ds, i, Ablation::default());
            let batch = &many[&i];
            for (a, b) in single.iter().zip(batch) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
