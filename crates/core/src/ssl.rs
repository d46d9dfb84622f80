//! Semi-supervised featurizer training (Algorithm 1, §4.4).
//!
//! Alternates between supervised POI-classifier batches (`L_poi`, updating
//! Θ_F and Θ_P) and unsupervised embedding batches over the affinity graph
//! (`L_u`, updating Θ_F and Θ_E), choosing the branch with probability
//! proportional to `|R_L| : |Γ_L ∪ Γ_U|` as in the listing.

use crate::affinity::WeightedPair;
use crate::ckpt::{self, BestState, CheckpointConfig, MemorySnapshot, TrainCheckpoint};
use crate::config::{HisRectConfig, UnsupLoss};
use crate::error::TrainError;
use crate::featurizer::{Featurizer, ProfileInput};
use crate::model::Precision;
use faultsim::FaultKind;
use nn::{Adam, AdamConfig, FeedForward, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use twitter_sim::ProfileIdx;

/// Checkpoint-phase name of the featurizer stage.
pub const PHASE_FEATURIZER: &str = "featurizer";

/// Iterations between in-memory last-known-good snapshots (divergence
/// rollback granularity). Always on: capturing reads no RNG and costs one
/// parameter copy, so the default training path is numerically unchanged.
pub(crate) const RECOVERY_EVERY: usize = 25;

/// Rollback + learning-rate-backoff attempts before giving up on a
/// divergence.
pub(crate) const MAX_RETRIES: usize = 3;

/// The two networks trained jointly with the featurizer: the POI classifier
/// `P` and the SSL embedding `E`.
#[derive(Debug, Clone)]
pub struct SslNets {
    /// `P`: feed-forward classifier over HisRect features → `|P|` logits.
    pub classifier: FeedForward,
    /// `E`: feed-forward embedding; its output is ℓ2-normalized in-graph.
    pub embed: FeedForward,
}

impl SslNets {
    /// Allocates both networks for a featurizer of width `feat_dim` over
    /// `n_pois` classes.
    pub fn new(
        store: &mut ParamStore,
        cfg: &HisRectConfig,
        feat_dim: usize,
        n_pois: usize,
        rng: &mut StdRng,
    ) -> Self {
        // P: qp hidden layers of feat_dim, then the logit layer.
        let mut pdims = vec![feat_dim];
        pdims.extend(std::iter::repeat_n(feat_dim, cfg.qp));
        pdims.push(n_pois);
        let classifier =
            FeedForward::new(store, "ssl/classifier", &pdims, false, cfg.init_std, rng);
        // E: qe layers narrowing to embed_dim, linear last (normalized
        // in-graph per the definition of E in §4.4).
        let mut edims = vec![feat_dim];
        edims.extend(std::iter::repeat_n(cfg.embed_dim, cfg.qe.max(1)));
        let embed = FeedForward::new(store, "ssl/embed", &edims, false, cfg.init_std, rng);
        Self { classifier, embed }
    }
}

/// Loss traces of a training run (per executed iteration of each branch).
#[derive(Debug, Default, Clone)]
pub struct SslStats {
    /// Per-iteration supervised losses `L_poi`.
    pub poi_losses: Vec<f32>,
    /// Per-iteration unsupervised losses `L_u`.
    pub unsup_losses: Vec<f32>,
    /// Validation losses (iteration, loss), when early stopping is on.
    pub valid_losses: Vec<(usize, f32)>,
    /// Iteration whose parameters were restored (None = final).
    pub best_iteration: Option<usize>,
}

impl SslStats {
    /// Mean of the last `k` POI losses.
    pub fn recent_poi_loss(&self, k: usize) -> f32 {
        mean_tail(&self.poi_losses, k)
    }

    /// Mean of the last `k` unsupervised losses.
    pub fn recent_unsup_loss(&self, k: usize) -> f32 {
        mean_tail(&self.unsup_losses, k)
    }
}

fn mean_tail(xs: &[f32], k: usize) -> f32 {
    if xs.is_empty() {
        return f32::NAN;
    }
    let tail = &xs[xs.len().saturating_sub(k)..];
    tail.iter().sum::<f32>() / tail.len() as f32
}

/// Computes the in-graph embedding `E(F(r))` (normalized unless the loss
/// variant bypasses `E`).
fn embed_features(
    tape: &mut Tape,
    store: &ParamStore,
    nets: &SslNets,
    feats: Var,
    unsup: UnsupLoss,
) -> Var {
    match unsup {
        UnsupLoss::L2NoEmbed => feats,
        _ => {
            let e = nets.embed.forward(tape, store, feats);
            tape.l2_normalize_rows(e)
        }
    }
}

/// Builds the unsupervised loss `L_u` over a batch of embedded pairs.
fn unsup_loss(tape: &mut Tape, ei: Var, ej: Var, weights: tensor::Matrix, unsup: UnsupLoss) -> Var {
    match unsup {
        UnsupLoss::Cosine => {
            // a_ij (1 − ⟨e_i, e_j⟩): embeddings are unit rows, so the
            // row-wise dot *is* the cosine.
            let prod = tape.mul(ei, ej);
            let cos = tape.row_sum(prod);
            let one_minus = tape.affine(cos, -1.0, 1.0);
            let weighted = tape.mul_const(one_minus, weights);
            tape.mean_all(weighted)
        }
        UnsupLoss::L2 | UnsupLoss::L2NoEmbed => {
            // a_ij ‖e_i − e_j‖² (Algorithm 1, line 11).
            let diff = tape.sub(ei, ej);
            let sq = tape.mul(diff, diff);
            let ss = tape.row_sum(sq);
            let weighted = tape.mul_const(ss, weights);
            tape.mean_all(weighted)
        }
    }
}

/// Weighted pair sampler implementing the §6.1.2 rule: positives always
/// eligible, negative/unlabeled pairs down-weighted to `neg_subsample`.
struct PairSampler<'a> {
    positives: Vec<&'a WeightedPair>,
    others: Vec<&'a WeightedPair>,
    p_positive: f64,
}

impl<'a> PairSampler<'a> {
    fn new(pairs: &'a [WeightedPair], neg_subsample: f64) -> Option<Self> {
        let (positives, others): (Vec<_>, Vec<_>) = pairs.iter().partition(|w| w.labeled_positive);
        let eff_pos = positives.len() as f64;
        let eff_other = others.len() as f64 * neg_subsample;
        let total = eff_pos + eff_other;
        if total <= 0.0 {
            return None;
        }
        Some(Self {
            positives,
            others,
            p_positive: eff_pos / total,
        })
    }

    /// Effective pair-set size `|Γ_L ∪ Γ_U|` after subsampling.
    fn effective_len(&self) -> f64 {
        self.positives.len() as f64 + self.others.len() as f64
    }

    fn sample(&self, rng: &mut StdRng) -> &'a WeightedPair {
        if (!self.positives.is_empty() && rng.gen::<f64>() < self.p_positive)
            || self.others.is_empty()
        {
            self.positives[rng.gen_range(0..self.positives.len())]
        } else {
            self.others[rng.gen_range(0..self.others.len())]
        }
    }
}

/// Algorithm 1. When `semi` is false the pair branch is skipped entirely
/// (the HisRect-SL ablation). Returns the loss traces.
#[allow(clippy::too_many_arguments)]
pub fn train_featurizer(
    featurizer: &Featurizer,
    nets: &SslNets,
    store: &mut ParamStore,
    inputs: &HashMap<ProfileIdx, ProfileInput>,
    labeled: &[(ProfileIdx, usize)],
    pairs: &[WeightedPair],
    cfg: &HisRectConfig,
    semi: bool,
    rng: &mut StdRng,
) -> SslStats {
    train_featurizer_with_validation(
        featurizer,
        nets,
        store,
        inputs,
        labeled,
        pairs,
        &[],
        cfg,
        semi,
        rng,
    )
}

/// [`train_featurizer`] with a validation set for early stopping. When
/// `cfg.early_stop` is set and `valid` is non-empty, the POI cross-entropy
/// on `valid` is evaluated every `cfg.eval_every` iterations and the
/// best-scoring parameters are restored at the end. `valid` inputs are
/// keyed through the same `inputs` map.
#[allow(clippy::too_many_arguments)]
pub fn train_featurizer_with_validation(
    featurizer: &Featurizer,
    nets: &SslNets,
    store: &mut ParamStore,
    inputs: &HashMap<ProfileIdx, ProfileInput>,
    labeled: &[(ProfileIdx, usize)],
    pairs: &[WeightedPair],
    valid: &[(ProfileIdx, usize)],
    cfg: &HisRectConfig,
    semi: bool,
    rng: &mut StdRng,
) -> SslStats {
    try_train_featurizer_with_validation(
        featurizer, nets, store, inputs, labeled, pairs, valid, cfg, semi, rng, None,
    )
    .expect("featurizer training failed")
}

/// [`train_featurizer_with_validation`] with fault tolerance: periodic
/// checkpoints + resume when `ckpt` is set, and non-finite-loss recovery
/// (rollback to the last in-memory snapshot with learning-rate backoff)
/// always. With `ckpt = None` and no injected faults the iteration
/// stream — every batch draw, every update — is bit-identical to the
/// plain trainer.
#[allow(clippy::too_many_arguments)]
pub fn try_train_featurizer_with_validation(
    featurizer: &Featurizer,
    nets: &SslNets,
    store: &mut ParamStore,
    inputs: &HashMap<ProfileIdx, ProfileInput>,
    labeled: &[(ProfileIdx, usize)],
    pairs: &[WeightedPair],
    valid: &[(ProfileIdx, usize)],
    cfg: &HisRectConfig,
    semi: bool,
    rng: &mut StdRng,
    ckpt: Option<&CheckpointConfig>,
) -> Result<SslStats, TrainError> {
    assert!(!labeled.is_empty(), "need labeled profiles for L_poi");
    let adam_cfg = AdamConfig {
        lr: cfg.lr,
        ..AdamConfig::default()
    };
    let mut poi_ids = featurizer.param_ids();
    poi_ids.extend(nets.classifier.param_ids());
    // Fault-injection probe: a parameter inside both optimizer groups.
    let probe_id = poi_ids[0];
    let mut adam_poi = Adam::new(store, poi_ids, adam_cfg.clone());
    let mut unsup_ids = featurizer.param_ids();
    unsup_ids.extend(nets.embed.param_ids());
    let mut adam_unsup = Adam::new(store, unsup_ids, adam_cfg);

    let sampler = if semi {
        PairSampler::new(pairs, cfg.neg_subsample)
    } else {
        None
    };
    // γ_poi = |R_L| / Ω (Algorithm 1, line 2). The listing alternates the
    // two branches with this probability until both losses converge; under
    // our *fixed* iteration budget a literal alternation would hand the
    // semi-supervised variant fewer supervised batches than HisRect-SL
    // gets, conflating "uses unlabeled data" with "trains the classifier
    // less". We therefore run one supervised batch every iteration and
    // interleave unsupervised batches at the rate the γ ratio implies
    // (capped at one per iteration).
    let p_unsup = match &sampler {
        Some(s) => {
            let gamma = labeled.len() as f64 / (labeled.len() as f64 + s.effective_len());
            ((1.0 - gamma) / gamma.max(1e-9)).min(1.0)
        }
        None => 0.0,
    };

    let monitor = cfg.early_stop && !valid.is_empty();
    let mut best: Option<(f32, usize, nn::params::ParamSnapshot)> = None;

    let mut stats = SslStats::default();
    let mut start_iter = 0usize;
    if let Some(c) = ckpt {
        if c.resume {
            if let Some((snap, path)) = ckpt::latest_valid(&c.dir, PHASE_FEATURIZER) {
                ckpt::restore_training_state(
                    store,
                    &mut [&mut adam_poi, &mut adam_unsup],
                    rng,
                    &snap.params,
                    &snap.adams,
                    &snap.rng,
                )
                .map_err(TrainError::Checkpoint)?;
                stats.poi_losses = snap.poi_losses;
                stats.unsup_losses = snap.unsup_losses;
                stats.valid_losses = snap.valid_losses;
                stats.best_iteration = snap.best_iteration;
                best = snap.best.map(|b| (b.loss, b.iteration, b.params));
                start_iter = snap.iteration;
                obs::logln(
                    obs::Level::Info,
                    &format!(
                        "resumed featurizer phase at iteration {start_iter} from {}",
                        path.display()
                    ),
                );
                if start_iter >= cfg.featurizer_iters {
                    // The phase-complete snapshot: nothing left to run (the
                    // early-stop restore, if any, is already baked in). Say
                    // so loudly — a caller reusing a finished run's dir to
                    // "continue training" gets zero iterations here; carrying
                    // weights into a new run is the warm-start path
                    // (`HisRectModel::try_train_from`), not resume.
                    obs::logln(
                        obs::Level::Info,
                        "featurizer phase already complete; running 0 iterations \
                         (use warm-start, not resume, to train further from these weights)",
                    );
                    obs::incr("ckpt/phase_complete_noop");
                    return Ok(stats);
                }
            }
        }
    }

    let save_checkpoint = |iteration: usize,
                           store: &ParamStore,
                           adam_poi: &Adam,
                           adam_unsup: &Adam,
                           rng: &StdRng,
                           stats: &SslStats,
                           best: &Option<(f32, usize, nn::params::ParamSnapshot)>|
     -> Result<(), TrainError> {
        let Some(c) = ckpt else { return Ok(()) };
        let snap = TrainCheckpoint {
            phase: PHASE_FEATURIZER.into(),
            iteration,
            params: store.to_snapshot(),
            adams: vec![adam_poi.state(), adam_unsup.state()],
            rng: rng.state().to_vec(),
            poi_losses: stats.poi_losses.clone(),
            unsup_losses: stats.unsup_losses.clone(),
            valid_losses: stats.valid_losses.clone(),
            best_iteration: stats.best_iteration,
            best: best.as_ref().map(|(loss, it, params)| BestState {
                loss: *loss,
                iteration: *it,
                params: params.clone(),
            }),
        };
        ckpt::save(&c.dir, &snap).map_err(|e| TrainError::Checkpoint(e.to_string()))?;
        Ok(())
    };

    let _span = obs::span("ssl/train_featurizer");
    // Per-iteration samples are accumulated locally and flushed to obs
    // in one batch per phase exit: the per-iteration registry lock was
    // what pushed metrics-on overhead past the <2% budget. Loss series
    // live in `stats` (so divergence rollback truncates them for free);
    // grad norms and example counts are tracked alongside. `obs_base`
    // marks where any checkpoint-restored prefix ends, so resumed
    // entries are never re-flushed.
    let obs_base = (stats.poi_losses.len(), stats.unsup_losses.len());
    let mut grad_poi: Vec<f32> = Vec::new();
    let mut grad_unsup: Vec<f32> = Vec::new();
    let mut poi_examples = 0u64;
    let mut unsup_examples = 0u64;
    let flush_obs = |stats: &SslStats,
                     grad_poi: &[f32],
                     grad_unsup: &[f32],
                     poi_examples: u64,
                     unsup_examples: u64| {
        if !obs::enabled() {
            return;
        }
        obs::extend("ssl/l_poi", &stats.poi_losses[obs_base.0..]);
        obs::extend("ssl/grad_norm_poi", grad_poi);
        obs::extend("ssl/l_u", &stats.unsup_losses[obs_base.1..]);
        obs::extend("ssl/grad_norm_unsup", grad_unsup);
        if poi_examples > 0 {
            obs::add("ssl/poi_examples", poi_examples);
        }
        if unsup_examples > 0 {
            obs::add("ssl/unsup_examples", unsup_examples);
        }
        tensor::flush_dispatch_stats();
        tensor::pool::publish_obs();
    };
    let mut last_good: Option<MemorySnapshot> = None;
    let mut retries = 0usize;
    let mut iter = start_iter;
    while iter < cfg.featurizer_iters {
        if let Some(c) = ckpt {
            if c.every > 0 && iter > start_iter && iter.is_multiple_of(c.every) {
                save_checkpoint(iter, store, &adam_poi, &adam_unsup, rng, &stats, &best)?;
            }
        }
        if faultsim::fires(FaultKind::Crash) {
            flush_obs(&stats, &grad_poi, &grad_unsup, poi_examples, unsup_examples);
            return Err(TrainError::Interrupted {
                phase: PHASE_FEATURIZER.into(),
                iteration: iter,
            });
        }
        if last_good
            .as_ref()
            .is_none_or(|s| iter >= s.iteration + RECOVERY_EVERY)
        {
            last_good = Some(MemorySnapshot {
                iteration: iter,
                params: store.to_snapshot(),
                adams: vec![adam_poi.state(), adam_unsup.state()],
                rng: rng.state(),
                trace_lens: vec![
                    stats.poi_losses.len(),
                    stats.unsup_losses.len(),
                    stats.valid_losses.len(),
                ],
            });
            retries = 0;
        }
        let mut healthy = true;
        if monitor && iter.is_multiple_of(cfg.eval_every.max(1)) {
            let loss = validation_loss(featurizer, nets, store, inputs, valid);
            obs::push("ssl/valid_loss", loss);
            stats.valid_losses.push((iter, loss));
            if best.as_ref().is_none_or(|(b, _, _)| loss < *b) {
                best = Some((loss, iter, store.to_snapshot()));
            }
        }
        {
            let batch: Vec<&(ProfileIdx, usize)> = (0..cfg.batch)
                .map(|_| &labeled[rng.gen_range(0..labeled.len())])
                .collect();
            let ins: Vec<&ProfileInput> = batch.iter().map(|(idx, _)| &inputs[idx]).collect();
            let targets: Vec<usize> = batch.iter().map(|&&(_, pid)| pid).collect();
            let mut tape = Tape::new();
            let feats = featurizer.forward_batch(&mut tape, store, &ins, true, rng);
            let logits = nets.classifier.forward(&mut tape, store, feats);
            let loss = tape.softmax_cross_entropy(logits, &targets);
            let loss = tape.backward(loss, store);
            inject_nan_grad(store, probe_id);
            stats.poi_losses.push(loss);
            let grad_norm = adam_poi.step(store);
            grad_poi.push(grad_norm);
            poi_examples += batch.len() as u64;
            healthy &= loss.is_finite() && grad_norm.is_finite();
        }
        if let Some(s) = &sampler {
            if rng.gen::<f64>() < p_unsup {
                let batch: Vec<&WeightedPair> = (0..cfg.batch).map(|_| s.sample(rng)).collect();
                let left: Vec<&ProfileInput> = batch.iter().map(|w| &inputs[&w.i]).collect();
                let right: Vec<&ProfileInput> = batch.iter().map(|w| &inputs[&w.j]).collect();
                let weights = tensor::Matrix::from_fn(batch.len(), 1, |r, _| batch[r].a);
                let mut tape = Tape::new();
                let fi = featurizer.forward_batch(&mut tape, store, &left, true, rng);
                let fj = featurizer.forward_batch(&mut tape, store, &right, true, rng);
                let ei = embed_features(&mut tape, store, nets, fi, cfg.unsup);
                let ej = embed_features(&mut tape, store, nets, fj, cfg.unsup);
                let loss = unsup_loss(&mut tape, ei, ej, weights, cfg.unsup);
                let loss = tape.backward(loss, store);
                stats.unsup_losses.push(loss);
                let grad_norm = adam_unsup.step(store);
                grad_unsup.push(grad_norm);
                unsup_examples += batch.len() as u64;
                healthy &= loss.is_finite() && grad_norm.is_finite();
            }
        }
        if obs::log_on(obs::Level::Trace) {
            obs::logln(
                obs::Level::Trace,
                &format!(
                    "ssl iter {iter}: L_poi = {:.4}, L_u = {:?}",
                    stats.poi_losses.last().copied().unwrap_or(f32::NAN),
                    stats.unsup_losses.last()
                ),
            );
        }
        if !healthy {
            let snap = last_good.as_ref().expect("captured at loop entry");
            retries += 1;
            obs::incr("train/divergence_detected");
            if retries > MAX_RETRIES {
                flush_obs(&stats, &grad_poi, &grad_unsup, poi_examples, unsup_examples);
                return Err(TrainError::Diverged {
                    phase: PHASE_FEATURIZER.into(),
                    iteration: iter,
                    retries: retries - 1,
                });
            }
            rollback(
                store,
                &mut [&mut adam_poi, &mut adam_unsup],
                rng,
                snap,
                retries,
            );
            stats.poi_losses.truncate(snap.trace_lens[0]);
            stats.unsup_losses.truncate(snap.trace_lens[1]);
            stats.valid_losses.truncate(snap.trace_lens[2]);
            // The local grad-norm batches track the loss series 1:1
            // past the resumed prefix, so the rollback truncates them
            // to the matching lengths.
            grad_poi.truncate(snap.trace_lens[0].saturating_sub(obs_base.0));
            grad_unsup.truncate(snap.trace_lens[1].saturating_sub(obs_base.1));
            iter = snap.iteration;
            continue;
        }
        iter += 1;
    }
    if monitor {
        let final_loss = validation_loss(featurizer, nets, store, inputs, valid);
        obs::push("ssl/valid_loss", final_loss);
        stats.valid_losses.push((cfg.featurizer_iters, final_loss));
        if let Some((best_loss, iter, snap)) = best.take() {
            if best_loss < final_loss {
                store.load_snapshot(&snap);
                stats.best_iteration = Some(iter);
            }
        }
    }
    // Phase-complete snapshot: lets a later interrupt (e.g. mid-judge)
    // resume without re-running this phase.
    save_checkpoint(
        cfg.featurizer_iters,
        store,
        &adam_poi,
        &adam_unsup,
        rng,
        &stats,
        &None,
    )?;
    flush_obs(&stats, &grad_poi, &grad_unsup, poi_examples, unsup_examples);
    Ok(stats)
}

/// The `nan-grad` fault hook: poisons one gradient slot of `id` — a
/// parameter inside the running phase's optimizer group — after the
/// backward pass, so the next optimizer step sees a non-finite gradient
/// norm.
pub(crate) fn inject_nan_grad(store: &mut ParamStore, id: nn::ParamId) {
    if faultsim::fires(FaultKind::NanGrad) {
        store.get_mut(id).grad.set(0, 0, f32::NAN);
    }
}

/// Rolls training back to `snap` and backs the learning rates off by
/// `0.5^retries` relative to the snapshot, so repeated rollbacks to the
/// same snapshot keep shrinking the step. Surfaced in the
/// `train/divergence_rollbacks` counter.
pub(crate) fn rollback(
    store: &mut ParamStore,
    adams: &mut [&mut Adam],
    rng: &mut StdRng,
    snap: &MemorySnapshot,
    retries: usize,
) {
    ckpt::restore_training_state(store, adams, rng, &snap.params, &snap.adams, &snap.rng)
        .expect("in-memory snapshot matches the live model");
    for adam in adams.iter_mut() {
        for _ in 0..retries {
            adam.scale_lr(0.5);
        }
    }
    obs::incr("train/divergence_rollbacks");
    obs::logln(
        obs::Level::Info,
        &format!(
            "divergence: rolled back to iteration {} (retry {retries}, lr halved)",
            snap.iteration
        ),
    );
}

/// Evaluation-mode POI cross-entropy over (at most 256 of) the validation
/// profiles.
fn validation_loss(
    featurizer: &Featurizer,
    nets: &SslNets,
    store: &ParamStore,
    inputs: &HashMap<ProfileIdx, ProfileInput>,
    valid: &[(ProfileIdx, usize)],
) -> f32 {
    let sample = &valid[..valid.len().min(256)];
    // Θ is frozen and dropout is off, so each eval chunk is an independent
    // pure forward; fan them out and reduce in chunk order (bit-identical
    // to the serial accumulation).
    let chunks: Vec<&[(ProfileIdx, usize)]> = sample.chunks(64).collect();
    let head = featurizer.head_at(store, Precision::F32);
    let losses = parallel::parallel_map(&chunks, |chunk| {
        let ins: Vec<&ProfileInput> = chunk.iter().map(|(idx, _)| &inputs[idx]).collect();
        let targets: Vec<usize> = chunk.iter().map(|&(_, pid)| pid).collect();
        let mut tape = Tape::new();
        let feats = tape.input(featurizer.features(store, &ins, &head));
        let logits = nets.classifier.forward(&mut tape, store, feats);
        let loss = tape.softmax_cross_entropy(logits, &targets);
        tape.scalar(loss) as f64 * chunk.len() as f64
    });
    let total: f64 = losses.into_iter().sum();
    let n: usize = sample.len();
    (total / n.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApproachSpec, ContentEncoder, HistoryEncoder};
    use rand::SeedableRng;
    use std::sync::Arc;
    use tensor::Matrix;

    /// A synthetic two-class problem: class is fully determined by the Fv
    /// vector, so the featurizer + classifier must fit it quickly.
    fn toy_setup(
        semi: bool,
        unsup: UnsupLoss,
    ) -> (SslStats, Featurizer, SslNets, ParamStore, HisRectConfig) {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = HisRectConfig {
            word_dim: 6,
            hidden_n: 4,
            feat_dim: 8,
            embed_dim: 6,
            batch: 8,
            featurizer_iters: 120,
            unsup,
            ..HisRectConfig::fast()
        };
        let mut store = ParamStore::new();
        let featurizer = Featurizer::new(
            &mut store,
            &cfg,
            HistoryEncoder::Rect,
            ContentEncoder::None,
            4,
            &mut rng,
        );
        let nets = SslNets::new(&mut store, &cfg, featurizer.feat_dim(), 2, &mut rng);

        let mut inputs = HashMap::new();
        let mut labeled = Vec::new();
        for k in 0..40usize {
            let class = k % 2;
            let mut fv = vec![0.05f32; 4];
            fv[class] = 0.9;
            fv[2 + class] = 0.4;
            inputs.insert(
                k,
                ProfileInput {
                    fv,
                    ids: Vec::new(),
                    vectors: Arc::new(Matrix::zeros(1, 6)),
                },
            );
            labeled.push((k, class));
        }
        // Pairs: same-class positives, cross-class negatives.
        let mut pairs = Vec::new();
        for a in 0..20usize {
            for b in (a + 1)..20 {
                let same = a % 2 == b % 2;
                pairs.push(WeightedPair {
                    i: a,
                    j: b,
                    a: if same { 1.0 } else { -1.0 },
                    labeled_positive: same,
                });
            }
        }
        let stats = train_featurizer(
            &featurizer,
            &nets,
            &mut store,
            &inputs,
            &labeled,
            &pairs,
            &cfg,
            semi,
            &mut rng,
        );
        (stats, featurizer, nets, store, cfg)
    }

    #[test]
    fn supervised_loss_decreases() {
        let (stats, ..) = toy_setup(false, UnsupLoss::Cosine);
        assert!(stats.unsup_losses.is_empty(), "SL mode must skip pairs");
        let early = stats.poi_losses[..10].iter().sum::<f32>() / 10.0;
        let late = stats.recent_poi_loss(10);
        assert!(late < early, "early = {early}, late = {late}");
        assert!(late < 0.4, "late = {late}");
    }

    #[test]
    fn semi_supervised_runs_both_branches() {
        let (stats, ..) = toy_setup(true, UnsupLoss::Cosine);
        assert!(!stats.poi_losses.is_empty());
        assert!(!stats.unsup_losses.is_empty());
    }

    #[test]
    fn classifier_separates_classes_after_training() {
        let (_, featurizer, nets, store, _) = toy_setup(false, UnsupLoss::Cosine);
        let mk = |class: usize| {
            let mut fv = vec![0.05f32; 4];
            fv[class] = 0.9;
            fv[2 + class] = 0.4;
            ProfileInput {
                fv,
                ids: Vec::new(),
                vectors: Arc::new(Matrix::zeros(1, 6)),
            }
        };
        let a = mk(0);
        let b = mk(1);
        let mut tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let feats = featurizer.forward_batch(&mut tape, &store, &[&a, &b], false, &mut rng);
        let logits = nets.classifier.forward(&mut tape, &store, feats);
        let probs = tape.softmax_probs(logits);
        assert!(probs.get(0, 0) > 0.7, "class-0 prob = {}", probs.get(0, 0));
        assert!(probs.get(1, 1) > 0.7, "class-1 prob = {}", probs.get(1, 1));
    }

    #[test]
    fn embeddings_pull_same_class_together() {
        for unsup in [UnsupLoss::Cosine, UnsupLoss::L2] {
            let (_, featurizer, nets, store, cfg) = toy_setup(true, unsup);
            let mk = |class: usize, jitter: f32| {
                let mut fv = vec![0.05f32; 4];
                fv[class] = 0.9 + jitter;
                fv[2 + class] = 0.4;
                ProfileInput {
                    fv,
                    ids: Vec::new(),
                    vectors: Arc::new(Matrix::zeros(1, 6)),
                }
            };
            let (a, b, c) = (mk(0, 0.0), mk(0, 0.02), mk(1, 0.0));
            let mut tape = Tape::new();
            let mut rng = StdRng::seed_from_u64(2);
            let feats = featurizer.forward_batch(&mut tape, &store, &[&a, &b, &c], false, &mut rng);
            let emb = embed_features(&mut tape, &store, &nets, feats, cfg.unsup);
            let e = tape.value(emb).clone();
            let cos = |r1: usize, r2: usize| -> f32 {
                e.row(r1).iter().zip(e.row(r2)).map(|(&x, &y)| x * y).sum()
            };
            assert!(
                cos(0, 1) > cos(0, 2),
                "{unsup:?}: same-class cos {} <= cross-class cos {}",
                cos(0, 1),
                cos(0, 2)
            );
        }
    }

    #[test]
    fn early_stopping_tracks_and_restores_best() {
        // Same toy problem, but with a validation set and a learning rate
        // cranked high enough that late iterations can regress.
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = HisRectConfig {
            word_dim: 6,
            hidden_n: 4,
            feat_dim: 8,
            embed_dim: 6,
            batch: 8,
            featurizer_iters: 150,
            early_stop: true,
            eval_every: 25,
            ..HisRectConfig::fast()
        };
        let mut store = ParamStore::new();
        let featurizer = Featurizer::new(
            &mut store,
            &cfg,
            crate::config::HistoryEncoder::Rect,
            crate::config::ContentEncoder::None,
            4,
            &mut rng,
        );
        let nets = SslNets::new(&mut store, &cfg, featurizer.feat_dim(), 2, &mut rng);
        let mut inputs = HashMap::new();
        let mut labeled = Vec::new();
        let mut valid = Vec::new();
        for k in 0..60usize {
            let class = k % 2;
            let mut fv = vec![0.05f32; 4];
            fv[class] = 0.9;
            inputs.insert(
                k,
                ProfileInput {
                    fv,
                    ids: Vec::new(),
                    vectors: Arc::new(Matrix::zeros(1, 6)),
                },
            );
            if k < 40 {
                labeled.push((k, class));
            } else {
                valid.push((k, class));
            }
        }
        let stats = train_featurizer_with_validation(
            &featurizer,
            &nets,
            &mut store,
            &inputs,
            &labeled,
            &[],
            &valid,
            &cfg,
            false,
            &mut rng,
        );
        assert!(
            stats.valid_losses.len() >= 2,
            "validation must be evaluated periodically"
        );
        // Losses were recorded at the configured cadence.
        assert_eq!(stats.valid_losses[0].0, 0);
        assert_eq!(stats.valid_losses[1].0, 25);
        // Final validation loss must beat the untrained start.
        let first = stats.valid_losses.first().unwrap().1;
        let last = stats.valid_losses.last().unwrap().1;
        assert!(last < first, "first = {first}, last = {last}");
    }

    /// Early stopping's validation loss evaluates through word tables
    /// bound from the weights of the moment: before and after training it
    /// equals, by bits, the loss of the tape forward over the same
    /// profiles (80 of them: two 64-profile chunks).
    #[test]
    fn validation_loss_equals_the_tape_loss_as_the_weights_move() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = HisRectConfig {
            word_dim: 6,
            hidden_n: 4,
            feat_dim: 8,
            embed_dim: 6,
            batch: 8,
            featurizer_iters: 20,
            ..HisRectConfig::fast()
        };
        let vectors = tensor::randn(&mut rng, 12, 6, 1.0);
        let mut store = ParamStore::new();
        let featurizer = Featurizer::new(
            &mut store,
            &cfg,
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            4,
            &mut rng,
        )
        .with_word_vectors(&vectors);
        let nets = SslNets::new(&mut store, &cfg, featurizer.feat_dim(), 2, &mut rng);
        let mut inputs = HashMap::new();
        let mut labeled = Vec::new();
        for k in 0..80usize {
            let class = k % 2;
            let mut fv = vec![0.05f32; 4];
            fv[class] = 0.9;
            let ids: Vec<u32> = (0..k % 9).map(|_| rng.gen_range(0..=12)).collect();
            let vectors = Arc::clone(featurizer.word_vectors());
            inputs.insert(k, ProfileInput { fv, ids, vectors });
            labeled.push((k, class));
        }
        let tape_loss = |store: &ParamStore| {
            let losses: Vec<f64> = labeled
                .chunks(64)
                .map(|chunk| {
                    let ins: Vec<&ProfileInput> = chunk.iter().map(|(k, _)| &inputs[k]).collect();
                    let targets: Vec<usize> = chunk.iter().map(|&(_, pid)| pid).collect();
                    let mut tape = Tape::new();
                    let mut rng = StdRng::seed_from_u64(0);
                    let feats = featurizer.forward_batch(&mut tape, store, &ins, false, &mut rng);
                    let logits = nets.classifier.forward(&mut tape, store, feats);
                    let loss = tape.softmax_cross_entropy(logits, &targets);
                    tape.scalar(loss) as f64 * chunk.len() as f64
                })
                .collect();
            (losses.into_iter().sum::<f64>() / labeled.len() as f64) as f32
        };
        let before = validation_loss(&featurizer, &nets, &store, &inputs, &labeled);
        assert_eq!(before.to_bits(), tape_loss(&store).to_bits(), "untrained");
        train_featurizer(
            &featurizer,
            &nets,
            &mut store,
            &inputs,
            &labeled,
            &[],
            &cfg,
            false,
            &mut rng,
        );
        let after = validation_loss(&featurizer, &nets, &store, &inputs, &labeled);
        assert_ne!(after, before, "training must move the loss");
        assert_eq!(after.to_bits(), tape_loss(&store).to_bits(), "trained");
    }

    #[test]
    fn pair_sampler_respects_subsampling() {
        let mk = |pos: bool| WeightedPair {
            i: 0,
            j: 1,
            a: if pos { 1.0 } else { -1.0 },
            labeled_positive: pos,
        };
        let pairs: Vec<WeightedPair> = (0..10)
            .map(|_| mk(true))
            .chain((0..100).map(|_| mk(false)))
            .collect();
        let s = PairSampler::new(&pairs, 0.1).unwrap();
        // eff_pos = 10, eff_other = 10 → p_positive = 0.5
        assert!((s.p_positive - 0.5).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(3);
        let pos_draws = (0..2000)
            .filter(|_| s.sample(&mut rng).labeled_positive)
            .count();
        assert!((800..1200).contains(&pos_draws), "{pos_draws}");
    }

    #[test]
    fn empty_pair_set_yields_no_sampler() {
        assert!(PairSampler::new(&[], 0.1).is_none());
    }

    #[test]
    fn table3_specs_compile_against_trainer() {
        // Smoke: just check the config plumbing, not the training quality.
        for spec in ApproachSpec::all_learned() {
            assert!(spec.config.featurizer_iters > 0);
        }
    }
}
