//! HisRect-based co-location judgement (§5).
//!
//! The judge embeds the two HisRect features with `E′`, feeds the
//! element-wise absolute difference into the classifier `C`, and reads the
//! co-location probability off a logistic output:
//! `p_co = σ(C(|E′(F(ri)) − E′(F(rj))|))`.

use crate::ckpt::{self, CheckpointConfig, MemorySnapshot, TrainCheckpoint};
use crate::config::HisRectConfig;
use crate::error::TrainError;
use crate::model::Precision;
use crate::ssl::{inject_nan_grad, rollback, MAX_RETRIES, RECOVERY_EVERY};
use faultsim::FaultKind;
use nn::{Adam, AdamConfig, EvalStack, FeedForward, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use tensor::Matrix;

/// Checkpoint-phase name of the judge stage.
pub const PHASE_JUDGE: &str = "judge";

thread_local! {
    /// Grow-only buffers of the tape-free judge: the two `E′` embeddings
    /// (the first doubles as their difference).
    static EVAL_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The logistic output `p_co = σ(logit)`, on libm's `exp`: `tensor::act`
/// defines the gate activations only, so the probability served for a
/// given logit does not depend on it.
fn p_co(logit: f32) -> f32 {
    1.0 / (1.0 + (-logit).exp())
}

/// Gathers `rows` equally wide feature rows into one row-major matrix.
fn stack_rows<'a>(rows: impl ExactSizeIterator<Item = &'a [f32]>, width: usize) -> Matrix {
    let mut m = Matrix::zeros(rows.len(), width);
    for (dst, src) in m.as_mut_slice().chunks_exact_mut(width).zip(rows) {
        dst.copy_from_slice(src);
    }
    m
}

/// The judge networks `E′` and `C`.
#[derive(Debug, Clone)]
pub struct Judge {
    /// `E′`: feature embedding (Qe' fully-connected layers).
    pub e2: FeedForward,
    /// `C`: classifier over the embedding difference (Qc layers → 1 logit).
    pub c: FeedForward,
}

impl Judge {
    /// Allocates `E′` and `C` for features of width `feat_dim`.
    pub fn new(
        store: &mut ParamStore,
        cfg: &HisRectConfig,
        feat_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut edims = vec![feat_dim];
        edims.extend(std::iter::repeat_n(cfg.embed_dim, cfg.qe2.max(1)));
        let e2 = FeedForward::new(store, "judge/e2", &edims, false, cfg.init_std, rng);
        let mut cdims = vec![cfg.embed_dim];
        cdims.extend(std::iter::repeat_n(
            cfg.embed_dim,
            cfg.qc.max(1).saturating_sub(1),
        ));
        cdims.push(1);
        let c = FeedForward::new(store, "judge/c", &cdims, false, cfg.init_std, rng);
        Self { e2, c }
    }

    /// Θ_E′ ∪ Θ_C.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.e2.param_ids();
        ids.extend(self.c.param_ids());
        ids
    }

    /// Builds the logit node for batched feature pairs (`B x feat_dim`
    /// each) → `B x 1`.
    pub fn forward_logits(&self, tape: &mut Tape, store: &ParamStore, fi: Var, fj: Var) -> Var {
        let ei = self.e2.forward(tape, store, fi);
        let ej = self.e2.forward(tape, store, fj);
        let diff = tape.abs_diff(ei, ej);
        self.c.forward(tape, store, diff)
    }

    /// Binds `E′` and `C` to `precision` for inference. `Int8` quantizes
    /// the trained weights here (they stay in the store untouched), so
    /// rebind after the store changes.
    pub fn at(&self, store: &ParamStore, precision: Precision) -> JudgeEval {
        JudgeEval {
            e2: precision.bind(store, &self.e2),
            c: precision.bind(store, &self.c),
        }
    }
}

/// The judge at one inference precision: `σ(C(|E′(fi) − E′(fj)|))`
/// written once over [`EvalStack::eval`], tape-free. At
/// [`Precision::F32`] it is bit-identical to [`Judge::forward_logits`];
/// at either precision every step treats batch rows independently, so a
/// fused batch is bit-identical to per-pair calls, and a single pair
/// allocates nothing in steady state.
#[derive(Debug, Clone)]
pub struct JudgeEval {
    e2: EvalStack,
    c: EvalStack,
}

impl JudgeEval {
    /// `C(|E′(fi) − E′(fj)|)` for the `feat_dim`-wide rows of `fi` / `fj`
    /// into `logits` (one per row).
    fn eval_logits(&self, store: &ParamStore, fi: &[f32], fj: &[f32], logits: &mut [f32]) {
        EVAL_SCRATCH.with(|s| {
            let (ei, ej) = &mut *s.borrow_mut();
            for (e, f) in [(&mut *ei, fi), (&mut *ej, fj)] {
                e.clear();
                e.resize(logits.len() * self.e2.out_dim(), 0.0);
                self.e2.eval(store, f, e);
            }
            self.eval_logits_from_embeddings(store, ei, ej, logits);
        });
    }

    /// `C(|ei − ej|)`; `ei` is overwritten with the difference.
    fn eval_logits_from_embeddings(
        &self,
        store: &ParamStore,
        ei: &mut [f32],
        ej: &[f32],
        logits: &mut [f32],
    ) {
        for (a, &b) in ei.iter_mut().zip(ej) {
            *a = (*a - b).abs();
        }
        self.c.eval(store, ei, logits);
    }

    /// Co-location probabilities for many cached feature pairs in one
    /// fused pass through `E′` and `C`.
    ///
    /// When metrics are enabled the per-pair wall time lands in the
    /// `judge/pair_latency_ns` histogram (the paper claims < 1 ms/pair),
    /// whatever the precision, so latency dashboards compare them directly.
    pub fn predict_batch(&self, store: &ParamStore, pairs: &[(&[f32], &[f32])]) -> Vec<f32> {
        let Some(feat_dim) = pairs.first().map(|p| p.0.len()) else {
            return Vec::new();
        };
        let fi = stack_rows(pairs.iter().map(|p| p.0), feat_dim);
        let fj = stack_rows(pairs.iter().map(|p| p.1), feat_dim);
        let t0 = obs::enabled().then(std::time::Instant::now);
        let mut probs = vec![0.0f32; pairs.len()];
        self.eval_logits(store, fi.as_slice(), fj.as_slice(), &mut probs);
        for z in &mut probs {
            *z = p_co(*z);
        }
        if let Some(t0) = t0 {
            let per_pair_ns = t0.elapsed().as_nanos() as f64 / probs.len() as f64;
            obs::observe_n("judge/pair_latency_ns", per_pair_ns, probs.len() as u64);
        }
        probs
    }

    /// Single-pair [`JudgeEval::predict_batch`], heap-free.
    pub fn predict(&self, store: &ParamStore, fi: &[f32], fj: &[f32]) -> f32 {
        let t0 = obs::enabled().then(std::time::Instant::now);
        let mut z = [0.0f32];
        self.eval_logits(store, fi, fj, &mut z);
        if let Some(t0) = t0 {
            obs::observe("judge/pair_latency_ns", t0.elapsed().as_nanos() as f64);
        }
        p_co(z[0])
    }

    /// `E′` embeddings for many cached features, one per feature. This is
    /// the representation the candidate index stores and searches over.
    pub fn embed(&self, store: &ParamStore, feats: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let Some(feat_dim) = feats.first().map(Vec::len) else {
            return Vec::new();
        };
        let x = stack_rows(feats.iter().map(Vec::as_slice), feat_dim);
        let width = self.e2.out_dim();
        let mut e = Matrix::zeros(feats.len(), width);
        self.e2.eval(store, x.as_slice(), e.as_mut_slice());
        e.as_slice()
            .chunks_exact(width)
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Co-location probability from two precomputed `E′` embeddings:
    /// `σ(C(|ei − ej|))`. Skips the embedding networks entirely, which is
    /// what makes re-scoring retrieved candidates O(embed_dim) per pair.
    pub fn predict_from_embeddings(&self, store: &ParamStore, ei: &[f32], ej: &[f32]) -> f32 {
        let mut z = [0.0f32];
        EVAL_SCRATCH.with(|s| {
            let diff = &mut s.borrow_mut().0;
            diff.clear();
            diff.extend_from_slice(ei);
            self.eval_logits_from_embeddings(store, diff, ej, &mut z);
        });
        p_co(z[0])
    }
}

/// A training pair over cached features.
#[derive(Debug, Clone, Copy)]
pub struct FeaturePair<'a> {
    /// Cached HisRect feature of the first profile.
    pub fi: &'a [f32],
    /// Cached HisRect feature of the second profile.
    pub fj: &'a [f32],
    /// True when the pair is co-located.
    pub label: bool,
}

/// Trains `E′` and `C` on labeled pairs with the featurizer frozen: the
/// caller passes *cached* features, so no gradient can reach Θ_F, exactly
/// matching §5 ("the parameters Θ_F of F are fixed at this stage").
/// Returns the per-iteration loss trace.
pub fn train_judge(
    judge: &Judge,
    store: &mut ParamStore,
    positives: &[FeaturePair<'_>],
    negatives: &[FeaturePair<'_>],
    cfg: &HisRectConfig,
    rng: &mut StdRng,
) -> Vec<f32> {
    try_train_judge(judge, store, positives, negatives, cfg, rng, None)
        .expect("judge training failed")
}

/// [`train_judge`] with fault tolerance: periodic checkpoints + resume
/// when `ckpt` is set, and non-finite-loss rollback with learning-rate
/// backoff always. Bit-identical to the plain trainer when no checkpoint
/// is configured and no fault fires.
pub fn try_train_judge(
    judge: &Judge,
    store: &mut ParamStore,
    positives: &[FeaturePair<'_>],
    negatives: &[FeaturePair<'_>],
    cfg: &HisRectConfig,
    rng: &mut StdRng,
    ckpt: Option<&CheckpointConfig>,
) -> Result<Vec<f32>, TrainError> {
    assert!(!positives.is_empty(), "need positive pairs");
    assert!(!negatives.is_empty(), "need negative pairs");
    let ids = judge.param_ids();
    // Fault-injection probe: a parameter inside this phase's optimizer
    // group (the store may also hold frozen featurizer parameters).
    let probe_id = ids[0];
    let mut adam = Adam::new(
        store,
        ids,
        AdamConfig {
            lr: cfg.lr,
            ..AdamConfig::default()
        },
    );
    // §6.1.2 subsampling: negatives weighted down to `neg_subsample`.
    let eff_pos = positives.len() as f64;
    let eff_neg = negatives.len() as f64 * cfg.neg_subsample;
    let p_pos = eff_pos / (eff_pos + eff_neg);

    let mut losses = Vec::with_capacity(cfg.judge_iters);
    let mut start_iter = 0usize;
    if let Some(c) = ckpt {
        if c.resume {
            if let Some((snap, path)) = ckpt::latest_valid(&c.dir, PHASE_JUDGE) {
                ckpt::restore_training_state(
                    store,
                    &mut [&mut adam],
                    rng,
                    &snap.params,
                    &snap.adams,
                    &snap.rng,
                )
                .map_err(TrainError::Checkpoint)?;
                losses = snap.poi_losses;
                start_iter = snap.iteration;
                obs::logln(
                    obs::Level::Info,
                    &format!(
                        "resumed judge phase at iteration {start_iter} from {}",
                        path.display()
                    ),
                );
                if start_iter >= cfg.judge_iters {
                    // Phase-complete snapshot: weights pass through with zero
                    // iterations run (see the featurizer twin of this branch;
                    // warm-start is the way to train further from here).
                    obs::logln(
                        obs::Level::Info,
                        "judge phase already complete; running 0 iterations \
                         (use warm-start, not resume, to train further from these weights)",
                    );
                    obs::incr("ckpt/phase_complete_noop");
                    return Ok(losses);
                }
            }
        }
    }

    let save_checkpoint = |iteration: usize,
                           store: &ParamStore,
                           adam: &Adam,
                           rng: &StdRng,
                           losses: &Vec<f32>|
     -> Result<(), TrainError> {
        let Some(c) = ckpt else {
            return Ok(());
        };
        let snap = TrainCheckpoint {
            phase: PHASE_JUDGE.into(),
            iteration,
            params: store.to_snapshot(),
            adams: vec![adam.state()],
            rng: rng.state().to_vec(),
            // The judge's single loss trace rides in the first slot.
            poi_losses: losses.clone(),
            unsup_losses: Vec::new(),
            valid_losses: Vec::new(),
            best_iteration: None,
            best: None,
        };
        ckpt::save(&c.dir, &snap).map_err(|e| TrainError::Checkpoint(e.to_string()))?;
        Ok(())
    };

    let _span = obs::span("judge/train");
    // As in the featurizer phase, per-iteration samples batch locally
    // and flush to obs once per phase exit; `obs_base` guards a resumed
    // loss prefix against double-flushing.
    let obs_base = losses.len();
    let mut grad_norms: Vec<f32> = Vec::new();
    let mut examples = 0u64;
    let flush_obs = |losses: &[f32], grad_norms: &[f32], examples: u64| {
        if !obs::enabled() {
            return;
        }
        obs::extend("judge/l_co", &losses[obs_base..]);
        obs::extend("judge/grad_norm", grad_norms);
        if examples > 0 {
            obs::add("judge/examples", examples);
        }
        tensor::flush_dispatch_stats();
        tensor::pool::publish_obs();
    };
    let feat_dim = positives[0].fi.len();
    let mut last_good: Option<MemorySnapshot> = None;
    let mut retries = 0usize;
    let mut iter = start_iter;
    while iter < cfg.judge_iters {
        if let Some(c) = ckpt {
            if c.every > 0 && iter > start_iter && iter.is_multiple_of(c.every) {
                save_checkpoint(iter, store, &adam, rng, &losses)?;
            }
        }
        if faultsim::fires(FaultKind::Crash) {
            flush_obs(&losses, &grad_norms, examples);
            return Err(TrainError::Interrupted {
                phase: PHASE_JUDGE.into(),
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
                adams: vec![adam.state()],
                rng: rng.state(),
                trace_lens: vec![losses.len()],
            });
            retries = 0;
        }
        let batch: Vec<&FeaturePair<'_>> = (0..cfg.batch)
            .map(|_| {
                if rng.gen::<f64>() < p_pos {
                    &positives[rng.gen_range(0..positives.len())]
                } else {
                    &negatives[rng.gen_range(0..negatives.len())]
                }
            })
            .collect();
        let fi = Matrix::from_fn(batch.len(), feat_dim, |r, c| batch[r].fi[c]);
        let fj = Matrix::from_fn(batch.len(), feat_dim, |r, c| batch[r].fj[c]);
        let labels = Matrix::from_fn(batch.len(), 1, |r, _| batch[r].label as u8 as f32);
        let mut tape = Tape::new();
        let a = tape.input(fi);
        let b = tape.input(fj);
        let logits = judge.forward_logits(&mut tape, store, a, b);
        let loss = tape.bce_with_logits(logits, labels);
        let loss = tape.backward(loss, store);
        inject_nan_grad(store, probe_id);
        losses.push(loss);
        let grad_norm = adam.step(store);
        grad_norms.push(grad_norm);
        examples += batch.len() as u64;
        if !(loss.is_finite() && grad_norm.is_finite()) {
            let snap = last_good.as_ref().expect("captured at loop entry");
            retries += 1;
            obs::incr("train/divergence_detected");
            if retries > MAX_RETRIES {
                flush_obs(&losses, &grad_norms, examples);
                return Err(TrainError::Diverged {
                    phase: PHASE_JUDGE.into(),
                    iteration: iter,
                    retries: retries - 1,
                });
            }
            rollback(store, &mut [&mut adam], rng, snap, retries);
            losses.truncate(snap.trace_lens[0]);
            grad_norms.truncate(snap.trace_lens[0].saturating_sub(obs_base));
            iter = snap.iteration;
            continue;
        }
        iter += 1;
    }
    save_checkpoint(cfg.judge_iters, store, &adam, rng, &losses)?;
    flush_obs(&losses, &grad_norms, examples);
    Ok(losses)
}

/// The naive `Comp2Loc` judge (§5): run the POI classifier on both
/// profiles and call them co-located iff the argmax POIs agree.
pub fn comp2loc(poi_probs_i: &[f32], poi_probs_j: &[f32]) -> bool {
    argmax(poi_probs_i) == argmax(poi_probs_j)
}

/// Index of the maximum element (ties resolve to the first).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> HisRectConfig {
        HisRectConfig {
            embed_dim: 8,
            judge_iters: 400,
            batch: 16,
            ..HisRectConfig::fast()
        }
    }

    /// Features live on two clusters; same-cluster pairs are co-located.
    #[allow(clippy::type_complexity)]
    fn toy_pairs(rng: &mut StdRng) -> (Vec<Vec<f32>>, Vec<(usize, usize, bool)>) {
        let mut feats = Vec::new();
        for k in 0..40 {
            let cluster = k % 2;
            let base = if cluster == 0 { 1.0 } else { -1.0 };
            let f: Vec<f32> = (0..6)
                .map(|d| base * (1.0 + d as f32 * 0.1) + rng.gen_range(-0.05..0.05))
                .collect();
            feats.push(f);
        }
        let mut pairs = Vec::new();
        for a in 0..feats.len() {
            for b in (a + 1)..feats.len() {
                pairs.push((a, b, a % 2 == b % 2));
            }
        }
        (feats, pairs)
    }

    #[test]
    fn judge_learns_toy_co_location() {
        let mut rng = StdRng::seed_from_u64(0);
        let (feats, pairs) = toy_pairs(&mut rng);
        let cfg = cfg();
        let mut store = ParamStore::new();
        let judge = Judge::new(&mut store, &cfg, 6, &mut rng);
        let mk = |&(a, b, label): &(usize, usize, bool)| FeaturePair {
            fi: &feats[a],
            fj: &feats[b],
            label,
        };
        let positives: Vec<_> = pairs.iter().filter(|p| p.2).map(mk).collect();
        let negatives: Vec<_> = pairs.iter().filter(|p| !p.2).map(mk).collect();
        let losses = train_judge(&judge, &mut store, &positives, &negatives, &cfg, &mut rng);
        assert!(
            losses.last().unwrap() < &0.2,
            "final loss {:?}",
            losses.last()
        );

        let judge = judge.at(&store, Precision::F32);
        let mut correct = 0usize;
        for (a, b, label) in &pairs {
            let p = judge.predict(&store, &feats[*a], &feats[*b]);
            if (p > 0.5) == *label {
                correct += 1;
            }
        }
        let acc = correct as f64 / pairs.len() as f64;
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn judge_is_symmetric_in_its_inputs() {
        // |e_i - e_j| is symmetric, so p(i,j) == p(j,i) exactly.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = cfg();
        let mut store = ParamStore::new();
        let judge = Judge::new(&mut store, &cfg, 6, &mut rng).at(&store, Precision::F32);
        let a: Vec<f32> = (0..6).map(|i| i as f32 * 0.3 - 1.0).collect();
        let b: Vec<f32> = (0..6).map(|i| 1.0 - i as f32 * 0.2).collect();
        let pij = judge.predict(&store, &a, &b);
        let pji = judge.predict(&store, &b, &a);
        assert!((pij - pji).abs() < 1e-6);
    }

    #[test]
    fn identical_features_after_training_look_colocated() {
        let mut rng = StdRng::seed_from_u64(2);
        let (feats, pairs) = toy_pairs(&mut rng);
        let cfg = cfg();
        let mut store = ParamStore::new();
        let judge = Judge::new(&mut store, &cfg, 6, &mut rng);
        let mk = |&(a, b, label): &(usize, usize, bool)| FeaturePair {
            fi: &feats[a],
            fj: &feats[b],
            label,
        };
        let positives: Vec<_> = pairs.iter().filter(|p| p.2).map(mk).collect();
        let negatives: Vec<_> = pairs.iter().filter(|p| !p.2).map(mk).collect();
        train_judge(&judge, &mut store, &positives, &negatives, &cfg, &mut rng);
        let judge = judge.at(&store, Precision::F32);
        let p = judge.predict(&store, &feats[0], &feats[0]);
        assert!(p > 0.5, "identical features must judge co-located, p = {p}");
    }

    #[test]
    fn comp2loc_matches_argmax_equality() {
        assert!(comp2loc(&[0.1, 0.8, 0.1], &[0.2, 0.7, 0.1]));
        assert!(!comp2loc(&[0.8, 0.1, 0.1], &[0.1, 0.8, 0.1]));
    }

    #[test]
    fn argmax_tie_breaks_to_first() {
        assert_eq!(argmax(&[0.5, 0.5, 0.1]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn tape_free_predictions_equal_forward_logits_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = HisRectConfig {
            embed_dim: 24,
            ..cfg()
        };
        let mut store = ParamStore::new();
        let judge = Judge::new(&mut store, &cfg, 48, &mut rng);
        // 1 and 3 rows stay on the simple kernel; 40 × 48 × 24
        // multiply-adds put the first `E′` layer on the packed one.
        for rows in [1usize, 3, 40] {
            let fi = tensor::randn(&mut rng, rows, 48, 1.0);
            let fj = tensor::randn(&mut rng, rows, 48, 1.0);
            let mut tape = Tape::new();
            let (a, b) = (tape.input(fi.clone()), tape.input(fj.clone()));
            let logits = judge.forward_logits(&mut tape, &store, a, b);
            let want: Vec<u32> = tape
                .value(logits)
                .as_slice()
                .iter()
                .map(|&z| p_co(z).to_bits())
                .collect();
            let eval = judge.at(&store, Precision::F32);
            let pairs: Vec<_> = (0..rows).map(|r| (fi.row(r), fj.row(r))).collect();
            let got = eval.predict_batch(&store, &pairs);
            assert_eq!(got.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), want);

            let ei_var = judge.e2.forward(&mut tape, &store, a);
            let rows_of = |m: &Matrix| (0..rows).map(|r| m.row(r).to_vec()).collect::<Vec<_>>();
            let (ei, ej) = (
                eval.embed(&store, &rows_of(&fi)),
                eval.embed(&store, &rows_of(&fj)),
            );
            assert_eq!(ei, rows_of(tape.value(ei_var)));
            for (r, &want) in want.iter().enumerate() {
                let single = eval.predict(&store, fi.row(r), fj.row(r));
                assert_eq!(single.to_bits(), want);
                let rescored = eval.predict_from_embeddings(&store, &ei[r], &ej[r]);
                assert_eq!(rescored.to_bits(), want);
            }
        }
    }

    #[test]
    fn predict_batch_matches_single() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = cfg();
        let mut store = ParamStore::new();
        let judge = Judge::new(&mut store, &cfg, 4, &mut rng).at(&store, Precision::F32);
        let f1 = vec![0.1, -0.4, 0.9, 0.0];
        let f2 = vec![1.0, 0.5, -0.2, 0.3];
        let f3 = vec![-0.9, 0.1, 0.2, 0.8];
        let batch = judge.predict_batch(&store, &[(&f1, &f2), (&f3, &f2)]);
        assert!((batch[0] - judge.predict(&store, &f1, &f2)).abs() < 1e-6);
        assert!((batch[1] - judge.predict(&store, &f3, &f2)).abs() < 1e-6);
    }
}
