//! Model and training configuration, including every approach variant of
//! the paper's Table 3.

use serde::{Deserialize, Serialize};

/// How the visit history is featurized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryEncoder {
    /// Eq. 1–2: distance-smoothed, recency-weighted relevance per POI.
    Rect,
    /// One-hot of the POIs the user's visits fall in (the §4.1 strawman).
    OneHot,
    /// Visit history ignored (the Tweet-only row).
    None,
}

/// How the recent tweet content is featurized: the paper's BiLSTM-C and
/// Table 4's two encoder ablations. Every encoder trains a batch of ragged
/// tweets as one graph ([`crate::fc::ContentNet::forward_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContentEncoder {
    /// BiLSTM-C (Eq. 3): BLSTM, 3-wide convolution, ReLU, mean pooling.
    BiLstmC,
    /// Plain bidirectional LSTM with mean pooling (no convolution).
    Blstm,
    /// 1-D ConvLSTM cells (convolutional gate transitions) + mean pooling,
    /// run batched one graph per step over the tweets still running.
    /// Nothing serves it, so evaluation goes through that tape forward
    /// rather than a tape-free kernel.
    ConvLstm,
    /// Tweet content ignored (the History-only row).
    None,
}

/// The unsupervised-loss flavor of the SSL framework (§4.4 uses cosine;
/// §6.4.3 ablates the ℓ2 variant of Weston et al. and dropping `E`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnsupLoss {
    /// `a_ij (1 − ⟨E(F(ri)), E(F(rj))⟩)` with normalized embeddings.
    Cosine,
    /// `a_ij ‖E(F(ri)) − E(F(rj))‖²`.
    L2,
    /// `a_ij ‖F(ri) − F(rj)‖²` — no embedding network `E`.
    L2NoEmbed,
}

/// Hyper-parameters of the full system. Defaults mirror §6.1.2 where the
/// paper states values, scaled where it does not (dimensionalities are
/// sized for the simulated corpus; the paper notes `M` "has little
/// impact").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HisRectConfig {
    /// Word-vector dimensionality `M` (paper: 512).
    pub word_dim: usize,
    /// BLSTM hidden width `N` per direction.
    pub hidden_n: usize,
    /// Stacked BLSTM layers `Ql` (Table 7; best = 3, default here 1 for
    /// speed — exp_table7 sweeps it).
    pub ql: usize,
    /// Fully-connected layers `Qf` in the featurizer head (Table 7 best 2).
    pub qf: usize,
    /// HisRect feature dimensionality (output of the `Qf` stack).
    pub feat_dim: usize,
    /// POI-classifier hidden layers `Qp`.
    pub qp: usize,
    /// SSL embedding layers `Qe` (paper's best: 2) and width `E`.
    pub qe: usize,
    /// Embedding width `E` shared by `E` and `E′`.
    pub embed_dim: usize,
    /// Judge embedding layers `Qe'` (best: 2) and classifier layers `Qc`
    /// (best: 3).
    pub qe2: usize,
    /// Judge classifier layers `Qc` (best: 3).
    pub qc: usize,
    /// Eq. 1–2 smoothing: εd (paper: 1000 m) and εt (unspecified in the
    /// paper; one day works well and matches the "recent visits dominate"
    /// intuition).
    pub eps_d_m: f64,
    /// Time smoothing εt in seconds (Eq. 2).
    pub eps_t_s: f64,
    /// Affinity graph (§4.4): ρ (paper: 1000 m) and ε′d (paper: 50 m).
    pub rho_m: f64,
    /// Affinity smoothing ε′d in meters (paper: 50 m).
    pub eps_d2_m: f64,
    /// Dropout keep probability (paper: 0.8).
    pub keep_prob: f32,
    /// Gaussian init std. Positive values fix the std (the paper uses
    /// 0.01); `0.0` (the default) selects He scaling per layer, which the
    /// small simulated models need to avoid vanishing activations.
    pub init_std: f32,
    /// Mini-batch size `B`.
    pub batch: usize,
    /// Featurizer training iterations (Algorithm 1 repeats until the
    /// losses converge; we run a fixed budget).
    pub featurizer_iters: usize,
    /// Judge training iterations.
    pub judge_iters: usize,
    /// Fraction of negative/unlabeled pairs used per epoch (§6.1.2: 1/10).
    pub neg_subsample: f64,
    /// Unsupervised-loss flavor.
    pub unsup: UnsupLoss,
    /// Social-affinity boost (the §7 future-work extension): unlabeled
    /// pairs of *friends* get `a_ij` raised by this amount (and the ρ
    /// proximity requirement relaxed to 2ρ). `0.0` disables the extension
    /// and reproduces the paper's affinity exactly.
    pub social_w: f32,
    /// Adam learning rate (paper: 0.01).
    pub lr: f32,
    /// When true, the featurizer phase monitors POI-classification loss on
    /// the validation split every `eval_every` iterations and restores the
    /// best parameters at the end (the paper holds out a validation set,
    /// §6.1.1, but does not describe its use; this is the conventional
    /// one).
    pub early_stop: bool,
    /// Validation-evaluation cadence in iterations.
    pub eval_every: usize,
}

impl Default for HisRectConfig {
    fn default() -> Self {
        Self {
            word_dim: 24,
            hidden_n: 24,
            ql: 1,
            qf: 2,
            feat_dim: 48,
            qp: 1,
            qe: 2,
            embed_dim: 24,
            qe2: 2,
            qc: 3,
            eps_d_m: 1000.0,
            eps_t_s: 86_400.0,
            rho_m: 1000.0,
            eps_d2_m: 50.0,
            keep_prob: 0.8,
            init_std: 0.0,
            batch: 24,
            featurizer_iters: 1200,
            judge_iters: 800,
            neg_subsample: 0.1,
            unsup: UnsupLoss::Cosine,
            social_w: 0.0,
            lr: 0.01,
            early_stop: false,
            eval_every: 100,
        }
    }
}

impl HisRectConfig {
    /// Sanity-checks the hyper-parameters, so a hand-edited or corrupted
    /// snapshot fails loudly before any tensor is allocated from them.
    pub fn validate(&self) -> Result<(), String> {
        fn positive(name: &str, v: usize) -> Result<(), String> {
            if v == 0 {
                return Err(format!("{name} must be positive"));
            }
            Ok(())
        }
        positive("word_dim", self.word_dim)?;
        positive("hidden_n", self.hidden_n)?;
        positive("feat_dim", self.feat_dim)?;
        positive("embed_dim", self.embed_dim)?;
        positive("batch", self.batch)?;
        if !(self.keep_prob > 0.0 && self.keep_prob <= 1.0) {
            return Err(format!(
                "keep_prob must be in (0, 1], got {}",
                self.keep_prob
            ));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(format!("lr must be finite and positive, got {}", self.lr));
        }
        if !(self.neg_subsample > 0.0 && self.neg_subsample <= 1.0) {
            return Err(format!(
                "neg_subsample must be in (0, 1], got {}",
                self.neg_subsample
            ));
        }
        for (name, v) in [
            ("eps_d_m", self.eps_d_m),
            ("eps_t_s", self.eps_t_s),
            ("rho_m", self.rho_m),
            ("eps_d2_m", self.eps_d2_m),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be finite and positive, got {v}"));
            }
        }
        Ok(())
    }

    /// A faster configuration for tests.
    pub fn fast() -> Self {
        Self {
            word_dim: 12,
            hidden_n: 12,
            feat_dim: 24,
            embed_dim: 12,
            batch: 16,
            featurizer_iters: 150,
            judge_iters: 150,
            ..Self::default()
        }
    }
}

/// How the featurizer is trained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainMode {
    /// Algorithm 1: alternating `L_poi` / `L_u` batches (semi-supervised).
    SemiSupervised,
    /// `L_poi` only (the HisRect-SL row).
    SupervisedOnly,
    /// No separate featurizer phase: featurizer, `E′` and `C` are trained
    /// jointly on labeled pairs (the One-phase row).
    OnePhase,
}

/// A full approach: featurizer shape + training mode, covering the eight
/// non-naive rows of Table 3 (the three naive rows live in the
/// `baselines` crate and in [`crate::judge::comp2loc`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApproachSpec {
    /// Table-3 row name.
    pub name: String,
    /// Visit-history featurization.
    pub history: HistoryEncoder,
    /// Tweet-content featurization.
    pub content: ContentEncoder,
    /// Featurizer training regime.
    pub mode: TrainMode,
    /// Hyper-parameters for this approach.
    pub config: HisRectConfig,
}

impl ApproachSpec {
    fn base(name: &str, history: HistoryEncoder, content: ContentEncoder, mode: TrainMode) -> Self {
        Self {
            name: name.into(),
            history,
            content,
            mode,
            config: HisRectConfig::default(),
        }
    }

    /// The full proposed approach.
    pub fn hisrect() -> Self {
        Self::base(
            "HisRect",
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            TrainMode::SemiSupervised,
        )
    }

    /// Supervised-only featurizer training.
    pub fn hisrect_sl() -> Self {
        Self::base(
            "HisRect-SL",
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            TrainMode::SupervisedOnly,
        )
    }

    /// Joint one-phase training on pairs.
    pub fn one_phase() -> Self {
        Self::base(
            "One-phase",
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            TrainMode::OnePhase,
        )
    }

    /// Visit history only.
    pub fn history_only() -> Self {
        Self::base(
            "History-only",
            HistoryEncoder::Rect,
            ContentEncoder::None,
            TrainMode::SemiSupervised,
        )
    }

    /// Recent tweet only.
    pub fn tweet_only() -> Self {
        Self::base(
            "Tweet-only",
            HistoryEncoder::None,
            ContentEncoder::BiLstmC,
            TrainMode::SemiSupervised,
        )
    }

    /// One-hot visit-history encoding.
    pub fn one_hot() -> Self {
        Self::base(
            "One-hot",
            HistoryEncoder::OneHot,
            ContentEncoder::BiLstmC,
            TrainMode::SemiSupervised,
        )
    }

    /// Plain BLSTM content encoder (no convolution).
    pub fn blstm() -> Self {
        Self::base(
            "BLSTM",
            HistoryEncoder::Rect,
            ContentEncoder::Blstm,
            TrainMode::SemiSupervised,
        )
    }

    /// ConvLSTM content encoder.
    pub fn conv_lstm() -> Self {
        Self::base(
            "ConvLSTM",
            HistoryEncoder::Rect,
            ContentEncoder::ConvLstm,
            TrainMode::SemiSupervised,
        )
    }

    /// All eight learned approaches of Table 3/4, in the paper's order.
    pub fn all_learned() -> Vec<Self> {
        vec![
            Self::history_only(),
            Self::tweet_only(),
            Self::one_phase(),
            Self::hisrect_sl(),
            Self::one_hot(),
            Self::blstm(),
            Self::conv_lstm(),
            Self::hisrect(),
        ]
    }

    /// Returns a copy with a modified config.
    pub fn with_config(mut self, f: impl FnOnce(&mut HisRectConfig)) -> Self {
        f(&mut self.config);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_constants() {
        let c = HisRectConfig::default();
        assert_eq!(c.eps_d_m, 1000.0);
        assert_eq!(c.rho_m, 1000.0);
        assert_eq!(c.eps_d2_m, 50.0);
        assert_eq!(c.keep_prob, 0.8);
        assert_eq!(c.lr, 0.01);
        assert!((c.neg_subsample - 0.1).abs() < 1e-9);
    }

    #[test]
    fn table3_rows_have_expected_flags() {
        assert_eq!(ApproachSpec::hisrect().mode, TrainMode::SemiSupervised);
        assert_eq!(ApproachSpec::hisrect_sl().mode, TrainMode::SupervisedOnly);
        assert_eq!(ApproachSpec::one_phase().mode, TrainMode::OnePhase);
        assert_eq!(ApproachSpec::history_only().content, ContentEncoder::None);
        assert_eq!(ApproachSpec::tweet_only().history, HistoryEncoder::None);
        assert_eq!(ApproachSpec::one_hot().history, HistoryEncoder::OneHot);
        assert_eq!(ApproachSpec::blstm().content, ContentEncoder::Blstm);
        assert_eq!(ApproachSpec::conv_lstm().content, ContentEncoder::ConvLstm);
        assert_eq!(ApproachSpec::all_learned().len(), 8);
    }

    #[test]
    fn with_config_applies() {
        let spec = ApproachSpec::hisrect().with_config(|c| c.ql = 3);
        assert_eq!(spec.config.ql, 3);
    }
}
