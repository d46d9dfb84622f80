#![warn(missing_docs)]

//! **HisRect** — features from historical visits and recent tweet for
//! co-location judgement.
//!
//! Reproduction of Li, Lu, Zheng, Li & Pan (TKDE 2019, DOI
//! 10.1109/TKDE.2019.2934686). Given two Twitter users who tweeted within
//! Δt of each other, decide whether they are at the same POI.
//!
//! The pipeline (paper Fig. 1):
//!
//! 1. [`fv`] — the historical-visit feature `Fv(r)` (Eq. 1–2) and its
//!    one-hot ablation.
//! 2. [`fc`] — the recent-tweet feature `Fc(r)`: skip-gram word vectors
//!    through BiLSTM-C (Eq. 3), with BLSTM and ConvLSTM ablations.
//! 3. [`featurizer`] — the combined HisRect featurizer `F(r)` (§4.3).
//! 4. [`affinity`] — the spatio-temporal similarity matrix `A` (§4.4).
//! 5. [`ssl`] — the semi-supervised training loop (Algorithm 1) joint with
//!    the POI classifier `P` and embedding `E`.
//! 6. [`judge`] — the co-location judge: embedding `E′` and classifier `C`
//!    over `|E′(F(ri)) − E′(F(rj))|` (§5), plus the naive `Comp2Loc` and
//!    the joint `One-phase` alternative.
//! 7. [`clustering`] — the connected-components group clustering (§5 end).
//!
//! [`model::HisRectModel`] wires everything into the end-to-end system and
//! exposes every Table-3 approach variant through [`config::ApproachSpec`].
//!
//! # Quickstart
//!
//! ```no_run
//! use hisrect::{config::ApproachSpec, model::HisRectModel};
//! use twitter_sim::{generate, SimConfig};
//!
//! let dataset = generate(&SimConfig::tiny(42));
//! let mut model = HisRectModel::train(&dataset, &ApproachSpec::hisrect(), 42);
//! let pair = dataset.test.pos_pairs[0];
//! let p = model.judge_pair(&dataset, pair.i, pair.j);
//! println!("co-location probability: {p:.3}");
//! ```

pub mod affinity;
pub mod candidates;
pub mod ckpt;
pub mod clustering;
pub mod config;
pub mod error;
pub mod fallback;
pub mod fc;
pub mod featurizer;
pub mod fv;
pub mod judge;
pub mod model;
pub mod service;
pub mod ssl;

pub use candidates::{Candidate, CandidateConfig, CandidateService, CandidateSet};
pub use ckpt::CheckpointConfig;
pub use config::{ApproachSpec, ContentEncoder, HisRectConfig, HistoryEncoder, UnsupLoss};
pub use error::{ModelError, TrainError};
pub use fallback::FallbackJudge;
pub use model::{HisRectModel, Precision, Stacks};
pub use nn::params::ParamSnapshot;
pub use service::{profile_fingerprint, JudgeService, Judgement};
