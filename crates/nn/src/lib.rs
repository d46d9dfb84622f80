#![warn(missing_docs)]

//! From-scratch neural-network stack for the HisRect reproduction.
//!
//! The paper's models (§4–§5) are built from fully-connected stacks with
//! ReLU, (bidirectional) LSTMs, a 1-D convolution over BLSTM states
//! (BiLSTM-C), dropout, softmax cross-entropy, logistic loss, and cosine /
//! ℓ2 embedding losses, all trained with mini-batch Adam under gradient-norm
//! clipping and ℓ2 regularization (§6.1.2). Mature Rust NN crates being
//! unavailable in this environment, the whole stack is implemented here:
//!
//! - [`tape`] — a reverse-mode autograd tape over [`tensor::Matrix`].
//! - [`params`] — named trainable parameters with gradient accumulators.
//! - [`layers`] — `Linear`, feed-forward stacks, `Lstm`, `BiLstm`, `Conv1d`.
//! - [`eval`] — tape-free evaluation-mode forwards of the same layers,
//!   bit-identical to the tape, [`WordTable`]: what a first BiLSTM layer
//!   computes from a word alone, and [`EvalStack`]: one dense stack
//!   evaluated at f32 or, through [`quant`], at int8.
//! - `lstm` — the LSTM recurrence over a [`SeqBatch`] of ragged sequences
//!   and its hand-written BPTT: the kernel under both [`eval`] and the
//!   fused [`Tape::lstm_seq`] node the encoders train through.
//! - [`adam`] — Adam with learning-rate decay, ℓ2 regularization and
//!   global-norm gradient clipping.
//! - [`gradcheck`] — finite-difference gradient checking used heavily in
//!   tests.
//!
//! Batch forward and backward passes are matmul-bound, and every tape
//! matmul — the forward product and the `dA = g·Bᵀ` / `dB = Aᵀ·g`
//! gradient accumulations — goes through [`tensor::Matrix`]'s
//! auto-dispatching kernels, so they fan out across `HISRECT_THREADS`
//! workers above the parallel threshold with bit-identical results.

pub mod adam;
pub mod eval;
pub mod gradcheck;
pub mod layers;
mod lstm;
pub mod params;
pub mod quant;
mod seq;
pub mod tape;

pub use adam::{Adam, AdamConfig, AdamState};
pub use eval::{EvalStack, WordTable};
pub use layers::{BiLstm, Conv1d, FeedForward, Linear, Lstm};
pub use params::{Param, ParamId, ParamStore};
pub use quant::QuantFeedForward;
pub use seq::SeqBatch;
pub use tape::{Tape, Var};
