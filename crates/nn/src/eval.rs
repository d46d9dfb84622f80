//! Tape-free, allocation-free evaluation-mode forwards.
//!
//! The [`crate::Tape`] forward is what training differentiates and what
//! these kernels are pinned to, bit for bit; it is also far more than
//! inference needs — it copies every bound parameter onto the tape and
//! records a pooled `Matrix` per operation. The methods here compute the
//! same values reading weights by reference from the [`ParamStore`] and
//! writing into caller slices, with grow-only scratch vectors instead of
//! per-op matrices.
//!
//! Bit-identity with the tape rests on two facts: every product goes
//! through [`tensor::matmul_into`] / [`tensor::matmul_naive_into`], whose
//! elements are the same ascending-k chains from `0.0` as
//! [`tensor::Matrix::matmul`] on any tier; and every other operation is
//! written in the tape's association order (`((x·Wx) + (h·Wh)) + b`,
//! `f·c + i·g`, `Σ v/rows` in row order) over the shared
//! [`tensor::act`] activations.

use crate::layers::{BiLstm, Conv1d, FeedForward, Linear, Lstm};
use crate::lstm::LstmPass;
use crate::params::ParamStore;
use crate::quant::QuantFeedForward;
use std::cell::RefCell;
use tensor::{matmul_into, matmul_naive_into};

/// `row += bias` for every `bias.len()`-wide row of `rows`.
fn add_bias_rows(rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_exact_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// In-place rectifier, the tape's `x.max(0.0)`.
pub fn relu(xs: &mut [f32]) {
    for x in xs {
        *x = x.max(0.0);
    }
}

/// Column-wise mean over the `out.len()`-wide rows of `x`, accumulated as
/// the tape's `mean_over_steps` does: `Σ v / rows` in row order from `0.0`.
pub fn mean_over_rows(x: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    let rows = (x.len() / out.len()).max(1) as f32;
    for row in x.chunks_exact(out.len()) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v / rows;
        }
    }
}

impl Linear {
    /// `x @ W + b` for the `in_dim`-wide rows of `x` into `out`.
    pub(crate) fn eval(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let w = store.value(self.w).as_slice();
        matmul_into(x, self.in_dim, self.in_dim, w, self.out_dim, out);
        add_bias_rows(out, store.value(self.b).as_slice());
    }
}

/// The skeleton every dense stack evaluates through: layer `i` maps the
/// `dims(layer).0`-wide rows of its input to `dims(layer).1`-wide rows
/// via `apply`, a ReLU follows every layer but the last (and the last too
/// under `relu_last`), and hidden activations ping-pong through a
/// grow-only per-thread buffer. Rows are independent, so any batch split
/// gives the same bits.
pub(crate) fn eval_stack<L>(
    layers: &[L],
    relu_last: bool,
    dims: impl Fn(&L) -> (usize, usize),
    apply: impl Fn(&L, &[f32], &mut [f32]),
    x: &[f32],
    out: &mut [f32],
) {
    thread_local! {
        static HIDDEN: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }
    let last = layers.len() - 1;
    let rows = x.len() / dims(&layers[0]).0;
    assert_eq!(out.len(), rows * dims(&layers[last]).1, "eval output shape");
    let widest = layers[..last].iter().map(|l| dims(l).1).max();
    let half = rows * widest.unwrap_or(0);
    HIDDEN.with(|hidden| {
        let hidden = &mut *hidden.borrow_mut();
        hidden.clear();
        hidden.resize(2 * half, 0.0);
        let (mut src, mut dst) = hidden.split_at_mut(half);
        for (i, layer) in layers.iter().enumerate() {
            let (in_dim, out_dim) = dims(layer);
            let input = if i == 0 { x } else { &src[..rows * in_dim] };
            let output = if i == last {
                &mut *out
            } else {
                &mut dst[..rows * out_dim]
            };
            apply(layer, input, output);
            if i != last || relu_last {
                relu(output);
            }
            std::mem::swap(&mut src, &mut dst);
        }
    });
}

impl FeedForward {
    /// Evaluation-mode [`FeedForward::forward`] for the rows of `x` into
    /// `out` (`rows × out_dim`), through the shared `eval_stack` skeleton.
    pub fn eval(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        eval_stack(
            &self.layers,
            self.relu_last,
            |l| (l.in_dim, l.out_dim),
            |l, x, out| l.eval(store, x, out),
            x,
            out,
        );
    }
}

/// A trained [`FeedForward`] bound to the arithmetic that evaluates it —
/// the one place inference precision is decided. Everything downstream of
/// `F(r)`'s recurrent encoder (the featurizer head, `E′`, `C`) is written
/// once over [`EvalStack::eval`].
#[derive(Debug, Clone)]
pub enum EvalStack {
    /// f32 weights read by reference from the [`ParamStore`]
    /// ([`FeedForward::eval`], bit-identical to the tape).
    F32(FeedForward),
    /// int8 weights derived from the store when the stack was bound
    /// ([`QuantFeedForward::eval`]); rebuild after the store changes.
    Int8(QuantFeedForward),
}

impl EvalStack {
    /// The `in_dim`-wide rows of `x` through the stack into the
    /// `out_dim`-wide rows of `out`. Heap-free in steady state at either
    /// precision, and row-independent: a fused batch reproduces the bits
    /// of one-row calls.
    pub fn eval(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        match self {
            Self::F32(ff) => ff.eval(store, x, out),
            Self::Int8(q) => q.eval(x, out),
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        match self {
            Self::F32(ff) => ff.out_dim(),
            Self::Int8(q) => q.out_dim(),
        }
    }
}

impl Lstm {
    /// Evaluation-mode [`Lstm::forward_rows`] over the `in_dim`-wide rows
    /// of `xs`, one sequence from zero state: the shared [`LstmPass::forward`]
    /// kernel reading weights from the store, its saved activations going
    /// to per-thread scratch. `h_t` lands at
    /// `out[t·out_stride + out_col ..][..hidden]`. With `reverse` the
    /// recurrence runs from the last row to the first (the backward half
    /// of a [`BiLstm`]), still writing each state at its own row.
    pub(crate) fn eval_seq(
        &self,
        store: &ParamStore,
        xs: &[f32],
        reverse: bool,
        out: &mut [f32],
        out_stride: usize,
        out_col: usize,
    ) {
        thread_local! {
            static ACTS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let pass = LstmPass {
            xs,
            lens: &[xs.len() / self.in_dim],
            in_dim: self.in_dim,
            wx: store.value(self.wx).as_slice(),
            wh: store.value(self.wh).as_slice(),
            b: store.value(self.b).as_slice(),
            reverse,
        };
        ACTS.with(|acts| {
            let acts = &mut *acts.borrow_mut();
            acts.resize(pass.acts_len(), 0.0);
            pass.forward(acts, out, out_stride, out_col);
        });
    }
}

impl BiLstm {
    /// Evaluation-mode [`BiLstm::forward_rows`] over one sequence: row `t` of `out`
    /// (`steps × 2·hidden`) becomes `[h_fwd_t | h_bwd_t]`, written in
    /// place by the two recurrences.
    pub fn eval_concat(&self, store: &ParamStore, xs: &[f32], out: &mut [f32]) {
        let h = self.hidden();
        self.fwd.eval_seq(store, xs, false, out, 2 * h, 0);
        self.bwd.eval_seq(store, xs, true, out, 2 * h, h);
    }
}

impl Conv1d {
    /// Evaluation-mode [`Conv1d::forward`] over a contiguous `T × in_dim`
    /// sequence into `out` (`(T-k+1) × out_dim`). Window `w` is the
    /// `k·in_dim` floats starting at row `w`, so the filter bank multiplies
    /// overlapping rows of `x` directly — no `im2col` copy — always on the
    /// simple kernel, whatever `T`.
    pub fn eval(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let w = store.value(self.w).as_slice();
        let windows = x.len() / self.in_dim + 1 - self.k;
        assert_eq!(out.len(), windows * self.out_dim, "eval output shape");
        matmul_naive_into(x, self.in_dim, self.k * self.in_dim, w, self.out_dim, out);
        add_bias_rows(out, store.value(self.b).as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqBatch;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::randn;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn feedforward_eval_matches_tape_bits_across_batch_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        // Depths 1..3, with and without the trailing ReLU; 70 rows cross
        // the packed-kernel threshold.
        for (dims, relu_last) in [
            (vec![9usize, 5], false),
            (vec![9, 16, 7], true),
            (vec![40, 24, 24, 1], false),
        ] {
            let ff = FeedForward::new(&mut store, "ff", &dims, relu_last, 0.4, &mut rng);
            for rows in [1usize, 3, 4, 70] {
                let x = randn(&mut rng, rows, dims[0], 1.0);
                let mut tape = Tape::new();
                let xv = tape.input(x.clone());
                let want = ff.forward(&mut tape, &store, xv);
                let mut got = vec![f32::NAN; rows * ff.out_dim()];
                ff.eval(&store, x.as_slice(), &mut got);
                assert_eq!(
                    bits(&got),
                    bits(tape.value(want).as_slice()),
                    "{dims:?} x {rows}"
                );
            }
        }
    }

    #[test]
    fn bilstm_eval_matches_tape_bits() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        // hidden = 5 exercises the activation tails; 8 fills registers.
        for (in_dim, hidden) in [(3usize, 5usize), (6, 8)] {
            let bi = BiLstm::new(&mut store, "bi", in_dim, hidden, 0.5, &mut rng);
            for steps in [1usize, 2, 7] {
                let xs = randn(&mut rng, steps, in_dim, 1.0);
                let mut tape = Tape::new();
                let x = tape.input(xs.clone());
                let want = bi.forward_rows(&mut tape, &store, x, &SeqBatch::new(&[steps]));
                let mut got = vec![f32::NAN; steps * 2 * hidden];
                bi.eval_concat(&store, xs.as_slice(), &mut got);
                assert_eq!(
                    bits(&got),
                    bits(tape.value(want).as_slice()),
                    "hidden {hidden}, {steps} steps"
                );
            }
        }
    }

    #[test]
    fn conv_relu_mean_matches_tape_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "conv", 3, 48, 24, 0.2, &mut rng);
        // 3 rows = one window; 40 rows put the tape's im2col product on
        // the packed kernel while eval stays on the simple one.
        for t in [3usize, 4, 9, 40] {
            let x = randn(&mut rng, t, 48, 1.0);
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let seqs = SeqBatch::new(&[t]);
            let y = conv.forward(&mut tape, &store, xv, &seqs);
            let y = tape.relu(y);
            let want = tape.mean_over_steps(y, &seqs.windows(3));
            let mut y = vec![f32::NAN; (t - 2) * 24];
            conv.eval(&store, x.as_slice(), &mut y);
            relu(&mut y);
            let mut got = vec![f32::NAN; 24];
            mean_over_rows(&y, &mut got);
            assert_eq!(bits(&got), bits(tape.value(want).as_slice()), "T = {t}");
        }
    }
}
