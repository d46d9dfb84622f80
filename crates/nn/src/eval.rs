//! Tape-free, allocation-free evaluation-mode forwards.
//!
//! The [`crate::Tape`] forward is what training differentiates and what
//! these kernels are pinned to, bit for bit; it is also far more than
//! inference needs — it records a pooled `Matrix` per operation. The
//! methods here compute the same values reading weights by reference from
//! the [`ParamStore`] and writing into caller slices, with grow-only
//! per-thread scratch instead of per-op matrices. The recurrent encoder's
//! kernels take a whole [`SeqBatch`] at once, as training does.
//!
//! Bit-identity with the tape rests on three facts: every element of
//! every product is the same ascending-k chain from `0.0` as
//! [`tensor::Matrix::matmul`] on any kernel tier, so a row's bits do not
//! depend on the rows around it; the layout work (packing, im2col,
//! pooling) is the tape's own [`SeqBatch`] code; and every other
//! operation is written in the tape's association order
//! (`((x·Wx) + (h·Wh)) + b`, `f·c + i·g`) over the shared [`tensor::act`]
//! activations.

use crate::layers::{BiLstm, Conv1d, FeedForward, Linear, Lstm};
use crate::lstm::{Input, LstmPass, Rhs};
use crate::params::ParamStore;
use crate::quant::QuantFeedForward;
use crate::seq::SeqBatch;
use std::cell::RefCell;
use tensor::matmul_into;

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

/// What layer 0 of a [`BiLstm`] computes from one input row alone, for a
/// fixed set of input rows — the word vectors, indexed by word id: per
/// direction, every word's input projection `v·Wx` and its first step
/// `(h₁, c₁)` from the zero state. [`BiLstm::eval_words`] reads these
/// instead of computing them. A snapshot of the weights it was built from
/// ([`BiLstm::word_table`]): rebuild it whenever they change.
#[derive(Debug, Clone)]
pub struct WordTable {
    /// `[proj, first]` of the forward direction, then of the backward.
    dirs: [[Vec<f32>; 2]; 2],
}

impl BiLstm {
    /// Evaluation-mode [`BiLstm::forward_rows`]: row `r` of `out`
    /// (`seqs.rows() × 2·hidden`) becomes `[h_fwd | h_bwd]` of input row
    /// `r`. Each direction is one `LstmPass::forward` over every
    /// sequence of the batch — the training kernel, reading weights from
    /// the store and saving its activations to per-thread scratch — and
    /// writes its half of each row in place.
    pub fn eval_rows(&self, store: &ParamStore, xs: &[f32], seqs: &SeqBatch, out: &mut [f32]) {
        self.eval_passes(store, seqs, out, |lstm, _| Input::Rows {
            xs,
            in_dim: lstm.in_dim,
            wx: store.value(lstm.wx).as_slice(),
        });
    }

    /// The tables [`BiLstm::eval_words`] reads, for the words whose
    /// vectors are the `in_dim`-wide rows of `vectors` (word `w` at row
    /// `w`), from the weights in `store` now.
    pub fn word_table(&self, store: &ParamStore, vectors: &[f32]) -> WordTable {
        let dir = |lstm: &Lstm| {
            let [wx, wh, b] = [lstm.wx, lstm.wh, lstm.b].map(|id| store.value(id).as_slice());
            LstmPass::word_tables(wx, wh, b, vectors)
        };
        WordTable {
            dirs: [dir(&self.fwd), dir(&self.bwd)],
        }
    }

    /// [`BiLstm::eval_rows`] over the words `ids` (laid out as `seqs`)
    /// whose vectors `table` was built from: the same bits, with each
    /// row's input projection and each sequence's first step looked up.
    pub fn eval_words(
        &self,
        store: &ParamStore,
        table: &WordTable,
        ids: &[u32],
        seqs: &SeqBatch,
        out: &mut [f32],
    ) {
        self.eval_passes(store, seqs, out, |_, dir| {
            let [proj, first] = &table.dirs[dir];
            Input::Words { ids, proj, first }
        });
    }

    /// One `LstmPass` per direction over `input(direction, 0 | 1)`,
    /// writing its half of every `out` row.
    fn eval_passes<'a>(
        &'a self,
        store: &'a ParamStore,
        seqs: &'a SeqBatch,
        out: &mut [f32],
        input: impl Fn(&'a Lstm, usize) -> Input<'a>,
    ) {
        thread_local! {
            static ACTS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let h = self.hidden();
        for (dir, (lstm, reverse)) in [(&self.fwd, false), (&self.bwd, true)]
            .into_iter()
            .enumerate()
        {
            let pass = LstmPass {
                input: input(lstm, dir),
                lens: seqs.lens(),
                wh: store.value(lstm.wh).as_slice(),
                b: store.value(lstm.b).as_slice(),
                reverse,
            };
            ACTS.with(|acts| {
                let acts = &mut *acts.borrow_mut();
                acts.resize(pass.acts_len(), 0.0);
                pass.forward(acts, out, 2 * h, dir * h);
            });
        }
    }
}

impl Conv1d {
    /// Evaluation-mode [`Conv1d::forward`] over the `in_dim`-wide rows of
    /// `x` laid out as `seqs` into `out`, laid out as `seqs.windows(k)`:
    /// one im2col copy into per-thread scratch, then one filter-bank
    /// product on the calling thread.
    pub fn eval_rows(&self, store: &ParamStore, x: &[f32], seqs: &SeqBatch, out: &mut [f32]) {
        thread_local! {
            static COLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let (width, windows) = (self.k * self.in_dim, seqs.windows(self.k).rows());
        assert_eq!(out.len(), windows * self.out_dim, "eval output shape");
        COLS.with(|cols| {
            let cols = &mut *cols.borrow_mut();
            cols.resize(windows * width, 0.0);
            seqs.im2col_into(x, self.in_dim, self.k, cols);
            let w = store.value(self.w).as_slice();
            Rhs::new(w, false, width, self.out_dim, windows).mul(cols, out);
        });
        add_bias_rows(out, store.value(self.b).as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqBatch;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensor::{randn, Matrix};

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
        // hidden = 5 exercises the activation tails; 24 puts a batch's
        // products on the packed kernel.
        // The same rows as words: 9 vectors, the first all zeros, and
        // each row's id drawn among them.
        for (in_dim, hidden) in [(3usize, 5usize), (6, 8), (24, 24)] {
            let bi = BiLstm::new(&mut store, "bi", in_dim, hidden, 0.5, &mut rng);
            let mut vectors = randn(&mut rng, 9, in_dim, 1.0);
            vectors.row_mut(0).fill(0.0);
            let table = bi.word_table(&store, vectors.as_slice());
            for lens in [vec![1usize], vec![7], vec![2, 0, 7, 1, 7], vec![12; 40]] {
                let seqs = SeqBatch::new(&lens);
                let ids: Vec<u32> = (0..seqs.rows()).map(|_| rng.gen_range(0..9)).collect();
                let xs =
                    Matrix::from_fn(seqs.rows(), in_dim, |r, c| vectors.get(ids[r] as usize, c));
                let mut tape = Tape::new();
                let x = tape.input(xs.clone());
                let want = bi.forward_rows(&mut tape, &store, x, &seqs);
                let want = bits(tape.value(want).as_slice());
                let mut got = vec![f32::NAN; seqs.rows() * 2 * hidden];
                bi.eval_rows(&store, xs.as_slice(), &seqs, &mut got);
                assert_eq!(bits(&got), want, "rows, hidden {hidden}, lengths {lens:?}");
                let mut got = vec![f32::NAN; seqs.rows() * 2 * hidden];
                bi.eval_words(&store, &table, &ids, &seqs, &mut got);
                assert_eq!(bits(&got), want, "words, hidden {hidden}, lengths {lens:?}");
            }
        }
    }

    #[test]
    fn conv_relu_mean_matches_tape_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "conv", 3, 48, 24, 0.2, &mut rng);
        // 3 rows = one window; one 4-row sequence stays under the packed
        // kernel's threshold, the batches cross it.
        for lens in [vec![3usize], vec![4], vec![9, 3, 40], vec![5; 33]] {
            let seqs = SeqBatch::new(&lens);
            let x = randn(&mut rng, seqs.rows(), 48, 1.0);
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let y = conv.forward(&mut tape, &store, xv, &seqs);
            let y = tape.relu(y);
            let want = tape.mean_over_steps(y, &seqs.windows(3));
            let windows = seqs.windows(3);
            let mut y = vec![f32::NAN; windows.rows() * 24];
            conv.eval_rows(&store, x.as_slice(), &seqs, &mut y);
            relu(&mut y);
            let mut got = vec![f32::NAN; lens.len() * 24];
            windows.mean_over_steps_into(&y, 24, &mut got, 24);
            assert_eq!(
                bits(&got),
                bits(tape.value(want).as_slice()),
                "lengths {lens:?}"
            );
        }
    }
}
