//! One LSTM direction over a batch of ragged sequences, as two kernels on
//! plain slices: the forward recurrence — the only copy of it, shared by
//! the evaluation path ([`crate::BiLstm::eval_rows`],
//! [`crate::BiLstm::eval_words`]) and [`crate::Tape::lstm_seq`]
//! (training) — and the hand-written back-propagation through time
//! behind the tape op.
//!
//! The rows follow a [`crate::SeqBatch`] layout, so each step's live rows
//! are one contiguous block: the step is one `live × h · h × 4h` product
//! against the packed recurrent weights and one call of the cell kernel
//! over the block (BPTT: one per block of rows that do or do not continue
//! a previous step), after one input projection of all rows. The reverse direction walks the steps from the last to the
//! first, a sequence joining from its zero state when its own last step
//! comes up: rows are aligned on steps remaining.
//!
//! Rows never mix: every element of every product is one ascending-k
//! chain from `0.0` (multiply, then add, never fused) on any kernel tier,
//! and the rest is per row. A sequence's states and `dX` rows have the
//! same bits in any batch as alone; only the parameter gradients, sums
//! over all rows, depend on the batch.
//!
//! The same fact lets a pass over word ids read two tables instead of
//! computing ([`Input::Words`]): a row's input projection depends on its
//! word alone, and so does the whole first step of a sequence, which
//! starts from the zero state. A table entry is produced by the very code
//! it replaces — the projection by this module's `Rhs` product, the
//! first step by [`LstmPass::forward`] over one-step sequences — so the
//! bits stay the same.

use crate::seq::active;
use std::borrow::Cow;
use std::cell::RefCell;
use tensor::gemm::{self, PackedB, Variant};
use tensor::{act, matmul_naive_into, Matrix, PACK_THRESHOLD};

/// What a pass reads at each row, laid out over its `lens` as a
/// [`crate::SeqBatch`].
pub(crate) enum Input<'a> {
    /// `in_dim`-wide rows, projected through `wx` (`in_dim × 4h`, gate
    /// order `[i | f | g | o]`) in one product.
    Rows {
        xs: &'a [f32],
        in_dim: usize,
        wx: &'a [f32],
    },
    /// One word id per row, read through the tables
    /// [`LstmPass::word_tables`] built: `proj` holds each word's input
    /// projection (`4h` wide), `first` the `[h₁ | c₁]` (`2h` wide) of a
    /// step from the zero state. Forward only.
    Words {
        ids: &'a [u32],
        proj: &'a [f32],
        first: &'a [f32],
    },
}

/// One LSTM direction over a batch of sequences: what both kernels read.
pub(crate) struct LstmPass<'a> {
    pub input: Input<'a>,
    /// Sequence lengths, non-increasing.
    pub lens: &'a [usize],
    /// `h × 4h`.
    pub wh: &'a [f32],
    /// `4h`.
    pub b: &'a [f32],
    /// Run every sequence from its last step to its first (the backward
    /// half of a BiLSTM); every state still lands at its own row.
    pub reverse: bool,
}

/// `(t, first row, live rows)` of every step of `lens`, in ascending or
/// descending `t`.
fn walk(lens: &[usize], rows: usize, down: bool) -> impl Iterator<Item = [usize; 3]> + '_ {
    let steps = lens.first().copied().unwrap_or(0);
    let mut row = if down { rows } else { 0 };
    (0..steps).map(move |i| {
        let t = if down { steps - 1 - i } else { i };
        let live = active(lens, t);
        row = if down { row - live } else { row + live };
        [t, if down { row } else { row - live }, live]
    })
}

/// A `k × n` right-hand operand multiplied on the calling thread: packed
/// once when a `block`-row product reaches the packed kernel's threshold,
/// read as stored (or as a transposed copy) by the simple kernel below it.
/// Both tiers give the same bits.
pub(crate) enum Rhs<'a> {
    Packed(PackedB, [usize; 2]),
    Plain(Cow<'a, [f32]>, [usize; 2]),
}

impl<'a> Rhs<'a> {
    /// `w` is stored `k × n`, or `n × k` when `transposed`.
    pub fn new(w: &'a [f32], transposed: bool, k: usize, n: usize, block: usize) -> Self {
        if block * k * n >= PACK_THRESHOLD {
            let (variant, cols) = if transposed {
                (Variant::Nt, k)
            } else {
                (Variant::Nn, n)
            };
            return Rhs::Packed(gemm::pack_b(variant, w, cols, k, n), [k, n]);
        }
        if !transposed {
            return Rhs::Plain(Cow::Borrowed(w), [k, n]);
        }
        let mut t = vec![0.0; k * n];
        for (r, row) in w.chunks_exact(k).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                t[c * n + r] = v;
            }
        }
        Rhs::Plain(Cow::Owned(t), [k, n])
    }

    /// `out = a · w` for the `k`-wide rows of `a`.
    pub fn mul(&self, a: &[f32], out: &mut [f32]) {
        match self {
            Rhs::Packed(pb, [k, n]) => {
                gemm::gemm_rows(Variant::Nn, a, *k, out.len() / n, pb, 0, out)
            }
            Rhs::Plain(w, [k, n]) => matmul_naive_into(a, *k, *k, w, *n, out),
        }
    }
}

/// `aᵀ · dG` for each `(a, m)` of `inputs` (`dWx` and `dWh`) on the
/// calling thread, each `a` holding `m`-wide rows, one per row of the
/// `width`-wide `dG`: `dG` is packed once and shared by both products.
fn weight_grads(dgs: &[f32], width: usize, inputs: [(&[f32], usize); 2]) -> [Matrix; 2] {
    let pb = gemm::pack_b(Variant::Tn, dgs, width, dgs.len() / width, width);
    inputs.map(|(a, m)| {
        let mut out = Matrix::zeros(m, width);
        gemm::gemm_rows(Variant::Tn, a, m, m, &pb, 0, out.as_mut_slice());
        out
    })
}

impl LstmPass<'_> {
    pub fn hidden(&self) -> usize {
        self.b.len() / 4
    }

    pub fn rows(&self) -> usize {
        match self.input {
            Input::Rows { xs, in_dim, .. } => xs.len() / in_dim,
            Input::Words { ids, .. } => ids.len(),
        }
    }

    /// The tables an [`Input::Words`] pass reads, for the words whose
    /// vectors are the `in_dim`-wide rows of `vectors`: `proj` (`4h` per
    /// word), each word's `x·Wx` by the product the `Rows` input runs,
    /// and `first` (`2h` per word), the `[h₁ | c₁]` this pass's forward
    /// leaves after one step from the zero state, every word a one-step
    /// sequence.
    pub fn word_tables(wx: &[f32], wh: &[f32], b: &[f32], vectors: &[f32]) -> [Vec<f32>; 2] {
        let h = b.len() / 4;
        let in_dim = wx.len() / (4 * h);
        let words = vectors.len() / in_dim;
        let mut proj = vec![0.0; words * 4 * h];
        Rhs::new(wx, false, in_dim, 4 * h, words).mul(vectors, &mut proj);
        let lens = vec![1; words];
        let pass = LstmPass {
            input: Input::Rows {
                xs: vectors,
                in_dim,
                wx,
            },
            lens: &lens,
            wh,
            b,
            reverse: false,
        };
        let mut acts = vec![0.0; pass.acts_len()];
        let mut hs = vec![0.0; words * h];
        pass.forward(&mut acts, &mut hs, h, 0);
        let cs = &acts[words * 4 * h..words * 5 * h];
        let mut first = Vec::with_capacity(words * 2 * h);
        for (hr, cr) in hs.chunks_exact(h).zip(cs.chunks_exact(h)) {
            first.extend_from_slice(hr);
            first.extend_from_slice(cr);
        }
        [proj, first]
    }

    /// Floats [`LstmPass::forward`] needs in `acts`: per row the
    /// post-activation gates (`4h`), `c_t` and `tanh(c_t)` — what
    /// [`LstmPass::backward`] reads back — then `6h` of working state per
    /// sequence.
    pub fn acts_len(&self) -> usize {
        (self.rows() + self.lens.len()) * 6 * self.hidden()
    }

    /// Runs the recurrence from zero state. `h_t` of a row lands at
    /// `out[row·out_stride + out_col ..][..h]`; `acts` is left holding the
    /// saved activations (see [`LstmPass::acts_len`]) — for a
    /// [`Input::Words`] pass only those of the steps it computed, which
    /// nothing reads back.
    pub fn forward(&self, acts: &mut [f32], out: &mut [f32], out_stride: usize, out_col: usize) {
        let (h, rows, batch) = (self.hidden(), self.rows(), self.lens.len());
        assert_eq!(acts.len(), self.acts_len(), "lstm activation buffer");
        let (gates, rest) = acts.split_at_mut(rows * 4 * h);
        let (cs, rest) = rest.split_at_mut(rows * h);
        let (tcs, rest) = rest.split_at_mut(rows * h);
        let (hg, rest) = rest.split_at_mut(batch * 4 * h);
        let (state, cells) = rest.split_at_mut(batch * h);
        state.fill(0.0);
        cells.fill(0.0);
        // The input projection of every row at once; the recurrence turns
        // each row of it into that step's gates in place. Words look theirs
        // up as their step comes.
        let words = match self.input {
            Input::Rows { xs, in_dim, wx } => {
                Rhs::new(wx, false, in_dim, 4 * h, batch).mul(xs, gates);
                None
            }
            Input::Words { ids, proj, first } => Some((ids, proj, first)),
        };
        let wh = Rhs::new(self.wh, false, h, 4 * h, batch);
        for [t, start, live] in walk(self.lens, rows, self.reverse) {
            // Slots `computed..live` start their sequence at this step;
            // from words, their step is read from `first`.
            let computed = match words {
                None => live,
                Some(_) if self.reverse => active(self.lens, t + 1),
                Some(_) => {
                    if t == 0 {
                        0
                    } else {
                        live
                    }
                }
            };
            // The computed slots' rows are one block: one cell call.
            let (wide, narrow) = (
                start * 4 * h..(start + computed) * 4 * h,
                start * h..(start + computed) * h,
            );
            if let Some((ids, proj, _)) = words {
                let dst = gates[wide.clone()].chunks_exact_mut(4 * h);
                for (g, &w) in dst.zip(&ids[start..start + computed]) {
                    let w = w as usize;
                    g.copy_from_slice(&proj[w * 4 * h..(w + 1) * 4 * h]);
                }
            }
            wh.mul(&state[..computed * h], &mut hg[..computed * 4 * h]);
            act::lstm_cell(
                &mut gates[wide],
                &hg[..computed * 4 * h],
                self.b,
                &mut cells[..computed * h],
                &mut tcs[narrow.clone()],
                &mut state[..computed * h],
            );
            cs[narrow].copy_from_slice(&cells[..computed * h]);
            for (r, st) in state[..computed * h].chunks_exact(h).enumerate() {
                let at = (start + r) * out_stride + out_col;
                out[at..at + h].copy_from_slice(st);
            }
            if let Some((ids, _, first)) = words {
                for r in computed..live {
                    let row = start + r;
                    let w = ids[row] as usize;
                    let (h1, c1) = first[w * 2 * h..(w + 1) * 2 * h].split_at(h);
                    state[r * h..(r + 1) * h].copy_from_slice(h1);
                    cells[r * h..(r + 1) * h].copy_from_slice(c1);
                    let at = row * out_stride + out_col;
                    out[at..at + h].copy_from_slice(h1);
                }
            }
        }
    }

    /// Back-propagates `g_out` (`rows × h`, the gradient of the states
    /// `hs` the forward wrote with `out_stride = h`) through the pass,
    /// reading the activations [`LstmPass::forward`] left in `acts`, into
    /// `[dWx, dWh, db]` and, when `want_dx`, `dX`. The steps go in reverse
    /// processing order, carrying `dh` and `dc` per slot; the parameter
    /// and input gradients are then one product each over all rows.
    pub fn backward(
        &self,
        acts: &[f32],
        hs: &[f32],
        g_out: &[f32],
        want_dx: bool,
    ) -> ([Matrix; 3], Option<Matrix>) {
        thread_local! {
            static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let Input::Rows { xs, in_dim: n, wx } = self.input else {
            panic!("lstm backward needs the input rows");
        };
        let (h, rows, batch) = (self.hidden(), self.rows(), self.lens.len());
        let (gates, rest) = acts.split_at(rows * 4 * h);
        let (cs, rest) = rest.split_at(rows * h);
        let tcs = &rest[..rows * h];
        let steps = self.lens.first().copied().unwrap_or(0);
        let wh_t = Rhs::new(self.wh, true, 4 * h, h, batch);
        SCRATCH.with(|scratch| {
            // dG: rows × 4h | h_prev: rows × h | dh, dc, zeros: batch × h.
            let scratch = &mut *scratch.borrow_mut();
            scratch.clear();
            scratch.resize(rows * 5 * h + 3 * batch * h, 0.0);
            let (dgs, rest) = scratch.split_at_mut(rows * 4 * h);
            let (h_prev, rest) = rest.split_at_mut(rows * h);
            let (dhs, rest) = rest.split_at_mut(batch * h);
            let (dcs, zeros) = rest.split_at_mut(batch * h);
            for [t, start, live] in walk(self.lens, rows, !self.reverse) {
                // The step each slot ran before this one, if any: its first
                // row and how many slots it had.
                let prev = if !self.reverse && t > 0 {
                    let p = active(self.lens, t - 1);
                    Some((start - p, p))
                } else if self.reverse && t + 1 < steps {
                    Some((start + live, active(self.lens, t + 1)))
                } else {
                    None
                };
                // Slots `..with` continue from a previous step, the rest
                // start from the zero state: one cell call per block.
                let with = prev.map_or(0, |(_, p)| p.min(live));
                let from = prev.map_or(0, |(s, _)| s);
                let blocks = [
                    (0, with, &cs[from * h..(from + with) * h]),
                    (with, live, &zeros[..(live - with) * h]),
                ];
                for (lo, hi, c_prev) in blocks {
                    let (wide, narrow) = (
                        (start + lo) * 4 * h..(start + hi) * 4 * h,
                        (start + lo) * h..(start + hi) * h,
                    );
                    act::lstm_cell_backward(
                        h,
                        &gates[wide.clone()],
                        &tcs[narrow.clone()],
                        c_prev,
                        &g_out[narrow],
                        &dhs[lo * h..hi * h],
                        &mut dcs[lo * h..hi * h],
                        &mut dgs[wide],
                    );
                }
                let at = start * h;
                h_prev[at..at + with * h].copy_from_slice(&hs[from * h..(from + with) * h]);
                h_prev[at + with * h..at + live * h].fill(0.0);
                // dh for each slot's previous step: dG · Whᵀ.
                let block = &dgs[start * 4 * h..(start + live) * 4 * h];
                wh_t.mul(block, &mut dhs[..live * h]);
            }
            let mut db = Matrix::zeros(1, 4 * h);
            for dg in dgs.chunks_exact(4 * h) {
                for (d, &v) in db.as_mut_slice().iter_mut().zip(dg) {
                    *d += v;
                }
            }
            let [dwx, dwh] = weight_grads(dgs, 4 * h, [(xs, n), (h_prev, h)]);
            let dx = want_dx.then(|| {
                let mut dx = Matrix::zeros(rows, n);
                Rhs::new(wx, true, 4 * h, n, batch).mul(dgs, dx.as_mut_slice());
                dx
            });
            ([dwx, dwh, db], dx)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::gradcheck_scalar;
    use crate::layers::{BiLstm, Lstm};
    use crate::params::{ParamId, ParamStore};
    use crate::seq::SeqBatch;
    use crate::tape::{Tape, Var};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensor::gemm::{self, Variant};
    use tensor::{randn, Matrix};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `Σ h ⊙ w` as a `1 x 1` node, through ops whose gradients are exact,
    /// so `h` receives `w` itself whatever the batch around it.
    fn weighted_sum(tape: &mut Tape, h: Var, w: Matrix) -> Var {
        let rows = w.rows();
        let hw = tape.mul_const(h, w);
        let per_row = tape.row_sum(hw);
        let ones = tape.input(Matrix::filled(1, rows, 1.0));
        tape.matmul(ones, per_row)
    }

    /// States and the store's gradients after `layers` stacked BiLSTMs
    /// over the input parameter `x` laid out as `seqs`, dropout on the
    /// states, and [`weighted_sum`].
    fn run(
        store: &mut ParamStore,
        layers: &[BiLstm],
        x: ParamId,
        seqs: &SeqBatch,
        w: Matrix,
        rng: &mut StdRng,
    ) -> (Matrix, Vec<Matrix>) {
        store.zero_grads();
        let mut tape = Tape::new();
        let mut h = tape.param(store, x);
        for bi in layers {
            h = bi.forward_rows(&mut tape, store, h, seqs);
        }
        let d = tape.dropout_rows(h, 0.7, seqs.rows_in_caller_order(), rng);
        let loss = weighted_sum(&mut tape, d, w);
        let states = tape.value(h).clone();
        tape.backward(loss, store);
        (
            states,
            store.ids().map(|id| store.get(id).grad.clone()).collect(),
        )
    }

    /// One batched run against one run per sequence, each a batch of one,
    /// drawing dropout from the same stream in the same order.
    fn assert_batch_equals_singles(lens: &[usize], hidden: usize, depth: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_dim = hidden + 1;
        let mut store = ParamStore::new();
        let layers: Vec<BiLstm> = (0..depth)
            .map(|l| {
                let width = if l == 0 { in_dim } else { 2 * hidden };
                BiLstm::new(&mut store, &format!("bi{l}"), width, hidden, 0.4, &mut rng)
            })
            .collect();
        let xs: Vec<Matrix> = lens
            .iter()
            .map(|&t| randn(&mut rng, t, in_dim, 1.0))
            .collect();
        let ws: Vec<Matrix> = lens
            .iter()
            .map(|&t| randn(&mut rng, t, 2 * hidden, 1.0))
            .collect();
        let x_ids: Vec<ParamId> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| store.add(format!("x{i}"), x.clone()))
            .collect();
        let seqs = SeqBatch::new(lens);
        let x_refs: Vec<&Matrix> = xs.iter().collect();
        let w_refs: Vec<&Matrix> = ws.iter().collect();
        let x_all = store.add("x", seqs.pack(&x_refs, in_dim));
        let w_all = seqs.pack(&w_refs, 2 * hidden);

        let drops = rng.gen::<u64>();
        let mut batch_rng = StdRng::seed_from_u64(drops);
        let (states, grads) = run(&mut store, &layers, x_all, &seqs, w_all, &mut batch_rng);
        let mut single_rng = StdRng::seed_from_u64(drops);
        let mut summed: Vec<Matrix> = grads
            .iter()
            .map(|g| Matrix::zeros(g.rows(), g.cols()))
            .collect();
        let dx_all = &grads[x_all.index()];
        for (i, (&t, w)) in lens.iter().zip(&ws).enumerate() {
            let one = SeqBatch::new(&[t]);
            let (s, g) = run(
                &mut store,
                &layers,
                x_ids[i],
                &one,
                w.clone(),
                &mut single_rng,
            );
            let slot = seqs.order().iter().position(|&c| c == i).unwrap();
            for step in 0..t {
                let row = seqs.row(slot, step);
                assert_eq!(
                    bits(states.row(row)),
                    bits(s.row(step)),
                    "states, seq {i} step {step}"
                );
                let dx = &g[x_ids[i].index()];
                assert_eq!(
                    bits(dx_all.row(row)),
                    bits(dx.row(step)),
                    "dX, seq {i} step {step}"
                );
            }
            for (acc, g) in summed.iter_mut().zip(&g) {
                acc.add_assign(g);
            }
        }
        for bi in &layers {
            for id in bi.param_ids() {
                let (got, want) = (&grads[id.index()], &summed[id.index()]);
                let diff = got.sub(want).max_abs();
                assert!(
                    diff <= 1e-5 * want.max_abs(),
                    "param {}: max |Δ| {diff} against max |g| {}",
                    store.get(id).name,
                    want.max_abs()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batched_pass_equals_one_pass_per_sequence(
            lens in proptest::collection::vec(0usize..=12, 1..=32),
            // 24 units put a batch's products on the packed kernel while a
            // single sequence stays on the simple one.
            wide in any::<bool>(),
            depth in 1usize..=2,
            seed in any::<u64>(),
        ) {
            assert_batch_equals_singles(&lens, if wide { 24 } else { 5 }, depth, seed);
        }
    }

    #[test]
    fn batched_pass_covers_empty_single_and_full_batches() {
        assert_batch_equals_singles(&[0], 5, 1, 1);
        assert_batch_equals_singles(&[1], 24, 2, 2);
        assert_batch_equals_singles(&[3, 0, 1, 3, 12], 24, 2, 3);
        let full: Vec<usize> = (0..32).map(|i| i % 13).collect();
        assert_batch_equals_singles(&full, 24, 1, 4);
    }

    /// The recurrence spelled out as 17 tape nodes per step over `xs`
    /// (each `1 x in_dim`): one `1 x hidden` state per step.
    fn per_step(lstm: &Lstm, tape: &mut Tape, store: &ParamStore, xs: &[Var]) -> Vec<Var> {
        let h = lstm.hidden;
        let [wx, wh, b] = [lstm.wx, lstm.wh, lstm.b].map(|id| tape.param(store, id));
        let mut state = tape.input(Matrix::zeros(1, h));
        let mut c = tape.input(Matrix::zeros(1, h));
        let mut out = Vec::with_capacity(xs.len());
        for &x in xs {
            let xg = tape.matmul(x, wx);
            let hg = tape.matmul(state, wh);
            let gsum = tape.add(xg, hg);
            let gates = tape.add_bias(gsum, b);
            let [i, f, g, o] = [0, 1, 2, 3].map(|k| tape.slice_cols(gates, k * h, h));
            let (i, f, g, o) = (
                tape.sigmoid(i),
                tape.sigmoid(f),
                tape.tanh(g),
                tape.sigmoid(o),
            );
            let fc = tape.mul(f, c);
            let ig = tape.mul(i, g);
            c = tape.add(fc, ig);
            let tc = tape.tanh(c);
            state = tape.mul(o, tc);
            out.push(state);
        }
        out
    }

    /// [`per_step`] in both directions: `[h_fwd | h_bwd]` per step.
    fn per_step_concat(bi: &BiLstm, tape: &mut Tape, store: &ParamStore, xs: &[Var]) -> Vec<Var> {
        let hf = per_step(&bi.fwd, tape, store, xs);
        let reversed: Vec<Var> = xs.iter().rev().copied().collect();
        let mut hb = per_step(&bi.bwd, tape, store, &reversed);
        hb.reverse();
        hf.into_iter()
            .zip(hb)
            .map(|(f, b)| tape.concat_cols(f, b))
            .collect()
    }

    /// Loss and states (as bits) and every parameter gradient of
    /// `build`'s graph under a loss whose gradient is uneven across
    /// elements and, where dropout zeroes it, a zero of either sign.
    fn run_graph(
        store: &mut ParamStore,
        weights: &Matrix,
        build: impl Fn(&mut Tape, &ParamStore) -> Var,
    ) -> ([Vec<u32>; 2], Vec<Matrix>) {
        store.zero_grads();
        let mut tape = Tape::new();
        let h = build(&mut tape, store);
        let d = tape.dropout(h, 0.7, &mut StdRng::seed_from_u64(5));
        let w = tape.mul_const(d, weights.clone());
        let w = tape.affine(w, 1.0, 0.3);
        let a = tape.tanh(w);
        let sq = tape.mul(a, a);
        let l = tape.mean_all(sq);
        let values = [
            bits(tape.value(l).as_slice()),
            bits(tape.value(h).as_slice()),
        ];
        tape.backward(l, store);
        (
            values,
            store.ids().map(|id| store.get(id).grad.clone()).collect(),
        )
    }

    /// Loss, states and the gradients of every parameter outside `layers`
    /// (here: the inputs, so dX) by bits. The fused backward sums each
    /// LSTM parameter gradient over all rows in one product, the per-step
    /// graph step by step, so those agree within 1e-5 of the largest.
    fn assert_matches_per_step(
        store: &ParamStore,
        layers: &[BiLstm],
        got: &([Vec<u32>; 2], Vec<Matrix>),
        want: &([Vec<u32>; 2], Vec<Matrix>),
        case: &str,
    ) {
        assert_eq!(got.0, want.0, "loss and states, {case}");
        let weights: Vec<ParamId> = layers.iter().flat_map(|bi| bi.param_ids()).collect();
        for id in store.ids() {
            let (g, w) = (&got.1[id.index()], &want.1[id.index()]);
            let name = &store.get(id).name;
            if weights.contains(&id) {
                let diff = g.sub(w).max_abs();
                assert!(
                    diff <= 1e-5 * w.max_abs(),
                    "param {name}, {case}: max |Δ| {diff} against max |g| {}",
                    w.max_abs()
                );
            } else {
                assert_eq!(
                    bits(g.as_slice()),
                    bits(w.as_slice()),
                    "param {name}, {case}"
                );
            }
        }
    }

    fn row_inputs(tape: &mut Tape, x: &Matrix) -> Vec<Var> {
        (0..x.rows())
            .map(|r| tape.input(Matrix::row_vector(x.row(r))))
            .collect()
    }

    #[test]
    fn fused_rows_equal_the_per_step_graph_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        // hidden = 5 leaves vector tails; three layers send gradient
        // through two levels of dX.
        for (in_dim, hidden, depth) in [(3usize, 5usize, 1usize), (6, 8, 2), (24, 24, 3)] {
            let mut store = ParamStore::new();
            let layers: Vec<BiLstm> = (0..depth)
                .map(|l| {
                    let width = if l == 0 { in_dim } else { 2 * hidden };
                    BiLstm::new(&mut store, &format!("bi{l}"), width, hidden, 0.4, &mut rng)
                })
                .collect();
            for steps in [1usize, 2, 3, 7, 12] {
                let x = randn(&mut rng, steps, in_dim, 1.0);
                let weights = randn(&mut rng, steps, 2 * hidden, 1.0);
                let want = run_graph(&mut store, &weights, |tape, store| {
                    let mut xs = row_inputs(tape, &x);
                    for bi in &layers {
                        xs = per_step_concat(bi, tape, store, &xs);
                    }
                    tape.stack_rows(&xs)
                });
                let seqs = SeqBatch::new(&[steps]);
                let got = run_graph(&mut store, &weights, |tape, store| {
                    let mut h = tape.input(x.clone());
                    for bi in &layers {
                        h = bi.forward_rows(tape, store, h, &seqs);
                    }
                    h
                });
                let case = format!("in {in_dim}, hidden {hidden}, {depth} layers, T {steps}");
                assert_matches_per_step(&store, &layers, &got, &want, &case);
            }
        }
    }

    #[test]
    fn input_gradient_equals_the_per_step_graph_bit_for_bit() {
        // The words as parameters, one per step: the per-step graph reads
        // them directly, the fused node through `stack_rows`, so their
        // gradients are the rows of dX (backward direction first).
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "bi", 4, 5, 0.5, &mut rng);
        let words: Vec<_> = (0..6)
            .map(|t| store.add(format!("x{t}"), randn(&mut rng, 1, 4, 1.0)))
            .collect();
        let weights = randn(&mut rng, 6, 10, 1.0);
        let bind = |tape: &mut Tape, store: &ParamStore| -> Vec<Var> {
            words.iter().map(|&id| tape.param(store, id)).collect()
        };
        let want = run_graph(&mut store, &weights, |tape, store| {
            let xs = bind(tape, store);
            let hs = per_step_concat(&bi, tape, store, &xs);
            tape.stack_rows(&hs)
        });
        let seqs = SeqBatch::new(&[words.len()]);
        let got = run_graph(&mut store, &weights, |tape, store| {
            let xs = bind(tape, store);
            let x = tape.stack_rows(&xs);
            bi.forward_rows(tape, store, x, &seqs)
        });
        assert_matches_per_step(&store, std::slice::from_ref(&bi), &got, &want, "dX");
        let live = words
            .iter()
            .filter(|&&id| store.get(id).grad.max_abs() > 0.0);
        assert_eq!(live.count(), words.len(), "dX must reach every step");
    }

    /// `out = aᵀ · b` with `b` packed for this product alone: what each
    /// weight gradient cost before [`super::weight_grads`] shared one pack.
    fn mul_tn(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let pb = gemm::pack_b(Variant::Tn, b, n, b.len() / n, n);
        gemm::gemm_rows(Variant::Tn, a, m, m, &pb, 0, out);
    }

    #[test]
    fn shared_pack_weight_grads_equal_one_pack_per_product() {
        let mut rng = StdRng::seed_from_u64(14);
        for (rows, n, h) in [
            (0usize, 3usize, 2usize),
            (1, 24, 24),
            (7, 5, 5),
            (96, 24, 24),
            (40, 48, 27),
        ] {
            let dgs = randn(&mut rng, rows, 4 * h, 1.0);
            let xs = randn(&mut rng, rows, n, 1.0);
            let h_prev = randn(&mut rng, rows, h, 1.0);
            let [dwx, dwh] = super::weight_grads(
                dgs.as_slice(),
                4 * h,
                [(xs.as_slice(), n), (h_prev.as_slice(), h)],
            );
            let (mut want_x, mut want_h) = (vec![0.0; n * 4 * h], vec![0.0; h * 4 * h]);
            mul_tn(xs.as_slice(), n, dgs.as_slice(), 4 * h, &mut want_x);
            mul_tn(h_prev.as_slice(), h, dgs.as_slice(), 4 * h, &mut want_h);
            assert_eq!(bits(dwx.as_slice()), bits(&want_x), "dWx, {rows} rows");
            assert_eq!(bits(dwh.as_slice()), bits(&want_h), "dWh, {rows} rows");
        }
    }

    #[test]
    fn lstm_seq_gradcheck_both_directions() {
        // A ragged batch with an empty sequence, the input bound as a
        // parameter so dX is checked too.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let lstm = Lstm::new(&mut store, "lstm", 2, 3, 0.4, &mut rng);
        let seqs = SeqBatch::new(&[3, 0, 5, 1]);
        let x = store.add("x", randn(&mut rng, seqs.rows(), 2, 1.0));
        for reverse in [false, true] {
            for id in lstm.param_ids().into_iter().chain([x]) {
                let err = gradcheck_scalar(&mut store, id, |tape, store| {
                    let xv = tape.param(store, x);
                    let h = lstm.forward_rows(tape, store, xv, &seqs, reverse);
                    let sq = tape.mul(h, h);
                    tape.mean_all(sq)
                });
                assert!(err < 2e-2, "reverse {reverse}, param {id:?}: err = {err}");
            }
        }
    }
}
