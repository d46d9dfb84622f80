//! One direction of an LSTM over a whole sequence, as two kernels on plain
//! slices: the forward recurrence — the only copy of it, shared by
//! [`crate::Lstm::eval_seq`] and [`crate::Tape::lstm_seq`] — and the
//! hand-written back-propagation through time behind the tape op.
//!
//! Both are pinned by `to_bits` tests to the per-step tape graph of
//! [`crate::Lstm::forward_seq`], which remains the definition. For the
//! forward that means the tape's association order (`((x·Wx) + (h·Wh)) +
//! b`, `f·c + i·g`) over ascending-k product chains from `0.0`. For the
//! backward it means computing every quantity the way [`crate::Tape`]
//! would have accumulated it over that graph's 17 nodes per step:
//!
//! - steps are visited in reverse processing order, as the node list is;
//! - `dh_t = G_t + dh_rec` and `dc_t = dc_carry + d_tc·(1 − tc²)`: the
//!   upstream gradient reaches `h_t` before the recurrent one, the carry
//!   reaches `c_t` before the local term, and the first step visited has
//!   the single term (no `+ 0.0`, which would turn a `-0.0` positive);
//! - gate derivatives are written as the tape's `Sigmoid` / `Tanh` nodes
//!   write them, `(g·y)·(1 − y)` and `g·(1 − y·y)`, and each lands in the
//!   `4h`-wide gate gradient through a `slice_cols` scatter into zeros,
//!   i.e. `+ 0.0`;
//! - `dWx`, `dWh` and `db` are sums of one delta per step, each delta a
//!   one-term product chain `0.0 + x·dg`, the first moved and the rest
//!   added. Accumulating `x·dg` into zeros gives the same bits: the running
//!   sum is never `-0.0` (it starts as `0.0 + p`, and a sum is `-0.0` only
//!   when both terms are), and adding `p` or `0.0 + p` to anything but
//!   `-0.0` agrees;
//! - `dh_rec` and the rows of `dX` are `dg·Whᵀ` / `dg·Wxᵀ`: per output an
//!   ascending-k dot chain from `0.0`, run over a transposed copy of the
//!   weights so the loop vectorises across outputs instead of along k;
//! - multiply, then add. Never a fused multiply-add.

use std::cell::RefCell;
use tensor::{act, matmul_naive_into};

/// One LSTM direction over one sequence: what both kernels read.
pub(crate) struct LstmPass<'a> {
    /// The `steps × in_dim` input rows.
    pub xs: &'a [f32],
    pub in_dim: usize,
    /// `in_dim × 4h`, gate order `[i | f | g | o]`.
    pub wx: &'a [f32],
    /// `h × 4h`.
    pub wh: &'a [f32],
    /// `4h`.
    pub b: &'a [f32],
    /// Run from the last row to the first (the backward half of a BiLSTM);
    /// every state still lands at its own row.
    pub reverse: bool,
}

/// Parameter (and optionally input) gradients of one pass: zeroed by the
/// caller, accumulated into.
pub(crate) struct LstmGrads<'a> {
    pub dwx: &'a mut [f32],
    pub dwh: &'a mut [f32],
    pub db: &'a mut [f32],
    /// `steps × in_dim`; `None` when the input is a constant.
    pub dx: Option<&'a mut [f32]>,
}

impl LstmPass<'_> {
    pub fn hidden(&self) -> usize {
        self.b.len() / 4
    }

    pub fn steps(&self) -> usize {
        self.xs.len() / self.in_dim
    }

    /// Floats [`LstmPass::forward`] needs in `acts`: per step the
    /// post-activation gates (`4h`), `c_t` and `tanh(c_t)` — what
    /// [`LstmPass::backward`] reads back — then `6h` of working state.
    pub fn acts_len(&self) -> usize {
        (self.steps() + 1) * 6 * self.hidden()
    }

    fn time(&self, s: usize) -> usize {
        if self.reverse {
            self.steps() - 1 - s
        } else {
            s
        }
    }

    /// Runs the recurrence from zero state. `h_t` lands at
    /// `out[t·out_stride + out_col ..][..h]`; `acts` is left holding the
    /// saved activations (see [`LstmPass::acts_len`]).
    pub fn forward(&self, acts: &mut [f32], out: &mut [f32], out_stride: usize, out_col: usize) {
        let (h, steps) = (self.hidden(), self.steps());
        assert_eq!(acts.len(), self.acts_len(), "lstm activation buffer");
        let (gates, rest) = acts.split_at_mut(steps * 4 * h);
        let (cs, rest) = rest.split_at_mut(steps * h);
        let (tcs, rest) = rest.split_at_mut(steps * h);
        let (hg, rest) = rest.split_at_mut(4 * h);
        let (state, c) = rest.split_at_mut(h);
        state.fill(0.0);
        c.fill(0.0);
        // The input projection for every step in one pass, then the
        // recurrence turns each row of it into that step's gates in place.
        matmul_naive_into(self.xs, self.in_dim, self.in_dim, self.wx, 4 * h, gates);
        for s in 0..steps {
            let t = self.time(s);
            let gates = &mut gates[t * 4 * h..(t + 1) * 4 * h];
            matmul_naive_into(state, h, h, self.wh, 4 * h, hg);
            for ((g, &hv), &bv) in gates.iter_mut().zip(hg.iter()).zip(self.b) {
                *g = (*g + hv) + bv;
            }
            // Gate order [i | f | g | o]: i and f share one sigmoid pass.
            act::sigmoid(&mut gates[..2 * h]);
            act::tanh(&mut gates[2 * h..3 * h]);
            act::sigmoid(&mut gates[3 * h..]);
            for j in 0..h {
                c[j] = gates[h + j] * c[j] + gates[j] * gates[2 * h + j];
            }
            let tc = &mut tcs[t * h..(t + 1) * h];
            cs[t * h..(t + 1) * h].copy_from_slice(c);
            tc.copy_from_slice(c);
            act::tanh(tc);
            for j in 0..h {
                state[j] = gates[3 * h + j] * tc[j];
            }
            let at = t * out_stride + out_col;
            out[at..at + h].copy_from_slice(state);
        }
    }

    /// Back-propagates `g_out` (`steps × h`, the gradient of the states
    /// `hs` the forward wrote with `out_stride = h`) through the pass,
    /// reading the activations [`LstmPass::forward`] left in `acts`.
    pub fn backward(&self, acts: &[f32], hs: &[f32], g_out: &[f32], grads: LstmGrads<'_>) {
        thread_local! {
            static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let (h, steps, n) = (self.hidden(), self.steps(), self.in_dim);
        let LstmGrads {
            dwx,
            dwh,
            db,
            mut dx,
        } = grads;
        let (gates, rest) = acts.split_at(steps * 4 * h);
        let (cs, rest) = rest.split_at(steps * h);
        let tcs = &rest[..steps * h];
        SCRATCH.with(|scratch| {
            // Whᵀ: 4h × h | Wxᵀ: 4h × n | dg: 4h | dh_rec, dc, zeros: h each.
            let scratch = &mut *scratch.borrow_mut();
            let wxt_len = if dx.is_some() { 4 * h * n } else { 0 };
            scratch.resize(4 * h * h + wxt_len + 7 * h, 0.0);
            let (wht, rest) = scratch.split_at_mut(4 * h * h);
            let (wxt, rest) = rest.split_at_mut(wxt_len);
            let (dg, rest) = rest.split_at_mut(4 * h);
            let (dh_rec, rest) = rest.split_at_mut(h);
            let (dc, zeros) = rest.split_at_mut(h);
            zeros.fill(0.0);
            transpose_into(self.wh, 4 * h, wht);
            if dx.is_some() {
                transpose_into(self.wx, 4 * h, wxt);
            }
            for s in (0..steps).rev() {
                let t = self.time(s);
                let first = s + 1 == steps;
                // The state the step started from: zero for the first one.
                let (h_prev, c_prev): (&[f32], &[f32]) = if s == 0 {
                    (zeros, zeros)
                } else {
                    let p = self.time(s - 1);
                    (row(hs, p, h), row(cs, p, h))
                };
                let gt = row(gates, t, 4 * h);
                let (tc, g_t) = (row(tcs, t, h), row(g_out, t, h));
                for j in 0..h {
                    let (i, f, g, o) = (gt[j], gt[h + j], gt[2 * h + j], gt[3 * h + j]);
                    let dh = if first { g_t[j] } else { g_t[j] + dh_rec[j] };
                    let d_o = dh * tc[j];
                    let d_tc = dh * o;
                    let local = d_tc * (1.0 - tc[j] * tc[j]);
                    let dcj = if first { local } else { dc[j] + local };
                    let (d_i, d_g, d_f) = (dcj * g, dcj * i, dcj * c_prev[j]);
                    dc[j] = dcj * f;
                    dg[j] = d_i * i * (1.0 - i) + 0.0;
                    dg[h + j] = d_f * f * (1.0 - f) + 0.0;
                    dg[2 * h + j] = d_g * (1.0 - g * g) + 0.0;
                    dg[3 * h + j] = d_o * o * (1.0 - o) + 0.0;
                }
                for (d, &v) in db.iter_mut().zip(dg.iter()) {
                    *d += v;
                }
                add_outer(dwx, row(self.xs, t, n), dg);
                add_outer(dwh, h_prev, dg);
                // dg·Whᵀ and dg·Wxᵀ as one-row products over the transposes.
                if s > 0 {
                    matmul_naive_into(dg, 4 * h, 4 * h, wht, h, dh_rec);
                }
                if let Some(dx) = dx.as_deref_mut() {
                    matmul_naive_into(dg, 4 * h, 4 * h, wxt, n, &mut dx[t * n..(t + 1) * n]);
                }
            }
        });
    }
}

/// Row `r` of a row-major matrix with `width` columns.
fn row(m: &[f32], r: usize, width: usize) -> &[f32] {
    &m[r * width..(r + 1) * width]
}

/// `out = wᵀ` for a row-major `w` with `cols` columns.
fn transpose_into(w: &[f32], cols: usize, out: &mut [f32]) {
    let rows = w.len() / cols;
    for (r, w_row) in w.chunks_exact(cols).enumerate() {
        for (c, &v) in w_row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
}

/// `acc[i][j] += a[i] · b[j]`.
fn add_outer(acc: &mut [f32], a: &[f32], b: &[f32]) {
    for (acc_row, &av) in acc.chunks_exact_mut(b.len()).zip(a) {
        for (o, &bv) in acc_row.iter_mut().zip(b) {
            *o += av * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::gradcheck::gradcheck_scalar;
    use crate::layers::{BiLstm, Lstm};
    use crate::params::ParamStore;
    use crate::tape::{Tape, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::{randn, Matrix};

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// A scalar of the `T x 2h` states whose gradient is uneven across
    /// elements and, where dropout zeroes it, a zero of either sign.
    fn loss(tape: &mut Tape, h: Var, weights: &Matrix) -> Var {
        let d = tape.dropout(h, 0.7, &mut StdRng::seed_from_u64(5));
        let w = tape.mul_const(d, weights.clone());
        let w = tape.affine(w, 1.0, 0.3);
        let a = tape.tanh(w);
        let sq = tape.mul(a, a);
        tape.mean_all(sq)
    }

    /// Loss, states and every parameter gradient of `build`'s graph.
    fn run(
        store: &mut ParamStore,
        weights: &Matrix,
        build: impl Fn(&mut Tape, &ParamStore) -> Var,
    ) -> Vec<Vec<u32>> {
        store.zero_grads();
        let mut tape = Tape::new();
        let h = build(&mut tape, store);
        let l = loss(&mut tape, h, weights);
        tape.backward(l, store);
        let mut out = vec![bits(tape.value(l)), bits(tape.value(h))];
        out.extend(store.ids().map(|id| bits(&store.get(id).grad)));
        out
    }

    fn step_inputs(tape: &mut Tape, x: &Matrix) -> Vec<Var> {
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
                let want = run(&mut store, &weights, |tape, store| {
                    let mut xs = step_inputs(tape, &x);
                    for bi in &layers {
                        xs = bi.forward_concat(tape, store, &xs);
                    }
                    tape.stack_rows(&xs)
                });
                let got = run(&mut store, &weights, |tape, store| {
                    let mut h = tape.input(x.clone());
                    for bi in &layers {
                        h = bi.forward_rows(tape, store, h);
                    }
                    h
                });
                assert_eq!(
                    got, want,
                    "in {in_dim}, hidden {hidden}, {depth} layers, T {steps}"
                );
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
        let want = run(&mut store, &weights, |tape, store| {
            let xs = bind(tape, store);
            let hs = bi.forward_concat(tape, store, &xs);
            tape.stack_rows(&hs)
        });
        let got = run(&mut store, &weights, |tape, store| {
            let xs = bind(tape, store);
            let x = tape.stack_rows(&xs);
            bi.forward_rows(tape, store, x)
        });
        assert_eq!(got, want);
        let live = words
            .iter()
            .filter(|&&id| store.get(id).grad.max_abs() > 0.0);
        assert_eq!(live.count(), words.len(), "dX must reach every step");
    }

    #[test]
    fn lstm_seq_gradcheck_both_directions() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(
            &mut store,
            "lstm",
            2,
            3,
            0.4,
            &mut StdRng::seed_from_u64(13),
        );
        let x = randn(&mut StdRng::seed_from_u64(14), 4, 2, 1.0);
        for reverse in [false, true] {
            for id in lstm.param_ids() {
                let err = gradcheck_scalar(&mut store, id, |tape, store| {
                    let xv = tape.input(x.clone());
                    let h = lstm.forward_rows(tape, store, xv, reverse);
                    let sq = tape.mul(h, h);
                    tape.sum_all(sq)
                });
                assert!(err < 2e-2, "reverse {reverse}, param {id:?}: err = {err}");
            }
        }
    }
}
