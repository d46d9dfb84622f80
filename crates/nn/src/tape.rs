//! Reverse-mode autograd over dense matrices.
//!
//! A [`Tape`] records one forward pass as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse and accumulates gradients,
//! scattering those of bound parameters back into the [`ParamStore`]. Tapes
//! are cheap, single-use values: build one per training step, and
//! `backward` consumes it.
//!
//! Parameters are bound by sharing, not copying: a node holds an `Arc` of
//! the store's value, and each [`ParamId`] is bound at most once per tape,
//! so every use of it on the tape sums into one gradient, added to the
//! store once.

use crate::lstm::{Input, LstmPass};
use crate::params::{ParamId, ParamStore};
use crate::seq::SeqBatch;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use tensor::Matrix;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// One recorded operation. Saved tensors needed by the backward pass
/// (dropout masks, softmax probabilities, ...) live in the variant.
enum Op {
    /// Constant input: nothing reads its gradient, so ops may skip it.
    Input,
    /// Bound parameter.
    Param,
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    /// `x + bias` where bias is `1 x C` broadcast across rows.
    AddBias(usize, usize),
    /// `alpha * a + beta` elementwise.
    Affine(usize, f32),
    /// Elementwise multiply by a constant (non-differentiated) matrix,
    /// e.g. a dropout mask.
    MulConst(usize, Matrix),
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    ConcatCols(usize, usize),
    SliceCols(usize, usize),
    /// Rows picked from parts `.0`: output row `r` is row `j` of part `p`
    /// for `.1[r] = Some((p, j))`, a zero row for `None`.
    PickRows(Vec<usize>, Vec<Option<(usize, usize)>>),
    /// Per-sequence mean over the steps of a [`SeqBatch`]: `B x C`.
    MeanOverSteps(usize, SeqBatch),
    /// Row-wise sum: `(R x C) -> (R x 1)`.
    RowSum(usize),
    /// Each sequence's windows of `k` steps, flattened to `kC` columns.
    Im2Col(usize, SeqBatch, usize),
    /// Rows rescaled to unit ℓ2 norm (rows with norm < eps pass through).
    L2NormRows(usize),
    AbsDiff(usize, usize),
    /// Mean softmax cross-entropy over rows; `probs` are saved softmaxes.
    SoftmaxCE {
        logits: usize,
        targets: Vec<usize>,
        probs: Matrix,
    },
    /// Mean binary cross-entropy on logits (`R x 1`), labels in {0, 1}.
    BceLogits {
        logits: usize,
        labels: Matrix,
        sig: Matrix,
    },
    MeanAll(usize),
    /// One LSTM direction over a batch of sequences of lengths `lens`;
    /// `acts` holds the activations [`LstmPass::forward`] saved for the
    /// backward.
    LstmSeq {
        x: usize,
        /// `wx`, `wh`, `b`.
        w: [usize; 3],
        lens: Vec<usize>,
        reverse: bool,
        acts: Matrix,
    },
}

struct Node {
    value: Arc<Matrix>,
    op: Op,
}

/// A single-use autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// The node each bound parameter lives at.
    params: HashMap<ParamId, Var>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: impl Into<Arc<Matrix>>, op: Op) -> Var {
        self.nodes.push(Node {
            value: value.into(),
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The scalar held by a `1 x 1` node (typically a loss).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-scalar node");
        m.get(0, 0)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant input (no gradient flows back out of the tape).
    pub fn input(&mut self, m: Matrix) -> Var {
        self.push(m, Op::Input)
    }

    /// Binds a parameter: shares its current value with the store, once
    /// per tape — binding `id` again returns the same node — so
    /// [`Tape::backward`] adds its gradient to the store once.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.params.get(&id) {
            return v;
        }
        let v = self.push(Arc::clone(&store.get(id).value), Op::Param);
        self.params.insert(id, v);
        v
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(value, Op::MatMul(a.0, b.0))
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        self.push(value, Op::Add(a.0, b.0))
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        self.push(value, Op::Sub(a.0, b.0))
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        self.push(value, Op::Mul(a.0, b.0))
    }

    /// `x + bias`, bias broadcast across rows.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = self.nodes[x.0]
            .value
            .add_row_broadcast(&self.nodes[bias.0].value);
        self.push(value, Op::AddBias(x.0, bias.0))
    }

    /// `alpha * a + beta` elementwise.
    pub fn affine(&mut self, a: Var, alpha: f32, beta: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| alpha * x + beta);
        self.push(value, Op::Affine(a.0, alpha))
    }

    /// Elementwise multiply by a constant matrix (no gradient into `c`).
    pub fn mul_const(&mut self, a: Var, c: Matrix) -> Var {
        let value = self.nodes[a.0].value.hadamard(&c);
        self.push(value, Op::MulConst(a.0, c))
    }

    /// `max(0, a)` via the fused [`Matrix::relu`] kernel.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.relu();
        self.push(value, Op::Relu(a.0))
    }

    /// Logistic sigmoid via the fused [`Matrix::sigmoid`] kernel.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.sigmoid();
        self.push(value, Op::Sigmoid(a.0))
    }

    /// Hyperbolic tangent via the fused [`Matrix::tanh`] kernel.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.tanh();
        self.push(value, Op::Tanh(a.0))
    }

    /// `[a | b]` column concatenation.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(value, Op::ConcatCols(a.0, b.0))
    }

    /// Columns `start..start+len` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start + len <= src.cols(), "slice_cols out of range");
        let mut value = Matrix::zeros(src.rows(), len);
        for r in 0..src.rows() {
            value
                .row_mut(r)
                .copy_from_slice(&src.row(r)[start..start + len]);
        }
        self.push(value, Op::SliceCols(a.0, start))
    }

    /// Vertical stack of row blocks (all with equal column counts).
    pub fn stack_rows(&mut self, parts: &[Var]) -> Var {
        let picks: Vec<_> = (0..parts.len())
            .flat_map(|p| (0..self.nodes[parts[p].0].value.rows()).map(move |j| Some((p, j))))
            .collect();
        self.pick_rows(parts, &picks)
    }

    /// Rows picked from `parts` (all with equal column counts): row `r`
    /// of the result is row `j` of `parts[p]` for `picks[r] = Some((p,
    /// j))`, and zeros for `None`. A part row may be picked any number of
    /// times; the backward scatter-adds into it.
    pub fn pick_rows(&mut self, parts: &[Var], picks: &[Option<(usize, usize)>]) -> Var {
        assert!(!parts.is_empty(), "pick_rows needs at least one part");
        let cols = self.nodes[parts[0].0].value.cols();
        let same = parts.iter().all(|p| self.nodes[p.0].value.cols() == cols);
        assert!(same, "pick_rows column mismatch");
        let mut value = Matrix::zeros(picks.len(), cols);
        for (r, &pick) in picks.iter().enumerate() {
            if let Some((p, j)) = pick {
                value
                    .row_mut(r)
                    .copy_from_slice(self.nodes[parts[p].0].value.row(j));
            }
        }
        let parts = parts.iter().map(|p| p.0).collect();
        self.push(value, Op::PickRows(parts, picks.to_vec()))
    }

    /// One LSTM direction (§4.2) from zero state over the sequences of
    /// `x`, whose `in`-wide rows follow the layout `seqs`, as a single
    /// node: `wx` is `in x 4h`, `wh` is `h x 4h`, `b` is `1 x 4h`, gate
    /// order `[i | f | g | o]`; `reverse` runs each sequence from its last
    /// step to its first. Row `r` of the `rows x h` result is the state
    /// at row `r`'s step. A constant `x` gets no gradient.
    pub fn lstm_seq(
        &mut self,
        x: Var,
        [wx, wh, b]: [Var; 3],
        seqs: &SeqBatch,
        reverse: bool,
    ) -> Var {
        let lens = seqs.lens().to_vec();
        let pass = self.lstm_pass(x.0, [wx.0, wh.0, b.0], &lens, reverse);
        let h = pass.hidden();
        let mut acts = Matrix::zeros(1, pass.acts_len());
        let mut value = Matrix::zeros(pass.rows(), h);
        pass.forward(acts.as_mut_slice(), value.as_mut_slice(), h, 0);
        self.push(
            value,
            Op::LstmSeq {
                x: x.0,
                w: [wx.0, wh.0, b.0],
                lens,
                reverse,
                acts,
            },
        )
    }

    fn lstm_pass<'a>(
        &'a self,
        x: usize,
        [wx, wh, b]: [usize; 3],
        lens: &'a [usize],
        reverse: bool,
    ) -> LstmPass<'a> {
        let value = |i: usize| &*self.nodes[i].value;
        let (in_dim, h) = (value(wx).rows(), value(wh).rows());
        assert_eq!(value(x).cols(), in_dim, "lstm_seq input width mismatch");
        assert_eq!(value(x).rows(), lens.iter().sum(), "lstm_seq row count");
        assert_eq!(value(wx).cols(), 4 * h, "lstm_seq wx shape mismatch");
        assert_eq!(value(wh).cols(), 4 * h, "lstm_seq wh shape mismatch");
        assert_eq!(value(b).shape(), (1, 4 * h), "lstm_seq bias shape mismatch");
        LstmPass {
            input: Input::Rows {
                xs: value(x).as_slice(),
                in_dim,
                wx: value(wx).as_slice(),
            },
            lens,
            wh: value(wh).as_slice(),
            b: value(b).as_slice(),
            reverse,
        }
    }

    /// Per-sequence column-wise mean of the rows of `a` laid out as
    /// `seqs`: row `i` of the `B x C` result is caller sequence `i`'s
    /// `Σ_t v_t / len` in step order (zero for an empty sequence).
    pub fn mean_over_steps(&mut self, a: Var, seqs: &SeqBatch) -> Var {
        let m = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(seqs.order().len(), m.cols());
        seqs.mean_over_steps_into(m.as_slice(), m.cols(), out.as_mut_slice(), m.cols());
        let seqs = seqs.clone();
        self.push(out, Op::MeanOverSteps(a.0, seqs))
    }

    /// Row-wise sum: `(R x C) -> (R x 1)`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let out = Matrix::from_fn(m.rows(), 1, |r, _| m.row(r).iter().sum());
        self.push(out, Op::RowSum(a.0))
    }

    /// Each sequence's windows of `k` consecutive steps, flattened per
    /// window: the rows of `a` laid out as `seqs` (`C` wide) become `kC`-
    /// wide rows laid out as `seqs.windows(k)`. This is the im2col of a
    /// stride-1 1-D convolution over time; combined with [`Tape::matmul`]
    /// it implements the 3×N convolution of BiLSTM-C (Eq. 3).
    pub fn im2col(&mut self, a: Var, seqs: &SeqBatch, k: usize) -> Var {
        let m = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(seqs.windows(k).rows(), k * m.cols());
        seqs.im2col_into(m.as_slice(), m.cols(), k, out.as_mut_slice());
        let seqs = seqs.clone();
        self.push(out, Op::Im2Col(a.0, seqs, k))
    }

    /// Rows rescaled to unit ℓ2 norm. Rows whose norm falls below `1e-12`
    /// pass through unchanged (gradient treated as identity there).
    pub fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let m = &self.nodes[a.0].value;
        let mut out = Matrix::clone(m);
        for r in 0..out.rows() {
            let norm = row_norm(m.row(r));
            if norm > 1e-12 {
                for x in out.row_mut(r) {
                    *x /= norm;
                }
            }
        }
        self.push(out, Op::L2NormRows(a.0))
    }

    /// Elementwise `|a - b|`.
    pub fn abs_diff(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .zip_map(&self.nodes[b.0].value, |x, y| (x - y).abs());
        self.push(value, Op::AbsDiff(a.0, b.0))
    }

    /// Inverted dropout with keep probability `keep`; scales surviving
    /// activations by `1/keep` so evaluation needs no rescaling (§6.1.2
    /// uses keep = 0.8 at the LSTM layer and before every FC layer). The
    /// mask is drawn row-major.
    pub fn dropout<R: Rng>(&mut self, a: Var, keep: f32, rng: &mut R) -> Var {
        let rows = self.nodes[a.0].value.rows();
        self.dropout_rows(a, keep, 0..rows, rng)
    }

    /// [`Tape::dropout`] with the mask drawn row by row in the order of
    /// `rows`, which lists every row of `a` once (e.g.
    /// [`SeqBatch::rows_in_caller_order`]).
    ///
    /// Each element keeps its value (times `1/keep`) when its draw
    /// `rng.gen::<f32>()` is below `keep`. All draws are taken first, in
    /// that order and with nothing else in the loop; one branch-free pass
    /// then turns them into mask values. Written as one `if`, the
    /// comparison became a branch on a uniform draw, mispredicted on
    /// about `min(keep, 1 − keep)` of the elements, which cost three times
    /// the draws themselves.
    ///
    /// The pass works on the raw `u = rng.next_u32()`: `gen::<f32>()` is
    /// `k · 2⁻²⁴` for `k = u >> 8`, both factors exact, and `keep · 2²⁴`
    /// is exact too for `keep` in `(0, 1]`, so the draw is below `keep`
    /// exactly when the integer `k` is below `⌈keep · 2²⁴⌉`. The sign of
    /// `k − ⌈keep · 2²⁴⌉` then masks the bits of `1/keep`.
    pub fn dropout_rows<R: Rng>(
        &mut self,
        a: Var,
        keep: f32,
        rows: impl IntoIterator<Item = usize>,
        rng: &mut R,
    ) -> Var {
        thread_local! {
            static DRAWS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        }
        assert!((0.0..=1.0).contains(&keep) && keep > 0.0, "bad keep prob");
        let (r, c) = self.nodes[a.0].value.shape();
        let rows: Vec<usize> = rows.into_iter().collect();
        let mut mask = Matrix::zeros(r, c);
        DRAWS.with(|draws| {
            let draws = &mut *draws.borrow_mut();
            draws.clear();
            draws.extend((0..rows.len() * c).map(|_| rng.next_u32()));
            let cut = (keep * 16_777_216.0).ceil() as i32;
            let kept = (1.0 / keep).to_bits();
            for (&row, us) in rows.iter().zip(draws.chunks_exact(c.max(1))) {
                for (m, &u) in mask.row_mut(row).iter_mut().zip(us) {
                    let below = (((u >> 8) as i32 - cut) >> 31) as u32;
                    *m = f32::from_bits(kept & below);
                }
            }
        });
        self.mul_const(a, mask)
    }

    /// Mean softmax cross-entropy of `logits` (`B x K`) against class
    /// indices `targets` (length `B`). Returns a `1 x 1` loss node.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.rows(), targets.len(), "target count mismatch");
        // The fused kernel runs the exact per-row operation order the
        // loss below assumes: max-subtract, exp, ascending-order sum,
        // divide.
        let probs = z.softmax_rows();
        let mut loss = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < z.cols(), "target class out of range");
            loss -= (probs.get(r, t).max(1e-12) as f64).ln();
        }
        let mean = (loss / z.rows().max(1) as f64) as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![mean]),
            Op::SoftmaxCE {
                logits: logits.0,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Softmax probabilities of a logits node (forward-only convenience for
    /// inference; participates in the graph as a constant).
    pub fn softmax_probs(&self, logits: Var) -> Matrix {
        self.value(logits).softmax_rows()
    }

    /// Mean binary cross-entropy of logits (`B x 1`) against labels in
    /// {0, 1} (`B x 1`). Returns a `1 x 1` loss node. This is the reduced
    /// log-loss of the co-location judge (§5).
    pub fn bce_with_logits(&mut self, logits: Var, labels: Matrix) -> Var {
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.shape(), labels.shape(), "label shape mismatch");
        assert_eq!(z.cols(), 1, "bce expects a column of logits");
        let sig = z.sigmoid();
        let mut loss = 0.0f64;
        for r in 0..z.rows() {
            let (x, y) = (z.get(r, 0) as f64, labels.get(r, 0) as f64);
            // Numerically stable: log(1+e^-|x|) + max(x,0) - x*y
            loss += (1.0 + (-x.abs()).exp()).ln() + x.max(0.0) - x * y;
        }
        let mean = (loss / z.rows().max(1) as f64) as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![mean]),
            Op::BceLogits {
                logits: logits.0,
                labels,
                sig,
            },
        )
    }

    /// Mean of all elements as a `1 x 1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.mean();
        self.push(Matrix::from_vec(1, 1, vec![s]), Op::MeanAll(a.0))
    }

    /// Runs the backward pass from the scalar node `loss`, accumulating the
    /// gradients of every bound parameter into `store` (`+=`, so batches
    /// can be split across multiple tapes), and drops the tape — releasing
    /// its shares of the parameter values before an optimizer writes them.
    /// Returns the loss value.
    pub fn backward(self, loss: Var, store: &mut ParamStore) -> f32 {
        let grads = self.backward_grads(loss);
        for (&id, v) in &self.params {
            if let Some(g) = &grads[v.0] {
                store.get_mut(id).grad.add_assign(g);
            }
        }
        self.scalar(loss)
    }

    fn backward_grads(&self, loss: Var) -> Vec<Option<Matrix>> {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward() must start from a scalar node"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Matrix::filled(1, 1, 1.0));

        for i in (0..self.nodes.len()).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            self.backprop_node(i, &g, &mut grads);
            grads[i] = Some(g);
        }
        grads
    }

    /// Whether node `i` is a constant [`Tape::input`].
    fn is_input(&self, i: usize) -> bool {
        matches!(self.nodes[i].op, Op::Input)
    }

    fn backprop_node(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        let acc = |grads: &mut [Option<Matrix>], idx: usize, delta: Matrix| match &mut grads[idx] {
            Some(existing) => existing.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        };
        match &self.nodes[i].op {
            Op::Input | Op::Param => {}
            Op::MatMul(a, b) => {
                // A constant operand's gradient is never read: skip its
                // product, as `LstmSeq` skips `dX`.
                if !self.is_input(*a) {
                    acc(grads, *a, g.matmul_nt(&self.nodes[*b].value));
                }
                if !self.is_input(*b) {
                    acc(grads, *b, self.nodes[*a].value.matmul_tn(g));
                }
            }
            Op::Add(a, b) => {
                acc(grads, *a, g.clone());
                acc(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                acc(grads, *a, g.clone());
                acc(grads, *b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                acc(grads, *a, g.hadamard(&self.nodes[*b].value));
                acc(grads, *b, g.hadamard(&self.nodes[*a].value));
            }
            Op::AddBias(x, bias) => {
                acc(grads, *x, g.clone());
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        db.set(0, c, db.get(0, c) + g.get(r, c));
                    }
                }
                acc(grads, *bias, db);
            }
            Op::Affine(a, alpha) => acc(grads, *a, g.scale(*alpha)),
            Op::MulConst(a, c) => acc(grads, *a, g.hadamard(c)),
            Op::Relu(a) => {
                let y = &self.nodes[i].value;
                acc(
                    grads,
                    *a,
                    g.zip_map(y, |gi, yi| if yi > 0.0 { gi } else { 0.0 }),
                );
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                acc(grads, *a, g.zip_map(y, |gi, yi| gi * yi * (1.0 - yi)));
            }
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                acc(grads, *a, g.zip_map(y, |gi, yi| gi * (1.0 - yi * yi)));
            }
            Op::ConcatCols(a, b) => {
                let ca = self.nodes[*a].value.cols();
                let mut da = Matrix::zeros(g.rows(), ca);
                let mut db = Matrix::zeros(g.rows(), g.cols() - ca);
                for r in 0..g.rows() {
                    let (ga, gb) = g.row(r).split_at(ca);
                    da.row_mut(r).copy_from_slice(ga);
                    db.row_mut(r).copy_from_slice(gb);
                }
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::SliceCols(a, start) => {
                let src = &self.nodes[*a].value;
                let mut da = Matrix::zeros(src.rows(), src.cols());
                for r in 0..g.rows() {
                    da.row_mut(r)[*start..start + g.cols()].copy_from_slice(g.row(r));
                }
                acc(grads, *a, da);
            }
            Op::PickRows(parts, picks) => {
                let mut dp: Vec<Matrix> = parts
                    .iter()
                    .map(|&p| Matrix::zeros(self.nodes[p].value.rows(), g.cols()))
                    .collect();
                for (r, &pick) in picks.iter().enumerate() {
                    if let Some((p, j)) = pick {
                        for (d, &gv) in dp[p].row_mut(j).iter_mut().zip(g.row(r)) {
                            *d += gv;
                        }
                    }
                }
                for (&p, dp) in parts.iter().zip(dp) {
                    if !self.is_input(p) {
                        acc(grads, p, dp);
                    }
                }
            }
            Op::MeanOverSteps(a, seqs) => {
                let mut da = Matrix::zeros(seqs.rows(), g.cols());
                for (slot, (&caller, &len)) in seqs.order().iter().zip(seqs.lens()).enumerate() {
                    let scale = 1.0 / len.max(1) as f32;
                    for t in 0..len {
                        let d = da.row_mut(seqs.row(slot, t));
                        for (d, &gv) in d.iter_mut().zip(g.row(caller)) {
                            *d = gv * scale;
                        }
                    }
                }
                acc(grads, *a, da);
            }
            Op::RowSum(a) => {
                let src = &self.nodes[*a].value;
                let da = Matrix::from_fn(src.rows(), src.cols(), |r, _| g.get(r, 0));
                acc(grads, *a, da);
            }
            Op::Im2Col(a, seqs, k) => {
                let (win, c) = (seqs.windows(*k), self.nodes[*a].value.cols());
                let mut da = Matrix::zeros(seqs.rows(), c);
                // Sequence by sequence, window by window, row by row: the
                // (t, dk) add order of each row is that of the sequence alone.
                for (slot, &len) in win.lens().iter().enumerate() {
                    for t in 0..len {
                        let g_row = g.row(win.row(slot, t));
                        for (dk, g_part) in g_row.chunks_exact(c).enumerate() {
                            let d = da.row_mut(seqs.row(slot, t + dk));
                            for (d, &gv) in d.iter_mut().zip(g_part) {
                                *d += gv;
                            }
                        }
                    }
                }
                acc(grads, *a, da);
            }
            Op::L2NormRows(a) => {
                let x = &self.nodes[*a].value;
                let y = &self.nodes[i].value;
                let mut da = Matrix::zeros(x.rows(), x.cols());
                for r in 0..x.rows() {
                    let norm = row_norm(x.row(r));
                    if norm > 1e-12 {
                        let gy: f32 = g.row(r).iter().zip(y.row(r)).map(|(&g, &y)| g * y).sum();
                        for c in 0..x.cols() {
                            da.set(r, c, (g.get(r, c) - y.get(r, c) * gy) / norm);
                        }
                    } else {
                        da.row_mut(r).copy_from_slice(g.row(r));
                    }
                }
                acc(grads, *a, da);
            }
            Op::AbsDiff(a, b) => {
                let va = &self.nodes[*a].value;
                let vb = &self.nodes[*b].value;
                let sign = va.zip_map(vb, |x, y| ((x > y) as i8 - (x < y) as i8) as f32);
                acc(grads, *a, g.hadamard(&sign));
                acc(grads, *b, g.hadamard(&sign).scale(-1.0));
            }
            Op::SoftmaxCE {
                logits,
                targets,
                probs,
            } => {
                let scale = g.get(0, 0) / probs.rows().max(1) as f32;
                let mut dz = probs.scale(scale);
                for (r, &t) in targets.iter().enumerate() {
                    dz.set(r, t, dz.get(r, t) - scale);
                }
                acc(grads, *logits, dz);
            }
            Op::BceLogits {
                logits,
                labels,
                sig,
            } => {
                let scale = g.get(0, 0) / sig.rows().max(1) as f32;
                let dz = sig.zip_map(labels, |s, y| (s - y) * scale);
                acc(grads, *logits, dz);
            }
            Op::MeanAll(a) => {
                let shape = self.nodes[*a].value.shape();
                let n = (shape.0 * shape.1).max(1) as f32;
                acc(grads, *a, Matrix::filled(shape.0, shape.1, g.get(0, 0) / n));
            }
            Op::LstmSeq {
                x,
                w,
                lens,
                reverse,
                acts,
            } => {
                let pass = self.lstm_pass(*x, *w, lens, *reverse);
                let hs = self.nodes[i].value.as_slice();
                let want_dx = !self.is_input(*x);
                let (dw, dx) = pass.backward(acts.as_slice(), hs, g.as_slice(), want_dx);
                if let Some(dx) = dx {
                    acc(grads, *x, dx);
                }
                for (&p, d) in w.iter().zip(dw) {
                    acc(grads, p, d);
                }
            }
        }
    }
}

fn row_norm(row: &[f32]) -> f32 {
    row.iter().map(|x| x * x).sum::<f32>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::gradcheck_scalar;
    use rand::rngs::mock::StepRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::randn;

    /// Runs gradcheck for a scalar-valued graph builder over one parameter.
    fn check(build: impl Fn(&mut Tape, Var) -> Var, init: Matrix) {
        let mut store = ParamStore::new();
        let id = store.add("p", init);
        let max_err = gradcheck_scalar(&mut store, id, |tape, store| {
            let p = tape.param(store, id);
            build(tape, p)
        });
        assert!(max_err < 2e-2, "gradcheck failed: max rel err = {max_err}");
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
        randn(&mut StdRng::seed_from_u64(seed), rows, cols, 1.0)
    }

    #[test]
    fn grad_matmul() {
        let c = seeded(3, 2, 9);
        check(
            move |t, p| {
                let c = t.input(c.clone());
                let y = t.matmul(p, c);
                t.mean_all(y)
            },
            seeded(2, 3, 1),
        );
    }

    #[test]
    fn matmul_skips_the_gradient_of_a_constant_operand() {
        // `x·W` and `W·x` with `x` a constant input, then with `x` a
        // parameter: `W`'s gradient has the same bits either way, and the
        // input gets none.
        let (x, w) = (seeded(3, 3, 21), seeded(3, 3, 22));
        let grads = |x_param: bool, x_first: bool| {
            let mut store = ParamStore::new();
            let (wid, xid) = (store.add("w", w.clone()), store.add("x", x.clone()));
            let mut tape = Tape::new();
            let wv = tape.param(&store, wid);
            let xv = if x_param {
                tape.param(&store, xid)
            } else {
                tape.input(x.clone())
            };
            let y = if x_first {
                tape.matmul(xv, wv)
            } else {
                tape.matmul(wv, xv)
            };
            let y = tape.tanh(y);
            let loss = tape.mean_all(y);
            let mut all = tape.backward_grads(loss);
            let dw: Vec<u32> = all[wv.0]
                .take()
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (all[xv.0].is_some(), dw)
        };
        for x_first in [true, false] {
            let (input_grad, dw) = grads(false, x_first);
            let (param_grad, dw_param) = grads(true, x_first);
            assert!(!input_grad && param_grad, "x first: {x_first}");
            assert_eq!(dw, dw_param, "x first: {x_first}");
        }
    }

    #[test]
    fn grad_add_sub_mul() {
        let other = seeded(2, 3, 5);
        check(
            move |t, p| {
                let o = t.input(other.clone());
                let a = t.add(p, o);
                let s = t.sub(a, p);
                let m = t.mul(s, p);
                t.mean_all(m)
            },
            seeded(2, 3, 2),
        );
    }

    #[test]
    fn grad_bias_broadcast() {
        let x = seeded(4, 3, 11);
        check(
            move |t, p| {
                let x = t.input(x.clone());
                let y = t.add_bias(x, p);
                let z = t.tanh(y);
                t.mean_all(z)
            },
            seeded(1, 3, 3),
        );
    }

    #[test]
    fn grad_activations() {
        check(
            |t, p| {
                let r = t.relu(p);
                let s = t.sigmoid(r);
                let h = t.tanh(s);
                t.mean_all(h)
            },
            seeded(3, 3, 4).scale(2.0),
        );
    }

    #[test]
    fn grad_concat_slice_stack() {
        let other = seeded(2, 2, 6);
        check(
            move |t, p| {
                let o = t.input(other.clone());
                let cat = t.concat_cols(p, o);
                let left = t.slice_cols(cat, 1, 3);
                let st = t.stack_rows(&[left, left]);
                // Zero rows, a subset of `st` with one row twice, `p`'s
                // rows reordered, and rows of both parts side by side.
                let picks = [
                    None,
                    Some((1, 1)),
                    Some((0, 3)),
                    Some((1, 0)),
                    None,
                    Some((0, 0)),
                    Some((0, 3)),
                ];
                let picked = t.pick_rows(&[st, p], &picks);
                let sq = t.mul(picked, picked);
                let (a, b) = (t.mean_all(sq), t.mean_all(st));
                t.add(a, b)
            },
            seeded(2, 3, 7),
        );
    }

    #[test]
    fn grad_reductions() {
        check(
            |t, p| {
                let m = t.mean_over_steps(p, &SeqBatch::new(&[4]));
                let s = t.row_sum(m);
                t.mean_all(s)
            },
            seeded(4, 3, 8),
        );
    }

    #[test]
    fn grad_im2col() {
        let w = seeded(6, 2, 13);
        check(
            move |t, p| {
                let cols = t.im2col(p, &SeqBatch::new(&[5]), 3);
                let w = t.input(w.clone());
                let y = t.matmul(cols, w);
                let y = t.relu(y);
                t.mean_all(y)
            },
            seeded(5, 2, 12),
        );
    }

    #[test]
    fn grad_l2_normalize() {
        check(
            |t, p| {
                let n = t.l2_normalize_rows(p);
                let s = t.row_sum(n);
                t.mean_all(s)
            },
            seeded(3, 4, 14),
        );
    }

    #[test]
    fn grad_abs_diff() {
        let other = seeded(2, 3, 16);
        check(
            move |t, p| {
                let o = t.input(other.clone());
                let d = t.abs_diff(p, o);
                t.mean_all(d)
            },
            seeded(2, 3, 15),
        );
    }

    #[test]
    fn grad_softmax_ce() {
        check(
            |t, p| t.softmax_cross_entropy(p, &[2, 0, 1]),
            seeded(3, 4, 17),
        );
    }

    #[test]
    fn grad_bce() {
        let labels = Matrix::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
        check(
            move |t, p| t.bce_with_logits(p, labels.clone()),
            seeded(4, 1, 18),
        );
    }

    #[test]
    fn grad_affine_mulconst() {
        let c = seeded(2, 2, 20);
        check(
            move |t, p| {
                let a = t.affine(p, -2.0, 0.5);
                let m = t.mul_const(a, c.clone());
                t.mean_all(m)
            },
            seeded(2, 2, 19),
        );
    }

    /// The mask as one branch per element drew it, visiting `rows` in
    /// order: the reference [`Tape::dropout_rows`] must equal by bits.
    fn mask_reference<R: Rng>(
        r: usize,
        c: usize,
        keep: f32,
        rows: &[usize],
        rng: &mut R,
    ) -> Matrix {
        let mut mask = Matrix::zeros(r, c);
        for &row in rows {
            for m in mask.row_mut(row) {
                *m = if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                };
            }
        }
        mask
    }

    #[test]
    fn dropout_mask_equals_the_per_element_branch_bit_for_bit() {
        let seqs = SeqBatch::new(&[3, 0, 7, 1, 7, 4]);
        let order: Vec<usize> = seqs.rows_in_caller_order().collect();
        let just_above_half = f32::from_bits(0.5f32.to_bits() + 1);
        for keep in [
            1.0,
            0.8,
            0.7,
            0.5,
            just_above_half,
            3.0 / 7.0,
            0.999_999_9,
            1e-7,
            1e-30,
        ] {
            for (c, seed) in [(1usize, 1u64), (5, 2), (48, 3)] {
                let ones = Matrix::filled(seqs.rows(), c, 1.0);
                let mut want_rng = StdRng::seed_from_u64(seed);
                let want = mask_reference(seqs.rows(), c, keep, &order, &mut want_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut tape = Tape::new();
                let x = tape.input(ones);
                let d = tape.dropout_rows(x, keep, seqs.rows_in_caller_order(), &mut rng);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(tape.value(d)), bits(&want), "keep {keep}, {c} columns");
                assert_eq!(
                    rng.gen::<u64>(),
                    want_rng.gen::<u64>(),
                    "RNG position, keep {keep}"
                );
            }
            // Draws stepping across the edge: `k` from four below
            // `⌈keep · 2²⁴⌉` to four above it.
            let edge = (keep * 16_777_216.0).ceil() as u64;
            let start = edge.saturating_sub(4) << 40;
            let mut want_rng = StepRng::new(start, 1 << 40);
            let rows: Vec<usize> = (0..8).collect();
            let want = mask_reference(8, 1, keep, &rows, &mut want_rng);
            let mut tape = Tape::new();
            let x = tape.input(Matrix::filled(8, 1, 1.0));
            let d = tape.dropout(x, keep, &mut StepRng::new(start, 1 << 40));
            assert_eq!(
                tape.value(d).as_slice(),
                want.as_slice(),
                "edge, keep {keep}"
            );
        }
    }

    #[test]
    fn dropout_forward_scales_and_masks() {
        let mut t = Tape::new();
        let x = t.input(Matrix::filled(10, 10, 1.0));
        let mut rng = StdRng::seed_from_u64(0);
        let d = t.dropout(x, 0.8, &mut rng);
        let vals = t.value(d).as_slice();
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 1.25).abs() < 1e-6));
        let kept = vals.iter().filter(|&&v| v > 0.0).count();
        assert!((60..=95).contains(&kept), "kept = {kept}");
    }

    #[test]
    fn dropout_gradient_respects_mask() {
        let mut store = ParamStore::new();
        let id = store.add("p", Matrix::filled(4, 4, 2.0));
        let mut t = Tape::new();
        let p = t.param(&store, id);
        let mut rng = StdRng::seed_from_u64(3);
        let d = t.dropout(p, 0.5, &mut rng);
        let y = t.value(d).clone();
        // `mean_all` of 16 elements, scaled back to their sum.
        let sum = t.affine(d, 16.0, 0.0);
        let loss = t.mean_all(sum);
        t.backward(loss, &mut store);
        let g = &store.get(id).grad;
        for r in 0..4 {
            for c in 0..4 {
                if y.get(r, c) == 0.0 {
                    assert_eq!(g.get(r, c), 0.0);
                } else {
                    assert!((g.get(r, c) - 2.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn softmax_probs_sum_to_one() {
        let mut t = Tape::new();
        let z = t.input(seeded(5, 7, 21).scale(3.0));
        let p = t.softmax_probs(z);
        for r in 0..5 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn bce_matches_manual_value() {
        let mut t = Tape::new();
        let z = t.input(Matrix::from_vec(2, 1, vec![0.0, 2.0]));
        let l = t.bce_with_logits(z, Matrix::from_vec(2, 1, vec![1.0, 0.0]));
        // -ln(0.5) and -ln(1 - sigmoid(2))
        let expect = (-0.5f64.ln() + -(1.0 - 1.0 / (1.0 + (-2.0f64).exp())).ln()) / 2.0;
        assert!((t.scalar(l) as f64 - expect).abs() < 1e-5);
    }

    #[test]
    fn grads_accumulate_across_tapes() {
        let mut store = ParamStore::new();
        let id = store.add("p", Matrix::filled(1, 2, 1.0));
        for _ in 0..3 {
            let mut t = Tape::new();
            let p = t.param(&store, id);
            let sum = t.affine(p, 2.0, 0.0);
            let loss = t.mean_all(sum);
            t.backward(loss, &mut store);
        }
        assert_eq!(store.get(id).grad.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn shared_subexpression_gradients_sum() {
        // loss = sum(p + p) => dloss/dp = 2
        let mut store = ParamStore::new();
        let id = store.add("p", Matrix::filled(2, 2, 0.5));
        let mut t = Tape::new();
        let p = t.param(&store, id);
        let y = t.add(p, p);
        let sum = t.affine(y, 4.0, 0.0);
        let loss = t.mean_all(sum);
        t.backward(loss, &mut store);
        assert!(store
            .get(id)
            .grad
            .approx_eq(&Matrix::filled(2, 2, 2.0), 1e-6));
    }

    #[test]
    fn a_param_bound_twice_is_one_node_with_one_gradient() {
        let mut store = ParamStore::new();
        let id = store.add("p", Matrix::filled(1, 2, 3.0));
        let mut t = Tape::new();
        let a = t.param(&store, id);
        let len = t.len();
        let b = t.param(&store, id);
        assert_eq!(a, b, "the second binding must return the first node");
        assert_eq!(t.len(), len, "and record nothing");
        // Shared, not copied: the node holds the store's own values.
        assert!(std::ptr::eq(t.value(a), store.value(id)));
        let y = t.mul(a, b);
        let loss = t.mean_all(y);
        t.backward(loss, &mut store);
        // d mean(p²) / dp = 2p / 2, added to the store once.
        assert_eq!(store.get(id).grad.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn zero_row_matrices_flow_through_elementwise_ops() {
        let mut t = Tape::new();
        let x = t.input(Matrix::zeros(0, 4));
        let y = t.relu(x);
        let z = t.sigmoid(y);
        assert_eq!(t.value(z).shape(), (0, 4));
        let m = t.mean_all(z);
        assert_eq!(t.scalar(m), 0.0);
    }

    #[test]
    fn slice_cols_full_width_is_identity() {
        let mut t = Tape::new();
        let m = seeded(3, 4, 30);
        let x = t.input(m.clone());
        let y = t.slice_cols(x, 0, 4);
        assert!(t.value(y).approx_eq(&m, 0.0));
    }

    #[test]
    #[should_panic]
    fn slice_cols_out_of_range_panics() {
        let mut t = Tape::new();
        let x = t.input(Matrix::zeros(2, 3));
        let _ = t.slice_cols(x, 2, 2);
    }

    #[test]
    #[should_panic]
    fn softmax_ce_rejects_out_of_range_target() {
        let mut t = Tape::new();
        let z = t.input(Matrix::zeros(1, 3));
        let _ = t.softmax_cross_entropy(z, &[3]);
    }

    #[test]
    fn softmax_ce_is_stable_for_extreme_logits() {
        let mut t = Tape::new();
        let z = t.input(Matrix::from_vec(2, 2, vec![1e4, -1e4, -1e4, 1e4]));
        let loss = t.softmax_cross_entropy(z, &[0, 1]);
        let v = t.scalar(loss);
        assert!(v.is_finite() && v >= 0.0, "loss = {v}");
        let wrong = Tape::new();
        drop(wrong);
        // And the badly-wrong case is large but finite.
        let mut t2 = Tape::new();
        let z2 = t2.input(Matrix::from_vec(1, 2, vec![-1e4, 1e4]));
        let loss2 = t2.softmax_cross_entropy(z2, &[0]);
        assert!(t2.scalar(loss2).is_finite());
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let mut t = Tape::new();
        let z = t.input(Matrix::from_vec(2, 1, vec![1e4, -1e4]));
        let loss = t.bce_with_logits(z, Matrix::from_vec(2, 1, vec![0.0, 1.0]));
        let v = t.scalar(loss);
        assert!(v.is_finite() && v > 100.0, "loss = {v}");
    }

    #[test]
    fn l2_normalize_handles_zero_rows() {
        let mut t = Tape::new();
        let x = t.input(Matrix::zeros(2, 3));
        let y = t.l2_normalize_rows(x);
        assert_eq!(t.value(y).sum(), 0.0);
        // And gradient passes through as identity there.
        let mut store = ParamStore::new();
        let id = store.add("p", Matrix::zeros(1, 3));
        let mut t = Tape::new();
        let p = t.param(&store, id);
        let n = t.l2_normalize_rows(p);
        let sum = t.affine(n, 3.0, 0.0);
        let loss = t.mean_all(sum);
        t.backward(loss, &mut store);
        assert!(store
            .get(id)
            .grad
            .approx_eq(&Matrix::filled(1, 3, 1.0), 1e-6));
    }

    #[test]
    #[should_panic]
    fn backward_requires_scalar() {
        let mut store = ParamStore::new();
        let id = store.add("p", Matrix::filled(2, 2, 1.0));
        let mut t = Tape::new();
        let p = t.param(&store, id);
        t.backward(p, &mut store);
    }
}
