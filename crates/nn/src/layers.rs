//! Neural-network layers over the autograd tape.
//!
//! Layers own no tensors — they allocate parameters in a [`ParamStore`] at
//! construction and hold only [`ParamId`]s, so the same layer object can be
//! used across tapes and its parameters can be grouped into the paper's
//! Θ_F / Θ_P / Θ_E optimizer groups.

use crate::params::{ParamId, ParamStore};
use crate::seq::SeqBatch;
use crate::tape::{Tape, Var};
use rand::Rng;
use tensor::{randn, Matrix};

/// `std` if positive, else He init `sqrt(2 / fan_in)`.
fn resolve_std(std: f32, fan_in: usize) -> f32 {
    if std > 0.0 {
        std
    } else {
        (2.0 / fan_in.max(1) as f32).sqrt()
    }
}

/// A fully-connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in_dim x out_dim`).
    pub w: ParamId,
    /// Bias row (`1 x out_dim`).
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Allocates a layer with Gaussian-initialized weights and zero bias.
    ///
    /// `std > 0` fixes the standard deviation (§6.1.2: the paper uses
    /// 0.01); `std <= 0` selects He scaling `sqrt(2 / fan_in)`, which keeps
    /// activations from vanishing through deep ReLU stacks at the small
    /// widths this reproduction trains.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let std = resolve_std(std, in_dim);
        let w = store.add(format!("{prefix}/w"), randn(rng, in_dim, out_dim, std));
        let b = store.add(format!("{prefix}/b"), Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// `x @ W + b` for `x: B x in_dim`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        tape.add_bias(xw, b)
    }

    /// Parameter ids of this layer.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.w, self.b]
    }
}

/// A stack of fully-connected layers, each followed by ReLU, per the
/// paper's `h_Q(...h_2(h_1(x)))` feed-forward blocks (§4.3, §5). The last
/// layer's activation is controlled by `relu_last` so the block can emit
/// raw logits.
#[derive(Debug, Clone)]
pub struct FeedForward {
    /// The linear layers, in forward order.
    pub layers: Vec<Linear>,
    /// Whether the final layer is also followed by ReLU.
    pub relu_last: bool,
}

impl FeedForward {
    /// Builds `dims.len() - 1` linear layers, e.g. `dims = [64, 32, 16]`
    /// gives two layers 64→32→16.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        prefix: &str,
        dims: &[usize],
        relu_last: bool,
        std: f32,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "FeedForward needs at least one layer");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{prefix}/fc{i}"), w[0], w[1], std, rng))
            .collect();
        Self { layers, relu_last }
    }

    /// Forward pass without dropout.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        self.forward_impl::<rand::rngs::ThreadRng>(tape, store, x, None)
    }

    /// Forward pass with inverted dropout (keep probability `keep`)
    /// applied *before* every layer, matching §6.1.2.
    pub fn forward_dropout<R: Rng>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        keep: f32,
        rng: &mut R,
    ) -> Var {
        self.forward_impl(tape, store, x, Some((keep, rng)))
    }

    fn forward_impl<R: Rng>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        mut x: Var,
        mut dropout: Option<(f32, &mut R)>,
    ) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            if let Some((keep, rng)) = dropout.as_mut() {
                if *keep < 1.0 {
                    x = tape.dropout(x, *keep, *rng);
                }
            }
            x = layer.forward(tape, store, x);
            if i != last || self.relu_last {
                x = tape.relu(x);
            }
        }
        x
    }

    /// Parameter ids of all layers.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.layers.iter().flat_map(Linear::param_ids).collect()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }
}

/// A single-direction LSTM (§4.2) with gate order `[i | f | g | o]` packed
/// into one `4h`-wide weight pair.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input-to-gates weights (`in_dim x 4h`).
    pub wx: ParamId,
    /// State-to-gates weights (`h x 4h`).
    pub wh: ParamId,
    /// Gate biases (`1 x 4h`), forget gate initialized to 1.
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width `h`.
    pub hidden: usize,
}

impl Lstm {
    /// Allocates LSTM parameters. The forget-gate bias is initialized to
    /// 1.0 (standard practice to avoid early vanishing of the cell state);
    /// other biases are zero, weights Gaussian with the given std.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let std = resolve_std(std, in_dim + hidden);
        let wx = store.add(format!("{prefix}/wx"), randn(rng, in_dim, 4 * hidden, std));
        let wh = store.add(format!("{prefix}/wh"), randn(rng, hidden, 4 * hidden, std));
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0);
        }
        let b = store.add(format!("{prefix}/b"), bias);
        Self {
            wx,
            wh,
            b,
            in_dim,
            hidden,
        }
    }

    /// Runs the recurrence over every sequence of `x` (rows laid out as
    /// `seqs`, `in_dim` wide) as one fused [`Tape::lstm_seq`] node;
    /// initial hidden and cell states are zero (§6.1.2). Row `r` of the
    /// `rows x hidden` result is the state at row `r`'s step, also when
    /// `reverse` runs each sequence from its last step to its first.
    pub fn forward_rows(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        seqs: &SeqBatch,
        reverse: bool,
    ) -> Var {
        let w = [self.wx, self.wh, self.b].map(|id| tape.param(store, id));
        tape.lstm_seq(x, w, seqs, reverse)
    }

    /// Parameter ids.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.wx, self.wh, self.b]
    }
}

/// A bidirectional LSTM (§4.2): two independent recurrences, one over the
/// sequence and one over its reverse.
#[derive(Debug, Clone)]
pub struct BiLstm {
    /// Left-to-right recurrence.
    pub fwd: Lstm,
    /// Right-to-left recurrence.
    pub bwd: Lstm,
}

impl BiLstm {
    /// Allocates both directions with `hidden` units each.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        std: f32,
        rng: &mut R,
    ) -> Self {
        Self {
            fwd: Lstm::new(store, &format!("{prefix}/fwd"), in_dim, hidden, std, rng),
            bwd: Lstm::new(store, &format!("{prefix}/bwd"), in_dim, hidden, std, rng),
        }
    }

    /// `[h_fwd | h_bwd]` at every row of `x` (rows laid out as `seqs`,
    /// `in_dim` wide) as a `rows x 2h` node: one fused [`Tape::lstm_seq`]
    /// per direction. Binds the forward direction's parameters, then the
    /// backward's.
    pub fn forward_rows(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        seqs: &SeqBatch,
    ) -> Var {
        let hf = self.fwd.forward_rows(tape, store, x, seqs, false);
        let hb = self.bwd.forward_rows(tape, store, x, seqs, true);
        tape.concat_cols(hf, hb)
    }

    /// Parameter ids of both directions.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.fwd.param_ids();
        ids.extend(self.bwd.param_ids());
        ids
    }

    /// Hidden width per direction.
    pub fn hidden(&self) -> usize {
        self.fwd.hidden
    }
}

/// A stride-1 1-D convolution over time: windows of `k` consecutive rows
/// of a `T x in_dim` sequence, each mapped to `out_dim` features.
///
/// With `k = 3`, `in_dim = 2N` (the concatenated BLSTM states) and
/// `out_dim = N`, this is the "3×N Conv" of BiLSTM-C (Eq. 3): the paper's
/// 2-channel `T x N` image with a 3×N filter is exactly a width-3 temporal
/// window over the 2N-dimensional per-step states.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// Flattened filter bank (`k*in_dim x out_dim`).
    pub w: ParamId,
    /// Output bias (`1 x out_dim`).
    pub b: ParamId,
    /// Temporal kernel width.
    pub k: usize,
    /// Input channels.
    pub in_dim: usize,
    /// Output channels.
    pub out_dim: usize,
}

impl Conv1d {
    /// Allocates a `k`-wide filter bank.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        prefix: &str,
        k: usize,
        in_dim: usize,
        out_dim: usize,
        std: f32,
        rng: &mut R,
    ) -> Self {
        let std = resolve_std(std, k * in_dim);
        let w = store.add(format!("{prefix}/w"), randn(rng, k * in_dim, out_dim, std));
        let b = store.add(format!("{prefix}/b"), Matrix::zeros(1, out_dim));
        Self {
            w,
            b,
            k,
            in_dim,
            out_dim,
        }
    }

    /// Applies the convolution to every sequence of `x` (rows laid out as
    /// `seqs`, `in_dim` wide, each sequence at least `k` long), giving
    /// `out_dim`-wide rows laid out as `seqs.windows(k)`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var, seqs: &SeqBatch) -> Var {
        let cols = tape.im2col(x, seqs, self.k);
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let y = tape.matmul(cols, w);
        tape.add_bias(y, b)
    }

    /// Parameter ids.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.w, self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::gradcheck_scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::randn as trandn;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn linear_shapes_and_values() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, 0.1, &mut rng(0));
        // Overwrite with known weights.
        *store.value_mut(lin.w) = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        *store.value_mut(lin.b) = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let mut t = Tape::new();
        let x = t.input(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let y = lin.forward(&mut t, &store, x);
        assert_eq!(t.value(y).as_slice(), &[4.5, 4.5]);
    }

    #[test]
    fn feedforward_stack_depth_and_dims() {
        let mut store = ParamStore::new();
        let ff = FeedForward::new(&mut store, "ff", &[8, 6, 4, 2], false, 0.1, &mut rng(1));
        assert_eq!(ff.layers.len(), 3);
        assert_eq!(ff.out_dim(), 2);
        let mut t = Tape::new();
        let x = t.input(trandn(&mut rng(2), 5, 8, 1.0));
        let y = ff.forward(&mut t, &store, x);
        assert_eq!(t.value(y).shape(), (5, 2));
    }

    #[test]
    fn feedforward_gradcheck_every_param() {
        let mut store = ParamStore::new();
        let ff = FeedForward::new(&mut store, "ff", &[4, 5, 3], false, 0.3, &mut rng(3));
        let x = trandn(&mut rng(4), 2, 4, 1.0);
        for id in ff.param_ids() {
            let x = x.clone();
            let ff = ff.clone();
            let err = gradcheck_scalar(&mut store, id, move |t, s| {
                let xv = t.input(x.clone());
                let y = ff.forward(t, s, xv);
                let sq = t.mul(y, y);
                t.mean_all(sq)
            });
            assert!(err < 2e-2, "param {id:?}: err = {err}");
        }
    }

    #[test]
    fn lstm_output_shapes_and_bounds() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 3, 4, 0.3, &mut rng(5));
        let seqs = SeqBatch::new(&[6, 2]);
        let mut t = Tape::new();
        let x = t.input(trandn(&mut rng(10), 8, 3, 1.0));
        let h = lstm.forward_rows(&mut t, &store, x, &seqs, false);
        assert_eq!(t.value(h).shape(), (8, 4));
        // h = o * tanh(c) is bounded by (-1, 1).
        assert!(t.value(h).as_slice().iter().all(|&x| x.abs() < 1.0));
    }

    #[test]
    fn lstm_gradcheck_all_params() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 2, 3, 0.4, &mut rng(6));
        let x = trandn(&mut rng(20), 4, 2, 1.0);
        let seqs = SeqBatch::new(&[4]);
        for id in lstm.param_ids() {
            let err = gradcheck_scalar(&mut store, id, |t, s| {
                let xv = t.input(x.clone());
                let h = lstm.forward_rows(t, s, xv, &seqs, false);
                let sq = t.mul(h, h);
                t.mean_all(sq)
            });
            assert!(err < 2e-2, "param {id:?}: err = {err}");
        }
    }

    #[test]
    fn bilstm_backward_direction_sees_future() {
        // The backward state at t=0 must depend on the last input; verify by
        // perturbing the final element and watching h_bwd[0] change.
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "bi", 2, 3, 0.5, &mut rng(7));
        let base = trandn(&mut rng(30), 5, 2, 1.0);
        let seqs = SeqBatch::new(&[5]);
        let run = |xs: &Matrix| {
            let mut t = Tape::new();
            let x = t.input(xs.clone());
            let h = bi.forward_rows(&mut t, &store, x, &seqs);
            t.value(h).row(0).to_vec()
        };
        let first = run(&base);
        let mut perturbed = base.clone();
        for v in perturbed.row_mut(4) {
            *v *= -2.0;
        }
        let moved = run(&perturbed);
        assert_eq!(first[..3], moved[..3], "forward t=0 must ignore future");
        assert_ne!(first[3..], moved[3..], "backward t=0 must see future");
    }

    #[test]
    fn bilstm_concat_width() {
        let mut store = ParamStore::new();
        let bi = BiLstm::new(&mut store, "bi", 2, 3, 0.3, &mut rng(8));
        let mut t = Tape::new();
        let x = t.input(trandn(&mut rng(40), 7, 2, 1.0));
        let h = bi.forward_rows(&mut t, &store, x, &SeqBatch::new(&[4, 3]));
        assert_eq!(t.value(h).shape(), (7, 6));
    }

    #[test]
    fn conv1d_shape_and_gradcheck() {
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "conv", 3, 4, 2, 0.4, &mut rng(9));
        let x = trandn(&mut rng(50), 11, 4, 1.0);
        // Windows: 5 of the first sequence, 1 of the second.
        let seqs = SeqBatch::new(&[7, 4]);
        {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let y = conv.forward(&mut t, &store, xv, &seqs);
            assert_eq!(t.value(y).shape(), (7, 2));
        }
        for id in conv.param_ids() {
            let err = gradcheck_scalar(&mut store, id, |t, s| {
                let xv = t.input(x.clone());
                let y = conv.forward(t, s, xv, &seqs);
                let r = t.relu(y);
                let m = t.mean_over_steps(r, &seqs.windows(3));
                t.mean_all(m)
            });
            assert!(err < 2e-2, "param {id:?}: err = {err}");
        }
    }

    #[test]
    fn auto_init_uses_he_scaling() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 50, 50, 0.0, &mut rng(12));
        let w = store.value(lin.w);
        let var = w.map(|x| x * x).mean();
        let expect = 2.0 / 50.0;
        assert!((var - expect).abs() < expect * 0.3, "var = {var}");
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 3, 0.1, &mut rng(11));
        let b = store.value(lstm.b);
        for c in 0..12 {
            let expect = if (3..6).contains(&c) { 1.0 } else { 0.0 };
            assert_eq!(b.get(0, c), expect, "col {c}");
        }
    }
}
