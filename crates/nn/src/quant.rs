//! Quantized, inference-only mirrors of the feed-forward layers.
//!
//! A [`QuantLinear`] is derived from a trained [`Linear`] by reading its
//! f32 weights out of the [`ParamStore`] and quantizing them with
//! per-output-channel symmetric scales ([`tensor::QuantMatrix`]). The
//! store itself is untouched: checkpoints, `/reload` hot-swap and
//! continued training all keep operating on the f32 parameters, and the
//! quantized mirror is rebuilt from them whenever a model (re)loads.
//!
//! These layers run off-tape — no autograd nodes, no gradient buffers —
//! which is where most of the serving speedup comes from even before the
//! i8 GEMM kicks in. ReLU placement matches
//! [`FeedForward::forward`] exactly: after every layer except the last,
//! unless `relu_last` is set.

use crate::layers::{FeedForward, Linear};
use crate::params::ParamStore;
use std::cell::RefCell;
use tensor::{qmatmul_bias, qmatvec_bias, qmatvec_bias_scratch, Matrix, QuantMatrix};

/// An int8-quantized fully-connected layer `y = x W + b` with f32 bias.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    qw: QuantMatrix,
    bias: Vec<f32>,
}

impl QuantLinear {
    /// Quantizes a trained layer's weights out of the store.
    pub fn from_linear(store: &ParamStore, lin: &Linear) -> Self {
        Self {
            qw: QuantMatrix::from_weights(store.value(lin.w)),
            bias: store.value(lin.b).as_slice().to_vec(),
        }
    }

    /// `x @ W_q + b` for `x: B x in_dim`, bias fused into the dequantize
    /// epilogue.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        qmatmul_bias(x, &self.qw, Some(&self.bias))
    }

    /// A single activation row through the layer into `out`, heap-free
    /// and bit-identical to one row of [`QuantLinear::forward`].
    pub fn forward_row(&self, x: &[f32], out: &mut [f32]) {
        qmatvec_bias(x, &self.qw, Some(&self.bias), out);
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.qw.rows()
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.qw.cols()
    }

    /// i8 weight bytes held by this layer.
    pub fn payload_bytes(&self) -> usize {
        self.qw.payload_bytes()
    }
}

/// An int8-quantized [`FeedForward`] stack.
#[derive(Debug, Clone)]
pub struct QuantFeedForward {
    layers: Vec<QuantLinear>,
    relu_last: bool,
}

impl QuantFeedForward {
    /// Quantizes every layer of a trained stack.
    pub fn from_feed_forward(store: &ParamStore, ff: &FeedForward) -> Self {
        Self {
            layers: ff
                .layers
                .iter()
                .map(|lin| QuantLinear::from_linear(store, lin))
                .collect(),
            relu_last: ff.relu_last,
        }
    }

    /// Forward pass (eval mode — dropout is identity at inference).
    /// Rows of `x` are independent: a fused batch reproduces the exact
    /// bits of per-row calls, see `tensor::quant`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut h: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(h.as_ref().unwrap_or(x));
            if i != last || self.relu_last {
                crate::eval::relu(y.as_mut_slice());
            }
            h = Some(y);
        }
        h.expect("FeedForward has at least one layer")
    }

    /// Single-row forward into `out` (resized to the stack's output
    /// width), no `Matrix`/tape machinery on the way: intermediate
    /// activations ping-pong between two grow-only thread-local buffers.
    /// The per-layer math goes through the same row kernel as
    /// [`QuantFeedForward::forward`], so the result is bit-identical to
    /// the corresponding row of a fused batch.
    pub fn forward_row(&self, x: &[f32], out: &mut Vec<f32>) {
        thread_local! {
            static SCRATCH: RefCell<(Vec<f32>, Vec<f32>, Vec<i8>)> =
                const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
        }
        let last = self.layers.len() - 1;
        SCRATCH.with(|s| {
            let (a, b, qx) = &mut *s.borrow_mut();
            for (i, layer) in self.layers.iter().enumerate() {
                // `a` holds the previous layer's activations, `b` (or
                // `out`, on the last layer) receives this one's; a swap
                // rotates the buffers between layers.
                let src: &[f32] = if i == 0 { x } else { a };
                let dst: &mut Vec<f32> = if i == last { out } else { b };
                dst.resize(layer.out_dim(), 0.0);
                qmatvec_bias_scratch(src, &layer.qw, Some(&layer.bias), qx, dst);
                if i != last || self.relu_last {
                    crate::eval::relu(dst);
                }
                if i != last {
                    std::mem::swap(a, b);
                }
            }
        });
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total i8 weight bytes across the stack.
    pub fn payload_bytes(&self) -> usize {
        self.layers.iter().map(QuantLinear::payload_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::randn;

    fn trained_stack(dims: &[usize], relu_last: bool) -> (ParamStore, FeedForward) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let ff = FeedForward::new(&mut store, "ff", dims, relu_last, 0.3, &mut rng);
        (store, ff)
    }

    #[test]
    fn quant_forward_tracks_f32_forward() {
        let (store, ff) = trained_stack(&[10, 8, 4], false);
        let qff = QuantFeedForward::from_feed_forward(&store, &ff);
        let x = randn(&mut StdRng::seed_from_u64(5), 6, 10, 1.0);
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let yv = ff.forward(&mut tape, &store, xv);
        let f32_out = tape.value(yv);
        let q_out = qff.forward(&x);
        assert_eq!(q_out.shape(), f32_out.shape());
        let scale = f32_out.max_abs().max(1.0);
        for (a, b) in q_out.as_slice().iter().zip(f32_out.as_slice()) {
            assert!(
                (a - b).abs() <= 0.05 * scale,
                "quant {a} vs f32 {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn relu_last_is_honored() {
        let (store, ff) = trained_stack(&[6, 5], true);
        let qff = QuantFeedForward::from_feed_forward(&store, &ff);
        let x = randn(&mut StdRng::seed_from_u64(9), 8, 6, 2.0);
        let y = qff.forward(&x);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn fused_batch_is_bit_identical_to_single_rows() {
        let (store, ff) = trained_stack(&[12, 9, 5, 2], false);
        let qff = QuantFeedForward::from_feed_forward(&store, &ff);
        let x = randn(&mut StdRng::seed_from_u64(3), 7, 12, 1.5);
        let fused = qff.forward(&x);
        for i in 0..x.rows() {
            let single = qff.forward(&Matrix::row_vector(x.row(i)));
            assert_eq!(single.row(0), fused.row(i), "row {i}");
        }
    }

    #[test]
    fn forward_row_is_bit_identical_to_matrix_forward() {
        let (store, ff) = trained_stack(&[12, 9, 5, 2], false);
        let qff = QuantFeedForward::from_feed_forward(&store, &ff);
        let x = randn(&mut StdRng::seed_from_u64(21), 5, 12, 1.2);
        let fused = qff.forward(&x);
        let mut out = Vec::new();
        for i in 0..x.rows() {
            qff.forward_row(x.row(i), &mut out);
            assert_eq!(out.as_slice(), fused.row(i), "row {i}");
        }
    }

    #[test]
    fn payload_is_quarter_of_f32() {
        let (store, ff) = trained_stack(&[16, 8, 4], false);
        let qff = QuantFeedForward::from_feed_forward(&store, &ff);
        assert_eq!(qff.payload_bytes(), 16 * 8 + 8 * 4);
        assert_eq!(qff.out_dim(), 4);
    }
}
