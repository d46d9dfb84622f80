//! The int8 arm of [`crate::EvalStack`]: a trained feed-forward stack
//! with post-training-quantized weights.
//!
//! A [`QuantFeedForward`] is derived from a trained [`FeedForward`] by
//! reading its f32 weights out of the [`ParamStore`] and quantizing them
//! with per-output-channel symmetric scales ([`tensor::QuantMatrix`]). The
//! store itself is untouched: checkpoints, `/reload` hot-swap and
//! continued training all keep operating on the f32 parameters, and the
//! quantized stack is rebuilt from them whenever a model (re)loads.
//!
//! It evaluates through the same `eval::eval_stack` skeleton as
//! [`FeedForward::eval`] — same ReLU placement, same ping-pong buffers —
//! with [`tensor::qmatmul_into`] as the layer product.

use crate::eval::eval_stack;
use crate::layers::FeedForward;
use crate::params::ParamStore;
use tensor::{qmatmul_into, QuantMatrix};

/// An int8-quantized fully-connected layer `y = x W + b` with f32 bias.
#[derive(Debug, Clone)]
struct QuantLinear {
    qw: QuantMatrix,
    bias: Vec<f32>,
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
        let layers = ff.layers.iter().map(|lin| QuantLinear {
            qw: QuantMatrix::from_weights(store.value(lin.w)),
            bias: store.value(lin.b).as_slice().to_vec(),
        });
        Self {
            layers: layers.collect(),
            relu_last: ff.relu_last,
        }
    }

    /// Evaluation-mode forward for the rows of `x` into `out`
    /// (`rows × out_dim`). Every row goes through the one row kernel under
    /// [`tensor::qmatmul_into`] with its own activation scale, so a fused
    /// batch reproduces the exact bits of one-row calls, and one row
    /// allocates nothing in steady state.
    pub fn eval(&self, x: &[f32], out: &mut [f32]) {
        eval_stack(
            &self.layers,
            self.relu_last,
            |l| (l.qw.cols(), l.qw.rows()),
            |l, x, out| qmatmul_into(x, &l.qw, Some(&l.bias), out),
            x,
            out,
        );
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").qw.rows()
    }

    /// Total i8 weight bytes across the stack.
    pub fn payload_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.qw.payload_bytes()).sum()
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
        let mut q_out = vec![f32::NAN; 6 * 4];
        qff.eval(x.as_slice(), &mut q_out);
        let scale = f32_out.max_abs().max(1.0);
        for (a, b) in q_out.iter().zip(f32_out.as_slice()) {
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
        let mut y = vec![f32::NAN; 8 * 5];
        qff.eval(x.as_slice(), &mut y);
        assert!(y.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn payload_is_quarter_of_f32() {
        let (store, ff) = trained_stack(&[16, 8, 4], false);
        let qff = QuantFeedForward::from_feed_forward(&store, &ff);
        assert_eq!(qff.payload_bytes(), 16 * 8 + 8 * 4);
        assert_eq!(qff.out_dim(), 4);
    }
}
