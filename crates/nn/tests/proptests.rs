//! Property-based tests for the autograd stack: randomized graphs must
//! pass finite-difference gradient checks, and op outputs must satisfy
//! their algebraic invariants.

use nn::gradcheck::gradcheck_scalar;
use nn::{ParamStore, SeqBatch, Tape};
use proptest::prelude::*;
use tensor::Matrix;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_elementwise_chains_pass_gradcheck(
        init in matrix(2, 3),
        other in matrix(2, 3),
        // abs_diff is excluded: its kink at equality makes central
        // differences unreliable when random values land within eps.
        ops in proptest::collection::vec(0u8..5, 1..6),
    ) {
        let mut store = ParamStore::new();
        let id = store.add("p", init);
        let err = gradcheck_scalar(&mut store, id, move |t, s| {
            let mut x = t.param(s, id);
            let o = t.input(other.clone());
            for &op in &ops {
                x = match op {
                    0 => t.tanh(x),
                    1 => t.sigmoid(x),
                    2 => t.add(x, o),
                    3 => t.mul(x, o),
                    _ => t.affine(x, 0.5, 0.1),
                };
            }
            t.mean_all(x)
        });
        prop_assert!(err < 5e-2, "max rel err = {err}");
    }

    #[test]
    fn matmul_chain_gradcheck(a in matrix(2, 3), b in matrix(3, 2)) {
        let mut store = ParamStore::new();
        let id = store.add("p", a);
        let err = gradcheck_scalar(&mut store, id, move |t, s| {
            let p = t.param(s, id);
            let b = t.input(b.clone());
            let y = t.matmul(p, b);
            let n = t.l2_normalize_rows(y);
            let r = t.row_sum(n);
            t.mean_all(r)
        });
        prop_assert!(err < 5e-2, "max rel err = {err}");
    }

    #[test]
    fn softmax_ce_nonnegative_and_prob_rows_sum(logits in matrix(3, 4)) {
        let mut t = Tape::new();
        let z = t.input(logits);
        let loss = t.softmax_cross_entropy(z, &[0, 1, 2]);
        prop_assert!(t.scalar(loss) >= 0.0);
        let p = t.softmax_probs(z);
        for r in 0..3 {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn dropout_keeps_expectation(keep in 0.3f32..1.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = Tape::new();
        let x = t.input(Matrix::filled(40, 40, 1.0));
        let d = t.dropout(x, keep, &mut rng);
        // Inverted dropout: E[output] = input; check the sample mean.
        let mean = t.value(d).mean();
        prop_assert!((mean - 1.0).abs() < 0.15, "mean = {mean}, keep = {keep}");
    }

    #[test]
    fn stack_then_slice_recovers_parts(a in matrix(2, 3), b in matrix(4, 3)) {
        let mut t = Tape::new();
        let va = t.input(a.clone());
        let vb = t.input(b.clone());
        let s = t.stack_rows(&[va, vb]);
        let m = t.value(s);
        prop_assert_eq!(m.shape(), (6, 3));
        for r in 0..2 {
            prop_assert_eq!(m.row(r), a.row(r));
        }
        for r in 0..4 {
            prop_assert_eq!(m.row(2 + r), b.row(r));
        }
    }

    #[test]
    fn im2col_preserves_window_contents(x in matrix(9, 2), k in 1usize..4) {
        // Two sequences, of 4 and 5 steps, in one batch.
        let seqs = SeqBatch::new(&[4, 5]);
        let win = seqs.windows(k);
        let mut t = Tape::new();
        let v = t.input(x.clone());
        let c = t.im2col(v, &seqs, k);
        let m = t.value(c);
        prop_assert_eq!(m.shape(), (9 - 2 * (k - 1), k * 2));
        for (slot, &len) in win.lens().iter().enumerate() {
            for w in 0..len {
                for dk in 0..k {
                    for col in 0..2 {
                        prop_assert_eq!(
                            m.get(win.row(slot, w), dk * 2 + col),
                            x.get(seqs.row(slot, w + dk), col)
                        );
                    }
                }
            }
        }
    }

    /// The serve micro-batcher's byte-identity contract, for both arms of
    /// the one dense evaluator: pushing a batch through an [`EvalStack`]
    /// fused must return, row for row, the exact bits of evaluating each
    /// row alone — for any stack shape and any batch — and the f32 arm
    /// must equal the tape forward it replaces.
    #[test]
    fn quant_fused_batch_bit_identical_to_single_rows(
        rows in 1usize..18,
        dims in proptest::collection::vec(1usize..14, 2..5),
        relu_last in 0u8..2,
        seed in 0u64..1 << 32,
    ) {
        use nn::{EvalStack, FeedForward, QuantFeedForward};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let ff = FeedForward::new(&mut store, "ff", &dims, relu_last == 1, 0.0, &mut rng);
        let x = tensor::randn(&mut rng, rows, dims[0], 1.5);
        let width = ff.out_dim();
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let on_tape = ff.forward(&mut tape, &store, xv);
        for stack in [
            EvalStack::Int8(QuantFeedForward::from_feed_forward(&store, &ff)),
            EvalStack::F32(ff.clone()),
        ] {
            prop_assert_eq!(stack.out_dim(), width);
            let mut fused = vec![f32::NAN; rows * width];
            stack.eval(&store, x.as_slice(), &mut fused);
            let mut alone = vec![f32::NAN; width];
            for (i, fused) in fused.chunks_exact(width).enumerate() {
                stack.eval(&store, x.row(i), &mut alone);
                prop_assert_eq!(bits(&alone), bits(fused), "row {} of {:?}", i, &stack);
            }
            if matches!(stack, EvalStack::F32(_)) {
                prop_assert_eq!(bits(&fused), bits(tape.value(on_tape).as_slice()));
            }
        }
    }
}
