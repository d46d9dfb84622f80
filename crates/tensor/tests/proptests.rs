//! Algebraic laws of [`tensor::Matrix`] under proptest, plus the
//! bit-identity contract of the parallel kernels: for every shape and
//! thread count, the row-partitioned cache-blocked matmuls must return
//! *exactly* the same bits as their serial counterparts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::gemm::{self, Tier, Variant};
use tensor::{randn, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn add_commutes(a in matrix(3, 4), b in matrix(3, 4)) {
        prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-5));
    }

    #[test]
    fn add_associates(a in matrix(2, 3), b in matrix(2, 3), c in matrix(2, 3)) {
        prop_assert!(a.add(&b).add(&c).approx_eq(&a.add(&b.add(&c)), 1e-4));
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-2));
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(3, 4), b in matrix(4, 2)) {
        // (A B)^T = B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn tn_nt_consistency(a in matrix(4, 3), b in matrix(4, 2)) {
        prop_assert!(a.matmul_tn(&b).approx_eq(&a.transpose().matmul(&b), 1e-3));
        let c = Matrix::from_fn(5, 3, |r, c| (r as f32 + 1.0) * 0.1 - c as f32 * 0.2);
        prop_assert!(a.matmul_nt(&c).approx_eq(&a.matmul(&c.transpose()), 1e-3));
    }

    #[test]
    fn scale_linearity(a in matrix(3, 3), s in -4.0f32..4.0) {
        prop_assert!((a.scale(s).sum() - s * a.sum()).abs() < 1e-2 * (1.0 + a.sum().abs() * s.abs()));
    }

    #[test]
    fn hadamard_commutes(a in matrix(2, 5), b in matrix(2, 5)) {
        prop_assert!(a.hadamard(&b).approx_eq(&b.hadamard(&a), 1e-6));
    }

    #[test]
    fn concat_cols_preserves_rows(a in matrix(3, 2), b in matrix(3, 4)) {
        let h = a.concat_cols(&b);
        prop_assert_eq!(h.shape(), (3, 6));
        for r in 0..3 {
            prop_assert_eq!(&h.row(r)[..2], a.row(r));
            prop_assert_eq!(&h.row(r)[2..], b.row(r));
        }
    }

    #[test]
    fn l2_norm_triangle(a in matrix(4, 4), b in matrix(4, 4)) {
        prop_assert!(a.add(&b).l2_norm() <= a.l2_norm() + b.l2_norm() + 1e-4);
    }

    #[test]
    fn dot_cauchy_schwarz(a in matrix(1, 8), b in matrix(1, 8)) {
        prop_assert!(a.dot(&b).abs() <= a.l2_norm() * b.l2_norm() + 1e-3);
    }
}

// Shapes range past K_BLOCK = 64 so the k-blocked accumulation path is
// exercised, and `threads` includes 1 (degenerate pool) so the inline
// serial fallback inside `scope_partition_mut_with` is covered too.
proptest! {
    #[test]
    fn matmul_parallel_bitwise_equals_serial(
        m in 1usize..80, k in 1usize..80, n in 1usize..24,
        threads in 1usize..5, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(&mut rng, m, k, 1.0);
        let b = randn(&mut rng, k, n, 1.0);
        let serial = a.matmul_serial(&b);
        let par = a.matmul_parallel_with(&b, threads);
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn matmul_tn_parallel_bitwise_equals_serial(
        m in 1usize..24, k in 1usize..80, n in 1usize..24,
        threads in 1usize..5, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // matmul_tn: self is (k × m), other (k × n) → (m × n).
        let a = randn(&mut rng, k, m, 1.0);
        let b = randn(&mut rng, k, n, 1.0);
        let serial = a.matmul_tn_serial(&b);
        let par = a.matmul_tn_parallel_with(&b, threads);
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }

    #[test]
    fn matmul_nt_parallel_bitwise_equals_serial(
        m in 1usize..24, k in 1usize..80, n in 1usize..24,
        threads in 1usize..5, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // matmul_nt: self is (m × k), other (n × k) → (m × n).
        let a = randn(&mut rng, m, k, 1.0);
        let b = randn(&mut rng, n, k, 1.0);
        let serial = a.matmul_nt_serial(&b);
        let par = a.matmul_nt_parallel_with(&b, threads);
        prop_assert_eq!(serial.as_slice(), par.as_slice());
    }

    /// Below the dispatch threshold the auto entry points must take the
    /// serial path bit-for-bit (they share kernels, so equality holds
    /// either way — this pins the no-surprise default for small work).
    #[test]
    fn auto_dispatch_matches_serial_below_threshold(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(&mut rng, m, k, 1.0);
        let b = randn(&mut rng, k, n, 1.0);
        prop_assert!(m * k * n < tensor::PAR_THRESHOLD);
        prop_assert_eq!(a.matmul(&b).as_slice(), a.matmul_serial(&b).as_slice());
    }
}

// ---------------------------------------------------------------------------
// Packed/SIMD kernels vs a naive reference
// ---------------------------------------------------------------------------

/// Naive reference product: one ascending-k accumulation chain per
/// element with separate multiply and add — the documented summation
/// order every kernel tier must reproduce bit-for-bit.
fn reference(
    m: usize,
    k: usize,
    n: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_at: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a_at(i, kk) * b_at(kk, j);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Serializes tests that override the process-global SIMD dispatch.
/// Results are bit-identical on every path, so other concurrently
/// running tests are unaffected — this only guarantees each toggling
/// test really exercises the tier it names.
static TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

proptest! {
    /// The serial entry points reproduce the reference bits for all three
    /// variants, on shapes deliberately not multiples of the 4×16
    /// register tile. Products run up to 39³ ≈ 59 000 multiply-adds, so
    /// the cases fall on both sides of `PACK_THRESHOLD` (2¹⁴): the simple
    /// kernels below it, the packed micro-kernel path above it.
    #[test]
    fn packed_kernels_bitwise_equal_naive_reference(
        m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(&mut rng, m, k, 1.0);
        let at = randn(&mut rng, k, m, 1.0);
        let b = randn(&mut rng, k, n, 1.0);
        let bt = randn(&mut rng, n, k, 1.0);
        let want_nn = reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(kk, j));
        let want_tn = reference(m, k, n, |i, kk| at.get(kk, i), |kk, j| b.get(kk, j));
        let want_nt = reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| bt.get(j, kk));
        prop_assert_eq!(a.matmul_serial(&b).as_slice(), &want_nn[..]);
        prop_assert_eq!(at.matmul_tn_serial(&b).as_slice(), &want_tn[..]);
        prop_assert_eq!(a.matmul_nt_serial(&bt).as_slice(), &want_nt[..]);
    }

    /// Scalar-vs-SIMD bit-identity on the packed path, called directly at
    /// any size: the portable kernel (forced) and whatever
    /// `simd_active()` dispatch picks must agree exactly, and both must
    /// match the naive reference.
    #[test]
    fn simd_and_portable_kernels_bitwise_equal(
        m in 1usize..24, k in 1usize..48, n in 1usize..48, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(&mut rng, m, k, 1.0);
        let b = randn(&mut rng, k, n, 1.0);
        let want = reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(kk, j));
        let pb = gemm::pack_b(Variant::Nn, b.as_slice(), n, k, n);
        let packed = || {
            let mut out = vec![0.0f32; m * n];
            gemm::gemm_rows(Variant::Nn, a.as_slice(), k, m, &pb, 0, &mut out);
            out
        };
        let guard = TOGGLE.lock().unwrap();
        tensor::force_portable(Some(true));
        let portable = packed();
        tensor::force_portable(Some(false));
        let dispatched = packed();
        drop(guard);
        prop_assert_eq!(&portable[..], &want[..]);
        prop_assert_eq!(&dispatched[..], &want[..]);
    }

    /// Every tier this CPU has, called directly (the dispatch is
    /// process-global), reproduces the reference for all three variants
    /// on widths that cross the 16-column panels, the AVX-512 tier's panel
    /// pairs and the 8-column half tiles. Every seventh operand element is
    /// a NaN, ±∞ or ±0, so a padded k-step or a reassociated sum would
    /// show; a NaN compares as "a NaN", everything else by its bits.
    #[test]
    fn every_tier_bitwise_equals_naive_reference(
        m in 1usize..24, k in 1usize..48, n in 1usize..80, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let mut spiced = |rows, cols| {
            let mut x = randn(&mut rng, rows, cols, 1.0);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                if (i as u64 + seed).is_multiple_of(7) {
                    *v = specials[(i / 7) % specials.len()];
                }
            }
            x
        };
        let (a, at, b, bt) = (spiced(m, k), spiced(k, m), spiced(k, n), spiced(n, k));
        let bits = |xs: &[f32]| -> Vec<u32> {
            xs.iter().map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() }).collect()
        };
        let cases = [
            (Variant::Nn, &a, &b, reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| b.get(kk, j))),
            (Variant::Tn, &at, &b, reference(m, k, n, |i, kk| at.get(kk, i), |kk, j| b.get(kk, j))),
            (Variant::Nt, &a, &bt, reference(m, k, n, |i, kk| a.get(i, kk), |kk, j| bt.get(j, kk))),
        ];
        for tier in Tier::ALL {
            if !tier.supported() {
                eprintln!("skipped: {} not available", tier.name());
                continue;
            }
            for (variant, lhs, rhs, want) in &cases {
                let pb = gemm::pack_b(*variant, rhs.as_slice(), rhs.cols(), k, n);
                let mut got = vec![1.5f32; m * n];
                gemm::gemm_rows_on(tier, *variant, lhs.as_slice(), lhs.cols(), m, &pb, 0, &mut got);
                prop_assert_eq!(bits(&got), bits(want), "{} {:?}", tier.name(), variant);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// int8 quantization kernels
// ---------------------------------------------------------------------------

proptest! {
    /// Portable and AVX2 i8 dot kernels are bit-identical for any length
    /// (tail handling included) and any in-range values; both match an
    /// i64 reference, so the i32 accumulate provably never wraps here.
    #[test]
    fn dot_i8_portable_and_simd_bitwise_equal(
        vals in proptest::collection::vec((-127i8..=127, -127i8..=127), 0..200),
    ) {
        let a: Vec<i8> = vals.iter().map(|&(x, _)| x).collect();
        let b: Vec<i8> = vals.iter().map(|&(_, y)| y).collect();
        let want: i64 = a.iter().zip(&b).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum();
        let guard = TOGGLE.lock().unwrap();
        tensor::force_portable(Some(true));
        let portable = tensor::gemm::dot_i8(&a, &b);
        tensor::force_portable(Some(false));
        let dispatched = tensor::gemm::dot_i8(&a, &b);
        drop(guard);
        prop_assert_eq!(i64::from(portable), want);
        prop_assert_eq!(portable, dispatched);
    }

    /// Portable and AVX2 activation quantizers return bit-identical codes
    /// and the bit-identical dynamic scale for any length (tail handling
    /// included): the vector kernel is a lane-for-lane transcription of
    /// the scalar arithmetic.
    #[test]
    fn quantize_row_portable_and_simd_bitwise_equal(
        vals in proptest::collection::vec(-1e4f32..1e4, 0..100),
    ) {
        let mut q_portable = vec![0i8; vals.len()];
        let mut q_dispatched = vec![0i8; vals.len()];
        let guard = TOGGLE.lock().unwrap();
        tensor::force_portable(Some(true));
        let s_portable = tensor::quantize_row(&vals, &mut q_portable);
        tensor::force_portable(Some(false));
        let s_dispatched = tensor::quantize_row(&vals, &mut q_dispatched);
        drop(guard);
        prop_assert_eq!(s_portable.to_bits(), s_dispatched.to_bits());
        prop_assert_eq!(q_portable, q_dispatched);
    }

    /// Quantize→dequantize round-trip error is bounded per row by half a
    /// quantization step (`scale_j / 2`) for every weight element.
    #[test]
    fn quantize_round_trip_error_bounded(
        k in 1usize..40, n in 1usize..12, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = randn(&mut rng, k, n, 3.0);
        let q = tensor::QuantMatrix::from_weights(&w);
        let back = q.dequantize();
        for j in 0..n {
            let bound = q.scale(j) * 0.5 * (1.0 + 1e-5) + 1e-7;
            for i in 0..k {
                let err = (w.get(i, j) - back.get(i, j)).abs();
                prop_assert!(err <= bound, "({}, {}): err {} > {}", i, j, err, bound);
            }
        }
    }

    /// qmatmul through the portable and SIMD kernels returns the same
    /// bits: the integer dot is exact on both tiers and the dequantize
    /// epilogue is shared code.
    #[test]
    fn qmatmul_portable_and_simd_bitwise_equal(
        m in 1usize..8, k in 1usize..70, n in 1usize..10, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&mut rng, m, k, 2.0);
        let w = randn(&mut rng, k, n, 2.0);
        let q = tensor::QuantMatrix::from_weights(&w);
        let guard = TOGGLE.lock().unwrap();
        tensor::force_portable(Some(true));
        let portable = tensor::qmatmul(&x, &q);
        tensor::force_portable(Some(false));
        let dispatched = tensor::qmatmul(&x, &q);
        drop(guard);
        prop_assert_eq!(portable.as_slice(), dispatched.as_slice());
    }

    /// The blocked product equals the per-row reference by bits on both
    /// tiers: each row quantized alone, one `dot_i8` per output channel
    /// over the unpadded codes, the shared epilogue. Depths cross the
    /// 32-byte k-blocks, widths the 4-channel blocks; a row or column
    /// `mode` of 1 is `±c` throughout (every code at ±127), 2 all zeros.
    #[test]
    fn blocked_qmatmul_equals_per_row_dots(
        m in 1usize..6, k in 1usize..=300, n in 1usize..=70,
        x_mode in 0u8..3, w_mode in 0u8..3, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = |m: Matrix, mode: u8| match mode {
            1 => m.map(|v| if v < 0.0 { -1.5 } else { 1.5 }),
            2 => m.map(|_| 0.0),
            _ => m,
        };
        let mut x = randn(&mut rng, m, k, 2.0);
        // The last row keeps the drawn values whatever the mode.
        for r in 0..m - 1 {
            let row = shape(Matrix::row_vector(x.row(r)), x_mode);
            x.row_mut(r).copy_from_slice(row.as_slice());
        }
        let w = shape(randn(&mut rng, k, n, 2.0), w_mode);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
        let q = tensor::QuantMatrix::from_weights(&w);
        let mut want = vec![0.0f32; m * n];
        let mut qx = vec![0i8; k];
        for r in 0..m {
            let sx = tensor::quantize_row(x.row(r), &mut qx);
            for j in 0..n {
                let acc = tensor::gemm::dot_i8(&qx, q.row(j));
                want[r * n + j] = (acc as f32) * (sx * q.scale(j)) + bias[j];
            }
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        let guard = TOGGLE.lock().unwrap();
        for portable in [true, false] {
            tensor::force_portable(Some(portable));
            let mut got = vec![f32::NAN; m * n];
            tensor::qmatmul_into(x.as_slice(), &q, Some(&bias), &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "portable {}", portable);
        }
        tensor::force_portable(None);
        drop(guard);
    }
}

/// At `PAR_THRESHOLD` the auto entry points fan out (when more than one
/// worker is configured) and still reproduce the serial bits exactly; the
/// explicit three-worker fan-out does too, whatever the configured count.
#[test]
fn auto_dispatch_matches_serial_above_threshold() {
    let mut rng = StdRng::seed_from_u64(7);
    let (m, k, n) = (128, 65, 64);
    assert!(m * k * n >= tensor::PAR_THRESHOLD);
    let a = randn(&mut rng, m, k, 1.0);
    let b = randn(&mut rng, k, n, 1.0);
    let (at, bt) = (a.transpose(), b.transpose());
    let (serial, tn, nt) = (
        a.matmul_serial(&b),
        at.matmul_tn_serial(&b),
        a.matmul_nt_serial(&bt),
    );
    assert_eq!(serial.as_slice(), a.matmul(&b).as_slice());
    assert_eq!(tn.as_slice(), at.matmul_tn(&b).as_slice());
    assert_eq!(nt.as_slice(), a.matmul_nt(&bt).as_slice());
    assert_eq!(serial.as_slice(), a.matmul_parallel_with(&b, 3).as_slice());
    assert_eq!(tn.as_slice(), at.matmul_tn_parallel_with(&b, 3).as_slice());
    assert_eq!(nt.as_slice(), a.matmul_nt_parallel_with(&bt, 3).as_slice());
}
