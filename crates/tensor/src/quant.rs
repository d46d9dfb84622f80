//! Post-training int8 quantization for the inference path.
//!
//! # Scale scheme
//!
//! Weights are quantized **per output channel** with symmetric scales:
//! column `j` of a trained `in_dim`×`out_dim` weight matrix becomes one
//! i8 row of a [`QuantMatrix`] (nt layout, contiguous in the reduction
//! dimension) with `scale_j = max|w_:,j| / 127`. Activations are
//! quantized **per row, dynamically** at inference: each input row gets
//! its own `scale_x = max|x| / 127` computed on the spot. Symmetric
//! ranges mean no zero points, so a layer is just an integer GEMM plus a
//! two-factor dequantize: `y[i][j] = acc_i32 · (scale_x_i · scale_w_j)`.
//!
//! Clamping is to `[-127, 127]` — never -128 — which is what lets the
//! AVX2 kernel run `maddubs` on `|a|`/`sign(b,a)` without saturating
//! (see [`crate::gemm::dot_i8`]).
//!
//! # Padding
//!
//! Every product is one [`gemm::gemm_i8_nt`] pass, which reads whole
//! 32-byte k-blocks and four output channels at a time. The weights are
//! zero-padded to that shape once, when they are quantized; each
//! activation row is zero-padded in scratch. Zero codes add nothing to an
//! exact integer sum, so the padding never shows in a result.
//!
//! # Why batching cannot change answers
//!
//! Every output row depends only on its own input row: the activation
//! scale is per row, the integer dot is exact, and the dequantize order
//! is fixed (`(acc as f32) * (sx * sw)`, one rounding per factor). A row
//! judged in a fused batch is therefore bit-identical to the same row
//! judged alone — the property the serve micro-batcher's byte-identity
//! contract relies on, and which `crates/nn/tests/proptests.rs` checks.

use crate::gemm;
use crate::matrix::Matrix;
use std::cell::RefCell;

/// An i8 weight matrix in nt layout: `rows` output channels, each a
/// contiguous `cols`-long i8 vector, with one symmetric scale per row.
/// Stored zero-padded to whole [`gemm::I8_K_BLOCK`]s per row and whole
/// [`gemm::I8_N_BLOCK`]s of rows, the shape [`gemm::gemm_i8_nt`] reads.
/// The f32 source weights stay in the `ParamStore` untouched — this is a
/// derived, inference-only artifact, so checkpointing and `/reload`
/// hot-swap never see it.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    /// `cols` rounded up to whole k-blocks: the row stride of `data`.
    stride: usize,
    /// `rows` rounded up to whole channel blocks, `stride` codes each.
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantizes trained weights stored `in_dim`×`out_dim` (the layout
    /// `nn::Linear` keeps) into `out_dim` i8 rows of `in_dim` values,
    /// one symmetric scale per output channel.
    pub fn from_weights(w: &Matrix) -> Self {
        let (k, n) = (w.rows(), w.cols());
        let src = w.as_slice();
        let stride = k.next_multiple_of(gemm::I8_K_BLOCK);
        let mut data = vec![0i8; n.next_multiple_of(gemm::I8_N_BLOCK) * stride];
        let mut scales = vec![1.0f32; n];
        for j in 0..n {
            let mut max_abs = 0.0f32;
            for i in 0..k {
                max_abs = max_abs.max(src[i * n + j].abs());
            }
            let scale = symmetric_scale(max_abs);
            let inv = 1.0 / scale;
            let row = &mut data[j * stride..j * stride + k];
            for (i, q) in row.iter_mut().enumerate() {
                *q = quantize_value(src[i * n + j], inv);
            }
            scales[j] = scale;
        }
        Self {
            rows: n,
            cols: k,
            stride,
            data,
            scales,
        }
    }

    /// Output channels (rows of the i8 storage).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction depth (length of each i8 row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One quantized output channel.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.stride..r * self.stride + self.cols]
    }

    /// The symmetric scale of output channel `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Reconstructs the f32 weights in the original `in_dim`×`out_dim`
    /// layout. Round-trip error per element is bounded by `scale_j / 2`
    /// (half a quantization step); the proptests pin that bound.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| {
            f32::from(self.row(j)[i]) * self.scales[j]
        })
    }

    /// Bytes of i8 payload (scales and padding excluded) — 4× smaller
    /// than the f32 weights it was derived from.
    pub fn payload_bytes(&self) -> usize {
        self.rows * self.cols
    }
}

/// `max_abs / 127`, guarded so all-zero (or non-finite) rows quantize to
/// zeros with a harmless unit scale instead of dividing by zero.
fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Round-to-nearest (ties away from zero, exactly `f32::round`) then
/// clamp to [-127, 127]. Non-finite inputs collapse to 0 deterministically
/// (NaN fails both half-step comparisons after a saturating cast).
///
/// Spelled as truncate-plus-fraction-compare rather than `f32::round`:
/// without SSE4.1 in the baseline target, `round()` is a `roundf`
/// libcall, and on the serving path this function runs once per
/// activation element. Clamping first keeps the cast exact (`|r| <= 127`
/// means `r - trunc(r)` is representable), and clamp-then-round equals
/// round-then-clamp on this range, ties included.
fn quantize_value(v: f32, inv_scale: f32) -> i8 {
    let r = (v * inv_scale).clamp(-127.0, 127.0);
    let t = r as i32;
    let frac = r - t as f32;
    // Branchless half-step corrections keep the loop if-convertible.
    let t = t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5);
    t as i8
}

/// Quantizes one activation row into `dst` with a dynamic symmetric
/// scale, returning that scale. `dst` must match `src` in length.
/// Dispatches to an AVX2 kernel under the same [`gemm::simd_active`] /
/// `HISRECT_SIMD=0` machinery as the dot kernels; both tiers compute
/// bit-identical codes and scale (the vector kernel is a lane-for-lane
/// transcription of the scalar arithmetic — every op is a single IEEE
/// operation with the same rounding, see [`quantize_value`]).
pub fn quantize_row(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        // A row shorter than one 8-lane block is one padded block.
        if gemm::simd_active() {
            // SAFETY: simd_active() is true only after AVX2 detection,
            // and src/dst were just checked to be the same length.
            return unsafe { quantize_row_avx2(src, dst) };
        }
    }
    quantize_row_portable(src, dst)
}

fn quantize_row_portable(src: &[f32], dst: &mut [i8]) -> f32 {
    // Compare-select instead of `f32::max` (same result — NaN loses the
    // comparison either way) and fixed-width blocks in the conversion:
    // both loops run once per activation element on the serving path, and
    // this shape is what the autovectorizer turns into packed code.
    let mut max_abs = 0.0f32;
    for &v in src {
        let av = v.abs();
        max_abs = if av > max_abs { av } else { max_abs };
    }
    let scale = symmetric_scale(max_abs);
    let inv = 1.0 / scale;
    let mut ds = dst.chunks_exact_mut(8);
    let mut ss = src.chunks_exact(8);
    for (d8, s8) in ds.by_ref().zip(ss.by_ref()) {
        for k in 0..8 {
            d8[k] = quantize_value(s8[k], inv);
        }
    }
    for (d, &v) in ds.into_remainder().iter_mut().zip(ss.remainder()) {
        *d = quantize_value(v, inv);
    }
    scale
}

/// AVX2 transcription of [`quantize_row_portable`], 8 f32 lanes per step.
///
/// Bit-identity with the scalar path holds lane by lane:
/// - the max-|x| scan puts the running maximum in the *second* operand of
///   `maxps`, which is what the instruction returns when the other lane
///   is NaN — the same "NaN loses" rule as the scalar compare-select;
/// - `mul`/`min`/`max`/`cvttps2dq`/`cvtdq2ps`/`sub` are each one IEEE
///   operation with the identical rounding as their scalar spellings in
///   [`quantize_value`] (the clamp keeps |r| ≤ 127, so the truncating
///   cast and the back-conversion are exact on both paths);
/// - the half-step corrections reuse the all-ones compare masks as ±1;
/// - NaN lanes are zeroed by an ordered-compare mask, matching the
///   scalar saturating `as i32` cast of NaN;
/// - the i32→i8 `packs` pair cannot saturate because every code is
///   already in [-127, 127];
/// - the last `len % 8` values ride one masked load, zero-padded,
///   through both passes: a zero lane never raises the maximum, and its
///   code is dropped.
///
/// # Safety
///
/// The CPU must support AVX2, and `dst` must be as long as `src`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(src: &[f32], dst: &mut [i8]) -> f32 {
    use std::arch::x86_64::*;
    let n = src.len();
    let full = n - n % 8;
    // Masked lanes load as zeros, without touching memory past the row.
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - full) as i32), lane);
    let tail = _mm256_maskload_ps(src.as_ptr().add(full), mask);
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut vmax = _mm256_and_ps(tail, abs_mask);
    for block in src[..full].chunks_exact(8) {
        let va = _mm256_and_ps(_mm256_loadu_ps(block.as_ptr()), abs_mask);
        vmax = _mm256_max_ps(va, vmax);
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
    let mut max_abs = 0.0f32;
    for v in lanes {
        max_abs = if v > max_abs { v } else { max_abs };
    }
    let scale = symmetric_scale(max_abs);
    let vinv = _mm256_set1_ps(1.0 / scale);
    let (dst, dst_tail) = dst.split_at_mut(full);
    for (d8, s8) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
        let r = _mm256_loadu_ps(s8.as_ptr());
        _mm_storel_epi64(d8.as_mut_ptr().cast(), quantize8_avx2(r, vinv));
    }
    if !dst_tail.is_empty() {
        let mut codes = [0i8; 8];
        _mm_storel_epi64(codes.as_mut_ptr().cast(), quantize8_avx2(tail, vinv));
        for (d, c) in dst_tail.iter_mut().zip(codes) {
            *d = c;
        }
    }
    scale
}

/// [`quantize_value`] of the 8 lanes of `x` by `vinv`, as 8 codes in the
/// low half of the result.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn quantize8_avx2(
    x: std::arch::x86_64::__m256,
    vinv: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let r = _mm256_mul_ps(x, vinv);
    // `r` rides the NaN-propagating operand slot of both clamp ops,
    // mirroring `f32::clamp`'s NaN-in-NaN-out.
    let rc = _mm256_min_ps(
        _mm256_set1_ps(127.0),
        _mm256_max_ps(_mm256_set1_ps(-127.0), r),
    );
    let t = _mm256_cvttps_epi32(rc);
    let frac = _mm256_sub_ps(rc, _mm256_cvtepi32_ps(t));
    let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
    let le = _mm256_cmp_ps::<_CMP_LE_OQ>(frac, _mm256_set1_ps(-0.5));
    let t = _mm256_sub_epi32(t, _mm256_castps_si256(ge));
    let t = _mm256_add_epi32(t, _mm256_castps_si256(le));
    let ord = _mm256_cmp_ps::<_CMP_ORD_Q>(rc, rc);
    let t = _mm256_and_si256(t, _mm256_castps_si256(ord));
    let p16 = _mm_packs_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256(t, 1));
    _mm_packs_epi16(p16, p16)
}

thread_local! {
    // Scratch for one qmatmul call: the zero-padded i8 activation rows,
    // their scales and their i32 channel sums. The f32 buffer pool shelves
    // `Vec<f32>` only, so the quantized side keeps its own grow-only
    // thread-local buffers — zero steady-state allocator traffic on the
    // serving path.
    static SCRATCH: RefCell<(Vec<i8>, Vec<f32>, Vec<i32>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// The `k`-wide rows of `x` through quantized weights `qw` (`k` in, `n`
/// out) into the `n`-wide rows of `out`, with an optional per-channel
/// bias added inside the dequantize epilogue: each row quantized with its
/// own dynamic scale into zero-padded scratch, one [`gemm::gemm_i8_nt`]
/// pass over every row and channel, then the fixed epilogue. Each input
/// row is quantized independently and integer sums are exact, so output
/// rows are bit-identical whether computed fused or one at a time.
/// Heap-free: the scratch is grow-only and thread-local.
pub fn qmatmul_into(x: &[f32], qw: &QuantMatrix, bias: Option<&[f32]>, out: &mut [f32]) {
    let (k, n) = (qw.cols(), qw.rows());
    let rows = x.len() / k;
    assert_eq!(x.len(), rows * k, "qmatmul: input rows are not {k} wide");
    assert_eq!(out.len(), rows * n, "qmatmul: output is not {rows} x {n}");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "qmatmul: bias length mismatch");
    }
    let (stride, channels) = (qw.stride, qw.data.len() / qw.stride);
    SCRATCH.with(|scratch| {
        let (qx, sxs, acc) = &mut *scratch.borrow_mut();
        // Zeroed whole: an earlier call may have left codes in the padding.
        qx.clear();
        qx.resize(rows * stride, 0);
        sxs.clear();
        for (x, qx) in x.chunks_exact(k).zip(qx.chunks_exact_mut(stride)) {
            sxs.push(quantize_row(x, &mut qx[..k]));
        }
        acc.resize(rows * channels, 0);
        gemm::gemm_i8_nt(qx, &qw.data, stride, rows, channels, acc);
        let scales = &qw.scales[..n];
        for ((out, acc), &sx) in out
            .chunks_exact_mut(n)
            .zip(acc.chunks_exact(channels))
            .zip(&*sxs)
        {
            // Fixed dequantize order: combined scale first, one multiply,
            // then the bias add — every caller (single row, fused batch,
            // bench) rounds identically.
            let dequant = out.iter_mut().zip(acc).zip(scales);
            match bias {
                Some(b) => {
                    for (((o, &a), &sw), &b) in dequant.zip(b) {
                        *o = (a as f32) * (sx * sw) + b;
                    }
                }
                None => {
                    for ((o, &a), &sw) in dequant {
                        *o = (a as f32) * (sx * sw);
                    }
                }
            }
        }
    });
}

/// [`qmatmul_into`] over a [`Matrix`], without bias, into a pool-backed
/// `m`×`n` output.
pub fn qmatmul(x: &Matrix, qw: &QuantMatrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), qw.rows());
    qmatmul_into(x.as_slice(), qw, None, out.as_mut_slice());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weights(k: usize, n: usize) -> Matrix {
        Matrix::from_fn(k, n, |i, j| {
            let t = (i * 7 + j * 13) % 29;
            (t as f32 - 14.0) * 0.173
        })
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let w = sample_weights(33, 9);
        let q = QuantMatrix::from_weights(&w);
        let back = q.dequantize();
        for j in 0..q.rows() {
            let half_step = q.scale(j) * 0.5 + 1e-6;
            for i in 0..q.cols() {
                let err = (w.get(i, j) - back.get(i, j)).abs();
                assert!(err <= half_step, "({i},{j}): err {err} > {half_step}");
            }
        }
    }

    #[test]
    fn zero_column_gets_unit_scale_and_zero_codes() {
        let mut w = sample_weights(8, 3);
        for i in 0..8 {
            w.set(i, 1, 0.0);
        }
        let q = QuantMatrix::from_weights(&w);
        assert_eq!(q.scale(1), 1.0);
        assert!(q.row(1).iter().all(|&v| v == 0));
    }

    #[test]
    fn codes_never_reach_neg_128() {
        let w = Matrix::from_fn(40, 4, |i, j| if (i + j) % 2 == 0 { -3.25 } else { 3.25 });
        let q = QuantMatrix::from_weights(&w);
        for r in 0..q.rows() {
            assert!(q.row(r).iter().all(|&v| v >= -127));
        }
    }

    #[test]
    fn qmatmul_matches_quantized_reference_exactly() {
        // Reference recomputes the same integer dot in i64 from
        // explicitly quantized operands — qmatmul must agree to the bit
        // after the shared dequantize epilogue.
        let x = Matrix::from_fn(3, 16, |i, j| ((i * 16 + j) % 11) as f32 - 5.0);
        let w = Matrix::from_fn(16, 5, |i, j| ((i * 5 + j) % 13) as f32 - 6.0);
        let q = QuantMatrix::from_weights(&w);
        let got = qmatmul(&x, &q);
        let mut qx = vec![0i8; 16];
        for i in 0..3 {
            let sx = quantize_row(x.row(i), &mut qx);
            for j in 0..5 {
                let acc: i64 = qx
                    .iter()
                    .zip(q.row(j))
                    .map(|(&a, &b)| i64::from(a) * i64::from(b))
                    .sum();
                let expect = (acc as f32) * (sx * q.scale(j));
                assert_eq!(got.get(i, j), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn quantize_row_kernels_agree_on_edge_values() {
        // Ties, clamp boundaries, non-finite lanes, and short tails all
        // in one row: the AVX2 kernel must reproduce the portable codes
        // exactly, including NaN → 0 and ±inf → ±127 after clamping.
        let src = [
            0.5,
            -0.5,
            1.5,
            -1.5,
            126.5,
            -126.5,
            127.0,
            -127.0, // one full block of ties/edges
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-30,
            200.0,
            -3.25, // second block: non-finite + tiny
            0.1,
            0.2,
            0.3, // 3-lane tail
        ];
        let mut a = vec![0i8; src.len()];
        let mut b = vec![0i8; src.len()];
        let sa = {
            crate::gemm::force_portable(Some(true));
            let s = quantize_row(&src, &mut a);
            crate::gemm::force_portable(Some(false));
            s
        };
        let sb = quantize_row(&src, &mut b);
        assert_eq!(sa.to_bits(), sb.to_bits());
        assert_eq!(a, b);
        // NaN lane quantizes to 0 on both paths.
        assert_eq!(a[8], 0);
    }

    #[test]
    fn batch_rows_equal_single_row_calls() {
        let x = Matrix::from_fn(7, 21, |i, j| ((i * 31 + j * 7) % 17) as f32 * 0.37 - 2.0);
        let w = sample_weights(21, 6);
        let bias: Vec<f32> = (0..6).map(|j| j as f32 * 0.11 - 0.3).collect();
        let q = QuantMatrix::from_weights(&w);
        let mut fused = vec![f32::NAN; 7 * 6];
        qmatmul_into(x.as_slice(), &q, Some(&bias), &mut fused);
        for (i, fused) in fused.chunks_exact(6).enumerate() {
            let mut alone = [f32::NAN; 6];
            qmatmul_into(x.row(i), &q, Some(&bias), &mut alone);
            assert_eq!(alone, fused, "row {i} differs under fusion");
        }
    }
}
