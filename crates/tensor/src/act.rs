//! Libm-free gate activations: `sigmoid` and `tanh` over `&mut [f32]`.
//!
//! Every LSTM step evaluates five gate activations per hidden unit, so a
//! cold `F(r)` used to spend most of its time in scalar `expf`/`tanhf`
//! calls. This module is the one definition of both functions the whole
//! stack uses — [`crate::Matrix::sigmoid`] / [`crate::Matrix::tanh`] (and
//! through them the autograd tape) are thin wrappers over it, and the
//! tape-free inference kernels in `nn` call it directly — so training and
//! serving can never disagree on what a gate computes, and neither
//! depends on the host's libm.
//!
//! # Definition
//!
//! `exp(x)` is the Cephes `expf` scheme: clamp to `[ln MIN_POSITIVE,
//! ln MAX]`, `n = round(x·log₂e)` (round-to-nearest through the
//! `1.5·2²³` add/subtract, so no `floorf`), two-constant Cody–Waite
//! reduction `r = x − n·ln2`, a degree-5 polynomial in `r`, and `2ⁿ`
//! built by writing `n + 127` into the exponent bits. `n = 128` yields
//! `+∞`, so `exp` overflows over the last 0.35 of its range instead of
//! returning the largest finite values — which only ever turns a
//! subnormal sigmoid into `0.0`.
//!
//! - `sigmoid(x) = 1 / (1 + exp(−x))`; exactly `0.5` at `±0`, exactly `1`
//!   for `x ≥ 17.4`, exactly `0` for `x ≤ −88.4`.
//! - `tanh(x)`: on `|x| < 0.625` the odd polynomial `x + x³·P(x²)`,
//!   otherwise `1 − 2 / (exp(2|x|) + 1)`, with the sign of `x` OR-ed back
//!   in, so `tanh(−x) == −tanh(x)` bit for bit and `|x| ≥ 9.1` saturates
//!   to exactly `±1`.
//! - A NaN input is returned unchanged (same bits).
//!
//! Maximum relative error against an `f64` reference is ≤ 2.5e-7 (about
//! two ulp) wherever the exact result is a normal `f32`; the tests sweep
//! it.
//!
//! # Tiers
//!
//! Every operation is an IEEE add, subtract, multiply or divide (multiply
//! and add always as two roundings — **no FMA**), an ordered
//! compare-and-select, or integer bit arithmetic, written once per tier:
//! a portable scalar loop and an 8-lane AVX2 loop behind the same
//! [`crate::simd_active`] dispatch as the GEMM kernels. Lanes never
//! interact, tails run through a zero-padded register, and the two tiers
//! are bit-identical element for element; `HISRECT_SIMD=0` therefore
//! changes speed only.
//!
//! # LSTM cells
//!
//! [`lstm_cell`] and [`lstm_cell_backward`] are one LSTM step of one row,
//! forward and back-propagated, as single fused passes over the row's `h`
//! units. Each element sees the operations, operand order and rounding of
//! the separate-pass sequence they replace (the bias adds, one
//! activation pass per gate, the cell update, `tanh(c)`, the state; and
//! the gate derivatives of the tape's nodes), so they are bit-identical to
//! it; the tiers and the zero-padded tail follow the same rules as above.

use crate::gemm::simd_active;

/// `ln(f32::MAX)`: above this `exp` is `+∞`.
const EXP_HI: f32 = 88.722_84;
/// `ln(f32::MIN_POSITIVE)`: below this `exp` stays at `2⁻¹²⁶`.
const EXP_LO: f32 = -87.336_54;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `n · LN2_HI` is exact for every reachable `n`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5·2²³`: adding it leaves `round(y)` in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `exp(r) ≈ 1 + r + r²·(E0·r⁵… + E5)` on `|r| ≤ ln2 / 2`.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5e-1,
];
/// Below this magnitude `tanh` uses its odd polynomial.
const TANH_SMALL: f32 = 0.625;
/// `tanh(x) ≈ x + x³·(T0·z⁴… + T4)`, `z = x²`, on `|x| < 0.625`.
const TANH_POLY: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_909e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328e-1,
];

/// In-place logistic sigmoid `1 / (1 + e⁻ˣ)` (see the module docs for the
/// exact definition and error bound).
pub fn sigmoid(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: simd_active() is true only after AVX2 detection.
            unsafe { avx2::sigmoid(xs) };
            return;
        }
    }
    sigmoid_portable(xs);
}

/// In-place hyperbolic tangent (see the module docs).
pub fn tanh(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: simd_active() is true only after AVX2 detection.
            unsafe { avx2::tanh(xs) };
            return;
        }
    }
    tanh_portable(xs);
}

/// The scalar tier of [`sigmoid`].
fn sigmoid_portable(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid_one(*x);
    }
}

/// The scalar tier of [`tanh`].
fn tanh_portable(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_one(*x);
    }
}

/// One forward LSTM step of one row of `h` units, gate order
/// `[i | f | g | o]`. On entry `gates` (`4h`) holds the input projection;
/// on return it holds the post-activation gates. `c` is the cell state,
/// updated in place; `tc` receives `tanh(c)` and `hs` the new state.
/// Per element, in this order:
///
/// - `a = (gates + hg) + b` for each of the four gates;
/// - `i = σ(a_i)`, `f = σ(a_f)`, `g = tanh(a_g)`, `o = σ(a_o)`;
/// - `c = f·c + i·g` (two products, then their sum);
/// - `tc = tanh(c)`, `hs = o·tc`.
pub fn lstm_cell(
    gates: &mut [f32],
    hg: &[f32],
    b: &[f32],
    c: &mut [f32],
    tc: &mut [f32],
    hs: &mut [f32],
) {
    let h = c.len();
    assert!(
        gates.len() == 4 * h
            && hg.len() == 4 * h
            && b.len() == 4 * h
            && tc.len() == h
            && hs.len() == h,
        "lstm_cell: slices of 4h, 4h, 4h, h, h, h"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: simd_active() is true only after AVX2 detection; the
            // lengths were checked above.
            unsafe { avx2::lstm_cell(gates, hg, b, c, tc, hs) };
            return;
        }
    }
    lstm_cell_portable(gates, hg, b, c, tc, hs);
}

/// One step of LSTM back-propagation through time for one row of `h`
/// units: `gates` (`4h`, post-activation) and `tc` are what
/// [`lstm_cell`] left, `c_prev` the cell state it started from, `g_out`
/// the gradient reaching this step's state from above and `dh_rec` the
/// one from the next step. `dc` carries the cell gradient (in: from the
/// next step; out: to the previous one); `dg` (`4h`) receives the
/// pre-activation gate gradients. Per element, in this order:
///
/// - `dh = g_out + dh_rec`;
/// - `dcj = dc + ((dh·o)·(1 − tc·tc))`, then `dc = dcj·f`;
/// - `dg_i = ((dcj·g)·i)·(1 − i)`, `dg_f = ((dcj·c_prev)·f)·(1 − f)`,
///   `dg_g = (dcj·i)·(1 − g·g)`, `dg_o = ((dh·tc)·o)·(1 − o)`.
pub fn lstm_cell_backward(
    gates: &[f32],
    tc: &[f32],
    c_prev: &[f32],
    g_out: &[f32],
    dh_rec: &[f32],
    dc: &mut [f32],
    dg: &mut [f32],
) {
    let h = dc.len();
    assert!(
        gates.len() == 4 * h
            && tc.len() == h
            && c_prev.len() == h
            && g_out.len() == h
            && dh_rec.len() == h
            && dg.len() == 4 * h,
        "lstm_cell_backward: slices of 4h, h, h, h, h, h, 4h"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: as in `lstm_cell`.
            unsafe { avx2::lstm_cell_backward(gates, tc, c_prev, g_out, dh_rec, dc, dg) };
            return;
        }
    }
    lstm_cell_backward_portable(gates, tc, c_prev, g_out, dh_rec, dc, dg);
}

/// The scalar tier of [`lstm_cell`].
fn lstm_cell_portable(
    gates: &mut [f32],
    hg: &[f32],
    b: &[f32],
    c: &mut [f32],
    tc: &mut [f32],
    hs: &mut [f32],
) {
    let h = c.len();
    for j in 0..h {
        let a = |k: usize| (gates[k * h + j] + hg[k * h + j]) + b[k * h + j];
        let (i, f, g, o) = (
            sigmoid_one(a(0)),
            sigmoid_one(a(1)),
            tanh_one(a(2)),
            sigmoid_one(a(3)),
        );
        for (k, v) in [i, f, g, o].into_iter().enumerate() {
            gates[k * h + j] = v;
        }
        let cj = f * c[j] + i * g;
        c[j] = cj;
        tc[j] = tanh_one(cj);
        hs[j] = o * tc[j];
    }
}

/// The scalar tier of [`lstm_cell_backward`].
fn lstm_cell_backward_portable(
    gates: &[f32],
    tc: &[f32],
    c_prev: &[f32],
    g_out: &[f32],
    dh_rec: &[f32],
    dc: &mut [f32],
    dg: &mut [f32],
) {
    let h = dc.len();
    for j in 0..h {
        let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
        let dh = g_out[j] + dh_rec[j];
        let dcj = dc[j] + dh * o * (1.0 - tc[j] * tc[j]);
        dc[j] = dcj * f;
        dg[j] = dcj * g * i * (1.0 - i);
        dg[h + j] = dcj * c_prev[j] * f * (1.0 - f);
        dg[2 * h + j] = dcj * i * (1.0 - g * g);
        dg[3 * h + j] = dh * tc[j] * o * (1.0 - o);
    }
}

/// `exp(x)` for non-NaN `x`. `if a < b` selects mirror the AVX2 tier's
/// `min_ps`/`max_ps` operand order.
#[inline(always)]
fn exp_one(x: f32) -> f32 {
    let x = if EXP_HI < x { EXP_HI } else { x };
    let x = if EXP_LO > x { EXP_LO } else { x };
    let t = x * LOG2E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = x - n * LN2_HI;
    let r = r - n * LN2_LO;
    let mut p = EXP_POLY[0];
    for c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r;
    let y = y + 1.0;
    // The low mantissa bits of `t` hold `n`; shifted into the exponent
    // field and biased they are the bits of 2ⁿ (n = 128 gives +∞).
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3f80_0000));
    y * scale
}

#[inline(always)]
fn sigmoid_one(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    1.0 / (1.0 + exp_one(-x))
}

#[inline(always)]
fn tanh_one(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    let sign = x.to_bits() & 0x8000_0000;
    let ax = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let z = ax * ax;
    let mut p = TANH_POLY[0];
    for c in &TANH_POLY[1..] {
        p = p * z + c;
    }
    let small = p * z * ax + ax;
    let e = exp_one(ax + ax);
    let big = 1.0 - 2.0 / (e + 1.0);
    let y = if ax < TANH_SMALL { small } else { big };
    f32::from_bits(y.to_bits() | sign)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Applies `f` to `xs` eight lanes at a time; the tail goes through a
    /// zero-padded register so every element sees the same instructions.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn map8(xs: &mut [f32], f: impl Fn(__m256) -> __m256) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in chunks.by_ref() {
            _mm256_storeu_ps(c.as_mut_ptr(), f(_mm256_loadu_ps(c.as_ptr())));
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut buf = [0.0f32; 8];
            buf[..tail.len()].copy_from_slice(tail);
            _mm256_storeu_ps(buf.as_mut_ptr(), f(_mm256_loadu_ps(buf.as_ptr())));
            tail.copy_from_slice(&buf[..tail.len()]);
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn horner(coeffs: &[f32], v: __m256) -> __m256 {
        let mut p = _mm256_set1_ps(coeffs[0]);
        for &c in &coeffs[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, v), _mm256_set1_ps(c));
        }
        p
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_HI), x);
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), x);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let t = _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(LOG2E)), magic);
        let n = _mm256_sub_ps(t, magic);
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let p = horner(&EXP_POLY, r);
        let y = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
        let y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        let bits = _mm256_slli_epi32(_mm256_castps_si256(t), 23);
        let scale = _mm256_add_epi32(bits, _mm256_set1_epi32(0x3f80_0000));
        _mm256_mul_ps(y, _mm256_castsi256_ps(scale))
    }

    /// `y` where `x` is a number, `x` itself where it is NaN.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn keep_nan(x: __m256, y: __m256) -> __m256 {
        _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sigmoid8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let neg = _mm256_xor_ps(x, _mm256_set1_ps(-0.0));
        let y = _mm256_div_ps(one, _mm256_add_ps(one, exp8(neg)));
        keep_nan(x, y)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let sign_mask = _mm256_set1_ps(-0.0);
        let sign = _mm256_and_ps(x, sign_mask);
        let ax = _mm256_andnot_ps(sign_mask, x);
        let z = _mm256_mul_ps(ax, ax);
        let p = horner(&TANH_POLY, z);
        let small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, z), ax), ax);
        let e = exp8(_mm256_add_ps(ax, ax));
        let big = _mm256_sub_ps(
            one,
            _mm256_div_ps(_mm256_set1_ps(2.0), _mm256_add_ps(e, one)),
        );
        let is_small = _mm256_cmp_ps(ax, _mm256_set1_ps(TANH_SMALL), _CMP_LT_OQ);
        let y = _mm256_or_ps(_mm256_blendv_ps(big, small, is_small), sign);
        keep_nan(x, y)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sigmoid(xs: &mut [f32]) {
        map8(xs, |x| sigmoid8(x));
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh(xs: &mut [f32]) {
        map8(xs, |x| tanh8(x));
    }

    /// Row `k` of `src` (gate `k` of a `4h` slice; an `h` slice is its
    /// own row 0) at units `j..j + 8` of `h`. Past the end of the row
    /// (the tail) the lanes read `0.0`, as in `map8`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(src: &[f32], h: usize, k: usize, j: usize) -> __m256 {
        let at = &src[k * h + j..k * h + h.min(j + 8)];
        if at.len() == 8 {
            return _mm256_loadu_ps(at.as_ptr());
        }
        let mut buf = [0.0f32; 8];
        buf[..at.len()].copy_from_slice(at);
        _mm256_loadu_ps(buf.as_ptr())
    }

    /// Stores the lanes of `v` that fall inside row `k` of `dst` at units
    /// `j..j + 8` of `h`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store(dst: &mut [f32], h: usize, k: usize, j: usize, v: __m256) {
        let at = &mut dst[k * h + j..k * h + h.min(j + 8)];
        if at.len() == 8 {
            _mm256_storeu_ps(at.as_mut_ptr(), v);
        } else {
            let mut buf = [0.0f32; 8];
            _mm256_storeu_ps(buf.as_mut_ptr(), v);
            let n = at.len();
            at.copy_from_slice(&buf[..n]);
        }
    }

    /// The AVX2 tier of [`super::lstm_cell`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lstm_cell(
        gates: &mut [f32],
        hg: &[f32],
        b: &[f32],
        c: &mut [f32],
        tc: &mut [f32],
        hs: &mut [f32],
    ) {
        let h = c.len();
        for j in (0..h).step_by(8) {
            let a = |k| {
                let pre = _mm256_add_ps(load(gates, h, k, j), load(hg, h, k, j));
                _mm256_add_ps(pre, load(b, h, k, j))
            };
            let (i, f, g, o) = (sigmoid8(a(0)), sigmoid8(a(1)), tanh8(a(2)), sigmoid8(a(3)));
            for (k, v) in [i, f, g, o].into_iter().enumerate() {
                store(gates, h, k, j, v);
            }
            let c_old = load(c, h, 0, j);
            let cj = _mm256_add_ps(_mm256_mul_ps(f, c_old), _mm256_mul_ps(i, g));
            let t = tanh8(cj);
            store(c, h, 0, j, cj);
            store(tc, h, 0, j, t);
            store(hs, h, 0, j, _mm256_mul_ps(o, t));
        }
    }

    /// The AVX2 tier of [`super::lstm_cell_backward`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lstm_cell_backward(
        gates: &[f32],
        tc: &[f32],
        c_prev: &[f32],
        g_out: &[f32],
        dh_rec: &[f32],
        dc: &mut [f32],
        dg: &mut [f32],
    ) {
        let h = dc.len();
        let one = _mm256_set1_ps(1.0);
        for j in (0..h).step_by(8) {
            let gate = |k| load(gates, h, k, j);
            let (i, f, g, o) = (gate(0), gate(1), gate(2), gate(3));
            let row = |src: &[f32]| load(src, h, 0, j);
            let (t, cp) = (row(tc), row(c_prev));
            let dh = _mm256_add_ps(row(g_out), row(dh_rec));
            let dtc = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
            let dcj = _mm256_add_ps(row(dc), _mm256_mul_ps(_mm256_mul_ps(dh, o), dtc));
            store(dc, h, 0, j, _mm256_mul_ps(dcj, f));
            let mul3 = |a, b, c| _mm256_mul_ps(_mm256_mul_ps(a, b), c);
            let dg_i = _mm256_mul_ps(mul3(dcj, g, i), _mm256_sub_ps(one, i));
            let dg_f = _mm256_mul_ps(mul3(dcj, cp, f), _mm256_sub_ps(one, f));
            let dg_g = _mm256_mul_ps(
                _mm256_mul_ps(dcj, i),
                _mm256_sub_ps(one, _mm256_mul_ps(g, g)),
            );
            let dg_o = _mm256_mul_ps(mul3(dh, t, o), _mm256_sub_ps(one, o));
            for (k, v) in [dg_i, dg_f, dg_g, dg_o].into_iter().enumerate() {
                store(dg, h, k, j, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Tier = fn(&mut [f32]);
    /// `(name, dispatched, portable, f64 reference)`.
    type Function = (&'static str, Tier, Tier, fn(f64) -> f64);

    fn functions() -> [Function; 2] {
        [
            ("sigmoid", sigmoid, sigmoid_portable, |x| {
                1.0 / (1.0 + (-x).exp())
            }),
            ("tanh", tanh, tanh_portable, f64::tanh),
        ]
    }

    /// The AVX2 tier called directly (not through the process-global
    /// dispatch, which other tests may flip), or `None` without AVX2.
    fn avx2_tier(name: &str) -> Option<Tier> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected.
            return Some(match name {
                "sigmoid" => |xs: &mut [f32]| unsafe { avx2::sigmoid(xs) },
                _ => |xs: &mut [f32]| unsafe { avx2::tanh(xs) },
            });
        }
        let _ = name;
        None
    }

    fn specials() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            88.0,
            -88.0,
            1e3,
            -1e3,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fa0_1234), // signalling NaN with a payload
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x8000_0001), // … and its negative
            f32::from_bits(0x007f_ffff), // largest subnormal
            0.625,
            -0.625,
            f32::from_bits(0.625f32.to_bits() - 1),
            17.5,
            -17.5,
            87.3,
            -87.3,
            88.5,
            -88.5,
            f32::MAX,
            f32::MIN,
        ];
        // A deterministic spread of ordinary gate pre-activations.
        xs.extend((0..64).map(|i| ((i * 37 % 64) as f32 - 31.5) * 0.37));
        xs
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn avx2_and_portable_tiers_agree_bit_for_bit() {
        let pool = specials();
        for (name, _, portable, _) in functions() {
            let Some(simd) = avx2_tier(name) else {
                eprintln!("no AVX2 on this host: {name} tier comparison skipped");
                continue;
            };
            // Every length 0..=40 (all tail widths, with and without full
            // registers), at every rotation of the special-value pool so
            // each value lands in every lane and in the tail.
            for len in 0..=40usize {
                for rot in 0..pool.len() {
                    let input: Vec<f32> = (0..len).map(|i| pool[(i + rot) % pool.len()]).collect();
                    let (mut a, mut b) = (input.clone(), input.clone());
                    simd(&mut a);
                    portable(&mut b);
                    assert_eq!(bits(&a), bits(&b), "{name} len {len} rot {rot}: {input:?}");
                }
            }
        }
    }

    #[test]
    fn relative_error_against_f64_is_within_bound() {
        // Every 509th f32 bit pattern (both signs, every exponent): 8.4 M
        // points per function. The exhaustive sweep measures 1.5e-7.
        for (name, dispatched, _, reference) in functions() {
            let mut worst = (0.0f64, 0.0f32);
            let mut xs: Vec<f32> = Vec::with_capacity(4096);
            let mut pattern = 0u64;
            while pattern < 1 << 32 {
                xs.clear();
                while xs.len() < 4096 && pattern < 1 << 32 {
                    let x = f32::from_bits(pattern as u32);
                    pattern += 509;
                    if !x.is_nan() {
                        xs.push(x);
                    }
                }
                let mut ys = xs.clone();
                dispatched(&mut ys);
                for (&x, &y) in xs.iter().zip(&ys) {
                    let want = reference(f64::from(x));
                    if want.abs() < f64::from(f32::MIN_POSITIVE) {
                        // Subnormal territory (sigmoid below −87.3): the
                        // result is within 2⁻¹²⁶ of the truth, possibly 0.
                        assert!((f64::from(y) - want).abs() <= f64::from(f32::MIN_POSITIVE));
                        continue;
                    }
                    let rel = ((f64::from(y) - want) / want).abs();
                    if rel > worst.0 {
                        worst = (rel, x);
                    }
                }
            }
            eprintln!(
                "{name}: worst relative error {:.3e} at {:e}",
                worst.0, worst.1
            );
            assert!(
                worst.0 <= 2.5e-7,
                "{name}: {:.3e} at {:e}",
                worst.0,
                worst.1
            );
        }
    }

    #[test]
    fn tanh_is_odd_bit_for_bit() {
        let mut pos: Vec<f32> = specials().into_iter().filter(|x| !x.is_nan()).collect();
        let mut neg: Vec<f32> = pos.iter().map(|x| -x).collect();
        tanh(&mut pos);
        tanh(&mut neg);
        let mirrored: Vec<f32> = neg.iter().map(|y| -y).collect();
        assert_eq!(bits(&pos), bits(&mirrored));
    }

    #[test]
    fn saturation_and_fixed_points_are_exact() {
        let mut s = [
            0.0,
            -0.0,
            17.5,
            1e3,
            f32::INFINITY,
            -88.5,
            -1e3,
            f32::NEG_INFINITY,
        ];
        sigmoid(&mut s);
        assert_eq!(bits(&s), bits(&[0.5, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]));
        let mut t = [
            0.0,
            -0.0,
            9.5,
            -9.5,
            1e3,
            -1e3,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        tanh(&mut t);
        assert_eq!(
            bits(&t),
            bits(&[0.0, -0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        );
        // Subnormals are in the identity regime of tanh.
        let tiny = f32::from_bits(0x0000_0123);
        let mut u = [tiny, -tiny];
        tanh(&mut u);
        assert_eq!(bits(&u), bits(&[tiny, -tiny]));
    }

    #[test]
    fn nan_inputs_come_back_unchanged() {
        let nans = [f32::NAN, -f32::NAN, f32::from_bits(0x7fa0_1234)];
        for (name, dispatched, portable, _) in functions() {
            for tier in [dispatched, portable] {
                // One NaN per position of a 9-wide slice: full register + tail.
                for (k, &nan) in nans.iter().cycle().take(9).enumerate() {
                    let mut xs = [0.25f32; 9];
                    xs[k] = nan;
                    tier(&mut xs);
                    assert_eq!(xs[k].to_bits(), nan.to_bits(), "{name} lane {k}");
                    assert!(xs.iter().enumerate().all(|(i, x)| i == k || !x.is_nan()));
                }
            }
        }
    }

    /// The separate passes [`lstm_cell`] fused: bias adds, one activation
    /// pass per gate group, the cell update, `tanh(c)`, the state.
    fn cell_reference(
        gates: &mut [f32],
        hg: &[f32],
        b: &[f32],
        c: &mut [f32],
        tc: &mut [f32],
        hs: &mut [f32],
    ) {
        let h = c.len();
        for ((g, &hv), &bv) in gates.iter_mut().zip(hg).zip(b) {
            *g = (*g + hv) + bv;
        }
        sigmoid_portable(&mut gates[..2 * h]);
        tanh_portable(&mut gates[2 * h..3 * h]);
        sigmoid_portable(&mut gates[3 * h..]);
        for j in 0..h {
            c[j] = gates[h + j] * c[j] + gates[j] * gates[2 * h + j];
        }
        tc.copy_from_slice(c);
        tanh_portable(tc);
        for j in 0..h {
            hs[j] = gates[3 * h + j] * tc[j];
        }
    }

    /// The per-element loop [`lstm_cell_backward`] replaced.
    fn cell_backward_reference(
        gates: &[f32],
        tc: &[f32],
        c_prev: &[f32],
        g_out: &[f32],
        dh_rec: &[f32],
        dc: &mut [f32],
        dg: &mut [f32],
    ) {
        let h = dc.len();
        for j in 0..h {
            let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
            let dh = g_out[j] + dh_rec[j];
            let dcj = dc[j] + dh * o * (1.0 - tc[j] * tc[j]);
            dc[j] = dcj * f;
            dg[j] = dcj * g * i * (1.0 - i);
            dg[h + j] = dcj * c_prev[j] * f * (1.0 - f);
            dg[2 * h + j] = dcj * i * (1.0 - g * g);
            dg[3 * h + j] = dh * tc[j] * o * (1.0 - o);
        }
    }

    /// Bits with every NaN as the one quiet NaN. Where two NaN operands
    /// meet, Rust leaves the sign and payload of the result unspecified
    /// (the compiler may commute the operands of a scalar add or
    /// multiply), so even the reference loop has no fixed NaN bits; every
    /// other value is compared by its bits.
    fn cell_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() })
            .collect()
    }

    type Cell = fn(&mut [f32], &[f32], &[f32], &mut [f32], &mut [f32], &mut [f32]);
    type CellBackward = fn(&[f32], &[f32], &[f32], &[f32], &[f32], &mut [f32], &mut [f32]);

    /// `(name, forward, backward)` for each tier: the dispatched kernels
    /// under `force_portable(Some(true))` are the portable tier, so the
    /// tiers are called directly here (the dispatch is process-global and
    /// other tests flip it).
    fn cell_tiers() -> Vec<(&'static str, Cell, CellBackward)> {
        let mut tiers: Vec<(&'static str, Cell, CellBackward)> =
            vec![("portable", lstm_cell_portable, lstm_cell_backward_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected.
            tiers.push((
                "avx2",
                |g, hg, b, c, tc, hs| unsafe { avx2::lstm_cell(g, hg, b, c, tc, hs) },
                |g, tc, cp, go, dh, dc, dg| unsafe {
                    avx2::lstm_cell_backward(g, tc, cp, go, dh, dc, dg)
                },
            ));
        } else {
            eprintln!("no AVX2 on this host: only the portable LSTM cell tier is checked");
        }
        tiers
    }

    /// Deterministic cell inputs: ordinary values, with every `spice`-th
    /// element taken from the special pool (NaN, ±inf, saturating and
    /// signed-zero pre-activations, extremes).
    fn cell_values(len: usize, seed: u64, spice: usize, scale: f32) -> Vec<f32> {
        let pool = specials();
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if spice > 0 && (i + seed as usize).is_multiple_of(spice) {
                    pool[(x >> 33) as usize % pool.len()]
                } else {
                    ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * scale
                }
            })
            .collect()
    }

    #[test]
    fn lstm_cell_equals_the_separate_passes_bit_for_bit() {
        for (tier, cell, _) in cell_tiers() {
            for h in [1usize, 5, 8, 24, 27] {
                // Plain, then spiced with specials, then saturating.
                for (seed, spice, scale) in [(1, 0, 4.0), (2, 3, 4.0), (3, 0, 400.0), (4, 1, 1.0)] {
                    let pre = cell_values(4 * h, seed, spice, scale);
                    let hg = cell_values(4 * h, seed + 10, spice, scale);
                    let b = cell_values(4 * h, seed + 20, spice, 1.0);
                    let c = cell_values(h, seed + 30, spice, scale);
                    let mut want = (pre.clone(), c.clone(), vec![9.0; h], vec![9.0; h]);
                    let mut got = (pre, c, vec![9.0; h], vec![9.0; h]);
                    cell_reference(&mut want.0, &hg, &b, &mut want.1, &mut want.2, &mut want.3);
                    cell(&mut got.0, &hg, &b, &mut got.1, &mut got.2, &mut got.3);
                    let case = format!("{tier}, h {h}, seed {seed}");
                    assert_eq!(cell_bits(&got.0), cell_bits(&want.0), "gates, {case}");
                    assert_eq!(cell_bits(&got.1), cell_bits(&want.1), "c, {case}");
                    assert_eq!(cell_bits(&got.2), cell_bits(&want.2), "tanh(c), {case}");
                    assert_eq!(cell_bits(&got.3), cell_bits(&want.3), "state, {case}");
                }
            }
        }
    }

    #[test]
    fn lstm_cell_backward_equals_the_per_element_loop_bit_for_bit() {
        for (tier, _, backward) in cell_tiers() {
            for h in [1usize, 5, 8, 24, 27] {
                for (seed, spice) in [(5, 0), (6, 3), (7, 1)] {
                    // Gates as the forward leaves them: activations, or
                    // specials where spiced.
                    let mut gates = cell_values(4 * h, seed, spice, 8.0);
                    sigmoid_portable(&mut gates);
                    let mut tc = cell_values(h, seed + 1, spice, 8.0);
                    tanh_portable(&mut tc);
                    let c_prev = cell_values(h, seed + 2, spice, 4.0);
                    let g_out = cell_values(h, seed + 3, spice, 2.0);
                    let dh_rec = cell_values(h, seed + 4, spice, 2.0);
                    let dc = cell_values(h, seed + 5, spice, 2.0);
                    let mut want = (dc.clone(), vec![9.0; 4 * h]);
                    let mut got = (dc, vec![9.0; 4 * h]);
                    let args = (&gates[..], &tc[..], &c_prev[..], &g_out[..], &dh_rec[..]);
                    cell_backward_reference(
                        args.0,
                        args.1,
                        args.2,
                        args.3,
                        args.4,
                        &mut want.0,
                        &mut want.1,
                    );
                    backward(
                        args.0, args.1, args.2, args.3, args.4, &mut got.0, &mut got.1,
                    );
                    let case = format!("{tier}, h {h}, seed {seed}");
                    assert_eq!(cell_bits(&got.0), cell_bits(&want.0), "dc, {case}");
                    assert_eq!(cell_bits(&got.1), cell_bits(&want.1), "dG, {case}");
                }
            }
        }
    }
}
