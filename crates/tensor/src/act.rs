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
//! a portable scalar loop, an 8-lane AVX2 loop and a 16-lane AVX-512
//! loop (`avx512f`; its bitwise steps use the integer `and`/`or`/`xor`,
//! which give the same bits), behind the same [`crate::gemm::tier`]
//! dispatch as the GEMM kernels: AVX-512 when the CPU has it, else AVX2,
//! else portable. Lanes never interact, tails run through a zero-padded
//! register (AVX2) or a masked load that reads `0.0` in the missing
//! lanes (AVX-512), and the tiers are bit-identical element for element;
//! `HISRECT_SIMD=0` therefore changes speed only.
//!
//! # LSTM cells
//!
//! [`lstm_cell`] and [`lstm_cell_backward`] are one LSTM step of a block
//! of rows (a step's live sequences), forward and back-propagated, as
//! single fused passes over each row's `h` units: one dispatch and one
//! set of slice checks per block, not per row. Each element sees the
//! operations, operand order and rounding of the separate-pass sequence
//! they replace (the bias adds, one activation pass per gate, the cell
//! update, `tanh(c)`, the state; and the gate derivatives of the tape's
//! nodes), so they are bit-identical to it; the tiers and the tails
//! follow the same rules as above.

use crate::gemm::{tier, Tier};

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
    // SAFETY: the dispatched tier is one this CPU supports.
    unsafe { sigmoid_on(tier(), xs) }
}

/// In-place hyperbolic tangent (see the module docs).
pub fn tanh(xs: &mut [f32]) {
    // SAFETY: as in `sigmoid`.
    unsafe { tanh_on(tier(), xs) }
}

/// [`sigmoid`] on `tier`.
///
/// # Safety
///
/// The CPU must support `tier`.
unsafe fn sigmoid_on(tier: Tier, xs: &mut [f32]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => avx512::sigmoid(xs),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => avx2::sigmoid(xs),
        _ => sigmoid_portable(xs),
    }
}

/// [`tanh`] on `tier`.
///
/// # Safety
///
/// The CPU must support `tier`.
unsafe fn tanh_on(tier: Tier, xs: &mut [f32]) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => avx512::tanh(xs),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => avx2::tanh(xs),
        _ => tanh_portable(xs),
    }
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

/// Rows in a cell block of `h` units whose per-row slices are `c` (`h`
/// each): checks that every slice in `wide` holds `4h` per row and every
/// one in `narrow` `h` per row.
fn block_rows(h: usize, c: usize, wide: &[usize], narrow: &[usize], what: &str) -> usize {
    let rows = c.checked_div(h).unwrap_or(0);
    assert!(
        c == rows * h
            && wide.iter().all(|&l| l == 4 * rows * h)
            && narrow.iter().all(|&l| l == rows * h),
        "{what}: a block of rows of 4h- and h-wide slices"
    );
    rows
}

/// One forward LSTM step of a block of rows, `h = b.len() / 4` units
/// each, gate order `[i | f | g | o]`. On entry `gates` (`4h` per row)
/// holds the input projection; on return it holds the post-activation
/// gates. `hg` (`4h` per row) is the recurrent product and `b` (`4h`) the
/// bias every row shares. `c` (`h` per row) is the cell state, updated in
/// place; `tc` receives `tanh(c)` and `hs` the new state. Per element, in
/// this order:
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
    // SAFETY: the dispatched tier is one this CPU supports.
    unsafe { lstm_cell_on(tier(), gates, hg, b, c, tc, hs) }
}

/// [`lstm_cell`] on `tier`.
///
/// # Safety
///
/// The CPU must support `tier` (slice lengths are checked).
unsafe fn lstm_cell_on(
    tier: Tier,
    gates: &mut [f32],
    hg: &[f32],
    b: &[f32],
    c: &mut [f32],
    tc: &mut [f32],
    hs: &mut [f32],
) {
    let h = b.len() / 4;
    assert_eq!(b.len(), 4 * h, "lstm_cell: a 4h bias");
    let (wide, narrow) = ([gates.len(), hg.len()], [tc.len(), hs.len()]);
    if block_rows(h, c.len(), &wide, &narrow, "lstm_cell") == 0 {
        return;
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => avx512::lstm_cell(gates, hg, b, c, tc, hs),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => avx2::lstm_cell(gates, hg, b, c, tc, hs),
        _ => lstm_cell_portable(gates, hg, b, c, tc, hs),
    }
}

/// One step of LSTM back-propagation through time for a block of rows of
/// `h` units: `gates` (`4h` per row, post-activation) and `tc` are what
/// [`lstm_cell`] left, `c_prev` the cell state it started from, `g_out`
/// the gradient reaching this step's state from above and `dh_rec` the
/// one from the next step (`h` per row each). `dc` carries the cell
/// gradient (in: from the next step; out: to the previous one); `dg`
/// (`4h` per row) receives the pre-activation gate gradients. Per
/// element, in this order:
///
/// - `dh = g_out + dh_rec`;
/// - `dcj = dc + ((dh·o)·(1 − tc·tc))`, then `dc = dcj·f`;
/// - `dg_i = ((dcj·g)·i)·(1 − i)`, `dg_f = ((dcj·c_prev)·f)·(1 − f)`,
///   `dg_g = (dcj·i)·(1 − g·g)`, `dg_o = ((dh·tc)·o)·(1 − o)`.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_backward(
    h: usize,
    gates: &[f32],
    tc: &[f32],
    c_prev: &[f32],
    g_out: &[f32],
    dh_rec: &[f32],
    dc: &mut [f32],
    dg: &mut [f32],
) {
    // SAFETY: the dispatched tier is one this CPU supports.
    unsafe { lstm_cell_backward_on(tier(), h, gates, tc, c_prev, g_out, dh_rec, dc, dg) }
}

/// [`lstm_cell_backward`] on `tier`.
///
/// # Safety
///
/// The CPU must support `tier` (slice lengths are checked).
#[allow(clippy::too_many_arguments)]
unsafe fn lstm_cell_backward_on(
    tier: Tier,
    h: usize,
    gates: &[f32],
    tc: &[f32],
    c_prev: &[f32],
    g_out: &[f32],
    dh_rec: &[f32],
    dc: &mut [f32],
    dg: &mut [f32],
) {
    let wide = [gates.len(), dg.len()];
    let narrow = [tc.len(), c_prev.len(), g_out.len(), dh_rec.len()];
    if block_rows(h, dc.len(), &wide, &narrow, "lstm_cell_backward") == 0 {
        return;
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => avx512::lstm_cell_backward(h, gates, tc, c_prev, g_out, dh_rec, dc, dg),
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => avx2::lstm_cell_backward(h, gates, tc, c_prev, g_out, dh_rec, dc, dg),
        _ => lstm_cell_backward_portable(h, gates, tc, c_prev, g_out, dh_rec, dc, dg),
    }
}

/// The scalar tier of [`lstm_cell`], one row at a time.
fn lstm_cell_portable(
    gates: &mut [f32],
    hg: &[f32],
    b: &[f32],
    c: &mut [f32],
    tc: &mut [f32],
    hs: &mut [f32],
) {
    let h = b.len() / 4;
    for (r, c) in c.chunks_exact_mut(h).enumerate() {
        let (gates, hg) = (&mut gates[r * 4 * h..][..4 * h], &hg[r * 4 * h..][..4 * h]);
        let (tc, hs) = (&mut tc[r * h..][..h], &mut hs[r * h..][..h]);
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
}

/// The scalar tier of [`lstm_cell_backward`], one row at a time.
#[allow(clippy::too_many_arguments)]
fn lstm_cell_backward_portable(
    h: usize,
    gates: &[f32],
    tc: &[f32],
    c_prev: &[f32],
    g_out: &[f32],
    dh_rec: &[f32],
    dc: &mut [f32],
    dg: &mut [f32],
) {
    for (r, dc) in dc.chunks_exact_mut(h).enumerate() {
        let (gates, dg) = (&gates[r * 4 * h..][..4 * h], &mut dg[r * 4 * h..][..4 * h]);
        let row = |src: &[f32], j: usize| src[r * h + j];
        for j in 0..h {
            let (i, f, g, o) = (gates[j], gates[h + j], gates[2 * h + j], gates[3 * h + j]);
            let (t, cp) = (row(tc, j), row(c_prev, j));
            let dh = row(g_out, j) + row(dh_rec, j);
            let dcj = dc[j] + dh * o * (1.0 - t * t);
            dc[j] = dcj * f;
            dg[j] = dcj * g * i * (1.0 - i);
            dg[h + j] = dcj * cp * f * (1.0 - f);
            dg[2 * h + j] = dcj * i * (1.0 - g * g);
            dg[3 * h + j] = dh * t * o * (1.0 - o);
        }
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

    /// Units `j..j + 8` of one row of [`super::lstm_cell`]: every slice
    /// is that row's (`h = c.len()` units).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn cell_units(
        gates: &mut [f32],
        hg: &[f32],
        b: &[f32],
        c: &mut [f32],
        tc: &mut [f32],
        hs: &mut [f32],
        j: usize,
    ) {
        let h = c.len();
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

    /// Units `j..j + 8` of one row of [`super::lstm_cell_backward`]: every
    /// slice is that row's (`h = dc.len()` units).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn cell_backward_units(
        gates: &[f32],
        tc: &[f32],
        c_prev: &[f32],
        g_out: &[f32],
        dh_rec: &[f32],
        dc: &mut [f32],
        dg: &mut [f32],
        j: usize,
    ) {
        let h = dc.len();
        let one = _mm256_set1_ps(1.0);
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
        let h = b.len() / 4;
        for (r, c) in c.chunks_exact_mut(h).enumerate() {
            let (gates, hg) = (&mut gates[r * 4 * h..][..4 * h], &hg[r * 4 * h..][..4 * h]);
            let (tc, hs) = (&mut tc[r * h..][..h], &mut hs[r * h..][..h]);
            for j in (0..h).step_by(8) {
                cell_units(gates, hg, b, c, tc, hs, j);
            }
        }
    }

    /// The AVX2 tier of [`super::lstm_cell_backward`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (slice bounds are checked).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lstm_cell_backward(
        h: usize,
        gates: &[f32],
        tc: &[f32],
        c_prev: &[f32],
        g_out: &[f32],
        dh_rec: &[f32],
        dc: &mut [f32],
        dg: &mut [f32],
    ) {
        for (r, dc) in dc.chunks_exact_mut(h).enumerate() {
            let (gates, dg) = (&gates[r * 4 * h..][..4 * h], &mut dg[r * 4 * h..][..4 * h]);
            let at = r * h..(r + 1) * h;
            let (tc, c_prev) = (&tc[at.clone()], &c_prev[at.clone()]);
            let (g_out, dh_rec) = (&g_out[at.clone()], &dh_rec[at]);
            for j in (0..h).step_by(8) {
                cell_backward_units(gates, tc, c_prev, g_out, dh_rec, dc, dg, j);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// Lanes `0..n` of a 16-lane mask (all of them from `n = 16` up).
    #[inline(always)]
    fn lanes(n: usize) -> __mmask16 {
        if n >= 16 {
            0xffff
        } else {
            ((1u32 << n) - 1) as __mmask16
        }
    }

    /// Applies `f` to `xs` sixteen lanes at a time, a tail of more than
    /// eight through a masked load whose missing lanes read `0.0` (so
    /// every element sees the same instructions), and returns the tail of
    /// at most eight it left, which the callers hand to the AVX2 tier.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn map16(xs: &mut [f32], f: impl Fn(__m512) -> __m512) -> &mut [f32] {
        let mut chunks = xs.chunks_exact_mut(16);
        for c in chunks.by_ref() {
            _mm512_storeu_ps(c.as_mut_ptr(), f(_mm512_loadu_ps(c.as_ptr())));
        }
        let tail = chunks.into_remainder();
        if tail.len() <= 8 {
            return tail;
        }
        let m = lanes(tail.len());
        let v = f(_mm512_maskz_loadu_ps(m, tail.as_ptr()));
        _mm512_mask_storeu_ps(tail.as_mut_ptr(), m, v);
        &mut []
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn horner(coeffs: &[f32], v: __m512) -> __m512 {
        let mut p = _mm512_set1_ps(coeffs[0]);
        for &c in &coeffs[1..] {
            p = _mm512_add_ps(_mm512_mul_ps(p, v), _mm512_set1_ps(c));
        }
        p
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn exp16(x: __m512) -> __m512 {
        let x = _mm512_min_ps(_mm512_set1_ps(EXP_HI), x);
        let x = _mm512_max_ps(_mm512_set1_ps(EXP_LO), x);
        let magic = _mm512_set1_ps(ROUND_MAGIC);
        let t = _mm512_add_ps(_mm512_mul_ps(x, _mm512_set1_ps(LOG2E)), magic);
        let n = _mm512_sub_ps(t, magic);
        let r = _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(LN2_HI)));
        let r = _mm512_sub_ps(r, _mm512_mul_ps(n, _mm512_set1_ps(LN2_LO)));
        let p = horner(&EXP_POLY, r);
        let y = _mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r);
        let y = _mm512_add_ps(y, _mm512_set1_ps(1.0));
        let bits = _mm512_slli_epi32::<23>(_mm512_castps_si512(t));
        let scale = _mm512_add_epi32(bits, _mm512_set1_epi32(0x3f80_0000));
        _mm512_mul_ps(y, _mm512_castsi512_ps(scale))
    }

    /// `y` where `x` is a number, `x` itself where it is NaN.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn keep_nan(x: __m512, y: __m512) -> __m512 {
        _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x), y, x)
    }

    /// The sign bit of every lane, as integers (AVX-512F has no float
    /// `and`/`or`/`xor`; the integer ones give the same bits).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn sign_bits() -> __m512i {
        _mm512_set1_epi32(i32::MIN)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn sigmoid16(x: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let neg = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign_bits()));
        let y = _mm512_div_ps(one, _mm512_add_ps(one, exp16(neg)));
        keep_nan(x, y)
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tanh16(x: __m512) -> __m512 {
        let one = _mm512_set1_ps(1.0);
        let xi = _mm512_castps_si512(x);
        let sign = _mm512_and_si512(xi, sign_bits());
        let ax = _mm512_castsi512_ps(_mm512_andnot_si512(sign_bits(), xi));
        let z = _mm512_mul_ps(ax, ax);
        let p = horner(&TANH_POLY, z);
        let small = _mm512_add_ps(_mm512_mul_ps(_mm512_mul_ps(p, z), ax), ax);
        let e = exp16(_mm512_add_ps(ax, ax));
        let big = _mm512_sub_ps(
            one,
            _mm512_div_ps(_mm512_set1_ps(2.0), _mm512_add_ps(e, one)),
        );
        let is_small = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(ax, _mm512_set1_ps(TANH_SMALL));
        let y = _mm512_castps_si512(_mm512_mask_blend_ps(is_small, big, small));
        keep_nan(x, _mm512_castsi512_ps(_mm512_or_si512(y, sign)))
    }

    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn sigmoid(xs: &mut [f32]) {
        super::avx2::sigmoid(map16(xs, |x| sigmoid16(x)));
    }

    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn tanh(xs: &mut [f32]) {
        super::avx2::tanh(map16(xs, |x| tanh16(x)));
    }

    /// Row `k` of `src` (gate `k` of a `4h` slice; an `h` slice is its
    /// own row 0) at units `j..j + 16` of `h`. Past the end of the row
    /// (the tail) the lanes are masked off and read `0.0`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (slice bounds are checked).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load(src: &[f32], h: usize, k: usize, j: usize) -> __m512 {
        let at = &src[k * h + j..k * h + h.min(j + 16)];
        _mm512_maskz_loadu_ps(lanes(at.len()), at.as_ptr())
    }

    /// Stores the lanes of `v` that fall inside row `k` of `dst` at units
    /// `j..j + 16` of `h`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (slice bounds are checked).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store(dst: &mut [f32], h: usize, k: usize, j: usize, v: __m512) {
        let at = &mut dst[k * h + j..k * h + h.min(j + 16)];
        _mm512_mask_storeu_ps(at.as_mut_ptr(), lanes(at.len()), v);
    }

    /// Units `j..j + 16` of one row of [`super::lstm_cell`] (every slice
    /// that row's, `h = c.len()` units; lanes past `h` masked off).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (slice bounds are checked).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn cell_units(
        gates: &mut [f32],
        hg: &[f32],
        b: &[f32],
        c: &mut [f32],
        tc: &mut [f32],
        hs: &mut [f32],
        j: usize,
    ) {
        let h = c.len();
        let a = |k| {
            let pre = _mm512_add_ps(load(gates, h, k, j), load(hg, h, k, j));
            _mm512_add_ps(pre, load(b, h, k, j))
        };
        let (i, f, g, o) = (
            sigmoid16(a(0)),
            sigmoid16(a(1)),
            tanh16(a(2)),
            sigmoid16(a(3)),
        );
        for (k, v) in [i, f, g, o].into_iter().enumerate() {
            store(gates, h, k, j, v);
        }
        let c_old = load(c, h, 0, j);
        let cj = _mm512_add_ps(_mm512_mul_ps(f, c_old), _mm512_mul_ps(i, g));
        let t = tanh16(cj);
        store(c, h, 0, j, cj);
        store(tc, h, 0, j, t);
        store(hs, h, 0, j, _mm512_mul_ps(o, t));
    }

    /// Units `j..j + 16` of one row of [`super::lstm_cell_backward`]
    /// (every slice that row's, `h = dc.len()` units; lanes past `h`
    /// masked off).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (slice bounds are checked).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn cell_backward_units(
        gates: &[f32],
        tc: &[f32],
        c_prev: &[f32],
        g_out: &[f32],
        dh_rec: &[f32],
        dc: &mut [f32],
        dg: &mut [f32],
        j: usize,
    ) {
        let h = dc.len();
        let one = _mm512_set1_ps(1.0);
        let gate = |k| load(gates, h, k, j);
        let (i, f, g, o) = (gate(0), gate(1), gate(2), gate(3));
        let row = |src: &[f32]| load(src, h, 0, j);
        let (t, cp) = (row(tc), row(c_prev));
        let dh = _mm512_add_ps(row(g_out), row(dh_rec));
        let dtc = _mm512_sub_ps(one, _mm512_mul_ps(t, t));
        let dcj = _mm512_add_ps(row(dc), _mm512_mul_ps(_mm512_mul_ps(dh, o), dtc));
        store(dc, h, 0, j, _mm512_mul_ps(dcj, f));
        let mul3 = |a, b, c| _mm512_mul_ps(_mm512_mul_ps(a, b), c);
        let dg_i = _mm512_mul_ps(mul3(dcj, g, i), _mm512_sub_ps(one, i));
        let dg_f = _mm512_mul_ps(mul3(dcj, cp, f), _mm512_sub_ps(one, f));
        let dg_g = _mm512_mul_ps(
            _mm512_mul_ps(dcj, i),
            _mm512_sub_ps(one, _mm512_mul_ps(g, g)),
        );
        let dg_o = _mm512_mul_ps(mul3(dh, t, o), _mm512_sub_ps(one, o));
        for (k, v) in [dg_i, dg_f, dg_g, dg_o].into_iter().enumerate() {
            store(dg, h, k, j, v);
        }
    }

    /// The AVX-512 tier of [`super::lstm_cell`]: the AVX2 tier's
    /// operations on 16 units of a row at a time, masked when a block
    /// holds 9..15 units, and a row's last at most 8 units on the AVX2
    /// tier's 8 lanes: a 24-unit row is one ZMM and one YMM block, which
    /// the microbench measured faster than two ZMM blocks with the second
    /// half masked off.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX2 (slice bounds are checked).
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn lstm_cell(
        gates: &mut [f32],
        hg: &[f32],
        b: &[f32],
        c: &mut [f32],
        tc: &mut [f32],
        hs: &mut [f32],
    ) {
        let h = b.len() / 4;
        for (r, c) in c.chunks_exact_mut(h).enumerate() {
            let (gates, hg) = (&mut gates[r * 4 * h..][..4 * h], &hg[r * 4 * h..][..4 * h]);
            let (tc, hs) = (&mut tc[r * h..][..h], &mut hs[r * h..][..h]);
            let mut j = 0;
            while j + 8 < h {
                cell_units(gates, hg, b, c, tc, hs, j);
                j += 16;
            }
            if j < h {
                super::avx2::cell_units(gates, hg, b, c, tc, hs, j);
            }
        }
    }

    /// The AVX-512 tier of [`super::lstm_cell_backward`], split into
    /// blocks as [`lstm_cell`] is.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX2 (slice bounds are checked).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn lstm_cell_backward(
        h: usize,
        gates: &[f32],
        tc: &[f32],
        c_prev: &[f32],
        g_out: &[f32],
        dh_rec: &[f32],
        dc: &mut [f32],
        dg: &mut [f32],
    ) {
        for (r, dc) in dc.chunks_exact_mut(h).enumerate() {
            let (gates, dg) = (&gates[r * 4 * h..][..4 * h], &mut dg[r * 4 * h..][..4 * h]);
            let at = r * h..(r + 1) * h;
            let (tc, c_prev) = (&tc[at.clone()], &c_prev[at.clone()]);
            let (g_out, dh_rec) = (&g_out[at.clone()], &dh_rec[at]);
            let mut j = 0;
            while j + 8 < h {
                cell_backward_units(gates, tc, c_prev, g_out, dh_rec, dc, dg, j);
                j += 16;
            }
            if j < h {
                super::avx2::cell_backward_units(gates, tc, c_prev, g_out, dh_rec, dc, dg, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Map = fn(&mut [f32]);
    /// `(name, dispatched, portable, on a tier, f64 reference)`.
    type Function = (
        &'static str,
        Map,
        Map,
        unsafe fn(Tier, &mut [f32]),
        fn(f64) -> f64,
    );

    fn functions() -> [Function; 2] {
        [
            ("sigmoid", sigmoid, sigmoid_portable, sigmoid_on, |x| {
                1.0 / (1.0 + (-x).exp())
            }),
            ("tanh", tanh, tanh_portable, tanh_on, f64::tanh),
        ]
    }

    /// `tier` if this CPU has it, else `None` after saying so. Tiers are
    /// called directly, not through the process-global dispatch, which
    /// other tests flip.
    fn available(tier: Tier) -> Option<Tier> {
        if tier.supported() {
            return Some(tier);
        }
        eprintln!("skipped: {} not available", tier.name());
        None
    }

    /// Every tier this CPU has, portable first.
    fn tiers() -> Vec<Tier> {
        Tier::ALL.into_iter().filter_map(available).collect()
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

    /// `tier` against the portable tier, both activations: every length
    /// 0..=40 (all tail widths, with and without full registers), at every
    /// rotation of the special-value pool so each value lands in every
    /// lane and in the tail.
    fn assert_tier_matches_portable(tier: Tier) {
        let pool = specials();
        for (name, _, portable, on, _) in functions() {
            for len in 0..=40usize {
                for rot in 0..pool.len() {
                    let input: Vec<f32> = (0..len).map(|i| pool[(i + rot) % pool.len()]).collect();
                    let (mut a, mut b) = (input.clone(), input.clone());
                    // SAFETY: callers pass only tiers this CPU supports.
                    unsafe { on(tier, &mut a) };
                    portable(&mut b);
                    let case = format!("{} {name} len {len} rot {rot}", tier.name());
                    assert_eq!(bits(&a), bits(&b), "{case}: {input:?}");
                }
            }
        }
    }

    #[test]
    fn avx2_and_portable_tiers_agree_bit_for_bit() {
        if let Some(tier) = available(Tier::Avx2) {
            assert_tier_matches_portable(tier);
        }
    }

    #[test]
    fn avx512_and_portable_tiers_agree_bit_for_bit() {
        if let Some(tier) = available(Tier::Avx512) {
            assert_tier_matches_portable(tier);
        }
    }

    #[test]
    fn relative_error_against_f64_is_within_bound() {
        // Every 509th f32 bit pattern (both signs, every exponent): 8.4 M
        // points per function. The exhaustive sweep measures 1.5e-7.
        for (name, dispatched, _, _, reference) in functions() {
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
        for (name, dispatched, portable, _, _) in functions() {
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

    /// The separate passes [`lstm_cell`] fused, over one row: bias adds,
    /// one activation pass per gate group, the cell update, `tanh(c)`, the
    /// state.
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

    /// The per-element loop [`lstm_cell_backward`] replaced, over one row.
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

    /// Hidden widths around the 8- and 16-lane registers and their tails,
    /// and the rows of a step block: one, a few, a full batch.
    const HS: [usize; 9] = [1, 5, 8, 15, 16, 17, 24, 27, 33];
    const LIVE: [usize; 3] = [1, 3, 24];

    #[test]
    fn lstm_cell_equals_the_separate_passes_bit_for_bit() {
        let tiers = tiers();
        for h in HS {
            for live in LIVE {
                // Plain, then spiced with specials, then saturating.
                for (seed, spice, scale) in [(1, 0, 4.0), (2, 3, 4.0), (3, 0, 400.0), (4, 1, 1.0)] {
                    let seed = seed + 100 * (h * 31 + live) as u64;
                    let pre = cell_values(live * 4 * h, seed, spice, scale);
                    let hg = cell_values(live * 4 * h, seed + 10, spice, scale);
                    let b = cell_values(4 * h, seed + 20, spice, 1.0);
                    let c = cell_values(live * h, seed + 30, spice, scale);
                    let fresh = || {
                        (
                            pre.clone(),
                            c.clone(),
                            vec![9.0; live * h],
                            vec![9.0; live * h],
                        )
                    };
                    let mut want = fresh();
                    for r in 0..live {
                        let (wide, narrow) = (r * 4 * h..(r + 1) * 4 * h, r * h..(r + 1) * h);
                        cell_reference(
                            &mut want.0[wide.clone()],
                            &hg[wide],
                            &b,
                            &mut want.1[narrow.clone()],
                            &mut want.2[narrow.clone()],
                            &mut want.3[narrow],
                        );
                    }
                    for &tier in &tiers {
                        let mut got = fresh();
                        // SAFETY: `tiers()` holds only supported tiers.
                        unsafe {
                            lstm_cell_on(
                                tier, &mut got.0, &hg, &b, &mut got.1, &mut got.2, &mut got.3,
                            )
                        };
                        let case = format!("{}, h {h}, live {live}, seed {seed}", tier.name());
                        assert_eq!(cell_bits(&got.0), cell_bits(&want.0), "gates, {case}");
                        assert_eq!(cell_bits(&got.1), cell_bits(&want.1), "c, {case}");
                        assert_eq!(cell_bits(&got.2), cell_bits(&want.2), "tanh(c), {case}");
                        assert_eq!(cell_bits(&got.3), cell_bits(&want.3), "state, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn lstm_cell_backward_equals_the_per_element_loop_bit_for_bit() {
        let tiers = tiers();
        for h in HS {
            for live in LIVE {
                for (seed, spice) in [(5, 0), (6, 3), (7, 1)] {
                    let seed = seed + 100 * (h * 31 + live) as u64;
                    // Gates as the forward leaves them: activations, or
                    // specials where spiced.
                    let mut gates = cell_values(live * 4 * h, seed, spice, 8.0);
                    sigmoid_portable(&mut gates);
                    let mut tc = cell_values(live * h, seed + 1, spice, 8.0);
                    tanh_portable(&mut tc);
                    let c_prev = cell_values(live * h, seed + 2, spice, 4.0);
                    let g_out = cell_values(live * h, seed + 3, spice, 2.0);
                    let dh_rec = cell_values(live * h, seed + 4, spice, 2.0);
                    let dc = cell_values(live * h, seed + 5, spice, 2.0);
                    let mut want = (dc.clone(), vec![9.0; live * 4 * h]);
                    for r in 0..live {
                        let (wide, narrow) = (r * 4 * h..(r + 1) * 4 * h, r * h..(r + 1) * h);
                        cell_backward_reference(
                            &gates[wide.clone()],
                            &tc[narrow.clone()],
                            &c_prev[narrow.clone()],
                            &g_out[narrow.clone()],
                            &dh_rec[narrow.clone()],
                            &mut want.0[narrow],
                            &mut want.1[wide],
                        );
                    }
                    for &tier in &tiers {
                        let mut got = (dc.clone(), vec![9.0; live * 4 * h]);
                        let args = (&gates[..], &tc[..], &c_prev[..], &g_out[..], &dh_rec[..]);
                        // SAFETY: `tiers()` holds only supported tiers.
                        unsafe {
                            lstm_cell_backward_on(
                                tier, h, args.0, args.1, args.2, args.3, args.4, &mut got.0,
                                &mut got.1,
                            )
                        };
                        let case = format!("{}, h {h}, live {live}, seed {seed}", tier.name());
                        assert_eq!(cell_bits(&got.0), cell_bits(&want.0), "dc, {case}");
                        assert_eq!(cell_bits(&got.1), cell_bits(&want.1), "dG, {case}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lstm_cell: a block of rows")]
    fn lstm_cell_rejects_a_ragged_block() {
        let (mut g, hg, b) = (vec![0.0; 8], vec![0.0; 8], vec![0.0; 8]);
        let (mut c, mut tc, mut hs) = (vec![0.0; 2], vec![0.0; 2], vec![0.0; 1]);
        lstm_cell(&mut g, &hg, &b, &mut c, &mut tc, &mut hs);
    }
}
