//! Packed, register-blocked GEMM micro-kernels.
//!
//! All three matmul variants (`nn`, `tn`, `nt`) are routed through one
//! packed path: the operands are first repacked into contiguous k-major
//! panels — an `MR`×`kc` A-panel and a `kc`×`NR` B-panel — and the inner
//! kernel then streams both linearly, computing an `MR`×`NR` output tile
//! with one accumulator register per output sub-vector. Repacking is
//! where the transposed variants pay their strided access exactly once
//! (O(m·k + k·n) irregular reads) instead of on every one of the
//! O(m·n·k) multiply-adds, which is what made the old row-dot-row
//! `matmul_nt` 4× slower than plain `matmul`.
//!
//! # Summation order (the determinism contract)
//!
//! Every output element is a single accumulation chain over `k` in
//! strictly ascending order, with the multiply and the add kept as two
//! separate roundings (**no FMA** — fusing would change results). Lanes
//! of a SIMD register hold *different output columns*, never partial
//! sums of one element, so there is no horizontal reduction anywhere and
//! the portable scalar kernel, the autovectorized build of it, and the
//! explicit AVX2 and AVX-512 kernels are bit-identical by construction.
//! The parallel path partitions output *rows*, so each element is still
//! produced by exactly one worker running this same kernel. Proptests in
//! `crates/tensor/tests/proptests.rs` enforce all of this against a
//! naive reference.
//!
//! # Padding
//!
//! Panels are zero-padded in the M and N directions up to the tile
//! shape; the kernel computes a full `MR`×`NR` tile into scratch — or an
//! `MR`×`NR/2` one for a last panel of at most `NR/2` live columns, so a
//! 24-wide product does not pay for 32 columns — and only the valid
//! region is copied out. The K direction is *never*
//! padded: a padded k-step would add `0.0 * x` terms, which is not a
//! no-op for IEEE specials (`0 * inf = NaN`) and would corrupt rows that
//! legitimately contain non-finite values.
//!
//! # Tiers
//!
//! [`tier`] picks one kernel tier per process by runtime detection:
//! AVX-512 when `is_x86_feature_detected!` confirms `avx512f` and `avx2`
//! (the features its code enables), else AVX2, else portable;
//! `HISRECT_SIMD=0` forces portable (useful for isolating miscompiles or
//! benchmarking the autovectorizer). The same choice drives
//! [`crate::act`] and the int8 kernels, which have no AVX-512 body and
//! run their AVX2 one on that tier.
//!
//! The AVX-512 tier runs two adjacent panels as one 4×32 tile (one
//! 16-lane ZMM vector per panel and row) when the second panel has more
//! than `NR/2` live columns. A single panel, or a last one of at most
//! `NR/2` columns, keeps the AVX2 4×16 and 4×8 tiles: a ZMM tile over a
//! 24-wide product would compute 32 columns, which the microbench
//! measured slower there than the exact 16 + 8 split, while the pair
//! wins on the 96- and 144-wide panels.

use crate::pool;
use std::sync::atomic::{AtomicU8, Ordering};

/// Rows of one register tile (distinct broadcast A values in flight).
pub const MR: usize = 4;

/// Columns of one packed panel and register tile (two 8-lane vectors on
/// AVX2; the AVX-512 tile covers two panels, one 16-lane vector each).
pub const NR: usize = 16;

/// How the logical GEMM operand maps onto the stored buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `C = A · B` with both operands stored as used.
    Nn,
    /// `C = Aᵀ · B`; `a` is stored `k`×`m`.
    Tn,
    /// `C = A · Bᵀ`; `b` is stored `n`×`k`.
    Nt,
}

/// A kernel tier: one implementation of every f32 kernel (the GEMM
/// micro-kernels, [`crate::act`]) and of the int8 kernels. All tiers give
/// the same bits; they differ in speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Scalar loops, autovectorized where the compiler can.
    Portable,
    /// 8-lane AVX2.
    Avx2,
    /// 16-lane AVX-512 (`avx512f`) for the activations, the LSTM cells
    /// and GEMM panel pairs; the AVX2 kernels for everything else.
    Avx512,
}

impl Tier {
    /// Every tier, slowest first.
    pub const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx2, Tier::Avx512];

    /// `portable`, `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// Whether this CPU has exactly the features the tier's code enables.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            match self {
                Tier::Portable => true,
                Tier::Avx2 => avx2,
                Tier::Avx512 => avx2 && std::arch::is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Tier::Portable
        }
    }
}

// Dispatch state: 0 = unresolved, else 1 + the tier's discriminant (its
// index in `Tier::ALL`).
static SIMD_STATE: AtomicU8 = AtomicU8::new(0);

/// The widest supported tier, or the portable one under `HISRECT_SIMD=0`.
fn detect_tier() -> Tier {
    let env_off = std::env::var("HISRECT_SIMD")
        .map(|v| matches!(v.trim(), "0" | "false" | "off"))
        .unwrap_or(false);
    if env_off {
        return Tier::Portable;
    }
    let widest = Tier::ALL.into_iter().rev().find(|t| t.supported());
    widest.expect("the portable tier runs everywhere")
}

/// The tier every kernel dispatches to: AVX-512 when the CPU has it,
/// else AVX2, else portable; `HISRECT_SIMD=0` forces portable.
pub fn tier() -> Tier {
    let mut s = SIMD_STATE.load(Ordering::Relaxed);
    if s == 0 {
        s = 1 + detect_tier() as u8;
        SIMD_STATE.store(s, Ordering::Relaxed);
    }
    Tier::ALL[usize::from(s - 1)]
}

/// The name of the dispatched [`tier`]: `avx512`, `avx2` or `portable`.
pub fn simd_tier() -> &'static str {
    tier().name()
}

/// True when an explicit SIMD tier (AVX2 or AVX-512) is in use. The
/// portable kernels compute bit-identical results either way.
pub fn simd_active() -> bool {
    tier() != Tier::Portable
}

/// Overrides SIMD dispatch for the whole process: `Some(true)` forces
/// the portable kernels (GEMM, `dot_i8`, [`crate::act`]), `Some(false)`
/// and `None` go back to detection under the environment default.
/// Test-only knob; results are bit-identical on every path, so flipping
/// this never changes output.
pub fn force_portable(force: Option<bool>) {
    let state = match force {
        Some(true) => 1 + Tier::Portable as u8,
        Some(false) | None => 0,
    };
    SIMD_STATE.store(state, Ordering::Relaxed);
}

/// A B operand repacked into `ceil(n/NR)` k-major panels, each laid out
/// as `panel[k*NR + j]`. Packed once per GEMM and shared read-only by
/// every worker in the parallel path.
pub struct PackedB {
    data: Vec<f32>,
    kc: usize,
    n: usize,
}

impl Drop for PackedB {
    fn drop(&mut self) {
        pool::put(std::mem::take(&mut self.data));
    }
}

impl PackedB {
    fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    fn panel(&self, p: usize) -> &[f32] {
        let stride = self.kc * NR;
        &self.data[p * stride..(p + 1) * stride]
    }
}

/// Packs the B operand of `variant` (`b` with `b_rows`×`b_cols` storage
/// shape) for a GEMM with depth `kc` and output width `n`. Tail panels
/// are zero-padded in the N direction only.
pub fn pack_b(variant: Variant, b: &[f32], b_cols: usize, kc: usize, n: usize) -> PackedB {
    let panels = n.div_ceil(NR);
    let mut data = pool::take(panels * kc * NR);
    data.resize(panels * kc * NR, 0.0);
    for p in 0..panels {
        let j0 = p * NR;
        let jw = NR.min(n - j0);
        let panel = &mut data[p * kc * NR..(p + 1) * kc * NR];
        match variant {
            // b stored kc×n: panel[k][j] = b[k*n + j0+j] — contiguous row copies.
            Variant::Nn | Variant::Tn => {
                for k in 0..kc {
                    let src = &b[k * b_cols + j0..k * b_cols + j0 + jw];
                    panel[k * NR..k * NR + jw].copy_from_slice(src);
                }
            }
            // b stored n×kc: panel[k][j] = b[(j0+j)*kc + k] — the one-time
            // transpose that removes the nt strided-access penalty.
            Variant::Nt => {
                for j in 0..jw {
                    let row = &b[(j0 + j) * b_cols..(j0 + j) * b_cols + kc];
                    for (k, &v) in row.iter().enumerate() {
                        panel[k * NR + j] = v;
                    }
                }
            }
        }
    }
    PackedB { data, kc, n }
}

/// Packs `MR` rows of A starting at `i0` into `ap[k*MR + r]`,
/// zero-padding missing rows.
fn pack_a(
    variant: Variant,
    a: &[f32],
    a_cols: usize,
    kc: usize,
    m: usize,
    i0: usize,
    ap: &mut [f32],
) {
    let iw = MR.min(m - i0);
    ap[..kc * MR].fill(0.0);
    match variant {
        // a stored m×kc.
        Variant::Nn | Variant::Nt => {
            for r in 0..iw {
                let row = &a[(i0 + r) * a_cols..(i0 + r) * a_cols + kc];
                for (k, &v) in row.iter().enumerate() {
                    ap[k * MR + r] = v;
                }
            }
        }
        // a stored kc×m: ap[k][r] = a[k*m + i0+r].
        Variant::Tn => {
            for k in 0..kc {
                let src = &a[k * a_cols + i0..k * a_cols + i0 + iw];
                ap[k * MR..k * MR + iw].copy_from_slice(src);
            }
        }
    }
}

/// Portable micro-kernel: `tile[r][j] += Σ_k ap[k][r] * bp[k][j]` for
/// the first `W` columns of the panel, k ascending, separate mul and add.
/// The inner `W`-wide loop autovectorizes; because lanes map to output
/// columns, lane width does not affect results and this is bit-identical
/// to the AVX2 kernels.
fn kernel_portable<const W: usize>(kc: usize, ap: &[f32], bp: &[f32], tile: &mut [f32; MR * NR]) {
    let mut acc = [[0.0f32; W]; MR];
    for k in 0..kc {
        let avs = &ap[k * MR..k * MR + MR];
        let bvs = &bp[k * NR..k * NR + W];
        for (row, &av) in acc.iter_mut().zip(avs) {
            for (o, &bv) in row.iter_mut().zip(bvs) {
                *o += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        tile[r * NR..r * NR + W].copy_from_slice(row);
    }
}

/// AVX2 micro-kernel: 8 YMM accumulators (4 rows × 2 column vectors),
/// explicit `mul` + `add` — deliberately not FMA, see the module docs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2(kc: usize, ap: &[f32], bp: &[f32], tile: &mut [f32; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
    let mut aptr = ap.as_ptr();
    let mut bptr = bp.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bptr);
        let b1 = _mm256_loadu_ps(bptr.add(8));
        let a0 = _mm256_set1_ps(*aptr);
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
        let a1 = _mm256_set1_ps(*aptr.add(1));
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
        let a2 = _mm256_set1_ps(*aptr.add(2));
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
        let a3 = _mm256_set1_ps(*aptr.add(3));
        c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
        c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
        aptr = aptr.add(MR);
        bptr = bptr.add(NR);
    }
    let out = tile.as_mut_ptr();
    _mm256_storeu_ps(out, c00);
    _mm256_storeu_ps(out.add(8), c01);
    _mm256_storeu_ps(out.add(NR), c10);
    _mm256_storeu_ps(out.add(NR + 8), c11);
    _mm256_storeu_ps(out.add(2 * NR), c20);
    _mm256_storeu_ps(out.add(2 * NR + 8), c21);
    _mm256_storeu_ps(out.add(3 * NR), c30);
    _mm256_storeu_ps(out.add(3 * NR + 8), c31);
}

/// The 4×8 twin of [`kernel_avx2`] for a last panel of at most `NR/2`
/// live columns: the same chains over the panel's first eight columns,
/// half the work.
///
/// # Safety
///
/// The CPU must support AVX2, `ap` must hold at least `kc·MR` floats and
/// `bp` at least `kc·NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2_half(kc: usize, ap: &[f32], bp: &[f32], tile: &mut [f32; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut aptr = ap.as_ptr();
    let mut bptr = bp.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(bptr);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_set1_ps(*aptr), b0));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_set1_ps(*aptr.add(1)), b0));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_set1_ps(*aptr.add(2)), b0));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_set1_ps(*aptr.add(3)), b0));
        aptr = aptr.add(MR);
        bptr = bptr.add(NR);
    }
    let out = tile.as_mut_ptr();
    _mm256_storeu_ps(out, c0);
    _mm256_storeu_ps(out.add(NR), c1);
    _mm256_storeu_ps(out.add(2 * NR), c2);
    _mm256_storeu_ps(out.add(3 * NR), c3);
}

/// The AVX-512 micro-kernel over two adjacent panels: a 4×32 tile in 8
/// ZMM accumulators (4 rows × one 16-lane vector per panel), explicit
/// `mul` + `add` as in [`kernel_avx2`]. Each panel's columns land in its
/// own tile.
///
/// # Safety
///
/// The CPU must support AVX-512F, `ap` must hold at least `kc·MR` floats
/// and `bp0` and `bp1` at least `kc·NR` each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_avx512_pair(
    kc: usize,
    ap: &[f32],
    bp: [&[f32]; 2],
    tiles: &mut [[f32; MR * NR]; 2],
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.iter().all(|p| p.len() >= kc * NR));
    let mut c00 = _mm512_setzero_ps();
    let mut c01 = _mm512_setzero_ps();
    let mut c10 = _mm512_setzero_ps();
    let mut c11 = _mm512_setzero_ps();
    let mut c20 = _mm512_setzero_ps();
    let mut c21 = _mm512_setzero_ps();
    let mut c30 = _mm512_setzero_ps();
    let mut c31 = _mm512_setzero_ps();
    let mut aptr = ap.as_ptr();
    let (mut b0ptr, mut b1ptr) = (bp[0].as_ptr(), bp[1].as_ptr());
    for _ in 0..kc {
        let b0 = _mm512_loadu_ps(b0ptr);
        let b1 = _mm512_loadu_ps(b1ptr);
        let a0 = _mm512_set1_ps(*aptr);
        c00 = _mm512_add_ps(c00, _mm512_mul_ps(a0, b0));
        c01 = _mm512_add_ps(c01, _mm512_mul_ps(a0, b1));
        let a1 = _mm512_set1_ps(*aptr.add(1));
        c10 = _mm512_add_ps(c10, _mm512_mul_ps(a1, b0));
        c11 = _mm512_add_ps(c11, _mm512_mul_ps(a1, b1));
        let a2 = _mm512_set1_ps(*aptr.add(2));
        c20 = _mm512_add_ps(c20, _mm512_mul_ps(a2, b0));
        c21 = _mm512_add_ps(c21, _mm512_mul_ps(a2, b1));
        let a3 = _mm512_set1_ps(*aptr.add(3));
        c30 = _mm512_add_ps(c30, _mm512_mul_ps(a3, b0));
        c31 = _mm512_add_ps(c31, _mm512_mul_ps(a3, b1));
        aptr = aptr.add(MR);
        b0ptr = b0ptr.add(NR);
        b1ptr = b1ptr.add(NR);
    }
    let [t0, t1] = tiles;
    let (o0, o1) = (t0.as_mut_ptr(), t1.as_mut_ptr());
    _mm512_storeu_ps(o0, c00);
    _mm512_storeu_ps(o1, c01);
    _mm512_storeu_ps(o0.add(NR), c10);
    _mm512_storeu_ps(o1.add(NR), c11);
    _mm512_storeu_ps(o0.add(2 * NR), c20);
    _mm512_storeu_ps(o1.add(2 * NR), c21);
    _mm512_storeu_ps(o0.add(3 * NR), c30);
    _mm512_storeu_ps(o1.add(3 * NR), c31);
}

/// One `MR`×`NR` tile of a panel with `jw` live columns on `tier`: the
/// half-width kernels when `jw ≤ NR/2`, whose other columns are not
/// written. The AVX-512 tier runs single panels on the AVX2 kernels.
#[inline]
fn run_kernel(tier: Tier, kc: usize, ap: &[f32], bp: &[f32], jw: usize, tile: &mut [f32; MR * NR]) {
    let half = jw <= NR / 2;
    #[cfg(target_arch = "x86_64")]
    {
        if tier != Tier::Portable {
            // SAFETY: `gemm_rows_on` checked that the CPU supports `tier`,
            // and both SIMD tiers include AVX2; the packed panels are at
            // least kc*MR / kc*NR long by construction.
            unsafe {
                if half {
                    kernel_avx2_half(kc, ap, bp, tile)
                } else {
                    kernel_avx2(kc, ap, bp, tile)
                }
            };
            return;
        }
    }
    let _ = tier;
    if half {
        kernel_portable::<{ NR / 2 }>(kc, ap, bp, tile);
    } else {
        kernel_portable::<NR>(kc, ap, bp, tile);
    }
}

/// Computes output rows `[row0, row0 + out.len() / n)` of the GEMM into
/// `out` (a row-major block of width `n`), reading A through `variant`'s
/// indexing and B through the shared packed panels. Workers of the
/// parallel path call this on disjoint row blocks; the serial path calls
/// it once with the full output.
pub fn gemm_rows(
    variant: Variant,
    a: &[f32],
    a_cols: usize,
    m: usize,
    pb: &PackedB,
    row0: usize,
    out: &mut [f32],
) {
    gemm_rows_on(tier(), variant, a, a_cols, m, pb, row0, out);
}

/// [`gemm_rows`] on an explicit `tier` instead of the dispatched one (for
/// comparing tiers within one process). On the AVX-512 tier, two
/// adjacent panels whose second has more than `NR/2` live columns run as
/// one 4×32 tile; a single panel, or a last one of at most `NR/2`
/// columns (the 16 + 8 split of a 24-wide product), keeps the AVX2
/// tiles.
///
/// # Panics
///
/// If this CPU does not support `tier`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_rows_on(
    tier: Tier,
    variant: Variant,
    a: &[f32],
    a_cols: usize,
    m: usize,
    pb: &PackedB,
    row0: usize,
    out: &mut [f32],
) {
    assert!(tier.supported(), "gemm_rows_on: no {} here", tier.name());
    let (kc, n) = (pb.kc, pb.n);
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    debug_assert_eq!(out.len(), rows * n);
    if kc == 0 {
        out.fill(0.0);
        return;
    }
    let mut ap = pool::take(kc * MR);
    ap.resize(kc * MR, 0.0);
    let mut tiles = [[0.0f32; MR * NR]; 2];
    let panels = pb.panels();
    let mut i = row0;
    while i < row0 + rows {
        let iw = MR.min(row0 + rows - i);
        // A panel must cover MR rows of the *global* matrix shape for
        // padding; rows beyond `m` are zeroed by pack_a.
        pack_a(variant, a, a_cols, kc, m, i, &mut ap);
        let mut p = 0;
        while p < panels {
            let pair = tier == Tier::Avx512 && p + 1 < panels && n - (p + 1) * NR > NR / 2;
            let width = if pair { 2 } else { 1 };
            if pair {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the CPU supports `tier` (checked above), which
                // includes AVX-512F; panels are kc*NR long by construction.
                unsafe {
                    kernel_avx512_pair(kc, &ap, [pb.panel(p), pb.panel(p + 1)], &mut tiles)
                };
            } else {
                run_kernel(
                    tier,
                    kc,
                    &ap,
                    pb.panel(p),
                    NR.min(n - p * NR),
                    &mut tiles[0],
                );
            }
            for (q, tile) in tiles[..width].iter().enumerate() {
                let j0 = (p + q) * NR;
                let jw = NR.min(n - j0);
                for r in 0..iw {
                    let dst = (i - row0 + r) * n + j0;
                    out[dst..dst + jw].copy_from_slice(&tile[r * NR..r * NR + jw]);
                }
            }
            p += width;
        }
        i += iw;
    }
    pool::put(ap);
}

// ---------------------------------------------------------------------------
// int8 inference kernels
// ---------------------------------------------------------------------------
//
// The quantized serving path (`crate::quant`) reduces every layer to dot
// products of i8 rows accumulated in i32. Integer accumulation is exact,
// so unlike the f32 kernels above there is no summation-order contract to
// defend: the portable loop and the AVX2 maddubs kernel are bit-identical
// for *any* association of the additions. Inputs must lie in [-127, 127]
// (the quantizers clamp to that range); -128 would break the abs/sign
// trick the AVX2 kernel uses to feed `maddubs`, which wants one unsigned
// operand.

/// i32 dot product of two i8 slices of equal length, values in
/// [-127, 127]. Dispatches to the AVX2 kernel under the same
/// [`simd_active`] / `HISRECT_SIMD=0` machinery as the f32 GEMM.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    debug_assert!(a.iter().chain(b).all(|&v| v != i8::MIN));
    #[cfg(target_arch = "x86_64")]
    {
        // Below one 32-lane step the AVX2 kernel is all setup and
        // horizontal-sum; the scalar loop wins outright. Same exact
        // integer result either way, so dispatch stays invisible.
        if a.len() >= 32 && simd_active() {
            // SAFETY: simd_active() is true only after AVX2 detection,
            // and both slices were just checked to be the same length.
            return unsafe { dot_i8_avx2(a, b) };
        }
    }
    dot_i8_portable(a, b)
}

fn dot_i8_portable(a: &[i8], b: &[i8]) -> i32 {
    // Fixed-width inner blocks so the autovectorizer emits packed
    // widening multiplies; integer accumulation is associative, so any
    // grouping returns the identical i32.
    let mut acc = 0i32;
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
        let mut s = 0i32;
        for k in 0..8 {
            s += i32::from(pa[k]) * i32::from(pb[k]);
        }
        acc += s;
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// AVX2 kernel: 32 byte-lanes per step. `maddubs` multiplies u8×i8 into
/// pairwise-summed i16, so the signed `a` operand is split into
/// `|a| * sign(b, a)` — the product is unchanged and `|a| ≤ 127` keeps
/// each pair sum at ≤ 2·127·127 = 32258 < i16::MAX, i.e. the saturating
/// instruction never actually saturates. `madd` with ones then widens to
/// i32 where all further accumulation is exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 32 <= n {
        let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
        let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
        let abs_a = _mm256_abs_epi8(va);
        let sb = _mm256_sign_epi8(vb, va);
        let pairs = _mm256_maddubs_epi16(abs_a, sb);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
        i += 32;
    }
    let lo = _mm256_castsi256_si128(acc);
    let hi = _mm256_extracti128_si256(acc, 1);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
    let s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
    let mut sum = _mm_cvtsi128_si32(s);
    while i < n {
        sum += i32::from(*a.get_unchecked(i)) * i32::from(*b.get_unchecked(i));
        i += 1;
    }
    sum
}

/// Depth of one i8 k-block: one 32-lane `maddubs` step. [`gemm_i8_nt`]
/// reads its operands a whole block at a time, so their rows are
/// zero-padded to a multiple of it (zeros add nothing to an exact sum).
pub const I8_K_BLOCK: usize = 32;

/// Output channels [`gemm_i8_nt`] computes per pass over a row: each
/// k-block of the row is loaded once and multiplied into four channels.
pub const I8_N_BLOCK: usize = 4;

/// Blocked i8 GEMM: `out[i*n + j] = Σ_k a[i*k + k'] · b[j*k + k']`, with
/// `a` stored `m`×`k` and `b` stored `n`×`k` (nt layout — how
/// [`crate::quant::QuantMatrix`] stores weights, one output channel per
/// row), values in [-127, 127]. `k` must be a multiple of [`I8_K_BLOCK`]
/// and `n` of [`I8_N_BLOCK`]: callers zero-pad both operands once, so the
/// kernel has no scalar tail. Each row takes four channels per pass over
/// its k-blocks and reduces the four accumulators together, one
/// horizontal sum per four channels instead of one per channel. Integer
/// sums are exact, so every tier returns the [`dot_i8`] of each pair.
pub fn gemm_i8_nt(a: &[i8], b: &[i8], k: usize, m: usize, n: usize, out: &mut [i32]) {
    assert_eq!(
        k % I8_K_BLOCK,
        0,
        "gemm_i8_nt: depth {k} is not whole k-blocks"
    );
    assert_eq!(
        n % I8_N_BLOCK,
        0,
        "gemm_i8_nt: {n} channels are not whole blocks"
    );
    assert_eq!(a.len(), m * k, "gemm_i8_nt: a shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_i8_nt: b shape mismatch");
    assert_eq!(out.len(), m * n, "gemm_i8_nt: out shape mismatch");
    debug_assert!(a.iter().chain(b).all(|&v| v != i8::MIN));
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: simd_active() is true only after AVX2 detection, and
            // the shapes were just checked: every 32-byte load below lies
            // inside `a` or `b`, every 16-byte store inside `out`.
            unsafe { gemm_i8_nt_avx2(a, b, k, m, n, out) };
            return;
        }
    }
    gemm_i8_nt_portable(a, b, k, m, n, out);
}

fn gemm_i8_nt_portable(a: &[i8], b: &[i8], k: usize, m: usize, n: usize, out: &mut [i32]) {
    for (ar, or) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)).take(m) {
        for (bs, os) in b
            .chunks_exact(I8_N_BLOCK * k)
            .zip(or.chunks_exact_mut(I8_N_BLOCK))
        {
            let mut acc = [0i32; I8_N_BLOCK];
            for (kb, ab) in ar.chunks_exact(I8_K_BLOCK).enumerate() {
                for (c, acc) in acc.iter_mut().enumerate() {
                    let bb = &bs[c * k + kb * I8_K_BLOCK..][..I8_K_BLOCK];
                    // Fixed-width block: the autovectorizer emits packed
                    // widening multiplies.
                    let mut s = 0i32;
                    for t in 0..I8_K_BLOCK {
                        s += i32::from(ab[t]) * i32::from(bb[t]);
                    }
                    *acc += s;
                }
            }
            os.copy_from_slice(&acc);
        }
    }
}

/// AVX2 transcription of [`gemm_i8_nt_portable`]: per k-block one load of
/// `a` and its `|a|`, then the [`dot_i8_avx2`] step (`maddubs` on
/// `|a| · sign(b, a)`, `madd` with ones) into one accumulator per
/// channel; three `hadd`s and one cross-lane add reduce the four
/// accumulators into the four outputs at once.
///
/// # Safety
///
/// The CPU must support AVX2, and the shapes must be those
/// [`gemm_i8_nt`] asserts: `a` holds `m·k` and `b` `n·k` codes, `out`
/// `m·n` sums, `k` a multiple of [`I8_K_BLOCK`] and `n` of [`I8_N_BLOCK`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_i8_nt_avx2(a: &[i8], b: &[i8], k: usize, m: usize, n: usize, out: &mut [i32]) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(1);
    for i in 0..m {
        let ar = a.as_ptr().add(i * k);
        let mut j = 0;
        while j < n {
            let br = b.as_ptr().add(j * k);
            let mut acc = [_mm256_setzero_si256(); I8_N_BLOCK];
            let mut kk = 0;
            while kk < k {
                let va = _mm256_loadu_si256(ar.add(kk).cast());
                let abs_a = _mm256_abs_epi8(va);
                for (c, acc) in acc.iter_mut().enumerate() {
                    let vb = _mm256_loadu_si256(br.add(c * k + kk).cast());
                    let pairs = _mm256_maddubs_epi16(abs_a, _mm256_sign_epi8(vb, va));
                    *acc = _mm256_add_epi32(*acc, _mm256_madd_epi16(pairs, ones));
                }
                kk += I8_K_BLOCK;
            }
            // Per 128-bit half: [Σc0, Σc1, Σc2, Σc3]; then add the halves.
            let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let s = _mm256_hadd_epi32(s01, s23);
            let sum = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
            _mm_storeu_si128(out.as_mut_ptr().add(i * n + j).cast(), sum);
            j += I8_N_BLOCK;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn ramp(len: usize) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32) - 11.0).collect()
    }

    /// Detection picks a tier this CPU has: the widest one, unless
    /// `HISRECT_SIMD=0` asks for the portable tier. It prints the tier
    /// (`--nocapture`), which is how CI logs the tier a job ran on.
    /// `detect_tier` is the uncached detection, so tests that flip the
    /// process-global dispatch cannot race it.
    #[test]
    fn detection_picks_the_widest_supported_tier() {
        let tier = detect_tier();
        eprintln!("simd tier: {}", tier.name());
        assert!(tier.supported());
        let off =
            std::env::var("HISRECT_SIMD").is_ok_and(|v| matches!(v.trim(), "0" | "false" | "off"));
        let widest = Tier::ALL.into_iter().rev().find(|t| t.supported());
        assert_eq!(Some(tier), if off { Some(Tier::Portable) } else { widest });
        for t in Tier::ALL {
            if !t.supported() {
                eprintln!("skipped: {} not available", t.name());
            }
        }
    }

    #[test]
    fn packed_nn_matches_naive_on_odd_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 16, 16), (5, 17, 33), (9, 2, 16)] {
            let a = ramp(m * k);
            let b = ramp(k * n);
            let pb = pack_b(Variant::Nn, &b, n, k, n);
            let mut out = vec![0.0; m * n];
            gemm_rows(Variant::Nn, &a, k, m, &pb, 0, &mut out);
            assert_eq!(out, naive(m, k, n, &a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn every_tier_matches_naive_on_model_shapes() {
        // The step product, the conv's three products, and widths on each
        // side of the AVX-512 pairing rule (a second panel of 8 or 9
        // live columns).
        let shapes = [
            (24, 24, 96),
            (130, 144, 24),
            (130, 24, 144),
            (7, 9, 40),
            (6, 5, 41),
        ];
        for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
            for &(m, k, n) in &shapes {
                let (a, b) = (ramp(m * k), ramp(k * n));
                let pb = pack_b(Variant::Nn, &b, n, k, n);
                let mut out = vec![0.0; m * n];
                gemm_rows_on(tier, Variant::Nn, &a, k, m, &pb, 0, &mut out);
                assert_eq!(out, naive(m, k, n, &a, &b), "{} {m}x{k}x{n}", tier.name());
            }
        }
    }

    #[test]
    fn row_blocks_compose_to_the_full_product() {
        let (m, k, n) = (11, 13, 19);
        let a = ramp(m * k);
        let b = ramp(k * n);
        let pb = pack_b(Variant::Nn, &b, n, k, n);
        let mut whole = vec![0.0; m * n];
        gemm_rows(Variant::Nn, &a, k, m, &pb, 0, &mut whole);
        let mut split = vec![0.0; m * n];
        let (top, bottom) = split.split_at_mut(6 * n);
        gemm_rows(Variant::Nn, &a, k, m, &pb, 0, top);
        gemm_rows(Variant::Nn, &a, k, m, &pb, 6, bottom);
        assert_eq!(split, whole);
    }

    #[test]
    fn zero_depth_yields_zero_output() {
        let pb = pack_b(Variant::Nn, &[], 0, 0, 5);
        let mut out = vec![1.0; 2 * 5];
        gemm_rows(Variant::Nn, &[], 0, 2, &pb, 0, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    fn ramp_i8(len: usize, salt: usize) -> Vec<i8> {
        (0..len)
            .map(|i| ((i * 31 + salt * 17) % 255) as i32 - 127)
            .map(|v| v as i8)
            .collect()
    }

    #[test]
    fn dot_i8_matches_scalar_reference_across_lengths() {
        // Lengths straddle the 32-lane AVX2 stride, including the pure
        // tail (< 32) and stride+tail cases.
        for &len in &[0usize, 1, 7, 31, 32, 33, 64, 95, 257] {
            let a = ramp_i8(len, 1);
            let b = ramp_i8(len, 2);
            let expect: i32 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| i32::from(x) * i32::from(y))
                .sum();
            assert_eq!(dot_i8(&a, &b), expect, "len {len}");
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_saturate() {
        // All-(-127) × all-127 over a long vector is the worst case for
        // the maddubs pair sums; the i32 accumulate must carry it exactly.
        let a = vec![-127i8; 300];
        let b = vec![127i8; 300];
        assert_eq!(dot_i8(&a, &b), -127 * 127 * 300);
    }

    #[test]
    fn gemm_i8_nt_matches_per_row_dots() {
        // Three k-blocks and two channel blocks, on both tiers.
        let (m, k, n) = (3, 3 * I8_K_BLOCK, 2 * I8_N_BLOCK);
        let a = ramp_i8(m * k, 3);
        let b = ramp_i8(n * k, 4);
        for portable in [true, false] {
            force_portable(Some(portable));
            let mut out = vec![0i32; m * n];
            gemm_i8_nt(&a, &b, k, m, n, &mut out);
            force_portable(None);
            for i in 0..m {
                for j in 0..n {
                    let expect = dot_i8(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(out[i * n + j], expect, "({i},{j}), portable {portable}");
                }
            }
        }
    }
}
