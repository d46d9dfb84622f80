//! The [`Matrix`] type and its dense-algebra operations.
//!
//! All matmul variants produce every output element as one ascending-k
//! accumulation chain with separate multiply and add roundings, so the
//! naive small-product kernels, the packed serial path, the packed
//! parallel path and the scalar/SIMD builds of the micro-kernel are all
//! bit-identical (see `crate::gemm` for the full contract). Dispatch is
//! three-tier by multiply-add count: products below [`PACK_THRESHOLD`]
//! use the simple kernels (packing overhead dominates there — think the
//! `1×H` steps inside an LSTM), products below [`PAR_THRESHOLD`] use the
//! packed kernels on the calling thread, and larger products fan out
//! across [`parallel::num_threads`] row blocks over a shared packed B.
//!
//! Matrix storage is drawn from the thread-local [`crate::pool`] and
//! returned on drop, so iteration-steady workloads stop allocating.

use crate::act;
use crate::gemm::{self, Variant};
use crate::pool;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt;
use std::ops::Range;

/// Minimum multiply-add count before a matmul fans out across threads.
/// A scoped-thread fan-out costs tens of microseconds, which is what a
/// 2¹⁹-madd product takes serially on one core; below that the product
/// finishes on the calling thread before the workers would have started.
/// It also bounds the worker count ([`parallel::clamp_workers`]): each
/// worker gets at least this many multiply-adds.
pub const PAR_THRESHOLD: usize = 1 << 19;

/// Minimum multiply-add count before a matmul takes the packed
/// micro-kernel path. Below 2¹⁴ the pack/unpack traffic costs more than
/// the register-blocked kernel saves — the `1×input @ input×4·hidden`
/// products inside an LSTM step (a few thousand madds at the paper's
/// sizes) are the canonical case that must stay on the simple kernels.
/// Both tiers are bit-identical, so this boundary moves speed only.
pub const PACK_THRESHOLD: usize = 1 << 14;

/// Dispatch decisions accumulated per flush batch (see
/// [`flush_dispatch_stats`]).
const DISPATCH_FLUSH_EVERY: u64 = 256;

thread_local! {
    /// `(serial, parallel)` matmul dispatch decisions not yet published
    /// to the obs counters.
    static DISPATCH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Publishes this thread's batched `tensor/matmul_serial` /
/// `tensor/matmul_parallel` dispatch counts to obs. Training loops call
/// this at phase boundaries; between calls, counts are flushed
/// automatically every [`DISPATCH_FLUSH_EVERY`] decisions.
pub fn flush_dispatch_stats() {
    DISPATCH.with(|d| {
        let (serial, fanned) = d.replace((0, 0));
        if serial > 0 {
            obs::add("tensor/matmul_serial", serial);
        }
        if fanned > 0 {
            obs::add("tensor/matmul_parallel", fanned);
        }
    });
}

/// k-block width for the cache-blocked `matmul` kernel: one block of B
/// rows (64 × cols floats) stays resident while every output row
/// consumes it. Blocks are visited in ascending order, so per-element
/// accumulation order matches the unblocked loop.
const K_BLOCK: usize = 64;

/// The simple-kernel tier of `a @ b` on row-major slices, writing into
/// `out` with no allocation: `out[i·n + j] = Σ_k a[i·a_stride + k] ·
/// b[k·n + j]` for `out.len() / n` rows, each element one ascending-k
/// chain from `0.0` with separate multiply and add — bit-identical to
/// [`Matrix::matmul`] on every tier. No zero-skipping: every k-step
/// contributes, matching the packed kernels exactly.
///
/// `a_stride` is the distance between consecutive rows of `a` and may be
/// smaller than `k`: overlapping rows are the windows of a stride-1
/// convolution over a contiguous sequence, no `im2col` copy needed.
pub fn matmul_naive_into(
    a: &[f32],
    a_stride: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    if n == 0 {
        return;
    }
    assert_eq!(b.len(), k * n, "matmul_naive_into: b shape mismatch");
    for kb in (0..k).step_by(K_BLOCK) {
        let k_end = (kb + K_BLOCK).min(k);
        for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[i * a_stride..i * a_stride + k];
            for kk in kb..k_end {
                let av = a_row[kk];
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `a @ b` on row-major slices into `out`, through the same tiers as
/// [`Matrix::matmul`] (simple kernel, packed serial, packed parallel) and
/// bit-identical to it. See [`matmul_naive_into`] for the argument layout.
pub fn matmul_into(a: &[f32], a_stride: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    let work = m * k * n;
    if work < PACK_THRESHOLD {
        return matmul_naive_into(a, a_stride, k, b, n, out);
    }
    assert_eq!(b.len(), k * n, "matmul_into: b shape mismatch");
    let pb = gemm::pack_b(Variant::Nn, b, n, k, n);
    if Matrix::go_parallel(work) {
        let threads = parallel::clamp_workers(work, PAR_THRESHOLD);
        parallel::scope_partition_mut_with(threads, out, n, m, |rows, block| {
            gemm::gemm_rows(Variant::Nn, a, a_stride, m, &pb, rows.start, block);
        });
    } else {
        gemm::gemm_rows(Variant::Nn, a, a_stride, m, &pb, 0, out);
    }
}

/// `matmul_tn` kernel for output rows `rows` (a block of `aᵀ @ b`;
/// output rows index `a`'s columns). The k loop stays outermost so both
/// input rows stream contiguously; every worker reads all of `a` and
/// `b` but writes only its own block.
fn mm_tn_block(a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    let n = b.cols;
    for k in 0..a.rows {
        let a_row = &a.data[k * a.cols..(k + 1) * a.cols];
        let b_row = &b.data[k * n..(k + 1) * n];
        for i in rows.clone() {
            let av = a_row[i];
            let out_row = &mut out[(i - rows.start) * n..(i - rows.start + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `matmul_nt` kernel for output rows `rows` (a block of `a @ bᵀ`).
/// Every output element is an independent row-dot-row product.
fn mm_nt_block(a: &Matrix, b: &Matrix, rows: Range<usize>, out: &mut [f32]) {
    for i in rows.clone() {
        let a_row = &a.data[i * a.cols..(i + 1) * a.cols];
        let out_row = &mut out[(i - rows.start) * b.rows..(i - rows.start + 1) * b.rows];
        for (j, slot) in out_row.iter_mut().enumerate() {
            let b_row = &b.data[j * b.cols..(j + 1) * b.cols];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                acc += x * y;
            }
            *slot = acc;
        }
    }
}

/// A dense row-major matrix of `f32`.
///
/// Shapes are validated with assertions: shape bugs in a training loop are
/// programmer errors, not recoverable conditions, and the matrices involved
/// are created on hot paths where `Result` plumbing would add noise.
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Storage comes from and returns to the thread-local [`pool`], so
/// `clone` is a pooled buffer plus a memcpy, not an allocation.
impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = pool::take(self.data.len());
        data.extend_from_slice(&self.data);
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        pool::put(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = pool::take(rows * cols);
        data.resize(rows * cols, value);
        Self { rows, cols, data }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Builds element-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = pool::take(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        let mut data = pool::take(values.len());
        data.extend_from_slice(values);
        Self::from_vec(1, values.len(), data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn assert_mm(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    fn assert_mm_tn(&self, other: &Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    fn assert_mm_nt(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// True when a product of `madds` multiply-adds should fan out.
    /// Decisions are counted under `tensor/matmul_parallel` /
    /// `tensor/matmul_serial` when metrics are on, batched in a
    /// thread-local pair and flushed every [`DISPATCH_FLUSH_EVERY`]
    /// decisions (plus explicitly at phase boundaries via
    /// [`flush_dispatch_stats`]) so the hot path never takes the obs
    /// lock per matmul.
    fn go_parallel(madds: usize) -> bool {
        let par = madds >= PAR_THRESHOLD && parallel::num_threads() > 1;
        if obs::enabled() {
            DISPATCH.with(|d| {
                let (mut serial, mut fanned) = d.get();
                if par {
                    fanned += 1;
                } else {
                    serial += 1;
                }
                if serial + fanned >= DISPATCH_FLUSH_EVERY {
                    obs::add("tensor/matmul_serial", serial);
                    obs::add("tensor/matmul_parallel", fanned);
                    d.set((0, 0));
                } else {
                    d.set((serial, fanned));
                }
            });
        }
        par
    }

    /// Output shape and GEMM dimensions `(m, kc, n)` of `self ⋆ other`
    /// under `variant`.
    fn mm_dims(&self, variant: Variant, other: &Matrix) -> (usize, usize, usize) {
        match variant {
            Variant::Nn => (self.rows, self.cols, other.cols),
            Variant::Tn => (self.cols, self.rows, other.cols),
            Variant::Nt => (self.rows, self.cols, other.rows),
        }
    }

    fn assert_variant(&self, variant: Variant, other: &Matrix) {
        match variant {
            Variant::Nn => self.assert_mm(other),
            Variant::Tn => self.assert_mm_tn(other),
            Variant::Nt => self.assert_mm_nt(other),
        }
    }

    /// Serial product under `variant`: naive kernels below
    /// [`PACK_THRESHOLD`], the packed micro-kernel path above it. Both
    /// tiers are bit-identical.
    fn mm_serial(&self, variant: Variant, other: &Matrix) -> Matrix {
        self.assert_variant(variant, other);
        let (m, kc, n) = self.mm_dims(variant, other);
        let mut out = Matrix::zeros(m, n);
        if m * kc * n < PACK_THRESHOLD {
            match variant {
                Variant::Nn => matmul_naive_into(&self.data, kc, kc, &other.data, n, &mut out.data),
                Variant::Tn => mm_tn_block(self, other, 0..m, &mut out.data),
                Variant::Nt => mm_nt_block(self, other, 0..m, &mut out.data),
            }
        } else {
            let pb = gemm::pack_b(variant, &other.data, other.cols, kc, n);
            gemm::gemm_rows(variant, &self.data, self.cols, m, &pb, 0, &mut out.data);
        }
        out
    }

    /// Parallel product under `variant`: B is packed once on the calling
    /// thread and shared read-only; each worker packs its own A panels
    /// and writes a disjoint block of output rows, so every element is
    /// still one ascending-k chain computed by exactly one worker.
    fn mm_parallel(&self, variant: Variant, other: &Matrix, threads: usize) -> Matrix {
        self.assert_variant(variant, other);
        let (m, kc, n) = self.mm_dims(variant, other);
        let mut out = Matrix::zeros(m, n);
        let pb = gemm::pack_b(variant, &other.data, other.cols, kc, n);
        parallel::scope_partition_mut_with(threads, &mut out.data, n, m, |rows, block| {
            gemm::gemm_rows(variant, &self.data, self.cols, m, &pb, rows.start, block);
        });
        out
    }

    /// Auto-dispatched product under `variant`: serial below
    /// [`PAR_THRESHOLD`], otherwise fanned out over a worker count
    /// clamped so each worker gets at least a threshold's worth of
    /// multiply-adds.
    fn mm_auto(&self, variant: Variant, other: &Matrix) -> Matrix {
        let (m, kc, n) = self.mm_dims(variant, other);
        let work = m * kc * n;
        if Self::go_parallel(work) {
            let threads = parallel::clamp_workers(work, PAR_THRESHOLD);
            self.mm_parallel(variant, other, threads)
        } else {
            self.mm_serial(variant, other)
        }
    }

    /// `self @ other` — standard matrix product.
    ///
    /// Dispatches to the parallel path when the work is at least
    /// [`PAR_THRESHOLD`] and more than one worker is configured; all
    /// paths produce bit-identical results.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.mm_auto(Variant::Nn, other)
    }

    /// `self @ other` on the calling thread only.
    pub fn matmul_serial(&self, other: &Matrix) -> Matrix {
        self.mm_serial(Variant::Nn, other)
    }

    /// `self @ other` partitioned over [`parallel::num_threads`]
    /// workers regardless of size.
    pub fn matmul_parallel(&self, other: &Matrix) -> Matrix {
        self.matmul_parallel_with(other, parallel::num_threads())
    }

    /// `self @ other` partitioned over an explicit worker count.
    pub fn matmul_parallel_with(&self, other: &Matrix, threads: usize) -> Matrix {
        self.mm_parallel(Variant::Nn, other, threads)
    }

    /// `selfᵀ @ other` without materializing the transpose.
    ///
    /// Same dispatch rule as [`Matrix::matmul`]; bit-identical across
    /// thread counts.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        self.mm_auto(Variant::Tn, other)
    }

    /// `selfᵀ @ other` on the calling thread only.
    pub fn matmul_tn_serial(&self, other: &Matrix) -> Matrix {
        self.mm_serial(Variant::Tn, other)
    }

    /// `selfᵀ @ other` partitioned over [`parallel::num_threads`]
    /// workers regardless of size.
    pub fn matmul_tn_parallel(&self, other: &Matrix) -> Matrix {
        self.matmul_tn_parallel_with(other, parallel::num_threads())
    }

    /// `selfᵀ @ other` partitioned over an explicit worker count.
    pub fn matmul_tn_parallel_with(&self, other: &Matrix, threads: usize) -> Matrix {
        self.mm_parallel(Variant::Tn, other, threads)
    }

    /// `self @ otherᵀ` without materializing the transpose — the packed
    /// path repacks `other` k-major once, so this no longer pays a
    /// strided-access penalty over plain [`Matrix::matmul`].
    ///
    /// Same dispatch rule as [`Matrix::matmul`]; bit-identical across
    /// thread counts.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.mm_auto(Variant::Nt, other)
    }

    /// `self @ otherᵀ` on the calling thread only.
    pub fn matmul_nt_serial(&self, other: &Matrix) -> Matrix {
        self.mm_serial(Variant::Nt, other)
    }

    /// `self @ otherᵀ` partitioned over [`parallel::num_threads`]
    /// workers regardless of size.
    pub fn matmul_nt_parallel(&self, other: &Matrix) -> Matrix {
        self.matmul_nt_parallel_with(other, parallel::num_threads())
    }

    /// `self @ otherᵀ` partitioned over an explicit worker count.
    pub fn matmul_nt_parallel_with(&self, other: &Matrix, threads: usize) -> Matrix {
        self.mm_parallel(Variant::Nt, other, threads)
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op} shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.assert_same_shape(other, "hadamard");
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place element-wise accumulate: `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaled accumulate: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place scalar multiply.
    pub fn scale_mut(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// New matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = pool::take(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// New matrix with `f` applied pairwise (shapes must match).
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        let mut data = pool::take(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise logistic sigmoid `1 / (1 + e^{-x})` through
    /// [`act::sigmoid`] — the one definition the tape and the tape-free
    /// inference kernels share.
    pub fn sigmoid(&self) -> Matrix {
        let mut out = self.clone();
        act::sigmoid(&mut out.data);
        out
    }

    /// Element-wise hyperbolic tangent through [`act::tanh`].
    pub fn tanh(&self) -> Matrix {
        let mut out = self.clone();
        act::tanh(&mut out.data);
        out
    }

    /// Element-wise rectifier `max(x, 0)`.
    pub fn relu(&self) -> Matrix {
        self.map(|x| x.max(0.0))
    }

    /// Row-wise numerically-stable softmax: per row, subtract the row
    /// max, exponentiate, then normalize by the ascending-order sum of
    /// exponentials — one fused pass, the exact operation order the
    /// softmax cross-entropy loss uses.
    pub fn softmax_rows(&self) -> Matrix {
        let mut data = pool::take(self.data.len());
        for r in 0..self.rows {
            let row = self.row(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let base = data.len();
            let mut denom = 0.0f32;
            for &v in row {
                let e = (v - max).exp();
                denom += e;
                data.push(e);
            }
            for p in &mut data[base..] {
                *p /= denom;
            }
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]` (same row count).
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertical concatenation (same column count).
    pub fn concat_rows(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "concat_rows col mismatch");
        let mut data = pool::take(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (zero for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius / ℓ2 norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute element (zero for empty matrices).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Dot product treating both matrices as flat vectors.
    pub fn dot(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "dot");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// True when every element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![3.0, -1.0, 2.0, 5.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn transposed_matmuls_match_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let tn = a.matmul_tn(&b);
        assert!(tn.approx_eq(&a.transpose().matmul(&b), 1e-5));
        let c = Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.25);
        let nt = a.matmul_nt(&c);
        assert!(nt.approx_eq(&a.matmul(&c.transpose()), 1e-5));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f32);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let b = Matrix::from_vec(1, 2, vec![2.0, 3.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[4.0, 5.5]);
    }

    #[test]
    fn broadcast_bias() {
        let x = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.as_slice(), &[10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn concatenation() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let h = a.concat_cols(&b);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.as_slice(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        let v = a.concat_rows(&Matrix::from_vec(1, 1, vec![9.0]));
        assert_eq!(v.shape(), (3, 1));
        assert_eq!(v.as_slice(), &[1.0, 2.0, 9.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max_abs(), 4.0);
        assert!((a.l2_norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
