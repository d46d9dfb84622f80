#![warn(missing_docs)]

//! Dense row-major `f32` matrices.
//!
//! This is the storage layer under the `nn` autograd crate. Everything in
//! the paper's models — fully-connected stacks, (Bi)LSTM gates, the 3×N
//! convolution of BiLSTM-C, skip-gram embeddings — reduces to 2-D dense
//! algebra, so a single [`Matrix`] type with explicit-transpose matmuls is
//! all the tensor machinery the reproduction needs.

pub mod act;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod pool;
pub mod quant;

pub use gemm::{force_portable, simd_active, simd_tier};
pub use init::{glorot_uniform, randn, uniform};
pub use matrix::{
    flush_dispatch_stats, matmul_into, matmul_naive_into, Matrix, PACK_THRESHOLD, PAR_THRESHOLD,
};
pub use quant::{qmatmul, qmatmul_into, quantize_row, QuantMatrix};
