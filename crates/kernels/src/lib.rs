//! # sparseflex-kernels
//!
//! Software reference implementations of the tensor-algebra kernels the
//! paper's accelerator targets (Fig. 2), redesigned around **format-generic
//! fiber streams**: each sparse kernel's entry point takes an operand in
//! *any* of the paper's compression formats and consumes it through the
//! `sparseflex_formats::traverse` streaming traversal — no
//! pre-conversion to a blessed format. Variants sit beside some entry
//! points: `_parallel` (the same body over partition ranges), `_with`
//! (SpGEMM with a chosen dataflow) and `_via_stream` (the stream body
//! without the fast-path dispatch, the reference the fast paths are
//! timed and checked against).
//!
//! - **GEMM** — dense matrix × dense matrix ([`mod@gemm`]).
//! - **SpMV** — any-format matrix × dense vector ([`spmv()`]).
//! - **SpMM** — any row-major stream × dense matrix ([`spmm()`],
//!   [`spmm_parallel()`]), or dense × any-format stationary operand
//!   ([`spmm_sparse_b()`], Fig. 6b's layout).
//! - **SpGEMM** — any-format × any-format ([`spgemm()`],
//!   [`spgemm_parallel()`]), with a selectable dataflow
//!   ([`SpgemmAlgo`], via [`spgemm_with()`]): Gustavson's
//!   dense-accumulator row algorithm or the row-wise k-way merge product;
//!   both emit bit-for-bit identical CSR.
//! - **SpTTM** — any-format tensor × dense matrix ([`spttm()`],
//!   [`spttm_parallel()`]).
//! - **MTTKRP** — any-format tensor Khatri-Rao product ([`mttkrp()`],
//!   [`mttkrp_parallel()`]).
//! - **im2col** — convolution → GEMM rearrangement used by the ResNet case
//!   study ([`mod@im2col`]).
//!
//! Each stream kernel has one body, written over a row or fiber range: the
//! sequential entry point runs it once over the whole extent and the
//! `_parallel` entry point once per partition range, through the one
//! [`parallel::fan_out`]. Three tuned fast paths remain behind the
//! dispatching entry points: CSR SpMV, CSC-stationary SpMM and COO MTTKRP.
//! Shape mismatches surface as [`KernelError`] values rather than panics.
//!
//! These kernels are used three ways across the workspace: as the
//! functional oracle for the accelerator simulator, as the measured
//! software baseline standing in for cuBLAS/cuSPARSE/MKL (Fig. 5 and
//! Fig. 10), and inside the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dispatch;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod lanes;
pub mod mttkrp;
pub mod parallel;
pub mod spgemm;
pub mod spmm;
pub mod spmv;

pub use dispatch::{
    csr_from_stream_parallel, mttkrp, mttkrp_parallel, mttkrp_via_stream, spgemm, spgemm_parallel,
    spgemm_parallel_with, spgemm_with, spmm, spmm_parallel, spmm_sparse_b, spmm_via_stream, spmv,
    spmv_via_stream, spttm, spttm_parallel, SpgemmAlgo,
};
pub use error::KernelError;
pub use gemm::{gemm, gemm_parallel};
pub use im2col::{im2col, ConvLayer};
