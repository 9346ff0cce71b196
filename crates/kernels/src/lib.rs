//! # sparseflex-kernels
//!
//! Software reference implementations of the tensor-algebra kernels the
//! paper's accelerator targets (Fig. 2), redesigned around **format-generic
//! fiber streams**: each sparse kernel has one public entry point that
//! takes a [`MatrixData`](sparseflex_formats::MatrixData) /
//! [`TensorData`](sparseflex_formats::TensorData) operand in *any* of the
//! paper's compression formats and consumes it through the
//! `sparseflex_formats::traverse` streaming traversal — no pre-conversion
//! to a blessed format.
//!
//! - **GEMM** — dense matrix × dense matrix ([`mod@gemm`]).
//! - **SpMV** — any-format matrix × dense vector ([`spmv()`]).
//! - **SpMM** — any-format matrix × dense matrix ([`spmm()`],
//!   [`spmm_parallel()`]), or dense × any-format stationary operand
//!   ([`spmm_sparse_b()`], Fig. 6b's layout).
//! - **SpGEMM** — any-format × any-format ([`spgemm()`],
//!   [`spgemm_parallel()`]), with a selectable dataflow
//!   ([`SpgemmAlgo`]): Gustavson's dense-accumulator row algorithm or the
//!   row-wise k-way merge product ([`spgemm_rowwise()`]); both emit
//!   bit-for-bit identical CSR.
//! - **SpTTM** — any-format tensor × dense matrix ([`spttm()`]).
//! - **MTTKRP** — any-format tensor Khatri-Rao product ([`mttkrp()`]).
//! - **im2col** — convolution → GEMM rearrangement used by the ResNet case
//!   study ([`mod@im2col`]).
//!
//! Dispatch retains the tuned concrete implementations (CSR row loops,
//! COO Algorithm 1, CSF fiber kernels, CSC-stationary SpMM) as
//! specializations behind the generic entry points; formats without a
//! dedicated path stream through the same accumulation and produce
//! identical results. Shape mismatches surface as [`KernelError`] values
//! rather than panics. (The transitional per-format function zoo —
//! `spmm_csr_dense`, `mttkrp_coo`, ... — kept one release as
//! `#[deprecated]` shims has been removed; call the dispatch entry
//! points.)
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
pub mod spttm;

pub use dispatch::{
    csr_from_stream_parallel, mttkrp, mttkrp_parallel, mttkrp_via_stream, mttkrp_via_stream_in,
    spgemm, spgemm_parallel, spgemm_parallel_with, spgemm_rowwise, spgemm_with, spmm,
    spmm_from_stream, spmm_from_stream_in, spmm_parallel, spmm_parallel_in, spmm_sparse_b,
    spmm_via_stream, spmm_via_stream_in, spmv, spmv_via_stream, spmv_via_stream_in, spttm,
    spttm_parallel, spttm_via_stream, spttm_via_stream_in, SpgemmAlgo,
};
pub use error::KernelError;
pub use gemm::{gemm, gemm_parallel};
pub use im2col::{im2col, ConvLayer};
