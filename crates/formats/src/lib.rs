//! # sparseflex-formats
//!
//! Compression formats for sparse matrices and 3-D tensors, the software
//! reference conversions between them, and the storage-size (compactness)
//! model used throughout the `sparseflex` workspace.
//!
//! This crate implements every format discussed in Fig. 3 of
//! *"Extending Sparse Tensor Accelerators to Support Multiple Compression
//! Formats"* (IPDPS 2021):
//!
//! **Matrix formats** (all hold an `rows x cols` logical matrix):
//! - [`DenseMatrix`] — uncompressed row-major storage.
//! - [`CooMatrix`] — coordinate list `(row_id, col_id, value)`.
//! - [`CsrMatrix`] — compressed sparse row.
//! - [`CscMatrix`] — compressed sparse column.
//! - [`BsrMatrix`] — block compressed row (CSR over dense blocks).
//! - [`DiaMatrix`] — diagonal storage.
//! - [`EllMatrix`] — ELLPACK (padded rows; listed as future work in the
//!   paper's performance model, implemented here as an extension).
//! - [`RlcMatrix`] — run-length coding (zero-run, value) pairs.
//! - [`ZvcMatrix`] — zero-value compression (bitmask + packed nonzeros).
//!
//! **3-D tensor formats**:
//! - [`DenseTensor3`], [`CooTensor3`], [`CsfTensor`] (compressed sparse
//!   fiber), [`HiCooTensor`] (hierarchical COO), [`RlcTensor3`],
//!   [`ZvcTensor3`].
//!
//! The flat tensor layouts (Dense, RLC and ZVC) encode the `x -> y -> z`
//! flattened stream (Fig. 3b), which is the row-major stream of the
//! `(dim_x·dim_y) × dim_z` matrix whose row `x·dim_y + y` is fiber
//! `(x, y)`. Each stores that [`DenseMatrix`], [`RlcMatrix`] or
//! [`ZvcMatrix`], and walks, partitions and sizes it as that matrix.
//!
//! The [`size_model`] module reproduces the paper's §III-A compactness
//! analysis: each metadata field is charged `ceil(log2(max_value + 1))`
//! bits, and each stored element is charged the bit-width of the
//! [`DataType`].
//!
//! The [`convert`] module provides software reference conversions between
//! all format pairs (used both as the `Flex_Flex_SW` baseline and as the
//! functional oracle for the MINT hardware converter).
//!
//! The [`traverse`] module exposes every format as a **fiber stream**
//! ([`RowMajorStream`] / [`FiberStream3`]): the uniform streaming traversal
//! the format-generic kernels in `sparseflex-kernels` consume, so a kernel
//! written once runs over any of these formats without pre-conversion.
//!
//! The [`tiler`] module schedules a stationary operand's scratchpad-sized
//! column tiles from its triplets and cuts them straight into any memory
//! format (or out of any [`MatrixData`], over those same streams) — the
//! unit of work the pipelined runtime in `sparseflex-core` converts and
//! computes on in overlap.
//!
//! ## Example
//!
//! ```
//! use sparseflex_formats::{CooMatrix, CsrMatrix, DataType, MatrixFormat};
//! use sparseflex_formats::size_model::matrix_storage_bits;
//!
//! // A small sparse matrix in the spirit of Fig. 3a of the paper.
//! let coo = CooMatrix::from_triplets(
//!     4, 4,
//!     vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0), (2, 2, 5.0), (3, 3, 6.0)],
//! ).unwrap();
//! let csr = CsrMatrix::from_coo(&coo);
//! assert_eq!(csr.row_ptr(), &[0, 2, 4, 5, 6]);
//!
//! // Compactness model: at moderate density CSR's single coordinate per
//! // nonzero beats COO's two (Fig. 4a); at extreme sparsity COO wins.
//! let coo_bits = matrix_storage_bits(&MatrixFormat::Coo, 1000, 1000, 50_000, DataType::Fp32);
//! let csr_bits = matrix_storage_bits(&MatrixFormat::Csr, 1000, 1000, 50_000, DataType::Fp32);
//! assert!(csr_bits < coo_bits);
//! let coo_sparse = matrix_storage_bits(&MatrixFormat::Coo, 1000, 1000, 10, DataType::Fp32);
//! let csr_sparse = matrix_storage_bits(&MatrixFormat::Csr, 1000, 1000, 10, DataType::Fp32);
//! assert!(coo_sparse < csr_sparse);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod arena;
pub mod bsr;
mod build;
pub mod bytes;
pub mod convert;
pub mod coo;
pub mod csc;
pub mod csf;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod dtype;
pub mod ell;
pub mod error;
pub mod formats;
pub mod hicoo;
pub mod rlc;
#[cfg(test)]
mod roundtrip_tests;
pub mod size_model;
pub mod stats;
pub mod tensor;
pub mod tiler;
pub mod traits;
pub mod traverse;
pub mod zvc;

pub use arena::StreamArena;
pub use bsr::BsrMatrix;
pub use bytes::{fnv1a, ByteError, ByteReader, ByteWriter};
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csf::CsfTensor;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use dtype::DataType;
pub use ell::EllMatrix;
pub use error::FormatError;
pub use formats::{MatrixData, MatrixFormat, TensorData, TensorFormat};
pub use hicoo::HiCooTensor;
pub use rlc::{RlcMatrix, RlcTensor3};
pub use tensor::{CooTensor3, DenseTensor3};
pub use tiler::{
    cut_schedule, plan_column_schedule, tile_column_ranges, ColumnSchedule, MatrixTile, TilePolicy,
};
pub use traits::{SparseMatrix, SparseTensor3};
pub use traverse::{
    csr_cow, csr_cow_in, csr_from_stream, csr_from_stream_in, FiberStream3, RowMajorStream,
};
pub use zvc::{ZvcMatrix, ZvcTensor3};

/// Scalar element type used for all functional (value-carrying) storage.
///
/// The *logical* datatype of an experiment (int8/int16/fp32, which governs
/// storage-size accounting) is tracked separately via [`DataType`]; `f64`
/// carries the numeric payload so functional results stay exact for the
/// integer-valued test matrices used across the workspace.
pub type Value = f64;

/// Ceiling of `log2(x)` for `x >= 1`; 0 for `x <= 1`.
///
/// This is the paper's metadata-width rule: "the number of metadata bits
/// required is the log of the maximum possible value" (§III-A). An index
/// field that must represent values in `0..x` needs `ceil_log2(x)` bits.
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod lib_tests {
    use super::ceil_log2;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn ceil_log2_large_values() {
        assert_eq!(ceil_log2(1 << 40), 40);
        assert_eq!(ceil_log2((1 << 40) + 1), 41);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }
}
