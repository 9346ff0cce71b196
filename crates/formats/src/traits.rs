//! Common traits implemented by every matrix / tensor format.

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::tensor::{CooTensor3, DenseTensor3};
use crate::Value;

/// Behaviour common to every 2-D format in this crate.
///
/// Every format can report its logical shape and nonzero count, perform a
/// (possibly slow) random-access read, and round-trip through [`CooMatrix`],
/// which acts as the conversion hub.
pub trait SparseMatrix {
    /// Number of rows (`M` in the paper's notation).
    fn rows(&self) -> usize;
    /// Number of columns (`K` for the streaming operand, `N` for outputs).
    fn cols(&self) -> usize;
    /// Number of *stored* nonzero elements. Blocked/padded formats (BSR,
    /// DIA, ELL) may store explicit zeros; those are never counted here.
    /// The physical slot count lives in one place:
    /// `MatrixData::stored_elements()` (vs `MatrixData::logical_nnz()`),
    /// the value-slot count of the size model's per-format formula.
    fn nnz(&self) -> usize;
    /// Random-access read of element `(row, col)`; zero if not stored.
    fn get(&self, row: usize, col: usize) -> Value;
    /// Convert to the COO hub representation (sorted row-major, no
    /// duplicates, no explicit zeros): every format but COO collects its
    /// row-major walk ([`crate::RowMajorStream`]), dropping the zeros it
    /// stores as entries.
    fn to_coo(&self) -> CooMatrix;

    /// Density in `[0, 1]`: `nnz / (rows * cols)`.
    fn density(&self) -> f64 {
        if self.rows() == 0 || self.cols() == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows() as f64 * self.cols() as f64)
        }
    }

    /// Materialize as a dense matrix (test/debug helper; allocates
    /// `rows * cols` values).
    fn to_dense(&self) -> DenseMatrix {
        self.to_coo().into_dense()
    }
}

/// Behaviour common to every 3-D tensor format in this crate.
///
/// Dimension naming follows the paper's Fig. 3b: a tensor of shape
/// `(x_dim, y_dim, z_dim)`.
pub trait SparseTensor3 {
    /// Extent of the first (x) mode.
    fn dim_x(&self) -> usize;
    /// Extent of the second (y) mode.
    fn dim_y(&self) -> usize;
    /// Extent of the third (z) mode.
    fn dim_z(&self) -> usize;
    /// Number of stored nonzeros.
    fn nnz(&self) -> usize;
    /// Random-access read; zero if not stored.
    fn get(&self, x: usize, y: usize, z: usize) -> Value;
    /// Convert to the COO hub representation (sorted x-major, no
    /// duplicates, no explicit zeros): every format but COO collects its
    /// mode-z fiber walk ([`crate::FiberStream3`]).
    fn to_coo(&self) -> CooTensor3;

    /// Shape as a `(x, y, z)` triple.
    fn shape(&self) -> (usize, usize, usize) {
        (self.dim_x(), self.dim_y(), self.dim_z())
    }

    /// Density in `[0, 1]`.
    fn density(&self) -> f64 {
        let vol = self.dim_x() as f64 * self.dim_y() as f64 * self.dim_z() as f64;
        if vol == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / vol
        }
    }

    /// Materialize as a dense tensor (test/debug helper).
    fn to_dense(&self) -> DenseTensor3 {
        self.to_coo().into_dense()
    }
}
