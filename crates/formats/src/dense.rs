//! Dense (uncompressed) matrix storage.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// Row-major dense matrix.
///
/// "Dense (uncompressed)" is both an MCF and ACF choice in the paper: at
/// high densities its lack of metadata makes it the most compact MCF
/// (Fig. 4a, right of the second red line) and the most compute-efficient
/// ACF (Fig. 5a, 10%-100% density).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Value>,
}

impl DenseMatrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a row-major buffer. Fails if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Value>) -> Result<Self, FormatError> {
        if data.len() != rows * cols {
            return Err(FormatError::LengthMismatch {
                what: "dense data vs rows*cols",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Build from nested rows (test convenience). Fails on ragged input.
    pub fn from_rows(rows: Vec<Vec<Value>>) -> Result<Self, FormatError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            if row.len() != c {
                return Err(FormatError::LengthMismatch {
                    what: "ragged dense rows",
                    expected: c,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Immutable view of the row-major backing buffer.
    #[inline]
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Value] {
        &mut self.data
    }

    /// One row as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Value] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Write access to element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Value) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Add `v` into element `(r, c)` (accumulation helper for kernels).
    #[inline]
    pub fn add_assign(&mut self, r: usize, c: usize, v: Value) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Count of explicitly nonzero elements (scans the buffer).
    pub fn count_nonzeros(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Maximum absolute difference against another matrix of the same shape.
    fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every element differs by at most `tol`.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_abs_diff(other) <= tol
    }
}

impl SparseMatrix for DenseMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.count_nonzeros()
    }
    #[inline]
    fn get(&self, row: usize, col: usize) -> Value {
        self.data[row * self.cols + col]
    }
    fn to_coo(&self) -> CooMatrix {
        crate::traverse::coo_from_stream(self)
    }
    fn to_dense(&self) -> DenseMatrix {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(vec![
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![3.0, 4.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DenseMatrix::zeros(3, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        m.add_assign(1, 2, 0.5);
        assert_eq!(m.get(1, 2), 8.0);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn nnz_counts_explicit_nonzeros() {
        assert_eq!(sample().nnz(), 4);
        assert_eq!(sample().density(), 4.0 / 9.0);
    }

    #[test]
    fn to_coo_roundtrip() {
        let m = sample();
        let coo = m.to_coo();
        assert_eq!(coo.nnz(), 4);
        assert_eq!(coo.into_dense(), m);
    }

    #[test]
    fn row_slice() {
        let m = sample();
        assert_eq!(m.row(2), &[3.0, 4.0, 0.0]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = sample();
        let mut b = sample();
        b.set(0, 0, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
    }
}
