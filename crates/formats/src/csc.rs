//! Compressed Sparse Column (CSC) format.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// Compressed Sparse Column matrix (Fig. 3a).
///
/// The column-major dual of CSR: `col_ptr[c]..col_ptr[c+1]` indexes the
/// `row_ids`/`values` slice of column `c`. CSC is the natural ACF for the
/// *stationary* operand of the paper's weight-stationary accelerator
/// (Fig. 6b stores matrix B per-column in the PE buffers), and CSR→CSC is
/// the canonical conversion for transposing weights during backpropagation
/// (§III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_ids: Vec<usize>,
    values: Vec<Value>,
}

impl CscMatrix {
    /// Build from raw parts, validating the pointer structure.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if col_ptr.len() != cols + 1 {
            return Err(FormatError::LengthMismatch {
                what: "col_ptr vs cols+1",
                expected: cols + 1,
                actual: col_ptr.len(),
            });
        }
        if row_ids.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                what: "row_ids vs values",
                expected: values.len(),
                actual: row_ids.len(),
            });
        }
        if col_ptr.first() != Some(&0) || col_ptr.last() != Some(&values.len()) {
            return Err(FormatError::MalformedPointer {
                what: "col_ptr endpoints",
            });
        }
        if col_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointer {
                what: "col_ptr not monotonic",
            });
        }
        for c in 0..cols {
            let seg = &row_ids[col_ptr[c]..col_ptr[c + 1]];
            if seg.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FormatError::MalformedPointer {
                    what: "row_ids not strictly increasing within a column",
                });
            }
            if let Some(&r) = seg.last() {
                if r >= rows {
                    return Err(FormatError::IndexOutOfBounds {
                        index: r,
                        bound: rows,
                        axis: 0,
                    });
                }
            }
        }
        Ok(CscMatrix {
            rows,
            cols,
            col_ptr,
            row_ids,
            values,
        })
    }

    /// Assemble from parts that already hold every invariant
    /// [`from_parts`](Self::from_parts) checks: the counting sorts'
    /// output, correct by construction.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Self {
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_ids,
            values,
        }
    }

    /// Columns `c0..c1` as a matrix of their own, columns rebased to
    /// `0..c1 - c0`, explicit zeros dropped (so the slice holds exactly
    /// the entries `to_coo` yields for those columns). Requires
    /// `c0 <= c1 <= cols`.
    pub(crate) fn column_range(&self, c0: usize, c1: usize) -> CscMatrix {
        let n = self.col_ptr[c1] - self.col_ptr[c0];
        let mut col_ptr = Vec::with_capacity(c1 - c0 + 1);
        let mut row_ids = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        self.copy_columns(c0, c1, &mut col_ptr, &mut row_ids, &mut values);
        CscMatrix::from_parts_unchecked(self.rows, c1 - c0, col_ptr, row_ids, values)
    }

    /// [`column_range`](Self::column_range)'s per-element loop, into
    /// buffers sized by the caller.
    fn copy_columns(
        &self,
        c0: usize,
        c1: usize,
        col_ptr: &mut Vec<usize>,
        row_ids: &mut Vec<usize>,
        values: &mut Vec<Value>,
    ) {
        col_ptr.push(0);
        for c in c0..c1 {
            let (rs, vs) = self.col(c);
            for (&r, &v) in rs.iter().zip(vs) {
                if v != 0.0 {
                    row_ids.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(values.len());
        }
    }

    /// Convert from the COO hub with a counting sort on columns.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let (col_ptr, row_ids, values) =
            crate::convert::bucket_by_column(coo.cols(), coo.col_ids(), coo.iter());
        CscMatrix {
            rows: coo.rows(),
            cols: coo.cols(),
            col_ptr,
            row_ids,
            values,
        }
    }

    /// Column pointer array (`cols + 1` entries).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, parallel to [`values`](Self::values).
    #[inline]
    pub fn row_ids(&self) -> &[usize] {
        &self.row_ids
    }

    /// Stored nonzero values (column-major order).
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// `(row_ids, values)` slices of one column.
    #[inline]
    pub fn col(&self, c: usize) -> (&[usize], &[Value]) {
        let (s, e) = (self.col_ptr[c], self.col_ptr[c + 1]);
        (&self.row_ids[s..e], &self.values[s..e])
    }

    /// Iterate `(row, col, value)` in **column-major** order.
    pub fn iter_col_major(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        (0..self.cols).flat_map(move |c| {
            let (rs, vs) = self.col(c);
            rs.iter().zip(vs).map(move |(&r, &v)| (r, c, v))
        })
    }

    /// View this CSC matrix as the CSR representation of its transpose
    /// (zero-copy reinterpretation: identical arrays, swapped roles).
    #[expect(
        clippy::expect_used,
        reason = "from_parts re-validates the reinterpreted CSC arrays"
    )]
    pub fn transpose_as_csr(&self) -> CsrMatrix {
        CsrMatrix::from_parts(
            self.cols,
            self.rows,
            self.col_ptr.clone(),
            self.row_ids.clone(),
            self.values.clone(),
        )
        .expect("valid CSC arrays are a valid CSR of the transpose")
    }
}

impl SparseMatrix for CscMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, row: usize, col: usize) -> Value {
        let (rs, vs) = self.col(col);
        match rs.binary_search(&row) {
            Ok(i) => vs[i],
            Err(_) => 0.0,
        }
    }
    fn to_coo(&self) -> CooMatrix {
        crate::traverse::coo_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3a CSC example: values `a b c d e f`,
    /// row_ids `0 1 0 1 2 3`, col_ptr `0 2 4 5 6`.
    fn fig3a_csc() -> CscMatrix {
        CscMatrix::from_parts(
            4,
            4,
            vec![0, 2, 4, 5, 6],
            vec![0, 1, 0, 1, 2, 3],
            vec![1.0, 3.0, 2.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn fig3a_structure() {
        let m = fig3a_csc();
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(3, 0), 0.0);
    }

    #[test]
    fn coo_roundtrip_matches_csr_view() {
        let m = fig3a_csc();
        let coo = m.to_coo();
        assert_eq!(CscMatrix::from_coo(&coo), m);
        // CSC of M is CSR of Mᵀ.
        let csr_t = m.transpose_as_csr();
        assert_eq!(csr_t.to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn from_parts_validation() {
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(CscMatrix::from_parts(2, 1, vec![0, 1], vec![4], vec![1.0]).is_err());
        assert!(CscMatrix::from_parts(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn column_access() {
        let m = fig3a_csc();
        let (rs, vs) = m.col(1);
        assert_eq!(rs, &[0, 1]);
        assert_eq!(vs, &[2.0, 4.0]);
    }

    #[test]
    fn csr_csc_agree_on_random_pattern() {
        let coo = CooMatrix::from_triplets(
            5,
            7,
            vec![
                (0, 6, 1.0),
                (2, 3, 2.0),
                (2, 4, 3.0),
                (4, 0, 4.0),
                (4, 6, 5.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        for r in 0..5 {
            for c in 0..7 {
                assert_eq!(csr.get(r, c), csc.get(r, c), "mismatch at ({r},{c})");
            }
        }
    }
}
