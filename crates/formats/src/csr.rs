//! Compressed Sparse Row (CSR) format.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// Compressed Sparse Row matrix (Fig. 3a).
///
/// `row_ptr[r]..row_ptr[r+1]` indexes the `col_ids`/`values` slice of row
/// `r`. CSR is the paper's normalization baseline for the compactness study
/// (Fig. 4a is "normalized to CSR") and the preferred ACF for the streaming
/// operand at low density (Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_ids: Vec<usize>,
    values: Vec<Value>,
}

impl CsrMatrix {
    /// Build from raw parts, validating the pointer structure.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if row_ptr.len() != rows + 1 {
            return Err(FormatError::LengthMismatch {
                what: "row_ptr vs rows+1",
                expected: rows + 1,
                actual: row_ptr.len(),
            });
        }
        if col_ids.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                what: "col_ids vs values",
                expected: values.len(),
                actual: col_ids.len(),
            });
        }
        if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&values.len()) {
            return Err(FormatError::MalformedPointer {
                what: "row_ptr endpoints",
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(FormatError::MalformedPointer {
                what: "row_ptr not monotonic",
            });
        }
        for r in 0..rows {
            let seg = &col_ids[row_ptr[r]..row_ptr[r + 1]];
            if seg.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FormatError::MalformedPointer {
                    what: "col_ids not strictly increasing within a row",
                });
            }
            if let Some(&c) = seg.last() {
                if c >= cols {
                    return Err(FormatError::IndexOutOfBounds {
                        index: c,
                        bound: cols,
                        axis: 1,
                    });
                }
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_ids,
            values,
        })
    }

    /// Assemble from parts that already hold every invariant
    /// [`from_parts`](Self::from_parts) checks: the format builders' and
    /// counting sorts' output, correct by construction.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_ids,
            values,
        }
    }

    /// Convert from the COO hub (linear time; COO is already row-major).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut enc = RowEncoder::new(coo.rows(), coo.nnz());
        for (r, c, v) in coo.iter() {
            enc.push(r, c, v);
        }
        enc.finish(coo.rows(), coo.cols())
    }

    /// Row pointer array (`rows + 1` entries; `row_ptr[0] == 0`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, parallel to [`values`](Self::values).
    #[inline]
    pub fn col_ids(&self) -> &[usize] {
        &self.col_ids
    }

    /// Stored nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// `(col_ids, values)` slices of one row.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[Value]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_ids[s..e], &self.values[s..e])
    }

    /// Number of nonzeros in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Iterate `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cs, vs) = self.row(r);
            cs.iter().zip(vs).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Decompose into `(rows, cols, row_ptr, col_ids, values)`, giving the
    /// caller ownership of the backing arrays — the inverse of
    /// [`from_parts`](Self::from_parts). Used by the stream arena to
    /// recycle conversion buffers across tile loops.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<Value>) {
        (
            self.rows,
            self.cols,
            self.row_ptr,
            self.col_ids,
            self.values,
        )
    }
}

/// The one CSR encoder: entries pushed in row-major order (rows
/// ascending, columns strictly ascending within a row) append to the
/// payload as they come. [`CsrMatrix::from_coo`] and the format builders
/// both encode with it.
pub(crate) struct RowEncoder {
    /// The start of every row up to the last one pushed.
    row_ptr: Vec<usize>,
    col_ids: Vec<usize>,
    values: Vec<Value>,
}

impl RowEncoder {
    /// An empty encoder for `rows` rows, with room for `nnz` entries.
    pub(crate) fn new(rows: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        RowEncoder {
            row_ptr,
            col_ids: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Append `(r, c, v)` after every entry pushed so far.
    #[inline]
    pub(crate) fn push(&mut self, r: usize, c: usize, v: Value) {
        if self.row_ptr.len() <= r {
            self.row_ptr.resize(r + 1, self.col_ids.len());
        }
        self.col_ids.push(c);
        self.values.push(v);
    }

    /// The finished `rows x cols` matrix.
    pub(crate) fn finish(self, rows: usize, cols: usize) -> CsrMatrix {
        let RowEncoder {
            mut row_ptr,
            col_ids,
            values,
        } = self;
        row_ptr.resize(rows + 1, col_ids.len());
        CsrMatrix::from_parts_unchecked(rows, cols, row_ptr, col_ids, values)
    }
}

impl SparseMatrix for CsrMatrix {
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
        let (cs, vs) = self.row(row);
        match cs.binary_search(&col) {
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

    /// The paper's Fig. 3a CSR example: values `a c b d e f`,
    /// col_ids `0 1 0 1 2 3`, row_ptr `0 2 4 5 6`.
    fn fig3a_csr() -> CsrMatrix {
        CsrMatrix::from_parts(
            4,
            4,
            vec![0, 2, 4, 5, 6],
            vec![0, 1, 0, 1, 2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        )
        .unwrap()
    }

    #[test]
    fn fig3a_structure() {
        let m = fig3a_csr();
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(2), 1);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn from_parts_validation() {
        // Bad row_ptr length.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Endpoint wrong.
        assert!(CsrMatrix::from_parts(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        // Non-monotonic.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Duplicate column within a row.
        assert!(CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn coo_roundtrip() {
        let m = fig3a_csr();
        let coo = m.to_coo();
        assert_eq!(CsrMatrix::from_coo(&coo), m);
    }

    #[test]
    fn iter_order_is_row_major() {
        let m = fig3a_csr();
        let keys: Vec<_> = m.iter().map(|(r, c, _)| (r, c)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn empty_rows_handled() {
        let coo = CooMatrix::from_triplets(4, 4, vec![(3, 3, 9.0)]).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.row_ptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.get(3, 3), 9.0);
    }
}
