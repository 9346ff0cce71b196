//! Coordinate (COO) format — the conversion hub of the crate.

use crate::dense::DenseMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// Coordinate-list sparse matrix (Fig. 3a, "Coordinate (COO)").
///
/// Stores parallel arrays `(row_ids, col_ids, values)` sorted row-major
/// (row, then column) with no duplicates and no explicit zeros. COO is the
/// paper's most compact MCF at extreme sparsity (Fig. 4a, left of the first
/// red line) and the canonical form every format encodes from
/// ([`crate::MatrixData::encode`]) and decodes to (`to_coo`). Matrix
/// conversions between two other formats skip it
/// ([`crate::MatrixData::convert_to`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    row_ids: Vec<usize>,
    col_ids: Vec<usize>,
    values: Vec<Value>,
}

impl CooMatrix {
    /// Empty matrix of the given shape.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row_ids: Vec::new(),
            col_ids: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from unsorted triplets. Sorts row-major, sums duplicates, and
    /// drops entries whose accumulated value is exactly zero.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, Value)>,
    ) -> Result<Self, FormatError> {
        for &(r, c, _) in &triplets {
            if r >= rows {
                return Err(FormatError::IndexOutOfBounds {
                    index: r,
                    bound: rows,
                    axis: 0,
                });
            }
            if c >= cols {
                return Err(FormatError::IndexOutOfBounds {
                    index: c,
                    bound: cols,
                    axis: 1,
                });
            }
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ids = Vec::with_capacity(triplets.len());
        let mut col_ids = Vec::with_capacity(triplets.len());
        let mut values: Vec<Value> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            if let (Some(&lr), Some(&lc), Some(last)) =
                (row_ids.last(), col_ids.last(), values.last_mut())
            {
                if lr == r && lc == c {
                    *last += v;
                    continue;
                }
            }
            row_ids.push(r);
            col_ids.push(c);
            values.push(v);
        }
        // Drop exact zeros (possible after duplicate cancellation).
        let mut keep_r = Vec::with_capacity(row_ids.len());
        let mut keep_c = Vec::with_capacity(col_ids.len());
        let mut keep_v = Vec::with_capacity(values.len());
        for i in 0..values.len() {
            if values[i] != 0.0 {
                keep_r.push(row_ids[i]);
                keep_c.push(col_ids[i]);
                keep_v.push(values[i]);
            }
        }
        Ok(CooMatrix {
            rows,
            cols,
            row_ids: keep_r,
            col_ids: keep_c,
            values: keep_v,
        })
    }

    /// Build directly from parallel arrays, sorted row-major with no
    /// duplicates: checks bounds and order in place, then drops explicit
    /// zeros in place. The wire decoder's path for untrusted arrays.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        mut row_ids: Vec<usize>,
        mut col_ids: Vec<usize>,
        mut values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if row_ids.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                what: "row_ids vs values",
                expected: values.len(),
                actual: row_ids.len(),
            });
        }
        if col_ids.len() != values.len() {
            return Err(FormatError::LengthMismatch {
                what: "col_ids vs values",
                expected: values.len(),
                actual: col_ids.len(),
            });
        }
        let mut prev: Option<(usize, usize)> = None;
        let mut kept = 0;
        for i in 0..values.len() {
            let (r, c, v) = (row_ids[i], col_ids[i], values[i]);
            if r >= rows {
                return Err(FormatError::IndexOutOfBounds {
                    index: r,
                    bound: rows,
                    axis: 0,
                });
            }
            if c >= cols {
                return Err(FormatError::IndexOutOfBounds {
                    index: c,
                    bound: cols,
                    axis: 1,
                });
            }
            if prev.is_some_and(|p| p >= (r, c)) {
                return Err(FormatError::MalformedPointer {
                    what: "COO triplets not strictly row-major sorted",
                });
            }
            prev = Some((r, c));
            if v != 0.0 {
                (row_ids[kept], col_ids[kept], values[kept]) = (r, c, v);
                kept += 1;
            }
        }
        row_ids.truncate(kept);
        col_ids.truncate(kept);
        values.truncate(kept);
        Ok(CooMatrix {
            rows,
            cols,
            row_ids,
            col_ids,
            values,
        })
    }

    /// Assemble from parallel arrays that already hold every invariant
    /// [`from_parts`](Self::from_parts) checks (sorted row-major, no
    /// duplicates, in bounds, no zeros): the format builders' output,
    /// correct by construction.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ids: Vec<usize>,
        col_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Self {
        CooMatrix {
            rows,
            cols,
            row_ids,
            col_ids,
            values,
        }
    }

    /// Row coordinates, parallel to [`values`](Self::values).
    #[inline]
    pub fn row_ids(&self) -> &[usize] {
        &self.row_ids
    }

    /// Column coordinates, parallel to [`values`](Self::values).
    #[inline]
    pub fn col_ids(&self) -> &[usize] {
        &self.col_ids
    }

    /// Stored nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterate `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        (0..self.values.len()).map(move |i| (self.row_ids[i], self.col_ids[i], self.values[i]))
    }

    /// Consume into a dense matrix.
    pub fn into_dense(self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.values.len() {
            out.set(self.row_ids[i], self.col_ids[i], self.values[i]);
        }
        out
    }
}

impl SparseMatrix for CooMatrix {
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
        // Binary search over the sorted (row, col) keys.
        let mut lo = self.row_ids.partition_point(|&r| r < row);
        let hi = self.row_ids.partition_point(|&r| r <= row);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.col_ids[mid].cmp(&col) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => {
                    if mid == lo {
                        return 0.0;
                    }
                    return self.get_linear(lo, mid, col);
                }
                std::cmp::Ordering::Equal => return self.values[mid],
            }
        }
        0.0
    }
    fn to_coo(&self) -> CooMatrix {
        self.clone()
    }
}

impl CooMatrix {
    fn get_linear(&self, lo: usize, hi: usize, col: usize) -> Value {
        for i in lo..hi {
            if self.col_ids[i] == col {
                return self.values[i];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 3a example: the 4x4 matrix with nonzeros a..f.
    /// Layout (row-major): a at (0,0), b at (0,2)... we use the paper's
    /// coordinates: values a b c d e f at
    /// (0,0) (1,0) (0,1) (1,1) (2,2) (3,3) sorted row-major.
    pub(crate) fn fig3a() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0), // a
                (0, 1, 2.0), // c  (paper stores column-major letters; values differ)
                (1, 0, 3.0),
                (1, 1, 4.0),
                (2, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sorts_and_dedups() {
        let m = CooMatrix::from_triplets(
            3,
            3,
            vec![(2, 2, 5.0), (0, 1, 1.0), (0, 1, 2.0), (1, 0, 4.0)],
        )
        .unwrap();
        assert_eq!(m.row_ids(), &[0, 1, 2]);
        assert_eq!(m.col_ids(), &[1, 0, 2]);
        assert_eq!(m.values(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn duplicate_cancellation_drops_zero() {
        let m =
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, -1.0), (1, 1, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn bounds_checked() {
        assert!(matches!(
            CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]),
            Err(FormatError::IndexOutOfBounds { axis: 0, .. })
        ));
        assert!(matches!(
            CooMatrix::from_triplets(2, 2, vec![(0, 5, 1.0)]),
            Err(FormatError::IndexOutOfBounds { axis: 1, .. })
        ));
    }

    #[test]
    fn from_parts_rejects_unsorted() {
        assert!(CooMatrix::from_parts(2, 2, vec![1, 0], vec![0, 0], vec![1.0, 1.0]).is_err());
        assert!(CooMatrix::from_parts(2, 2, vec![0, 0], vec![0, 0], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn get_finds_all_entries() {
        let m = fig3a();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(3, 3), 6.0);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(3, 0), 0.0);
    }

    #[test]
    fn dense_roundtrip() {
        let m = fig3a();
        let d = m.clone().into_dense();
        assert_eq!(d.to_coo(), m);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(CooMatrix::from_parts(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(CooMatrix::from_parts(2, 2, vec![0], vec![0], vec![1.0, 2.0]).is_err());
        assert!(CooMatrix::from_parts(2, 2, vec![0], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn from_parts_drops_zeros_and_reports_the_first_fault() {
        let m = CooMatrix::from_parts(
            2,
            3,
            vec![0, 0, 1, 1],
            vec![0, 2, 0, 1],
            vec![0.0, 1.0, -0.0, 2.0],
        )
        .unwrap();
        assert_eq!(
            (m.row_ids(), m.col_ids(), m.values()),
            (&[0, 1][..], &[2, 1][..], &[1.0, 2.0][..])
        );
        // Element 1 is out of bounds before element 2 is out of order.
        let faulty = CooMatrix::from_parts(2, 3, vec![0, 0, 0], vec![1, 3, 0], vec![1.0; 3]);
        assert_eq!(
            faulty,
            Err(FormatError::IndexOutOfBounds {
                index: 3,
                bound: 3,
                axis: 1,
            })
        );
    }

    #[test]
    fn empty_matrix() {
        let m = CooMatrix::empty(5, 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.get(4, 6), 0.0);
    }
}
