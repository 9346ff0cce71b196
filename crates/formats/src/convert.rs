//! Software reference conversions between formats.
//!
//! These are the `Flex_Flex_SW` baseline of Table I — what a host CPU
//! (MKL / cuSPARSE in the paper's Fig. 10) would run.
//!
//! All conversions are available generically through
//! [`crate::MatrixData::convert_to`], which walks the source once into a
//! builder of the target, and every `to_coo` is the source's walk,
//! collected (Fig. 8d's RLC decode and Fig. 8f's dense scan among them).
//! Fig. 8e's block discovery is
//! [`BsrMatrix::from_coo`](crate::BsrMatrix::from_coo) itself. This
//! module adds the one *direct* algorithm of Fig. 8 a walk does not give:
//!
//! - [`csr_to_csc`] (Fig. 8c) — counting-sort transpose-of-representation,
//!   the output MINT's CSR→CSC conversion returns.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::traits::SparseMatrix;
use crate::traverse::scan;
use crate::Value;

/// CSR → CSC by counting sort on column ids (the software equivalent of
/// MINT's Fig. 8c pipeline: histogram → prefix sum → scatter).
pub fn csr_to_csc(csr: &CsrMatrix) -> CscMatrix {
    let (col_ptr, row_ids, values) = bucket_by_column(csr.cols(), csr.col_ids(), csr.iter());
    CscMatrix::from_parts_unchecked(csr.rows(), csr.cols(), col_ptr, row_ids, values)
}

/// The one counting-sort transpose: bucket `entries`, given row-major
/// with column ids `col_ids`, by column. Returns the column pointer and
/// each column's row ids and values, rows ascending within a column.
pub(crate) fn bucket_by_column(
    cols: usize,
    col_ids: &[usize],
    entries: impl Iterator<Item = (usize, usize, Value)>,
) -> (Vec<usize>, Vec<usize>, Vec<Value>) {
    let mut col_ptr = vec![0usize; cols + 1];
    for &c in col_ids {
        col_ptr[c + 1] += 1;
    }
    scan(&mut col_ptr);
    let mut next = col_ptr[..cols].to_vec();
    let mut row_ids = vec![0usize; col_ids.len()];
    let mut values = vec![0.0; col_ids.len()];
    for (r, c, v) in entries {
        let slot = next[c];
        next[c] += 1;
        row_ids[slot] = r;
        values[slot] = v;
    }
    (col_ptr, row_ids, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// The Fig. 8b example matrix:
    /// ```text
    /// . a . b
    /// . c . .
    /// d . . e
    /// . . f .
    /// ```
    fn fig8b() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 1, 1.0), // a
                (0, 3, 2.0), // b
                (1, 1, 3.0), // c
                (2, 0, 4.0), // d
                (2, 3, 5.0), // e
                (3, 2, 6.0), // f
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_to_csc_matches_hub_path() {
        let coo = fig8b();
        let csr = CsrMatrix::from_coo(&coo);
        let direct = csr_to_csc(&csr);
        let via_hub = CscMatrix::from_coo(&coo);
        assert_eq!(direct, via_hub);
        // col_ptr after prefix sum over histogram [1,2,1,2] -> [0,1,3,4,6].
        assert_eq!(direct.col_ptr(), &[0, 1, 3, 4, 6]);
    }
}
