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
//! module adds the *direct* algorithm of Fig. 8 a walk does not give,
//! in both directions:
//!
//! - [`csr_to_csc`] (Fig. 8c) — counting-sort transpose-of-representation,
//!   the output MINT's CSR→CSC conversion returns;
//! - [`csc_to_csr`] — the same counting sort with rows and columns
//!   swapped, the output MINT's CSC→CSR conversion returns.
//!
//! and two that read a ZVC operand's mask in place, a mask word at a
//! time, instead of walking its rows into a builder:
//!
//! - [`zvc_to_dense`] — each set bit's value scattered to its position,
//!   the output MINT's ZVC→Dense conversion returns;
//! - [`zvc_to_csc`] — the counting sort of [`csc_to_csr`] keyed on each
//!   set bit's column, the output MINT's ZVC→CSC conversion returns.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::traits::SparseMatrix;
use crate::traverse::scan;
use crate::zvc::{for_each_set_bit, ZvcMatrix};
use crate::Value;

/// CSR → CSC by counting sort on column ids (the software equivalent of
/// MINT's Fig. 8c pipeline: histogram → prefix sum → scatter). CSR's
/// stored zeros stay stored.
pub fn csr_to_csc(csr: &CsrMatrix) -> CscMatrix {
    let (col_ptr, row_ids, values) = bucket_by_column(csr.cols(), csr.col_ids(), csr.iter());
    CscMatrix::from_parts_unchecked(csr.rows(), csr.cols(), col_ptr, row_ids, values)
}

/// CSC → CSR by counting sort on row ids: [`csr_to_csc`]'s histogram →
/// prefix sum → scatter with rows and columns swapped, reading each
/// column in place. Stored zeros are dropped, as every format builder
/// drops them.
pub fn csc_to_csr(csc: &CscMatrix) -> CsrMatrix {
    let (rows, cols) = (csc.rows(), csc.cols());
    let mut row_ptr = vec![0usize; rows + 1];
    for (&r, &v) in csc.row_ids().iter().zip(csc.values()) {
        row_ptr[r + 1] += usize::from(v != 0.0);
    }
    scan(&mut row_ptr);
    let mut next = row_ptr[..rows].to_vec();
    let mut col_ids = vec![0usize; row_ptr[rows]];
    let mut values = vec![0.0; row_ptr[rows]];
    for c in 0..cols {
        let (rs, vs) = csc.col(c);
        for (&r, &v) in rs.iter().zip(vs) {
            if v != 0.0 {
                let slot = next[r];
                next[r] += 1;
                col_ids[slot] = c;
                values[slot] = v;
            }
        }
    }
    CsrMatrix::from_parts_unchecked(rows, cols, row_ptr, col_ids, values)
}

/// ZVC → Dense: the mask covers the row-major matrix, so each set bit's
/// value lands at the bit's own position, with no row or column to track
/// (routed through [`for_each_kept_bit`], a journals job's tiles ran 7%
/// slower). Stored zeros are dropped (the cell stays `+0.0`), as every
/// format builder drops them.
pub fn zvc_to_dense(zvc: &ZvcMatrix) -> DenseMatrix {
    let (rows, cols) = (zvc.rows(), zvc.cols());
    let mut dense = DenseMatrix::zeros(rows, cols);
    let data = dense.data_mut();
    let mut values = zvc.values().iter();
    for_each_set_bit(zvc.mask(), 0..rows * cols, |p| {
        if let Some(&v) = values.next().filter(|&&v| v != 0.0) {
            data[p] = v;
        }
    });
    dense
}

/// ZVC → CSC by counting sort on each set bit's column: one pass over
/// the mask's set bits histograms their columns, a second scatters rows
/// and values, so rows ascend within a column. Stored zeros are dropped,
/// as every format builder drops them.
pub fn zvc_to_csc(zvc: &ZvcMatrix) -> CscMatrix {
    let (rows, cols) = (zvc.rows(), zvc.cols());
    let mut col_ptr = vec![0usize; cols + 1];
    for_each_kept_bit(zvc, |_, c, _| col_ptr[c + 1] += 1);
    scan(&mut col_ptr);
    let mut next = col_ptr[..cols].to_vec();
    let mut row_ids = vec![0usize; col_ptr[cols]];
    let mut values = vec![0.0; col_ptr[cols]];
    for_each_kept_bit(zvc, |r, c, v| {
        let slot = next[c];
        next[c] += 1;
        row_ids[slot] = r;
        values[slot] = v;
    });
    CscMatrix::from_parts_unchecked(rows, cols, col_ptr, row_ids, values)
}

/// Call `f(r, c, v)` for every set mask bit of `zvc` whose value is not
/// zero, rows ascending and columns ascending within a row: one pass a
/// mask word at a time, stepping the row as a bit passes its end (no
/// division per bit).
#[inline]
fn for_each_kept_bit(zvc: &ZvcMatrix, mut f: impl FnMut(usize, usize, Value)) {
    let cols = zvc.cols();
    let (mut r, mut row_start) = (0, 0);
    let mut values = zvc.values().iter();
    for_each_set_bit(zvc.mask(), 0..zvc.rows() * cols, |p| {
        if let Some(&v) = values.next().filter(|&&v| v != 0.0) {
            while p >= row_start + cols {
                r += 1;
                row_start += cols;
            }
            f(r, p - row_start, v);
        }
    });
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

    #[test]
    fn csc_to_csr_inverts_csr_to_csc_and_drops_stored_zeros() {
        let coo = fig8b();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csc_to_csr(&csr_to_csc(&csr)), csr);
        // Column 1 stores +0.0 at row 1 and -0.0 at row 3.
        let csc = CscMatrix::from_parts(
            4,
            4,
            vec![0, 1, 4, 5, 7],
            vec![2, 0, 1, 3, 3, 0, 2],
            vec![4.0, 1.0, 0.0, -0.0, 6.0, 2.0, 5.0],
        )
        .unwrap();
        let got = csc_to_csr(&csc);
        assert_eq!(got.row_ptr(), &[0, 2, 2, 4, 5]);
        assert_eq!(got.col_ids(), &[1, 3, 0, 3, 2]);
        assert_eq!(got.values(), &[1.0, 2.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn zvc_conversions_read_the_mask_and_drop_stored_zeros() {
        let coo = fig8b();
        let zvc = ZvcMatrix::from_coo(&coo);
        assert_eq!(zvc_to_dense(&zvc), coo.clone().into_dense());
        assert_eq!(zvc_to_csc(&zvc), CscMatrix::from_coo(&coo));
        // Cells (1, 1) and (3, 2) store +0.0 and -0.0.
        let mask = ZvcMatrix::from_coo(&coo).mask().to_vec();
        let zeros = ZvcMatrix::from_parts(4, 4, mask, vec![1.0, 2.0, 0.0, 4.0, 5.0, -0.0]).unwrap();
        let dense = zvc_to_dense(&zeros);
        assert_eq!(dense.get(1, 1).to_bits(), 0.0f64.to_bits());
        assert_eq!(dense.get(3, 2).to_bits(), 0.0f64.to_bits());
        let csc = zvc_to_csc(&zeros);
        assert_eq!(csc.col_ptr(), &[0, 1, 2, 2, 4]);
        assert_eq!(csc.row_ids(), &[2, 0, 0, 2]);
        assert_eq!(csc.values(), &[4.0, 1.0, 2.0, 5.0]);
    }
}
