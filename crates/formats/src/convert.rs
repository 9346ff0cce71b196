//! Software reference conversions between formats.
//!
//! These are the `Flex_Flex_SW` baseline of Table I — what a host CPU
//! (MKL / cuSPARSE in the paper's Fig. 10) would run. [`csr_to_csc`] is
//! also the functional oracle MINT's counting-sort pipeline is tested
//! against; MINT's RLC decode calls [`rlc_to_coo`] itself.
//!
//! All conversions are available generically through
//! [`crate::MatrixData::convert_to`], which walks the source once into a
//! builder of the target; this module adds the *direct* algorithms the
//! paper walks through in Fig. 8 (Fig. 8e's block discovery is
//! [`BsrMatrix::from_coo`](crate::BsrMatrix::from_coo) itself):
//!
//! - [`csr_to_csc`] (Fig. 8c) — counting-sort transpose-of-representation.
//! - [`rlc_to_coo`] (Fig. 8d) — prefix-sum over runs, then divide/mod.
//! - [`dense_to_csf`] (Fig. 8f) — scan to COO, then tree construction.
//! - [`dense_to_csr`] — a row scan that skips the COO hub.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::csf::CsfTensor;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::rlc::RlcMatrix;
use crate::tensor::DenseTensor3;
use crate::traits::{SparseMatrix, SparseTensor3};
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

/// RLC → COO (Fig. 8d): prefix-sum the run lengths to recover flat
/// positions, then divide/mod by the row length to get coordinates.
#[expect(
    clippy::expect_used,
    reason = "from_sorted_triplets re-validates the ordered, in-bounds RLC decode"
)]
pub fn rlc_to_coo(rlc: &RlcMatrix) -> CooMatrix {
    let cols = rlc.cols();
    let mut triplets = Vec::with_capacity(rlc.stored_entries());
    // Running prefix over (zeros + 1) per entry = flat position + 1.
    let mut prefix = 0u64;
    for e in rlc.entries() {
        prefix += e.zeros + 1;
        if e.value != 0.0 {
            let flat = (prefix - 1) as usize;
            triplets.push((flat / cols, flat % cols, e.value));
        }
    }
    CooMatrix::from_sorted_triplets(rlc.rows(), cols, triplets)
        .expect("RLC stream is ordered and in-bounds")
}

/// Dense → CSR without materializing COO (row scan).
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR structure the dense scan just built"
)]
pub fn dense_to_csr(dense: &DenseMatrix) -> CsrMatrix {
    let rows = dense.rows();
    let cols = dense.cols();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0);
    let mut col_ids = Vec::new();
    let mut values = Vec::new();
    for r in 0..rows {
        for (c, &v) in dense.row(r).iter().enumerate() {
            if v != 0.0 {
                col_ids.push(c);
                values.push(v);
            }
        }
        row_ptr.push(values.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values)
        .expect("dense scan yields valid CSR")
}

/// Dense tensor → CSF (Fig. 8f): scan nonzeros (flat prefix-sum positions
/// → div/mod to COO coordinates), then build the fiber tree.
pub fn dense_to_csf(dense: &DenseTensor3) -> CsfTensor {
    CsfTensor::from_coo(&dense.to_coo())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlc::RlcMatrix;

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
    fn rlc_to_coo_recovers_positions() {
        let coo = fig8b();
        let rlc = RlcMatrix::from_coo(&coo, 4);
        assert_eq!(rlc_to_coo(&rlc), coo);
    }

    #[test]
    fn rlc_to_coo_with_extension_entries() {
        // Long runs force extension entries; the prefix-sum walk must skip
        // them without emitting triplets.
        let coo = CooMatrix::from_triplets(2, 64, vec![(0, 0, 1.0), (1, 63, 2.0)]).unwrap();
        let rlc = RlcMatrix::from_coo(&coo, 3);
        assert!(rlc.stored_entries() > 2, "extension entries expected");
        assert_eq!(rlc_to_coo(&rlc), coo);
    }

    #[test]
    fn dense_to_csr_scans_every_nonzero() {
        let coo = fig8b();
        let csr = dense_to_csr(&coo.clone().into_dense());
        assert_eq!(csr.to_coo(), coo);
    }

    #[test]
    fn dense_to_csf_matches_fig8f_tree() {
        use crate::tensor::CooTensor3;
        // The Fig. 3b tensor, materialized densely then converted.
        let coo = CooTensor3::from_quads(
            4,
            4,
            4,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 1, 2.0),
                (1, 2, 2, 3.0),
                (2, 1, 0, 4.0),
                (2, 1, 3, 5.0),
                (3, 0, 3, 6.0),
            ],
        )
        .unwrap();
        let dense = coo.clone().into_dense();
        let csf = dense_to_csf(&dense);
        assert_eq!(csf.to_coo(), coo);
        assert_eq!(csf.x_fids(), &[0, 1, 2, 3]);
        assert_eq!(csf.num_fibers(), 4);
    }

    #[test]
    fn conversion_composition_is_identity() {
        // X -> Y -> X returns the original for a chain of direct paths.
        let coo = fig8b();
        let rlc = RlcMatrix::from_coo(&coo, 4);
        let back2 = RlcMatrix::from_coo(&rlc_to_coo(&rlc), 4);
        assert_eq!(back2, rlc);
    }
}
