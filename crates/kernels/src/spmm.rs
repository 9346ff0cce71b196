//! SpMM with a CSC **stationary** operand — the one SpMM fast path.
//!
//! The format-generic entry points are [`crate::spmm()`] /
//! [`crate::spmm_parallel`] (one stream body for every streaming-operand
//! format) and [`crate::spmm_sparse_b`], which dispatches here when the
//! stationary operand arrives in CSC. Shapes are validated by the
//! dispatcher, so the routine only debug-asserts.

use crate::lanes::dot_indexed;
use sparseflex_formats::{CscMatrix, DenseMatrix, SparseMatrix};

/// SpMM with a dense streaming operand and a CSC **stationary** operand:
/// `O = A * B` where `B` is sparse-by-column — the Dense(A)-CSC(B) ACF the
/// paper's Fig. 6b maps onto the weight-stationary PEs (each PE holds one
/// compressed column of `B`).
pub(crate) fn dense_csc(a: &DenseMatrix, b: &CscMatrix) -> DenseMatrix {
    debug_assert_eq!(a.cols(), b.rows(), "SpMM inner dimensions must agree");
    let (m, n) = (a.rows(), b.cols());
    let mut o = DenseMatrix::zeros(m, n);
    for j in 0..n {
        let (rows, vals) = b.col(j);
        for i in 0..m {
            o.set(i, j, dot_indexed(rows, vals, a.row(i)));
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use sparseflex_formats::CooMatrix;

    #[test]
    fn dense_csc_variant_matches() {
        // O = A_dense * B_sparse with B in CSC.
        let b_sparse = CooMatrix::from_triplets(
            5,
            4,
            vec![
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (4, 3, 5.0),
            ],
        )
        .unwrap();
        let a_dense = DenseMatrix::from_rows(vec![
            vec![1.0, 0.0, 2.0, 0.0, 1.0],
            vec![0.0, 3.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let csc = CscMatrix::from_coo(&b_sparse);
        let expect = gemm_naive(&a_dense, &b_sparse.to_dense());
        assert_eq!(dense_csc(&a_dense, &csc), expect);
    }
}
