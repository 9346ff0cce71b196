//! MTTKRP: matricized tensor times Khatri-Rao product.
//!
//! "MTTKRP is a core computation for canonical polyadic decomposition
//! (CPD) ... Typically the tensor A is sparse; while the matrices B and C
//! are dense" (§II, Fig. 2). For a 3-way tensor `A (I, K, L)` and dense
//! factor matrices `B (K, J)`, `C (L, J)`:
//!
//! `O[i][j] = sum_{k,l} A[i][k][l] * B[k][j] * C[l][j]`
//!
//! The format-generic entry points are [`crate::mttkrp()`] /
//! [`crate::mttkrp_parallel`]. Their stream body runs the classic CSF
//! factoring (Smith & Karypis) over any format's fiber stream: the partial
//! sum over `l` within a fiber is computed once, then scaled by `B[k][j]`,
//! reducing multiplies from `2 * nnz * J` to `(nnz + fibers) * J` plus the
//! fiber scalings. This module holds the one retained fast path, COO's
//! unfactored form, which measures faster than the factored body on COO.

use crate::lanes::axpy_mul3;
use sparseflex_formats::{CooTensor3, DenseMatrix, SparseMatrix, SparseTensor3};

/// MTTKRP with the tensor in COO: one fused multiply per nonzero per
/// output column.
pub(crate) fn coo(a: &CooTensor3, b: &DenseMatrix, c: &DenseMatrix) -> DenseMatrix {
    debug_assert_eq!(a.dim_y(), b.rows(), "MTTKRP: B rows must match mode-2");
    debug_assert_eq!(a.dim_z(), c.rows(), "MTTKRP: C rows must match mode-3");
    debug_assert_eq!(b.cols(), c.cols(), "MTTKRP: factor ranks must agree");
    let j = b.cols();
    let mut o = DenseMatrix::zeros(a.dim_x(), j);
    for (i, k, l, v) in a.iter() {
        let orow = &mut o.data_mut()[i * j..(i + 1) * j];
        axpy_mul3(orow, b.row(k), c.row(l), v);
    }
    o
}

pub(crate) fn check_factors(
    dim_y: usize,
    dim_z: usize,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<(), crate::KernelError> {
    crate::error::check_dim("mttkrp", "B rows vs tensor mode-2", dim_y, b.rows())?;
    crate::error::check_dim("mttkrp", "C rows vs tensor mode-3", dim_z, c.rows())?;
    crate::error::check_dim("mttkrp", "factor ranks", b.cols(), c.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{CsfTensor, TensorData};

    fn tensor() -> CooTensor3 {
        CooTensor3::from_quads(
            4,
            3,
            5,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 2, 2.0),
                (1, 1, 1, 3.0),
                (2, 2, 4, -2.0),
                (3, 0, 3, 0.5),
                (3, 2, 3, 1.5),
            ],
        )
        .unwrap()
    }

    fn factors() -> (DenseMatrix, DenseMatrix) {
        let b = DenseMatrix::from_vec(3, 2, (0..6).map(|i| i as f64 + 1.0).collect()).unwrap();
        let c = DenseMatrix::from_vec(5, 2, (0..10).map(|i| (i as f64) - 4.0).collect()).unwrap();
        (b, c)
    }

    fn naive(a: &CooTensor3, b: &DenseMatrix, c: &DenseMatrix) -> DenseMatrix {
        let j = b.cols();
        let mut o = DenseMatrix::zeros(a.dim_x(), j);
        for i in 0..a.dim_x() {
            for jj in 0..j {
                let mut acc = 0.0;
                for k in 0..a.dim_y() {
                    for l in 0..a.dim_z() {
                        acc += a.get(i, k, l) * b.get(k, jj) * c.get(l, jj);
                    }
                }
                o.set(i, jj, acc);
            }
        }
        o
    }

    #[test]
    fn coo_matches_naive() {
        let a = tensor();
        let (b, c) = factors();
        assert_eq!(coo(&a, &b, &c), naive(&a, &b, &c));
    }

    #[test]
    fn csf_matches_coo() {
        let a = tensor();
        let (b, c) = factors();
        let csf = TensorData::Csf(CsfTensor::from_coo(&a));
        let coo_result = crate::mttkrp(&TensorData::Coo(a), &b, &c).unwrap();
        let csf_result = crate::mttkrp(&csf, &b, &c).unwrap();
        assert!(csf_result.approx_eq(&coo_result, 1e-12));
    }

    #[test]
    fn empty_tensor_gives_zero() {
        let a = CooTensor3::empty(3, 3, 5);
        let (b, c) = factors();
        assert_eq!(coo(&a, &b, &c), DenseMatrix::zeros(3, 2));
    }

    #[test]
    fn rank_mismatch_is_a_shape_error() {
        let a = tensor();
        let b = DenseMatrix::zeros(3, 2);
        let c = DenseMatrix::zeros(5, 3);
        assert!(matches!(
            check_factors(a.dim_y(), a.dim_z(), &b, &c),
            Err(crate::KernelError::ShapeMismatch {
                what: "factor ranks",
                ..
            })
        ));
    }
}
