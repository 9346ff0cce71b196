//! Cross-format property suite for the streaming kernel API: every
//! format-generic kernel, over **every** `MatrixFormat` / `TensorFormat`
//! variant, must match the dense reference result bit-for-bit on the
//! integer-valued fixtures proptest generates (integer arithmetic in f64
//! is exact, so any divergence is a traversal or dispatch bug, not
//! rounding).
//!
//! This is the acceptance gate for the fiber-stream redesign: a format
//! whose `RowMajorStream` / `FiberStream3` implementation dropped,
//! duplicated, or reordered an element fails here immediately, as does a
//! fast-path specialization that disagrees with the generic stream path.

use proptest::prelude::*;
use sparseflex::formats::{
    CooMatrix, CooTensor3, DenseMatrix, MatrixData, MatrixFormat, SparseMatrix, TensorData,
    TensorFormat,
};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::{
    mttkrp, mttkrp_via_stream, spgemm, spmm, spmm_sparse_b, spmm_via_stream, spmv, spmv_via_stream,
    spttm,
};

/// Every matrix format variant (structural parameters chosen to exercise
/// ragged block edges and saturating RLC runs).
fn matrix_formats() -> Vec<MatrixFormat> {
    vec![
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 3, bc: 2 },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits: 3 },
        MatrixFormat::Zvc,
    ]
}

/// Every tensor format variant.
fn tensor_formats() -> Vec<TensorFormat> {
    vec![
        TensorFormat::Dense,
        TensorFormat::Coo,
        TensorFormat::Csf,
        TensorFormat::HiCoo { block: 2 },
        TensorFormat::Rlc { run_bits: 3 },
        TensorFormat::Zvc,
    ]
}

fn arb_sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    proptest::collection::vec(
        ((0..rows), (0..cols), -8i32..8).prop_map(|(r, c, v)| (r, c, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |t| CooMatrix::from_triplets(rows, cols, t).unwrap())
}

fn arb_dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-8i32..8, rows * cols).prop_map(move |v| {
        DenseMatrix::from_vec(rows, cols, v.into_iter().map(|x| x as f64).collect()).unwrap()
    })
}

fn arb_tensor(
    dx: usize,
    dy: usize,
    dz: usize,
    max_nnz: usize,
) -> impl Strategy<Value = CooTensor3> {
    proptest::collection::vec(
        ((0..dx), (0..dy), (0..dz), -5i32..5).prop_map(|(x, y, z, v)| (x, y, z, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |q| CooTensor3::from_quads(dx, dy, dz, q).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmv_matches_dense_reference_in_every_format(
        a in arb_sparse(9, 11, 40),
        x in proptest::collection::vec(-8i32..8, 11),
    ) {
        let xf: Vec<f64> = x.into_iter().map(|v| v as f64).collect();
        let dense = a.clone().into_dense();
        let expect: Vec<f64> = (0..9)
            .map(|r| (0..11).map(|c| dense.get(r, c) * xf[c]).sum())
            .collect();
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&a, &fmt).unwrap();
            prop_assert_eq!(&spmv(&data, &xf).unwrap(), &expect, "spmv({})", fmt);
            prop_assert_eq!(
                &spmv_via_stream(&data, &xf).unwrap(),
                &expect,
                "spmv_via_stream({})",
                fmt
            );
        }
    }

    #[test]
    fn spmm_matches_dense_reference_in_every_format(
        a in arb_sparse(10, 8, 36),
        b in arb_dense(8, 5),
    ) {
        let expect = gemm_naive(&a.clone().into_dense(), &b);
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&a, &fmt).unwrap();
            prop_assert_eq!(spmm(&data, &b).unwrap(), expect.clone(), "spmm({})", fmt);
            prop_assert_eq!(
                spmm_via_stream(&data, &b).unwrap(),
                expect.clone(),
                "spmm_via_stream({})",
                fmt
            );
        }
    }

    #[test]
    fn spmm_sparse_b_matches_dense_reference_in_every_format(
        a in arb_dense(6, 10),
        b in arb_sparse(10, 7, 32),
    ) {
        let expect = gemm_naive(&a, &b.clone().into_dense());
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&b, &fmt).unwrap();
            prop_assert_eq!(
                spmm_sparse_b(&a, &data).unwrap(),
                expect.clone(),
                "spmm_sparse_b({})",
                fmt
            );
        }
    }

    #[test]
    fn spgemm_matches_dense_reference_in_every_format(
        a in arb_sparse(8, 9, 30),
        b in arb_sparse(9, 7, 30),
    ) {
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        // Vary A across every format against CSR B (the stationary side
        // Gustavson indexes), then vary B across every format with both
        // operands in the same format — covering each variant on each side.
        let b_csr = MatrixData::encode(&b, &MatrixFormat::Csr).unwrap();
        for fmt in matrix_formats() {
            let a_data = MatrixData::encode(&a, &fmt).unwrap();
            prop_assert_eq!(
                spgemm(&a_data, &b_csr).unwrap().to_dense(),
                expect.clone(),
                "spgemm({}, CSR)",
                fmt
            );
            let b_data = MatrixData::encode(&b, &fmt).unwrap();
            prop_assert_eq!(
                spgemm(&a_data, &b_data).unwrap().to_dense(),
                expect.clone(),
                "spgemm({fmt}, {fmt})",
                fmt = fmt
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spttm_matches_dense_reference_in_every_format(
        t in arb_tensor(5, 4, 6, 28),
        factor in proptest::collection::vec(-5i32..5, 6 * 3),
    ) {
        let f =
            DenseMatrix::from_vec(6, 3, factor.into_iter().map(|v| v as f64).collect()).unwrap();
        let dense = t.clone().into_dense();
        let mut expect = sparseflex::formats::tensor::DenseTensor3::zeros(5, 4, 3);
        for x in 0..5 {
            for y in 0..4 {
                for j in 0..3 {
                    let acc: f64 = (0..6)
                        .map(|z| {
                            sparseflex::formats::SparseTensor3::get(&dense, x, y, z) * f.get(z, j)
                        })
                        .sum();
                    expect.set(x, y, j, acc);
                }
            }
        }
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            prop_assert_eq!(spttm(&data, &f).unwrap(), expect.clone(), "spttm({})", fmt);
        }
    }

    #[test]
    fn mttkrp_matches_dense_reference_in_every_format(
        t in arb_tensor(5, 4, 6, 28),
        bm in proptest::collection::vec(-5i32..5, 4 * 3),
        cm in proptest::collection::vec(-5i32..5, 6 * 3),
    ) {
        let b = DenseMatrix::from_vec(4, 3, bm.into_iter().map(|v| v as f64).collect()).unwrap();
        let c = DenseMatrix::from_vec(6, 3, cm.into_iter().map(|v| v as f64).collect()).unwrap();
        let dense = t.clone().into_dense();
        let mut expect = DenseMatrix::zeros(5, 3);
        for i in 0..5 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..4 {
                    for l in 0..6 {
                        acc += sparseflex::formats::SparseTensor3::get(&dense, i, k, l)
                            * b.get(k, j)
                            * c.get(l, j);
                    }
                }
                expect.set(i, j, acc);
            }
        }
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            prop_assert_eq!(
                mttkrp(&data, &b, &c).unwrap(),
                expect.clone(),
                "mttkrp({})",
                fmt
            );
            prop_assert_eq!(
                mttkrp_via_stream(&data, &b, &c).unwrap(),
                expect.clone(),
                "mttkrp_via_stream({})",
                fmt
            );
        }
    }
}
