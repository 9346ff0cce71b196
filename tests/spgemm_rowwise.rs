//! Row-wise-product SpGEMM acceptance suite: for **every** pair of
//! matrix compression formats, the row-wise dataflow must equal Gustavson's
//! `spgemm` bit-for-bit (same CSR structure, same value bits — the merge
//! replays Gustavson's exact addition order), and both must equal the
//! dense reference on integer-valued fixtures. Degenerate shapes (empty
//! operands, an oversized stationary operand far wider than its nonzero
//! count) ride the same assertions.

use sparseflex::formats::{CooMatrix, MatrixData, MatrixFormat, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::{spgemm, spgemm_with, SpgemmAlgo};

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

/// Deterministic integer-valued fixture (exact in f64, so bit-for-bit
/// equality is meaningful; includes values that cancel in the products).
fn fixture(rows: usize, cols: usize, nnz: usize, seed: u64) -> CooMatrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let triplets: Vec<(usize, usize, f64)> = (0..nnz)
        .map(|_| {
            let r = (next() % rows as u64) as usize;
            let c = (next() % cols as u64) as usize;
            let v = (next() % 17) as f64 - 8.0;
            (r, c, v)
        })
        .collect();
    CooMatrix::from_triplets(rows, cols, triplets).unwrap()
}

fn assert_pairwise(a_coo: &CooMatrix, b_coo: &CooMatrix, label: &str) {
    let reference = gemm_naive(&a_coo.clone().into_dense(), &b_coo.clone().into_dense());
    for fa in matrix_formats() {
        for fb in matrix_formats() {
            let a = MatrixData::encode(a_coo, &fa).unwrap();
            let b = MatrixData::encode(b_coo, &fb).unwrap();
            let g = spgemm(&a, &b).unwrap();
            let r = spgemm_with(&a, &b, SpgemmAlgo::RowWise).unwrap();
            assert_eq!(r, g, "{label}: rowwise != gustavson for ({fa}, {fb})");
            assert_eq!(
                g.to_dense(),
                reference,
                "{label}: gustavson != dense reference for ({fa}, {fb})"
            );
            // The explicit-algo entry point routes identically.
            assert_eq!(
                spgemm_with(&a, &b, SpgemmAlgo::RowWise).unwrap(),
                r,
                "{label}: spgemm_with(RowWise) for ({fa}, {fb})"
            );
        }
    }
}

#[test]
fn rowwise_matches_gustavson_and_dense_across_all_format_pairs() {
    let a = fixture(9, 7, 26, 1);
    let b = fixture(7, 11, 24, 2);
    assert_pairwise(&a, &b, "general");
}

#[test]
fn rowwise_handles_empty_operands_across_all_format_pairs() {
    // Empty A against populated B, populated A against empty B, and
    // empty against empty.
    let empty_a = CooMatrix::empty(6, 5);
    let empty_b = CooMatrix::empty(5, 8);
    let a = fixture(6, 5, 14, 3);
    let b = fixture(5, 8, 14, 4);
    assert_pairwise(&empty_a, &b, "empty_a");
    assert_pairwise(&a, &empty_b, "empty_b");
    assert_pairwise(&empty_a, &empty_b, "both_empty");
}

#[test]
fn rowwise_handles_oversized_stationary_operand() {
    // A hyper-sparse stationary B far wider than its nonzero count: the
    // regime the row-wise dataflow exists for (its scratch is the row
    // fan-out, not B's width). 9x9 format pairs on a 600-col B is the
    // expensive corner, so this fixture stays small in nnz.
    let a = fixture(8, 10, 18, 5);
    let b = fixture(10, 600, 20, 6);
    assert_pairwise(&a, &b, "oversized_b");
}
