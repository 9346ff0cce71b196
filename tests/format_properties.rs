//! Property tests on the compression formats: every format round-trips
//! arbitrary matrices/tensors, conversion composition is the identity,
//! and the exact size model agrees with the analytic one where it must.

use proptest::prelude::*;
use sparseflex::formats::size_model::{matrix_storage_bits, matrix_storage_bits_exact};
use sparseflex::formats::{
    CooMatrix, CooTensor3, DataType, MatrixData, MatrixFormat, SparseMatrix, SparseTensor3,
    TensorData, TensorFormat,
};

/// Strategy: a random sparse matrix up to 24x24.
fn arb_matrix() -> impl Strategy<Value = CooMatrix> {
    (1usize..24, 1usize..24).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            ((0..r), (0..c), -100i32..100).prop_map(|(i, j, v)| (i, j, v as f64)),
            0..40,
        )
        .prop_map(move |trips| {
            CooMatrix::from_triplets(r, c, trips).expect("in-bounds by construction")
        })
    })
}

fn arb_tensor() -> impl Strategy<Value = CooTensor3> {
    (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(x, y, z)| {
        proptest::collection::vec(
            ((0..x), (0..y), (0..z), -50i32..50).prop_map(|(a, b, c, v)| (a, b, c, v as f64)),
            0..30,
        )
        .prop_map(move |quads| {
            CooTensor3::from_quads(x, y, z, quads).expect("in-bounds by construction")
        })
    })
}

fn all_matrix_formats() -> Vec<MatrixFormat> {
    vec![
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 2, bc: 3 },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits: 3 },
        MatrixFormat::Zvc,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_format_roundtrips(coo in arb_matrix()) {
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            prop_assert_eq!(data.to_coo(), coo.clone(), "roundtrip failed for {}", fmt);
        }
    }

    #[test]
    fn conversion_composition_is_identity(coo in arb_matrix()) {
        // X -> Y -> X preserves the logical matrix for every pair, and
        // X -> Y builds exactly Y's encoding of the same COO.
        let formats = all_matrix_formats();
        for src in &formats {
            let original = MatrixData::encode(&coo, src).unwrap();
            for dst in &formats {
                let there = original.convert_to(dst).unwrap();
                let encoded = MatrixData::encode(&coo, dst).unwrap();
                prop_assert_eq!(&there, &encoded, "{} -> {}", src, dst);
                let back = there.convert_to(src).unwrap();
                prop_assert_eq!(back.to_coo(), coo.clone(), "{} -> {} -> {}", src, dst, src);
            }
        }
    }

    #[test]
    fn random_access_agrees_across_formats(coo in arb_matrix()) {
        let encodings: Vec<MatrixData> = all_matrix_formats()
            .iter()
            .map(|f| MatrixData::encode(&coo, f).unwrap())
            .collect();
        for r in 0..coo.rows() {
            for c in 0..coo.cols() {
                let expect = coo.get(r, c);
                for e in &encodings {
                    prop_assert_eq!(e.get(r, c), expect, "format {} at ({},{})", e.format(), r, c);
                }
            }
        }
    }

    #[test]
    fn exact_size_matches_analytic_for_unstructured(coo in arb_matrix()) {
        for fmt in [MatrixFormat::Dense, MatrixFormat::Coo, MatrixFormat::Csr, MatrixFormat::Csc, MatrixFormat::Zvc] {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            prop_assert_eq!(
                matrix_storage_bits_exact(&data, DataType::Fp32),
                matrix_storage_bits(&fmt, coo.rows(), coo.cols(), coo.nnz(), DataType::Fp32),
                "size mismatch for {}", fmt
            );
        }
    }

    #[test]
    fn tensor_formats_roundtrip(coo in arb_tensor()) {
        let formats = [
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 4 },
            TensorFormat::Rlc { run_bits: 4 },
            TensorFormat::Zvc,
        ];
        for fmt in formats {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            prop_assert_eq!(data.to_coo(), coo.clone(), "tensor roundtrip failed for {}", fmt);
            prop_assert_eq!(data.nnz(), coo.nnz());
        }
    }

    #[test]
    fn transpose_involution(coo in arb_matrix()) {
        let dense = coo.into_dense();
        prop_assert_eq!(dense.transpose().transpose(), dense);
    }
}
