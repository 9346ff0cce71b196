//! Property tests on MINT: every conversion of the hardware block engine
//! must keep its input's entries exactly, and its metering must behave
//! monotonically.

use proptest::prelude::*;
use sparseflex::formats::{
    CooMatrix, CsrMatrix, MatrixData, MatrixFormat, RlcMatrix, SparseMatrix,
};
use sparseflex::mint::ConversionEngine;

fn arb_matrix() -> impl Strategy<Value = CooMatrix> {
    (1usize..20, 1usize..20).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            ((0..r), (0..c), 1i32..50).prop_map(|(i, j, v)| (i, j, v as f64)),
            0..50,
        )
        .prop_map(move |t| CooMatrix::from_triplets(r, c, t).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engine_csr_to_csc_equals_software(coo in arb_matrix()) {
        let engine = ConversionEngine::default();
        let csr = CsrMatrix::from_coo(&coo);
        let (hw, _) = engine.csr_to_csc(&csr);
        prop_assert_eq!(hw.to_coo(), coo);
    }

    #[test]
    fn engine_rlc_to_coo_equals_software(coo in arb_matrix(), run_bits in 2u32..6) {
        let engine = ConversionEngine::default();
        let rlc = RlcMatrix::from_coo(&coo, run_bits);
        let (hw, _) = engine.rlc_to_coo(&rlc);
        prop_assert_eq!(hw, coo);
    }

    #[test]
    fn engine_generic_path_preserves_data(coo in arb_matrix()) {
        let engine = ConversionEngine::default();
        for src in MatrixFormat::mcf_set() {
            let data = MatrixData::encode(&coo, &src).unwrap();
            for dst in MatrixFormat::acf_set() {
                let (out, rep) = engine.convert_matrix(&data, &dst).unwrap();
                prop_assert_eq!(out.to_coo(), coo.clone(), "{} -> {}", src, dst);
                if src == dst {
                    prop_assert_eq!(rep.serialized_cycles(), 0);
                }
            }
        }
    }

    #[test]
    fn csr_to_bsr_engine_equals_software(coo in arb_matrix(), br in 1usize..4, bc in 1usize..4) {
        let engine = ConversionEngine::default();
        let csr = CsrMatrix::from_coo(&coo);
        let (hw, _) = engine.csr_to_bsr(&csr, br, bc).unwrap();
        prop_assert_eq!(hw.block_shape(), (br, bc));
        prop_assert_eq!(hw.num_block_rows(), coo.rows().div_ceil(br));
        prop_assert_eq!(hw.to_coo(), coo);
    }

    #[test]
    fn pipelined_cycles_never_exceed_serialized(coo in arb_matrix()) {
        let engine = ConversionEngine::default();
        let csr = CsrMatrix::from_coo(&coo);
        let (_, rep) = engine.csr_to_csc(&csr);
        prop_assert!(rep.pipelined_cycles() <= rep.serialized_cycles());
        prop_assert!(rep.total_energy() >= 0.0);
    }
}

mod tensor_conversions {
    use proptest::prelude::*;
    use sparseflex::formats::{CooTensor3, SparseTensor3, TensorData, TensorFormat};
    use sparseflex::mint::ConversionEngine;

    fn arb_tensor() -> impl Strategy<Value = CooTensor3> {
        (1usize..8, 1usize..8, 1usize..8).prop_flat_map(|(x, y, z)| {
            proptest::collection::vec(
                ((0..x), (0..y), (0..z), 1i32..20).prop_map(|(a, b, c, v)| (a, b, c, v as f64)),
                0..30,
            )
            .prop_map(move |q| CooTensor3::from_quads(x, y, z, q).unwrap())
        })
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn engine_tensor_conversions_preserve_data(coo in arb_tensor()) {
            let engine = ConversionEngine::default();
            for src in tensor_formats() {
                let data = TensorData::encode(&coo, &src).unwrap();
                for dst in tensor_formats() {
                    let (out, rep) = engine.convert_tensor(&data, &dst).unwrap();
                    prop_assert_eq!(out.to_coo(), coo.clone(), "{} -> {}", src, dst);
                    if src == dst {
                        prop_assert_eq!(rep.serialized_cycles(), 0);
                    } else {
                        prop_assert!(rep.pipelined_cycles() > 0);
                    }
                }
            }
        }
    }
}
