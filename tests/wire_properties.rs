//! Property tests on the serving wire format: encode→decode is lossless
//! for every matrix format in the workspace, job frames round-trip, and
//! hostile bytes (truncation, single-byte garbles, bad counts) are
//! rejected with typed errors — never panics.

use proptest::prelude::*;
use sparseflex::formats::{
    fnv1a, CooMatrix, CooTensor3, DataType, MatrixData, MatrixFormat, SparseMatrix, SparseTensor3,
    TensorData, TensorFormat,
};
use sparseflex::serve::wire;
use sparseflex::serve::{Priority, WireError, WireJob};

/// Strategy: a random sparse matrix up to 20x20.
fn arb_matrix() -> impl Strategy<Value = CooMatrix> {
    (1usize..20, 1usize..20).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            ((0..r), (0..c), -100i32..100).prop_map(|(i, j, v)| (i, j, v as f64)),
            0..36,
        )
        .prop_map(move |trips| {
            CooMatrix::from_triplets(r, c, trips).expect("in-bounds by construction")
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wire_roundtrips_every_matrix_format(coo in arb_matrix()) {
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let frame = wire::encode_matrix(&data).unwrap();
            let back = wire::decode_matrix(&frame).unwrap();
            prop_assert_eq!(&back, &data, "wire roundtrip failed for {}", fmt);
        }
    }

    #[test]
    fn job_frames_roundtrip(a in arb_matrix(), b in arb_matrix(), pri in 0u8..3, dt in 0usize..6) {
        let dtypes = [
            DataType::Int8, DataType::Int16, DataType::Bf16,
            DataType::Int32, DataType::Fp32, DataType::Fp64,
        ];
        let job = WireJob {
            tenant: 7,
            priority: match pri { 0 => Priority::High, 1 => Priority::Normal, _ => Priority::Low },
            dtype: dtypes[dt],
            a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
            b: MatrixData::encode(&b, &MatrixFormat::Coo).unwrap(),
        };
        let frame = wire::encode_job(&job).unwrap();
        let back = wire::decode_job(&frame).unwrap();
        prop_assert_eq!(back.tenant, job.tenant);
        prop_assert_eq!(back.priority, job.priority);
        prop_assert_eq!(back.dtype, job.dtype);
        prop_assert_eq!(&back.a, &job.a);
        prop_assert_eq!(&back.b, &job.b);
    }

    #[test]
    fn every_truncation_is_a_typed_error(coo in arb_matrix()) {
        let data = MatrixData::encode(&coo, &MatrixFormat::Zvc).unwrap();
        let frame = wire::encode_matrix(&data).unwrap();
        for len in 0..frame.len() {
            // Never panics; always a typed error.
            prop_assert!(wire::decode_matrix(&frame[..len]).is_err());
        }
    }

    #[test]
    fn every_single_byte_garble_is_rejected(coo in arb_matrix(), flip in 1i32..256) {
        let flip = flip as u8;
        let data = MatrixData::encode(&coo, &MatrixFormat::Csr).unwrap();
        let frame = wire::encode_matrix(&data).unwrap();
        for i in 0..frame.len() {
            let mut garbled = frame.clone();
            garbled[i] ^= flip;
            prop_assert!(
                wire::decode_matrix(&garbled).is_err(),
                "garble at byte {} (xor {:#04x}) was accepted",
                i,
                flip
            );
        }
    }

    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(0i32..256, 0..256)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let _ = wire::decode_matrix(&bytes);
        let _ = wire::decode_job(&bytes);
        let _ = wire::decode_result(&bytes);
    }
}

#[test]
fn typed_errors_name_the_failure() {
    let coo = CooMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (2, 2, -1.0)]).unwrap();
    let data = MatrixData::encode(&coo, &MatrixFormat::Coo).unwrap();
    let frame = wire::encode_matrix(&data).unwrap();

    let mut bad_magic = frame.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        wire::decode_matrix(&bad_magic),
        Err(WireError::BadMagic)
    ));

    let mut bad_version = frame.clone();
    bad_version[4] = 99;
    assert!(matches!(
        wire::decode_matrix(&bad_version),
        Err(WireError::UnsupportedVersion(99))
    ));

    // A matrix frame is not a job frame.
    assert!(matches!(
        wire::decode_job(&frame),
        Err(WireError::WrongKind { .. })
    ));

    let mut bad_reserved = frame.clone();
    bad_reserved[6] = 1;
    assert!(matches!(
        wire::decode_matrix(&bad_reserved),
        Err(WireError::ReservedNonZero { .. })
    ));

    let mut trailing = frame.clone();
    trailing.push(0);
    assert!(matches!(
        wire::decode_matrix(&trailing),
        Err(WireError::ChecksumMismatch { .. }) | Err(WireError::TrailingBytes { .. })
    ));
}

/// Rewrite an RLC frame's run field (frame bytes 17..21, right after the
/// format tag) and re-checksum the body, so the field is the only thing
/// wrong with the frame.
fn with_run_bits(frame: &[u8], run_bits: u32) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[17..21].copy_from_slice(&run_bits.to_le_bytes());
    let sum = fnv1a(&out[wire::HEADER_LEN..]);
    out[8..16].copy_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn rlc_run_fields_wider_than_63_bits_are_rejected() {
    let coo = CooMatrix::from_triplets(4, 5, vec![(0, 1, 2.0), (3, 4, -1.0)]).unwrap();
    let data = MatrixData::encode(&coo, &MatrixFormat::Rlc { run_bits: 4 }).unwrap();
    let frame = wire::encode_matrix(&data).unwrap();
    for run_bits in [64, u32::MAX] {
        assert!(
            matches!(
                wire::decode_matrix(&with_run_bits(&frame, run_bits)),
                Err(WireError::Format(_))
            ),
            "matrix run field of {run_bits} bits must be rejected"
        );
    }
    let widest = wire::decode_matrix(&with_run_bits(&frame, 63)).unwrap();
    assert_eq!(widest.format(), MatrixFormat::Rlc { run_bits: 63 });
    assert_eq!(widest.to_coo(), coo);

    // The tensor encoder applies the same guard.
    let coo = CooTensor3::from_quads(3, 4, 5, vec![(0, 1, 2, 2.0), (2, 3, 4, -1.0)]).unwrap();
    for run_bits in [64, u32::MAX] {
        assert!(
            TensorData::encode(&coo, &TensorFormat::Rlc { run_bits }).is_err(),
            "tensor run field of {run_bits} bits must be rejected"
        );
    }
    let widest = TensorData::encode(&coo, &TensorFormat::Rlc { run_bits: 63 }).unwrap();
    assert_eq!(widest.format(), TensorFormat::Rlc { run_bits: 63 });
    assert_eq!(widest.to_coo(), coo);
}
