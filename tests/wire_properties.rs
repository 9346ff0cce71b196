//! Property tests on the serving wire format, on the frames the service
//! reads and writes: job frames round-trip operands in every matrix
//! format in the workspace, result frames round-trip bit for bit, and
//! hostile bytes (truncation, single-byte garbles, bad counts, random
//! bodies) are rejected from both kinds with typed errors — never panics,
//! also when an edit recomputes the checksum.

use proptest::prelude::*;
use sparseflex::formats::{
    fnv1a, CooMatrix, CooTensor3, DataType, MatrixData, MatrixFormat, SparseMatrix, SparseTensor3,
    TensorData, TensorFormat,
};
use sparseflex::serve::wire;
use sparseflex::serve::{Priority, WireError, WireJob, WireResult};

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

/// A job with operand A in `fa` and operand B in `fb`.
fn job(a: &CooMatrix, fa: &MatrixFormat, b: &CooMatrix, fb: &MatrixFormat) -> WireJob {
    WireJob {
        tenant: 7,
        priority: Priority::Normal,
        dtype: DataType::Fp32,
        a: MatrixData::encode(a, fa).unwrap(),
        b: MatrixData::encode(b, fb).unwrap(),
    }
}

/// One job per matrix format, with A in that format and B in the next
/// one along, so every format travels in both operand positions.
fn jobs(coo: &CooMatrix) -> Vec<WireJob> {
    let formats = all_matrix_formats();
    let n = formats.len();
    (0..n)
        .map(|i| job(coo, &formats[i], coo, &formats[(i + 1) % n]))
        .collect()
}

type Decode = fn(&[u8]) -> Result<(), WireError>;

/// Every frame the service reads or writes for `coo`, each beside its
/// decoder: one job frame per format, then the result frame.
fn frames(coo: &CooMatrix) -> Vec<(Vec<u8>, Decode)> {
    let mut out: Vec<(Vec<u8>, Decode)> = jobs(coo)
        .iter()
        .map(|j| {
            (
                wire::encode_job(j).unwrap(),
                (|b| wire::decode_job(b).map(drop)) as Decode,
            )
        })
        .collect();
    let res = WireResult {
        job_id: 0xfeed,
        output: coo.clone().into_dense(),
    };
    out.push((wire::encode_result(&res).unwrap(), |b| {
        wire::decode_result(b).map(drop)
    }));
    out
}

/// Recompute a frame's body checksum after an edit, so the edit is the
/// only thing wrong with the frame.
fn rechecksum(frame: &mut [u8]) {
    let sum = fnv1a(&frame[wire::HEADER_LEN..]);
    frame[8..16].copy_from_slice(&sum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wire_roundtrips_every_matrix_format(coo in arb_matrix()) {
        for job in jobs(&coo) {
            let back = wire::decode_job(&wire::encode_job(&job).unwrap()).unwrap();
            prop_assert_eq!(&back, &job, "job with A in {}", job.a.format());
        }
    }

    #[test]
    fn job_frames_roundtrip(
        a in arb_matrix(),
        b in arb_matrix(),
        fa in 0usize..9,
        fb in 0usize..9,
        pri in 0u8..3,
        dt in 0usize..6,
    ) {
        let dtypes = [
            DataType::Int8, DataType::Int16, DataType::Bf16,
            DataType::Int32, DataType::Fp32, DataType::Fp64,
        ];
        let formats = all_matrix_formats();
        let job = WireJob {
            tenant: 7,
            priority: match pri { 0 => Priority::High, 1 => Priority::Normal, _ => Priority::Low },
            dtype: dtypes[dt],
            ..job(&a, &formats[fa], &b, &formats[fb])
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
    fn result_frames_roundtrip_bit_for_bit(coo in arb_matrix(), job_id in 0u64..u64::MAX) {
        let output = coo.into_dense();
        let frame = wire::encode_result(&WireResult { job_id, output: output.clone() }).unwrap();
        prop_assert_eq!(frame.len(), wire::HEADER_LEN + 8 + 16 + 8 * output.data().len());
        prop_assert_eq!(frame.capacity(), frame.len());
        let back = wire::decode_result(&frame).unwrap();
        prop_assert_eq!(back.job_id, job_id);
        prop_assert_eq!((back.output.rows(), back.output.cols()), (output.rows(), output.cols()));
        let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(back.output.data()), bits(output.data()));
    }

    #[test]
    fn every_truncation_is_a_typed_error(coo in arb_matrix()) {
        for (frame, decode) in frames(&coo) {
            for len in 0..frame.len() {
                // Never panics; always a typed error.
                prop_assert!(decode(&frame[..len]).is_err());
            }
        }
    }

    #[test]
    fn every_single_byte_garble_is_rejected(coo in arb_matrix(), flip in 1i32..256) {
        let flip = flip as u8;
        for (frame, decode) in frames(&coo) {
            for i in 0..frame.len() {
                let mut garbled = frame.clone();
                garbled[i] ^= flip;
                prop_assert!(
                    decode(&garbled).is_err(),
                    "garble at byte {} (xor {:#04x}) of kind {} was accepted",
                    i,
                    flip,
                    frame[5]
                );
            }
        }
    }

    /// A garble that keeps the checksum right, as an edit would: the
    /// frame decodes or fails typed, and no shape it states makes the
    /// decoder allocate past the wire's cell bound.
    #[test]
    fn every_rechecksummed_garble_is_typed(
        coo in arb_matrix(),
        at in 0usize..1 << 16,
        flip in 1i32..256,
    ) {
        for (frame, decode) in frames(&coo) {
            let mut garbled = frame.clone();
            garbled[wire::HEADER_LEN + at % (frame.len() - wire::HEADER_LEN)] ^= flip as u8;
            rechecksum(&mut garbled);
            let _ = decode(&garbled);
        }
    }

    #[test]
    fn random_bytes_never_panic(raw in proptest::collection::vec(0i32..256, 0..256)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        let _ = wire::decode_job(&bytes);
        let _ = wire::decode_result(&bytes);
        // The same bytes as the checksummed body of a well-formed header,
        // so the body parsers see them too.
        for (header, decode) in frames(&CooMatrix::empty(1, 1)) {
            let mut frame = header[..wire::HEADER_LEN].to_vec();
            frame.extend_from_slice(&bytes);
            rechecksum(&mut frame);
            let _ = decode(&frame);
        }
    }
}

#[test]
fn typed_errors_name_the_failure() {
    let coo = CooMatrix::from_triplets(3, 3, vec![(0, 1, 2.0), (2, 2, -1.0)]).unwrap();
    let frames = frames(&coo);
    let (job_frame, res_frame) = (&frames[0].0, &frames[frames.len() - 1].0);

    // A job frame is not a result frame, nor the other way round.
    assert!(matches!(
        wire::decode_job(res_frame),
        Err(WireError::WrongKind {
            expected: 2,
            found: 3
        })
    ));
    assert!(matches!(
        wire::decode_result(job_frame),
        Err(WireError::WrongKind {
            expected: 3,
            found: 2
        })
    ));

    for (frame, decode) in &frames {
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), Err(WireError::BadMagic));

        // Every other version is typed, the previous one (1) included.
        for version in [1, 99] {
            let mut bad_version = frame.clone();
            bad_version[4] = version;
            assert_eq!(
                decode(&bad_version),
                Err(WireError::UnsupportedVersion(version))
            );
        }

        let mut bad_reserved = frame.clone();
        bad_reserved[6] = 1;
        assert!(matches!(
            decode(&bad_reserved),
            Err(WireError::ReservedNonZero { .. })
        ));

        let mut garbled = frame.clone();
        garbled[wire::HEADER_LEN + 9] ^= 1;
        assert!(matches!(
            decode(&garbled),
            Err(WireError::ChecksumMismatch { .. })
        ));

        let mut trailing = frame.clone();
        trailing.push(0);
        rechecksum(&mut trailing);
        assert_eq!(
            decode(&trailing),
            Err(WireError::TrailingBytes { extra: 1 })
        );

        // A shape field claiming more values than the frame holds fails
        // before anything is sized from it.
        let mut short = frame.clone();
        short.truncate(short.len() - 8);
        rechecksum(&mut short);
        assert!(matches!(decode(&short), Err(WireError::Truncated { .. })));
    }
}

/// Rewrite operand A's RLC run field and re-checksum the body, so the
/// field is the only thing wrong with the frame. The field sits at frame
/// bytes 23..27: after the header, the 6 bytes of tenant, priority and
/// datatype, and A's format tag.
fn with_run_bits(frame: &[u8], run_bits: u32) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[23..27].copy_from_slice(&run_bits.to_le_bytes());
    rechecksum(&mut out);
    out
}

#[test]
fn rlc_run_fields_wider_than_63_bits_are_rejected() {
    let coo = CooMatrix::from_triplets(4, 5, vec![(0, 1, 2.0), (3, 4, -1.0)]).unwrap();
    let rlc = MatrixFormat::Rlc { run_bits: 4 };
    let frame = wire::encode_job(&job(&coo, &rlc, &coo, &MatrixFormat::Csr)).unwrap();
    for run_bits in [64, u32::MAX] {
        assert!(
            matches!(
                wire::decode_job(&with_run_bits(&frame, run_bits)),
                Err(WireError::Format(_))
            ),
            "matrix run field of {run_bits} bits must be rejected"
        );
    }
    let widest = wire::decode_job(&with_run_bits(&frame, 63)).unwrap().a;
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
