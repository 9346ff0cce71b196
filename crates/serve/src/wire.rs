//! The compact binary wire format jobs and results travel in.
//!
//! Every frame shares one fixed 16-byte header:
//!
//! | offset | size | field                                          |
//! |-------:|-----:|------------------------------------------------|
//! |      0 |    4 | magic `b"SFLX"`                                 |
//! |      4 |    1 | version (`WIRE_VERSION`)                        |
//! |      5 |    1 | kind (0 matrix, 2 job, 3 result)                |
//! |      6 |    2 | reserved (must be zero)                         |
//! |      8 |    8 | FNV-1a checksum of the body, little-endian      |
//! |     16 |    — | body (kind-specific)                            |
//!
//! A **matrix body** is a format tag (+ structural parameters), a
//! `rows`/`cols` shape header, then the payload: Dense frames carry the
//! full row-major value array; every sparse format carries its canonical
//! COO triplet arrays (`nnz`, row ids, col ids, values — indices as
//! `u32`, values as IEEE-754 `f64` bit patterns). Decoding re-encodes
//! the triplets into the tagged format, which is lossless because every
//! format in the workspace round-trips exactly through the COO hub (the
//! invariant `formats::roundtrip_tests` pins). A **job body** carries
//! tenant, priority and datatype plus two embedded matrix frames; a
//! **result body** carries the job id and the embedded Dense output
//! frame.
//!
//! Malformed input never panics: truncation, bad magic, version or kind
//! mismatches, checksum failures, oversized counts and trailing garbage
//! all surface as typed [`WireError`]s.

use sparseflex_formats::{
    ByteError, ByteReader, ByteWriter, CooMatrix, DataType, DenseMatrix, FormatError, MatrixData,
    MatrixFormat, SparseMatrix,
};

use crate::service::Priority;

/// Frame magic: the first four bytes of every wire frame.
const WIRE_MAGIC: [u8; 4] = *b"SFLX";

/// Current wire protocol version, carried in every frame header.
const WIRE_VERSION: u8 = 1;

/// Byte length of the fixed frame header (magic + version + kind +
/// reserved + checksum).
pub const HEADER_LEN: usize = 16;

const KIND_MATRIX: u8 = 0;
const KIND_JOB: u8 = 2;
const KIND_RESULT: u8 = 3;

/// Typed decode/encode failures. Hostile bytes map to errors, never
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with `WIRE_MAGIC`.
    BadMagic,
    /// The frame's version byte is not `WIRE_VERSION`.
    UnsupportedVersion(u8),
    /// The frame is of a different kind than the decoder expected.
    WrongKind {
        /// Kind byte the decoder expected.
        expected: u8,
        /// Kind byte the frame carried.
        found: u8,
    },
    /// The body checksum does not match the header — the frame was
    /// garbled in flight.
    ChecksumMismatch {
        /// Checksum the header claims.
        expected: u64,
        /// Checksum recomputed over the received body.
        found: u64,
    },
    /// The header's reserved bytes are not zero. They are outside the
    /// body checksum, so enforcing zero keeps *every* byte of a frame
    /// covered by some validation.
    ReservedNonZero {
        /// The offending reserved field value.
        found: u16,
    },
    /// The buffer ended before a field (wraps [`ByteError::Truncated`]).
    Truncated {
        /// Bytes the field requires.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// A count or dimension exceeds what the platform or the format
    /// allows (wire indices are `u32`).
    Overflow(&'static str),
    /// An unknown format/priority/datatype tag byte.
    UnknownTag {
        /// Which tag field was bad.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes remain after a complete frame.
    TrailingBytes {
        /// How many unparsed bytes follow the frame.
        extra: usize,
    },
    /// The decoded arrays are structurally invalid (out-of-bounds or
    /// unsorted indices).
    Format(FormatError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic (expected \"SFLX\")"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::WrongKind { expected, found } => {
                write!(f, "wrong frame kind {found} (expected {expected})")
            }
            WireError::ChecksumMismatch { expected, found } => {
                write!(f, "body checksum {found:#018x} != header {expected:#018x}")
            }
            WireError::ReservedNonZero { found } => {
                write!(f, "reserved header bytes must be zero (found {found:#06x})")
            }
            WireError::Truncated { needed, available } => {
                write!(f, "frame truncated: need {needed} bytes, have {available}")
            }
            WireError::Overflow(what) => write!(f, "field overflow: {what}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
            WireError::Format(e) => write!(f, "structurally invalid payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ByteError> for WireError {
    fn from(e: ByteError) -> Self {
        match e {
            ByteError::Truncated { needed, available } => {
                WireError::Truncated { needed, available }
            }
            ByteError::Overflow(what) => WireError::Overflow(what),
        }
    }
}

impl From<FormatError> for WireError {
    fn from(e: FormatError) -> Self {
        WireError::Format(e)
    }
}

// ---------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------

/// Start a frame of the given kind: header with a checksum placeholder.
fn begin_frame(kind: u8) -> ByteWriter {
    let mut w = ByteWriter::with_capacity(64);
    w.put_bytes(&WIRE_MAGIC);
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
    w.put_u16(0); // reserved
    w.put_u64(0); // checksum, patched by finish_frame
    w
}

/// Patch the body checksum into the header and return the frame bytes.
fn finish_frame(mut w: ByteWriter) -> Vec<u8> {
    let sum = sparseflex_formats::fnv1a(&w.as_slice()[HEADER_LEN..]);
    w.patch_u64(8, sum);
    w.into_bytes()
}

/// Validate the envelope of `bytes` and return a reader positioned at
/// the body start.
fn open_frame(bytes: &[u8], expected_kind: u8) -> Result<ByteReader<'_>, WireError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take_bytes(4)?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.take_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.take_u8()?;
    if kind != expected_kind {
        return Err(WireError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let reserved = r.take_u16()?;
    if reserved != 0 {
        return Err(WireError::ReservedNonZero { found: reserved });
    }
    let expected = r.take_u64()?;
    let found = sparseflex_formats::fnv1a(&bytes[HEADER_LEN..]);
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    Ok(r)
}

/// Reject unconsumed bytes after a complete frame.
fn expect_end(r: &ByteReader<'_>) -> Result<(), WireError> {
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(())
}

fn put_dim(w: &mut ByteWriter, dim: usize) -> Result<(), WireError> {
    if dim > u32::MAX as usize {
        return Err(WireError::Overflow("dimension exceeds u32 wire indices"));
    }
    w.put_u64(dim as u64);
    Ok(())
}

/// Range-checked `usize -> u32` narrowing for wire indices: the single
/// place an encode path is allowed to cast down. Coordinates are bounded
/// by their (already-guarded) dimensions, but the check is kept total so
/// a malformed payload can never silently truncate into a frame that
/// decodes "successfully" to the wrong matrix.
fn put_u32_checked(w: &mut ByteWriter, v: usize, what: &'static str) -> Result<(), WireError> {
    w.put_u32(u32::try_from(v).map_err(|_| WireError::Overflow(what))?);
    Ok(())
}

/// Read a `u64` count and verify the remaining bytes can actually hold
/// `count * bytes_per_item` — a tampered count field fails here as
/// `Truncated` *before* any allocation is sized from it.
fn take_count(
    r: &mut ByteReader<'_>,
    what: &'static str,
    bytes_per_item: usize,
) -> Result<usize, WireError> {
    let count = r.take_len(what)?;
    let need = count
        .checked_mul(bytes_per_item)
        .ok_or(WireError::Overflow(what))?;
    if r.remaining() < need {
        return Err(WireError::Truncated {
            needed: need,
            available: r.remaining(),
        });
    }
    Ok(count)
}

// ---------------------------------------------------------------------
// Format tags
// ---------------------------------------------------------------------

fn put_matrix_format(w: &mut ByteWriter, fmt: &MatrixFormat) -> Result<(), WireError> {
    match *fmt {
        MatrixFormat::Dense => w.put_u8(0),
        MatrixFormat::Coo => w.put_u8(1),
        MatrixFormat::Csr => w.put_u8(2),
        MatrixFormat::Csc => w.put_u8(3),
        MatrixFormat::Bsr { br, bc } => {
            w.put_u8(4);
            put_u32_checked(w, br, "BSR block shape exceeds u32")?;
            put_u32_checked(w, bc, "BSR block shape exceeds u32")?;
        }
        MatrixFormat::Dia => w.put_u8(5),
        MatrixFormat::Ell => w.put_u8(6),
        MatrixFormat::Rlc { run_bits } => {
            w.put_u8(7);
            w.put_u32(run_bits);
        }
        MatrixFormat::Zvc => w.put_u8(8),
    }
    Ok(())
}

fn take_matrix_format(r: &mut ByteReader<'_>) -> Result<MatrixFormat, WireError> {
    Ok(match r.take_u8()? {
        0 => MatrixFormat::Dense,
        1 => MatrixFormat::Coo,
        2 => MatrixFormat::Csr,
        3 => MatrixFormat::Csc,
        4 => {
            let br = r.take_u32()? as usize;
            let bc = r.take_u32()? as usize;
            MatrixFormat::Bsr { br, bc }
        }
        5 => MatrixFormat::Dia,
        6 => MatrixFormat::Ell,
        7 => MatrixFormat::Rlc {
            run_bits: r.take_u32()?,
        },
        8 => MatrixFormat::Zvc,
        tag => {
            return Err(WireError::UnknownTag {
                what: "matrix format",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------
// Matrix frames
// ---------------------------------------------------------------------

/// Write the matrix *body* (format tag, shape, payload) into `w`.
fn put_matrix_body(w: &mut ByteWriter, m: &MatrixData) -> Result<(), WireError> {
    put_matrix_format(w, &m.format())?;
    put_dim(w, m.rows())?;
    put_dim(w, m.cols())?;
    match m {
        MatrixData::Dense(d) => {
            for &v in d.data() {
                w.put_f64(v);
            }
        }
        other => {
            let coo = other.to_coo();
            w.put_u64(coo.values().len() as u64);
            for &r in coo.row_ids() {
                put_u32_checked(w, r, "matrix row id exceeds u32")?;
            }
            for &c in coo.col_ids() {
                put_u32_checked(w, c, "matrix col id exceeds u32")?;
            }
            for &v in coo.values() {
                w.put_f64(v);
            }
        }
    }
    Ok(())
}

/// Read the matrix body from `r` and rebuild the tagged payload.
fn take_matrix_body(r: &mut ByteReader<'_>) -> Result<MatrixData, WireError> {
    let fmt = take_matrix_format(r)?;
    let rows = r.take_len("matrix rows")?;
    let cols = r.take_len("matrix cols")?;
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(WireError::Overflow("dimension exceeds u32 wire indices"));
    }
    if fmt == MatrixFormat::Dense {
        let count = rows
            .checked_mul(cols)
            .ok_or(WireError::Overflow("dense element count"))?;
        let need = count
            .checked_mul(8)
            .ok_or(WireError::Overflow("dense byte count"))?;
        if r.remaining() < need {
            return Err(WireError::Truncated {
                needed: need,
                available: r.remaining(),
            });
        }
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            data.push(r.take_f64()?);
        }
        return Ok(MatrixData::Dense(DenseMatrix::from_vec(rows, cols, data)?));
    }
    let nnz = take_count(r, "matrix nnz", 4 + 4 + 8)?;
    let mut row_ids = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        row_ids.push(r.take_u32()? as usize);
    }
    let mut col_ids = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        col_ids.push(r.take_u32()? as usize);
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(r.take_f64()?);
    }
    let coo = CooMatrix::from_parts(rows, cols, row_ids, col_ids, values)?;
    Ok(MatrixData::encode(&coo, &fmt)?)
}

/// Encode a matrix payload into a standalone wire frame.
pub fn encode_matrix(m: &MatrixData) -> Result<Vec<u8>, WireError> {
    let mut w = begin_frame(KIND_MATRIX);
    put_matrix_body(&mut w, m)?;
    Ok(finish_frame(w))
}

/// Decode a standalone matrix frame. Lossless for canonically-encoded
/// payloads; rejects truncated/garbled frames with typed errors.
pub fn decode_matrix(bytes: &[u8]) -> Result<MatrixData, WireError> {
    let mut r = open_frame(bytes, KIND_MATRIX)?;
    let m = take_matrix_body(&mut r)?;
    expect_end(&r)?;
    Ok(m)
}

// ---------------------------------------------------------------------
// Job / result frames
// ---------------------------------------------------------------------

fn put_dtype(w: &mut ByteWriter, dt: DataType) {
    w.put_u8(match dt {
        DataType::Int8 => 0,
        DataType::Int16 => 1,
        DataType::Bf16 => 2,
        DataType::Int32 => 3,
        DataType::Fp32 => 4,
        DataType::Fp64 => 5,
    });
}

fn take_dtype(r: &mut ByteReader<'_>) -> Result<DataType, WireError> {
    Ok(match r.take_u8()? {
        0 => DataType::Int8,
        1 => DataType::Int16,
        2 => DataType::Bf16,
        3 => DataType::Int32,
        4 => DataType::Fp32,
        5 => DataType::Fp64,
        tag => {
            return Err(WireError::UnknownTag {
                what: "datatype",
                tag,
            })
        }
    })
}

/// One SpGEMM job as it travels on the wire: who submitted it, how
/// urgent it is, and the two operands in their memory formats.
#[derive(Debug, Clone, PartialEq)]
pub struct WireJob {
    /// Submitting tenant id.
    pub tenant: u32,
    /// Scheduling priority within the tenant's queue.
    pub priority: Priority,
    /// Logical element datatype (drives the storage/energy accounting).
    pub dtype: DataType,
    /// Streaming operand, in any matrix format.
    pub a: MatrixData,
    /// Stationary operand, in any matrix format.
    pub b: MatrixData,
}

/// Encode a job into a wire frame (tenant, priority, dtype, then the
/// two operands as embedded matrix frames).
pub fn encode_job(job: &WireJob) -> Result<Vec<u8>, WireError> {
    let mut w = begin_frame(KIND_JOB);
    w.put_u32(job.tenant);
    w.put_u8(job.priority as u8);
    put_dtype(&mut w, job.dtype);
    w.put_u16(0); // reserved
    let a = encode_matrix(&job.a)?;
    w.put_u64(a.len() as u64);
    w.put_bytes(&a);
    let b = encode_matrix(&job.b)?;
    w.put_u64(b.len() as u64);
    w.put_bytes(&b);
    Ok(finish_frame(w))
}

/// Decode a job frame.
pub fn decode_job(bytes: &[u8]) -> Result<WireJob, WireError> {
    let mut r = open_frame(bytes, KIND_JOB)?;
    let tenant = r.take_u32()?;
    let priority = match r.take_u8()? {
        0 => Priority::High,
        1 => Priority::Normal,
        2 => Priority::Low,
        tag => {
            return Err(WireError::UnknownTag {
                what: "priority",
                tag,
            })
        }
    };
    let dtype = take_dtype(&mut r)?;
    r.take_u16()?; // reserved
    let a_len = take_count(&mut r, "operand A frame length", 1)?;
    let a = decode_matrix(r.take_bytes(a_len)?)?;
    let b_len = take_count(&mut r, "operand B frame length", 1)?;
    let b = decode_matrix(r.take_bytes(b_len)?)?;
    expect_end(&r)?;
    Ok(WireJob {
        tenant,
        priority,
        dtype,
        a,
        b,
    })
}

/// A completed job's output as it travels back: the job id the service
/// assigned at submission plus the dense output matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Service-assigned job id (unique per service instance).
    pub job_id: u64,
    /// The SpGEMM output, every tile's product accumulated in its columns.
    pub output: DenseMatrix,
}

/// Encode a result frame (job id + embedded Dense matrix frame).
pub fn encode_result(res: &WireResult) -> Result<Vec<u8>, WireError> {
    let mut w = begin_frame(KIND_RESULT);
    w.put_u64(res.job_id);
    let m = encode_matrix(&MatrixData::Dense(res.output.clone()))?;
    w.put_u64(m.len() as u64);
    w.put_bytes(&m);
    Ok(finish_frame(w))
}

/// Decode a result frame. The embedded matrix must be Dense.
pub fn decode_result(bytes: &[u8]) -> Result<WireResult, WireError> {
    let mut r = open_frame(bytes, KIND_RESULT)?;
    let job_id = r.take_u64()?;
    let m_len = take_count(&mut r, "result frame length", 1)?;
    let m = decode_matrix(r.take_bytes(m_len)?)?;
    expect_end(&r)?;
    match m {
        MatrixData::Dense(output) => Ok(WireResult { job_id, output }),
        other => Err(WireError::UnknownTag {
            what: "result payload format (must be Dense)",
            tag: match other.format() {
                MatrixFormat::Coo => 1,
                MatrixFormat::Csr => 2,
                MatrixFormat::Csc => 3,
                MatrixFormat::Bsr { .. } => 4,
                MatrixFormat::Dia => 5,
                MatrixFormat::Ell => 6,
                MatrixFormat::Rlc { .. } => 7,
                _ => 8,
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        CooMatrix::from_triplets(
            6,
            5,
            vec![
                (0, 0, 1.5),
                (1, 3, -2.0),
                (2, 2, 3.25),
                (4, 4, 4.0),
                (5, 0, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matrix_frames_roundtrip_every_format() {
        let coo = sample_coo();
        let formats = [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Zvc,
        ];
        for fmt in formats {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let bytes = encode_matrix(&data).unwrap();
            let back = decode_matrix(&bytes).unwrap();
            assert_eq!(back, data, "wire roundtrip failed for {fmt}");
        }
    }

    #[test]
    fn truncation_and_garbling_are_typed() {
        let data = MatrixData::encode(&sample_coo(), &MatrixFormat::Csr).unwrap();
        let bytes = encode_matrix(&data).unwrap();
        // Truncated at every prefix: typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_matrix(&bytes[..cut]).is_err(), "prefix {cut} passed");
        }
        // Any single-byte garble past the checksum fails the checksum;
        // a garble inside it fails the comparison too.
        let mut garbled = bytes.clone();
        garbled[HEADER_LEN + 3] ^= 0x40;
        assert!(matches!(
            decode_matrix(&garbled),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_matrix(&padded).is_err());
        // Wrong magic and wrong kind are typed.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode_matrix(&wrong), Err(WireError::BadMagic));
        assert!(matches!(
            decode_job(&bytes),
            Err(WireError::WrongKind {
                expected: KIND_JOB,
                found: KIND_MATRIX
            })
        ));
    }

    #[test]
    fn job_and_result_frames_roundtrip() {
        let a = MatrixData::encode(&sample_coo(), &MatrixFormat::Csr).unwrap();
        let b = MatrixData::encode(&sample_coo(), &MatrixFormat::Zvc).unwrap();
        let job = WireJob {
            tenant: 7,
            priority: Priority::High,
            dtype: DataType::Fp32,
            a,
            b,
        };
        let bytes = encode_job(&job).unwrap();
        assert_eq!(decode_job(&bytes).unwrap(), job);

        let res = WireResult {
            job_id: 42,
            output: DenseMatrix::from_vec(2, 2, vec![1.0, -0.0, 0.0, 2.5]).unwrap(),
        };
        let back = decode_result(&encode_result(&res).unwrap()).unwrap();
        assert_eq!(back.job_id, 42);
        let bits: Vec<u64> = back.output.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = res.output.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want, "result values must be bit-exact");
    }
}
