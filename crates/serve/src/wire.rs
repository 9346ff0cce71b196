//! The compact binary wire format jobs and results travel in.
//!
//! A frame is one fixed 16-byte header, one checksum and one body:
//!
//! | offset | size | field                                          |
//! |-------:|-----:|------------------------------------------------|
//! |      0 |    4 | magic `b"SFLX"`                                 |
//! |      4 |    1 | version (`WIRE_VERSION` = 2)                    |
//! |      5 |    1 | kind (2 job, 3 result)                          |
//! |      6 |    2 | reserved (must be zero)                         |
//! |      8 |    8 | FNV-1a checksum of the body, little-endian      |
//! |     16 |    — | body (kind-specific)                            |
//!
//! A **job body** carries tenant (`u32`), priority and datatype,
//! then operand A's matrix body and operand B's, back to
//! back. A **matrix body** is a format tag (+ structural parameters), a
//! `rows`/`cols` shape, then the payload: a Dense operand carries its
//! full row-major value array; every sparse format carries its canonical
//! COO triplet arrays (`nnz`, row ids, col ids, values — indices as
//! `u32`, values as IEEE-754 `f64` bit patterns). Decoding re-encodes
//! the triplets into the tagged format, which is lossless because every
//! format in the workspace round-trips exactly through the COO hub (the
//! invariant `formats::roundtrip_tests` pins). A **result body** carries
//! the job id, then the output's shape and row-major values: the Dense
//! payload without a format tag. No frame embeds another, so the one
//! checksum covers every body byte and each byte is hashed once.
//!
//! Malformed input never panics: truncation, bad magic, version or kind
//! mismatches, checksum failures, oversized counts and trailing garbage
//! all surface as typed [`WireError`]s. The checksum detects garbling,
//! not tampering, so a job frame's shapes are bounded on their own: each
//! operand's and the output's (A's rows × B's cols) may hold at most
//! `MAX_CELLS` cells, and a BSR or DIA operand may store at most as many
//! values. A larger shape fails with [`WireError::Overflow`] before
//! anything is sized from it.

use sparseflex_formats::{
    ByteError, ByteReader, ByteWriter, CooMatrix, DataType, DenseMatrix, FormatError, MatrixData,
    MatrixFormat, SparseMatrix,
};

use crate::service::Priority;

/// Frame magic: the first four bytes of every wire frame.
const WIRE_MAGIC: [u8; 4] = *b"SFLX";

/// Current wire protocol version, carried in every frame header.
const WIRE_VERSION: u8 = 2;

/// Byte length of the fixed frame header (magic + version + kind +
/// reserved + checksum).
pub const HEADER_LEN: usize = 16;

const KIND_JOB: u8 = 2;
const KIND_RESULT: u8 = 3;

/// Most cells (`rows × cols`, a zero dimension counted as one) a shape
/// in a job frame may hold, and most values a BSR or DIA operand may
/// store: 2^24, 128 MiB of `f64`. The shapes are each operand's, from
/// which decoding and the service build formats sized by the shape, and
/// the output's, which the service zero-fills and returns. A frame states
/// a shape in 16 bytes, so without a bound an edited shape could ask for
/// tens of GB.
const MAX_CELLS: usize = 1 << 24;

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
    /// allows (wire indices are `u32`), or a shape is past the cell
    /// bound on what a job frame may make its reader allocate.
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

/// Start a frame of the given kind, with room for a `body_len`-byte body
/// (the buffer grows past it), then the header with a checksum
/// placeholder.
fn begin_frame(kind: u8, body_len: usize) -> ByteWriter {
    let mut w = ByteWriter::with_capacity(HEADER_LEN + body_len);
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

/// Write a `rows`/`cols` shape; wire indices are `u32`, so a wider
/// dimension is an overflow.
fn put_dims(w: &mut ByteWriter, rows: usize, cols: usize) -> Result<(), WireError> {
    for dim in [rows, cols] {
        if dim > u32::MAX as usize {
            return Err(WireError::Overflow("dimension exceeds u32 wire indices"));
        }
        w.put_u64(dim as u64);
    }
    Ok(())
}

/// Read a `rows`/`cols` shape, bounded like [`put_dims`] bounds it.
fn take_dims(r: &mut ByteReader<'_>) -> Result<(usize, usize), WireError> {
    let rows = r.take_len("matrix rows")?;
    let cols = r.take_len("matrix cols")?;
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(WireError::Overflow("dimension exceeds u32 wire indices"));
    }
    Ok((rows, cols))
}

/// Reject a shape of more than [`MAX_CELLS`] cells.
fn check_cells(rows: usize, cols: usize) -> Result<(), WireError> {
    match rows.max(1).checked_mul(cols.max(1)) {
        Some(cells) if cells <= MAX_CELLS => Ok(()),
        _ => Err(WireError::Overflow("shape exceeds the cell bound")),
    }
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
// Payloads
// ---------------------------------------------------------------------

/// Write a Dense payload: the shape, then the row-major values. A Dense
/// operand body and the result body both carry one.
fn put_dense(w: &mut ByteWriter, d: &DenseMatrix) -> Result<(), WireError> {
    put_dims(w, d.rows(), d.cols())?;
    for &v in d.data() {
        w.put_f64(v);
    }
    Ok(())
}

/// Read a Dense payload. The element and byte counts are checked for
/// overflow, and against the bytes left, before the values are
/// allocated.
fn take_dense(r: &mut ByteReader<'_>) -> Result<DenseMatrix, WireError> {
    let (rows, cols) = take_dims(r)?;
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
    Ok(DenseMatrix::from_vec(rows, cols, data)?)
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
// Matrix bodies
// ---------------------------------------------------------------------

/// Write the matrix body (format tag, shape, payload) into `w`.
fn put_matrix_body(w: &mut ByteWriter, m: &MatrixData) -> Result<(), WireError> {
    put_matrix_format(w, &m.format())?;
    match m {
        MatrixData::Dense(d) => put_dense(w, d),
        other => put_triplets(w, &other.to_coo()),
    }
}

/// Write a sparse payload: the shape, then the COO triplet arrays.
fn put_triplets(w: &mut ByteWriter, coo: &CooMatrix) -> Result<(), WireError> {
    put_dims(w, coo.rows(), coo.cols())?;
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
    Ok(())
}

/// Read the matrix body from `r` and rebuild the tagged payload.
fn take_matrix_body(r: &mut ByteReader<'_>) -> Result<MatrixData, WireError> {
    let fmt = take_matrix_format(r)?;
    if fmt == MatrixFormat::Dense {
        let d = take_dense(r)?;
        check_cells(d.rows(), d.cols())?;
        return Ok(MatrixData::Dense(d));
    }
    let (rows, cols) = take_dims(r)?;
    check_cells(rows, cols)?;
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
    // Every format stores a few slots per cell at most, but for BSR,
    // whose blocks can overhang the shape, and DIA, whose strips span
    // every row.
    let stored = match fmt {
        MatrixFormat::Bsr { br, bc } => {
            let grid = rows.div_ceil(br.max(1)) * cols.div_ceil(bc.max(1));
            grid.min(nnz)
                .checked_mul(br)
                .and_then(|v| v.checked_mul(bc))
        }
        MatrixFormat::Dia => {
            let mut seen = vec![false; rows + cols];
            let diagonals = coo
                .iter()
                .filter(|&(i, j, _)| !std::mem::replace(&mut seen[rows + j - i], true))
                .count();
            Some(diagonals * rows)
        }
        _ => Some(0),
    };
    if stored.is_none_or(|v| v > MAX_CELLS) {
        return Err(WireError::Overflow(
            "operand stores more than the cell bound",
        ));
    }
    Ok(MatrixData::encode(&coo, &fmt)?)
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

/// Encode a job into a wire frame (tenant, priority, dtype, then the two
/// operands' matrix bodies).
pub fn encode_job(job: &WireJob) -> Result<Vec<u8>, WireError> {
    let mut w = begin_frame(KIND_JOB, 0);
    w.put_u32(job.tenant);
    w.put_u8(job.priority as u8);
    put_dtype(&mut w, job.dtype);
    put_matrix_body(&mut w, &job.a)?;
    put_matrix_body(&mut w, &job.b)?;
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
    let a = take_matrix_body(&mut r)?;
    let b = take_matrix_body(&mut r)?;
    expect_end(&r)?;
    // The service zero-fills the output and returns it.
    check_cells(a.rows(), b.cols())?;
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

/// Encode a result frame (job id, then the output's Dense payload) into
/// a buffer of exactly the frame's length.
pub fn encode_result(res: &WireResult) -> Result<Vec<u8>, WireError> {
    let mut w = begin_frame(KIND_RESULT, 8 + 16 + 8 * res.output.data().len());
    w.put_u64(res.job_id);
    put_dense(&mut w, &res.output)?;
    Ok(finish_frame(w))
}

/// Decode a result frame.
pub fn decode_result(bytes: &[u8]) -> Result<WireResult, WireError> {
    let mut r = open_frame(bytes, KIND_RESULT)?;
    let job_id = r.take_u64()?;
    let output = take_dense(&mut r)?;
    expect_end(&r)?;
    Ok(WireResult { job_id, output })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMATS: [MatrixFormat; 9] = [
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

    /// One job per format, with A in that format and B in the next one
    /// along, so every format travels in both positions.
    fn sample_jobs() -> Vec<WireJob> {
        let coo = CooMatrix::from_triplets(
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
        .unwrap();
        let data = |i: usize| MatrixData::encode(&coo, &FORMATS[i % FORMATS.len()]).unwrap();
        (0..FORMATS.len())
            .map(|i| WireJob {
                tenant: 7,
                priority: Priority::High,
                dtype: DataType::Fp32,
                a: data(i),
                b: data(i + 1),
            })
            .collect()
    }

    fn sample_result() -> WireResult {
        WireResult {
            job_id: 42,
            output: DenseMatrix::from_vec(2, 2, vec![1.0, -0.0, 0.0, 2.5]).unwrap(),
        }
    }

    #[test]
    fn truncation_and_garbling_are_typed() {
        type Decode = fn(&[u8]) -> Result<(), WireError>;
        let job = encode_job(&sample_jobs()[2]).unwrap();
        let res = encode_result(&sample_result()).unwrap();
        let frames: [(&Vec<u8>, Decode); 2] = [
            (&job, |b| decode_job(b).map(drop)),
            (&res, |b| decode_result(b).map(drop)),
        ];
        for (bytes, decode) in frames {
            // Truncated at every prefix: typed error, never a panic.
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} passed");
            }
            // A garble past the checksum fails the one checksum.
            let mut garbled = bytes.clone();
            garbled[HEADER_LEN + 3] ^= 0x40;
            assert!(matches!(
                decode(&garbled),
                Err(WireError::ChecksumMismatch { .. })
            ));
            // Trailing garbage is rejected.
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(decode(&padded).is_err());
            // Wrong magic and a version-1 frame are typed.
            let mut wrong = bytes.clone();
            wrong[0] = b'X';
            assert_eq!(decode(&wrong), Err(WireError::BadMagic));
            let mut v1 = bytes.clone();
            v1[4] = 1;
            assert_eq!(decode(&v1), Err(WireError::UnsupportedVersion(1)));
        }
        assert_eq!(
            decode_job(&res),
            Err(WireError::WrongKind {
                expected: KIND_JOB,
                found: KIND_RESULT
            })
        );
    }

    /// A job frame with A's triplets those of `a` but its tag `fmt`, and
    /// an empty `a.cols() × n` B.
    fn job_frame(fmt: &MatrixFormat, a: &CooMatrix, n: usize) -> Vec<u8> {
        let mut w = begin_frame(KIND_JOB, 0);
        w.put_u32(7);
        w.put_u8(Priority::Normal as u8);
        put_dtype(&mut w, DataType::Fp32);
        put_matrix_format(&mut w, fmt).unwrap();
        put_triplets(&mut w, a).unwrap();
        put_matrix_body(&mut w, &MatrixData::Coo(CooMatrix::empty(a.cols(), n))).unwrap();
        finish_frame(w)
    }

    #[test]
    fn shapes_past_the_cell_bound_are_rejected() {
        let past = |frame: Vec<u8>| matches!(decode_job(&frame), Err(WireError::Overflow(_)));
        let coo = |m, k, at: &[(usize, usize)]| {
            CooMatrix::from_triplets(m, k, at.iter().map(|&(r, c)| (r, c, 1.0)).collect()).unwrap()
        };
        let wide = u32::MAX as usize;
        for fmt in &FORMATS[1..] {
            // At the bound every format decodes; an operand or an output
            // of more cells fails.
            assert!(decode_job(&job_frame(fmt, &coo(4096, 4096, &[(0, 0)]), 1)).is_ok());
            assert!(past(job_frame(fmt, &coo(1, wide, &[(0, 0)]), 1)), "{fmt}");
            assert!(
                past(job_frame(fmt, &coo(4096, 1, &[(0, 0)]), 8192)),
                "{fmt}"
            );
        }
        let mut job = sample_jobs().swap_remove(0);
        job.a = MatrixData::Dense(DenseMatrix::from_vec(wide, 0, Vec::new()).unwrap());
        assert!(past(encode_job(&job).unwrap()), "Dense");

        // BSR blocks overhanging a 1 × 1 operand.
        let huge = MatrixFormat::Bsr {
            br: 1 << 16,
            bc: 1 << 16,
        };
        assert!(past(job_frame(&huge, &coo(1, 1, &[(0, 0)]), 1)));
        // DIA strips of a tall operand: one diagonal fits, 17 do not.
        let band: Vec<_> = (0..16).map(|i| (i, i)).collect();
        let column: Vec<_> = (0..17).map(|i| (i, 0)).collect();
        let dia = |at: &[(usize, usize)]| job_frame(&MatrixFormat::Dia, &coo(1 << 20, 16, at), 1);
        assert!(decode_job(&dia(&band)).is_ok());
        assert!(past(dia(&column)));
    }

    #[test]
    fn job_and_result_frames_roundtrip() {
        for job in sample_jobs() {
            let bytes = encode_job(&job).unwrap();
            assert_eq!(decode_job(&bytes).unwrap(), job, "A in {}", job.a.format());
        }

        let res = sample_result();
        let frame = encode_result(&res).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + 8 + 16 + 8 * 4);
        assert_eq!(frame.capacity(), frame.len(), "result frame sized once");
        let back = decode_result(&frame).unwrap();
        assert_eq!(back.job_id, 42);
        let bits: Vec<u64> = back.output.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = res.output.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want, "result values must be bit-exact");
    }
}
