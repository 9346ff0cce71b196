//! Byte-level primitives for binary wire encodings.
//!
//! The serving layer (`sparseflex-serve`) speaks a compact little-endian
//! binary protocol; this module holds the format-agnostic half of it — a
//! bounds-checked [`ByteReader`] / [`ByteWriter`] pair plus the FNV-1a
//! checksum the frames carry — so any crate can assemble or parse wire
//! payloads without pulling in the service itself. Every read is
//! length-checked and returns the typed [`ByteError`] instead of
//! panicking, which is what lets the wire decoder reject truncated or
//! garbled buffers gracefully.

/// Errors raised by the bounds-checked byte reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes the field requires.
        needed: usize,
        /// Bytes remaining in the buffer.
        available: usize,
    },
    /// A length or count field exceeds what the platform (or sanity)
    /// allows.
    Overflow(&'static str),
}

impl std::fmt::Display for ByteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByteError::Truncated { needed, available } => {
                write!(f, "buffer truncated: need {needed} bytes, have {available}")
            }
            ByteError::Overflow(what) => write!(f, "field overflow: {what}"),
        }
    }
}

impl std::error::Error for ByteError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian —
    /// the round-trip is bit-exact, including signed zeros and NaNs.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrite 8 previously-written bytes at `offset` with a `u64`
    /// (used to patch a checksum into a frame header after the body is
    /// known). Panics if the span was never written — a caller bug, not
    /// a wire condition.
    pub fn patch_u64(&mut self, offset: usize, v: u64) {
        self.buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked little-endian byte source. Every `take_*` either
/// yields the value or the typed [`ByteError::Truncated`] — no panics on
/// hostile input.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        if self.remaining() < n {
            return Err(ByteError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ByteError> {
        let truncated = ByteError::Truncated {
            needed: N,
            available: self.remaining(),
        };
        let (head, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(truncated)?;
        self.pos += N;
        Ok(*head)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16` little-endian.
    pub fn take_u16(&mut self) -> Result<u16, ByteError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a `u32` little-endian.
    pub fn take_u32(&mut self) -> Result<u32, ByteError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64` little-endian.
    pub fn take_u64(&mut self) -> Result<u64, ByteError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `f64` from its IEEE-754 bit pattern (bit-exact).
    pub fn take_f64(&mut self) -> Result<f64, ByteError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a `u64` that must fit a `usize` on this platform.
    pub fn take_len(&mut self, what: &'static str) -> Result<usize, ByteError> {
        usize::try_from(self.take_u64()?).map_err(|_| ByteError::Overflow(what))
    }

    /// Read `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], ByteError> {
        self.take(n)
    }
}

/// FNV-1a over a byte slice — the cheap, dependency-free integrity
/// checksum the wire frames carry. Not cryptographic; it exists to catch
/// truncation and accidental corruption, not adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_is_exact() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64(1.5e-300);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        let z = r.take_f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "signed zero preserved");
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_f64().unwrap(), 1.5e-300);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_are_typed_not_panics() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u16().unwrap(), 0x0201);
        assert_eq!(
            r.take_u32(),
            Err(ByteError::Truncated {
                needed: 4,
                available: 1
            })
        );
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.take_u8().unwrap(), 3);
    }

    #[test]
    fn checksum_patching_and_fnv() {
        let mut w = ByteWriter::new();
        w.put_u64(0); // checksum placeholder
        w.put_bytes(b"payload");
        let sum = fnv1a(&w.as_slice()[8..]);
        w.patch_u64(0, sum);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u64().unwrap(), sum);
        assert_eq!(fnv1a(b"payload"), sum);
        // FNV-1a reference vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
