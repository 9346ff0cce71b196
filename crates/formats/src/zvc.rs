//! Zero-Value Compression (ZVC) format for matrices and 3-D tensors.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::tensor::CooTensor3;
use crate::traits::{SparseMatrix, SparseTensor3};
use crate::Value;
use std::ops::Range;

/// Zero-value compressed matrix (Fig. 3a, "Zero-value Compression (ZVC)").
///
/// "ZVC stores nonzero elements along with a string of bits to represent
/// each element (a bit value of 1 for a nonzero element and a bit value of
/// 0 for a zero valued element)" (§II). The mask covers the row-major
/// flattened matrix, one bit per logical element, packed into `u64` words.
/// Metadata cost is exactly `rows * cols` bits regardless of sparsity,
/// which is why ZVC wins the mid-density band of Fig. 4a.
#[derive(Debug, Clone, PartialEq)]
pub struct ZvcMatrix {
    rows: usize,
    cols: usize,
    mask: Vec<u64>,
    values: Vec<Value>,
}

#[inline]
fn mask_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// The one ZVC encoder, for matrices and tensors alike: stored elements
/// pushed at ascending positions of the row-major flattened stream set
/// their mask bit and append their value. [`ZvcMatrix::from_coo`],
/// [`ZvcTensor3::from_coo`] and the format builders all encode with it.
pub(crate) struct MaskEncoder {
    mask: Vec<u64>,
    values: Vec<Value>,
}

impl MaskEncoder {
    /// An empty encoder for a stream of `len` positions, with room for
    /// `nnz` values.
    pub(crate) fn new(len: usize, nnz: usize) -> Self {
        MaskEncoder {
            mask: vec![0; mask_words(len)],
            values: Vec::with_capacity(nnz),
        }
    }

    /// Store `value` at flat position `flat`, past every position pushed
    /// so far.
    #[inline]
    pub(crate) fn push(&mut self, flat: usize, value: Value) {
        self.mask[flat / 64] |= 1u64 << (flat % 64);
        self.values.push(value);
    }

    /// The mask and the packed values.
    pub(crate) fn finish(self) -> (Vec<u64>, Vec<Value>) {
        (self.mask, self.values)
    }
}

/// The one ZVC decoder, the [`MaskEncoder`]'s inverse: calls `f` with the
/// offset from `bits.start` of every set bit of `mask` in `bits`,
/// ascending, a mask word at a time, so a run of positions costs its
/// words plus its set bits. The walks decode rows and fibers with it.
#[inline]
pub(crate) fn for_each_set_bit(mask: &[u64], bits: Range<usize>, mut f: impl FnMut(usize)) {
    let mut pos = bits.start;
    while pos < bits.end {
        // The run's bits in this mask word, from `pos` on.
        let span = (64 - pos % 64).min(bits.end - pos);
        let mut word = mask[pos / 64] >> (pos % 64);
        if span < 64 {
            word &= (1u64 << span) - 1;
        }
        while word != 0 {
            f(pos - bits.start + word.trailing_zeros() as usize);
            word &= word - 1;
        }
        pos += span;
    }
}

impl ZvcMatrix {
    /// Encode from the COO hub.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        let mut enc = MaskEncoder::new(rows * cols, coo.nnz());
        for (r, c, v) in coo.iter() {
            enc.push(r * cols + c, v);
        }
        let (mask, values) = enc.finish();
        ZvcMatrix {
            rows,
            cols,
            mask,
            values,
        }
    }

    /// Build from a raw mask and packed values (tests / MINT output).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        mask: Vec<u64>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if mask.len() != mask_words(rows * cols) {
            return Err(FormatError::LengthMismatch {
                what: "zvc mask words",
                expected: mask_words(rows * cols),
                actual: mask.len(),
            });
        }
        // Bits beyond rows*cols must be clear.
        let tail_bits = rows * cols;
        if !tail_bits.is_multiple_of(64) {
            if let Some(&last) = mask.last() {
                if last >> (tail_bits % 64) != 0 {
                    return Err(FormatError::MalformedPointer {
                        what: "zvc mask tail bits set",
                    });
                }
            }
        }
        let popcount: u32 = mask.iter().map(|w| w.count_ones()).sum();
        if popcount as usize != values.len() {
            return Err(FormatError::LengthMismatch {
                what: "zvc mask popcount vs values",
                expected: popcount as usize,
                actual: values.len(),
            });
        }
        Ok(ZvcMatrix {
            rows,
            cols,
            mask,
            values,
        })
    }

    /// Assemble from a mask and values that already hold every invariant
    /// [`from_parts`](Self::from_parts) checks: the tensor encoder's and
    /// the format builders' output, correct by construction.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        mask: Vec<u64>,
        values: Vec<Value>,
    ) -> Self {
        ZvcMatrix {
            rows,
            cols,
            mask,
            values,
        }
    }

    /// Packed mask words (row-major flat order, LSB first).
    #[inline]
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Packed nonzero values in row-major order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Is the bit for flat position `i` set?
    #[inline]
    fn bit(&self, i: usize) -> bool {
        (self.mask[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits strictly before flat position `i` (rank query;
    /// gives the `values` index of a set position).
    pub fn rank(&self, i: usize) -> usize {
        let word = i / 64;
        let mut count: usize = self.mask[..word]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if !i.is_multiple_of(64) {
            count += (self.mask[word] & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        }
        count
    }
}

impl SparseMatrix for ZvcMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, row: usize, col: usize) -> Value {
        let flat = row * self.cols + col;
        if self.bit(flat) {
            self.values[self.rank(flat)]
        } else {
            0.0
        }
    }
    fn to_coo(&self) -> CooMatrix {
        crate::traverse::coo_from_stream(self)
    }
}

/// Zero-value compressed 3-D tensor over the `x -> y -> z` (z fastest)
/// flattened stream (Fig. 3b's ZVC example). That stream is the
/// row-major stream of the `(dim_x·dim_y) × dim_z` [`ZvcMatrix`] whose
/// row `x·dim_y + y` is fiber `(x, y)`, and the tensor holds exactly that
/// matrix: its accessors, walk and partition are the matrix's.
#[derive(Debug, Clone, PartialEq)]
pub struct ZvcTensor3 {
    dim_x: usize,
    dim_y: usize,
    matrix: ZvcMatrix,
}

impl ZvcTensor3 {
    /// Encode from the COO tensor hub.
    pub fn from_coo(coo: &CooTensor3) -> Self {
        let (dx, dy, dz) = coo.shape();
        let mut enc = MaskEncoder::new(dx * dy * dz, coo.nnz());
        for (x, y, z, v) in coo.iter() {
            enc.push((x * dy + y) * dz + z, v);
        }
        let (mask, values) = enc.finish();
        ZvcTensor3 {
            dim_x: dx,
            dim_y: dy,
            matrix: ZvcMatrix::from_parts_unchecked(dx * dy, dz, mask, values),
        }
    }

    /// The `(dim_x·dim_y) × dim_z` matrix the tensor stores.
    #[inline]
    pub(crate) fn matrix(&self) -> &ZvcMatrix {
        &self.matrix
    }

    /// Packed mask words.
    #[inline]
    pub fn mask(&self) -> &[u64] {
        self.matrix.mask()
    }

    /// Packed nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        self.matrix.values()
    }
}

impl SparseTensor3 for ZvcTensor3 {
    fn dim_x(&self) -> usize {
        self.dim_x
    }
    fn dim_y(&self) -> usize {
        self.dim_y
    }
    fn dim_z(&self) -> usize {
        self.matrix.cols()
    }
    fn nnz(&self) -> usize {
        self.matrix.nnz()
    }
    fn get(&self, x: usize, y: usize, z: usize) -> Value {
        self.matrix.get(x * self.dim_y + y, z)
    }
    fn to_coo(&self) -> CooTensor3 {
        crate::traverse::coo3_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 4.0),
                (2, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mask_bits_match_fig3a() {
        // Fig. 3a ZVC mask: 1100 1100 0010 0001 over the flat stream.
        let zvc = ZvcMatrix::from_coo(&sample());
        let expected_bits = [
            true, true, false, false, true, true, false, false, false, false, true, false, false,
            false, false, true,
        ];
        for (i, &b) in expected_bits.iter().enumerate() {
            assert_eq!(zvc.bit(i), b, "bit {i}");
        }
        assert_eq!(zvc.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn roundtrip() {
        let coo = sample();
        let zvc = ZvcMatrix::from_coo(&coo);
        assert_eq!(zvc.to_coo(), coo);
        assert_eq!(zvc.nnz(), 6);
    }

    #[test]
    fn rank_and_get() {
        let zvc = ZvcMatrix::from_coo(&sample());
        assert_eq!(zvc.rank(0), 0);
        assert_eq!(zvc.rank(5), 3);
        assert_eq!(zvc.get(1, 1), 4.0);
        assert_eq!(zvc.get(3, 0), 0.0);
        assert_eq!(zvc.get(3, 3), 6.0);
    }

    #[test]
    fn large_matrix_crosses_word_boundaries() {
        let triplets: Vec<_> = (0..100)
            .map(|i| (i, (i * 7) % 100, (i + 1) as f64))
            .collect();
        let coo = CooMatrix::from_triplets(100, 100, triplets).unwrap();
        let zvc = ZvcMatrix::from_coo(&coo);
        assert_eq!(zvc.to_coo(), coo);
        assert_eq!(zvc.mask().len(), (100 * 100usize).div_ceil(64));
    }

    #[test]
    fn from_parts_validates() {
        // Wrong number of mask words.
        assert!(ZvcMatrix::from_parts(4, 4, vec![0, 0], vec![]).is_err());
        // Popcount mismatch.
        assert!(ZvcMatrix::from_parts(4, 4, vec![0b11], vec![1.0]).is_err());
        // Tail bits set beyond rows*cols.
        assert!(ZvcMatrix::from_parts(2, 2, vec![1 << 10], vec![1.0]).is_err());
        assert!(ZvcMatrix::from_parts(4, 4, vec![0b11], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn tensor_roundtrip() {
        let coo = CooTensor3::from_quads(
            2,
            3,
            4,
            vec![(0, 0, 3, 1.0), (1, 1, 0, 2.0), (1, 2, 3, 3.0)],
        )
        .unwrap();
        let zvc = ZvcTensor3::from_coo(&coo);
        assert_eq!(zvc.to_coo(), coo);
        assert_eq!(zvc.get(1, 1, 0), 2.0);
        assert_eq!(zvc.get(0, 0, 0), 0.0);
        assert_eq!(zvc.nnz(), 3);
    }
}
