//! Block Compressed Sparse Row (BSR) format.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// Block Compressed Sparse Row matrix (Fig. 3a, "Block Compressed Row
/// (BSR) 2x2 blocks").
///
/// A CSR structure over dense `block_rows x block_cols` tiles. "Given that
/// the nonzeros follow a pattern, BSR reduces the metadata overhead and
/// enables a more regular memory access pattern" (§II). Blocks are stored
/// row-major internally; incomplete blocks are zero-padded, so `values`
/// may contain explicit zeros (the paper's Fig. 8e calls this out: "zeros
/// are inserted into the values if the blocks are not complete").
#[derive(Debug, Clone, PartialEq)]
pub struct BsrMatrix {
    rows: usize,
    cols: usize,
    block_rows: usize,
    block_cols: usize,
    /// Block-row pointer: `num_block_rows + 1` entries.
    row_ptr: Vec<usize>,
    /// Block-column index of each stored block.
    col_ids: Vec<usize>,
    /// Dense payload of each block, `block_rows * block_cols` values each,
    /// stored consecutively.
    values: Vec<Value>,
}

impl BsrMatrix {
    /// Convert from the COO hub with the given block shape.
    pub fn from_coo(
        coo: &CooMatrix,
        block_rows: usize,
        block_cols: usize,
    ) -> Result<Self, FormatError> {
        if block_rows == 0 || block_cols == 0 {
            return Err(FormatError::InvalidBlockSize { block: 0 });
        }
        let rows = coo.rows();
        let cols = coo.cols();
        let nbr = rows.div_ceil(block_rows);
        let block_area = block_rows * block_cols;

        // Pass 1: identify the set of occupied blocks per block-row.
        // COO is row-major sorted, so entries of one block-row are contiguous.
        let mut row_ptr = vec![0usize; nbr + 1];
        let mut col_ids: Vec<usize> = Vec::new();
        let mut values: Vec<Value> = Vec::new();

        let mut i = 0;
        let n = coo.nnz();
        let rids = coo.row_ids();
        let cids = coo.col_ids();
        let vals = coo.values();
        for br in 0..nbr {
            let row_end = (br + 1) * block_rows;
            let start = i;
            while i < n && rids[i] < row_end {
                i += 1;
            }
            // Occupied block columns in this block-row.
            let mut bcs: Vec<usize> = (start..i).map(|k| cids[k] / block_cols).collect();
            bcs.sort_unstable();
            bcs.dedup();
            let base_block = col_ids.len();
            row_ptr[br + 1] = row_ptr[br] + bcs.len();
            values.resize(values.len() + bcs.len() * block_area, 0.0);
            // Scatter the entries into their block payloads.
            for k in start..i {
                // `bcs` holds every entry's block column, so this is its
                // index.
                let bc = cids[k] / block_cols;
                let slot = base_block + bcs.partition_point(|&b| b < bc);
                let local = (rids[k] - br * block_rows) * block_cols + (cids[k] % block_cols);
                values[slot * block_area + local] = vals[k];
            }
            col_ids.extend_from_slice(&bcs);
        }
        Ok(BsrMatrix {
            rows,
            cols,
            block_rows,
            block_cols,
            row_ptr,
            col_ids,
            values,
        })
    }

    /// Block shape `(block_rows, block_cols)`.
    #[inline]
    pub fn block_shape(&self) -> (usize, usize) {
        (self.block_rows, self.block_cols)
    }

    /// Number of stored blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.col_ids.len()
    }

    /// Number of block rows.
    #[inline]
    pub fn num_block_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Block-row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Block-column indices.
    #[inline]
    pub fn col_ids(&self) -> &[usize] {
        &self.col_ids
    }

    /// Raw block payloads (including padding zeros).
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Dense payload of the `i`-th stored block.
    #[inline]
    pub fn block(&self, i: usize) -> &[Value] {
        let a = self.block_rows * self.block_cols;
        &self.values[i * a..(i + 1) * a]
    }

    /// Count of *stored* values including block padding (what the hardware
    /// must actually move; used by the size model).
    pub fn stored_values(&self) -> usize {
        self.values.len()
    }

    /// Fraction of stored values that are padding zeros.
    pub fn padding_ratio(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let nz = self.values.iter().filter(|v| **v != 0.0).count();
        1.0 - nz as f64 / self.values.len() as f64
    }
}

impl SparseMatrix for BsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.values.iter().filter(|v| **v != 0.0).count()
    }
    fn get(&self, row: usize, col: usize) -> Value {
        let br = row / self.block_rows;
        let bc = col / self.block_cols;
        let (s, e) = (self.row_ptr[br], self.row_ptr[br + 1]);
        match self.col_ids[s..e].binary_search(&bc) {
            Ok(off) => {
                let i = s + off;
                let local = (row % self.block_rows) * self.block_cols + (col % self.block_cols);
                self.block(i)[local]
            }
            Err(_) => 0.0,
        }
    }
    fn to_coo(&self) -> CooMatrix {
        crate::traverse::coo_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3a BSR example matrix:
    /// ```text
    /// a b . .
    /// c d . .
    /// . . e .
    /// . . f .
    /// ```
    /// 2x2 blocks -> values `a b c d e * f *` (with padded zeros),
    /// col_ids `0 1`, row_ptr `0 1 2`.
    fn fig3a() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0), // a
                (0, 1, 2.0), // b
                (1, 0, 3.0), // c
                (1, 1, 4.0), // d
                (2, 2, 5.0), // e
                (3, 2, 6.0), // f
            ],
        )
        .unwrap()
    }

    #[test]
    fn fig3a_block_structure() {
        let bsr = BsrMatrix::from_coo(&fig3a(), 2, 2).unwrap();
        assert_eq!(bsr.num_blocks(), 2);
        assert_eq!(bsr.row_ptr(), &[0, 1, 2]);
        assert_eq!(bsr.col_ids(), &[0, 1]);
        assert_eq!(bsr.block(0), &[1.0, 2.0, 3.0, 4.0]);
        // Second block is the e/f column with padding: e * f *.
        assert_eq!(bsr.block(1), &[5.0, 0.0, 6.0, 0.0]);
        assert_eq!(bsr.padding_ratio(), 0.25);
    }

    #[test]
    fn rejects_zero_block() {
        assert!(BsrMatrix::from_coo(&fig3a(), 0, 2).is_err());
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let coo = fig3a();
        let bsr = BsrMatrix::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(bsr.to_coo(), coo);
        assert_eq!(bsr.nnz(), 6);
        assert_eq!(bsr.stored_values(), 8);
    }

    #[test]
    fn non_dividing_block_sizes_pad() {
        // 5x5 matrix with 2x2 blocks: ragged edges must still round-trip.
        let coo = CooMatrix::from_triplets(
            5,
            5,
            vec![(4, 4, 1.0), (4, 0, 2.0), (0, 4, 3.0), (2, 2, 4.0)],
        )
        .unwrap();
        let bsr = BsrMatrix::from_coo(&coo, 2, 2).unwrap();
        assert_eq!(bsr.to_coo(), coo);
        assert_eq!(bsr.get(4, 4), 1.0);
        assert_eq!(bsr.get(3, 3), 0.0);
    }

    #[test]
    fn rectangular_blocks() {
        let coo = CooMatrix::from_triplets(4, 6, vec![(1, 5, 2.0), (3, 0, 1.0)]).unwrap();
        let bsr = BsrMatrix::from_coo(&coo, 2, 3).unwrap();
        assert_eq!(bsr.block_shape(), (2, 3));
        assert_eq!(bsr.to_coo(), coo);
    }

    #[test]
    fn padding_zeros_do_not_count_as_nonzeros() {
        // Incomplete blocks store explicit zeros; the traits.rs contract
        // says nnz()/density() count stored nonzeros only, matching
        // to_coo() element-for-element.
        let coo = CooMatrix::from_triplets(5, 5, vec![(0, 0, 1.0), (4, 4, 2.0)]).unwrap();
        let bsr = BsrMatrix::from_coo(&coo, 2, 2).unwrap();
        assert!(bsr.stored_values() > bsr.nnz(), "blocks must be padded");
        assert_eq!(bsr.nnz(), 2);
        assert_eq!(bsr.nnz(), bsr.to_coo().nnz());
        assert!((bsr.density() - 2.0 / 25.0).abs() < 1e-15);
    }

    #[test]
    fn get_outside_blocks_is_zero() {
        let bsr = BsrMatrix::from_coo(&fig3a(), 2, 2).unwrap();
        assert_eq!(bsr.get(0, 2), 0.0);
        assert_eq!(bsr.get(3, 0), 0.0);
    }
}
