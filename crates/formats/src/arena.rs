//! Grow-only scratch arena for the fiber-stream traversals.
//!
//! The streaming traversals in [`crate::traverse`] assemble fibers for
//! padded, transposed or block-clustered layouts (CSC, BSR, ELL, DIA,
//! RLC, ZVC, Dense, HiCOO) in scratch buffers. Before the arena, every `for_each_fiber` call
//! built fresh `Vec`s, so a consumer that streams the same operand
//! repeatedly — the tile loop in `sparseflex-core`'s pipeline, a batch
//! worker, a kernel bench — paid heap allocations on every pass.
//!
//! [`StreamArena`] owns those buffers instead. Buffers only grow: after
//! a warm-up pass over an operand, streaming it again through
//! [`RowMajorStream::for_each_fiber_in`](crate::traverse::RowMajorStream::for_each_fiber_in)
//! or
//! [`FiberStream3::for_each_fiber_in`](crate::traverse::FiberStream3::for_each_fiber_in)
//! performs **zero** heap allocations (the property the workspace's
//! alloc-counting test harness pins). The arena also recycles the output
//! capacity of [`csr_from_stream_in`](crate::traverse::csr_from_stream_in)
//! via [`recycle_csr`](StreamArena::recycle_csr), so repeated
//! stream→CSR materializations (one per stationary tile in the pipeline)
//! reuse their `row_ptr`/`col_ids`/`values` allocations across tiles.
//!
//! # Lifecycle
//!
//! ```
//! use sparseflex_formats::{CooMatrix, MatrixData, MatrixFormat, StreamArena};
//! use sparseflex_formats::traverse::RowMajorStream;
//!
//! let coo = CooMatrix::from_triplets(3, 4, vec![(0, 1, 2.0), (2, 0, 1.0)]).unwrap();
//! let csc = MatrixData::encode(&coo, &MatrixFormat::Csc).unwrap();
//! let mut arena = StreamArena::new();
//! // Warm-up pass: the CSC transpose scratch grows to fit the operand.
//! csc.row_stream().for_each_fiber_in(&mut arena, &mut |_, _, _| {});
//! // Steady state: the same traversal allocates nothing.
//! csc.row_stream().for_each_fiber_in(&mut arena, &mut |_, _, _| {});
//! ```
//!
//! The buffers are plain public fields on purpose: each traversal names
//! the buffers it uses (destructuring the arena), so the borrow checker
//! keeps the scratch of one traversal disjoint from the next. The arena
//! holds traversal scratch only; consumers keep their own accumulators.

use crate::Value;

/// Reusable, grow-only scratch buffers for fiber-stream traversal.
///
/// See the [module docs](self) for the lifecycle. A fresh arena holds no
/// heap memory at all (`Vec::new` everywhere), so the compatibility
/// wrappers that build one per call are no worse than the pre-arena
/// code; reuse is what buys the zero-alloc steady state.
#[derive(Debug, Default)]
pub struct StreamArena {
    /// Primary coordinate scratch: the column ids (matrices) or z ids
    /// (tensors) of the fiber being assembled, and HiCOO's radix-sort
    /// ping-pong buffer before its walk emits.
    pub coords: Vec<usize>,
    /// Values parallel to [`coords`](Self::coords).
    pub vals: Vec<Value>,
    /// Secondary index scratch (the CSC/column-major transpose's row
    /// pointer array; HiCOO's staged fiber keys).
    pub idx_a: Vec<usize>,
    /// Tertiary index scratch (the transpose's next-free-slot cursors;
    /// HiCOO's radix-sorted entry order).
    pub idx_b: Vec<usize>,
    /// `(coord, value)` pairs for traversals that must re-sort a fiber
    /// (ELL rows with unsorted slots) or stage entries for a sort
    /// (HiCOO's `(z, value)`s).
    pub pairs: Vec<(usize, Value)>,
    /// `(row, col, 0, value)` quads for tall, sparse CSC bands, whose
    /// walk sorts the band's entries by `(row, col)`.
    pub quads: Vec<(usize, usize, usize, Value)>,
    // Recycled csr_from_stream_in output capacity (private: only the
    // take/recycle pair below may touch these, keeping the invariant
    // that they are never aliased by an in-flight traversal).
    csr_row_ptr: Vec<usize>,
    csr_col_ids: Vec<usize>,
    csr_values: Vec<Value>,
}

impl StreamArena {
    /// A fresh arena holding no heap memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recycled CSR output buffers (cleared, capacity kept).
    /// Used by [`csr_from_stream_in`](crate::traverse::csr_from_stream_in);
    /// pair with [`recycle_csr`](Self::recycle_csr) to return capacity.
    pub(crate) fn take_csr_buffers(&mut self) -> (Vec<usize>, Vec<usize>, Vec<Value>) {
        let mut row_ptr = std::mem::take(&mut self.csr_row_ptr);
        let mut col_ids = std::mem::take(&mut self.csr_col_ids);
        let mut values = std::mem::take(&mut self.csr_values);
        row_ptr.clear();
        col_ids.clear();
        values.clear();
        (row_ptr, col_ids, values)
    }

    /// Return a CSR matrix's allocations to the arena so the next
    /// [`csr_from_stream_in`](crate::traverse::csr_from_stream_in) call
    /// reuses their capacity instead of allocating.
    ///
    /// This is the steady-state half of the tile-loop contract: convert
    /// a tile, simulate it, recycle the materialized CSR, repeat — after
    /// the largest tile has been seen, conversions stop allocating.
    pub fn recycle_csr(&mut self, csr: crate::CsrMatrix) {
        let (_, _, row_ptr, col_ids, values) = csr.into_parts();
        // Keep the larger capacity if the arena already holds one.
        if row_ptr.capacity() > self.csr_row_ptr.capacity() {
            self.csr_row_ptr = row_ptr;
        }
        if col_ids.capacity() > self.csr_col_ids.capacity() {
            self.csr_col_ids = col_ids;
        }
        if values.capacity() > self.csr_values.capacity() {
            self.csr_values = values;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn fresh_arena_holds_no_heap_memory() {
        let a = StreamArena::new();
        assert_eq!(a.coords.capacity(), 0);
        assert_eq!(a.vals.capacity(), 0);
        assert_eq!(a.idx_a.capacity(), 0);
        assert_eq!(a.idx_b.capacity(), 0);
        assert_eq!(a.pairs.capacity(), 0);
        assert_eq!(a.quads.capacity(), 0);
    }

    #[test]
    fn recycle_keeps_the_larger_capacity() {
        let mut arena = StreamArena::new();
        let big =
            CsrMatrix::from_parts(2, 4, vec![0, 2, 3], vec![0, 3, 1], vec![1.0, 2.0, 3.0]).unwrap();
        arena.recycle_csr(big);
        let (rp, ci, vs) = arena.take_csr_buffers();
        assert!(rp.capacity() >= 3 && rp.is_empty());
        assert!(ci.capacity() >= 3 && ci.is_empty());
        assert!(vs.capacity() >= 3 && vs.is_empty());
        // Returning a smaller CSR must not shrink the stored capacity.
        let mut arena2 = StreamArena::new();
        arena2.recycle_csr(
            CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap(),
        );
        arena2.recycle_csr(CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]).unwrap());
        let (rp2, _, _) = arena2.take_csr_buffers();
        assert!(rp2.capacity() >= 3);
    }
}
