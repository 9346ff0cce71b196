//! Fiber-stream traversal: one streaming interface over every format.
//!
//! The paper's central claim is that a sparse tensor accelerator should
//! consume operands in *any* compression format (Fig. 3). The natural unit
//! of consumption is the **fiber** — Fig. 3's terminology for a
//! one-dimensional slice of the operand holding all stored elements that
//! share their remaining coordinates. For a matrix streamed row-major, a
//! fiber is one compressed row (`row_id`, the sorted column ids, and the
//! stored values); for a 3-D tensor it is one `(x, y)` mode-z fiber —
//! exactly the runs CSF's tree levels point at (Fig. 3b) and the order the
//! paper's Algorithm 1 consumes nonzeros in.
//!
//! [`RowMajorStream`] and [`FiberStream3`] expose that traversal uniformly:
//! every matrix format can push its fibers row-major, and every 3-D tensor
//! format can push its mode-z fibers x-major, regardless of how the bits
//! are laid out. Formats whose storage *is* fiber-shaped (CSR's rows, COO's
//! sorted runs, CSF's level-2 slices, ZVC's packed per-row values) stream
//! zero-copy; padded or transposed layouts (BSR, ELL, DIA, CSC, RLC, Dense)
//! assemble each fiber in scratch borrowed from a [`StreamArena`] as they
//! walk their native structure — no COO hub round-trip, no format
//! conversion, and (once the arena is warm) no heap allocation.
//!
//! Kernels written against these traits run unchanged over every format
//! (see `sparseflex-kernels`' format-generic `spmv`/`spmm`/`spgemm`/
//! `mttkrp`/`spttm`), which is the software analogue of the paper's
//! flexible-ACF accelerator: implement one traversal per format, get every
//! kernel for free.
//!
//! # Scratch discipline
//!
//! The one required walk is the ranged `for_each_fiber_range_in`, taking a
//! `&mut StreamArena`. The full walk `for_each_fiber_in` is that walk over
//! the whole extent, and the arena-less methods are provided wrappers that
//! build a fresh (heap-free) arena per call, so one-shot callers pay
//! nothing for the arena they do not reuse. Hot loops — the tile pipeline,
//! kernel workers, benches — thread one arena through every traversal so
//! scratch-hungry formats (CSC's counting-sort transpose, HiCOO's fiber-key
//! radix sort, ELL/DIA/BSR fiber assembly) reach a zero-allocation steady
//! state. See [`crate::arena`] for the buffer-ownership rules.
//!
//! # Ordering contract
//!
//! Implementations **must** emit their stored entries, grouped into
//! non-empty fibers, with fiber ids strictly ascending and coordinates
//! strictly ascending within each fiber. What is not an entry is never
//! emitted (BSR, DIA and ELL skip their padding slots, Dense its zeros,
//! RLC its run-extension entries), but a zero a format stores as an
//! entry (CSR, CSC, CSF and ZVC hold values as given) passes through.
//! The consumers that build a canonical payload from a walk drop those
//! zeros: the COO collectors, which *are* every format's `to_coo()`, and
//! the format builders behind `MatrixData::convert_to` and the tiler.
//! This makes the stream a drop-in replacement for the COO hub in any
//! order-sensitive consumer (CSR construction, merge-joins, the
//! weight-stationary dataflow). The arena-threaded and arena-less paths
//! must be bit-for-bit identical.
//!
//! # Ranged traversal (the two-phase parallel split)
//!
//! Every stream also supports a **ranged** walk for data-parallel
//! consumers: phase 1, [`RowMajorStream::row_partition`] /
//! [`FiberStream3::fiber_partition`] cuts the fiber-id space into
//! contiguous ranges of near-equal stored-nonzero weight in one cheap
//! index pass (no values are touched beyond the explicit-zero skip each
//! format's stream already performs); phase 2, each worker walks only its
//! slice via `for_each_fiber_range_in` with its **own** [`StreamArena`].
//! The contract: concatenating the ranged walks of a partition, in range
//! order, yields **exactly** the full `for_each_fiber_in` stream — same
//! fibers, same order, same scratch discipline — so parallel kernels
//! built on top are bit-for-bit identical to their sequential twins.
//! Matrix ranges are over row ids `0..rows`; tensor ranges are over the
//! linearized fiber key `x * dim_y + y` in `0..dim_x * dim_y`.

use crate::arena::StreamArena;
use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::csf::CsfTensor;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::dia::DiaMatrix;
use crate::ell::{EllMatrix, ELL_PAD};
use crate::formats::{MatrixData, TensorData};
use crate::hicoo::HiCooTensor;
use crate::rlc::{RlcMatrix, RlcTensor3};
use crate::tensor::{CooTensor3, DenseTensor3};
use crate::traits::{SparseMatrix, SparseTensor3};
use crate::zvc::{for_each_set_bit, ZvcMatrix, ZvcTensor3};
use crate::Value;
use std::ops::Range;

/// Callback consuming one matrix row fiber: `(row, col_ids, values)`.
pub type RowFiberSink<'a> = dyn FnMut(usize, &[usize], &[Value]) + 'a;

/// Callback consuming one tensor mode-z fiber: `(x, y, z_ids, values)`.
pub type FiberSink3<'a> = dyn FnMut(usize, usize, &[usize], &[Value]) + 'a;

/// Cut `0..prefix.len()-1` units (rows / fiber keys) into contiguous
/// ranges of near-equal weight, where `prefix` is the inclusive weight
/// prefix sum (`prefix[0] == 0`, `prefix[u]` = total weight of units
/// `0..u`). Boundary `p` is placed at the first unit whose prefix reaches
/// `p/parts` of the total (one [`slice::partition_point`] each), so every
/// range's weight is within one maximum-unit-weight of the ideal
/// `total/parts`. Duplicate boundaries collapse: the result has at most
/// `parts` non-empty ranges, ascending, disjoint, covering every unit.
fn split_by_prefix(prefix: &[usize], parts: usize) -> Vec<Range<usize>> {
    let units = prefix.len().saturating_sub(1);
    if units == 0 {
        return Vec::new();
    }
    let parts = parts.max(1);
    let total = prefix[units];
    let mut out = Vec::with_capacity(parts.min(units));
    let mut start = 0usize;
    for p in 1..parts {
        let target = ((total as u128 * p as u128) / parts as u128) as usize;
        let end = prefix.partition_point(|&w| w < target).min(units);
        if end <= start {
            continue;
        }
        out.push(start..end);
        start = end;
    }
    if start < units {
        out.push(start..units);
    }
    out
}

/// Inclusive scan of a histogram held at `prefix[u + 1]`, in place, the
/// running sum in a register: re-reading each slot just written would
/// wait on the store. Row, column and fiber pointers are built with it.
pub(crate) fn scan(prefix: &mut [usize]) {
    let mut sum = 0;
    for p in prefix {
        sum += *p;
        *p = sum;
    }
}

/// The [`split_by_prefix`] weights of a ZVC mask cut into `units` runs of
/// `width` positions (matrix rows, tensor fibers): `prefix[u]` is the set
/// bits before position `u * width`. A running rank, so O(words + units):
/// one popcount per mask word and one masked popcount per unit boundary.
fn mask_prefix(mask: &[u64], units: usize, width: usize) -> Vec<usize> {
    let mut prefix = Vec::with_capacity(units + 1);
    // Set bits in `mask[..word]`.
    let (mut word, mut before) = (0, 0);
    for u in 0..=units {
        let end = u * width;
        while word < end / 64 {
            before += mask[word].count_ones() as usize;
            word += 1;
        }
        let partial = match end % 64 {
            0 => 0,
            bits => (mask[word] & ((1u64 << bits) - 1)).count_ones() as usize,
        };
        prefix.push(before + partial);
    }
    prefix
}

/// [`split_by_prefix`] for streams whose elements are stored sorted by
/// unit key (COO's row ids, a tensor's `x*dim_y + y` fiber keys): instead
/// of building a prefix array, boundary `p` is the key of element
/// `p/parts * n_elems` — elements sharing that key stay in the next range,
/// so ranges never split a fiber and carry the same near-equal-weight
/// guarantee. `key_at(i)` must be non-decreasing in `i`.
fn split_by_sorted_keys(
    n_elems: usize,
    key_end: usize,
    parts: usize,
    key_at: &dyn Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    if key_end == 0 {
        return Vec::new();
    }
    let parts = parts.max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..parts {
        let t = ((n_elems as u128 * p as u128) / parts as u128) as usize;
        let end = if t >= n_elems { key_end } else { key_at(t) };
        if end <= start {
            continue;
        }
        out.push(start..end);
        start = end;
    }
    if start < key_end {
        out.push(start..key_end);
    }
    out
}

/// Stable LSD radix sort: fills `order` with `0..keys.len()` ordered by
/// `keys[i]`, equal keys in index order, one byte of the key per pass,
/// through `scratch`. Passes stop at the largest key's top byte, so time
/// is O(entries) per byte of the key span and scratch is O(entries) at
/// any span — where a counting sort would take O(span) scratch.
fn radix_order(keys: &[usize], order: &mut Vec<usize>, scratch: &mut Vec<usize>) {
    order.clear();
    order.extend(0..keys.len());
    let max = keys.iter().copied().max().unwrap_or(0);
    let mut shift = 0;
    while shift < usize::BITS && max >> shift != 0 {
        let mut starts = [0usize; 256];
        for &i in order.iter() {
            starts[keys[i] >> shift & 0xff] += 1;
        }
        let mut sum = 0;
        for start in &mut starts {
            (*start, sum) = (sum, sum + *start);
        }
        scratch.clear();
        scratch.resize(order.len(), 0);
        for &i in order.iter() {
            let digit = keys[i] >> shift & 0xff;
            scratch[starts[digit]] = i;
            starts[digit] += 1;
        }
        std::mem::swap(order, scratch);
        shift += 8;
    }
}

/// First index in `0..n` for which `below` turns false (standard binary
/// search over an implicitly sorted predicate — the index-pair analogue of
/// [`slice::partition_point`] for streams keyed by two parallel arrays).
fn lower_bound(n: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Row-major fiber traversal over any 2-D format.
///
/// One call to [`for_each_fiber_in`](Self::for_each_fiber_in) pushes every
/// stored row fiber `(row, cols, vals)` through the callback, rows
/// ascending and columns ascending within each row — the order the paper's
/// streaming dataflows (Alg. 1, Fig. 6) consume the operand in. Scratch
/// comes from the caller's [`StreamArena`], so repeat traversals allocate
/// nothing; [`for_each_fiber`](Self::for_each_fiber) is the one-shot
/// wrapper.
///
/// Implementations provide only the ranged walk and the partitioner; the
/// full walk is the ranged walk over `0..rows()`. The `Sync` supertrait
/// lets parallel kernels share one `&dyn RowMajorStream` across scoped
/// worker threads; every format is plain owned data, so this costs
/// implementations nothing.
pub trait RowMajorStream: SparseMatrix + Sync {
    /// Ranged walk: push each non-empty row fiber `(row, col_ids, values)`
    /// whose row lies in `range`, in row-major order, assembling
    /// scratch-built fibers in `arena`. `col_ids` and `values` are
    /// parallel slices (borrowed from the format where the layout allows,
    /// from the arena otherwise) and are only valid for the duration of
    /// the callback. Concatenating the walks of a
    /// [`row_partition`](Self::row_partition) reproduces the full stream
    /// exactly. Implementations seek to the range using their native
    /// structure (offset `partition_point`, run skip-scan, bitmask rank,
    /// …) rather than filtering the full walk wherever the layout allows.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    );

    /// Full walk: the ranged walk over every row.
    fn for_each_fiber_in(&self, arena: &mut StreamArena, emit: &mut RowFiberSink<'_>) {
        self.for_each_fiber_range_in(0..self.rows(), arena, emit);
    }

    /// Phase 1 of the two-phase parallel split: cut `0..rows` into at most
    /// `parts` contiguous row ranges of near-equal stored-nonzero weight
    /// (each range within one maximum-row-weight of `nnz/parts`), in a
    /// single structure pass. Ranges are ascending, disjoint, and cover
    /// every row; an empty matrix yields no ranges.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>>;

    /// One-shot wrapper around [`for_each_fiber_in`](Self::for_each_fiber_in)
    /// with a fresh (heap-free until used) arena.
    fn for_each_fiber(&self, emit: &mut RowFiberSink<'_>) {
        self.for_each_fiber_in(&mut StreamArena::new(), emit);
    }
}

/// Mode-z fiber traversal over any 3-D tensor format.
///
/// One call to [`for_each_fiber_in`](Self::for_each_fiber_in) pushes every
/// non-empty `(x, y)` fiber — the z-direction runs of Fig. 3b that CSF's
/// tree levels index — with `(x, y)` lexicographically ascending and z
/// ascending within each fiber. Scratch comes from the caller's
/// [`StreamArena`]; [`for_each_fiber`](Self::for_each_fiber) is the
/// one-shot wrapper.
///
/// Implementations provide only the ranged walk and the partitioner; the
/// full walk is the ranged walk over every fiber key. The `Sync`
/// supertrait lets parallel kernels share one `&dyn FiberStream3` across
/// scoped worker threads.
pub trait FiberStream3: SparseTensor3 + Sync {
    /// Ranged walk over the linearized fiber keys `x * dim_y + y`: push
    /// each non-empty fiber `(x, y, z_ids, values)` whose key lies in
    /// `range`, in `(x, y)` lexicographic order, assembling scratch-built
    /// fibers in `arena` and seeking via the native structure. `z_ids` and
    /// `values` are parallel slices valid only for the duration of the
    /// callback. Concatenating the walks of a
    /// [`fiber_partition`](Self::fiber_partition) reproduces the full
    /// stream exactly.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    );

    /// Full walk: the ranged walk over `0..dim_x() * dim_y()`.
    fn for_each_fiber_in(&self, arena: &mut StreamArena, emit: &mut FiberSink3<'_>) {
        self.for_each_fiber_range_in(0..self.dim_x() * self.dim_y(), arena, emit);
    }

    /// Phase 1 of the two-phase parallel split: cut the fiber-key space
    /// `0..dim_x * dim_y` into at most `parts` contiguous ranges of
    /// near-equal stored-nonzero weight in one structure pass. Ranges are
    /// ascending, disjoint, and cover every key; an empty key space yields
    /// no ranges.
    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>>;

    /// One-shot wrapper around [`for_each_fiber_in`](Self::for_each_fiber_in)
    /// with a fresh (heap-free until used) arena.
    fn for_each_fiber(&self, emit: &mut FiberSink3<'_>) {
        self.for_each_fiber_in(&mut StreamArena::new(), emit);
    }
}

// ---------------------------------------------------------------------------
// Matrix implementations
// ---------------------------------------------------------------------------

impl RowMajorStream for CsrMatrix {
    /// Zero-copy: CSR rows *are* fibers. The arena is untouched.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        _arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        for r in range.start..range.end.min(self.rows()) {
            let (cols, vals) = self.row(r);
            if !cols.is_empty() {
                emit(r, cols, vals);
            }
        }
    }

    /// The row pointer *is* the weight prefix sum.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        split_by_prefix(self.row_ptr(), parts)
    }
}

impl RowMajorStream for CooMatrix {
    /// Zero-copy: the hub arrays are row-major sorted, so each row's
    /// entries form a contiguous run. The arena is untouched.
    ///
    /// Seeks the element window with two `partition_point`s on the sorted
    /// row ids, then run-scans only that window.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        _arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let rids = self.row_ids();
        let mut s = rids.partition_point(|&r| r < range.start);
        let stop = rids.partition_point(|&r| r < range.end);
        while s < stop {
            let r = rids[s];
            let mut e = s + 1;
            while e < stop && rids[e] == r {
                e += 1;
            }
            emit(r, &self.col_ids()[s..e], &self.values()[s..e]);
            s = e;
        }
    }

    /// Quantile split over the sorted row ids — no counting pass needed.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let rids = self.row_ids();
        split_by_sorted_keys(rids.len(), self.rows(), parts, &|i| rids[i])
    }
}

impl RowMajorStream for DenseMatrix {
    /// Arena-scratch: compacts each dense row's nonzeros into one fiber,
    /// scanning the row's values in column order.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let StreamArena { coords, vals, .. } = arena;
        for r in range.start..range.end.min(self.rows()) {
            coords.clear();
            vals.clear();
            for (c, &v) in self.row(r).iter().enumerate() {
                if v != 0.0 {
                    coords.push(c);
                    vals.push(v);
                }
            }
            if !coords.is_empty() {
                emit(r, coords, vals);
            }
        }
    }

    /// Counts the nonzeros the stream will emit per row (one value scan —
    /// dense storage has no cheaper structure to consult).
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let rows = self.rows();
        let mut prefix = Vec::with_capacity(rows + 1);
        prefix.push(0usize);
        for r in 0..rows {
            let nz = self.row(r).iter().filter(|&&v| v != 0.0).count();
            prefix.push(prefix[r] + nz);
        }
        split_by_prefix(&prefix, parts)
    }
}

impl RowMajorStream for CscMatrix {
    /// Arena-scratch counting-sort transpose: one O(nnz) bucketing pass
    /// (the same algorithm MINT's CSC→CSR pipeline runs in hardware,
    /// Fig. 8c), then a zero-copy walk of the transposed runs. Steady
    /// state reuses the arena's `idx_a`/`idx_b`/`coords`/`vals` capacity.
    ///
    /// The counting sort restricted to the row band `range`: each worker
    /// still scans the full column-major index (CSC stores nothing
    /// row-contiguous to seek by), but buckets, scatters, and emits only
    /// its own rows, so scratch is band-sized and bands are independent.
    /// A band far taller than the operand holds entries (`nnz·log₂nnz`
    /// below its rows) sorts its entries by row instead, so the walk
    /// never visits its empty rows.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let rows = self.rows();
        let lo = range.start.min(rows);
        let hi = range.end.min(rows);
        if lo >= hi {
            return;
        }
        let band = hi - lo;
        let nnz = self.nnz();
        if nnz.saturating_mul(nnz.max(2).ilog2() as usize) < band {
            csc_sorted_band(self, lo..hi, arena, emit);
            return;
        }
        let StreamArena {
            coords,
            vals,
            idx_a: row_ptr,
            idx_b: next,
            ..
        } = arena;
        row_ptr.clear();
        row_ptr.resize(band + 1, 0);
        for &r in self.row_ids() {
            if r >= lo && r < hi {
                row_ptr[r - lo + 1] += 1;
            }
        }
        scan(row_ptr);
        let band_nnz = row_ptr[band];
        coords.clear();
        coords.resize(band_nnz, 0);
        vals.clear();
        vals.resize(band_nnz, 0.0);
        next.clear();
        next.extend_from_slice(row_ptr);
        // Column-major scan fills each row bucket in ascending column order.
        for (r, c, v) in self.iter_col_major() {
            if r >= lo && r < hi {
                let slot = next[r - lo];
                next[r - lo] += 1;
                coords[slot] = c;
                vals[slot] = v;
            }
        }
        for i in 0..band {
            let (s, e) = (row_ptr[i], row_ptr[i + 1]);
            if s < e {
                emit(lo + i, &coords[s..e], &vals[s..e]);
            }
        }
    }

    /// Reuses the transpose's counting pass as the weight histogram.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let mut prefix = vec![0usize; self.rows() + 1];
        for &r in self.row_ids() {
            prefix[r + 1] += 1;
        }
        scan(&mut prefix);
        split_by_prefix(&prefix, parts)
    }
}

/// CSC's walk of the row band `rows` in O(entries): stage the band's
/// entries, sort them by (row, column) and emit each row's run.
fn csc_sorted_band(
    csc: &CscMatrix,
    rows: Range<usize>,
    arena: &mut StreamArena,
    emit: &mut RowFiberSink<'_>,
) {
    let StreamArena {
        coords,
        vals,
        quads,
        ..
    } = arena;
    quads.clear();
    for c in 0..csc.cols() {
        let (rs, vs) = csc.col(c);
        for (&r, &v) in rs.iter().zip(vs) {
            if rows.contains(&r) {
                quads.push((r, c, 0, v));
            }
        }
    }
    // (row, column) pairs are distinct, so the unstable sort is the
    // stable one: each row's columns ascending.
    quads.sort_unstable_by_key(|q| (q.0, q.1));
    coords.clear();
    coords.extend(quads.iter().map(|q| q.1));
    vals.clear();
    vals.extend(quads.iter().map(|q| q.3));
    let mut s = 0;
    while s < quads.len() {
        let r = quads[s].0;
        let e = s + quads[s..].partition_point(|q| q.0 == r);
        emit(r, &coords[s..e], &vals[s..e]);
        s = e;
    }
}

impl RowMajorStream for BsrMatrix {
    /// Arena-scratch: walks each block row once, merging the stored blocks'
    /// local rows (block columns are sorted, so concatenation is already
    /// column-ascending) and skipping padding zeros.
    ///
    /// Clamps the block-row window to `range.start / br_h ..
    /// ceil(range.end / br_h)` via the block offsets, then skips the local
    /// rows outside the range inside the two boundary block rows.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let (br_h, bc_w) = self.block_shape();
        let lo = range.start.min(self.rows());
        let hi = range.end.min(self.rows());
        if lo >= hi || br_h == 0 {
            return;
        }
        let StreamArena { coords, vals, .. } = arena;
        for br in lo / br_h..hi.div_ceil(br_h).min(self.num_block_rows()) {
            for lr in 0..br_h {
                let r = br * br_h + lr;
                if r >= hi {
                    break;
                }
                if r < lo {
                    continue;
                }
                coords.clear();
                vals.clear();
                for i in self.row_ptr()[br]..self.row_ptr()[br + 1] {
                    let bc = self.col_ids()[i];
                    let blk = self.block(i);
                    for lc in 0..bc_w {
                        let c = bc * bc_w + lc;
                        if c >= self.cols() {
                            break;
                        }
                        let v = blk[lr * bc_w + lc];
                        if v != 0.0 {
                            coords.push(c);
                            vals.push(v);
                        }
                    }
                }
                if !coords.is_empty() {
                    emit(r, coords, vals);
                }
            }
        }
    }

    /// One pass over the stored blocks, histogramming the nonzero block
    /// values into their global rows (padding zeros excluded, matching
    /// what the stream emits).
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let (br_h, bc_w) = self.block_shape();
        let rows = self.rows();
        let mut prefix = vec![0usize; rows + 1];
        for br in 0..self.num_block_rows() {
            for i in self.row_ptr()[br]..self.row_ptr()[br + 1] {
                let bc = self.col_ids()[i];
                let blk = self.block(i);
                for lr in 0..br_h {
                    let r = br * br_h + lr;
                    if r >= rows {
                        break;
                    }
                    for lc in 0..bc_w {
                        let c = bc * bc_w + lc;
                        if c >= self.cols() {
                            break;
                        }
                        if blk[lr * bc_w + lc] != 0.0 {
                            prefix[r + 1] += 1;
                        }
                    }
                }
            }
        }
        scan(&mut prefix);
        split_by_prefix(&prefix, parts)
    }
}

impl RowMajorStream for EllMatrix {
    /// Arena-scratch, single pass: sentinel slots and explicit zeros are
    /// dropped *while* scanning the padded row (not filtered from a
    /// materialized copy), and sortedness is detected on the fly — rows
    /// whose stored slots are already column-ascending (the common case
    /// for encoder-produced ELL) emit directly; only genuinely unsorted
    /// builder-supplied rows pay the re-sort through `pairs`.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let StreamArena {
            coords,
            vals,
            pairs,
            ..
        } = arena;
        for r in range.start..range.end.min(self.rows()) {
            let (cs, vs) = self.row(r);
            coords.clear();
            vals.clear();
            let mut sorted = true;
            for (&c, &v) in cs.iter().zip(vs) {
                if c != ELL_PAD && v != 0.0 {
                    if let Some(&last) = coords.last() {
                        sorted &= last < c;
                    }
                    coords.push(c);
                    vals.push(v);
                }
            }
            if coords.is_empty() {
                continue;
            }
            if !sorted {
                pairs.clear();
                pairs.extend(coords.iter().copied().zip(vals.iter().copied()));
                pairs.sort_unstable_by_key(|&(c, _)| c);
                coords.clear();
                vals.clear();
                for &(c, v) in pairs.iter() {
                    coords.push(c);
                    vals.push(v);
                }
            }
            emit(r, coords, vals);
        }
    }

    /// One pass over the padded slots counting the entries the stream
    /// keeps (`c != ELL_PAD && v != 0.0`).
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let rows = self.rows();
        let mut prefix = Vec::with_capacity(rows + 1);
        prefix.push(0usize);
        for r in 0..rows {
            let (cs, vs) = self.row(r);
            let nz = cs
                .iter()
                .zip(vs)
                .filter(|&(&c, &v)| c != ELL_PAD && v != 0.0)
                .count();
            prefix.push(prefix[r] + nz);
        }
        split_by_prefix(&prefix, parts)
    }
}

impl RowMajorStream for DiaMatrix {
    /// Arena-scratch: per row, the sorted diagonal offsets yield columns in
    /// ascending order directly (`col = row + offset`). The valid offset
    /// window `0 <= row + k < cols` is located by binary search over the
    /// sorted offsets, so out-of-bounds strip slots are never visited;
    /// padding zeros inside the window are skipped during the scan.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let (rows, cols_n) = (self.rows(), self.cols());
        let offsets = self.offsets();
        let StreamArena { coords, vals, .. } = arena;
        for r in range.start..range.end.min(rows) {
            coords.clear();
            vals.clear();
            let lo = offsets.partition_point(|&k| r as isize + k < 0);
            let hi = offsets.partition_point(|&k| r as isize + k < cols_n as isize);
            for (i, &k) in offsets[lo..hi].iter().enumerate() {
                let v = self.data()[(lo + i) * rows + r];
                if v != 0.0 {
                    coords.push((r as isize + k) as usize);
                    vals.push(v);
                }
            }
            if !coords.is_empty() {
                emit(r, coords, vals);
            }
        }
    }

    /// Per-row scan of the valid diagonal window (the same binary-searched
    /// window the traversal walks), counting stored nonzeros.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let (rows, cols_n) = (self.rows(), self.cols());
        let offsets = self.offsets();
        let mut prefix = Vec::with_capacity(rows + 1);
        prefix.push(0usize);
        for r in 0..rows {
            let lo = offsets.partition_point(|&k| r as isize + k < 0);
            let hi = offsets.partition_point(|&k| r as isize + k < cols_n as isize);
            let nz = (lo..hi)
                .filter(|&i| self.data()[i * rows + r] != 0.0)
                .count();
            prefix.push(prefix[r] + nz);
        }
        split_by_prefix(&prefix, parts)
    }
}

impl RowMajorStream for RlcMatrix {
    /// Native stream: decodes the run-length entries in flat order (which
    /// is row-major by construction), batching each row into one fiber in
    /// arena scratch.
    ///
    /// Skip-scan: the cursor decodes entry *positions* only (no fiber
    /// assembly) until it reaches the range, and stops at the first
    /// position past it — runs are strictly position-ascending.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let cols_n = self.cols();
        if cols_n == 0 {
            return;
        }
        let lo_pos = range.start as u64 * cols_n as u64;
        let hi_pos = range.end.min(self.rows()) as u64 * cols_n as u64;
        let mut cur_row = usize::MAX;
        let StreamArena { coords, vals, .. } = arena;
        coords.clear();
        vals.clear();
        let mut cursor = 0u64;
        for e in self.entries() {
            let pos = cursor + e.zeros;
            cursor = pos + 1;
            if pos >= hi_pos {
                break;
            }
            if e.value == 0.0 || pos < lo_pos {
                continue; // run-extension entry, or before the range
            }
            let r = (pos as usize) / cols_n;
            if r != cur_row {
                if !coords.is_empty() {
                    emit(cur_row, coords, vals);
                    coords.clear();
                    vals.clear();
                }
                cur_row = r;
            }
            coords.push((pos as usize) % cols_n);
            vals.push(e.value);
        }
        if !coords.is_empty() {
            emit(cur_row, coords, vals);
        }
    }

    /// One decode pass over the run entries, histogramming the value
    /// entries (extension entries excluded) into their rows.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let (rows, cols_n) = (self.rows(), self.cols());
        let mut prefix = vec![0usize; rows + 1];
        let mut cursor = 0u64;
        for e in self.entries() {
            let pos = cursor + e.zeros;
            cursor = pos + 1;
            if e.value == 0.0 {
                continue;
            }
            // checked_div: a zero-column matrix stores no positions at
            // all, so `None` just skips the (impossible) entry.
            if let Some(r) = (pos as usize).checked_div(cols_n) {
                prefix[r + 1] += 1;
            }
        }
        scan(&mut prefix);
        split_by_prefix(&prefix, parts)
    }
}

impl RowMajorStream for ZvcMatrix {
    /// Half zero-copy: values are packed row-major, so each row's values
    /// form a contiguous slice; only the column ids are decoded from the
    /// bitmask into arena scratch.
    ///
    /// Seeks the packed-value cursor with one rank query (popcount of the
    /// mask words before the range), then decodes only the range's bits,
    /// a mask word at a time: each row visits its set bits only.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let (rows, cols_n) = (self.rows(), self.cols());
        let lo = range.start.min(rows);
        let hi = range.end.min(rows);
        let coords = &mut arena.coords;
        let mut vi = self.rank(lo * cols_n);
        for r in lo..hi {
            coords.clear();
            let start = vi;
            let base = r * cols_n;
            for_each_set_bit(self.mask(), base..base + cols_n, |c| coords.push(c));
            vi += coords.len();
            if !coords.is_empty() {
                emit(r, coords, &self.values()[start..vi]);
            }
        }
    }

    /// Set mask bits per row, a mask word at a time — pure index work.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        split_by_prefix(&mask_prefix(self.mask(), self.rows(), self.cols()), parts)
    }
}

impl RowMajorStream for MatrixData {
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        self.row_stream()
            .for_each_fiber_range_in(range, arena, emit);
    }
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        self.row_stream().row_partition(parts)
    }
}

impl MatrixData {
    /// Borrow the payload as a row-major fiber stream — the format-agnostic
    /// traversal every generic kernel consumes.
    pub fn row_stream(&self) -> &dyn RowMajorStream {
        match self {
            MatrixData::Dense(m) => m,
            MatrixData::Coo(m) => m,
            MatrixData::Csr(m) => m,
            MatrixData::Csc(m) => m,
            MatrixData::Bsr(m) => m,
            MatrixData::Dia(m) => m,
            MatrixData::Ell(m) => m,
            MatrixData::Rlc(m) => m,
            MatrixData::Zvc(m) => m,
        }
    }
}

// ---------------------------------------------------------------------------
// Tensor implementations
// ---------------------------------------------------------------------------

impl FiberStream3 for CooTensor3 {
    /// Zero-copy: the hub arrays are x-major sorted, so each `(x, y)`
    /// fiber's entries form a contiguous run. The arena is untouched.
    ///
    /// Seek: binary-search the sorted hub keys for the range window, then
    /// run-scan only that window.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let _ = arena;
        let dy = self.dim_y();
        let (xs, ys) = (self.x_ids(), self.y_ids());
        let key = |i: usize| xs[i] * dy + ys[i];
        let mut s = lower_bound(xs.len(), |i| key(i) < range.start);
        let stop = lower_bound(xs.len(), |i| key(i) < range.end);
        while s < stop {
            let (x, y) = (xs[s], ys[s]);
            let mut e = s + 1;
            while e < stop && xs[e] == x && ys[e] == y {
                e += 1;
            }
            emit(x, y, &self.z_ids()[s..e], &self.values()[s..e]);
            s = e;
        }
    }

    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let dy = self.dim_y();
        let xs = self.x_ids();
        let ys = self.y_ids();
        split_by_sorted_keys(xs.len(), self.dim_x() * dy, parts, &|i| xs[i] * dy + ys[i])
    }
}

impl FiberStream3 for CsfTensor {
    /// Zero-copy tree walk: CSF's level-2 slices *are* the fibers — each
    /// `y_ptr` range is one `(x, y)` fiber's z ids and values.
    ///
    /// Seek: the tree walk skips whole x slices entirely outside the key
    /// range and clips the fiber loop at both ends (keys ascend within a
    /// slice because `y_fids` are sorted per slice).
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let _ = arena;
        let dy = self.dim_y();
        for (si, &x) in self.x_fids().iter().enumerate() {
            if (x + 1) * dy <= range.start {
                continue;
            }
            if x * dy >= range.end {
                break;
            }
            for fi in self.x_ptr()[si]..self.x_ptr()[si + 1] {
                let key = x * dy + self.y_fids()[fi];
                if key < range.start {
                    continue;
                }
                if key >= range.end {
                    break;
                }
                let (s, e) = (self.y_ptr()[fi], self.y_ptr()[fi + 1]);
                if s < e {
                    emit(
                        x,
                        self.y_fids()[fi],
                        &self.z_fids()[s..e],
                        &self.values()[s..e],
                    );
                }
            }
        }
    }

    /// Quantile split over the stored elements: element `e` belongs to the
    /// fiber found by two `partition_point` descents through the tree
    /// pointers (`y_ptr` locates the fiber, `x_ptr` locates its slice).
    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let dy = self.dim_y();
        let key_at = |e: usize| {
            let fi = self.y_ptr().partition_point(|&p| p <= e) - 1;
            let si = self.x_ptr().partition_point(|&p| p <= fi) - 1;
            self.x_fids()[si] * dy + self.y_fids()[fi]
        };
        split_by_sorted_keys(self.values().len(), self.dim_x() * dy, parts, &key_at)
    }
}

impl FiberStream3 for DenseTensor3 {
    /// Arena-scratch: each `(x, y)` run of the flat buffer (z fastest) is
    /// one fiber; zeros are compacted away.
    ///
    /// Direct seek: keys address the flat buffer, so the ranged walk is the
    /// same compaction loop over `range` keys only.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let (dx, dy, dz) = (self.dim_x(), self.dim_y(), self.dim_z());
        let StreamArena {
            coords: zs, vals, ..
        } = arena;
        for key in range.start..range.end.min(dx * dy) {
            let (x, y) = (key / dy, key % dy);
            let base = key * dz;
            zs.clear();
            vals.clear();
            for (z, &v) in self.data()[base..base + dz].iter().enumerate() {
                if v != 0.0 {
                    zs.push(z);
                    vals.push(v);
                }
            }
            if !zs.is_empty() {
                emit(x, y, zs, vals);
            }
        }
    }

    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let (dx, dy, dz) = (self.dim_x(), self.dim_y(), self.dim_z());
        let keys = dx * dy;
        let mut prefix = vec![0usize; keys + 1];
        for key in 0..keys {
            let base = key * dz;
            let nnz = self.data()[base..base + dz]
                .iter()
                .filter(|&&v| v != 0.0)
                .count();
            prefix[key + 1] = prefix[key] + nnz;
        }
        split_by_prefix(&prefix, parts)
    }
}

/// Calls `f(key, z, value)` for every stored HiCOO entry whose fiber key
/// `x * dim_y + y` falls in `keys`, in storage order. Blocks ascend by
/// `bx`, so two `partition_point`s find the block rows the keys' x span
/// touches and no other block is visited.
fn hicoo_entries(h: &HiCooTensor, keys: Range<usize>, mut f: impl FnMut(usize, usize, Value)) {
    let (dy, b) = (h.dim_y(), h.block());
    if keys.is_empty() {
        return;
    }
    let bx = h.bx();
    let first = bx.partition_point(|&x| x < keys.start / dy / b);
    let last = bx.partition_point(|&x| x <= (keys.end - 1) / dy / b);
    for (blk, &block_x) in bx.iter().enumerate().take(last).skip(first) {
        let (x0, y0, z0) = (block_x * b, h.by()[blk] * b, h.bz()[blk] * b);
        for i in h.bptr()[blk]..h.bptr()[blk + 1] {
            let key = (x0 + h.ex()[i] as usize) * dy + y0 + h.ey()[i] as usize;
            if keys.contains(&key) {
                f(key, z0 + h.ez()[i] as usize, h.values()[i]);
            }
        }
    }
}

impl FiberStream3 for HiCooTensor {
    /// Block-row seek and radix sort: HiCOO clusters nonzeros by spatial
    /// block, so one `(x, y)` fiber may be split across blocks. The walk
    /// stages the range's entries (`hicoo_entries`) in the arena and
    /// orders them by fiber key with one stable radix sort
    /// (`radix_order`). A fiber's entries are staged in storage order,
    /// which is ascending z (its blocks ascend by `bz`, a block's entries
    /// by `ez`), so stability keeps each fiber's z ids ascending. Time and
    /// scratch are O(entries) per byte of the range's key span.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let dy = self.dim_y();
        let (lo, hi) = (range.start, range.end.min(self.dim_x() * dy));
        let StreamArena {
            coords: zs,
            vals,
            idx_a: keys,
            idx_b: order,
            pairs: staged,
            ..
        } = arena;
        keys.clear();
        staged.clear();
        hicoo_entries(self, lo..hi, |key, z, v| {
            keys.push(key - lo);
            staged.push((z, v));
        });
        radix_order(keys, order, zs);
        let mut s = 0;
        while s < order.len() {
            let key = keys[order[s]];
            zs.clear();
            vals.clear();
            while s < order.len() && keys[order[s]] == key {
                let (z, v) = staged[order[s]];
                zs.push(z);
                vals.push(v);
                s += 1;
            }
            emit((lo + key) / dy, (lo + key) % dy, zs, vals);
        }
    }

    /// Block scan: decode every entry's fiber key once, radix-sort the
    /// keys, and quantile-split — the per-block clustering means no single
    /// structure pass yields sorted keys for free.
    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let key_end = self.dim_x() * self.dim_y();
        let mut keys = Vec::with_capacity(self.nnz());
        hicoo_entries(self, 0..key_end, |key, _, _| keys.push(key));
        let (mut order, mut scratch) = (Vec::new(), Vec::new());
        radix_order(&keys, &mut order, &mut scratch);
        split_by_sorted_keys(keys.len(), key_end, parts, &|i| keys[order[i]])
    }
}

impl FiberStream3 for RlcTensor3 {
    /// Native stream: the flattened run-length entries decode in `(x, y, z)`
    /// order; consecutive same-`(x, y)` elements batch into one fiber in
    /// arena scratch.
    ///
    /// Run skip-scan: decode positions ascend monotonically, so the walk
    /// skips entries below the range window and stops at the first entry
    /// past it.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let (dx, dy, dz) = (self.dim_x(), self.dim_y(), self.dim_z());
        if dy == 0 || dz == 0 {
            return;
        }
        let lo_pos = range.start as u64 * dz as u64;
        let hi_pos = range.end.min(dx * dy) as u64 * dz as u64;
        let mut cur: Option<(usize, usize)> = None;
        let StreamArena {
            coords: zs, vals, ..
        } = arena;
        zs.clear();
        vals.clear();
        let mut cursor = 0u64;
        for e in self.entries() {
            let pos = cursor + e.zeros;
            cursor = pos + 1;
            if pos >= hi_pos {
                break;
            }
            if e.value == 0.0 || pos < lo_pos {
                continue; // run-extension entry or before the window
            }
            let p = pos as usize;
            let xy = (p / (dy * dz), (p / dz) % dy);
            if cur != Some(xy) {
                if let Some((x, y)) = cur {
                    if !zs.is_empty() {
                        emit(x, y, zs, vals);
                        zs.clear();
                        vals.clear();
                    }
                }
                cur = Some(xy);
            }
            zs.push(p % dz);
            vals.push(e.value);
        }
        if let Some((x, y)) = cur {
            if !zs.is_empty() {
                emit(x, y, zs, vals);
            }
        }
    }

    /// Run scan: one decode pass histograms stored elements per fiber key
    /// into a prefix array.
    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let (dx, dy, dz) = (self.dim_x(), self.dim_y(), self.dim_z());
        let keys = dx * dy;
        let mut prefix = vec![0usize; keys + 1];
        let mut cursor = 0u64;
        for e in self.entries() {
            let pos = cursor + e.zeros;
            cursor = pos + 1;
            if e.value == 0.0 {
                continue;
            }
            // checked_div: a zero-depth tensor stores no positions at all,
            // so `None` just skips the (impossible) entry.
            if let Some(key) = (pos as usize).checked_div(dz) {
                prefix[key + 1] += 1;
            }
        }
        scan(&mut prefix);
        split_by_prefix(&prefix, parts)
    }
}

impl FiberStream3 for ZvcTensor3 {
    /// Half zero-copy: values are packed in flat order, so each `(x, y)`
    /// fiber's values are contiguous; z ids decode from the bitmask into
    /// arena scratch.
    ///
    /// Bitmask rank seek: the packed-value cursor for the first in-range
    /// fiber is `rank(range.start * dz)` (a popcount over the mask prefix);
    /// from there each fiber decodes its set bits a mask word at a time,
    /// as the matrix walk decodes a row.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let (dx, dy, dz) = (self.dim_x(), self.dim_y(), self.dim_z());
        let lo = range.start.min(dx * dy);
        let hi = range.end.min(dx * dy);
        let zs = &mut arena.coords;
        let mut vi = self.rank(lo * dz);
        for key in lo..hi {
            let base = key * dz;
            zs.clear();
            for_each_set_bit(self.mask(), base..base + dz, |z| zs.push(z));
            if !zs.is_empty() {
                let start = vi;
                vi += zs.len();
                emit(key / dy, key % dy, zs, &self.values()[start..vi]);
            }
        }
    }

    /// Set mask bits per fiber key, a mask word at a time.
    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let keys = self.dim_x() * self.dim_y();
        split_by_prefix(&mask_prefix(self.mask(), keys, self.dim_z()), parts)
    }
}

impl FiberStream3 for TensorData {
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        self.fiber_stream()
            .for_each_fiber_range_in(range, arena, emit);
    }
    fn fiber_partition(&self, parts: usize) -> Vec<Range<usize>> {
        self.fiber_stream().fiber_partition(parts)
    }
}

impl TensorData {
    /// Borrow the payload as a mode-z fiber stream — the format-agnostic
    /// traversal the generic tensor kernels consume.
    pub fn fiber_stream(&self) -> &dyn FiberStream3 {
        match self {
            TensorData::Dense(t) => t,
            TensorData::Coo(t) => t,
            TensorData::Csf(t) => t,
            TensorData::HiCoo(t) => t,
            TensorData::Rlc(t) => t,
            TensorData::Zvc(t) => t,
        }
    }
}

// ---------------------------------------------------------------------------
// Stream consumers
// ---------------------------------------------------------------------------

/// Every format's `to_coo`: the walk's entries whose value is nonzero,
/// in walk order. The ordering contract yields them row-major with no
/// duplicates, so nothing is sorted or re-validated. The arrays are sized
/// once, by `nnz`.
pub(crate) fn coo_from_stream(stream: &dyn RowMajorStream) -> CooMatrix {
    let n = stream.nnz();
    let (mut row_ids, mut col_ids, mut values) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    stream.for_each_fiber(&mut |r, cs, vs| {
        for (&c, &v) in cs.iter().zip(vs) {
            if v != 0.0 {
                row_ids.push(r);
                col_ids.push(c);
                values.push(v);
            }
        }
    });
    CooMatrix::from_parts_unchecked(stream.rows(), stream.cols(), row_ids, col_ids, values)
}

/// Every tensor format's `to_coo`: [`coo_from_stream`] over a mode-z
/// fiber walk, x-major.
pub(crate) fn coo3_from_stream(stream: &dyn FiberStream3) -> CooTensor3 {
    let n = stream.nnz();
    let (mut x_ids, mut y_ids, mut z_ids, mut values) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    stream.for_each_fiber(&mut |x, y, zs, vs| {
        for (&z, &v) in zs.iter().zip(vs) {
            if v != 0.0 {
                x_ids.push(x);
                y_ids.push(y);
                z_ids.push(z);
                values.push(v);
            }
        }
    });
    CooTensor3::from_parts_unchecked(stream.shape(), x_ids, y_ids, z_ids, values)
}

/// Materialize any row-major stream as CSR in one pass, drawing both the
/// traversal scratch and the output buffers from `arena` — the streaming
/// replacement for the `to_coo()` hub round-trip when a consumer needs
/// random row access (Gustavson SpGEMM, the weight-stationary simulator).
///
/// The output `row_ptr`/`col_ids`/`values` take their capacity from the
/// arena's recycled-CSR pool; return the produced matrix with
/// [`StreamArena::recycle_csr`] when done and repeated conversions (the
/// tile loop in `core::pipeline`) stop allocating once the largest tile
/// has been seen.
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR built from an ordered stream"
)]
pub fn csr_from_stream_in(arena: &mut StreamArena, stream: &dyn RowMajorStream) -> CsrMatrix {
    let (rows, cols) = (stream.rows(), stream.cols());
    let (mut row_ptr, mut col_ids, mut values) = arena.take_csr_buffers();
    row_ptr.reserve(rows + 1);
    row_ptr.push(0usize);
    stream.for_each_fiber_in(arena, &mut |r, cs, vs| {
        while row_ptr.len() <= r {
            row_ptr.push(col_ids.len());
        }
        col_ids.extend_from_slice(cs);
        values.extend_from_slice(vs);
    });
    while row_ptr.len() <= rows {
        row_ptr.push(col_ids.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values)
        .expect("the stream ordering contract yields valid CSR")
}

/// One-shot wrapper around [`csr_from_stream_in`] with a fresh arena.
pub fn csr_from_stream(stream: &dyn RowMajorStream) -> CsrMatrix {
    csr_from_stream_in(&mut StreamArena::new(), stream)
}

/// Borrow the operand's CSR payload when it already is CSR, else
/// materialize one via [`csr_from_stream_in`] — the zero-copy view shared
/// by the kernel dispatchers and the accelerator runtimes. Owned results
/// can be recycled into the arena with [`StreamArena::recycle_csr`].
pub fn csr_cow_in<'a>(
    arena: &mut StreamArena,
    data: &'a MatrixData,
) -> std::borrow::Cow<'a, CsrMatrix> {
    match data {
        MatrixData::Csr(c) => std::borrow::Cow::Borrowed(c),
        other => std::borrow::Cow::Owned(csr_from_stream_in(arena, other.row_stream())),
    }
}

/// One-shot wrapper around [`csr_cow_in`] with a fresh arena.
pub fn csr_cow(data: &MatrixData) -> std::borrow::Cow<'_, CsrMatrix> {
    csr_cow_in(&mut StreamArena::new(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{MatrixFormat, TensorFormat};
    use crate::traits::SparseMatrix;

    fn all_matrix_formats() -> Vec<MatrixFormat> {
        vec![
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 3 },
            MatrixFormat::Zvc,
        ]
    }

    fn all_tensor_formats() -> Vec<TensorFormat> {
        vec![
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 2 },
            TensorFormat::Rlc { run_bits: 3 },
            TensorFormat::Zvc,
        ]
    }

    fn sample_matrix() -> CooMatrix {
        CooMatrix::from_triplets(
            7,
            6,
            vec![
                (0, 0, 1.0),
                (0, 5, 2.0),
                (1, 2, 3.0),
                (3, 0, 4.0),
                (3, 1, 5.0),
                (3, 5, 6.0),
                (6, 3, -7.0),
                (6, 4, 8.0),
            ],
        )
        .unwrap()
    }

    fn sample_tensor() -> CooTensor3 {
        CooTensor3::from_quads(
            4,
            3,
            5,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 4, 2.0),
                (0, 2, 1, 3.0),
                (2, 1, 0, 4.0),
                (2, 1, 3, -5.0),
                (3, 2, 2, 6.0),
            ],
        )
        .unwrap()
    }

    /// A matrix walk's fibers flattened to `(row, col, value)` triples.
    fn triples(data: &MatrixData) -> Vec<(usize, usize, Value)> {
        let mut out = Vec::new();
        data.for_each_fiber(&mut |r, cs, vs| {
            out.extend(cs.iter().zip(vs).map(|(&c, &v)| (r, c, v)))
        });
        out
    }

    /// Streaming any format must enumerate exactly `to_coo()`'s triples in
    /// the same order — the core traversal contract.
    #[test]
    fn matrix_streams_match_coo_hub_for_every_format() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let expect: Vec<_> = coo.iter().collect();
            assert_eq!(triples(&data), expect, "nnz stream mismatch for {fmt}");

            // Fiber view: rows strictly ascending, cols strictly ascending.
            let mut last_row = None;
            data.for_each_fiber(&mut |r, cs, vs| {
                assert!(!cs.is_empty(), "{fmt} emitted an empty fiber");
                assert_eq!(cs.len(), vs.len());
                assert!(last_row.is_none_or(|lr| lr < r), "{fmt} rows not ascending");
                assert!(
                    cs.windows(2).all(|w| w[0] < w[1]),
                    "{fmt} cols not ascending in row {r}"
                );
                assert!(vs.iter().all(|&v| v != 0.0), "{fmt} emitted explicit zero");
                last_row = Some(r);
            });
        }
    }

    /// A shared warm arena must produce exactly the same stream as the
    /// one-shot wrapper, across repeated traversals of different operands.
    #[test]
    fn shared_arena_streams_match_one_shot_streams() {
        let coo = sample_matrix();
        let mut arena = StreamArena::new();
        for _pass in 0..3 {
            for fmt in all_matrix_formats() {
                let data = MatrixData::encode(&coo, &fmt).unwrap();
                let mut one_shot: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
                data.for_each_fiber(&mut |r, cs, vs| one_shot.push((r, cs.to_vec(), vs.to_vec())));
                let mut warmed: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
                data.for_each_fiber_in(&mut arena, &mut |r, cs, vs| {
                    warmed.push((r, cs.to_vec(), vs.to_vec()))
                });
                assert_eq!(one_shot, warmed, "arena changed the stream for {fmt}");
            }
        }
        let tco = sample_tensor();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&tco, &fmt).unwrap();
            let mut one_shot: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber(&mut |x, y, zs, vs| {
                one_shot.push((x, y, zs.to_vec(), vs.to_vec()))
            });
            let mut warmed: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber_in(&mut arena, &mut |x, y, zs, vs| {
                warmed.push((x, y, zs.to_vec(), vs.to_vec()))
            });
            assert_eq!(one_shot, warmed, "arena changed the stream for {fmt}");
        }
    }

    #[test]
    fn tensor_streams_match_coo_hub_for_every_format() {
        let coo = sample_tensor();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let mut streamed: Vec<(usize, usize, usize, Value)> = Vec::new();
            data.for_each_fiber(&mut |x, y, zs, vs| {
                streamed.extend(zs.iter().zip(vs).map(|(&z, &v)| (x, y, z, v)))
            });
            let expect: Vec<_> = coo.iter().collect();
            assert_eq!(streamed, expect, "nnz stream mismatch for {fmt}");

            let mut last_fiber = None;
            data.for_each_fiber(&mut |x, y, zs, vs| {
                assert!(!zs.is_empty(), "{fmt} emitted an empty fiber");
                assert_eq!(zs.len(), vs.len());
                assert!(
                    last_fiber.is_none_or(|lf| lf < (x, y)),
                    "{fmt} fibers not ascending"
                );
                assert!(zs.windows(2).all(|w| w[0] < w[1]));
                last_fiber = Some((x, y));
            });
        }
    }

    #[test]
    fn empty_operands_stream_nothing() {
        let coo = CooMatrix::empty(5, 4);
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            data.for_each_fiber(&mut |_, _, _| panic!("empty matrix emitted a fiber"));
        }
        let tco = CooTensor3::empty(3, 3, 3);
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&tco, &fmt).unwrap();
            data.for_each_fiber(&mut |_, _, _, _| panic!("empty tensor emitted a fiber"));
        }
    }

    /// CSR, CSC and ZVC each store one explicit zero, which their walks
    /// pass through; BSR, DIA and ELL pad with zeros, which their walks
    /// skip. `to_coo` and `convert_to(Coo)` both yield the matrix
    /// without any of them, and so does CSF's `to_coo` for a stored zero.
    #[test]
    fn collectors_drop_stored_zeros_and_padding() {
        // 3 × 4, plus an explicit zero at (1, 2) where a format stores one.
        let coo = CooMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap();
        let csr = CsrMatrix::from_parts(
            3,
            4,
            vec![0, 2, 4, 6],
            vec![0, 3, 1, 2, 0, 2],
            vec![1.0, 2.0, 3.0, 0.0, 4.0, 5.0],
        );
        let csc = CscMatrix::from_parts(
            3,
            4,
            vec![0, 2, 3, 5, 6],
            vec![0, 2, 1, 1, 2, 0],
            vec![1.0, 4.0, 3.0, 0.0, 5.0, 2.0],
        );
        // Row-major flat positions 0, 3, 5, 6, 8, 10.
        let zvc = ZvcMatrix::from_parts(
            3,
            4,
            vec![0b101_0110_1001],
            vec![1.0, 2.0, 3.0, 0.0, 4.0, 5.0],
        );
        let stored_zero = [
            MatrixData::Csr(csr.unwrap()),
            MatrixData::Csc(csc.unwrap()),
            MatrixData::Zvc(zvc.unwrap()),
        ];
        for data in &stored_zero {
            let walked = triples(data);
            assert!(walked.contains(&(1, 2, 0.0)), "{walked:?}");
        }
        let padded = [
            MatrixData::Bsr(BsrMatrix::from_coo(&coo, 2, 3).unwrap()),
            MatrixData::Dia(DiaMatrix::from_coo(&coo)),
            MatrixData::Ell(EllMatrix::from_coo(&coo)),
        ];
        for data in &padded {
            let stored = data.stored_elements();
            assert!(
                stored > coo.nnz() as u64,
                "{}: {stored} slots",
                data.format()
            );
        }
        for data in stored_zero.iter().chain(&padded) {
            let fmt = data.format();
            assert_eq!(data.to_coo(), coo, "{fmt} to_coo");
            let via = data.convert_to(&MatrixFormat::Coo).unwrap();
            assert_eq!(via, MatrixData::Coo(coo.clone()), "{fmt} convert_to");
        }

        let csf = CsfTensor::from_parts(
            (2, 2, 3),
            vec![0, 1],
            vec![0, 1, 2],
            vec![1, 0],
            vec![0, 2, 3],
            vec![0, 2, 1],
            vec![6.0, 0.0, 7.0],
        )
        .unwrap();
        let want = CooTensor3::from_quads(2, 2, 3, vec![(0, 1, 0, 6.0), (1, 0, 1, 7.0)]).unwrap();
        assert_eq!(csf.to_coo(), want);
    }

    /// RLC saturating runs insert zero-valued extension entries; the stream
    /// must skip them (they are metadata, not elements).
    #[test]
    fn rlc_extension_entries_are_skipped() {
        let coo = CooMatrix::from_triplets(2, 40, vec![(0, 39, 9.0), (1, 20, 3.0)]).unwrap();
        let data = MatrixData::encode(&coo, &MatrixFormat::Rlc { run_bits: 3 }).unwrap();
        assert_eq!(triples(&data), vec![(0, 39, 9.0), (1, 20, 3.0)]);
    }

    /// ELL rows with builder-supplied out-of-order slots must still stream
    /// column-ascending (the on-the-fly sortedness detection's slow path).
    #[test]
    fn ell_unsorted_slots_are_resorted() {
        use crate::ell::EllMatrix;
        let m = EllMatrix::from_parts(
            2,
            6,
            3,
            vec![5, 0, 2, 1, ELL_PAD, ELL_PAD],
            vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0],
        )
        .unwrap();
        let mut fibers: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
        let mut arena = StreamArena::new();
        m.for_each_fiber_in(&mut arena, &mut |r, cs, vs| {
            fibers.push((r, cs.to_vec(), vs.to_vec()))
        });
        assert_eq!(
            fibers,
            vec![
                (0, vec![0, 2, 5], vec![2.0, 3.0, 1.0]),
                (1, vec![1], vec![4.0]),
            ]
        );
    }

    #[test]
    fn csr_from_stream_round_trips_every_format() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let csr = csr_from_stream(data.row_stream());
            assert_eq!(csr, CsrMatrix::from_coo(&coo), "csr_from_stream for {fmt}");
        }
        // Trailing empty rows must still be pointed at.
        let tall = CooMatrix::from_triplets(6, 3, vec![(1, 1, 2.0)]).unwrap();
        let csr = csr_from_stream(&tall);
        assert_eq!(csr.row_ptr(), &[0, 0, 1, 1, 1, 1, 1]);
    }

    /// The arena-backed conversion with CSR recycling must keep producing
    /// correct matrices while reusing the recycled capacity.
    #[test]
    fn csr_from_stream_in_recycles_capacity() {
        let coo = sample_matrix();
        let expect = CsrMatrix::from_coo(&coo);
        let mut arena = StreamArena::new();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let csr = csr_from_stream_in(&mut arena, data.row_stream());
            assert_eq!(csr, expect, "recycled csr_from_stream_in for {fmt}");
            arena.recycle_csr(csr);
        }
    }

    /// A non-cubic HiCOO block assignment splits (x, y) fibers across
    /// blocks; the stream must still emit them merged and ordered.
    #[test]
    fn hicoo_reorders_block_clustered_elements() {
        let coo = CooTensor3::from_quads(
            8,
            8,
            8,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 7, 2.0), // same fiber, different z-block
                (7, 7, 1, 3.0),
                (0, 7, 0, 4.0),
            ],
        )
        .unwrap();
        let data = TensorData::encode(&coo, &TensorFormat::HiCoo { block: 2 }).unwrap();
        let mut fibers: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        data.for_each_fiber(&mut |x, y, zs, _| fibers.push((x, y, zs.to_vec())));
        assert_eq!(
            fibers,
            vec![(0, 0, vec![0, 7]), (0, 7, vec![0]), (7, 7, vec![1]),]
        );
    }

    #[test]
    fn split_by_prefix_covers_and_balances() {
        // nnz prefix for 6 units with weights [3, 0, 5, 1, 1, 2] (total 12).
        let prefix = [0usize, 3, 3, 8, 9, 10, 12];
        for parts in 1..=8 {
            let ranges = split_by_prefix(&prefix, parts);
            assert!(ranges.len() <= parts);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(6));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile contiguously");
            }
            // Balance: each range within one max unit weight of the ideal.
            let max_unit = 5;
            for r in &ranges {
                let weight = prefix[r.end] - prefix[r.start];
                assert!(
                    weight <= 12 / parts + max_unit,
                    "range {r:?} weight {weight} too heavy for {parts} parts"
                );
            }
        }
        assert!(split_by_prefix(&[0], 4).is_empty(), "zero units");
        assert_eq!(split_by_prefix(&[0, 0, 0], 4), vec![0..2], "zero weight");
    }

    /// The weight prefix of units holding the given entries, one unit id
    /// per entry: the reference the ZVC partitions must match.
    fn counted_prefix(units: usize, entries: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut counts = vec![0; units];
        for u in entries {
            counts[u] += 1;
        }
        let running = counts.iter().scan(0, |sum, &c| {
            *sum += c;
            Some(*sum)
        });
        std::iter::once(0).chain(running).collect()
    }

    /// ZVC's word-at-a-time partitions weigh each row (or fiber) by the
    /// entries `to_coo()` finds there, and its word-at-a-time walks and
    /// `to_coo()` decode exactly the stored entries, at widths on both
    /// sides of a mask word, with an empty and a full row (fiber).
    #[test]
    fn zvc_partitions_weigh_each_row_by_its_set_bits() {
        // Unit 0 empty, unit 1 full, the rest a scattered fill.
        let stored = |u: usize, c: usize| u == 1 || (u > 1 && (u * 31 + c * 17) % 7 < 3);
        for width in [0, 1, 63, 64, 65, 130] {
            let rows = 6;
            let triplets = (0..rows).flat_map(|r| {
                (0..width)
                    .filter(move |&c| stored(r, c))
                    .map(move |c| (r, c, 1.0 + c as Value))
            });
            let coo = CooMatrix::from_triplets(rows, width, triplets.collect()).unwrap();
            let zvc = ZvcMatrix::from_coo(&coo);
            assert_eq!(zvc.to_coo(), coo, "width {width}");
            let mut want: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
            coo.for_each_fiber(&mut |r, cs, vs| want.push((r, cs.to_vec(), vs.to_vec())));
            let mut got: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
            zvc.for_each_fiber(&mut |r, cs, vs| got.push((r, cs.to_vec(), vs.to_vec())));
            assert_eq!(got, want, "width {width}");
            if width > 0 {
                assert_eq!((want[0].0, want[0].1.len()), (1, width), "row 1 is full");
            }
            let prefix = counted_prefix(rows, zvc.to_coo().iter().map(|(r, _, _)| r));
            assert_eq!(
                mask_prefix(zvc.mask(), rows, width),
                prefix,
                "width {width}"
            );
            for parts in 1..=7 {
                let want = split_by_prefix(&prefix, parts);
                assert_eq!(
                    zvc.row_partition(parts),
                    want,
                    "width {width}, {parts} parts"
                );
            }

            let (dx, dy) = (2, 3);
            let quads = (0..dx * dy).flat_map(|key| {
                (0..width)
                    .filter(move |&z| stored(key, z))
                    .map(move |z| (key / dy, key % dy, z, 1.0 + z as Value))
            });
            let coo = CooTensor3::from_quads(dx, dy, width, quads.collect()).unwrap();
            let zvc = ZvcTensor3::from_coo(&coo);
            assert_eq!(zvc.to_coo(), coo, "depth {width}");
            let mut want: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            coo.for_each_fiber(&mut |x, y, zs, vs| want.push((x, y, zs.to_vec(), vs.to_vec())));
            let mut got: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            zvc.for_each_fiber(&mut |x, y, zs, vs| got.push((x, y, zs.to_vec(), vs.to_vec())));
            assert_eq!(got, want, "depth {width}");
            if width > 0 {
                let first = (want[0].0, want[0].1, want[0].2.len());
                assert_eq!(first, (0, 1, width), "fiber (0, 1) is full");
            }
            let prefix = counted_prefix(dx * dy, zvc.to_coo().iter().map(|(x, y, ..)| x * dy + y));
            for parts in 1..=7 {
                let want = split_by_prefix(&prefix, parts);
                assert_eq!(
                    zvc.fiber_partition(parts),
                    want,
                    "depth {width}, {parts} parts"
                );
            }
        }
    }

    /// A small tensor with uneven dims, fibers split across z-blocks and
    /// block rows, and a value per coordinate.
    fn block_straddling_tensor(dx: usize, dy: usize, dz: usize) -> CooTensor3 {
        let quads = (0..dx * dy * dz)
            .filter(|&p| (p * 37 + p / 5) % 11 < 4)
            .map(|p| (p / (dy * dz), p / dz % dy, p % dz, p as Value + 0.5));
        CooTensor3::from_quads(dx, dy, dz, quads.collect()).unwrap()
    }

    /// HiCOO's ranged walk equals the COO tensor's on every range of
    /// small tensors whose dims are not multiples of the block, at blocks
    /// of 1, 2 and 4 (so ranges split block rows), and its partition
    /// equals the quantile split of the COO tensor's sorted fiber keys.
    #[test]
    fn hicoo_ranged_walks_and_partitions_match_coo() {
        type Fibers = Vec<(usize, usize, Vec<usize>, Vec<Value>)>;
        let walk = |t: &dyn FiberStream3, range: Range<usize>, arena: &mut StreamArena| {
            let mut out: Fibers = Vec::new();
            t.for_each_fiber_range_in(range, arena, &mut |x, y, zs, vs| {
                out.push((x, y, zs.to_vec(), vs.to_vec()))
            });
            out
        };
        for (dx, dy, dz) in [(5, 7, 6), (3, 5, 9), (9, 2, 3)] {
            let coo = block_straddling_tensor(dx, dy, dz);
            let keys = dx * dy;
            for block in [1, 2, 4] {
                let hicoo = HiCooTensor::from_coo(&coo, block).unwrap();
                let mut arena = StreamArena::new();
                for lo in 0..=keys {
                    for hi in lo..=keys + 1 {
                        assert_eq!(
                            walk(&hicoo, lo..hi, &mut arena),
                            walk(&coo, lo..hi, &mut arena),
                            "{dx}x{dy}x{dz}, block {block}, range {lo}..{hi}"
                        );
                    }
                }
                let (xs, ys) = (coo.x_ids(), coo.y_ids());
                for parts in 1..=7 {
                    let want =
                        split_by_sorted_keys(coo.nnz(), keys, parts, &|i| xs[i] * dy + ys[i]);
                    assert_eq!(
                        hicoo.fiber_partition(parts),
                        want,
                        "block {block}, {parts} parts"
                    );
                }
            }
        }
    }

    /// On a hypersparse tensor (fiber keys outnumber its entries by over
    /// 10⁶), HiCOO's walk takes arena scratch in proportion to the
    /// entries, not to the key span.
    #[test]
    fn hypersparse_hicoo_walk_scratch_follows_its_entries() {
        let (dx, dy, dz) = (2_000, 1_000, 4);
        let quads = (0..50).map(|i| ((i * 397) % dx, (i * 611) % dy, i % dz, 1.0 + i as Value));
        let coo = CooTensor3::from_quads(dx, dy, dz, quads.collect()).unwrap();
        assert!(dx * dy >= coo.nnz() + 1_000_000);
        let hicoo = HiCooTensor::from_coo(&coo, 2).unwrap();
        let mut arena = StreamArena::new();
        let mut fibers = Vec::new();
        hicoo.for_each_fiber_in(&mut arena, &mut |x, y, zs, _| {
            fibers.push((x, y, zs.to_vec()))
        });
        let mut want = Vec::new();
        coo.for_each_fiber(&mut |x, y, zs, _| want.push((x, y, zs.to_vec())));
        assert_eq!(fibers, want);
        let caps = [
            arena.coords.capacity(),
            arena.vals.capacity(),
            arena.idx_a.capacity(),
            arena.idx_b.capacity(),
            arena.pairs.capacity(),
            arena.quads.capacity(),
        ];
        assert!(caps.iter().all(|&c| c <= 4 * coo.nnz()), "{caps:?}");
    }

    #[test]
    fn split_by_sorted_keys_covers_and_respects_fibers() {
        let keys = [0usize, 0, 0, 2, 2, 5, 5, 5, 5, 7];
        for parts in 1..=6 {
            let ranges = split_by_sorted_keys(keys.len(), 9, parts, &|i| keys[i]);
            assert!(ranges.len() <= parts);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(9));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // No fiber may straddle a boundary: every boundary is a key
            // value, and all equal keys fall on one side of it.
            for w in ranges.windows(2) {
                let b = w[0].end;
                assert!(
                    keys.iter().all(|&k| k != b || k >= b),
                    "boundary {b} splits a fiber"
                );
            }
        }
        assert!(split_by_sorted_keys(0, 0, 3, &|_| 0).is_empty());
        assert_eq!(split_by_sorted_keys(0, 4, 3, &|_| 0), vec![0..4]);
    }

    /// Concatenating the ranged walks of any partition must reproduce the
    /// full fiber stream exactly, for every matrix format and any part
    /// count — the contract the parallel kernels rest on.
    #[test]
    fn ranged_matrix_walks_concatenate_to_full_stream() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let mut full: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber(&mut |r, cs, vs| full.push((r, cs.to_vec(), vs.to_vec())));
            for parts in [1, 2, 3, 5, 16] {
                let ranges = data.row_partition(parts);
                assert!(ranges.len() <= parts, "{fmt} produced too many ranges");
                assert_eq!(ranges.first().map(|r| r.start), Some(0), "{fmt}");
                assert_eq!(ranges.last().map(|r| r.end), Some(data.rows()), "{fmt}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{fmt} ranges must tile");
                }
                let mut arena = StreamArena::new();
                let mut cat: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
                for range in ranges {
                    data.for_each_fiber_range_in(range, &mut arena, &mut |r, cs, vs| {
                        cat.push((r, cs.to_vec(), vs.to_vec()))
                    });
                }
                assert_eq!(cat, full, "{fmt} ranged walk diverged at {parts} parts");
            }
        }
    }

    #[test]
    fn tall_sparse_csc_bands_sort_as_narrow_bands_count() {
        // 300 rows, 30 entries three to a row (one an explicit zero):
        // the whole band sorts its entries (30·log₂30 < 300); 8-row bands
        // count rows.
        let entries: Vec<(usize, usize)> = (0..30)
            .map(|i| (((i / 3) * 97 + 5) % 300, (i * 5) % 7))
            .collect();
        let mut by_col = entries.clone();
        by_col.sort_by_key(|&(r, c)| (c, r));
        let mut col_ptr = vec![0; 8];
        for &(_, c) in &by_col {
            col_ptr[c + 1] += 1;
        }
        for c in 1..8 {
            col_ptr[c] += col_ptr[c - 1];
        }
        let values = (0..30).map(|i| if i == 3 { 0.0 } else { i as f64 + 0.5 });
        let csc = CscMatrix::from_parts(
            300,
            7,
            col_ptr,
            by_col.iter().map(|e| e.0).collect(),
            values.collect(),
        )
        .unwrap();
        let mut arena = StreamArena::new();
        let mut walk = |range: Range<usize>| {
            let mut out: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
            csc.for_each_fiber_range_in(range, &mut arena, &mut |r, cs, vs| {
                out.push((r, cs.to_vec(), vs.to_vec()))
            });
            out
        };
        let sorted = walk(0..300);
        let counted: Vec<_> = (0..300)
            .step_by(8)
            .flat_map(|r0| walk(r0..r0 + 8))
            .collect();
        assert_eq!(sorted, counted);
        assert_eq!(sorted.iter().map(|f| f.1.len()).sum::<usize>(), 30);
    }

    /// Same contract for the tensor formats over linearized fiber keys.
    #[test]
    fn ranged_tensor_walks_concatenate_to_full_stream() {
        let coo = sample_tensor();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let mut full: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber(&mut |x, y, zs, vs| full.push((x, y, zs.to_vec(), vs.to_vec())));
            let keys = coo.dim_x() * coo.dim_y();
            for parts in [1, 2, 3, 7, 32] {
                let ranges = data.fiber_partition(parts);
                assert!(ranges.len() <= parts, "{fmt} produced too many ranges");
                assert_eq!(ranges.first().map(|r| r.start), Some(0), "{fmt}");
                assert_eq!(ranges.last().map(|r| r.end), Some(keys), "{fmt}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{fmt} ranges must tile");
                }
                let mut arena = StreamArena::new();
                let mut cat: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
                for range in ranges {
                    data.for_each_fiber_range_in(range, &mut arena, &mut |x, y, zs, vs| {
                        cat.push((x, y, zs.to_vec(), vs.to_vec()))
                    });
                }
                assert_eq!(cat, full, "{fmt} ranged walk diverged at {parts} parts");
            }
        }
    }

    /// An arbitrary (non-partition) sub-range must emit exactly the fibers
    /// whose row / key falls inside it.
    #[test]
    fn arbitrary_ranges_filter_exactly() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let mut full: Vec<(usize, Vec<usize>)> = Vec::new();
            data.for_each_fiber(&mut |r, cs, _| full.push((r, cs.to_vec())));
            let mut arena = StreamArena::new();
            for (lo, hi) in [(0, 1), (2, 5), (3, 4), (6, 7), (0, 7), (5, 5)] {
                let expect: Vec<_> = full
                    .iter()
                    .filter(|(r, _)| *r >= lo && *r < hi)
                    .cloned()
                    .collect();
                let mut got: Vec<(usize, Vec<usize>)> = Vec::new();
                data.for_each_fiber_range_in(lo..hi, &mut arena, &mut |r, cs, _| {
                    got.push((r, cs.to_vec()))
                });
                assert_eq!(got, expect, "{fmt} range {lo}..{hi}");
            }
        }
    }
}
