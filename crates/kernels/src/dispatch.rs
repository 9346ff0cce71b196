//! Format-generic kernel entry points.
//!
//! Each kernel is written **once** against the fiber-stream traversal of
//! `sparseflex_formats::traverse`
//! ([`RowMajorStream`](sparseflex_formats::traverse::RowMajorStream) /
//! [`FiberStream3`](sparseflex_formats::traverse::FiberStream3)),
//! so it consumes an operand in *any* of the paper's compression formats
//! (Fig. 3) without pre-conversion — the software analogue of the paper's
//! flexible-ACF accelerator. Dispatch keeps the tuned concrete
//! implementations as specializations: when the operand arrives in the
//! format a fast path was written for (CSR SpMV/SpMM, COO Alg. 1, CSF
//! fiber kernels, CSC-stationary SpMM), that path runs; every other format
//! flows through the generic stream consumer, which produces identical
//! results.
//!
//! All entry points validate operand shapes and return
//! [`KernelError::ShapeMismatch`] instead of panicking.
//!
//! The `*_via_stream` variants force the generic stream path even when a
//! fast path exists; they exist so tests can pin `generic == specialized`
//! and benches can price the dispatch/stream overhead (the `kernels_stream`
//! criterion group).

use crate::error::{check_dim, KernelError};
use crate::lanes::{axpy, dot_indexed, fold_scaled, scatter_axpy};
use crate::parallel::{split_at_ranges, worker_count};
use crate::{
    mttkrp as mttkrp_mod, spgemm as spgemm_mod, spmm as spmm_mod, spmv as spmv_mod,
    spttm as spttm_mod,
};
use sparseflex_formats::{
    ArenaPool, CsrMatrix, DenseMatrix, DenseTensor3, MatrixData, RowMajorStream, SparseMatrix,
    SparseTensor3, StreamArena, TensorData, Value,
};
use std::borrow::Cow;
use std::ops::Range;

// ---------------------------------------------------------------------------
// SpMV
// ---------------------------------------------------------------------------

/// SpMV over any matrix format: `y = A * x`.
///
/// CSR operands take the tuned row loop; every other format streams its
/// row fibers through the same accumulation.
pub fn spmv(a: &MatrixData, x: &[Value]) -> Result<Vec<Value>, KernelError> {
    check_dim("spmv", "A cols vs x len", a.cols(), x.len())?;
    match a {
        MatrixData::Csr(m) => Ok(spmv_mod::csr(m, x)),
        _ => spmv_via_stream(a, x),
    }
}

/// SpMV forced through the generic fiber stream (no fast-path dispatch).
pub fn spmv_via_stream(a: &MatrixData, x: &[Value]) -> Result<Vec<Value>, KernelError> {
    spmv_via_stream_in(&mut StreamArena::new(), a, x)
}

/// [`spmv_via_stream`] drawing traversal scratch from the caller's arena:
/// with a warm arena, the only allocation left is the output vector.
pub fn spmv_via_stream_in(
    arena: &mut StreamArena,
    a: &MatrixData,
    x: &[Value],
) -> Result<Vec<Value>, KernelError> {
    check_dim("spmv", "A cols vs x len", a.cols(), x.len())?;
    let mut y = vec![0.0; a.rows()];
    a.row_stream()
        .for_each_fiber_in(arena, &mut |r, cols, vals| {
            y[r] = dot_indexed(cols, vals, x);
        });
    Ok(y)
}

// ---------------------------------------------------------------------------
// SpMM (sparse A, dense B)
// ---------------------------------------------------------------------------

/// SpMM over any matrix format: `O = A * B` with dense `B`.
///
/// CSR takes the row loop, COO takes the paper's Algorithm 1 nnz stream;
/// every other format streams its row fibers — same accumulation order,
/// identical output.
pub fn spmm(a: &MatrixData, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a.cols(), b.rows())?;
    match a {
        MatrixData::Csr(m) => Ok(spmm_mod::csr_dense(m, b)),
        MatrixData::Coo(m) => Ok(spmm_mod::coo_dense(m, b)),
        _ => spmm_via_stream(a, b),
    }
}

/// SpMM forced through the generic fiber stream (no fast-path dispatch).
pub fn spmm_via_stream(a: &MatrixData, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    spmm_via_stream_in(&mut StreamArena::new(), a, b)
}

/// [`spmm_via_stream`] drawing traversal scratch from the caller's arena:
/// with a warm arena, the only allocation left is the output matrix.
pub fn spmm_via_stream_in(
    arena: &mut StreamArena,
    a: &MatrixData,
    b: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    spmm_from_stream_in(arena, a.rows(), a.cols(), a.row_stream(), b)
}

/// SpMM over **any** row-major fiber stream — including payloads that
/// are not [`MatrixData`] variants, such as the descriptor-encoded
/// [`CustomMatrix`](sparseflex_formats::CustomMatrix) open formats. The
/// operand's shape is passed explicitly because a bare stream carries
/// none.
pub fn spmm_from_stream(
    a_rows: usize,
    a_cols: usize,
    a: &dyn sparseflex_formats::RowMajorStream,
    b: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    spmm_from_stream_in(&mut StreamArena::new(), a_rows, a_cols, a, b)
}

/// [`spmm_from_stream`] drawing traversal scratch from the caller's arena.
pub fn spmm_from_stream_in(
    arena: &mut StreamArena,
    a_rows: usize,
    a_cols: usize,
    a: &dyn sparseflex_formats::RowMajorStream,
    b: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a_cols, b.rows())?;
    let n = b.cols();
    let mut o = DenseMatrix::zeros(a_rows, n);
    a.for_each_fiber_in(arena, &mut |r, cols, vals| {
        let orow = &mut o.data_mut()[r * n..(r + 1) * n];
        for (&c, &v) in cols.iter().zip(vals) {
            axpy(orow, b.row(c), v);
        }
    });
    Ok(o)
}

/// Multithreaded SpMM over **any** matrix format — the two-phase parallel
/// split over the generic stream.
///
/// Phase 1 cuts the rows into near-equal-nnz contiguous ranges with the
/// format's structure-only partitioner
/// ([`RowMajorStream::row_partition`]); phase 2 gives each scoped worker
/// its own disjoint output band and its own [`StreamArena`], streaming
/// only its range via [`RowMajorStream::for_each_fiber_range_in`]. Per-row
/// accumulation order is untouched, so the result is bit-for-bit equal to
/// [`spmm_via_stream`] (and [`spmm`]) for every format.
pub fn spmm_parallel(a: &MatrixData, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    spmm_parallel_in(&mut ArenaPool::new(), a, b)
}

/// [`spmm_parallel`] drawing each worker's arena from the caller's pool:
/// with a warm pool, the per-worker traversals allocate nothing in steady
/// state — PR 8's zero-alloc property, preserved per thread.
pub fn spmm_parallel_in(
    pool: &mut ArenaPool,
    a: &MatrixData,
    b: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a.cols(), b.rows())?;
    let n = b.cols();
    let stream = a.row_stream();
    let ranges = stream.row_partition(worker_count(a.rows()));
    let mut o = DenseMatrix::zeros(a.rows(), n);
    if ranges.len() <= 1 {
        let arena = &mut pool.slots(1)[0];
        stream.for_each_fiber_in(arena, &mut |r, cols, vals| {
            let orow = &mut o.data_mut()[r * n..(r + 1) * n];
            for (&c, &v) in cols.iter().zip(vals) {
                axpy(orow, b.row(c), v);
            }
        });
        return Ok(o);
    }
    let slices = split_at_ranges(o.data_mut(), &ranges, n);
    let arenas = pool.slots(ranges.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "the parallel kernels' per-range workers are a sanctioned spawn site"
    )]
    std::thread::scope(|s| {
        for ((range, slice), arena) in ranges.iter().cloned().zip(slices).zip(arenas.iter_mut()) {
            s.spawn(move || {
                let r0 = range.start;
                stream.for_each_fiber_range_in(range, arena, &mut |r, cols, vals| {
                    let orow = &mut slice[(r - r0) * n..(r - r0 + 1) * n];
                    for (&c, &v) in cols.iter().zip(vals) {
                        axpy(orow, b.row(c), v);
                    }
                });
            });
        }
    });
    Ok(o)
}

/// SpMM with the sparse operand on the right: `O = A * B` with dense `A`
/// and `B` in any format.
///
/// CSC operands take the stationary-column fast path (Fig. 6b's
/// weight-stationary layout); every other format streams `B` row-major,
/// scattering each fiber against the matching dense column of `A`.
pub fn spmm_sparse_b(a: &DenseMatrix, b: &MatrixData) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a.cols(), b.rows())?;
    match b {
        MatrixData::Csc(m) => Ok(spmm_mod::dense_csc(a, m)),
        _ => {
            let (m, n) = (a.rows(), b.cols());
            let mut o = DenseMatrix::zeros(m, n);
            b.row_stream().for_each_fiber(&mut |k, cols, vals| {
                for i in 0..m {
                    let aik = a.row(i)[k];
                    if aik == 0.0 {
                        continue;
                    }
                    let orow = &mut o.data_mut()[i * n..(i + 1) * n];
                    scatter_axpy(orow, cols, vals, aik);
                }
            });
            Ok(o)
        }
    }
}

// ---------------------------------------------------------------------------
// SpGEMM (sparse A, sparse B)
// ---------------------------------------------------------------------------

/// SpGEMM dataflow selector: which algorithm computes each output row.
///
/// Both produce **bit-for-bit identical** CSR output (the row-wise merge
/// replays Gustavson's exact per-element addition order); they differ in
/// scratch footprint and access pattern, which is what SAGE prices when
/// choosing one per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpgemmAlgo {
    /// Gustavson's row algorithm: dense sparse-accumulator the width of
    /// `B`, O(1) scatter per partial product, one sort per output row.
    /// Wins when output rows are dense relative to `B`'s width.
    Gustavson,
    /// Row-wise product (*Maple*'s dataflow): k-way heap merge of the
    /// selected B-rows, O(row fan-out) scratch, O(log fan-out) per
    /// partial product. Wins at extreme sparsity / very wide `B`, where
    /// touching a `B`-cols-sized accumulator per row is the cost.
    RowWise,
}

/// Gustavson SpGEMM over any pair of matrix formats: `O = A * B` in CSR.
///
/// `A` streams its row fibers directly into the sparse accumulator; `B`
/// needs random row access, so a non-CSR `B` is materialized once via
/// [`csr_from_stream`](sparseflex_formats::csr_from_stream) (a single
/// stream pass — no COO hub round-trip).
pub fn spgemm(a: &MatrixData, b: &MatrixData) -> Result<CsrMatrix, KernelError> {
    spgemm_with(a, b, SpgemmAlgo::Gustavson)
}

/// Row-wise-product SpGEMM over any pair of matrix formats — identical
/// output to [`spgemm`], merge-based dataflow (see [`SpgemmAlgo`]).
pub fn spgemm_rowwise(a: &MatrixData, b: &MatrixData) -> Result<CsrMatrix, KernelError> {
    spgemm_with(a, b, SpgemmAlgo::RowWise)
}

/// SpGEMM over any pair of matrix formats with an explicit dataflow
/// choice — the entry point SAGE's dataflow pricing drives.
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR both SpGEMM dataflows emit"
)]
pub fn spgemm_with(
    a: &MatrixData,
    b: &MatrixData,
    algo: SpgemmAlgo,
) -> Result<CsrMatrix, KernelError> {
    check_dim("spgemm", "A cols vs B rows", a.cols(), b.rows())?;
    let b_csr = csr_view(b);
    if let MatrixData::Csr(m) = a {
        return Ok(match algo {
            SpgemmAlgo::Gustavson => spgemm_mod::csr_csr(m, &b_csr),
            SpgemmAlgo::RowWise => spgemm_mod::csr_csr_rowwise(m, &b_csr),
        });
    }
    let (rows, n) = (a.rows(), b.cols());
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0usize);
    let mut col_ids = Vec::new();
    let mut values = Vec::new();
    match algo {
        SpgemmAlgo::Gustavson => {
            let mut scratch = spgemm_mod::Accumulator::new(n);
            a.row_stream().for_each_fiber(&mut |r, acols, avals| {
                while row_ptr.len() <= r {
                    row_ptr.push(values.len());
                }
                spgemm_mod::gustavson_row(
                    acols,
                    avals,
                    &b_csr,
                    &mut scratch,
                    &mut col_ids,
                    &mut values,
                );
            });
        }
        SpgemmAlgo::RowWise => {
            let mut heap: spgemm_mod::MergeHeap = Vec::new();
            a.row_stream().for_each_fiber(&mut |r, acols, avals| {
                while row_ptr.len() <= r {
                    row_ptr.push(values.len());
                }
                spgemm_mod::rowwise_row(acols, avals, &b_csr, &mut heap, &mut col_ids, &mut values);
            });
        }
    }
    while row_ptr.len() <= rows {
        row_ptr.push(values.len());
    }
    Ok(CsrMatrix::from_parts(rows, n, row_ptr, col_ids, values)
        .expect("both SpGEMM dataflows emit ordered valid CSR over an ordered stream"))
}

/// Row-parallel Gustavson SpGEMM over any pair of matrix formats —
/// see [`spgemm_parallel_with`].
pub fn spgemm_parallel(a: &MatrixData, b: &MatrixData) -> Result<CsrMatrix, KernelError> {
    spgemm_parallel_with(a, b, SpgemmAlgo::Gustavson)
}

/// Output-row-parallel SpGEMM over any pair of matrix formats, in either
/// dataflow.
///
/// `B` is materialized as CSR once (itself row-parallel via
/// [`csr_from_stream_parallel`] when not already CSR); `A`'s rows are then
/// cut by its structure-only partitioner and each scoped worker runs the
/// chosen per-row routine ([`SpgemmAlgo`]) over its own ranged stream with
/// private scratch and output buffers. A final offset-stitch concatenates
/// the bands. Both dataflows reuse the exact per-row routines of the
/// sequential [`spgemm_with`], so output is bit-for-bit identical for
/// every format pair.
pub fn spgemm_parallel_with(
    a: &MatrixData,
    b: &MatrixData,
    algo: SpgemmAlgo,
) -> Result<CsrMatrix, KernelError> {
    check_dim("spgemm", "A cols vs B rows", a.cols(), b.rows())?;
    let b_csr = csr_view_parallel(b);
    let (rows, n) = (a.rows(), b.cols());
    let stream = a.row_stream();
    let ranges = stream.row_partition(worker_count(rows));
    #[expect(
        clippy::disallowed_methods,
        reason = "the parallel kernels' per-range workers are a sanctioned spawn site"
    )]
    let bands: Vec<(Vec<usize>, Vec<usize>, Vec<Value>)> = if ranges.len() <= 1 {
        vec![spgemm_band(stream, 0..rows, &b_csr, algo)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .cloned()
                .map(|range| {
                    let b_csr = &b_csr;
                    s.spawn(move || spgemm_band(stream, range, b_csr, algo))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    Ok(stitch_bands(rows, n, bands))
}

/// One worker's share of the parallel SpGEMM: run the per-row routine over
/// a ranged stream of `A`, recording each output row's length for the
/// final stitch. Also the sequential body (one band covering all rows).
fn spgemm_band(
    stream: &dyn RowMajorStream,
    range: Range<usize>,
    b_csr: &CsrMatrix,
    algo: SpgemmAlgo,
) -> (Vec<usize>, Vec<usize>, Vec<Value>) {
    let mut arena = StreamArena::new();
    let mut row_lens = vec![0usize; range.len()];
    let mut col_ids = Vec::new();
    let mut values = Vec::new();
    let r0 = range.start;
    match algo {
        SpgemmAlgo::Gustavson => {
            let mut scratch = spgemm_mod::Accumulator::new(b_csr.cols());
            stream.for_each_fiber_range_in(range, &mut arena, &mut |r, acols, avals| {
                let before = values.len();
                spgemm_mod::gustavson_row(
                    acols,
                    avals,
                    b_csr,
                    &mut scratch,
                    &mut col_ids,
                    &mut values,
                );
                row_lens[r - r0] = values.len() - before;
            });
        }
        SpgemmAlgo::RowWise => {
            let mut heap: spgemm_mod::MergeHeap = Vec::new();
            stream.for_each_fiber_range_in(range, &mut arena, &mut |r, acols, avals| {
                let before = values.len();
                spgemm_mod::rowwise_row(acols, avals, b_csr, &mut heap, &mut col_ids, &mut values);
                row_lens[r - r0] = values.len() - before;
            });
        }
    }
    (row_lens, col_ids, values)
}

/// Offset-stitch: per-band row lengths become the global `row_ptr`, band
/// payloads concatenate in range order.
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR stitched from ordered bands"
)]
fn stitch_bands(
    rows: usize,
    cols: usize,
    bands: Vec<(Vec<usize>, Vec<usize>, Vec<Value>)>,
) -> CsrMatrix {
    let nnz: usize = bands.iter().map(|(_, c, _)| c.len()).sum();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0usize);
    let mut col_ids = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    let mut total = 0usize;
    for (row_lens, cs, vs) in bands {
        for len in row_lens {
            total += len;
            row_ptr.push(total);
        }
        col_ids.extend_from_slice(&cs);
        values.extend_from_slice(&vs);
    }
    // Bands cover every row except when the operand had zero rows; pad the
    // pointer array either way (a no-op for covered rows).
    while row_ptr.len() <= rows {
        row_ptr.push(col_ids.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values)
        .expect("stitched bands form valid CSR")
}

/// Row-parallel stream→CSR materialization: partition the rows, let each
/// worker stream its range into private buffers, stitch. Bit-for-bit
/// identical to [`csr_from_stream`](sparseflex_formats::csr_from_stream)
/// for any format (the fibers and their order are the same; only which
/// thread copies them changes).
pub fn csr_from_stream_parallel(
    rows: usize,
    cols: usize,
    stream: &dyn RowMajorStream,
) -> CsrMatrix {
    let ranges = stream.row_partition(worker_count(rows));
    if ranges.len() <= 1 {
        return sparseflex_formats::csr_from_stream(rows, cols, stream);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the parallel kernels' per-range workers are a sanctioned spawn site"
    )]
    let bands: Vec<(Vec<usize>, Vec<usize>, Vec<Value>)> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .cloned()
            .map(|range| {
                s.spawn(move || {
                    let mut arena = StreamArena::new();
                    let mut row_lens = vec![0usize; range.len()];
                    let mut col_ids = Vec::new();
                    let mut values = Vec::new();
                    let r0 = range.start;
                    stream.for_each_fiber_range_in(range, &mut arena, &mut |r, cs, vs| {
                        row_lens[r - r0] = cs.len();
                        col_ids.extend_from_slice(cs);
                        values.extend_from_slice(vs);
                    });
                    (row_lens, col_ids, values)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    stitch_bands(rows, cols, bands)
}

/// Borrow `m` as CSR when it already is, else materialize through the
/// fiber stream (shared with the accelerator runtimes).
fn csr_view(m: &MatrixData) -> Cow<'_, CsrMatrix> {
    sparseflex_formats::csr_cow(m)
}

/// [`csr_view`] with a row-parallel materialization for non-CSR operands.
fn csr_view_parallel(m: &MatrixData) -> Cow<'_, CsrMatrix> {
    match m {
        MatrixData::Csr(c) => Cow::Borrowed(c),
        other => Cow::Owned(csr_from_stream_parallel(
            other.rows(),
            other.cols(),
            other.row_stream(),
        )),
    }
}

// ---------------------------------------------------------------------------
// MTTKRP
// ---------------------------------------------------------------------------

/// MTTKRP over any 3-D tensor format:
/// `O[i][j] = Σ_{k,l} A[i][k][l] * B[k][j] * C[l][j]`.
///
/// COO and CSF operands take their tuned fast paths; every other format
/// streams its mode-z fibers through the CSF-style factored accumulation
/// (partial sum over `l` per fiber, then one scaling by `B[k][j]`).
pub fn mttkrp(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    match a {
        TensorData::Coo(t) => Ok(mttkrp_mod::coo(t, b, c)),
        TensorData::Csf(t) => Ok(mttkrp_mod::csf(t, b, c)),
        _ => mttkrp_via_stream(a, b, c),
    }
}

/// MTTKRP forced through the generic fiber stream (no fast-path dispatch).
pub fn mttkrp_via_stream(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_via_stream_in(&mut StreamArena::new(), a, b, c)
}

/// [`mttkrp_via_stream`] drawing both traversal scratch and the per-fiber
/// accumulator lane from the caller's arena: with a warm arena, the only
/// allocation left is the output matrix.
pub fn mttkrp_via_stream_in(
    arena: &mut StreamArena,
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    let j = b.cols();
    let mut o = DenseMatrix::zeros(a.dim_x(), j);
    // `acc` is reserved for stream *consumers*; traversals never touch it,
    // so taking it out for the duration of the walk is safe.
    let mut fiber_acc = std::mem::take(&mut arena.acc);
    fiber_acc.clear();
    fiber_acc.resize(j, 0.0);
    a.fiber_stream()
        .for_each_fiber_in(arena, &mut |i, k, zs, vals| {
            fiber_acc.iter_mut().for_each(|v| *v = 0.0);
            for (&l, &v) in zs.iter().zip(vals) {
                axpy(&mut fiber_acc, c.row(l), v);
            }
            let orow = &mut o.data_mut()[i * j..(i + 1) * j];
            fold_scaled(orow, &fiber_acc, b.row(k));
        });
    arena.acc = fiber_acc;
    Ok(o)
}

/// Multithreaded MTTKRP over any 3-D tensor format — the two-phase split
/// over the mode-z fiber stream.
///
/// Fiber-key ranges from
/// [`fiber_partition`](sparseflex_formats::FiberStream3::fiber_partition)
/// are aligned down to whole x slices (MTTKRP's output row is `x`, so a
/// slice split across workers would race); each worker then streams its
/// range with a private arena and accumulator lane into its disjoint
/// output band.
/// Bit-for-bit identical to [`mttkrp_via_stream`] (same per-fiber
/// accumulation, same order per output row).
pub fn mttkrp_parallel(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    let (dx, dy) = (a.dim_x(), a.dim_y());
    let j = b.cols();
    let stream = a.fiber_stream();
    let mut ranges = stream.fiber_partition(worker_count(dx));
    align_ranges_to(&mut ranges, dy);
    if ranges.len() <= 1 {
        return mttkrp_via_stream(a, b, c);
    }
    let mut o = DenseMatrix::zeros(dx, j);
    let row_ranges: Vec<Range<usize>> = ranges.iter().map(|r| r.start / dy..r.end / dy).collect();
    let slices = split_at_ranges(o.data_mut(), &row_ranges, j);
    #[expect(
        clippy::disallowed_methods,
        reason = "the parallel kernels' per-range workers are a sanctioned spawn site"
    )]
    std::thread::scope(|s| {
        for (range, slice) in ranges.iter().cloned().zip(slices) {
            s.spawn(move || {
                let mut arena = StreamArena::new();
                let mut fiber_acc = vec![0.0; j];
                let x0 = range.start / dy;
                stream.for_each_fiber_range_in(range, &mut arena, &mut |i, k, zs, vals| {
                    fiber_acc.iter_mut().for_each(|v| *v = 0.0);
                    for (&l, &v) in zs.iter().zip(vals) {
                        axpy(&mut fiber_acc, c.row(l), v);
                    }
                    let orow = &mut slice[(i - x0) * j..(i - x0 + 1) * j];
                    fold_scaled(orow, &fiber_acc, b.row(k));
                });
            });
        }
    });
    Ok(o)
}

/// Round each range boundary down to a multiple of `unit`, merging ranges
/// that collapse — the alignment MTTKRP needs so every worker owns whole
/// x slices (`unit = dim_y` fiber keys per slice).
fn align_ranges_to(ranges: &mut Vec<Range<usize>>, unit: usize) {
    let Some(end) = ranges.last().map(|r| r.end) else {
        return;
    };
    if unit <= 1 {
        return;
    }
    let mut bounds: Vec<usize> = ranges.iter().map(|r| r.start / unit * unit).collect();
    bounds.dedup();
    ranges.clear();
    for (i, &s) in bounds.iter().enumerate() {
        let e = if i + 1 < bounds.len() {
            bounds[i + 1]
        } else {
            end
        };
        if s < e {
            ranges.push(s..e);
        }
    }
}

// ---------------------------------------------------------------------------
// SpTTM
// ---------------------------------------------------------------------------

/// SpTTM over any 3-D tensor format:
/// `Y[x][y][j] = Σ_z A[x][y][z] * B[z][j]`.
///
/// COO and CSF operands take their tuned fast paths; every other format
/// streams its mode-z fibers through the CSF-style fiber-at-a-time
/// accumulation.
pub fn spttm(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    check_dim("spttm", "B rows vs tensor mode-3", a.dim_z(), b.rows())?;
    match a {
        TensorData::Coo(t) => Ok(spttm_mod::coo(t, b)),
        TensorData::Csf(t) => Ok(spttm_mod::csf(t, b)),
        _ => spttm_via_stream(a, b),
    }
}

/// SpTTM forced through the generic fiber stream (no fast-path dispatch).
pub fn spttm_via_stream(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    spttm_via_stream_in(&mut StreamArena::new(), a, b)
}

/// [`spttm_via_stream`] drawing both traversal scratch and the per-fiber
/// accumulator lane from the caller's arena: with a warm arena, the only
/// allocation left is the output tensor.
pub fn spttm_via_stream_in(
    arena: &mut StreamArena,
    a: &TensorData,
    b: &DenseMatrix,
) -> Result<DenseTensor3, KernelError> {
    check_dim("spttm", "B rows vs tensor mode-3", a.dim_z(), b.rows())?;
    let j = b.cols();
    let mut y = DenseTensor3::zeros(a.dim_x(), a.dim_y(), j);
    let mut acc = std::mem::take(&mut arena.acc);
    acc.clear();
    acc.resize(j, 0.0);
    a.fiber_stream()
        .for_each_fiber_in(arena, &mut |x, yy, zs, vals| {
            acc.iter_mut().for_each(|v| *v = 0.0);
            for (&z, &v) in zs.iter().zip(vals) {
                axpy(&mut acc, b.row(z), v);
            }
            for (jj, &av) in acc.iter().enumerate() {
                if av != 0.0 {
                    y.add_assign(x, yy, jj, av);
                }
            }
        });
    arena.acc = acc;
    Ok(y)
}

/// Multithreaded SpTTM over any 3-D tensor format — the two-phase split
/// over the mode-z fiber stream.
///
/// Each `(x, y)` fiber owns exactly output row `x * dim_y + y`, so the
/// fiber-key ranges from
/// [`fiber_partition`](sparseflex_formats::FiberStream3::fiber_partition)
/// are already disjoint in the output; workers stream their range with a
/// private arena and accumulator lane into their output band. Bit-for-bit
/// identical to [`spttm_via_stream`].
pub fn spttm_parallel(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    check_dim("spttm", "B rows vs tensor mode-3", a.dim_z(), b.rows())?;
    let (dx, dy) = (a.dim_x(), a.dim_y());
    let j = b.cols();
    let stream = a.fiber_stream();
    let ranges = stream.fiber_partition(worker_count(dx * dy));
    if ranges.len() <= 1 {
        return spttm_via_stream(a, b);
    }
    let mut y = DenseTensor3::zeros(dx, dy, j);
    let slices = split_at_ranges(y.data_mut(), &ranges, j);
    #[expect(
        clippy::disallowed_methods,
        reason = "the parallel kernels' per-range workers are a sanctioned spawn site"
    )]
    std::thread::scope(|s| {
        for (range, slice) in ranges.iter().cloned().zip(slices) {
            s.spawn(move || {
                let mut arena = StreamArena::new();
                let mut acc = vec![0.0; j];
                let k0 = range.start;
                stream.for_each_fiber_range_in(range, &mut arena, &mut |x, yy, zs, vals| {
                    acc.iter_mut().for_each(|v| *v = 0.0);
                    for (&z, &v) in zs.iter().zip(vals) {
                        axpy(&mut acc, b.row(z), v);
                    }
                    let key = x * dy + yy;
                    let orow = &mut slice[(key - k0) * j..(key - k0 + 1) * j];
                    for (jj, &av) in acc.iter().enumerate() {
                        if av != 0.0 {
                            orow[jj] += av;
                        }
                    }
                });
            });
        }
    });
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use sparseflex_formats::{CooMatrix, CooTensor3, MatrixFormat, TensorFormat};

    fn all_matrix_formats() -> Vec<MatrixFormat> {
        vec![
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Zvc,
        ]
    }

    fn all_tensor_formats() -> Vec<TensorFormat> {
        vec![
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 2 },
            TensorFormat::Rlc { run_bits: 4 },
            TensorFormat::Zvc,
        ]
    }

    fn sample_a() -> CooMatrix {
        CooMatrix::from_triplets(
            5,
            4,
            vec![
                (0, 0, 2.0),
                (0, 3, 1.0),
                (1, 1, -1.0),
                (2, 0, 3.0),
                (2, 2, 4.0),
                (4, 3, 5.0),
            ],
        )
        .unwrap()
    }

    fn sample_b_dense() -> DenseMatrix {
        DenseMatrix::from_vec(4, 3, (0..12).map(|i| (i % 7) as f64 - 3.0).collect()).unwrap()
    }

    #[test]
    fn spmv_agrees_across_all_formats() {
        let coo = sample_a();
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let reference = spmv(&MatrixData::Csr(CsrMatrix::from_coo(&coo)), &x).unwrap();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            assert_eq!(spmv(&data, &x).unwrap(), reference, "spmv({fmt})");
            assert_eq!(
                spmv_via_stream(&data, &x).unwrap(),
                reference,
                "spmv_via_stream({fmt})"
            );
        }
    }

    #[test]
    fn spmm_agrees_across_all_formats() {
        let coo = sample_a();
        let b = sample_b_dense();
        let reference = gemm_naive(&coo.clone().into_dense(), &b);
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            assert_eq!(spmm(&data, &b).unwrap(), reference, "spmm({fmt})");
            assert_eq!(
                spmm_via_stream(&data, &b).unwrap(),
                reference,
                "spmm_via_stream({fmt})"
            );
            assert_eq!(
                spmm_parallel(&data, &b).unwrap(),
                reference,
                "spmm_parallel({fmt})"
            );
        }
    }

    #[test]
    fn spmm_sparse_b_agrees_across_all_formats() {
        let b_coo = sample_a(); // 5x4 sparse B
        let a =
            DenseMatrix::from_vec(3, 5, (0..15).map(|i| (i % 5) as f64 - 2.0).collect()).unwrap();
        let reference = gemm_naive(&a, &b_coo.clone().into_dense());
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&b_coo, &fmt).unwrap();
            assert_eq!(
                spmm_sparse_b(&a, &data).unwrap(),
                reference,
                "spmm_sparse_b({fmt})"
            );
        }
    }

    #[test]
    fn spgemm_agrees_across_all_format_pairs() {
        let a_coo = sample_a(); // 5x4
        let b_coo = CooMatrix::from_triplets(
            4,
            6,
            vec![(0, 0, 1.0), (0, 5, -2.0), (2, 3, 3.0), (3, 1, 4.0)],
        )
        .unwrap();
        let reference = gemm_naive(&a_coo.clone().into_dense(), &b_coo.clone().into_dense());
        for fa in all_matrix_formats() {
            for fb in all_matrix_formats() {
                let a = MatrixData::encode(&a_coo, &fa).unwrap();
                let b = MatrixData::encode(&b_coo, &fb).unwrap();
                let o = spgemm(&a, &b).unwrap();
                assert_eq!(o.to_dense(), reference, "spgemm({fa}, {fb})");
                let orw = spgemm_rowwise(&a, &b).unwrap();
                assert_eq!(orw, o, "spgemm_rowwise({fa}, {fb}) must be bit-identical");
                let op = spgemm_parallel(&a, &b).unwrap();
                assert_eq!(op.to_dense(), reference, "spgemm_parallel({fa}, {fb})");
            }
        }
    }

    #[test]
    fn tensor_kernels_agree_across_all_formats() {
        let coo = CooTensor3::from_quads(
            4,
            3,
            5,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 2, 2.0),
                (1, 1, 1, 3.0),
                (2, 2, 4, -2.0),
                (3, 0, 3, 0.5),
                (3, 2, 3, 1.5),
            ],
        )
        .unwrap();
        let b = DenseMatrix::from_vec(3, 2, (0..6).map(|i| i as f64 + 1.0).collect()).unwrap();
        let c = DenseMatrix::from_vec(5, 2, (0..10).map(|i| (i as f64) - 4.0).collect()).unwrap();
        let ref_mttkrp = mttkrp(
            &TensorData::Csf(sparseflex_formats::CsfTensor::from_coo(&coo)),
            &b,
            &c,
        )
        .unwrap();
        let ref_spttm = spttm(&TensorData::Coo(coo.clone()), &c).unwrap();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let o = mttkrp_via_stream(&data, &b, &c).unwrap();
            assert!(o.approx_eq(&ref_mttkrp, 1e-12), "mttkrp({fmt})");
            assert_eq!(spttm(&data, &c).unwrap(), ref_spttm, "spttm({fmt})");
            assert_eq!(
                spttm_via_stream(&data, &c).unwrap(),
                ref_spttm,
                "spttm_via_stream({fmt})"
            );
        }
    }

    #[test]
    fn shape_mismatches_surface_as_errors_not_panics() {
        let a = MatrixData::Coo(CooMatrix::empty(3, 5));
        let b = DenseMatrix::zeros(4, 2);
        assert!(matches!(
            spmm(&a, &b),
            Err(KernelError::ShapeMismatch {
                kernel: "spmm",
                expected: 5,
                actual: 4,
                ..
            })
        ));
        assert!(spmv(&a, &[0.0; 4]).is_err());
        assert!(spgemm(&a, &MatrixData::Coo(CooMatrix::empty(4, 2))).is_err());
        let t = TensorData::Coo(CooTensor3::empty(2, 3, 4));
        assert!(spttm(&t, &DenseMatrix::zeros(5, 2)).is_err());
        assert!(mttkrp(&t, &DenseMatrix::zeros(3, 2), &DenseMatrix::zeros(4, 3)).is_err());
    }

    #[test]
    fn empty_operands_yield_zero_outputs() {
        let a = MatrixData::Coo(CooMatrix::empty(3, 4));
        let b = sample_b_dense();
        assert_eq!(spmm(&a, &b).unwrap(), DenseMatrix::zeros(3, 3));
        assert_eq!(spmv(&a, &[1.0; 4]).unwrap(), vec![0.0; 3]);
    }
}
