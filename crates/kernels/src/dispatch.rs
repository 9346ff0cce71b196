//! Format-generic kernel entry points.
//!
//! Each kernel is written **once** against the fiber-stream traversal of
//! `sparseflex_formats::traverse` ([`RowMajorStream`] / [`FiberStream3`]),
//! so it consumes an operand in *any* of the paper's compression formats
//! (Fig. 3) without pre-conversion — the software analogue of the paper's
//! flexible-ACF accelerator.
//!
//! Every stream kernel has one body, written over a row or fiber-key range
//! with its own output band. The sequential entry point runs that body
//! once over the whole extent (no partition pass); the `_parallel` entry
//! point cuts the extent with the format's nnz-balanced partitioner and
//! runs the body once per range through [`fan_out`]. Per-row accumulation
//! order never changes, so the two are bit-for-bit identical for every
//! format.
//!
//! Three tuned fast paths remain behind the dispatching entry points: CSR
//! SpMV's row loop and COO MTTKRP's unfactored form, both measured faster
//! than the stream body on their format, and CSC-stationary SpMM
//! ([`spmm_sparse_b`]), a different algorithm on the stationary operand.
//! [`spmv_via_stream`] and [`mttkrp_via_stream`] force the stream body so
//! tests can pin `generic == specialized`.
//!
//! All entry points validate operand shapes and return
//! [`KernelError::ShapeMismatch`] instead of panicking.

use crate::error::{check_dim, KernelError};
use crate::lanes::{axpy, dot_indexed, fold_scaled, scatter_axpy};
use crate::parallel::{fan_out, split_at_ranges, worker_count};
use crate::{mttkrp as mttkrp_mod, spgemm as spgemm_mod, spmm as spmm_mod, spmv as spmv_mod};
use sparseflex_formats::{
    CsrMatrix, DenseMatrix, DenseTensor3, FiberStream3, MatrixData, RowMajorStream, SparseMatrix,
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
    check_dim("spmv", "A cols vs x len", a.cols(), x.len())?;
    let mut y = vec![0.0; a.rows()];
    a.row_stream().for_each_fiber(&mut |r, cols, vals| {
        y[r] = dot_indexed(cols, vals, x);
    });
    Ok(y)
}

// ---------------------------------------------------------------------------
// SpMM (sparse A, dense B)
// ---------------------------------------------------------------------------

/// SpMM over **any** row-major stream: `O = A * B` with dense `B`.
///
/// Takes every [`MatrixData`] format, and any other payload that
/// implements [`RowMajorStream`].
pub fn spmm(a: &dyn RowMajorStream, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a.cols(), b.rows())?;
    let mut o = DenseMatrix::zeros(a.rows(), b.cols());
    spmm_rows(a, b, 0..a.rows(), o.data_mut());
    Ok(o)
}

/// [`spmm`] under its older name: SpMM has no fast path left to bypass,
/// so this is the same stream kernel.
pub fn spmm_via_stream(
    a: &dyn RowMajorStream,
    b: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    spmm(a, b)
}

/// Multithreaded SpMM over any row-major stream.
///
/// The format's structure-only partitioner
/// ([`RowMajorStream::row_partition`]) cuts the rows into near-equal-nnz
/// contiguous ranges, and each range streams into its own disjoint output
/// band with its own [`StreamArena`]. Bit-for-bit equal to [`spmm`] for
/// every format.
pub fn spmm_parallel(a: &dyn RowMajorStream, b: &DenseMatrix) -> Result<DenseMatrix, KernelError> {
    check_dim("spmm", "A cols vs B rows", a.cols(), b.rows())?;
    let mut o = DenseMatrix::zeros(a.rows(), b.cols());
    let ranges = a.row_partition(worker_count(a.rows()));
    let bands = split_at_ranges(o.data_mut(), &ranges, b.cols());
    fan_out(ranges.into_iter().zip(bands).collect(), |(range, band)| {
        spmm_rows(a, b, range, band)
    });
    Ok(o)
}

/// The SpMM body: accumulate the rows of `A` in `range` into `out`, the
/// output band holding exactly those rows.
fn spmm_rows(a: &dyn RowMajorStream, b: &DenseMatrix, range: Range<usize>, out: &mut [Value]) {
    let (n, r0) = (b.cols(), range.start);
    a.for_each_fiber_range_in(range, &mut StreamArena::new(), &mut |r, cols, vals| {
        let orow = &mut out[(r - r0) * n..(r - r0 + 1) * n];
        for (&c, &v) in cols.iter().zip(vals) {
            axpy(orow, b.row(c), v);
        }
    });
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
    /// `B`, O(1) scatter per partial product, and a two-level occupancy
    /// bitmap that emits each output row's columns in ascending order
    /// without a sort. Wins when output rows are dense relative to `B`'s
    /// width.
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

/// SpGEMM over any pair of matrix formats with an explicit dataflow
/// choice — the entry point SAGE's dataflow pricing drives.
pub fn spgemm_with(
    a: &MatrixData,
    b: &MatrixData,
    algo: SpgemmAlgo,
) -> Result<CsrMatrix, KernelError> {
    check_dim("spgemm", "A cols vs B rows", a.cols(), b.rows())?;
    let b_csr = sparseflex_formats::csr_cow(b);
    let band = spgemm_band(a.row_stream(), 0..a.rows(), &b_csr, algo);
    Ok(stitch_bands(a.rows(), b.cols(), vec![band]))
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
/// cut by its structure-only partitioner and each range runs the
/// sequential [`spgemm_with`]'s body with private scratch and output
/// buffers. A final offset-stitch concatenates the bands, so output is
/// bit-for-bit identical for every format pair.
pub fn spgemm_parallel_with(
    a: &MatrixData,
    b: &MatrixData,
    algo: SpgemmAlgo,
) -> Result<CsrMatrix, KernelError> {
    check_dim("spgemm", "A cols vs B rows", a.cols(), b.rows())?;
    let b_csr = match b {
        MatrixData::Csr(c) => Cow::Borrowed(c),
        other => Cow::Owned(csr_from_stream_parallel(other.row_stream())),
    };
    let stream = a.row_stream();
    let ranges = stream.row_partition(worker_count(a.rows()));
    let bands = fan_out(ranges, |range| spgemm_band(stream, range, &b_csr, algo));
    Ok(stitch_bands(a.rows(), b.cols(), bands))
}

/// One band of CSR output rows: each row's length, then the concatenated
/// column ids and values.
type Band = (Vec<usize>, Vec<usize>, Vec<Value>);

/// The SpGEMM body: run the per-row routine over the rows of `A` in
/// `range`, recording each output row's length for the final stitch.
fn spgemm_band(
    stream: &dyn RowMajorStream,
    range: Range<usize>,
    b_csr: &CsrMatrix,
    algo: SpgemmAlgo,
) -> Band {
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
/// payloads concatenate in range order. The first non-empty band's
/// buffers move in rather than being copied, so a lone band costs no copy.
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR stitched from ordered bands"
)]
fn stitch_bands(rows: usize, cols: usize, bands: Vec<Band>) -> CsrMatrix {
    let nnz: usize = bands.iter().map(|(_, c, _)| c.len()).sum();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0usize);
    let (mut col_ids, mut values) = (Vec::new(), Vec::new());
    let mut total = 0usize;
    for (row_lens, cs, vs) in bands {
        row_ptr.extend(row_lens.into_iter().map(|len| {
            total += len;
            total
        }));
        if col_ids.is_empty() {
            (col_ids, values) = (cs, vs);
            col_ids.reserve(nnz - col_ids.len());
            values.reserve(nnz - values.len());
        } else {
            col_ids.extend_from_slice(&cs);
            values.extend_from_slice(&vs);
        }
    }
    // Bands cover every row except when the operand had zero rows; pad the
    // pointer array either way (a no-op for covered rows).
    row_ptr.resize(rows + 1, total);
    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values)
        .expect("stitched bands form valid CSR")
}

/// Row-parallel stream→CSR materialization: partition the rows, let each
/// range stream into private buffers, stitch. Bit-for-bit identical to
/// [`csr_from_stream`](sparseflex_formats::csr_from_stream) for any format
/// (the fibers and their order are the same; only which thread copies
/// them changes).
pub fn csr_from_stream_parallel(stream: &dyn RowMajorStream) -> CsrMatrix {
    let ranges = stream.row_partition(worker_count(stream.rows()));
    let bands = fan_out(ranges, |range| {
        let mut row_lens = vec![0usize; range.len()];
        let (mut col_ids, mut values) = (Vec::new(), Vec::new());
        let r0 = range.start;
        stream.for_each_fiber_range_in(range, &mut StreamArena::new(), &mut |r, cs, vs| {
            row_lens[r - r0] = cs.len();
            col_ids.extend_from_slice(cs);
            values.extend_from_slice(vs);
        });
        (row_lens, col_ids, values)
    });
    stitch_bands(stream.rows(), stream.cols(), bands)
}

// ---------------------------------------------------------------------------
// MTTKRP
// ---------------------------------------------------------------------------

/// MTTKRP over any 3-D tensor format:
/// `O[i][j] = Σ_{k,l} A[i][k][l] * B[k][j] * C[l][j]`.
///
/// COO operands take the unfactored nnz loop; every other format streams
/// its mode-z fibers through the CSF-style factored accumulation (partial
/// sum over `l` per fiber, then one scaling by `B[k][j]`).
pub fn mttkrp(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    match a {
        TensorData::Coo(t) => Ok(mttkrp_mod::coo(t, b, c)),
        _ => mttkrp_via_stream(a, b, c),
    }
}

/// MTTKRP forced through the generic fiber stream (no fast-path dispatch).
pub fn mttkrp_via_stream(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    let mut o = DenseMatrix::zeros(a.dim_x(), b.cols());
    mttkrp_fibers(
        a.fiber_stream(),
        b,
        c,
        0..a.dim_x() * a.dim_y(),
        o.data_mut(),
    );
    Ok(o)
}

/// Multithreaded MTTKRP over any 3-D tensor format — the two-phase split
/// over the mode-z fiber stream.
///
/// Fiber-key ranges from [`FiberStream3::fiber_partition`] are aligned
/// down to whole x slices (MTTKRP's output row is `x`, so a slice split
/// across ranges would race); each range then streams into its disjoint
/// output band. Bit-for-bit identical to [`mttkrp_via_stream`].
pub fn mttkrp_parallel(
    a: &TensorData,
    b: &DenseMatrix,
    c: &DenseMatrix,
) -> Result<DenseMatrix, KernelError> {
    mttkrp_mod::check_factors(a.dim_y(), a.dim_z(), b, c)?;
    let dy = a.dim_y();
    let stream = a.fiber_stream();
    let mut ranges = stream.fiber_partition(worker_count(a.dim_x()));
    align_ranges_to(&mut ranges, dy);
    let mut o = DenseMatrix::zeros(a.dim_x(), b.cols());
    if ranges.is_empty() {
        // No fiber keys (`dim_y == 0`): nothing to stream, the output is zero.
        return Ok(o);
    }
    let row_ranges: Vec<Range<usize>> = ranges.iter().map(|r| r.start / dy..r.end / dy).collect();
    let bands = split_at_ranges(o.data_mut(), &row_ranges, b.cols());
    fan_out(ranges.into_iter().zip(bands).collect(), |(range, band)| {
        mttkrp_fibers(stream, b, c, range, band)
    });
    Ok(o)
}

/// The MTTKRP body: accumulate the fibers whose key lies in `range` into
/// `out`, the output band starting at x slice `range.start / dim_y`.
fn mttkrp_fibers(
    a: &dyn FiberStream3,
    b: &DenseMatrix,
    c: &DenseMatrix,
    range: Range<usize>,
    out: &mut [Value],
) {
    let j = b.cols();
    let x0 = range.start.checked_div(a.dim_y()).unwrap_or(0);
    let mut fiber_acc = vec![0.0; j];
    a.for_each_fiber_range_in(range, &mut StreamArena::new(), &mut |i, k, zs, vals| {
        fiber_acc.fill(0.0);
        for (&l, &v) in zs.iter().zip(vals) {
            axpy(&mut fiber_acc, c.row(l), v);
        }
        let orow = &mut out[(i - x0) * j..(i - x0 + 1) * j];
        fold_scaled(orow, &fiber_acc, b.row(k));
    });
}

/// Round each range boundary down to a multiple of `unit`, merging ranges
/// that collapse — the alignment MTTKRP needs so every range owns whole
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

/// SpTTM over any 3-D tensor format, contracting the third (z) mode:
/// `Y[x][y][j] = Σ_z A[x][y][z] * B[z][j]`.
///
/// "Sparse tensor times dense matrix multiplication (SpTTM) is a standard
/// building block for all tensor computations ... Tucker decomposition
/// intensively uses SpTTM" (§II). TTM outputs are near-dense along the
/// contracted mode, so `Y` is dense. Every format streams its mode-z
/// fibers fiber-at-a-time — the access pattern that makes CSF the
/// preferred tensor ACF in Table III's Crime/Uber rows — each `(x, y)`
/// fiber accumulating straight into its own output row.
pub fn spttm(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    check_dim("spttm", "B rows vs tensor mode-3", a.dim_z(), b.rows())?;
    let mut y = DenseTensor3::zeros(a.dim_x(), a.dim_y(), b.cols());
    spttm_fibers(a.fiber_stream(), b, 0..a.dim_x() * a.dim_y(), y.data_mut());
    Ok(y)
}

/// Multithreaded SpTTM over any 3-D tensor format — the two-phase split
/// over the mode-z fiber stream.
///
/// Each `(x, y)` fiber owns exactly output row `x * dim_y + y`, so the
/// fiber-key ranges from [`FiberStream3::fiber_partition`] are already
/// disjoint in the output; each range streams into its own output band.
/// Bit-for-bit identical to [`spttm`].
pub fn spttm_parallel(a: &TensorData, b: &DenseMatrix) -> Result<DenseTensor3, KernelError> {
    check_dim("spttm", "B rows vs tensor mode-3", a.dim_z(), b.rows())?;
    let stream = a.fiber_stream();
    let ranges = stream.fiber_partition(worker_count(a.dim_x() * a.dim_y()));
    let mut y = DenseTensor3::zeros(a.dim_x(), a.dim_y(), b.cols());
    let bands = split_at_ranges(y.data_mut(), &ranges, b.cols());
    fan_out(ranges.into_iter().zip(bands).collect(), |(range, band)| {
        spttm_fibers(stream, b, range, band)
    });
    Ok(y)
}

/// The SpTTM body: add each product of the fibers whose key lies in
/// `range` straight into the fiber's output row in `out`, the band
/// starting at key `range.start`. Every fiber owns its row and the row
/// starts at +0.0, so this equals accumulating the fiber in a zeroed lane
/// and copying its non-zeros out, bit for bit.
fn spttm_fibers(a: &dyn FiberStream3, b: &DenseMatrix, range: Range<usize>, out: &mut [Value]) {
    let (j, dy, k0) = (b.cols(), a.dim_y(), range.start);
    a.for_each_fiber_range_in(range, &mut StreamArena::new(), &mut |x, y, zs, vals| {
        let key = x * dy + y;
        let orow = &mut out[(key - k0) * j..(key - k0 + 1) * j];
        for (&z, &v) in zs.iter().zip(vals) {
            axpy(orow, b.row(z), v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use sparseflex_formats::{CooMatrix, CooTensor3, CsfTensor, MatrixFormat, TensorFormat};

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
                let orw = spgemm_with(&a, &b, SpgemmAlgo::RowWise).unwrap();
                assert_eq!(orw, o, "row-wise spgemm({fa}, {fb}) must be bit-identical");
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
        let ref_mttkrp = mttkrp(&TensorData::Coo(coo.clone()), &b, &c).unwrap();
        let ref_spttm = naive_spttm(&coo, &c);
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let o = mttkrp_via_stream(&data, &b, &c).unwrap();
            assert!(o.approx_eq(&ref_mttkrp, 1e-12), "mttkrp({fmt})");
            assert_eq!(mttkrp(&data, &b, &c).unwrap(), o, "mttkrp dispatch({fmt})");
            assert_eq!(spttm(&data, &c).unwrap(), ref_spttm, "spttm({fmt})");
            assert_eq!(
                spttm_parallel(&data, &c).unwrap(),
                ref_spttm,
                "spttm_parallel({fmt})"
            );
        }
    }

    fn naive_spttm(a: &CooTensor3, b: &DenseMatrix) -> DenseTensor3 {
        let mut y = DenseTensor3::zeros(a.dim_x(), a.dim_y(), b.cols());
        for x in 0..a.dim_x() {
            for yy in 0..a.dim_y() {
                for jj in 0..b.cols() {
                    let mut acc = 0.0;
                    for z in 0..a.dim_z() {
                        acc += a.get(x, yy, z) * b.get(z, jj);
                    }
                    y.set(x, yy, jj, acc);
                }
            }
        }
        y
    }

    #[test]
    fn spttm_csf_equals_coo() {
        let coo = CooTensor3::from_quads(
            3,
            4,
            5,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 4, 2.0),
                (1, 2, 1, 3.0),
                (2, 3, 2, -1.0),
                (2, 3, 3, 4.0),
            ],
        )
        .unwrap();
        let b = DenseMatrix::from_vec(5, 3, (0..15).map(|i| i as f64 - 7.0).collect()).unwrap();
        let csf = TensorData::Csf(CsfTensor::from_coo(&coo));
        assert_eq!(
            spttm(&csf, &b).unwrap(),
            spttm(&TensorData::Coo(coo), &b).unwrap()
        );
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
        let t = TensorData::Coo(CooTensor3::empty(2, 2, 5));
        let f = DenseMatrix::zeros(5, 3);
        assert_eq!(spttm(&t, &f).unwrap(), DenseTensor3::zeros(2, 2, 3));
        assert_eq!(
            spttm_parallel(&t, &f).unwrap(),
            DenseTensor3::zeros(2, 2, 3)
        );
    }
}
