//! The simulator as it stood before the in-place rewrite, kept verbatim
//! as a bit-for-bit test oracle for [`super::simulate_ws`] and
//! [`super::simulate_spgemm`]: it copies both operands, materializes
//! every beat and binary-searches every CSC station.

use super::{ActivityCounts, CycleBreakdown, SimError, SimResult};
use crate::bus::BusPacking;
use crate::config::AccelConfig;
use sparseflex_formats::{
    CscMatrix, CsrMatrix, DenseMatrix, MatrixData, MatrixFormat, SparseMatrix, Value,
};

/// One streamed element: `(k, value, row)` — `row` is the output row the
/// element contributes to (for CSC-A streams, `k` is the shared column and
/// the element index is the row).
#[derive(Debug, Clone, Copy)]
struct StreamElem {
    k: usize,
    value: Value,
    row: usize,
}

/// One bus beat: a group of elements sharing the beat.
#[derive(Debug, Clone)]
struct Beat {
    elems: Vec<StreamElem>,
    slots: u64,
}

/// Stationary content of one PE for one (n_tile, k_range) pass.
enum Station {
    /// Dense column segment: values for `k in k0..k0+len`.
    Dense { k0: usize, values: Vec<Value> },
    /// Compressed column: sorted `(k, value)` pairs.
    Csc { entries: Vec<(usize, Value)> },
}

impl Station {
    fn footprint_slots(&self) -> usize {
        match self {
            Station::Dense { values, .. } => values.len(),
            Station::Csc { entries } => 2 * entries.len(),
        }
    }

    /// Look up the stationary value matched by stream index `k`.
    /// Returns `None` when the index misses (no MAC issued), `Some(v)`
    /// when a MAC is issued with stationary operand `v` (which may be a
    /// stored zero for Dense stations — a wasted MAC).
    fn match_k(&self, k: usize) -> Option<Value> {
        match self {
            Station::Dense { k0, values } => {
                if k >= *k0 && k - *k0 < values.len() {
                    Some(values[k - *k0])
                } else {
                    None
                }
            }
            Station::Csc { entries } => entries
                .binary_search_by_key(&k, |&(kk, _)| kk)
                .ok()
                .map(|i| entries[i].1),
        }
    }
}

/// Simulate `O = A x B` on the weight-stationary array.
///
/// Supported ACF pairs: `A in {Dense, CSR, COO, CSC}` x `B in {Dense,
/// CSC}`. For CSR(A)-CSR(B) SpGEMM use [`simulate_spgemm`].
pub fn simulate_ws(
    a: &MatrixData,
    b: &MatrixData,
    cfg: &AccelConfig,
) -> Result<SimResult, SimError> {
    if a.cols() != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: a.cols(),
            b_rows: b.rows(),
        });
    }
    let a_fmt = a.format();
    let b_fmt = b.format();
    let a_ok = matches!(
        a_fmt,
        MatrixFormat::Dense | MatrixFormat::Csr | MatrixFormat::Coo | MatrixFormat::Csc
    );
    let b_ok = matches!(b_fmt, MatrixFormat::Dense | MatrixFormat::Csc);
    if !a_ok || !b_ok {
        return Err(SimError::UnsupportedAcf { a: a_fmt, b: b_fmt });
    }

    let bus = BusPacking {
        slots: cfg.bus_slots,
    };
    let m = a.rows();
    let k_dim = a.cols();
    let n = b.cols();
    // Canonical accessors for B columns.
    let b_csc = match b {
        MatrixData::Csc(c) => Some(c.clone()),
        _ => None,
    };
    let b_dense = match b {
        MatrixData::Dense(d) => Some(d.clone()),
        _ => None,
    };

    let mut output = DenseMatrix::zeros(m, n);
    let mut cycles = CycleBreakdown::default();
    let mut counts = ActivityCounts::default();
    let mut n_tiles = 0usize;
    let mut k_passes = 0usize;

    // Pre-extract A in CSR form for sparse streaming (row-major order).
    let a_csr = match a {
        MatrixData::Csr(c) => c.clone(),
        other => CsrMatrix::from_coo(&other.to_coo()),
    };
    let a_dense_rows: Option<&DenseMatrix> = match a {
        MatrixData::Dense(d) => Some(d),
        _ => None,
    };
    // For CSC-A streaming we need A by columns.
    let a_csc = match a {
        MatrixData::Csc(c) => Some(c.clone()),
        _ => None,
    };

    for tile_start in (0..n).step_by(cfg.num_pes.max(1)) {
        n_tiles += 1;
        let tile_cols: Vec<usize> = (tile_start..(tile_start + cfg.num_pes).min(n)).collect();

        // Partition the K dimension into ranges that fit the PE buffers.
        let k_ranges = compute_k_ranges(&tile_cols, k_dim, cfg.pe_buffer_elems, b_csc.as_ref())?;

        for (k0, k1) in k_ranges {
            k_passes += 1;
            // ---- Load stationary tiles.
            let stations: Vec<Station> = tile_cols
                .iter()
                .map(|&j| match (&b_dense, &b_csc) {
                    (Some(d), _) => {
                        let values: Vec<Value> = (k0..k1).map(|k| d.get(k, j)).collect();
                        Station::Dense { k0, values }
                    }
                    (_, Some(c)) => {
                        let (rows, vals) = c.col(j);
                        let entries: Vec<(usize, Value)> = rows
                            .iter()
                            .zip(vals)
                            .filter(|(&k, _)| k >= k0 && k < k1)
                            .map(|(&k, &v)| (k, v))
                            .collect();
                        Station::Csc { entries }
                    }
                    _ => unreachable!("b format checked above"),
                })
                .collect();
            let load_slots: usize = stations.iter().map(Station::footprint_slots).sum();
            let load = bus.load_run(load_slots);
            cycles.load_b += load.beats;
            counts.bus_slots_used += load.slots_used;
            counts.pe_buffer_writes += load_slots as u64;

            // ---- Build the A beat stream for this k range.
            let beats = build_beats(
                &a_fmt,
                a_dense_rows,
                &a_csr,
                a_csc.as_ref(),
                m,
                k0,
                k1,
                &bus,
            );

            // ---- Process beats.
            // Per-PE open output row (for flush counting).
            let mut open_row: Vec<Option<usize>> = vec![None; stations.len()];
            let col_major_stream = a_fmt == MatrixFormat::Csc;
            for beat in &beats {
                counts.bus_slots_used += beat.slots;
                let mut max_work = 0u64;
                for (pi, station) in stations.iter().enumerate() {
                    let mut work = 0u64;
                    for e in &beat.elems {
                        if let Some(bv) = station.match_k(e.k) {
                            work += 1;
                            counts.pe_buffer_reads += 1;
                            counts.macs += 1;
                            if e.value != 0.0 && bv != 0.0 {
                                counts.effective_macs += 1;
                                output.add_assign(e.row, tile_cols[pi], e.value * bv);
                            }
                            if col_major_stream {
                                // Column-major streaming changes the output
                                // row on every element: each MAC flushes.
                                counts.output_flushes += 1;
                            } else if open_row[pi] != Some(e.row) {
                                if open_row[pi].is_some() {
                                    counts.output_flushes += 1;
                                }
                                open_row[pi] = Some(e.row);
                            }
                        }
                    }
                    max_work = max_work.max(work);
                }
                cycles.stream_a += max_work.div_ceil(cfg.vector_width as u64).max(1);
            }
            // Close any open accumulators at the end of the pass.
            if !col_major_stream {
                counts.output_flushes += open_row.iter().filter(|r| r.is_some()).count() as u64;
            }
        }
    }

    // Output registers drain through per-PE ports into the banked
    // global buffer (one flush per PE per cycle), not over the shared
    // input bus.
    cycles.drain = counts.output_flushes.div_ceil(cfg.num_pes.max(1) as u64);
    Ok(SimResult {
        output,
        cycles,
        counts,
        n_tiles,
        k_passes,
    })
}

/// Compute K-dimension ranges such that every PE's stationary footprint
/// fits its buffer.
fn compute_k_ranges(
    tile_cols: &[usize],
    k_dim: usize,
    buffer_elems: usize,
    b_csc: Option<&CscMatrix>,
) -> Result<Vec<(usize, usize)>, SimError> {
    match b_csc {
        None => {
            // Dense stationary columns: footprint = range length.
            if buffer_elems == 0 {
                return Err(SimError::BufferTooSmall {
                    needed: 1,
                    available: 0,
                });
            }
            let mut ranges = Vec::new();
            let mut k0 = 0;
            while k0 < k_dim {
                let k1 = (k0 + buffer_elems).min(k_dim);
                ranges.push((k0, k1));
                k0 = k1;
            }
            if ranges.is_empty() {
                ranges.push((0, 0));
            }
            Ok(ranges)
        }
        Some(csc) => {
            // Compressed stationary columns: footprint = 2 x entries in
            // range; grow each range greedily until the fullest column
            // would overflow.
            if buffer_elems < 2 {
                return Err(SimError::BufferTooSmall {
                    needed: 2,
                    available: buffer_elems,
                });
            }
            let cap_pairs = buffer_elems / 2;
            // Per-column sorted k lists for the tile.
            let cols_k: Vec<&[usize]> = tile_cols.iter().map(|&j| csc.col(j).0).collect();
            let mut ranges = Vec::new();
            let mut k0 = 0usize;
            // Cursor per column into its k list (all start at zero).
            let mut cursors: Vec<usize> = vec![0; cols_k.len()];
            while k0 < k_dim {
                // Find the largest k1 such that every column's entry count
                // in [k0, k1) fits cap_pairs. Binary search over k1 via
                // per-column index arithmetic: the limiting column is the
                // one whose (cursor + cap_pairs)-th entry is smallest.
                let mut k1 = k_dim;
                for (ci, ks) in cols_k.iter().enumerate() {
                    let cur = cursors[ci];
                    if cur + cap_pairs < ks.len() {
                        // This column's (cap_pairs+1)-th entry must fall
                        // outside the range.
                        k1 = k1.min(ks[cur + cap_pairs]);
                    }
                }
                if k1 <= k0 {
                    // A single k index overflows a buffer — impossible
                    // since each column holds at most one entry per k.
                    return Err(SimError::BufferTooSmall {
                        needed: 2 * (cap_pairs + 1),
                        available: buffer_elems,
                    });
                }
                ranges.push((k0, k1));
                for (ci, ks) in cols_k.iter().enumerate() {
                    cursors[ci] = ks.partition_point(|&k| k < k1);
                }
                k0 = k1;
            }
            if ranges.is_empty() {
                ranges.push((0, 0));
            }
            Ok(ranges)
        }
    }
}

/// Build the beat stream for matrix A restricted to `k in [k0, k1)`.
#[allow(clippy::too_many_arguments)]
fn build_beats(
    a_fmt: &MatrixFormat,
    a_dense: Option<&DenseMatrix>,
    a_csr: &CsrMatrix,
    a_csc: Option<&CscMatrix>,
    m: usize,
    k0: usize,
    k1: usize,
    bus: &BusPacking,
) -> Vec<Beat> {
    let mut beats = Vec::new();
    match a_fmt {
        MatrixFormat::Dense => {
            let d = a_dense.expect("dense payload for dense ACF");
            let cap = bus.dense_capacity();
            for r in 0..m {
                let row = d.row(r);
                let mut k = k0;
                while k < k1 {
                    let end = (k + cap).min(k1);
                    let elems: Vec<StreamElem> = (k..end)
                        .map(|kk| StreamElem {
                            k: kk,
                            value: row[kk],
                            row: r,
                        })
                        .collect();
                    let slots = elems.len() as u64 + 1; // +1 shared row id
                    beats.push(Beat { elems, slots });
                    k = end;
                }
            }
        }
        MatrixFormat::Csr => {
            let cap = bus.pair_capacity();
            for r in 0..m {
                let (cols, vals) = a_csr.row(r);
                let lo = cols.partition_point(|&c| c < k0);
                let hi = cols.partition_point(|&c| c < k1);
                let mut i = lo;
                while i < hi {
                    let end = (i + cap).min(hi);
                    let elems: Vec<StreamElem> = (i..end)
                        .map(|ii| StreamElem {
                            k: cols[ii],
                            value: vals[ii],
                            row: r,
                        })
                        .collect();
                    let slots = 2 * elems.len() as u64 + 1; // pairs + shared row id
                    beats.push(Beat { elems, slots });
                    i = end;
                }
            }
        }
        MatrixFormat::Coo => {
            let cap = bus.triple_capacity();
            let mut pending: Vec<StreamElem> = Vec::with_capacity(cap);
            for r in 0..m {
                let (cols, vals) = a_csr.row(r);
                let lo = cols.partition_point(|&c| c < k0);
                let hi = cols.partition_point(|&c| c < k1);
                for i in lo..hi {
                    pending.push(StreamElem {
                        k: cols[i],
                        value: vals[i],
                        row: r,
                    });
                    if pending.len() == cap {
                        let slots = 3 * pending.len() as u64;
                        beats.push(Beat {
                            elems: std::mem::take(&mut pending),
                            slots,
                        });
                        pending = Vec::with_capacity(cap);
                    }
                }
            }
            if !pending.is_empty() {
                let slots = 3 * pending.len() as u64;
                beats.push(Beat {
                    elems: pending,
                    slots,
                });
            }
        }
        MatrixFormat::Csc => {
            let c = a_csc.expect("csc payload for csc ACF");
            let cap = bus.pair_capacity();
            for k in k0..k1 {
                let (rows, vals) = c.col(k);
                let mut i = 0;
                while i < rows.len() {
                    let end = (i + cap).min(rows.len());
                    let elems: Vec<StreamElem> = (i..end)
                        .map(|ii| StreamElem {
                            k,
                            value: vals[ii],
                            row: rows[ii],
                        })
                        .collect();
                    let slots = 2 * elems.len() as u64 + 1; // pairs + shared col id
                    beats.push(Beat { elems, slots });
                    i = end;
                }
            }
        }
        _ => unreachable!("ACF validated by caller"),
    }
    beats
}

/// Simulate CSR(A)-CSR(B) SpGEMM with the Gustavson dataflow: rows of `B`
/// are distributed round-robin across PE buffers; each streamed nonzero
/// `A(r, k)` activates the PE holding row `k` of `B`, which multiplies it
/// against that whole compressed row.
pub fn simulate_spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &AccelConfig,
) -> Result<SimResult, SimError> {
    if a.cols() != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: a.cols(),
            b_rows: b.rows(),
        });
    }
    let bus = BusPacking {
        slots: cfg.bus_slots,
    };
    let m = a.rows();
    let k_dim = a.cols();
    let n = b.cols();
    let p = cfg.num_pes.max(1);

    let mut output = DenseMatrix::zeros(m, n);
    let mut cycles = CycleBreakdown::default();
    let mut counts = ActivityCounts::default();

    // Greedy K ranges: add B rows k0..k1 while every PE's footprint
    // (2 slots per stored nonzero of its assigned rows) fits.
    let cap = cfg.pe_buffer_elems;
    let mut k_ranges: Vec<(usize, usize)> = Vec::new();
    {
        let mut k0 = 0usize;
        let mut per_pe = vec![0usize; p];
        let mut k = 0usize;
        while k < k_dim {
            let foot = 2 * b.row_nnz(k);
            if foot > cap {
                return Err(SimError::BufferTooSmall {
                    needed: foot,
                    available: cap,
                });
            }
            let pe = k % p;
            if per_pe[pe] + foot > cap {
                k_ranges.push((k0, k));
                k0 = k;
                per_pe.iter_mut().for_each(|x| *x = 0);
            }
            per_pe[pe] += foot;
            k += 1;
        }
        k_ranges.push((k0, k_dim));
    }

    let k_passes = k_ranges.len();
    for &(k0, k1) in &k_ranges {
        // Load stationary B rows for this range.
        let load_slots: usize = (k0..k1).map(|k| 2 * b.row_nnz(k)).sum();
        let load = bus.load_run(load_slots);
        cycles.load_b += load.beats;
        counts.bus_slots_used += load.slots_used;
        counts.pe_buffer_writes += load_slots as u64;

        // Stream A (CSR beats restricted to the range).
        let cap_pairs = bus.pair_capacity();
        for r in 0..m {
            let (cols, vals) = a.row(r);
            let lo = cols.partition_point(|&c| c < k0);
            let hi = cols.partition_point(|&c| c < k1);
            let mut i = lo;
            while i < hi {
                let end = (i + cap_pairs).min(hi);
                counts.bus_slots_used += 2 * (end - i) as u64 + 1;
                // Per-PE work in this beat.
                let mut pe_work = vec![0u64; p];
                for ii in i..end {
                    let k = cols[ii];
                    let v = vals[ii];
                    let work = b.row_nnz(k) as u64;
                    pe_work[k % p] += work;
                    counts.macs += work;
                    counts.effective_macs += work;
                    counts.pe_buffer_reads += 2 * work; // metadata + value
                    counts.output_flushes += work; // scatter accumulations
                    let (bcols, bvals) = b.row(k);
                    for (j, bv) in bcols.iter().zip(bvals) {
                        output.add_assign(r, *j, v * bv);
                    }
                }
                let max_work = pe_work.iter().copied().max().unwrap_or(0);
                cycles.stream_a += max_work.div_ceil(cfg.vector_width as u64).max(1);
                i = end;
            }
        }
    }
    cycles.drain = counts.output_flushes.div_ceil(cfg.num_pes.max(1) as u64);
    Ok(SimResult {
        output,
        cycles,
        counts,
        n_tiles: 1,
        k_passes,
    })
}
