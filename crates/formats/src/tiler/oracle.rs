//! Today's schedule and cut, kept verbatim as the oracle the native
//! walks in the parent module are checked against, bit for bit.

use super::{uniform_column_ranges, ColumnSchedule, MatrixTile, TilePolicy};
use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::formats::MatrixData;
use crate::traits::SparseMatrix;

/// Greedy column ranges such that within every range, **every row** of the
/// operand stores at most `max_row_entries` nonzeros (and no range is wider
/// than `max_width` columns).
///
/// This is the planner for stationary operands consumed row-at-a-time
/// (the Gustavson SpGEMM dataflow, where one PE buffers one compressed row
/// segment): capping per-row entries per tile caps the per-PE footprint.
/// Returns `None` only when `max_row_entries == 0` — a single stored
/// element already overflows the budget, which no tiling can fix.
pub fn bounded_column_ranges(
    data: &MatrixData,
    max_row_entries: usize,
    max_width: usize,
) -> Option<Vec<(usize, usize)>> {
    if max_row_entries == 0 {
        return None;
    }
    let cols = data.cols();
    let max_width = max_width.max(1);
    // Invert to per-column row lists (one stream pass), then widen each
    // range greedily with incremental per-row counts — O(nnz + cols)
    // overall: each column's entries are touched once when the column
    // joins a range, once when the range closes.
    let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); cols];
    data.row_stream().for_each_fiber(&mut |r, cs, _| {
        for &c in cs {
            col_rows[c].push(r);
        }
    });

    let mut count = vec![0usize; data.rows()];
    let mut touched: Vec<usize> = Vec::new();
    let mut ranges = Vec::new();
    let mut c0 = 0usize;
    while c0 < cols {
        let mut c1 = c0;
        while c1 < cols && c1 - c0 < max_width {
            // A single column holds at most one entry per row, so the
            // first column always fits (max_row_entries >= 1).
            let fits = c1 == c0 || col_rows[c1].iter().all(|&r| count[r] < max_row_entries);
            if !fits {
                break;
            }
            for &r in &col_rows[c1] {
                if count[r] == 0 {
                    touched.push(r);
                }
                count[r] += 1;
            }
            c1 += 1;
        }
        ranges.push((c0, c1));
        for r in touched.drain(..) {
            count[r] = 0;
        }
        c0 = c1;
    }
    Some(ranges)
}

/// Plan a [`ColumnSchedule`] for `data` under `policy`.
///
/// Returns `None` only for [`TilePolicy::Bounded`] with
/// `max_row_entries == 0` (a single stored element already overflows the
/// budget; no tiling can fix that). Per-tile nonzero counts are gathered
/// in one extra stream pass.
pub fn plan_column_schedule(data: &MatrixData, policy: TilePolicy) -> Option<ColumnSchedule> {
    let ranges = match policy {
        // `Whole` keeps exactly one range even for a zero-column operand,
        // so the monolithic executor always has one tile to run.
        TilePolicy::Whole => vec![(0, data.cols())],
        TilePolicy::Uniform { width } => uniform_column_ranges(data.cols(), width),
        TilePolicy::Bounded {
            max_row_entries,
            max_width,
        } => bounded_column_ranges(data, max_row_entries, max_width)?,
    };
    let mut tile_nnz = vec![0usize; ranges.len()];
    data.row_stream().for_each_fiber(&mut |_, cs, _| {
        for &c in cs {
            let i = ranges.partition_point(|&(c0, _)| c0 <= c);
            if i > 0 && c < ranges[i - 1].1 {
                tile_nnz[i - 1] += 1;
            }
        }
    });
    Some(ColumnSchedule {
        policy,
        ranges,
        tile_nnz,
    })
}

/// Cut every range in `ranges` out of `data` in **one** stream pass
/// (requires the ranges sorted ascending and disjoint, as the planners
/// produce them): each stored entry is bucketed into its destination
/// tile, then every bucket is encoded — O(nnz + tiles), not
/// O(tiles × nnz).
pub fn tile_column_ranges(
    data: &MatrixData,
    ranges: &[(usize, usize)],
) -> Result<Vec<MatrixTile>, FormatError> {
    debug_assert!(
        ranges.windows(2).all(|w| w[0].1 <= w[1].0),
        "ranges must be sorted ascending and disjoint"
    );
    let mut buckets: Vec<Vec<(usize, usize, crate::Value)>> = vec![Vec::new(); ranges.len()];
    data.row_stream().for_each_fiber(&mut |r, cs, vs| {
        for (&c, &v) in cs.iter().zip(vs) {
            // Last range starting at or before c (ranges may have gaps).
            let i = ranges.partition_point(|&(c0, _)| c0 <= c);
            if i > 0 && c < ranges[i - 1].1 {
                buckets[i - 1].push((r, c - ranges[i - 1].0, v));
            }
        }
    });
    ranges
        .iter()
        .zip(buckets)
        .map(|(&(c0, c1), triplets)| {
            // Stream order is row-major with ascending columns, so each
            // bucket's triplets arrive already sorted.
            let coo = CooMatrix::from_sorted_triplets(data.rows(), c1 - c0, triplets)?;
            Ok(MatrixTile {
                col_start: c0,
                col_end: c1,
                data: MatrixData::encode(&coo, &data.format())?,
            })
        })
        .collect()
}
