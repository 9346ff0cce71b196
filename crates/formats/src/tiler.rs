//! Operand tiling: partition a stationary operand into scratchpad-sized
//! column tiles without densifying.
//!
//! The pipelined runtime in `sparseflex-core` overlaps MINT conversion
//! with accelerator compute at **tile** granularity: while the array
//! computes on stationary tile *t*, the converter prepares tile *t+1*.
//! That only works if the operand can be cut into column ranges cheaply,
//! so both steps read its triplets once, and neither encodes it whole:
//!
//! - The schedule ([`plan_column_schedule`]) counts each column's entries
//!   in one histogram of the COO's column ids; `Bounded` also groups the
//!   row ids by column with one counting sort. Every format's walk emits
//!   exactly the COO's entries (no padding, and a COO stores no zeros),
//!   so the ranges and per-tile nonzeros are those of the operand in any
//!   memory format.
//! - The cut ([`cut_schedule`]) builds each scheduled tile straight in the
//!   memory format: CSC is encoded once and sliced column range by column
//!   range; any other format walks the COO's rows once, each split at the
//!   range boundaries into one builder per tile, presized from the
//!   schedule's counts. [`tile_column_ranges`] cuts an already-encoded
//!   operand the same way (its own CSC slices, or its own walk). No tile
//!   round-trips through a dense intermediate.
//!
//! [`TilePolicy`] names the range planners:
//!
//! - `Uniform` — fixed-width strips, the geometry of one
//!   weight-stationary array residency (`num_pes` columns at a time).
//! - `Bounded` — greedy strips sized so that no stationary unit (a row
//!   segment of the tile, as held by one Gustavson PE buffer) exceeds a
//!   slot budget. This is what renders the accelerator's "stationary
//!   unit needs N slots" rejection unreachable: any operand whose
//!   individual rows overflow a PE buffer is split until every segment
//!   fits.

use crate::build::MatrixBuilder;
use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::error::FormatError;
use crate::formats::{MatrixData, MatrixFormat};
use crate::traits::SparseMatrix;
use crate::traverse::{scan, RowMajorStream};
use crate::Value;

/// One column tile of a matrix operand.
#[derive(Debug, Clone)]
pub struct MatrixTile {
    /// First column (inclusive) of the tile in the original operand.
    pub col_start: usize,
    /// One past the last column of the tile in the original operand.
    pub col_end: usize,
    /// The tile payload, columns rebased to `0..width()`, encoded in the
    /// same format as the operand it was cut from.
    pub data: MatrixData,
}

impl MatrixTile {
    /// Number of columns in the tile.
    pub fn width(&self) -> usize {
        self.col_end - self.col_start
    }

    /// Stored nonzeros in the tile (may be zero for degenerate tiles).
    pub fn nnz(&self) -> usize {
        self.data.nnz()
    }
}

/// Fixed-width column ranges covering `0..cols`.
///
/// The last range is narrower when `width` does not divide `cols`. An
/// empty matrix (`cols == 0`) yields no ranges.
fn uniform_column_ranges(cols: usize, width: usize) -> Vec<(usize, usize)> {
    let width = width.max(1);
    let mut out = Vec::with_capacity(cols.div_ceil(width));
    let mut c0 = 0;
    while c0 < cols {
        let c1 = (c0 + width).min(cols);
        out.push((c0, c1));
        c0 = c1;
    }
    out
}

/// Every entry's row, grouped by column: column `c`'s rows are
/// `row_ids[col_ptr[c]..col_ptr[c + 1]]`, ascending.
struct ColumnIndex {
    col_ptr: Vec<usize>,
    row_ids: Vec<usize>,
}

/// The column index of `b`: its column pointer, then one counting sort of
/// its row ids by column. The COO is row-major, so each column's rows
/// come out ascending.
fn column_index(b: &CooMatrix) -> ColumnIndex {
    let mut col_ptr = column_ptr(b);
    let mut row_ids = vec![0usize; b.nnz()];
    group_rows(b, &mut col_ptr, &mut row_ids);
    ColumnIndex { col_ptr, row_ids }
}

/// Scatter `b`'s rows into their columns, using the scanned `col_ptr[c]`
/// as column `c`'s cursor, then shift the advanced cursors back into
/// column starts.
fn group_rows(b: &CooMatrix, col_ptr: &mut [usize], row_ids: &mut [usize]) {
    for (&r, &c) in b.row_ids().iter().zip(b.col_ids()) {
        row_ids[col_ptr[c]] = r;
        col_ptr[c] += 1;
    }
    for c in (1..col_ptr.len()).rev() {
        col_ptr[c] = col_ptr[c - 1];
    }
    col_ptr[0] = 0;
}

/// The column pointer of `b`'s entries: a histogram of its column ids,
/// scanned.
fn column_ptr(b: &CooMatrix) -> Vec<usize> {
    let mut col_ptr = vec![0usize; b.cols() + 1];
    count_columns(b.col_ids(), &mut col_ptr);
    scan(&mut col_ptr);
    col_ptr
}

/// Count each column id into `col_ptr[c + 1]`.
fn count_columns(col_ids: &[usize], col_ptr: &mut [usize]) {
    for &c in col_ids {
        col_ptr[c + 1] += 1;
    }
}

/// Greedy column ranges such that within every range, **every row** of the
/// operand stores at most `max_row_entries >= 1` nonzeros (and no range
/// is wider than `max_width` columns).
///
/// This is the planner for stationary operands consumed row-at-a-time
/// (the Gustavson SpGEMM dataflow, where one PE buffers one compressed row
/// segment): capping per-row entries per tile caps the per-PE footprint.
fn bounded_ranges(
    index: &ColumnIndex,
    rows: usize,
    max_row_entries: usize,
    max_width: usize,
) -> Vec<(usize, usize)> {
    let mut count = vec![0usize; rows];
    let mut touched = Vec::new();
    let mut ranges = Vec::new();
    widen_ranges(
        index,
        max_row_entries,
        max_width.max(1),
        &mut count,
        &mut touched,
        &mut ranges,
    );
    ranges
}

/// Widen each range greedily with incremental per-row counts — O(nnz +
/// cols) overall: each column's entries are touched once when the column
/// joins a range, once when the range closes.
fn widen_ranges(
    index: &ColumnIndex,
    max_row_entries: usize,
    max_width: usize,
    count: &mut [usize],
    touched: &mut Vec<usize>,
    ranges: &mut Vec<(usize, usize)>,
) {
    let cols = index.col_ptr.len() - 1;
    let rows_of = |c: usize| &index.row_ids[index.col_ptr[c]..index.col_ptr[c + 1]];
    let mut c0 = 0usize;
    while c0 < cols {
        let mut c1 = c0;
        while c1 < cols && c1 - c0 < max_width {
            // A single column holds at most one entry per row, so the
            // first column always fits (max_row_entries >= 1).
            let fits = c1 == c0 || rows_of(c1).iter().all(|&r| count[r] < max_row_entries);
            if !fits {
                break;
            }
            for &r in rows_of(c1) {
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
}

/// How a planner cuts the stationary operand into column tiles.
///
/// This is the *exported* tile-schedule vocabulary: the planning layer in
/// `sparseflex-core` records the policy it chose inside an execution
/// plan, so a plan dump names the policy (`uniform` / `bounded`) instead
/// of an anonymous range list. The dataflow picks it: weight-stationary
/// plans cut `Uniform` tiles, Gustavson plans `Bounded` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TilePolicy {
    /// Fixed-width strips: the geometry of one weight-stationary array
    /// residency.
    Uniform {
        /// Columns per tile.
        width: usize,
    },
    /// Greedy strips capped so no row segment exceeds a slot budget: the
    /// Gustavson SpGEMM discipline.
    Bounded {
        /// Per-row stored-entry budget within one tile.
        max_row_entries: usize,
        /// Upper bound on tile width in columns.
        max_width: usize,
    },
}

impl std::fmt::Display for TilePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TilePolicy::Uniform { width } => write!(f, "uniform width {width}"),
            TilePolicy::Bounded {
                max_row_entries,
                max_width,
            } => write!(
                f,
                "bounded ({max_row_entries} entries/row, <= {max_width} wide)"
            ),
        }
    }
}

/// The column-tile schedule a planner produced for one stationary
/// operand: the policy, the covered ranges, and each tile's stored
/// nonzero count (the weight a cost model splits whole-operand cycle
/// predictions by).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSchedule {
    /// The policy that produced the ranges.
    pub policy: TilePolicy,
    /// Sorted, disjoint column ranges covering the operand.
    pub ranges: Vec<(usize, usize)>,
    /// Stored nonzeros per range (same length as `ranges`).
    pub tile_nnz: Vec<usize>,
}

impl ColumnSchedule {
    /// Number of tiles in the schedule.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the schedule holds no tiles (a zero-column operand).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total stored nonzeros across all tiles.
    pub fn total_nnz(&self) -> usize {
        self.tile_nnz.iter().sum()
    }

    /// Widest tile in columns (0 for an empty schedule).
    pub fn max_width(&self) -> usize {
        self.ranges.iter().map(|&(a, b)| b - a).max().unwrap_or(0)
    }
}

/// Plan a [`ColumnSchedule`] for the stationary operand `b` under
/// `policy`, from its triplets: the schedule of `b` in any memory format,
/// since every format's walk emits exactly the COO's entries.
///
/// Returns `None` only for [`TilePolicy::Bounded`] with
/// `max_row_entries == 0` (a single stored element already overflows the
/// budget; no tiling can fix that). Per-tile nonzero counts come from the
/// same per-column counts the ranges were planned on.
pub fn plan_column_schedule(b: &CooMatrix, policy: TilePolicy) -> Option<ColumnSchedule> {
    let (ranges, col_ptr) = match policy {
        TilePolicy::Uniform { width } => (uniform_column_ranges(b.cols(), width), column_ptr(b)),
        TilePolicy::Bounded {
            max_row_entries,
            max_width,
        } => {
            if max_row_entries == 0 {
                return None;
            }
            let index = column_index(b);
            let ranges = bounded_ranges(&index, b.rows(), max_row_entries, max_width);
            (ranges, index.col_ptr)
        }
    };
    let tile_nnz = ranges
        .iter()
        .map(|&(c0, c1)| col_ptr[c1] - col_ptr[c0])
        .collect();
    Some(ColumnSchedule {
        policy,
        ranges,
        tile_nnz,
    })
}

/// Marks a column in a gap between ranges.
const NO_TILE: usize = usize::MAX;

/// Cut every range in `ranges` out of `data`, each tile in the operand's
/// own format with columns rebased to `0..width()` and explicit zeros
/// dropped. A CSC operand is sliced column range by column range; any
/// other format is walked once, each row split at the range boundaries
/// into one builder per tile — O(nnz + cols + tiles), with no COO
/// intermediate.
///
/// The ranges must be ascending and disjoint, each within `0..=cols` and
/// not reversed, as the planners produce them; gaps and zero-width ranges
/// are fine. Anything else is a typed error: [`FormatError::MalformedPointer`]
/// for a reversed, out-of-order or overlapping range, and
/// [`FormatError::IndexOutOfBounds`] for one ending past the last column.
pub fn tile_column_ranges(
    data: &MatrixData,
    ranges: &[(usize, usize)],
) -> Result<Vec<MatrixTile>, FormatError> {
    check_ranges(ranges, data.cols())?;
    if let MatrixData::Csc(csc) = data {
        return Ok(slice_columns(csc, ranges));
    }
    cut_rows(data.row_stream(), data.format(), ranges, &[])
}

/// Cut `schedule`'s tiles out of the stationary operand `b` straight into
/// `format`: exactly the tiles [`tile_column_ranges`] cuts from `b`
/// encoded in `format`, without encoding `b` whole. CSC is encoded once
/// and sliced; any other format walks `b`'s rows once, each split at the
/// range boundaries into one builder per tile, builder `t` presized for
/// `schedule.tile_nnz[t]` entries.
///
/// Fails as [`MatrixData::encode`] fails for a format no operand can be
/// encoded in, and as [`tile_column_ranges`] fails for malformed ranges.
pub fn cut_schedule(
    b: &CooMatrix,
    format: &MatrixFormat,
    schedule: &ColumnSchedule,
) -> Result<Vec<MatrixTile>, FormatError> {
    format.check_encodable()?;
    check_ranges(&schedule.ranges, b.cols())?;
    if *format == MatrixFormat::Csc {
        return Ok(slice_columns(&CscMatrix::from_coo(b), &schedule.ranges));
    }
    cut_rows(b, *format, &schedule.ranges, &schedule.tile_nnz)
}

/// Slice every range out of a CSC operand.
fn slice_columns(csc: &CscMatrix, ranges: &[(usize, usize)]) -> Vec<MatrixTile> {
    ranges
        .iter()
        .map(|&(c0, c1)| MatrixTile {
            col_start: c0,
            col_end: c1,
            data: MatrixData::Csc(csc.column_range(c0, c1)),
        })
        .collect()
}

/// Walk `stream` once, splitting each row at the range boundaries into
/// one `format` builder per range, builder `t` presized for `nnz[t]`
/// entries (none past the end of `nnz`), over ranges the caller checked.
fn cut_rows(
    stream: &dyn RowMajorStream,
    format: MatrixFormat,
    ranges: &[(usize, usize)],
    nnz: &[usize],
) -> Result<Vec<MatrixTile>, FormatError> {
    let mut tile_of = vec![NO_TILE; stream.cols()];
    for (t, &(c0, c1)) in ranges.iter().enumerate() {
        tile_of[c0..c1].fill(t);
    }
    let mut builders = ranges
        .iter()
        .enumerate()
        .map(|(t, &(c0, c1))| {
            let presize = nnz.get(t).copied().unwrap_or(0);
            MatrixBuilder::new(format, stream.rows(), c1 - c0, presize)
        })
        .collect::<Result<Vec<_>, _>>()?;
    stream.for_each_fiber(&mut |r, cs, vs| split_row(&mut builders, &tile_of, ranges, r, cs, vs));
    ranges
        .iter()
        .zip(builders)
        .map(|(&(c0, c1), builder)| {
            Ok(MatrixTile {
                col_start: c0,
                col_end: c1,
                data: builder.finish()?,
            })
        })
        .collect()
}

/// [`tile_column_ranges`]'s precondition, checked.
fn check_ranges(ranges: &[(usize, usize)], cols: usize) -> Result<(), FormatError> {
    let mut prev: Option<(usize, usize)> = None;
    for &(c0, c1) in ranges {
        if c0 > c1 {
            return Err(FormatError::MalformedPointer {
                what: "tile range ends before it starts",
            });
        }
        if c1 > cols {
            return Err(FormatError::IndexOutOfBounds {
                index: c1,
                bound: cols,
                axis: 1,
            });
        }
        if let Some((p0, p1)) = prev {
            if c0 < p0 {
                return Err(FormatError::MalformedPointer {
                    what: "tile ranges not ascending",
                });
            }
            if c0 < p1 {
                return Err(FormatError::MalformedPointer {
                    what: "tile ranges overlap",
                });
            }
        }
        prev = Some((c0, c1));
    }
    Ok(())
}

/// Split row `r` at the range boundaries: each run of entries whose
/// columns fall in one tile goes to that tile's builder, rebased to the
/// tile's first column.
fn split_row(
    builders: &mut [MatrixBuilder],
    tile_of: &[usize],
    ranges: &[(usize, usize)],
    r: usize,
    cs: &[usize],
    vs: &[Value],
) {
    let mut i = 0;
    while i < cs.len() {
        let t = tile_of[cs[i]];
        let mut j = i + 1;
        while j < cs.len() && tile_of[cs[j]] == t {
            j += 1;
        }
        if t != NO_TILE {
            builders[t].push_run(r, &cs[i..j], &vs[i..j], ranges[t].0);
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::MatrixFormat;
    use crate::{CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, RlcMatrix, ZvcMatrix};

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            5,
            11,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (0, 10, 3.0),
                (1, 5, 4.0),
                (2, 2, 5.0),
                (2, 6, 6.0),
                (2, 7, 7.0),
                (4, 9, 8.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn uniform_ranges_cover_all_columns() {
        assert_eq!(uniform_column_ranges(11, 4), vec![(0, 4), (4, 8), (8, 11)]);
        assert_eq!(uniform_column_ranges(0, 4), vec![]);
        assert_eq!(uniform_column_ranges(3, 0), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn tiles_reassemble_to_the_original_in_every_format() {
        let coo = sample();
        for fmt in [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Zvc,
        ] {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let ranges = uniform_column_ranges(data.cols(), 3);
            let tiles = tile_column_ranges(&data, &ranges).unwrap();
            // Each tile keeps the operand's format and rebases columns.
            let mut reassembled = Vec::new();
            for t in &tiles {
                assert_eq!(t.data.format(), fmt, "{fmt}");
                for (r, c, v) in t.data.to_coo().iter() {
                    reassembled.push((r, c + t.col_start, v));
                }
            }
            reassembled.sort_by_key(|&(r, c, _)| (r, c));
            let expect: Vec<_> = coo.iter().collect();
            assert_eq!(reassembled, expect, "{fmt} tiles lose data");
        }
    }

    #[test]
    fn degenerate_empty_tiles_are_valid() {
        let coo = CooMatrix::from_triplets(3, 9, vec![(1, 8, 1.0)]).unwrap();
        let data = MatrixData::encode(&coo, &MatrixFormat::Csr).unwrap();
        let tiles = tile_column_ranges(&data, &uniform_column_ranges(9, 3)).unwrap();
        assert_eq!(tiles.len(), 3);
        assert_eq!(tiles[0].nnz(), 0);
        assert_eq!(tiles[1].nnz(), 0);
        assert_eq!(tiles[2].nnz(), 1);
        assert_eq!(tiles[2].width(), 3);
    }

    /// The ranges of a [`TilePolicy::Bounded`] schedule.
    fn bounded(
        b: &CooMatrix,
        max_row_entries: usize,
        max_width: usize,
    ) -> Option<Vec<(usize, usize)>> {
        let policy = TilePolicy::Bounded {
            max_row_entries,
            max_width,
        };
        plan_column_schedule(b, policy).map(|s| s.ranges)
    }

    #[test]
    fn bounded_ranges_cap_row_segments() {
        // Row 0 holds 8 entries in 8 consecutive columns; a budget of 2
        // entries per row forces 4-wide-or-narrower tiles there.
        let coo = CooMatrix::from_triplets(2, 8, (0..8).map(|c| (0, c, (c + 1) as f64)).collect())
            .unwrap();
        let ranges = bounded(&coo, 2, usize::MAX).unwrap();
        for &(c0, c1) in &ranges {
            assert!(c1 - c0 <= 2, "range ({c0},{c1}) exceeds the row budget");
        }
        let covered: usize = ranges.iter().map(|&(a, b)| b - a).sum();
        assert_eq!(covered, 8);
        assert!(bounded(&coo, 0, 4).is_none());
    }

    #[test]
    fn column_schedules_cover_and_count() {
        let coo = sample();
        // One tile as wide as the operand: all nonzeros.
        let whole = plan_column_schedule(&coo, TilePolicy::Uniform { width: 11 }).unwrap();
        assert_eq!(whole.ranges, vec![(0, 11)]);
        assert_eq!(whole.tile_nnz, vec![8]);
        assert_eq!(whole.total_nnz(), 8);
        // Uniform: per-tile counts sum to the operand's nnz.
        let uni = plan_column_schedule(&coo, TilePolicy::Uniform { width: 4 }).unwrap();
        assert_eq!(uni.ranges, uniform_column_ranges(11, 4));
        assert_eq!(uni.total_nnz(), 8);
        assert_eq!(uni.len(), 3);
        assert!(uni.max_width() <= 4);
        // Bounded: impossible budget is a typed rejection.
        assert!(plan_column_schedule(
            &coo,
            TilePolicy::Bounded {
                max_row_entries: 0,
                max_width: 4
            }
        )
        .is_none());
        // Policy renders for plan dumps.
        assert!(format!("{}", uni.policy).contains("uniform"));
    }

    #[test]
    fn bounded_ranges_respect_max_width() {
        let coo = CooMatrix::from_triplets(2, 10, vec![(0, 0, 1.0), (1, 9, 2.0)]).unwrap();
        let ranges = bounded(&coo, 64, 4).unwrap();
        assert!(ranges.iter().all(|&(a, b)| b - a <= 4));
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 10);
    }

    /// A splitmix64 stream: the oracle properties' deterministic inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (0 when `n == 0`).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn value(&mut self) -> Value {
            match self.below(8) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                k => k as f64 * if self.below(2) == 0 { 1.0 } else { -0.5 },
            }
        }

        /// Some stored values replaced by explicit zeros of either sign.
        fn zero_some(&mut self, values: &mut [Value]) {
            for v in values {
                match self.below(6) {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    _ => {}
                }
            }
        }
    }

    fn all_formats() -> [MatrixFormat; 9] {
        [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 3 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 2 },
            MatrixFormat::Zvc,
        ]
    }

    /// A random COO: zero-sized dimensions, empty rows and columns, and
    /// ±inf values included.
    fn random_coo(rng: &mut Rng) -> CooMatrix {
        let (rows, cols) = (rng.below(9), rng.below(13));
        let n = rng.below(rows * cols + 1);
        let triplets = (0..n)
            .map(|_| (rng.below(rows), rng.below(cols), rng.value()))
            .collect();
        CooMatrix::from_triplets(rows, cols, triplets).unwrap()
    }

    /// A random operand in `fmt` ([`random_coo`]'s), with explicit stored
    /// zeros wherever the format can hold them.
    fn random_operand(rng: &mut Rng, fmt: MatrixFormat) -> MatrixData {
        let coo = random_coo(rng);
        let (rows, cols) = (coo.rows(), coo.cols());
        match MatrixData::encode(&coo, &fmt).unwrap() {
            MatrixData::Csr(c) => {
                let (rows, cols, row_ptr, col_ids, mut values) = c.into_parts();
                rng.zero_some(&mut values);
                MatrixData::Csr(
                    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values).unwrap(),
                )
            }
            MatrixData::Csc(c) => {
                let mut values = c.values().to_vec();
                rng.zero_some(&mut values);
                let (col_ptr, row_ids) = (c.col_ptr().to_vec(), c.row_ids().to_vec());
                MatrixData::Csc(
                    CscMatrix::from_parts(rows, cols, col_ptr, row_ids, values).unwrap(),
                )
            }
            MatrixData::Zvc(z) => {
                let mut values = z.values().to_vec();
                rng.zero_some(&mut values);
                MatrixData::Zvc(
                    ZvcMatrix::from_parts(rows, cols, z.mask().to_vec(), values).unwrap(),
                )
            }
            MatrixData::Rlc(r) => {
                let mut entries = r.entries().to_vec();
                for e in &mut entries {
                    if rng.below(6) == 0 {
                        e.value = 0.0;
                    }
                }
                let (bits, trailing) = (r.run_bits(), r.trailing_zeros());
                MatrixData::Rlc(RlcMatrix::from_parts(rows, cols, bits, entries, trailing).unwrap())
            }
            MatrixData::Dense(d) => {
                // Negative zeros where the matrix is zero.
                let mut data = d.data().to_vec();
                for v in &mut data {
                    if *v == 0.0 && rng.below(3) == 0 {
                        *v = -0.0;
                    }
                }
                MatrixData::Dense(DenseMatrix::from_vec(rows, cols, data).unwrap())
            }
            other => other,
        }
    }

    /// A random valid range list over `0..cols`: gaps, zero-width and
    /// 1-column ranges.
    fn random_ranges(rng: &mut Rng, cols: usize) -> Vec<(usize, usize)> {
        let mut ranges = Vec::new();
        let mut c = 0;
        while c < cols {
            let c0 = (c + rng.below(3)).min(cols);
            let c1 = (c0 + rng.below(4)).min(cols);
            ranges.push((c0, c1));
            c = c1.max(c0 + 1);
        }
        ranges
    }

    /// Bitwise comparison: `Debug` prints every `f64` exactly, signed
    /// zeros and NaN included.
    fn bits<T: std::fmt::Debug>(x: &T) -> String {
        format!("{x:?}")
    }

    /// The schedule and the cut from triplets are those of the operand
    /// encoded in any format. The schedule's ranges cover every column in
    /// order and count the entries the encoded operand's walk emits in
    /// each, and a `Bounded` range is the widest that keeps every row
    /// within budget. The cut equals [`tile_column_ranges`] of the encoded
    /// operand bit for bit, on the schedule's ranges and on ranges with
    /// gaps.
    #[test]
    fn schedules_and_cuts_from_triplets_match_the_encoded_operand() {
        let mut rng = Rng(0x7a11);
        for case in 0..300 {
            let coo = random_coo(&mut rng);
            let (rows, cols) = (coo.rows(), coo.cols());
            let width = rng.below(5);
            let (max_row_entries, max_width) =
                (1 + rng.below(3), [1, 2, 5, usize::MAX][rng.below(4)]);
            let policies = [
                TilePolicy::Uniform { width: cols },
                TilePolicy::Uniform { width },
                TilePolicy::Bounded {
                    max_row_entries,
                    max_width,
                },
            ];
            let gaps = random_ranges(&mut rng, cols);
            for fmt in all_formats() {
                let data = MatrixData::encode(&coo, &fmt).unwrap();
                let mut walked = Vec::new();
                data.row_stream()
                    .for_each_fiber(&mut |r, cs, _| walked.extend(cs.iter().map(|&c| (r, c))));
                let in_cols =
                    |c0: usize, c1: usize| walked.iter().filter(move |e| (c0..c1).contains(&e.1));
                let busiest_row = |c0, c1| {
                    (0..rows)
                        .map(|r| in_cols(c0, c1).filter(|e| e.0 == r).count())
                        .max()
                        .unwrap_or(0)
                };
                for policy in policies {
                    let s = plan_column_schedule(&coo, policy).unwrap();
                    let what = || format!("case {case}: {fmt} under {policy}");
                    match policy {
                        TilePolicy::Uniform { width } => {
                            assert_eq!(s.ranges, uniform_column_ranges(cols, width), "{}", what());
                        }
                        TilePolicy::Bounded { .. } => {
                            let end = s
                                .ranges
                                .iter()
                                .try_fold(0, |c, &(c0, c1)| (c0 == c && c1 > c0).then_some(c1));
                            assert_eq!(end, Some(cols), "{}", what());
                            for &(c0, c1) in &s.ranges {
                                assert!(c1 - c0 <= max_width, "{}", what());
                                assert!(busiest_row(c0, c1) <= max_row_entries, "{}", what());
                                let widest = c1 == cols
                                    || c1 - c0 == max_width
                                    || busiest_row(c0, c1 + 1) > max_row_entries;
                                assert!(widest, "{}: ({c0}, {c1}) could widen", what());
                            }
                        }
                    }
                    let nnz: Vec<usize> = s
                        .ranges
                        .iter()
                        .map(|&(c0, c1)| in_cols(c0, c1).count())
                        .collect();
                    assert_eq!(nnz, s.tile_nnz, "{}", what());
                    let cut = cut_schedule(&coo, &fmt, &s).unwrap();
                    let want = tile_column_ranges(&data, &s.ranges).unwrap();
                    assert_eq!(bits(&cut), bits(&want), "{}", what());
                }
                // Counts are only a presize: ranges with gaps and no counts.
                let uncounted = ColumnSchedule {
                    policy: TilePolicy::Uniform { width: cols },
                    ranges: gaps.clone(),
                    tile_nnz: Vec::new(),
                };
                let cut = cut_schedule(&coo, &fmt, &uncounted).unwrap();
                let want = tile_column_ranges(&data, &gaps).unwrap();
                assert_eq!(
                    bits(&cut),
                    bits(&want),
                    "case {case}: {fmt} cut at {gaps:?}"
                );
            }
        }
    }

    /// The cut of an operand that stores explicit zeros: each tile is the
    /// operand's own format, holding exactly the operand's entries in its
    /// columns, with the zeros dropped.
    #[test]
    fn cuts_keep_every_entry_of_random_operands() {
        let mut rng = Rng(0x5eed);
        for case in 0..400 {
            for fmt in all_formats() {
                let data = random_operand(&mut rng, fmt);
                let cols = data.cols();
                let entries: Vec<_> = data.to_coo().iter().collect();
                for ranges in [
                    vec![(0, cols)],
                    uniform_column_ranges(cols, 1),
                    random_ranges(&mut rng, cols),
                ] {
                    let tiles = tile_column_ranges(&data, &ranges).unwrap();
                    assert_eq!(tiles.len(), ranges.len());
                    for (t, &(c0, c1)) in tiles.iter().zip(&ranges) {
                        let what = || format!("case {case}: {fmt} cut at {ranges:?}");
                        assert_eq!(
                            (t.col_start, t.col_end, t.data.format()),
                            (c0, c1, data.format()),
                            "{}",
                            what()
                        );
                        assert_eq!((t.data.rows(), t.data.cols()), (data.rows(), c1 - c0));
                        let want: Vec<_> = entries
                            .iter()
                            .filter(|e| (c0..c1).contains(&e.1))
                            .map(|&(r, c, v)| (r, c - c0, v))
                            .collect();
                        let got: Vec<_> = t.data.to_coo().iter().collect();
                        assert_eq!(bits(&got), bits(&want), "{}", what());
                    }
                }
            }
        }
    }

    #[test]
    fn cut_rejects_unencodable_formats_before_any_range() {
        let empty = CooMatrix::empty(4, 0);
        let s = plan_column_schedule(&empty, TilePolicy::Uniform { width: 2 }).unwrap();
        assert!(s.is_empty());
        assert_eq!(
            cut_schedule(&empty, &MatrixFormat::Rlc { run_bits: 64 }, &s).unwrap_err(),
            FormatError::Unsupported("RLC run field wider than 63 bits")
        );
        assert_eq!(
            cut_schedule(&empty, &MatrixFormat::Bsr { br: 2, bc: 0 }, &s).unwrap_err(),
            FormatError::InvalidBlockSize { block: 0 }
        );
    }

    #[test]
    fn cut_rejects_unsorted_ranges() {
        let data = MatrixData::encode(&sample(), &MatrixFormat::Csr).unwrap();
        assert_eq!(
            tile_column_ranges(&data, &[(4, 8), (0, 4)]).unwrap_err(),
            FormatError::MalformedPointer {
                what: "tile ranges not ascending"
            }
        );
    }

    #[test]
    fn cut_rejects_overlapping_ranges() {
        let data = MatrixData::encode(&sample(), &MatrixFormat::Csc).unwrap();
        assert_eq!(
            tile_column_ranges(&data, &[(0, 5), (4, 8)]).unwrap_err(),
            FormatError::MalformedPointer {
                what: "tile ranges overlap"
            }
        );
    }

    #[test]
    fn cut_rejects_reversed_ranges() {
        let data = MatrixData::encode(&sample(), &MatrixFormat::Zvc).unwrap();
        assert_eq!(
            tile_column_ranges(&data, &[(0, 2), (6, 3)]).unwrap_err(),
            FormatError::MalformedPointer {
                what: "tile range ends before it starts"
            }
        );
    }

    #[test]
    fn cut_rejects_ranges_past_the_last_column() {
        let data = MatrixData::encode(&sample(), &MatrixFormat::Coo).unwrap();
        assert_eq!(
            tile_column_ranges(&data, &[(8, 12)]).unwrap_err(),
            FormatError::IndexOutOfBounds {
                index: 12,
                bound: 11,
                axis: 1
            }
        );
    }

    #[test]
    fn cut_accepts_gaps_and_zero_width_ranges() {
        let data = MatrixData::encode(&sample(), &MatrixFormat::Dense).unwrap();
        let tiles =
            tile_column_ranges(&data, &[(0, 0), (0, 2), (5, 5), (6, 11), (11, 11)]).unwrap();
        let widths: Vec<usize> = tiles.iter().map(MatrixTile::width).collect();
        assert_eq!(widths, [0, 2, 0, 5, 0]);
        let nnz: Vec<usize> = tiles.iter().map(MatrixTile::nnz).collect();
        assert_eq!(nnz, [0, 1, 0, 4, 0]);
    }
}
