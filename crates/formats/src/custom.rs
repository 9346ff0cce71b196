//! Executable encodings for **open** (non-preset) format descriptors.
//!
//! The nine named matrix formats each have a dedicated container; this
//! module makes the *rest* of the descriptor space runnable.
//! [`CustomMatrix`] stores an operand exactly the way its
//! [`FormatDescriptor`] says — a presence structure for the outer rank,
//! a per-fiber encoding for the inner rank — and exposes the same
//! [`RowMajorStream`] traversal every generic kernel consumes, so a
//! composition like *bitmask rows × run-length columns* flows through
//! SpMM (and the accelerator runtime's CSR materialization) without a
//! single new kernel.
//!
//! Supported open compositions (validated at encode time):
//!
//! - outer rank: [`Level::Uncompressed`] (every fiber present) or
//!   [`Level::Bitmask`] (presence mask over fibers);
//! - inner rank: [`Level::CompressedOffsets`] / [`Level::Singleton`]
//!   (explicit coordinates), [`Level::Bitmask`] (per-fiber mask), or
//!   [`Level::RunLength`] (per-fiber zero runs);
//! - order: row-major or column-major (column fibers are transposed into
//!   the row-major stream on traversal, the same counting-sort MINT's
//!   CSC pipeline runs in hardware);
//! - values: contiguous.
//!
//! Descriptors that *do* name a preset are routed to the native
//! containers by [`encode_with_descriptor`] instead, so the preset paths
//! never regress.

use crate::arena::StreamArena;
use crate::coo::CooMatrix;
use crate::descriptor::{FormatDescriptor, Level, RankOrder, ValuesLayout};
use crate::dtype::DataType;
use crate::error::FormatError;
use crate::formats::{MatrixData, MatrixFormat};
use crate::size_model::{descriptor_matrix_bits, MatrixStructure, SizeBreakdown};
use crate::traits::SparseMatrix;
use crate::traverse::{split_by_prefix, RowFiberSink, RowMajorStream};
use crate::Value;
use std::ops::Range;

/// Outer-rank presence structure.
#[derive(Debug, Clone, PartialEq)]
enum OuterStore {
    /// `Uncompressed`: all fibers present (possibly empty).
    Dense,
    /// `Bitmask`: one bit per fiber, set when the fiber stores entries.
    Mask(Vec<u64>),
}

/// Inner-rank per-fiber encoding.
#[derive(Debug, Clone, PartialEq)]
enum InnerStore {
    /// `CompressedOffsets` / `Singleton`: explicit coordinates, one per
    /// stored value.
    Coords(Vec<usize>),
    /// `Bitmask`: one fixed-width mask per *stored* fiber.
    Mask {
        /// 64-bit words per fiber mask.
        words_per_fiber: usize,
        /// Concatenated fiber masks, stored-fiber order.
        bits: Vec<u64>,
    },
    /// `RunLength`: `(zero_run, value)` entries per fiber; runs longer
    /// than the field emits extension entries with a zero value, exactly
    /// like the flat RLC preset.
    Runs {
        /// Width of the zero-run field.
        run_bits: u32,
        /// Entries in fiber order, delimited by `ptr`.
        entries: Vec<(u64, Value)>,
    },
}

/// A matrix encoded per an open [`FormatDescriptor`] — real level
/// storage, not a façade over COO (see the module docs for the supported
/// composition set).
#[derive(Debug, Clone, PartialEq)]
pub struct CustomMatrix {
    desc: FormatDescriptor,
    rows: usize,
    cols: usize,
    nnz: usize,
    outer: OuterStore,
    /// Entry ranges per stored fiber (`len == stored_fibers + 1`). For
    /// `Runs` inners the ranges index entries; otherwise values/coords.
    ptr: Vec<usize>,
    inner: InnerStore,
    /// Stored nonzero values (empty for `Runs`, whose entries carry the
    /// values inline).
    values: Vec<Value>,
}

impl CustomMatrix {
    /// Encode a COO hub matrix per the given open descriptor.
    ///
    /// Fails for descriptors outside the supported open set; preset
    /// descriptors are accepted too (callers normally route them to the
    /// native containers via [`encode_with_descriptor`]).
    pub fn encode(coo: &CooMatrix, desc: &FormatDescriptor) -> Result<CustomMatrix, FormatError> {
        desc.validate_matrix()
            .map_err(|_| FormatError::Unsupported("descriptor fails validation"))?;
        if desc.levels.len() != 2 || desc.values != ValuesLayout::Contiguous {
            return Err(FormatError::Unsupported(
                "custom encoding covers two-rank contiguous descriptors",
            ));
        }
        let (outer_level, inner_level) = (desc.levels[0], desc.levels[1]);
        if !matches!(outer_level, Level::Uncompressed | Level::Bitmask) {
            return Err(FormatError::Unsupported(
                "custom outer rank must be uncompressed or bitmask",
            ));
        }
        let (rows, cols) = (coo.rows(), coo.cols());
        let (outer_extent, inner_extent) = match desc.order {
            RankOrder::RowMajor => (rows, cols),
            RankOrder::ColMajor => (cols, rows),
            RankOrder::Diagonal => {
                return Err(FormatError::Unsupported(
                    "diagonal order is served by the DIA preset",
                ))
            }
        };

        // Group the triplets into fibers of the outer rank.
        let mut fibers: Vec<Vec<(usize, Value)>> = vec![Vec::new(); outer_extent];
        for (r, c, v) in coo.iter() {
            let (f, i) = match desc.order {
                RankOrder::RowMajor => (r, c),
                _ => (c, r),
            };
            fibers[f].push((i, v));
        }
        for f in &mut fibers {
            f.sort_unstable_by_key(|&(i, _)| i);
        }

        // Outer presence structure + the stored-fiber list.
        let stored: Vec<usize> = match outer_level {
            Level::Uncompressed => (0..outer_extent).collect(),
            Level::Bitmask => (0..outer_extent)
                .filter(|&f| !fibers[f].is_empty())
                .collect(),
            _ => unreachable!("outer level checked above"),
        };
        let outer = match outer_level {
            Level::Uncompressed => OuterStore::Dense,
            _ => {
                let mut mask = vec![0u64; outer_extent.div_ceil(64)];
                for &f in &stored {
                    mask[f / 64] |= 1u64 << (f % 64);
                }
                OuterStore::Mask(mask)
            }
        };

        // Inner per-fiber encoding.
        let mut ptr = Vec::with_capacity(stored.len() + 1);
        ptr.push(0usize);
        let mut values = Vec::with_capacity(coo.nnz());
        let inner = match inner_level {
            Level::CompressedOffsets | Level::Singleton => {
                let mut coords = Vec::with_capacity(coo.nnz());
                for &f in &stored {
                    for &(i, v) in &fibers[f] {
                        coords.push(i);
                        values.push(v);
                    }
                    ptr.push(coords.len());
                }
                InnerStore::Coords(coords)
            }
            Level::Bitmask => {
                let words_per_fiber = inner_extent.div_ceil(64);
                let mut bits = Vec::with_capacity(stored.len() * words_per_fiber);
                for &f in &stored {
                    let base = bits.len();
                    bits.resize(base + words_per_fiber, 0u64);
                    for &(i, v) in &fibers[f] {
                        bits[base + i / 64] |= 1u64 << (i % 64);
                        values.push(v);
                    }
                    ptr.push(values.len());
                }
                InnerStore::Mask {
                    words_per_fiber,
                    bits,
                }
            }
            Level::RunLength { run_bits } => {
                let max_run = (1u64 << run_bits) - 1;
                let mut entries: Vec<(u64, Value)> = Vec::new();
                for &f in &stored {
                    let mut cursor = 0u64;
                    for &(i, v) in &fibers[f] {
                        let mut gap = i as u64 - cursor;
                        while gap > max_run {
                            entries.push((max_run, 0.0)); // extension entry
                            gap -= max_run + 1;
                        }
                        entries.push((gap, v));
                        cursor = i as u64 + 1;
                    }
                    ptr.push(entries.len());
                }
                InnerStore::Runs { run_bits, entries }
            }
            _ => {
                return Err(FormatError::Unsupported(
                    "custom inner rank must be compressed, singleton, bitmask or run-length",
                ))
            }
        };

        Ok(CustomMatrix {
            desc: desc.clone(),
            rows,
            cols,
            nnz: coo.nnz(),
            outer,
            ptr,
            inner,
            values,
        })
    }

    /// The descriptor this payload is encoded per.
    pub fn descriptor(&self) -> &FormatDescriptor {
        &self.desc
    }

    /// Exact storage footprint of this payload under the generic level
    /// model, fed with the measured structure (stored fibers, stored
    /// run entries).
    #[expect(
        clippy::expect_used,
        reason = "every encodable descriptor has a size model"
    )]
    pub fn storage_breakdown(&self, dtype: DataType) -> SizeBreakdown {
        let mut s = MatrixStructure::analytic(self.rows, self.cols, self.nnz);
        s.nonempty_fibers = Some((self.ptr.len() - 1) as u64);
        if let InnerStore::Runs { entries, .. } = &self.inner {
            s.rlc_entries = Some(entries.len() as u64);
        }
        descriptor_matrix_bits(&self.desc, &s, dtype)
            .expect("encodable descriptors are sizable by construction")
    }

    /// Exact storage footprint in bits.
    pub fn storage_bits(&self, dtype: DataType) -> u64 {
        self.storage_breakdown(dtype).total()
    }

    /// Stored fibers of the outer rank, ascending.
    fn stored_fibers(&self) -> Vec<usize> {
        match &self.outer {
            OuterStore::Dense => (0..self.outer_extent()).collect(),
            OuterStore::Mask(mask) => (0..self.outer_extent())
                .filter(|&f| mask[f / 64] >> (f % 64) & 1 == 1)
                .collect(),
        }
    }

    /// Dense storage index of outer fiber `f`, or `None` when the fiber
    /// is absent (bitmask rank-select: popcount of the mask below `f`).
    fn stored_index_of(&self, f: usize) -> Option<usize> {
        if f >= self.outer_extent() {
            return None;
        }
        match &self.outer {
            OuterStore::Dense => Some(f),
            OuterStore::Mask(mask) => {
                if mask[f / 64] >> (f % 64) & 1 == 0 {
                    return None;
                }
                let below: u32 = mask[..f / 64].iter().map(|w| w.count_ones()).sum();
                let partial = (mask[f / 64] & ((1u64 << (f % 64)) - 1)).count_ones();
                Some((below + partial) as usize)
            }
        }
    }

    fn outer_extent(&self) -> usize {
        match self.desc.order {
            RankOrder::ColMajor => self.cols,
            _ => self.rows,
        }
    }

    fn inner_extent(&self) -> usize {
        match self.desc.order {
            RankOrder::ColMajor => self.rows,
            _ => self.cols,
        }
    }

    /// Decode one stored fiber (by its dense index in `0..ptr.len()-1`)
    /// into `(inner coordinates, values)`.
    fn decode_fiber(&self, si: usize, coords: &mut Vec<usize>, vals: &mut Vec<Value>) {
        coords.clear();
        vals.clear();
        let (s, e) = (self.ptr[si], self.ptr[si + 1]);
        match &self.inner {
            InnerStore::Coords(c) => {
                coords.extend_from_slice(&c[s..e]);
                vals.extend_from_slice(&self.values[s..e]);
            }
            InnerStore::Mask {
                words_per_fiber,
                bits,
            } => {
                let base = si * words_per_fiber;
                let mut vi = s;
                for i in 0..self.inner_extent() {
                    if bits[base + i / 64] >> (i % 64) & 1 == 1 {
                        coords.push(i);
                        vals.push(self.values[vi]);
                        vi += 1;
                    }
                }
                debug_assert_eq!(vi, e);
            }
            InnerStore::Runs { entries, .. } => {
                let mut cursor = 0u64;
                for &(gap, v) in &entries[s..e] {
                    let pos = cursor + gap;
                    cursor = pos + 1;
                    if v != 0.0 {
                        coords.push(pos as usize);
                        vals.push(v);
                    }
                }
            }
        }
    }
}

impl RowMajorStream for CustomMatrix {
    /// Row-major orders walk the stored-fiber list natively, skipping and
    /// clipping it to `range` (it is sorted ascending). Column-major orders
    /// run a counting-sort transpose (the CSC algorithm) that buckets only
    /// the entries whose row lies in `range`. All scratch comes from the
    /// arena, so repeat traversals allocate nothing once its buffers have
    /// grown to fit the operand.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let stored = self.stored_fibers();
        let StreamArena {
            coords,
            vals,
            idx_a: row_ptr,
            idx_b: next,
            triples,
            ..
        } = arena;
        if self.desc.order != RankOrder::ColMajor {
            for (si, &f) in stored.iter().enumerate() {
                if f < range.start {
                    continue;
                }
                if f >= range.end {
                    break;
                }
                self.decode_fiber(si, coords, vals);
                if !coords.is_empty() {
                    emit(f, coords, vals);
                }
            }
            return;
        }
        let lo = range.start.min(self.rows);
        let hi = range.end.min(self.rows);
        if lo >= hi {
            return;
        }
        // Column-major: bucket the band's entries by row, columns stay
        // sorted because fibers are visited in ascending column order.
        let band = hi - lo;
        row_ptr.clear();
        row_ptr.resize(band + 1, 0);
        triples.clear();
        for (si, &col) in stored.iter().enumerate() {
            self.decode_fiber(si, coords, vals);
            for (&r, &v) in coords.iter().zip(&*vals) {
                if r >= lo && r < hi {
                    row_ptr[r - lo + 1] += 1;
                    triples.push((r, col, v));
                }
            }
        }
        for i in 0..band {
            row_ptr[i + 1] += row_ptr[i];
        }
        // The per-fiber decode scratch is free again — reuse it as the
        // scatter target holding the row-bucketed columns and values.
        coords.clear();
        coords.resize(triples.len(), 0);
        vals.clear();
        vals.resize(triples.len(), 0.0);
        next.clear();
        next.extend_from_slice(row_ptr);
        for &(r, c, v) in triples.iter() {
            let slot = next[r - lo];
            next[r - lo] += 1;
            coords[slot] = c;
            vals[slot] = v;
        }
        for i in 0..band {
            let (s, e) = (row_ptr[i], row_ptr[i + 1]);
            if s < e {
                emit(lo + i, &coords[s..e], &vals[s..e]);
            }
        }
    }

    /// Generic counting pass: one full traversal histograms stored
    /// nonzeros per row, then the prefix splits as usual.
    fn row_partition(&self, parts: usize) -> Vec<Range<usize>> {
        let mut prefix = vec![0usize; self.rows + 1];
        let mut arena = StreamArena::new();
        self.for_each_fiber_in(&mut arena, &mut |r, cols, _| {
            prefix[r + 1] += cols.len();
        });
        for r in 0..self.rows {
            prefix[r + 1] += prefix[r];
        }
        split_by_prefix(&prefix, parts)
    }
}

impl SparseMatrix for CustomMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn get(&self, row: usize, col: usize) -> Value {
        // Decode only the fiber holding (row, col), not the whole matrix.
        let (f, i) = match self.desc.order {
            RankOrder::ColMajor => (col, row),
            _ => (row, col),
        };
        let Some(si) = self.stored_index_of(f) else {
            return 0.0;
        };
        let mut coords = Vec::new();
        let mut vals = Vec::new();
        self.decode_fiber(si, &mut coords, &mut vals);
        match coords.binary_search(&i) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "from_triplets re-validates coordinates read from this matrix's stream"
    )]
    fn to_coo(&self) -> CooMatrix {
        let mut triplets = Vec::with_capacity(self.nnz);
        self.for_each_nnz(&mut |r, c, v| triplets.push((r, c, v)));
        CooMatrix::from_triplets(self.rows, self.cols, triplets)
            .expect("stream coordinates are in bounds by construction")
    }
}

/// A matrix payload addressed by descriptor: the preset containers when
/// the descriptor names one, [`CustomMatrix`] for the open space.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixEncoding {
    /// One of the nine named formats, in its native container.
    Preset(MatrixData),
    /// An open composition in the generic level container.
    Custom(CustomMatrix),
}

impl MatrixEncoding {
    /// The canonical descriptor of this payload.
    pub fn descriptor(&self) -> FormatDescriptor {
        match self {
            MatrixEncoding::Preset(d) => d.descriptor(),
            MatrixEncoding::Custom(c) => c.descriptor().clone(),
        }
    }

    /// Borrow as the row-major fiber stream every generic consumer uses.
    pub fn row_stream(&self) -> &dyn RowMajorStream {
        match self {
            MatrixEncoding::Preset(d) => d.row_stream(),
            MatrixEncoding::Custom(c) => c,
        }
    }

    /// Borrow as the common sparse-matrix trait object.
    pub fn as_sparse(&self) -> &dyn SparseMatrix {
        match self {
            MatrixEncoding::Preset(d) => d.as_sparse(),
            MatrixEncoding::Custom(c) => c,
        }
    }

    /// Exact storage footprint in bits under the generic level model.
    pub fn storage_bits(&self, dtype: DataType) -> u64 {
        match self {
            MatrixEncoding::Preset(d) => crate::size_model::matrix_storage_bits_exact(d, dtype),
            MatrixEncoding::Custom(c) => c.storage_bits(dtype),
        }
    }
}

/// Encode a COO hub matrix per **any** supported descriptor: native
/// containers for the nine presets, [`CustomMatrix`] for the open
/// compositions — the descriptor-first replacement for
/// [`MatrixData::encode`].
pub fn encode_with_descriptor(
    coo: &CooMatrix,
    desc: &FormatDescriptor,
) -> Result<MatrixEncoding, FormatError> {
    match MatrixFormat::from_descriptor(desc) {
        Some(fmt) => Ok(MatrixEncoding::Preset(MatrixData::encode(coo, &fmt)?)),
        None => Ok(MatrixEncoding::Custom(CustomMatrix::encode(coo, desc)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SearchSpace;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            7,
            40,
            vec![
                (0, 0, 1.0),
                (0, 39, 2.0),
                (2, 5, 3.0),
                (2, 6, -4.0),
                (2, 21, 5.0),
                (6, 17, 6.0),
            ],
        )
        .unwrap()
    }

    fn open_two_rank_descriptors() -> Vec<FormatDescriptor> {
        crate::descriptor::enumerate_matrix(SearchSpace::Open)
            .into_iter()
            .filter(|d| {
                d.to_matrix_format().is_none()
                    && d.to_tensor_format().is_none()
                    && d.levels.len() == 2
            })
            .collect()
    }

    #[test]
    fn every_open_composition_round_trips_through_the_stream() {
        let coo = sample();
        let descs = open_two_rank_descriptors();
        assert!(!descs.is_empty(), "open space enumerated no compositions");
        for desc in descs {
            let enc = CustomMatrix::encode(&coo, &desc).unwrap_or_else(|e| {
                panic!("{desc} failed to encode: {e}");
            });
            assert_eq!(enc.to_coo(), coo, "stream round trip lost data for {desc}");
            assert_eq!(enc.nnz(), coo.nnz());
            assert!(enc.storage_bits(DataType::Fp32) > 0);
        }
    }

    #[test]
    fn bitmask_rows_runlength_cols_streams_ordered() {
        let coo = sample();
        let desc = FormatDescriptor::new(
            RankOrder::RowMajor,
            vec![Level::Bitmask, Level::RunLength { run_bits: 3 }],
            ValuesLayout::Contiguous,
        );
        let enc = CustomMatrix::encode(&coo, &desc).unwrap();
        // Long gaps must have produced extension entries (gap 39 > 7).
        let InnerStore::Runs { entries, .. } = &enc.inner else {
            panic!("expected run-length inner storage");
        };
        assert!(
            entries.iter().any(|&(_, v)| v == 0.0),
            "expected run-extension entries for the 39-column gap"
        );
        // And the stream must still be exactly the stored nonzeros.
        let mut last_row = None;
        enc.for_each_fiber(&mut |r, cs, vs| {
            assert!(last_row.is_none_or(|lr| lr < r));
            assert!(cs.windows(2).all(|w| w[0] < w[1]));
            assert!(vs.iter().all(|&v| v != 0.0));
            last_row = Some(r);
        });
        assert_eq!(enc.to_coo(), coo);
    }

    #[test]
    fn column_major_custom_transposes_into_row_order() {
        let coo = sample();
        let desc = FormatDescriptor::new(
            RankOrder::ColMajor,
            vec![Level::Bitmask, Level::Singleton],
            ValuesLayout::Contiguous,
        );
        let enc = CustomMatrix::encode(&coo, &desc).unwrap();
        assert_eq!(enc.to_coo(), coo);
    }

    #[test]
    fn encode_with_descriptor_routes_presets_natively() {
        let coo = sample();
        let enc = encode_with_descriptor(&coo, &FormatDescriptor::csr()).unwrap();
        assert!(matches!(enc, MatrixEncoding::Preset(MatrixData::Csr(_))));
        let custom = encode_with_descriptor(
            &coo,
            &FormatDescriptor::new(
                RankOrder::RowMajor,
                vec![Level::Bitmask, Level::RunLength { run_bits: 4 }],
                ValuesLayout::Contiguous,
            ),
        )
        .unwrap();
        assert!(matches!(custom, MatrixEncoding::Custom(_)));
        assert_eq!(custom.as_sparse().to_coo(), coo);
    }

    #[test]
    fn exact_bits_match_the_generic_model_structure() {
        // The exact accounting must charge the *actual* stored-fiber and
        // run-entry counts, not the uniform-random expectations.
        let coo = sample();
        let desc = FormatDescriptor::new(
            RankOrder::RowMajor,
            vec![Level::Bitmask, Level::RunLength { run_bits: 4 }],
            ValuesLayout::Contiguous,
        );
        let enc = CustomMatrix::encode(&coo, &desc).unwrap();
        let bd = enc.storage_breakdown(DataType::Fp32);
        // 3 non-empty rows of 7; mask covers all 7 fibers.
        assert_eq!(bd.ranks[0].mask_bits, 7);
        let InnerStore::Runs { entries, .. } = &enc.inner else {
            unreachable!()
        };
        assert_eq!(bd.stored_elements, entries.len() as u64);
    }

    #[test]
    fn random_access_decodes_only_the_target_fiber() {
        let coo = sample();
        let dense = coo.clone().into_dense();
        for desc in open_two_rank_descriptors() {
            let enc = CustomMatrix::encode(&coo, &desc).unwrap();
            for r in 0..7 {
                for c in 0..40 {
                    assert_eq!(enc.get(r, c), dense.get(r, c), "{desc} at ({r},{c})");
                }
            }
            // Out-of-bounds coordinates read as zero, not a panic.
            assert_eq!(enc.get(100, 0), 0.0);
        }
    }

    #[test]
    fn unsupported_compositions_are_rejected() {
        let coo = sample();
        let dia_like = FormatDescriptor::dia();
        assert!(CustomMatrix::encode(&coo, &dia_like).is_err());
        let three_levels = FormatDescriptor::csf();
        assert!(CustomMatrix::encode(&coo, &three_levels).is_err());
    }
}
