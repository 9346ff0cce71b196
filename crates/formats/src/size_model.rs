//! Storage-size (compactness) model — §III-A of the paper — computed
//! **generically from per-rank level descriptors**.
//!
//! The model charges each rank of a [`FormatDescriptor`] for the
//! metadata its [`Level`] keeps (coordinate arrays, offset/pointer
//! arrays, presence bitmasks, run fields) and the values for their
//! [`ValuesLayout`] (contiguous, padded fibers, dense blocks); the sum
//! over ranks is the footprint. The legacy per-format entry points
//! ([`matrix_storage_bits`], [`tensor_storage_bits`],
//! [`matrix_storage_bits_exact`]) are thin wrappers that translate the
//! enum to its descriptor — they are pinned **bit-identical** to the
//! paper's closed-form per-format formulas by the
//! `tests/descriptor_properties.rs` suite, so nothing downstream (SAGE's
//! cost model, the Fig. 4 sweeps, the Table III selections) moves.
//!
//! Two structure sources feed the per-level quantities:
//!
//! 1. **Analytic** ([`MatrixStructure::analytic`]): closed-form expected
//!    counts (occupied blocks, diagonals, ELL width, RLC entries) under
//!    the paper's uniform-random nonzero assumption, given only
//!    `(dims, nnz)`.
//! 2. **Exact** ([`MatrixStructure::exact`]): counts measured from an
//!    actual encoded payload.
//!
//! Bit accounting follows the paper's rule: every metadata field is
//! charged `ceil(log2(max_possible_value))` bits ([`crate::ceil_log2`]),
//! every element the [`DataType`] width.

use crate::ceil_log2;
use crate::descriptor::{FormatDescriptor, Level, RankOrder, ValuesLayout};
use crate::dtype::DataType;
use crate::error::FormatError;
use crate::formats::{MatrixData, MatrixFormat, TensorFormat};
use crate::traits::SparseMatrix;

/// Expected number of RLC entries (nonzero entries + run-extension
/// entries) for a stream of `total` elements containing `nnz` nonzeros and
/// a run field of `run_bits` bits.
///
/// Extension entries are charged as `zeros / (max_run + 1)` — exact when
/// zeros are evenly spread and an upper bound otherwise. This keeps both
/// asymptotes of Fig. 4a: at high density RLC degenerates to one entry per
/// nonzero, at extreme sparsity it floors at `total / (max_run + 1)`
/// entries (why COO overtakes RLC left of the first red line).
pub fn rlc_expected_entries(total: u64, nnz: u64, run_bits: u32) -> u64 {
    let zeros = total.saturating_sub(nnz);
    let max_run = (1u64 << run_bits) - 1;
    nnz + zeros / (max_run + 1)
}

/// Expected number of occupied `br x bc` blocks for a uniform-random
/// `rows x cols` pattern with `nnz` nonzeros.
pub fn bsr_expected_blocks(rows: usize, cols: usize, nnz: usize, br: usize, bc: usize) -> u64 {
    let nbr = rows.div_ceil(br) as f64;
    let nbc = cols.div_ceil(bc) as f64;
    let total = (rows * cols) as f64;
    if total == 0.0 {
        return 0;
    }
    let d = nnz as f64 / total;
    // P(block occupied) = 1 - (1 - d)^(block area)
    let p = 1.0 - (1.0 - d).powi((br * bc) as i32);
    (nbr * nbc * p).ceil() as u64
}

/// Expected number of occupied diagonals for a uniform-random pattern:
/// each of the `(rows + cols - 1)` diagonals of length `L_i` is occupied
/// with probability `1 - (1-d)^L_i`; approximated with the average
/// diagonal length.
pub fn dia_expected_diagonals(rows: usize, cols: usize, nnz: usize) -> u64 {
    let (m, k, n) = (rows as u64, cols as u64, nnz as u64);
    let total = m * k;
    if total == 0 {
        return 0;
    }
    let d = n as f64 / total as f64;
    let ndiags_max = m + k - 1;
    let avg_len = total as f64 / ndiags_max as f64;
    let p = 1.0 - (1.0 - d).powf(avg_len);
    (ndiags_max as f64 * p).ceil() as u64
}

/// Expected ELL width for a uniform-random pattern: mean row population
/// plus a dispersion slack of ~2 standard deviations (binomial).
pub fn ell_expected_width(rows: usize, cols: usize, nnz: usize) -> u64 {
    let (m, k, n) = (rows as u64, cols as u64, nnz as u64);
    let total = m * k;
    if total == 0 {
        return 0;
    }
    let d = n as f64 / total as f64;
    let mean = k as f64 * d;
    let sd = (k as f64 * d * (1.0 - d)).sqrt();
    let width = (mean + 2.0 * sd).ceil().max(if n > 0 { 1.0 } else { 0.0 }) as u64;
    width.min(k)
}

/// The per-operand structural quantities the level model consumes.
/// `None` fields fall back to the analytic (uniform-random) estimates;
/// [`MatrixStructure::exact`] fills them from a real payload instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatrixStructure {
    /// Logical rows.
    pub rows: usize,
    /// Logical columns.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Occupied blocks (blocked outer ranks).
    pub blocks: Option<u64>,
    /// Occupied diagonals (diagonal rank order).
    pub diagonals: Option<u64>,
    /// Padded row width (padded-fiber singleton ranks).
    pub ell_width: Option<u64>,
    /// Stored run-length entries, extension entries included.
    pub rlc_entries: Option<u64>,
}

impl MatrixStructure {
    /// A structure with only `(dims, nnz)` known — every level quantity
    /// uses its analytic uniform-random estimate.
    pub fn analytic(rows: usize, cols: usize, nnz: usize) -> Self {
        MatrixStructure {
            rows,
            cols,
            nnz,
            ..Default::default()
        }
    }

    /// Measure the structure of an actual encoded payload, so the level
    /// model charges real block/diagonal/width/run counts.
    pub fn exact(data: &MatrixData) -> Self {
        let mut s = MatrixStructure::analytic(data.rows(), data.cols(), data.nnz());
        match data {
            MatrixData::Bsr(m) => s.blocks = Some(m.num_blocks() as u64),
            MatrixData::Dia(m) => s.diagonals = Some(m.num_diagonals() as u64),
            MatrixData::Ell(m) => s.ell_width = Some(m.width() as u64),
            MatrixData::Rlc(m) => {
                // Trailing zeros are charged the extension entries a
                // streaming encoder would emit for them.
                let max_run = (1u64 << m.run_bits()) - 1;
                let tail_entries = m.trailing_zeros() / (max_run + 1);
                s.rlc_entries = Some(m.stored_entries() as u64 + tail_entries);
            }
            _ => {}
        }
        s
    }
}

/// One rank's metadata charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankCharge {
    /// The level this rank is encoded with.
    pub level: Level,
    /// Bits in explicit coordinate arrays.
    pub coord_bits: u64,
    /// Bits in offset/pointer arrays delimiting parent fibers.
    pub ptr_bits: u64,
    /// Bits in presence bitmasks.
    pub mask_bits: u64,
    /// Bits in run-length fields.
    pub run_bits: u64,
}

impl RankCharge {
    fn new(level: Level) -> Self {
        RankCharge {
            level,
            coord_bits: 0,
            ptr_bits: 0,
            mask_bits: 0,
            run_bits: 0,
        }
    }

    /// All metadata bits this rank charges.
    pub fn metadata_bits(&self) -> u64 {
        self.coord_bits + self.ptr_bits + self.mask_bits + self.run_bits
    }
}

/// A descriptor-sized footprint, broken down by rank — what
/// `ExecutionPlan::explain` and the compactness exhibits render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeBreakdown {
    /// Per-rank metadata charges, outermost first.
    pub ranks: Vec<RankCharge>,
    /// Bits spent on stored value slots (padding included).
    pub values_bits: u64,
    /// Value slots stored (≥ nnz for padded/blocked/run layouts).
    pub stored_elements: u64,
}

impl SizeBreakdown {
    /// Total footprint in bits.
    pub fn total(&self) -> u64 {
        self.ranks
            .iter()
            .map(RankCharge::metadata_bits)
            .sum::<u64>()
            + self.values_bits
    }

    /// Metadata share of the footprint (0 for dense).
    pub fn metadata_bits(&self) -> u64 {
        self.total() - self.values_bits
    }
}

/// Extents of the two matrix ranks under the descriptor's traversal
/// order (`Diagonal` enumerates the `rows + cols` signed offsets
/// outermost, full-length `rows` strips innermost).
fn matrix_extents(order: RankOrder, rows: u64, cols: u64) -> (u64, u64) {
    match order {
        RankOrder::RowMajor => (rows, cols),
        RankOrder::ColMajor => (cols, rows),
        RankOrder::Diagonal => (rows + cols, rows),
    }
}

/// Size a matrix descriptor from per-rank level metadata — the generic
/// model every matrix entry point delegates to. Returns the per-rank
/// breakdown; unsupported level compositions yield an error rather than
/// a guess.
pub fn descriptor_matrix_bits(
    desc: &FormatDescriptor,
    s: &MatrixStructure,
    dtype: DataType,
) -> Result<SizeBreakdown, FormatError> {
    use Level as L;
    let (m, k, n) = (s.rows as u64, s.cols as u64, s.nnz as u64);
    let total = m * k;
    let b = dtype.bits();
    let (e0, e1) = matrix_extents(desc.order, m, k);
    let lg = |x: u64| u64::from(ceil_log2(x));

    let mut ranks: Vec<RankCharge> = desc.levels.iter().map(|&l| RankCharge::new(l)).collect();
    let values_slots: u64;

    match (desc.levels.as_slice(), desc.values) {
        // ---- uncompressed (Dense) ----------------------------------------
        ([L::Uncompressed, L::Uncompressed], ValuesLayout::Contiguous) => {
            values_slots = total;
        }
        // ---- linearized single-rank encodings (RLC / ZVC) ---------------
        ([L::RunLength { run_bits }], ValuesLayout::Contiguous) => {
            let entries = s
                .rlc_entries
                .unwrap_or_else(|| rlc_expected_entries(total, n, *run_bits));
            ranks[0].run_bits = entries * u64::from(*run_bits);
            values_slots = entries;
        }
        ([L::Bitmask], ValuesLayout::Contiguous) => {
            ranks[0].mask_bits = total;
            values_slots = n;
        }
        // ---- coordinate pairs (COO) -------------------------------------
        ([L::Singleton, L::Singleton], ValuesLayout::Contiguous) => {
            ranks[0].coord_bits = n * lg(e0);
            ranks[1].coord_bits = n * lg(e1);
            values_slots = n;
        }
        // ---- offset-compressed inner rank (CSR / CSC) --------------------
        ([L::Uncompressed, L::CompressedOffsets], ValuesLayout::Contiguous) => {
            ranks[1].ptr_bits = (e0 + 1) * lg(n + 1);
            ranks[1].coord_bits = n * lg(e1);
            values_slots = n;
        }
        // ---- blocked outer rank (BSR) -----------------------------------
        ([L::Blocked { br, bc }, L::CompressedOffsets], ValuesLayout::DenseBlocks) => {
            let blocks = s
                .blocks
                .unwrap_or_else(|| bsr_expected_blocks(s.rows, s.cols, s.nnz, *br, *bc));
            let nbr = s.rows.div_ceil(*br) as u64;
            let nbc = s.cols.div_ceil(*bc) as u64;
            ranks[1].coord_bits = blocks * lg(nbc);
            ranks[1].ptr_bits = (nbr + 1) * lg(blocks + 1);
            values_slots = blocks * (*br * *bc) as u64;
        }
        // ---- padded fibers with explicit fiber coords (DIA) -------------
        ([L::Singleton, L::Uncompressed], ValuesLayout::PaddedFibers) => {
            let fibers = s
                .diagonals
                .unwrap_or_else(|| dia_expected_diagonals(s.rows, s.cols, s.nnz));
            ranks[0].coord_bits = fibers * lg(e0);
            values_slots = fibers * e1;
        }
        // ---- uniform padded rows with per-slot coords (ELL) -------------
        ([L::Uncompressed, L::Singleton], ValuesLayout::PaddedFibers) => {
            let width = s
                .ell_width
                .unwrap_or_else(|| ell_expected_width(s.rows, s.cols, s.nnz));
            ranks[1].coord_bits = e0 * width * lg(e1);
            values_slots = e0 * width;
        }
        _ => {
            return Err(FormatError::Unsupported(
                "level composition has no size model",
            ))
        }
    }

    Ok(SizeBreakdown {
        ranks,
        values_bits: values_slots * b,
        stored_elements: values_slots,
    })
}

/// Tensor structural quantities (the 3-D analogue of
/// [`MatrixStructure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TensorStructure {
    /// Tensor shape.
    pub dims: (usize, usize, usize),
    /// Stored nonzeros.
    pub nnz: usize,
    /// Occupied x-slices (CSF top rank).
    pub slices: Option<u64>,
    /// Occupied (x, y) fibers (CSF middle rank).
    pub fibers: Option<u64>,
    /// Occupied cubic blocks (HiCOO outer rank).
    pub blocks: Option<u64>,
    /// Stored run-length entries, extension entries included.
    pub rlc_entries: Option<u64>,
}

impl TensorStructure {
    /// A structure with only `(dims, nnz)` known.
    pub fn analytic(dims: (usize, usize, usize), nnz: usize) -> Self {
        TensorStructure {
            dims,
            nnz,
            ..Default::default()
        }
    }
}

/// Expected occupied x-slices of a uniform-random tensor.
pub fn csf_expected_slices(dims: (usize, usize, usize), nnz: usize) -> u64 {
    let (x, y, z) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let total = x * y * z;
    if total == 0 {
        return 0;
    }
    let d = nnz as f64 / total as f64;
    (x as f64 * (1.0 - (1.0 - d).powf((y * z) as f64))).ceil() as u64
}

/// Expected occupied (x, y) fibers of a uniform-random tensor.
pub fn csf_expected_fibers(dims: (usize, usize, usize), nnz: usize) -> u64 {
    let (x, y, z) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let total = x * y * z;
    if total == 0 {
        return 0;
    }
    let d = nnz as f64 / total as f64;
    ((x * y) as f64 * (1.0 - (1.0 - d).powf(z as f64))).ceil() as u64
}

/// Expected occupied cubic blocks of edge `block` for a uniform-random
/// tensor.
pub fn hicoo_expected_blocks(dims: (usize, usize, usize), nnz: usize, block: usize) -> u64 {
    let (x, y, z) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let total = x * y * z;
    if total == 0 {
        return 0;
    }
    let bl = block as u64;
    let d = nnz as f64 / total as f64;
    let nb = (x.div_ceil(bl) * y.div_ceil(bl) * z.div_ceil(bl)) as f64;
    let p = 1.0 - (1.0 - d).powf((bl * bl * bl) as f64);
    (nb * p).ceil() as u64
}

/// Size a 3-D tensor descriptor from per-rank level metadata.
pub fn descriptor_tensor_bits(
    desc: &FormatDescriptor,
    s: &TensorStructure,
    dtype: DataType,
) -> Result<SizeBreakdown, FormatError> {
    use Level as L;
    let (x, y, z) = (s.dims.0 as u64, s.dims.1 as u64, s.dims.2 as u64);
    let n = s.nnz as u64;
    let total = x * y * z;
    let b = dtype.bits();
    let lg = |v: u64| u64::from(ceil_log2(v));

    let mut ranks: Vec<RankCharge> = desc.levels.iter().map(|&l| RankCharge::new(l)).collect();
    let values_slots: u64;

    match (desc.levels.as_slice(), desc.values) {
        ([L::Uncompressed, L::Uncompressed, L::Uncompressed], ValuesLayout::Contiguous) => {
            values_slots = total;
        }
        ([L::Singleton, L::Singleton, L::Singleton], ValuesLayout::Contiguous) => {
            ranks[0].coord_bits = n * lg(x);
            ranks[1].coord_bits = n * lg(y);
            ranks[2].coord_bits = n * lg(z);
            values_slots = n;
        }
        (
            [L::CompressedOffsets, L::CompressedOffsets, L::CompressedOffsets],
            ValuesLayout::Contiguous,
        ) => {
            let slices = s
                .slices
                .unwrap_or_else(|| csf_expected_slices(s.dims, s.nnz));
            let fibers = s
                .fibers
                .unwrap_or_else(|| csf_expected_fibers(s.dims, s.nnz));
            // The outermost compressed rank stores only its coordinate
            // list (the stored-slice count is a header quantity); each
            // inner compressed rank additionally keeps the offsets array
            // delimiting its parent's fibers.
            ranks[0].coord_bits = slices * lg(x);
            ranks[1].ptr_bits = (slices + 1) * lg(fibers + 1);
            ranks[1].coord_bits = fibers * lg(y);
            ranks[2].ptr_bits = (fibers + 1) * lg(n + 1);
            ranks[2].coord_bits = n * lg(z);
            values_slots = n;
        }
        ([L::Blocked { br, bc }, L::Singleton], ValuesLayout::Contiguous) if br == bc => {
            let bl = *br as u64;
            let blocks = s
                .blocks
                .unwrap_or_else(|| hicoo_expected_blocks(s.dims, s.nnz, *br));
            let bbits = lg(x.div_ceil(bl)) + lg(y.div_ceil(bl)) + lg(z.div_ceil(bl));
            ranks[0].coord_bits = blocks * bbits;
            ranks[0].ptr_bits = (blocks + 1) * lg(n + 1);
            ranks[1].coord_bits = n * 3 * lg(bl);
            values_slots = n;
        }
        ([L::RunLength { run_bits }], ValuesLayout::Contiguous) => {
            let entries = s
                .rlc_entries
                .unwrap_or_else(|| rlc_expected_entries(total, n, *run_bits));
            ranks[0].run_bits = entries * u64::from(*run_bits);
            values_slots = entries;
        }
        ([L::Bitmask], ValuesLayout::Contiguous) => {
            ranks[0].mask_bits = total;
            values_slots = n;
        }
        _ => {
            return Err(FormatError::Unsupported(
                "level composition has no tensor size model",
            ))
        }
    }

    Ok(SizeBreakdown {
        ranks,
        values_bits: values_slots * b,
        stored_elements: values_slots,
    })
}

/// Analytic storage size in bits of a matrix with the given shape/nnz in
/// the given format, assuming uniformly random nonzero positions.
///
/// `rows x cols` with `nnz` stored nonzeros and element type `dtype`.
/// Thin wrapper over [`descriptor_matrix_bits`] via the format's
/// [`FormatDescriptor`].
#[expect(
    clippy::expect_used,
    reason = "every preset descriptor has a size model"
)]
pub fn matrix_storage_bits(
    format: &MatrixFormat,
    rows: usize,
    cols: usize,
    nnz: usize,
    dtype: DataType,
) -> u64 {
    descriptor_matrix_bits(
        &FormatDescriptor::from(*format),
        &MatrixStructure::analytic(rows, cols, nnz),
        dtype,
    )
    .expect("every preset descriptor has a size model")
    .total()
}

/// Exact storage size in bits of an encoded matrix payload: the same
/// level model fed with the payload's measured structure
/// ([`MatrixStructure::exact`]).
#[expect(
    clippy::expect_used,
    reason = "every preset descriptor has a size model"
)]
pub fn matrix_storage_bits_exact(data: &MatrixData, dtype: DataType) -> u64 {
    descriptor_matrix_bits(&data.descriptor(), &MatrixStructure::exact(data), dtype)
        .expect("every preset descriptor has a size model")
        .total()
}

/// Analytic storage size in bits of a 3-D tensor in the given format,
/// assuming uniformly random nonzero positions. Thin wrapper over
/// [`descriptor_tensor_bits`].
#[expect(
    clippy::expect_used,
    reason = "every tensor preset descriptor has a size model"
)]
pub fn tensor_storage_bits(
    format: &TensorFormat,
    dims: (usize, usize, usize),
    nnz: usize,
    dtype: DataType,
) -> u64 {
    descriptor_tensor_bits(
        &FormatDescriptor::from(*format),
        &TensorStructure::analytic(dims, nnz),
        dtype,
    )
    .expect("every tensor preset descriptor has a size model")
    .total()
}

/// Convenience: analytic size in **bytes** (rounded up).
pub fn matrix_storage_bytes(
    format: &MatrixFormat,
    rows: usize,
    cols: usize,
    nnz: usize,
    dtype: DataType,
) -> u64 {
    matrix_storage_bits(format, rows, cols, nnz, dtype).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::descriptor::{Level, RankOrder, ValuesLayout};

    const FP32: DataType = DataType::Fp32;

    #[test]
    fn dense_size_is_shape_times_bits() {
        assert_eq!(
            matrix_storage_bits(&MatrixFormat::Dense, 10, 20, 5, FP32),
            10 * 20 * 32
        );
        assert_eq!(
            matrix_storage_bits(&MatrixFormat::Dense, 10, 20, 5, DataType::Int8),
            10 * 20 * 8
        );
    }

    #[test]
    fn coo_beats_csr_at_extreme_sparsity() {
        // Fig. 4a: left of the first red line, COO is most compact.
        let (m, k) = (11_000, 11_000);
        let nnz = ((m as f64) * (k as f64) * 1e-8).ceil() as usize; // 10^-6 %
        let coo = matrix_storage_bits(&MatrixFormat::Coo, m, k, nnz, FP32);
        let csr = matrix_storage_bits(&MatrixFormat::Csr, m, k, nnz, FP32);
        let zvc = matrix_storage_bits(&MatrixFormat::Zvc, m, k, nnz, FP32);
        assert!(coo < csr, "COO {coo} should beat CSR {csr} at 1e-8 density");
        assert!(csr < zvc, "CSR {csr} should beat ZVC {zvc} at 1e-8 density");
    }

    #[test]
    fn zvc_or_rlc_win_mid_density() {
        // Fig. 4a: middle region is "well suited for RLC and ZVC".
        let (m, k) = (11_000, 11_000);
        let nnz = ((m as f64) * (k as f64) * 0.5) as usize; // 50%
        let dense = matrix_storage_bits(&MatrixFormat::Dense, m, k, nnz, FP32);
        let zvc = matrix_storage_bits(&MatrixFormat::Zvc, m, k, nnz, FP32);
        let csr = matrix_storage_bits(&MatrixFormat::Csr, m, k, nnz, FP32);
        assert!(zvc < dense, "ZVC {zvc} should beat Dense {dense} at 50%");
        assert!(zvc < csr, "ZVC {zvc} should beat CSR {csr} at 50%");
    }

    #[test]
    fn dense_wins_at_full_density() {
        let (m, k) = (11_000, 11_000);
        let nnz = m * k;
        let dense = matrix_storage_bits(&MatrixFormat::Dense, m, k, nnz, FP32);
        for fmt in [
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Zvc,
            MatrixFormat::Rlc { run_bits: 4 },
        ] {
            let s = matrix_storage_bits(&fmt, m, k, nnz, FP32);
            assert!(dense <= s, "Dense {dense} should beat {fmt} {s} at 100%");
        }
    }

    #[test]
    fn quantization_shifts_crossovers() {
        // Fig. 4a(i) vs 4a(ii): with 8-bit data the metadata share grows,
        // so the density at which Dense overtakes CSR (the second red
        // line) moves left — CSR's ~14 bits of column metadata per nonzero
        // hurt more when each element is only 8 bits.
        let (m, k) = (11_000, 11_000);
        let find_dense_crossover = |dtype: DataType| -> f64 {
            // Lowest density at which Dense is at least as compact as CSR.
            for i in 1..1000 {
                let dens = i as f64 / 1000.0;
                let nnz = ((m * k) as f64 * dens) as usize;
                let csr = matrix_storage_bits(&MatrixFormat::Csr, m, k, nnz, dtype);
                let dense = matrix_storage_bits(&MatrixFormat::Dense, m, k, nnz, dtype);
                if dense <= csr {
                    return dens;
                }
            }
            1.0
        };
        let cross32 = find_dense_crossover(DataType::Fp32);
        let cross8 = find_dense_crossover(DataType::Int8);
        assert!(
            cross8 < cross32,
            "int8 Dense/CSR crossover {cross8} should sit left of fp32 crossover {cross32}"
        );
        // Both crossovers live in a sensible band (Fig. 4a puts them
        // between ~30% and ~80% density).
        assert!(
            cross32 > 0.3 && cross32 < 0.9,
            "fp32 crossover {cross32} out of band"
        );
    }

    #[test]
    fn rlc_entry_model_asymptotes() {
        // Dense end: one entry per nonzero.
        assert_eq!(rlc_expected_entries(100, 100, 4), 100);
        // Empty stream: pure extension entries.
        assert_eq!(rlc_expected_entries(160, 0, 4), 10);
        // Mixed.
        assert_eq!(rlc_expected_entries(100, 10, 4), 10 + 90 / 16);
    }

    #[test]
    fn exact_matches_analytic_for_unstructured() {
        // For COO/CSR/CSC/ZVC/Dense the exact and analytic models must
        // agree (they depend only on dims and nnz).
        let coo = CooMatrix::from_triplets(
            30,
            40,
            (0..57)
                .map(|i| (i % 30, (i * 7) % 40, 1.0 + i as f64))
                .collect(),
        )
        .unwrap();
        let nnz = coo.nnz();
        for fmt in [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Zvc,
        ] {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            assert_eq!(
                matrix_storage_bits_exact(&data, FP32),
                matrix_storage_bits(&fmt, 30, 40, nnz, FP32),
                "mismatch for {fmt}"
            );
        }
    }

    #[test]
    fn exact_bsr_uses_real_block_count() {
        // A perfectly blocked matrix has far fewer blocks than the uniform
        // model expects.
        let mut triplets = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                triplets.push((r, c, 1.0));
            }
        }
        let coo = CooMatrix::from_triplets(64, 64, triplets).unwrap();
        let data = MatrixData::encode(&coo, &MatrixFormat::Bsr { br: 4, bc: 4 }).unwrap();
        let exact = matrix_storage_bits_exact(&data, FP32);
        let analytic = matrix_storage_bits(&MatrixFormat::Bsr { br: 4, bc: 4 }, 64, 64, 16, FP32);
        assert!(
            exact <= analytic,
            "clustered exact {exact} should be <= analytic {analytic}"
        );
    }

    #[test]
    fn tensor_sizes_ordering_at_extreme_sparsity() {
        let dims = (1000, 1000, 100);
        let nnz = 500;
        let coo = tensor_storage_bits(&TensorFormat::Coo, dims, nnz, FP32);
        let dense = tensor_storage_bits(&TensorFormat::Dense, dims, nnz, FP32);
        let zvc = tensor_storage_bits(&TensorFormat::Zvc, dims, nnz, FP32);
        assert!(coo < zvc);
        assert!(zvc < dense);
    }

    #[test]
    fn csf_beats_coo_when_fibers_shared() {
        // Dense-ish fibers: many nonzeros share (x, y) prefixes.
        let dims = (100, 100, 1000);
        let nnz = 100 * 100 * 10; // every fiber holds ~10 nonzeros
        let csf = tensor_storage_bits(&TensorFormat::Csf, dims, nnz, FP32);
        let coo = tensor_storage_bits(&TensorFormat::Coo, dims, nnz, FP32);
        assert!(
            csf < coo,
            "CSF {csf} should beat COO {coo} with shared fibers"
        );
    }

    #[test]
    fn bytes_rounds_up() {
        let bits = matrix_storage_bits(&MatrixFormat::Coo, 3, 3, 1, DataType::Int8);
        assert_eq!(
            matrix_storage_bytes(&MatrixFormat::Coo, 3, 3, 1, DataType::Int8),
            bits.div_ceil(8)
        );
    }

    #[test]
    fn breakdown_attributes_metadata_to_the_right_rank() {
        // CSR: all pointer bits on the inner rank, no outer metadata.
        let s = MatrixStructure::analytic(100, 200, 1_000);
        let bd = descriptor_matrix_bits(&FormatDescriptor::csr(), &s, FP32).unwrap();
        assert_eq!(bd.ranks[0].metadata_bits(), 0);
        assert_eq!(bd.ranks[1].ptr_bits, 101 * u64::from(ceil_log2(1_001)));
        assert_eq!(bd.ranks[1].coord_bits, 1_000 * u64::from(ceil_log2(200)));
        assert_eq!(bd.values_bits, 1_000 * 32);
        assert_eq!(
            bd.total(),
            matrix_storage_bits(&MatrixFormat::Csr, 100, 200, 1_000, FP32)
        );
        // ZVC: a single bitmask rank.
        let bd = descriptor_matrix_bits(&FormatDescriptor::zvc(), &s, FP32).unwrap();
        assert_eq!(bd.ranks[0].mask_bits, 100 * 200);
        assert_eq!(bd.metadata_bits(), 100 * 200);
    }

    #[test]
    fn unsupported_compositions_error_instead_of_guessing() {
        let bad = FormatDescriptor::new(
            RankOrder::RowMajor,
            vec![Level::Singleton, Level::CompressedOffsets],
            ValuesLayout::Contiguous,
        );
        let s = MatrixStructure::analytic(10, 10, 5);
        assert!(descriptor_matrix_bits(&bad, &s, FP32).is_err());
    }
}
