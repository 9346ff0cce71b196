//! Storage-size (compactness) model — §III-A of the paper.
//!
//! Each format is charged the metadata its layout keeps (coordinate
//! arrays, offset/pointer arrays, presence bitmasks, run fields) plus one
//! [`DataType`]-wide slot per stored value, padding and explicit zeros
//! included. There is one closed-form formula per [`MatrixFormat`] /
//! [`TensorFormat`] variant. `tests/size_model_properties.rs` pins them
//! **bit-identical** to an independent copy of the paper's per-format
//! formulas, so nothing downstream (SAGE's cost model, the Fig. 4
//! sweeps, the Table III selections) moves.
//!
//! Two structure sources feed the matrix formulas:
//!
//! 1. **Analytic** (a [`MatrixStructure`] with no counts): closed-form expected
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
use crate::dtype::DataType;
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
fn dia_expected_diagonals(rows: usize, cols: usize, nnz: usize) -> u64 {
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
fn ell_expected_width(rows: usize, cols: usize, nnz: usize) -> u64 {
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

/// The per-operand structural quantities the matrix formulas consume.
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
    /// Occupied blocks (BSR).
    pub blocks: Option<u64>,
    /// Occupied diagonals (DIA).
    pub diagonals: Option<u64>,
    /// Padded row width (ELL).
    pub ell_width: Option<u64>,
    /// Stored run-length entries, extension entries included.
    pub rlc_entries: Option<u64>,
}

impl MatrixStructure {
    /// A structure with only `(dims, nnz)` known — every count uses its
    /// analytic uniform-random estimate.
    fn analytic(rows: usize, cols: usize, nnz: usize) -> Self {
        MatrixStructure {
            rows,
            cols,
            nnz,
            ..Default::default()
        }
    }

    /// Measure the structure of an actual encoded payload, so the
    /// formulas charge real block/diagonal/width/run counts.
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

/// Metadata bits and stored value slots of a matrix in `format` with
/// structure `s`: the one per-format formula behind every matrix entry
/// point and [`MatrixData::stored_elements`]. Value slots count padding
/// and explicit zeros (every Dense slot, BSR blocks, DIA strips, ELL
/// rows, RLC extension entries).
pub(crate) fn matrix_charge(format: &MatrixFormat, s: &MatrixStructure) -> (u64, u64) {
    let (m, k, n) = (s.rows as u64, s.cols as u64, s.nnz as u64);
    let total = m * k;
    let lg = |x: u64| u64::from(ceil_log2(x));
    match *format {
        MatrixFormat::Dense => (0, total),
        MatrixFormat::Coo => (n * lg(m) + n * lg(k), n),
        // Offsets over the outer rank, one coordinate per nonzero.
        MatrixFormat::Csr => ((m + 1) * lg(n + 1) + n * lg(k), n),
        MatrixFormat::Csc => ((k + 1) * lg(n + 1) + n * lg(m), n),
        MatrixFormat::Bsr { br, bc } => {
            let blocks = s
                .blocks
                .unwrap_or_else(|| bsr_expected_blocks(s.rows, s.cols, s.nnz, br, bc));
            let nbr = s.rows.div_ceil(br) as u64;
            let nbc = s.cols.div_ceil(bc) as u64;
            (
                blocks * lg(nbc) + (nbr + 1) * lg(blocks + 1),
                blocks * (br * bc) as u64,
            )
        }
        // One signed-offset coordinate per stored diagonal; each diagonal
        // is a full `rows`-long strip.
        MatrixFormat::Dia => {
            let diagonals = s
                .diagonals
                .unwrap_or_else(|| dia_expected_diagonals(s.rows, s.cols, s.nnz));
            (diagonals * lg(m + k), diagonals * m)
        }
        // Every row padded to one width, a column id per slot.
        MatrixFormat::Ell => {
            let width = s
                .ell_width
                .unwrap_or_else(|| ell_expected_width(s.rows, s.cols, s.nnz));
            (m * width * lg(k), m * width)
        }
        MatrixFormat::Rlc { run_bits } => {
            let entries = s
                .rlc_entries
                .unwrap_or_else(|| rlc_expected_entries(total, n, run_bits));
            (entries * u64::from(run_bits), entries)
        }
        MatrixFormat::Zvc => (total, n),
    }
}

/// Expected occupied x-slices of a uniform-random tensor.
fn csf_expected_slices(dims: (usize, usize, usize), nnz: usize) -> u64 {
    let (x, y, z) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let total = x * y * z;
    if total == 0 {
        return 0;
    }
    let d = nnz as f64 / total as f64;
    (x as f64 * (1.0 - (1.0 - d).powf((y * z) as f64))).ceil() as u64
}

/// Expected occupied (x, y) fibers of a uniform-random tensor.
fn csf_expected_fibers(dims: (usize, usize, usize), nnz: usize) -> u64 {
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
fn hicoo_expected_blocks(dims: (usize, usize, usize), nnz: usize, block: usize) -> u64 {
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

/// Analytic storage size in bits of a matrix with the given shape/nnz in
/// the given format, assuming uniformly random nonzero positions.
///
/// `rows x cols` with `nnz` stored nonzeros and element type `dtype`.
pub fn matrix_storage_bits(
    format: &MatrixFormat,
    rows: usize,
    cols: usize,
    nnz: usize,
    dtype: DataType,
) -> u64 {
    let (metadata, slots) = matrix_charge(format, &MatrixStructure::analytic(rows, cols, nnz));
    metadata + slots * dtype.bits()
}

/// Exact storage size in bits of an encoded matrix payload: the same
/// formula fed with the payload's measured structure
/// ([`MatrixStructure::exact`]).
pub fn matrix_storage_bits_exact(data: &MatrixData, dtype: DataType) -> u64 {
    let (metadata, slots) = matrix_charge(&data.format(), &MatrixStructure::exact(data));
    metadata + slots * dtype.bits()
}

/// Analytic storage size in bits of a 3-D tensor in the given format,
/// assuming uniformly random nonzero positions.
pub fn tensor_storage_bits(
    format: &TensorFormat,
    dims: (usize, usize, usize),
    nnz: usize,
    dtype: DataType,
) -> u64 {
    let (x, y, z) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let n = nnz as u64;
    let total = x * y * z;
    let lg = |v: u64| u64::from(ceil_log2(v));
    let (metadata, slots) = match *format {
        TensorFormat::Dense => (0, total),
        TensorFormat::Coo => (n * lg(x) + n * lg(y) + n * lg(z), n),
        TensorFormat::Csf => {
            let slices = csf_expected_slices(dims, nnz);
            let fibers = csf_expected_fibers(dims, nnz);
            // The x rank stores only its coordinate list (the stored-slice
            // count is a header quantity); the y and z ranks each also
            // keep the offsets delimiting their parent's fibers.
            (
                slices * lg(x)
                    + (slices + 1) * lg(fibers + 1)
                    + fibers * lg(y)
                    + (fibers + 1) * lg(n + 1)
                    + n * lg(z),
                n,
            )
        }
        TensorFormat::HiCoo { block } => {
            let bl = block as u64;
            let blocks = hicoo_expected_blocks(dims, nnz, block);
            let bbits = lg(x.div_ceil(bl)) + lg(y.div_ceil(bl)) + lg(z.div_ceil(bl));
            (
                blocks * bbits + (blocks + 1) * lg(n + 1) + n * 3 * lg(bl),
                n,
            )
        }
        TensorFormat::Rlc { run_bits } => {
            let entries = rlc_expected_entries(total, n, run_bits);
            (entries * u64::from(run_bits), entries)
        }
        TensorFormat::Zvc => (total, n),
    };
    metadata + slots * dtype.bits()
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
}
