//! Property suite for the storage-size model and the pinned plan-cache
//! row:
//!
//! (a) the per-format size model is **bit-identical** to the paper's
//!     closed-form per-format formulas (an independent copy below is the
//!     pinned reference), analytic and exact,
//! (b) stored-elements vs logical-nnz accounting is centralized and
//!     consistent for the explicit-zero formats,
//! (c) a repeated pinned run hits the one plan-cache row its choice
//!     keys, and any other pin (operands swapped included) misses.

use proptest::prelude::*;
use sparseflex::formats::size_model::{
    matrix_storage_bits, matrix_storage_bits_exact, rlc_expected_entries, tensor_storage_bits,
};
use sparseflex::formats::{
    ceil_log2, CooMatrix, DataType, MatrixData, MatrixFormat, SparseMatrix, TensorFormat,
};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::sage::{FormatChoice, SageWorkload};
use sparseflex::system::FlexSystem;
use sparseflex::workloads::synth::random_matrix;

// ---------------------------------------------------------------------------
// The paper's closed-form per-format formulas, written out independently
// of the size model. These are the bit-for-bit pin: if the model ever
// drifts from them, this file fails.
// ---------------------------------------------------------------------------

fn legacy_matrix_storage_bits(
    format: &MatrixFormat,
    rows: usize,
    cols: usize,
    nnz: usize,
    dtype: DataType,
) -> u64 {
    use sparseflex::formats::size_model::bsr_expected_blocks;
    let m = rows as u64;
    let k = cols as u64;
    let n = nnz as u64;
    let b = dtype.bits();
    match *format {
        MatrixFormat::Dense => m * k * b,
        MatrixFormat::Coo => n * (b + u64::from(ceil_log2(m)) + u64::from(ceil_log2(k))),
        MatrixFormat::Csr => {
            n * (b + u64::from(ceil_log2(k))) + (m + 1) * u64::from(ceil_log2(n + 1))
        }
        MatrixFormat::Csc => {
            n * (b + u64::from(ceil_log2(m))) + (k + 1) * u64::from(ceil_log2(n + 1))
        }
        MatrixFormat::Rlc { run_bits } => {
            rlc_expected_entries(m * k, n, run_bits) * (b + u64::from(run_bits))
        }
        MatrixFormat::Zvc => n * b + m * k,
        MatrixFormat::Bsr { br, bc } => {
            let blocks = bsr_expected_blocks(rows, cols, nnz, br, bc);
            let nbr = rows.div_ceil(br) as u64;
            let nbc = cols.div_ceil(bc) as u64;
            blocks * ((br * bc) as u64 * b + u64::from(ceil_log2(nbc)))
                + (nbr + 1) * u64::from(ceil_log2(blocks + 1))
        }
        MatrixFormat::Dia => {
            let total = m * k;
            if total == 0 {
                return 0;
            }
            let d = n as f64 / total as f64;
            let ndiags_max = m + k - 1;
            let avg_len = total as f64 / ndiags_max as f64;
            let p = 1.0 - (1.0 - d).powf(avg_len);
            let ndiags = (ndiags_max as f64 * p).ceil() as u64;
            ndiags * (m * b + u64::from(ceil_log2(m + k)))
        }
        MatrixFormat::Ell => {
            let total = m * k;
            if total == 0 {
                return 0;
            }
            let d = n as f64 / total as f64;
            let mean = k as f64 * d;
            let sd = (k as f64 * d * (1.0 - d)).sqrt();
            let width = (mean + 2.0 * sd).ceil().max(if n > 0 { 1.0 } else { 0.0 }) as u64;
            let width = width.min(k);
            m * width * (b + u64::from(ceil_log2(k)))
        }
    }
}

fn legacy_matrix_storage_bits_exact(data: &MatrixData, dtype: DataType) -> u64 {
    let rows = data.rows() as u64;
    let cols = data.cols() as u64;
    let b = dtype.bits();
    match data {
        MatrixData::Dense(_) => rows * cols * b,
        MatrixData::Coo(m) => {
            m.nnz() as u64 * (b + u64::from(ceil_log2(rows)) + u64::from(ceil_log2(cols)))
        }
        MatrixData::Csr(m) => {
            let n = m.nnz() as u64;
            n * (b + u64::from(ceil_log2(cols))) + (rows + 1) * u64::from(ceil_log2(n + 1))
        }
        MatrixData::Csc(m) => {
            let n = m.nnz() as u64;
            n * (b + u64::from(ceil_log2(rows))) + (cols + 1) * u64::from(ceil_log2(n + 1))
        }
        MatrixData::Bsr(m) => {
            let (br, bc) = m.block_shape();
            let blocks = m.num_blocks() as u64;
            let nbr = m.rows().div_ceil(br) as u64;
            let nbc = m.cols().div_ceil(bc) as u64;
            blocks * ((br * bc) as u64 * b + u64::from(ceil_log2(nbc)))
                + (nbr + 1) * u64::from(ceil_log2(blocks + 1))
        }
        MatrixData::Dia(m) => {
            m.num_diagonals() as u64 * (rows * b + u64::from(ceil_log2(rows + cols)))
        }
        MatrixData::Ell(m) => rows * m.width() as u64 * (b + u64::from(ceil_log2(cols))),
        MatrixData::Rlc(m) => {
            let max_run = (1u64 << m.run_bits()) - 1;
            let tail_entries = m.trailing_zeros() / (max_run + 1);
            (m.stored_entries() as u64 + tail_entries) * (b + u64::from(m.run_bits()))
        }
        MatrixData::Zvc(m) => m.nnz() as u64 * b + rows * cols,
    }
}

fn legacy_tensor_storage_bits(
    format: &TensorFormat,
    dims: (usize, usize, usize),
    nnz: usize,
    dtype: DataType,
) -> u64 {
    let (x, y, z) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    let n = nnz as u64;
    let b = dtype.bits();
    let total = x * y * z;
    match *format {
        TensorFormat::Dense => total * b,
        TensorFormat::Coo => {
            n * (b + u64::from(ceil_log2(x)) + u64::from(ceil_log2(y)) + u64::from(ceil_log2(z)))
        }
        TensorFormat::Csf => {
            if total == 0 {
                return 0;
            }
            let d = n as f64 / total as f64;
            let slices = (x as f64 * (1.0 - (1.0 - d).powf((y * z) as f64))).ceil() as u64;
            let fibers = ((x * y) as f64 * (1.0 - (1.0 - d).powf(z as f64))).ceil() as u64;
            n * (b + u64::from(ceil_log2(z)))
                + fibers * u64::from(ceil_log2(y))
                + (fibers + 1) * u64::from(ceil_log2(n + 1))
                + slices * u64::from(ceil_log2(x))
                + (slices + 1) * u64::from(ceil_log2(fibers + 1))
        }
        TensorFormat::HiCoo { block } => {
            if total == 0 {
                return 0;
            }
            let bl = block as u64;
            let d = n as f64 / total as f64;
            let nb = (x.div_ceil(bl) * y.div_ceil(bl) * z.div_ceil(bl)) as f64;
            let p = 1.0 - (1.0 - d).powf((bl * bl * bl) as f64);
            let blocks = (nb * p).ceil() as u64;
            let bbits = u64::from(ceil_log2(x.div_ceil(bl)))
                + u64::from(ceil_log2(y.div_ceil(bl)))
                + u64::from(ceil_log2(z.div_ceil(bl)));
            let ebits = 3 * u64::from(ceil_log2(bl));
            blocks * bbits + (blocks + 1) * u64::from(ceil_log2(n + 1)) + n * (b + ebits)
        }
        TensorFormat::Rlc { run_bits } => {
            rlc_expected_entries(total, n, run_bits) * (b + u64::from(run_bits))
        }
        TensorFormat::Zvc => n * b + total,
    }
}

fn matrix_formats(br: usize, bc: usize, run_bits: u32) -> Vec<MatrixFormat> {
    vec![
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br, bc },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits },
        MatrixFormat::Zvc,
    ]
}

fn tensor_formats(block: usize, run_bits: u32) -> Vec<TensorFormat> {
    vec![
        TensorFormat::Dense,
        TensorFormat::Coo,
        TensorFormat::Csf,
        TensorFormat::HiCoo { block },
        TensorFormat::Rlc { run_bits },
        TensorFormat::Zvc,
    ]
}

fn arb_matrix() -> impl Strategy<Value = CooMatrix> {
    (1usize..24, 1usize..24).prop_flat_map(|(r, c)| {
        proptest::collection::vec(
            ((0..r), (0..c), -100i32..100).prop_map(|(i, j, v)| (i, j, v as f64)),
            0..40,
        )
        .prop_map(move |trips| {
            CooMatrix::from_triplets(r, c, trips).expect("in-bounds by construction")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // (a) Analytic sizes: size model == legacy formulas, bit for bit.
    #[test]
    fn sizes_match_legacy_formulas_bit_for_bit(
        rows in 1usize..3000, cols in 1usize..3000, dens_ppm in 0u64..1_000_000,
        br in 1usize..7, bc in 1usize..7, run_bits in 1u32..12,
        dtype_ix in 0usize..3
    ) {
        let dtype = [DataType::Int8, DataType::Int16, DataType::Fp32][dtype_ix];
        let nnz = ((rows * cols) as u64 * dens_ppm / 1_000_000) as usize;
        for fmt in matrix_formats(br, bc, run_bits) {
            prop_assert_eq!(
                matrix_storage_bits(&fmt, rows, cols, nnz, dtype),
                legacy_matrix_storage_bits(&fmt, rows, cols, nnz, dtype),
                "analytic drift for {}", fmt
            );
        }
    }

    #[test]
    fn tensor_sizes_match_legacy_formulas_bit_for_bit(
        x in 1usize..200, y in 1usize..200, z in 1usize..60, dens_ppm in 0u64..1_000_000,
        block in 1usize..9, run_bits in 1u32..12,
        dtype_ix in 0usize..2
    ) {
        let dtype = [DataType::Int8, DataType::Fp32][dtype_ix];
        let nnz = ((x * y * z) as u64 * dens_ppm / 1_000_000) as usize;
        for fmt in tensor_formats(block, run_bits) {
            prop_assert_eq!(
                tensor_storage_bits(&fmt, (x, y, z), nnz, dtype),
                legacy_tensor_storage_bits(&fmt, (x, y, z), nnz, dtype),
                "tensor analytic drift for {}", fmt
            );
        }
    }

    // (a) Exact sizes on real payloads.
    #[test]
    fn exact_sizes_match_legacy_on_real_payloads(coo in arb_matrix()) {
        for fmt in matrix_formats(2, 3, 3) {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            prop_assert_eq!(
                matrix_storage_bits_exact(&data, DataType::Fp32),
                legacy_matrix_storage_bits_exact(&data, DataType::Fp32),
                "exact drift for {}", fmt
            );
        }
    }

    // (b) Central explicit-zero accounting.
    #[test]
    fn stored_elements_accounting_is_consistent(coo in arb_matrix()) {
        for fmt in matrix_formats(2, 2, 4) {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let stored = data.stored_elements();
            let logical = data.logical_nnz();
            prop_assert_eq!(logical, coo.nnz() as u64, "logical nnz drift for {}", fmt);
            prop_assert!(
                stored >= logical,
                "{} stores {} slots for {} nonzeros", fmt, stored, logical
            );
            // The compact formats store exactly their nonzeros.
            if matches!(
                fmt,
                MatrixFormat::Coo | MatrixFormat::Csr | MatrixFormat::Csc | MatrixFormat::Zvc
            ) {
                prop_assert_eq!(stored, logical, "compact format {} padded", fmt);
            }
        }
    }
}

// (c) A repeated pinned run hits the cache row the first one filled.
#[test]
fn repeated_pinned_run_hits_one_cache_row() {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 16;
    sys.sage.accel.pe_buffer_elems = 64;
    let a = random_matrix(24, 32, 80, 1);
    let b = random_matrix(32, 20, 60, 2);
    let w = SageWorkload::spgemm(24, 32, 20, 80, 60, DataType::Fp32);
    let choice = FormatChoice {
        mcf_a: MatrixFormat::Zvc,
        mcf_b: MatrixFormat::Csr,
        acf_a: MatrixFormat::Csr,
        acf_b: MatrixFormat::Dense,
    };

    // First pinned run: a cache miss.
    let run1 = sys.run(&a, &b, &w, Some(&choice)).unwrap();
    assert!(!run1.plan.from_cache, "first pinned run must evaluate");

    // Same choice, same workload: served from the same cache row.
    let run2 = sys.run(&a, &b, &w, Some(&choice)).unwrap();
    assert!(
        run2.plan.from_cache,
        "repeated pin must hit the first run's cache row"
    );
    assert_eq!(run1.plan.choice(), run2.plan.choice());
    let counters = sys.planner.cache.counters();
    assert_eq!((counters.hits, counters.misses), (1, 1));

    // Both runs computed the same (correct) output.
    let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
    assert!(run1.output.approx_eq(&expect, 1e-9));
    assert!(run2.output.approx_eq(&expect, 1e-9));

    // A different choice is a different row, and so is the same pair
    // of MCFs on swapped operands (MCF_A=ZVC differs from MCF_B=ZVC).
    let other = FormatChoice {
        mcf_a: MatrixFormat::Coo,
        ..choice
    };
    let swapped = FormatChoice {
        mcf_a: choice.mcf_b,
        mcf_b: choice.mcf_a,
        ..choice
    };
    for pin in [other, swapped] {
        let run = sys.run(&a, &b, &w, Some(&pin)).unwrap();
        assert!(!run.plan.from_cache, "{pin} must not share the first row");
        assert_eq!(*run.plan.choice(), pin);
    }
}
