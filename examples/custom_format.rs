//! Define a compression format that is **not** in the paper's list —
//! bitmask rows × run-length columns — from per-rank level descriptors,
//! size it with the generic level model, and run it through SpMM via the
//! fiber-stream path and through the full `FlexSystem` accelerator
//! pipeline, verified against the dense reference.
//!
//! ```sh
//! cargo run --release --example custom_format
//! ```

use sparseflex::formats::descriptor::{Level, RankOrder, ValuesLayout};
use sparseflex::formats::size_model::{descriptor_matrix_bits, MatrixStructure};
use sparseflex::formats::{CustomMatrix, DataType, FormatDescriptor, MatrixFormat, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::spmm;
use sparseflex::mint::required_blocks;
use sparseflex::system::FlexSystem;
use sparseflex::workloads::synth::random_matrix;

fn main() {
    // A block-of-empty-rows pattern: pruned attention heads leave whole
    // rows empty — exactly what a per-row presence bitmask exploits and
    // a whole-matrix ZVC bitmask cannot.
    let (rows, cols) = (256, 512);
    let a = random_matrix(rows / 4, cols, 2_000, 7); // nonzeros in the top quarter
    let a = {
        let trips: Vec<(usize, usize, f64)> = a.iter().collect();
        sparseflex::formats::CooMatrix::from_triplets(rows, cols, trips).unwrap()
    };
    let b = random_matrix(cols, 64, cols * 64, 8); // dense factor

    // ---- 1. Compose the format from per-rank levels -------------------
    let custom = FormatDescriptor::new(
        RankOrder::RowMajor,
        vec![Level::Bitmask, Level::RunLength { run_bits: 4 }],
        ValuesLayout::Contiguous,
    );
    println!("descriptor     : {custom}  (preset name: none)");
    assert_eq!(custom.to_matrix_format(), None);

    // ---- 2. Size it with the generic level model ----------------------
    let s = MatrixStructure::analytic(rows, cols, a.nnz());
    let bd = descriptor_matrix_bits(&custom, &s, DataType::Fp32).unwrap();
    println!(
        "level charges  : outer mask {} b, inner ptr {} b + runs {} b, values {} b",
        bd.ranks[0].mask_bits, bd.ranks[1].ptr_bits, bd.ranks[1].run_bits, bd.values_bits
    );
    for fmt in [MatrixFormat::Zvc, MatrixFormat::Csr, MatrixFormat::Dense] {
        let preset = sparseflex::formats::size_model::matrix_storage_bits(
            &fmt,
            rows,
            cols,
            a.nnz(),
            DataType::Fp32,
        );
        println!(
            "  vs {fmt:<5}     : {preset} bits (custom: {} bits)",
            bd.total()
        );
    }

    // ---- 3. What would MINT need to decode it to CSR? -----------------
    println!(
        "MINT blocks    : {:?}",
        required_blocks(&custom, &FormatDescriptor::csr())
    );

    // ---- 4. Encode and run SpMM via the fiber-stream path -------------
    let enc = CustomMatrix::encode(&a, &custom).unwrap();
    println!(
        "encoded        : {} nnz in {} bits (exact)",
        enc.nnz(),
        enc.storage_bits(DataType::Fp32)
    );
    let b_dense = b.clone().into_dense();
    let via_stream = spmm(&enc, &b_dense).unwrap();
    let reference = gemm_naive(&a.clone().into_dense(), &b_dense);
    assert!(via_stream.approx_eq(&reference, 1e-9));
    println!("fiber-stream SpMM matches the dense reference");

    // ---- 5. End-to-end through the accelerator ------------------------
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 64;
    sys.sage.accel.pe_buffer_elems = 256;
    let run = sys
        .run_custom_mcf(&a, &b, &custom, &FormatDescriptor::dense())
        .unwrap();
    assert!(run.output().approx_eq(&reference, 1e-9));
    println!(
        "accelerator run: {} compute cycles, MCF_A {} bits, output verified",
        run.sim.cycles.total(),
        run.mcf_a_bits
    );
}
