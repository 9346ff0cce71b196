//! MINT in isolation: drive the four Fig. 8 reference conversions through
//! the building-block engine and print the per-block busy cycles.
//!
//! ```sh
//! cargo run --release --example format_conversion
//! ```

use sparseflex::formats::{CsrMatrix, RlcMatrix, SparseMatrix, SparseTensor3};
use sparseflex::mint::{ConversionEngine, MintVariant};
use sparseflex::workloads::synth::{random_matrix, random_tensor3};

fn main() {
    let engine = ConversionEngine::default();
    let coo = random_matrix(512, 512, 10_000, 3);
    let csr = CsrMatrix::from_coo(&coo);

    println!("operand: 512x512, nnz = {}", csr.nnz());

    // Fig. 8c: CSR -> CSC.
    let (_, rep) = engine.csr_to_csc(&csr);
    print_report("CSR -> CSC (Fig. 8c)", &rep);

    // Fig. 8d: RLC -> COO.
    let rlc = RlcMatrix::from_coo(&coo, 4);
    let (_, rep) = engine.rlc_to_coo(&rlc);
    print_report("RLC -> COO (Fig. 8d)", &rep);

    // Fig. 8e: CSR -> BSR (4x4 blocks).
    let (bsr, rep) = engine.csr_to_bsr(&csr, 4, 4).unwrap();
    print_report("CSR -> BSR 4x4 (Fig. 8e)", &rep);
    println!(
        "    ({} blocks, {:.1}% padding)",
        bsr.num_blocks(),
        100.0 * bsr.padding_ratio()
    );

    // Fig. 8f: Dense tensor -> CSF.
    let tensor = random_tensor3(32, 32, 32, 2_000, 5);
    let dense = tensor.clone().into_dense();
    let (csf, rep) = engine.dense_to_csf(&dense);
    print_report("Dense -> CSF (Fig. 8f)", &rep);
    println!(
        "    ({} slices, {} fibers, {} nnz)",
        csf.num_slices(),
        csf.num_fibers(),
        csf.nnz()
    );

    // Area story (SV-A / SVII-B).
    println!("\nMINT variants (28nm):");
    for v in MintVariant::all() {
        println!(
            "  {:<8} {:.2} mm2  {:.0} mW",
            v.name(),
            v.area_mm2(),
            1000.0 * v.power_w()
        );
    }
}

fn print_report(name: &str, rep: &sparseflex::mint::ConversionReport) {
    println!(
        "\n{name}: {} cycles pipelined ({} serialized), {:.2e} J",
        rep.pipelined_cycles(),
        rep.serialized_cycles(),
        rep.total_energy()
    );
    for (kind, cycles) in rep.busy_blocks() {
        println!("    {:<16} {:>8} busy cycles", kind.name(), cycles);
    }
}
