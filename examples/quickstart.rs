//! Quickstart: build a sparse workload, let SAGE pick the formats, run
//! the full SAGE → MINT → accelerator pipeline, and verify the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sparseflex::formats::{DataType, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::sage::SageWorkload;
use sparseflex::system::FlexSystem;
use sparseflex::workloads::synth::random_matrix;

fn main() {
    // A small sparse-times-sparse problem: 96x128 (2% dense) by 128x64
    // (3% dense).
    let a = random_matrix(96, 128, 250, 1);
    let b = random_matrix(128, 64, 250, 2);
    println!(
        "A: {}x{} nnz={} ({:.2}%)   B: {}x{} nnz={} ({:.2}%)",
        a.rows(),
        a.cols(),
        a.nnz(),
        100.0 * a.density(),
        b.rows(),
        b.cols(),
        b.nnz(),
        100.0 * b.density()
    );

    // Describe the workload to SAGE and shrink the accelerator to a
    // walkthrough-friendly size so the cycle-accurate simulator is fast.
    let w = SageWorkload::spgemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.nnz() as u64,
        b.nnz() as u64,
        DataType::Fp32,
    );
    let mut system = FlexSystem::default();
    system.sage.accel.num_pes = 32;
    system.sage.accel.pe_buffer_elems = 64;

    // 1. SAGE searches the MCF x ACF space.
    let plan = system.sage.recommend(&w);
    println!(
        "\nSAGE searched {} candidates and chose: {}",
        plan.candidates, plan.best.choice
    );
    println!(
        "  predicted: {:.0} DRAM + {:.0} conversion + {:.0} compute cycles, {:.3e} J, utilization {:.1}%",
        plan.best.dram_cycles,
        plan.best.conv_cycles,
        plan.best.compute_cycles,
        plan.best.total_energy(),
        100.0 * plan.best.utilization,
    );

    // 2-4. Encode in MCF, cut B into scratchpad-sized column tiles,
    // convert each through MINT and execute it on the simulator; MINT
    // converts tile t+1 while the array computes tile t.
    let run = system.run(&a, &b, &w, None).expect("supported ACF pair");
    let macs: u64 = run.tiles.iter().map(|t| t.counts.macs).sum();
    println!(
        "\nfunctional run: {} tiles, {} compute cycles, {} MACs",
        run.tiles.len(),
        run.compute_cycles(),
        macs,
    );
    println!(
        "MINT conversion: {} cycles (A once, then every B tile)",
        run.conversion_cycles()
    );
    println!(
        "pipelined: {} cycles with conversion overlapped, {} serial",
        run.overlapped_cycles(),
        run.serial_cycles()
    );

    // Verify against the software kernel.
    let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
    assert!(
        run.output.approx_eq(&expect, 1e-9),
        "accelerator output mismatch"
    );
    println!("\noutput verified against the software kernel ✓");

    // Compare against the fixed-format baseline classes.
    println!("\nnormalized EDP vs this work:");
    for (class, norm) in system.normalized_edp(&w) {
        match norm {
            Some(x) => println!("  {class:<16} {x:>8.2}x"),
            None => println!("  {class:<16} (cannot run)"),
        }
    }
}
