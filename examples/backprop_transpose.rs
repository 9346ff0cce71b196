//! The §III-C use case: "during backpropagation in DL training,
//! converting CSR to CSC (or vice versa) is necessary since the weight
//! matrix gets transposed before running GEMM."
//!
//! This example runs a forward SpMM with CSR weights, then obtains the
//! transposed weights for the backward pass two ways — software
//! conversion vs MINT's hardware pipeline — and shows they agree while
//! MINT's cycle cost hides under the operand fetch time.
//!
//! ```sh
//! cargo run --release --example backprop_transpose
//! ```

use sparseflex::accel::DramModel;
use sparseflex::formats::size_model::matrix_storage_bits;
use sparseflex::formats::{convert, CsrMatrix, DataType, MatrixData, MatrixFormat, SparseMatrix};
use sparseflex::kernels::spmm_sparse_b;
use sparseflex::mint::ConversionEngine;
use sparseflex::workloads::synth::{random_dense_matrix, random_matrix};

fn main() {
    // A pruned weight matrix W (70% sparse) and an activation batch X.
    let (k, n) = (512, 256);
    let w_coo = random_matrix(k, n, (k * n) * 3 / 10, 1);
    let w_csr = CsrMatrix::from_coo(&w_coo);
    let x = random_dense_matrix(64, k, 2);
    println!(
        "weights: {k}x{n}, {} nnz ({:.0}% sparse)",
        w_csr.nnz(),
        100.0 * (1.0 - w_csr.density())
    );

    // Forward pass: Y = X * W. (Stationary W in CSC = Fig. 6b's layout;
    // the format-generic entry point dispatches to that fast path.)
    let w_csc_sw = convert::csr_to_csc(&w_csr);
    let y = spmm_sparse_b(&x, &MatrixData::Csc(w_csc_sw.clone())).expect("K dims agree");
    println!("forward:  Y = X*W -> {}x{}", y.rows(), y.cols());

    // Backward pass needs W^T: convert CSR -> CSC through MINT. A CSC
    // encoding of W *is* the CSR encoding of W^T (shared arrays), so the
    // conversion is exactly the transpose the backward GEMM wants.
    let engine = ConversionEngine::default();
    let (w_csc_hw, report) = engine.csr_to_csc(&w_csr);
    assert_eq!(
        w_csc_hw, w_csc_sw,
        "hardware and software conversions must agree"
    );
    // (The seed version multiplied W^T by a gradient with mismatched inner
    // dims — a latent panic the typed KernelError now surfaces; the
    // backward GEMM is dX = dY * W^T with dY shaped like Y.)
    let wt_csr = MatrixData::Csr(w_csc_hw.transpose_as_csr());
    let dy = random_dense_matrix(64, n, 3); // upstream gradient dL/dY
    let dx = spmm_sparse_b(&dy, &wt_csr).expect("dY cols match W^T rows");
    println!("backward: dX = dY*W^T -> {}x{}", dx.rows(), dx.cols());

    // MINT's conversion hides behind the fetch: compare cycle costs.
    let dram = DramModel::paper();
    let fetch = dram.transfer_cycles(matrix_storage_bits(
        &MatrixFormat::Csr,
        k,
        n,
        w_csr.nnz(),
        DataType::Fp32,
    ));
    println!(
        "\nMINT CSR->CSC: {} pipelined cycles vs {} cycles just to fetch W from DRAM",
        report.pipelined_cycles(),
        fetch
    );
    println!(
        "=> conversion {} the fetch window ({} busy blocks, {:.2e} J)",
        if report.pipelined_cycles() <= fetch as u64 {
            "fits inside"
        } else {
            "exceeds"
        },
        report.busy_blocks().count(),
        report.total_energy()
    );
}
