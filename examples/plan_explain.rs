//! Plan explain: show the planner's full pre-execution decision record
//! for two opposite sparsity regimes — a dense-regime workload (SAGE
//! picks dense-style compute) and a hyper-sparse one (compressed
//! streaming wins) — then execute each plan and compare the predicted
//! cycles against what the cycle-accurate simulator measured.
//!
//! ```sh
//! cargo run --release --example plan_explain
//! ```

use sparseflex::formats::{DataType, SparseMatrix};
use sparseflex::sage::SageWorkload;
use sparseflex::system::FlexSystem;
use sparseflex::workloads::synth::random_matrix;

fn explain_and_run(sys: &FlexSystem, label: &str, m: usize, k: usize, n: usize, nnz: usize) {
    let a = random_matrix(m, k, nnz, 1);
    let b = random_matrix(k, n, nnz / 2 + 1, 2);
    let w = SageWorkload::spgemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.nnz() as u64,
        b.nnz() as u64,
        DataType::Fp32,
    );
    println!(
        "== {label}: {m}x{k} by {k}x{n}, A {:.2}% dense ==\n",
        100.0 * a.density()
    );

    // Plan without executing: the whole decision is inspectable first.
    let plan = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("workload plans");
    println!("{}", plan.explain());

    // Execute the same plan and validate the prediction.
    let run = sys
        .planner
        .execute_plan(&sys.sage, &plan, &a, &b)
        .expect("plan executes");
    println!(
        "executed    : {} tiles, measured {} overlapped / {} serial cycles \
         (predicted compute {} vs measured {})",
        run.tiles.len(),
        run.overlapped_cycles(),
        run.serial_cycles(),
        plan.predicted.compute_cycles(),
        run.compute_cycles(),
    );

    // Replan the same shape: the MCF x ACF search is skipped — the
    // evaluation comes out of the bounded LRU plan cache.
    let replanned = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("workload replans");
    println!(
        "replanned   : from_cache = {} (no repeated SAGE search)\n",
        replanned.from_cache
    );
}

fn main() {
    let mut sys = FlexSystem::default();
    // Walkthrough-scale array so the workloads span several tiles.
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;

    // Dense regime (journals-class: ~78% dense).
    explain_and_run(&sys, "dense regime", 48, 48, 56, 1_800);
    // Hyper-sparse regime (m3plates-class: ~0.01% dense, scaled).
    explain_and_run(&sys, "hyper-sparse regime", 120, 120, 96, 150);

    println!(
        "plan cache  : {} shapes cached, {} hits / {} misses",
        sys.planner.cache.len(),
        sys.planner.cache.hits(),
        sys.planner.cache.misses()
    );

    // The calibration loop: the two runs above already fed their
    // predicted-vs-measured cycles to the planner's calibrator. Refit
    // the stats model's coefficients and replan the dense-regime shape
    // — the cached evaluation is reused (a refit changes no SAGE
    // evaluation) and the new prediction is scaled by the fitted
    // coefficients.
    println!("\n== calibration: before vs after one refit ==\n");
    let a = random_matrix(48, 48, 1_800, 1);
    let b = random_matrix(48, 56, 901, 2);
    let w = SageWorkload::spgemm(48, 48, 56, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
    let before = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("workload plans");
    let before_run = sys
        .planner
        .execute_plan(&sys.sage, &before, &a, &b)
        .expect("plan executes");
    println!("{}", before.explain());
    println!(
        "before      : mean cycle error {:.4}\n",
        before_run.mean_cycle_error()
    );

    let coeffs = sys.planner.calibrator.recalibrate();
    println!(
        "recalibrate : generation {} — conv x{:.3}, compute(ws) x{:.3}, compute(spgemm) x{:.3}",
        sys.planner.calibrator.generation(),
        coeffs.conv,
        coeffs.compute_ws,
        coeffs.compute_spgemm
    );

    let after = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("workload replans");
    let after_run = sys
        .planner
        .execute_plan(&sys.sage, &after, &a, &b)
        .expect("plan executes");
    println!("{}", after.explain());
    println!(
        "after       : mean cycle error {:.4} (was {:.4})",
        after_run.mean_cycle_error(),
        before_run.mean_cycle_error()
    );
}
