//! Property suite for the planner layer: every run path executing the
//! same [`ExecutionPlan`] must produce bit-for-bit identical output to
//! the monolithic path across all nine matrix MCFs, and the plan's
//! predicted cycles must track what the cycle-accurate simulator
//! measured in the [`PipelineRun`] within tolerance.

use proptest::prelude::*;
use sparseflex::formats::{CooMatrix, DataType, MatrixFormat, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::sage::eval::ConversionMode;
use sparseflex::sage::{FormatChoice, SageWorkload};
use sparseflex::system::{BatchJob, FlexSystem, PlanDiscipline};

fn small_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 4;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

fn spgemm_workload(a: &CooMatrix, b: &CooMatrix) -> SageWorkload {
    SageWorkload::spgemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.nnz() as u64,
        b.nnz() as u64,
        DataType::Fp32,
    )
}

fn arb_operands() -> impl Strategy<Value = (CooMatrix, CooMatrix)> {
    (2usize..16, 2usize..20, 2usize..24, 0usize..50, 0usize..70).prop_flat_map(
        |(m, k, n, na, nb)| {
            let a = proptest::collection::vec(
                ((0..m), (0..k), 1i32..9).prop_map(|(r, c, v)| (r, c, v as f64)),
                0..na.max(1) + 1,
            )
            .prop_map(move |t| CooMatrix::from_triplets(m, k, t).unwrap());
            let b = proptest::collection::vec(
                ((0..k), (0..n), 1i32..9).prop_map(|(r, c, v)| (r, c, v as f64)),
                0..nb.max(1) + 1,
            )
            .prop_map(move |t| CooMatrix::from_triplets(k, n, t).unwrap());
            (a, b)
        },
    )
}

/// Every MCF the planner must schedule without densifying.
fn mcf_suite() -> Vec<MatrixFormat> {
    vec![
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 2, bc: 2 },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits: 4 },
        MatrixFormat::Zvc,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) With the format choice pinned, a monolithic `run`, a
    /// pipelined `run` and a raw `plan_pinned -> execute_plan` round
    /// trip all execute the same plan and produce **bit-for-bit
    /// identical** output, for every MCF.
    #[test]
    fn every_run_path_matches_the_monolithic_output((a, b) in arb_operands()) {
        let sys = small_system();
        let w = spgemm_workload(&a, &b);
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        for mcf in mcf_suite() {
            let choice = FormatChoice {
                mcf_a: MatrixFormat::Csr,
                mcf_b: mcf,
                acf_a: MatrixFormat::Csr,
                acf_b: MatrixFormat::Csc,
            };
            let eval = match sys.sage.evaluate(&w, &choice, ConversionMode::Hardware) {
                Ok(e) => e,
                // Structured MCFs can exceed hardware bounds (e.g. DIA
                // diagonal count) — planner-level rejection, not an
                // executor property.
                Err(_) => continue,
            };
            // Monolithic path (may recoverably reject oversized rows;
            // under a WS CSC ACF with 64-slot buffers it never does for
            // these operand sizes).
            let mono = sys
                .run(&a, &b, &w, Some(&choice), PlanDiscipline::Monolithic)
                .unwrap();
            // Pipelined front-end.
            let piped = sys
                .run(&a, &b, &w, Some(&choice), PlanDiscipline::Pipelined)
                .unwrap();
            // Raw planner round trip, pipelined discipline.
            let plan = sys
                .planner
                .plan_pinned(&sys.sage, &a, &b, w, eval, PlanDiscipline::Pipelined)
                .unwrap();
            let raw = sys.planner.execute_plan(&sys.sage, &plan, &a, &b).unwrap();
            prop_assert_eq!(&piped.output, &mono.output, "pipelined diverged for MCF {}", mcf);
            prop_assert_eq!(&raw.output, &mono.output, "raw executor diverged for MCF {}", mcf);
            prop_assert!(mono.output.approx_eq(&expect, 1e-9), "MCF {} wrong vs oracle", mcf);
        }
    }

    /// (a, SAGE-planned) Every run path plans through the same
    /// cache-aware planner, so the same workload executes the same plan
    /// everywhere: monolithic == pipelined == batched, bit for bit.
    #[test]
    fn sage_planned_paths_agree((a, b) in arb_operands()) {
        let sys = small_system();
        let w = spgemm_workload(&a, &b);
        let mono = sys.run(&a, &b, &w, None, PlanDiscipline::Monolithic).unwrap();
        let piped = sys.run_pipelined(&a, &b, &w).unwrap();
        let batch = sys.run_batch(&[BatchJob { a: a.clone(), b: b.clone(), workload: w }]);
        let batched = batch.results[0].as_ref().unwrap();
        prop_assert_eq!(&piped.output, &mono.output);
        prop_assert_eq!(&batched.output, &mono.output);
        // The later paths reused the first search through the cache.
        prop_assert!(piped.plan_cached(), "pipelined run must hit the cache");
        prop_assert!(batched.plan_cached(), "batched run must hit the cache");
        prop_assert_eq!(
            &batched.plan.evaluation.choice,
            &mono.evaluation().choice
        );
    }

    /// (b) The analytic prediction tracks the
    /// simulator within tolerance: a constant factor when compute
    /// dominates (the regime `tests/system_validation.rs` validates the
    /// models in), or a bounded per-tile absolute error in hyper-sparse
    /// regimes where fixed fill/drain costs — which the stream model
    /// deliberately omits — dominate the few real MACs.
    #[test]
    fn stats_model_trace_is_within_tolerance((a, b) in arb_operands()) {
        let sys = small_system();
        let w = spgemm_workload(&a, &b);
        let run = sys.run_pipelined(&a, &b, &w).unwrap();
        let predicted = run.plan.predicted.compute_cycles();
        let measured = run.compute_cycles();
        let f = run.compute_error_factor();
        let per_tile_slack = 128 * run.plan.tiles().max(1) as u64;
        prop_assert!(
            f <= 8.0 || predicted.abs_diff(measured) <= per_tile_slack,
            "stats model off by {f:.2}x and {} cycles over {} tiles \
             (predicted {predicted}, measured {measured})",
            predicted.abs_diff(measured),
            run.plan.tiles()
        );
    }
}

/// Acceptance: plan-cache reuse across two successive `run_batch` calls
/// on the same system — the second batch performs zero searches.
#[test]
fn plan_cache_hits_across_successive_batches() {
    let sys = small_system();
    let mut jobs = Vec::new();
    for i in 0..3u64 {
        let a = sparseflex::workloads::synth::random_matrix(14, 18, 50, 900 + i);
        let b = sparseflex::workloads::synth::random_matrix(18, 22, 70, 910 + i);
        jobs.push(BatchJob::spgemm(a, b, DataType::Fp32));
    }
    let first = sys.run_batch(&jobs);
    assert_eq!(first.succeeded(), 3);
    assert!(first.plans_computed >= 1, "cold shapes must search");
    let second = sys.run_batch(&jobs);
    assert_eq!(second.succeeded(), 3);
    assert!(
        second.plan_cache_hits >= 3,
        "every job of the second batch must hit the shared cache (got {})",
        second.plan_cache_hits
    );
    assert_eq!(second.plans_computed, 0, "no search may repeat");
    for (x, y) in first.results.iter().zip(&second.results) {
        assert_eq!(x.as_ref().unwrap().output, y.as_ref().unwrap().output);
    }
}

/// `ExecutionPlan::explain` renders the whole decision: workload,
/// choice, provenance, tile schedule, budget, and predicted overlap.
#[test]
fn explain_renders_the_decision() {
    let sys = small_system();
    let a = sparseflex::workloads::synth::random_matrix(20, 24, 80, 5);
    let b = sparseflex::workloads::synth::random_matrix(24, 30, 120, 6);
    let w = spgemm_workload(&a, &b);
    let plan = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .unwrap();
    let text = plan.explain();
    assert!(text.contains("ExecutionPlan: SpGEMM 20x24x30"));
    assert!(text.contains("choice"));
    assert!(text.contains("searched"));
    assert!(text.contains("tiles"));
    assert!(text.contains("budget"));
    assert!(text.contains("overlap"));
    // A replanned job is marked as served from cache.
    let replanned = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .unwrap();
    assert!(replanned.explain().contains("plan-cache hit"));
}
