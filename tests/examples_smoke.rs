//! Smoke test pinning the umbrella crate's public API surface: the exact
//! call sequence of `examples/quickstart.rs` (recommend -> run ->
//! normalized_edp) must keep compiling and producing verified results, so
//! the example's API contract is enforced by the test suite rather than
//! by docs alone.

use sparseflex::formats::{DataType, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::sage::SageWorkload;
use sparseflex::system::{FlexSystem, PlanDiscipline};
use sparseflex::workloads::synth::random_matrix;

/// The quickstart scenario end-to-end, on a slightly smaller problem so
/// the cycle-accurate simulator stays fast in debug builds.
#[test]
fn quickstart_path_end_to_end() {
    let a = random_matrix(48, 64, 120, 1);
    let b = random_matrix(64, 32, 120, 2);
    assert_eq!(a.nnz(), 120);
    assert_eq!(b.nnz(), 120);

    let w = SageWorkload::spgemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.nnz() as u64,
        b.nnz() as u64,
        DataType::Fp32,
    );
    let mut system = FlexSystem::default();
    system.sage.accel.num_pes = 16;
    system.sage.accel.pe_buffer_elems = 32;

    // 1. SAGE searches the MCF x ACF space.
    let plan = system.sage.recommend(&w);
    assert!(
        plan.candidates > 0,
        "SAGE searched an empty candidate space"
    );
    assert!(plan.best.compute_cycles > 0.0);
    assert!(plan.best.total_energy() > 0.0);
    assert!(
        (0.0..=1.0).contains(&plan.best.utilization),
        "utilization {} out of range",
        plan.best.utilization
    );

    // 2-4. Encode in MCF, convert through MINT, execute on the simulator.
    let run = system
        .run(&a, &b, &w, None, PlanDiscipline::Monolithic)
        .expect("supported ACF pair");
    assert!(run.tiles[0].compute.total() > 0);
    assert!(run.tiles[0].counts.macs > 0);

    // The accelerator output must match the software kernel exactly
    // (integer-valued fixtures keep f64 arithmetic exact).
    let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
    assert!(
        run.output.approx_eq(&expect, 1e-9),
        "accelerator output mismatch"
    );

    // 5. Baseline-class comparison: this work is the 1.0x reference, so
    // every runnable baseline normalizes to >= ~1.
    let norms = system.normalized_edp(&w);
    assert!(!norms.is_empty(), "no baseline classes reported");
    let runnable = norms.iter().filter(|(_, n)| n.is_some()).count();
    assert!(runnable > 0, "no baseline class could run the workload");
    for (class, norm) in norms {
        if let Some(x) = norm {
            assert!(x >= 0.999, "{class} beats this work ({x}x)");
        }
    }
}

/// The `examples/plan_explain.rs` scenario end-to-end: plan a
/// dense-regime and a hyper-sparse workload through the planner, check
/// the rendered explanation, execute both plans, and confirm the second
/// planning of each shape is served from the bounded plan cache.
#[test]
fn plan_explain_path_end_to_end() {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    // (label fragment, m, k, n, nnz_a) — the example's two regimes,
    // slightly shrunk for debug-build speed.
    for (m, k, n, nnz) in [(32usize, 32usize, 40usize, 800usize), (96, 96, 80, 120)] {
        let a = random_matrix(m, k, nnz, 1);
        let b = random_matrix(k, n, nnz / 2 + 1, 2);
        let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
        let plan = sys
            .planner
            .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
            .expect("workload plans");
        let text = plan.explain();
        assert!(text.contains(&format!("SpGEMM {m}x{k}x{n}")), "{text}");
        assert!(text.contains("searched"), "first plan must be a search");
        let run = sys
            .planner
            .execute_plan(&sys.sage, &plan, &a, &b)
            .expect("plan executes");
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(run.output.approx_eq(&expect, 1e-9));
        // Replanning the same shape hits the cache, and explain says so.
        let again = sys
            .planner
            .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
            .expect("workload replans");
        assert!(again.from_cache);
        assert!(again.explain().contains("plan-cache hit"));
        assert!(
            again.explain().contains("calibration: generation 0"),
            "plans must explain their calibration generation"
        );
    }
    assert_eq!(sys.planner.cache.len(), 2, "two regimes cached");

    // The example's calibration epilogue: the executed runs fed the
    // calibrator, a refit bumps the generation, and the replanned shape
    // keeps its cached row with the new generation in its dump.
    assert!(
        sys.planner.calibrator.samples() > 0,
        "executed plans must feed the calibrator"
    );
    sys.planner.calibrator.recalibrate();
    let (m, k, n, nnz) = (32usize, 32usize, 40usize, 800usize);
    let a = random_matrix(m, k, nnz, 1);
    let b = random_matrix(k, n, nnz / 2 + 1, 2);
    let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
    let recal = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .expect("workload replans after refit");
    assert!(recal.from_cache, "a refit keeps the cached row");
    assert_eq!(recal.calibration_generation, 1);
    assert!(recal.explain().contains("calibration: generation 1"));
}

/// The `examples/serve_demo.rs` scenario end-to-end (shrunk for
/// debug-build speed): three weighted tenants submit wire frames into a
/// running `FlexService`, every result frame decodes, and the printed
/// per-tenant counters add up.
#[test]
fn serve_demo_path_end_to_end() {
    use sparseflex::formats::{MatrixData, MatrixFormat};
    use sparseflex::serve::{wire, FlexService, Priority, ServeConfig, WireJob};

    let mut system = FlexSystem::default();
    system.sage.accel.num_pes = 8;
    system.sage.accel.pe_buffer_elems = 64;
    let service = FlexService::start(
        system,
        ServeConfig {
            workers: 2,
            cache_shards: 8,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    service.register_tenant(1, 1);
    service.register_tenant(2, 2);
    service.register_tenant(3, 4);

    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let a = random_matrix(10, 12, 40, 50 + (i % 3) as u64);
            let b = random_matrix(12, 8, 36, 90 + (i % 3) as u64);
            let job = WireJob {
                tenant: (i % 3) as u32 + 1,
                priority: Priority::Normal,
                dtype: DataType::Fp32,
                a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
                b: MatrixData::encode(&b, &MatrixFormat::Zvc).unwrap(),
            };
            let frame = wire::encode_job(&job).unwrap();
            service.submit_frame(&frame).unwrap()
        })
        .collect();
    for ticket in tickets {
        let outcome = ticket.wait().expect("demo job completes");
        let result = wire::decode_result(&outcome.result_frame).unwrap();
        assert_eq!(result.output.rows(), 10);
        assert_eq!(result.output.cols(), 8);
    }

    let stats = service.stats();
    assert_eq!(stats.jobs_completed, 12);
    assert_eq!(stats.jobs_rejected, 0);
    assert_eq!(stats.cache_shards.len(), 8, "demo runs the sharded cache");
    // The demo's per-tenant table: three registered tenants whose
    // counters cover the whole stream.
    assert_eq!(stats.tenants.len(), 3);
    for t in &stats.tenants {
        assert_eq!(t.submitted, 4);
        assert_eq!(t.completed, 4);
        assert_eq!(t.rejected, 0);
    }
    let weights: Vec<u64> = stats.tenants.iter().map(|t| t.weight).collect();
    assert_eq!(weights, vec![1, 2, 4]);
}

/// The quickstart example itself must stay runnable: `cargo test` builds
/// all examples, and this guards the example's own verification assert
/// by re-running its exact operand sizes through the library path.
#[test]
fn quickstart_operand_sizes_stay_supported() {
    let a = random_matrix(96, 128, 250, 1);
    let b = random_matrix(128, 64, 250, 2);
    let w = SageWorkload::spgemm(96, 128, 64, 250, 250, DataType::Fp32);
    let mut system = FlexSystem::default();
    system.sage.accel.num_pes = 32;
    system.sage.accel.pe_buffer_elems = 64;
    let run = system
        .run(&a, &b, &w, None, PlanDiscipline::Monolithic)
        .expect("supported ACF pair");
    let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
    assert!(run.output.approx_eq(&expect, 1e-9));
}
