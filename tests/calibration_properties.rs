//! Calibration-loop properties: the online `Calibrator` must version
//! the plan cache (a generation bump invalidates exactly the stale
//! rows), stamp plans with the generation they were made under, and
//! tighten predicted-vs-measured error over repeated traffic.

use sparseflex::formats::{DataType, SparseMatrix};
use sparseflex::sage::SageWorkload;
use sparseflex::system::{FlexSystem, PlanDiscipline};
use sparseflex::workloads::synth::random_matrix;

fn small_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

/// A recalibration bump changes every new cache key, so exactly the
/// rows planned under older coefficients go stale: the first lookup per
/// shape after the bump misses and replans, the second hits again — all
/// asserted through the cache's hit/miss counters.
#[test]
fn calibration_generation_bump_invalidates_exactly_the_stale_rows() {
    let sys = small_system();
    let w1 = SageWorkload::spgemm(100, 100, 50, 1_000, 500, DataType::Fp32);
    let w2 = SageWorkload::spgemm(120, 100, 50, 1_200, 500, DataType::Fp32);

    sys.planner.evaluate_cached(&sys.sage, &w1); // miss
    sys.planner.evaluate_cached(&sys.sage, &w2); // miss
    sys.planner.evaluate_cached(&sys.sage, &w1); // hit
    let before = sys.planner.cache.counters();
    assert_eq!((before.hits, before.misses), (1, 2));

    sys.planner.calibrator.recalibrate();
    assert_eq!(sys.planner.calibrator.generation(), 1);

    // Every pre-bump row is stale: one miss per shape, then hits again.
    sys.planner.evaluate_cached(&sys.sage, &w1); // miss (stale)
    sys.planner.evaluate_cached(&sys.sage, &w2); // miss (stale)
    sys.planner.evaluate_cached(&sys.sage, &w1); // hit (fresh row)
    let delta = sys.planner.cache.counters().since(before);
    assert_eq!(
        (delta.hits, delta.misses),
        (1, 2),
        "exactly the stale rows must miss once each"
    );
    // Stale rows linger until LRU evicts them; the generations coexist.
    assert_eq!(sys.planner.cache.len(), 4);
}

/// Plans carry the calibration generation they were made under, and
/// `explain()` prints it.
#[test]
fn plans_record_and_explain_their_calibration_generation() {
    let sys = small_system();
    let a = random_matrix(32, 32, 300, 1);
    let b = random_matrix(32, 24, 200, 2);
    let w = SageWorkload::spgemm(32, 32, 24, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);

    let plan = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .expect("plans");
    assert_eq!(plan.calibration_generation, 0);
    assert!(
        plan.explain().contains("calibration: generation 0"),
        "{}",
        plan.explain()
    );

    sys.planner.calibrator.recalibrate();
    let replanned = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .expect("replans");
    assert!(!replanned.from_cache, "generation bump must force a replan");
    assert_eq!(replanned.calibration_generation, 1);
    assert!(
        replanned.explain().contains("calibration: generation 1"),
        "{}",
        replanned.explain()
    );
}

/// Repeated traffic through plan → execute → recalibrate rounds makes
/// the stats model's mean predicted-vs-measured cycle error strictly
/// lower than the uncalibrated model's (the ISSUE acceptance bar, with
/// 3 calibration rounds).
#[test]
fn three_calibration_rounds_strictly_tighten_prediction_error() {
    let sys = small_system();
    let operands: Vec<_> = [(40usize, 40usize, 32usize, 500usize), (48, 56, 32, 300)]
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n, nnz))| {
            let a = random_matrix(m, k, nnz, 10 + i as u64);
            let b = random_matrix(k, n, nnz / 2 + 1, 20 + i as u64);
            let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
            (a, b, w)
        })
        .collect();

    let mut errors = Vec::new();
    for round in 0..=3 {
        assert_eq!(sys.planner.calibrator.generation(), round);
        let mut err = 0.0;
        for (a, b, w) in &operands {
            let plan = sys
                .planner
                .plan(&sys.sage, a, b, w, None, PlanDiscipline::Pipelined)
                .expect("plans");
            let run = sys
                .planner
                .execute_plan(&sys.sage, &plan, a, b)
                .expect("executes");
            err += run.trace.mean_cycle_error();
        }
        errors.push(err / operands.len() as f64);
        sys.planner.calibrator.recalibrate();
    }
    assert!(
        errors[3] < errors[0],
        "calibrated error must be strictly lower: {errors:?}"
    );
}
