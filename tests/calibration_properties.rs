//! Calibration-loop properties: a refit of the online `Calibrator`
//! keeps every plan-cache row, plans are stamped with the generation
//! whose coefficients scaled them, a run is de-scaled by its own plan's
//! coefficients, and repeated traffic tightens predicted-vs-measured
//! error.

use sparseflex::formats::{CooMatrix, DataType, SparseMatrix};
use sparseflex::sage::SageWorkload;
use sparseflex::system::{Coefficients, FlexSystem};
use sparseflex::workloads::synth::random_matrix;

fn small_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

fn spgemm_job(
    m: usize,
    k: usize,
    n: usize,
    nnz: usize,
    seed: u64,
) -> (CooMatrix, CooMatrix, SageWorkload) {
    let a = random_matrix(m, k, nnz, seed);
    let b = random_matrix(k, n, nnz / 2 + 1, seed + 1);
    let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
    (a, b, w)
}

/// A refit changes no SAGE evaluation, so it keeps every cached row:
/// after `recalibrate`, every shape's lookup hits, the replanned choice
/// is the one planned before the refit, and the replanned prediction is
/// scaled by the new coefficients under generation 1.
#[test]
fn a_refit_keeps_every_cached_row() {
    let sys = small_system();
    let (a, b, w) = spgemm_job(32, 32, 24, 300, 1);
    let w2 = SageWorkload::spgemm(120, 100, 50, 1_200, 500, DataType::Fp32);

    let plan = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("plans");
    sys.planner
        .execute_plan(&sys.sage, &plan, &a, &b)
        .expect("executes");
    sys.planner.evaluate_cached(&sys.sage, &w2);
    let before = sys.planner.cache.counters();
    assert_eq!((before.hits, before.misses), (0, 2));

    let coeffs = sys.planner.calibrator.recalibrate();
    assert_ne!(
        coeffs,
        Coefficients::default(),
        "the refit must move a lane"
    );

    let replanned = sys
        .planner
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("replans");
    sys.planner.evaluate_cached(&sys.sage, &w2);
    let delta = sys.planner.cache.counters().since(before);
    assert_eq!(
        (delta.hits, delta.misses),
        (2, 0),
        "a refit must keep every cached row"
    );
    assert_eq!(sys.planner.cache.len(), 2);
    assert!(replanned.from_cache);
    assert_eq!(replanned.evaluation, plan.evaluation);
    assert_eq!(replanned.predicted.coefficients, coeffs);
    assert_eq!(replanned.calibration_generation, 1);
    assert!(
        replanned.explain().contains("calibration: generation 1"),
        "{}",
        replanned.explain()
    );
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
        .plan(&sys.sage, &a, &b, &w, None)
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
        .plan(&sys.sage, &a, &b, &w, None)
        .expect("replans");
    assert!(replanned.from_cache, "a refit keeps the cached evaluation");
    assert_eq!(replanned.calibration_generation, 1);
    assert!(
        replanned.explain().contains("calibration: generation 1"),
        "{}",
        replanned.explain()
    );
}

/// A run is de-scaled by the coefficients its plan was scaled with, not
/// by the calibrator's current ones. Two systems run job X and plan job
/// Y; one executes Y and then refits, the other refits and then
/// executes Y. Both have then recorded the same raw samples, so one more
/// refit fits the same coefficients on both.
#[test]
fn a_run_is_descaled_by_the_coefficients_its_plan_used() {
    let (x, y) = (
        spgemm_job(40, 48, 32, 500, 10),
        spgemm_job(48, 56, 40, 300, 20),
    );
    let fit = |refit_before_executing_y: bool| {
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 4;
        sys.sage.accel.pe_buffer_elems = 64;
        let plan = |(a, b, w): &(CooMatrix, CooMatrix, SageWorkload)| {
            sys.planner.plan(&sys.sage, a, b, w, None).expect("plans")
        };
        let plan_x = plan(&x);
        sys.planner
            .execute_plan(&sys.sage, &plan_x, &x.0, &x.1)
            .expect("X executes");
        let plan_y = plan(&y);
        if refit_before_executing_y {
            sys.planner.calibrator.recalibrate();
        }
        sys.planner
            .execute_plan(&sys.sage, &plan_y, &y.0, &y.1)
            .expect("Y executes");
        if !refit_before_executing_y {
            sys.planner.calibrator.recalibrate();
        }
        sys.planner.calibrator.recalibrate()
    };
    assert_eq!(fit(false), fit(true));
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
            let plan = sys.planner.plan(&sys.sage, a, b, w, None).expect("plans");
            let run = sys
                .planner
                .execute_plan(&sys.sage, &plan, a, b)
                .expect("executes");
            err += run.mean_cycle_error();
        }
        errors.push(err / operands.len() as f64);
        sys.planner.calibrator.recalibrate();
    }
    assert!(
        errors[3] < errors[0],
        "calibrated error must be strictly lower: {errors:?}"
    );
}
