//! System-level validation: the analytic models agree with the
//! cycle-accurate simulator, SAGE's recommendation is optimal within its
//! search space, and the full SAGE -> MINT -> accelerator pipeline
//! computes correct products on random workloads.

use proptest::prelude::*;
use sparseflex::accel::exec::simulate_ws;
use sparseflex::accel::model::{ws_estimate, WsWorkload};
use sparseflex::accel::AccelConfig;
use sparseflex::formats::{CooMatrix, DataType, MatrixData, MatrixFormat, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::sage::eval::ConversionMode;
use sparseflex::sage::{FormatChoice, Sage, SageWorkload};
use sparseflex::system::FlexSystem;

fn arb_operands() -> impl Strategy<Value = (CooMatrix, CooMatrix)> {
    (2usize..24, 2usize..32, 2usize..16, 1usize..60, 1usize..60).prop_flat_map(
        |(m, k, n, na, nb)| {
            let a = proptest::collection::vec(
                ((0..m), (0..k), 1i32..9).prop_map(|(r, c, v)| (r, c, v as f64)),
                1..na.max(2),
            )
            .prop_map(move |t| CooMatrix::from_triplets(m, k, t).unwrap());
            let b = proptest::collection::vec(
                ((0..k), (0..n), 1i32..9).prop_map(|(r, c, v)| (r, c, v as f64)),
                1..nb.max(2),
            )
            .prop_map(move |t| CooMatrix::from_triplets(k, n, t).unwrap());
            (a, b)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_pipeline_computes_correct_product((a, b) in arb_operands()) {
        let w = SageWorkload::spgemm(
            a.rows(), a.cols(), b.cols(),
            a.nnz() as u64, b.nnz() as u64,
            DataType::Fp32,
        );
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 8;
        sys.sage.accel.pe_buffer_elems = 32;
        let run = sys.run(&a, &b, &w, None).unwrap();
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        prop_assert!(
            run.output.approx_eq(&expect, 1e-9),
            "wrong product under choice {}", run.evaluation().choice
        );
    }

    #[test]
    fn simulator_and_model_track_each_other((a, b) in arb_operands()) {
        // Analytic stream-cycle estimates must stay within a generous
        // constant factor of the cycle-accurate simulator for the
        // CSR(A)-Dense(B) pair (the most used ACF in Table III).
        let cfg = AccelConfig { num_pes: 8, pe_buffer_elems: 32, ..AccelConfig::walkthrough() };
        let b_dense = CooMatrix::from_triplets(
            b.rows(), b.cols(),
            (0..b.rows()).flat_map(|r| (0..b.cols()).map(move |c| (r, c, 1.0))).collect(),
        ).unwrap();
        let sim = simulate_ws(
            &MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
            &MatrixData::encode(&b_dense, &MatrixFormat::Dense).unwrap(),
            &cfg,
        ).unwrap();
        let est = ws_estimate(&WsWorkload {
            m: a.rows(), k: a.cols(), n: b.cols(),
            nnz_a: a.nnz() as u64,
            nnz_b: (b.rows() * b.cols()) as u64,
            acf_a: MatrixFormat::Csr,
            acf_b: MatrixFormat::Dense,
        }, &cfg).unwrap();
        let sim_total = sim.cycles.total() as f64;
        let est_total = est.cycles.total();
        prop_assert!(
            est_total > sim_total * 0.25 && est_total < sim_total * 4.0,
            "model {est_total} vs simulator {sim_total}"
        );
    }
}

#[test]
fn sage_recommendation_is_minimal_over_dense_grid() {
    // Exhaustively re-evaluate a moderate grid and confirm nothing beats
    // the recommendation (the SAGE invariant at system level).
    let sage = Sage::default();
    let w = SageWorkload::spgemm(800, 600, 400, 24_000, 12_000, DataType::Fp32);
    let best = sage.recommend(&w).best;
    let best_edp = best.edp(sage.accel.clock_hz);
    let mut checked = 0;
    for mcf_a in MatrixFormat::mcf_set() {
        for mcf_b in MatrixFormat::mcf_set() {
            for acf_a in [
                MatrixFormat::Dense,
                MatrixFormat::Csr,
                MatrixFormat::Coo,
                MatrixFormat::Csc,
            ] {
                for acf_b in [MatrixFormat::Dense, MatrixFormat::Csc] {
                    let c = FormatChoice {
                        mcf_a,
                        mcf_b,
                        acf_a,
                        acf_b,
                    };
                    if let Ok(e) = sage.evaluate(&w, &c, ConversionMode::Hardware) {
                        assert!(
                            e.edp(sage.accel.clock_hz) >= best_edp * 0.999,
                            "{c} beats the recommendation"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 200, "grid only checked {checked} points");
}

#[test]
fn flexible_system_dominates_on_every_table3_matrix_workload() {
    use sparseflex::workloads::TABLE_III;
    let sys = FlexSystem::default();
    for spec in TABLE_III.iter().filter(|s| !s.is_tensor()) {
        let sparseflex::workloads::WorkloadShape::Matrix { rows: m, cols: k } = spec.shape else {
            continue;
        };
        let (_, fc) = spec.factor_dims();
        let w = SageWorkload::spmm(m, k, fc, spec.nnz as u64, DataType::Fp32);
        for (class, norm) in sys.normalized_edp(&w) {
            if let Some(x) = norm {
                assert!(
                    x >= 0.999,
                    "{class} beats this work on {} (x={x})",
                    spec.name
                );
            }
        }
    }
}
