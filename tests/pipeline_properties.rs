//! Property suite for the tile-grained pipelined runtime: tiled,
//! pipelined and batched execution must be **bit-for-bit** equal to a
//! monolithic run across every matrix format, including
//! operands larger than one scratchpad residency and empty/degenerate
//! tiles.

use proptest::prelude::*;
use sparseflex::formats::{CooMatrix, DataType, MatrixFormat, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::sage::eval::ConversionMode;
use sparseflex::sage::{FormatChoice, SageWorkload};
use sparseflex::system::{BatchJob, FlexSystem, PlanDiscipline, RunError};

fn small_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 4;
    sys.sage.accel.pe_buffer_elems = 32;
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
    (2usize..20, 2usize..24, 2usize..28, 0usize..70, 0usize..90).prop_flat_map(
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

/// Every MCF the pipeline must tile without densifying, including the
/// structured extensions.
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// SAGE-planned pipelined run == SAGE-planned monolithic run,
    /// bit-for-bit (same plan, same formats, same arithmetic order).
    #[test]
    fn pipelined_equals_monolithic((a, b) in arb_operands()) {
        let sys = small_system();
        let w = spgemm_workload(&a, &b);
        let mono = sys.run(&a, &b, &w, None, PlanDiscipline::Monolithic).unwrap();
        let piped = sys.run_pipelined(&a, &b, &w).unwrap();
        prop_assert_eq!(
            &piped.output, &mono.output,
            "pipeline diverged under choice {}", piped.evaluation().choice
        );
        // And both match the software oracle.
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        prop_assert!(piped.output.approx_eq(&expect, 1e-9));
    }

    /// With the format choice pinned, the pipeline is exact for **every**
    /// MCF (tiles cut through each format's own fiber stream) against the
    /// WS CSR(A)-CSC(B) ACF pair.
    #[test]
    fn every_mcf_tiles_exactly((a, b) in arb_operands()) {
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
            if sys.sage.evaluate(&w, &choice, ConversionMode::Hardware).is_err() {
                // Structured MCFs can exceed hardware bounds (e.g. DIA
                // diagonal count) — planner-level rejection, not a
                // pipeline property.
                continue;
            }
            let run = sys
                .run(&a, &b, &w, Some(&choice), PlanDiscipline::Pipelined)
                .unwrap();
            prop_assert!(
                run.output.approx_eq(&expect, 1e-9),
                "MCF {mcf} diverged"
            );
        }
    }

    /// Batched execution returns each job's pipelined result unchanged,
    /// in submission order.
    #[test]
    fn batch_equals_individual_runs((a, b) in arb_operands(), (a2, b2) in arb_operands()) {
        let sys = small_system();
        let jobs = vec![
            BatchJob::spgemm(a.clone(), b.clone(), DataType::Fp32),
            BatchJob::spgemm(a2.clone(), b2.clone(), DataType::Fp32),
            // Repeat of job 0's shape: must hit the plan cache and still
            // produce identical output.
            BatchJob::spgemm(a.clone(), b.clone(), DataType::Fp32),
        ];
        let batch = sys.run_batch(&jobs);
        prop_assert_eq!(batch.results.len(), 3);
        for (job, res) in jobs.iter().zip(&batch.results) {
            let w = spgemm_workload(&job.a, &job.b);
            let solo = sys.run_pipelined(&job.a, &job.b, &w).unwrap();
            let batched = res.as_ref().unwrap();
            prop_assert_eq!(&batched.output, &solo.output);
        }
        prop_assert!(batch.plan_cache_hits >= 1, "repeated shape must hit the cache");
    }
}

/// An operand whose stationary rows exceed one scratchpad residency: the
/// monolithic path rejects it (typed, recoverable), the pipeline runs it
/// — the acceptance scenario, plus the overlap-beats-serial assertion on
/// a Fig. 12-class workload.
#[test]
fn oversized_operand_runs_and_overlap_beats_serial() {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 4;
    // 16-slot PE buffers hold 8 stationary pairs. B: 48 columns, every
    // row stores 48 entries -> 96 slots per row, 6x one PE buffer. A
    // Fig. 12-class mid-density SpGEMM shape.
    sys.sage.accel.pe_buffer_elems = 16;
    let b = CooMatrix::from_triplets(
        12,
        48,
        (0..12)
            .flat_map(|r| (0..48).map(move |c| (r, c, ((r * 7 + c) % 5 + 1) as f64)))
            .collect(),
    )
    .unwrap();
    let a = CooMatrix::from_triplets(
        16,
        12,
        (0..16)
            .flat_map(|r| {
                (0..12)
                    .step_by(2)
                    .map(move |c| (r, c, ((r + c) % 4 + 1) as f64))
            })
            .collect(),
    )
    .unwrap();
    let w = spgemm_workload(&a, &b);
    // B stored in COO, computed in CSR: every stationary tile pays a real
    // MINT conversion for the schedule to hide.
    let choice = FormatChoice {
        mcf_a: MatrixFormat::Csr,
        mcf_b: MatrixFormat::Coo,
        acf_a: MatrixFormat::Csr,
        acf_b: MatrixFormat::Csr,
    };
    // Monolithic: typed, recoverable rejection.
    match sys.run(&a, &b, &w, Some(&choice), PlanDiscipline::Monolithic) {
        Err(e @ RunError::StationaryTooLarge { .. }) => assert!(e.is_recoverable()),
        other => panic!("expected StationaryTooLarge, got {other:?}"),
    }

    // Pipelined: runs, is correct, and the double-buffered schedule is
    // strictly faster than serial convert-then-compute.
    let run = sys
        .run(&a, &b, &w, Some(&choice), PlanDiscipline::Pipelined)
        .expect("tiling renders the rejection unreachable");
    let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
    assert!(run.output.approx_eq(&expect, 1e-9));
    assert!(run.tiles.len() >= 2);
    assert!(
        run.overlapped_cycles() < run.serial_cycles(),
        "overlapped {} must beat serial {}",
        run.overlapped_cycles(),
        run.serial_cycles()
    );

    // And through the batch front-end.
    let batch = sys.run_batch(&[BatchJob {
        a: a.clone(),
        b: b.clone(),
        workload: w,
    }]);
    let via_batch = batch.results[0].as_ref().unwrap();
    assert_eq!(via_batch.output, run.output);
}

/// Degenerate operands: empty matrices and all-empty tiles flow through
/// the pipeline and batch without panicking.
#[test]
fn empty_operands_and_tiles() {
    let sys = small_system();
    let a = CooMatrix::empty(5, 7);
    let b = CooMatrix::empty(7, 9);
    let w = spgemm_workload(&a, &b);
    let run = sys.run_pipelined(&a, &b, &w).unwrap();
    assert_eq!(run.output.count_nonzeros(), 0);
    let mono = sys
        .run(&a, &b, &w, None, PlanDiscipline::Monolithic)
        .unwrap();
    assert_eq!(run.output, mono.output);
}
