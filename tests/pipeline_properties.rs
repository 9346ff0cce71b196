//! Property suite for the tile-grained pipelined runtime: tiled,
//! pipelined and batched execution must be **bit-for-bit** equal to a
//! monolithic run across every matrix format, including
//! operands larger than one scratchpad residency and empty/degenerate
//! tiles.

use proptest::prelude::*;
use sparseflex::accel::{ActivityCounts, CycleBreakdown};
use sparseflex::formats::{fnv1a, CooMatrix, DataType, MatrixFormat, SparseMatrix};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::parallel::with_workers;
use sparseflex::mint::{BlockKind, ConversionReport};
use sparseflex::sage::eval::ConversionMode;
use sparseflex::sage::{FormatChoice, SageWorkload};
use sparseflex::system::{
    BatchJob, Dataflow, FlexSystem, PipelineRun, PlanDiscipline, RunError, TileTrace,
};
use sparseflex::workloads::synth::random_matrix;

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

/// Append a conversion report to the bytes a digest pins: each block's
/// cycles and energy bits, the fill latency and the element count.
fn pin_report(rep: &ConversionReport, pinned: &mut Vec<u8>) {
    for kind in [
        BlockKind::PrefixSum,
        BlockKind::Sorter,
        BlockKind::ClusterCounter,
        BlockKind::Divider,
        BlockKind::Modulo,
        BlockKind::Comparators,
        BlockKind::MemController,
        BlockKind::Adders,
    ] {
        pinned.extend_from_slice(&rep.cycles(kind).to_le_bytes());
        pinned.extend_from_slice(&rep.energy(kind).to_bits().to_le_bytes());
    }
    pinned.extend_from_slice(&rep.fill_latency.to_le_bytes());
    pinned.extend_from_slice(&rep.elements.to_le_bytes());
}

/// Append a run to the bytes a digest pins, or its error: the format
/// choice, the schedule's ranges, A's conversion, each tile's conversion,
/// cycles and counts, and the output bits. The prediction is left out.
fn pin_run(got: &Result<PipelineRun, RunError>, pinned: &mut Vec<u8>) {
    let run = match got {
        Ok(run) => run,
        Err(e) => return pinned.extend_from_slice(e.to_string().as_bytes()),
    };
    pinned.extend_from_slice(format!("{:?}", run.plan.choice()).as_bytes());
    for &(c0, c1) in &run.plan.schedule.ranges {
        pinned.extend_from_slice(&(c0 as u64).to_le_bytes());
        pinned.extend_from_slice(&(c1 as u64).to_le_bytes());
    }
    pin_report(&run.conv_a, pinned);
    for tile in &run.tiles {
        let TileTrace {
            col_start,
            col_end,
            conv,
            compute,
            counts,
        } = tile;
        let CycleBreakdown {
            load_b,
            stream_a,
            drain,
        } = *compute;
        let ActivityCounts {
            macs,
            effective_macs,
            bus_slots_used,
            pe_buffer_reads,
            pe_buffer_writes,
            output_flushes,
        } = *counts;
        pin_report(conv, pinned);
        for v in [
            *col_start as u64,
            *col_end as u64,
            load_b,
            stream_a,
            drain,
            macs,
            effective_macs,
            bus_slots_used,
            pe_buffer_reads,
            pe_buffer_writes,
            output_flushes,
        ] {
            pinned.extend_from_slice(&v.to_le_bytes());
        }
    }
    for v in run.output.data() {
        pinned.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// The run path pinned end to end: one FNV-1a digest over every run of
/// a seeded generator's jobs, on three arrays. Each job runs the plan
/// SAGE chooses, through `run_batch` at one worker and at four (the two
/// must agree), then a Gustavson plan with B stored in every MCF (so
/// CSC→CSR and COO→CSR tiles convert), every weight-stationary ACF pair,
/// and a weight-stationary plan with B stored in every MCF against both
/// stationary ACFs (so every MCF's tiles convert to Dense and to CSC). The arrays are four PEs of 32-slot buffers with a 16-slot bus
/// and 8-wide vector units, as in the benchmark (7 pairs a beat), and
/// with 2-wide units behind a 5-slot bus (2 pairs) and a 16-slot one
/// (7 pairs), so that beats exceed the vector width. The shapes run from
/// dense-ish to hypersparse, with dense A against sparse B so that
/// Gustavson passes hold fewer B entries than B rows, in one job with a
/// few dense B rows among them.
#[test]
fn every_run_path_is_pinned_bit_for_bit() {
    let shapes = [
        (24, 16, 40, 300, 400),
        (30, 40, 64, 60, 90),
        (20, 48, 32, 700, 120),
        (16, 24, 24, 120, 200),
    ];
    let mut jobs: Vec<BatchJob> = shapes
        .iter()
        .zip(0u64..)
        .map(|(&(m, k, n, nnz_a, nnz_b), seed)| {
            let a = random_matrix(m, k, nnz_a, seed);
            let b = random_matrix(k, n, nnz_b, 100 + seed);
            BatchJob::spgemm(a, b, DataType::Fp32)
        })
        .collect();
    // A sparse B whose rows 0, 8, ..., 40, all on PE 0, hold three of
    // every four columns: its Gustavson passes hold fewer entries than
    // rows, yet a beat meeting two of those rows exceeds the vector width.
    let mut skewed: Vec<_> = random_matrix(48, 32, 40, 200).iter().collect();
    skewed.extend((0..48).step_by(8).flat_map(|r| {
        (0..32)
            .filter(|c| c % 4 != 3)
            .map(move |c| (r, c, ((r + c) % 5 + 1) as f64))
    }));
    let skewed = CooMatrix::from_triplets(48, 32, skewed).unwrap();
    let a = random_matrix(16, 48, 500, 201);
    jobs.push(BatchJob::spgemm(a, skewed, DataType::Fp32));
    let gustavson = MatrixFormat::mcf_set().map(|mcf_b| FormatChoice {
        mcf_a: MatrixFormat::Csr,
        mcf_b,
        acf_a: MatrixFormat::Csr,
        acf_b: MatrixFormat::Csr,
    });
    let stationary = [MatrixFormat::Dense, MatrixFormat::Csc];
    let ws = MatrixFormat::acf_set().into_iter().flat_map(|acf_a| {
        stationary.map(|acf_b| FormatChoice {
            mcf_a: MatrixFormat::Coo,
            mcf_b: MatrixFormat::Csr,
            acf_a,
            acf_b,
        })
    });
    // B stored in every other MCF against both stationary ACFs, so each
    // format's tiles are cut and converted to Dense and to CSC.
    let ws_b = MatrixFormat::mcf_set()
        .into_iter()
        .filter(|&mcf_b| mcf_b != MatrixFormat::Csr)
        .flat_map(|mcf_b| {
            stationary.map(|acf_b| FormatChoice {
                mcf_a: MatrixFormat::Coo,
                mcf_b,
                acf_a: MatrixFormat::Csr,
                acf_b,
            })
        });
    let pins: Vec<FormatChoice> = gustavson.into_iter().chain(ws).chain(ws_b).collect();

    let mut pinned = Vec::new();
    let mut dataflows = Vec::new();
    for (vector_width, bus_slots) in [(8, 16), (2, 5), (2, 16)] {
        let mut sys = small_system();
        sys.sage.accel.vector_width = vector_width;
        sys.sage.accel.bus_slots = bus_slots;
        let batch = |workers| {
            let mut bytes = Vec::new();
            let run = with_workers(workers, || sys.run_batch(&jobs));
            for got in &run.results {
                pin_run(got, &mut bytes);
            }
            (bytes, run.results)
        };
        let (one, results) = batch(1);
        let (four, _) = batch(4);
        assert_eq!(fnv1a(&one), fnv1a(&four), "run_batch at 1 and 4 workers");
        pinned.extend_from_slice(&one);
        dataflows.extend(results.iter().flatten().map(|run| run.plan.dataflow));
        for job in &jobs {
            for pin in &pins {
                let got = sys.run(
                    &job.a,
                    &job.b,
                    &job.workload,
                    Some(pin),
                    PlanDiscipline::Pipelined,
                );
                pin_run(&got, &mut pinned);
            }
        }
    }
    assert!(dataflows.contains(&Dataflow::GustavsonSpGemm));
    assert!(dataflows.contains(&Dataflow::WeightStationary));
    assert_eq!(
        fnv1a(&pinned),
        0x90c0_e165_7b1b_835c,
        "a run's plan, conversions, cycles, counts or output bits moved"
    );
}
