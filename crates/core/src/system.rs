//! The integrated system: SAGE planning, MINT conversion, accelerator
//! execution.

use crate::pipeline::PipelineRun;
use crate::planner::Planner;
use sparseflex_accel::exec::SimError;
use sparseflex_accel::taxonomy::AcceleratorClass;
use sparseflex_formats::{
    CooMatrix, CsrMatrix, DenseMatrix, FormatError, MatrixData, MatrixFormat,
};
use sparseflex_sage::{Evaluation, FormatChoice, Sage, SageWorkload};
use std::fmt;

/// Errors an end-to-end run can raise. None is recoverable: the same job
/// on the same system fails the same way again.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// An indivisible stationary unit (one compressed column or row of
    /// the stationary operand) needs more PE-buffer slots than exist.
    ///
    /// Every plan splits the stationary operand into column tiles until
    /// each unit fits, so a run returns this only when a PE buffer holds
    /// fewer than 2 slots, too few for one compressed `(index, value)`
    /// pair. No tiling can fix that, so it is not recoverable.
    StationaryTooLarge {
        /// Slots the indivisible unit requires.
        needed: usize,
        /// Slots one PE buffer provides.
        available: usize,
    },
    /// The planned ACF pair is not executable on the WS array.
    UnsupportedChoice {
        /// Streaming-operand compute format.
        a: MatrixFormat,
        /// Stationary-operand compute format.
        b: MatrixFormat,
    },
    /// Operand shapes disagree (`A` columns vs `B` rows).
    ShapeMismatch {
        /// Columns of A.
        a_cols: usize,
        /// Rows of B.
        b_rows: usize,
    },
    /// The accelerator configuration has no MAC lanes or no bus slots.
    ZeroConfig {
        /// The zero `AccelConfig` field.
        field: &'static str,
    },
    /// Encoding or converting an operand failed structurally.
    Format(FormatError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StationaryTooLarge { needed, available } => {
                write!(
                    f,
                    "stationary unit needs {needed} slots, PE buffer has {available}"
                )
            }
            RunError::UnsupportedChoice { a, b } => {
                write!(f, "unsupported ACF pair {a}(A)-{b}(B) on the WS array")
            }
            RunError::ShapeMismatch { a_cols, b_rows } => {
                write!(
                    f,
                    "dimension mismatch: A has {a_cols} cols, B has {b_rows} rows"
                )
            }
            RunError::ZeroConfig { field } => write!(f, "accelerator config has {field} = 0"),
            RunError::Format(e) => write!(f, "operand encoding failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::BufferTooSmall { needed, available } => {
                RunError::StationaryTooLarge { needed, available }
            }
            SimError::UnsupportedAcf { a, b } => RunError::UnsupportedChoice { a, b },
            SimError::DimMismatch { a_cols, b_rows } => RunError::ShapeMismatch { a_cols, b_rows },
            SimError::ZeroConfig { field } => RunError::ZeroConfig { field },
        }
    }
}

impl From<FormatError> for RunError {
    fn from(e: FormatError) -> Self {
        RunError::Format(e)
    }
}

/// The `Flex_Flex_HW` system: SAGE + MINT + the flexible-ACF accelerator.
#[derive(Debug, Clone, Default)]
pub struct FlexSystem {
    /// The SAGE predictor (owns the accelerator/DRAM/MINT models).
    pub sage: Sage,
    /// The planning layer every run path routes through: produces
    /// [`ExecutionPlan`](crate::plan::ExecutionPlan)s, owns the bounded
    /// LRU plan cache (shared across runs, batch calls and worker
    /// threads), and executes plans on the accelerator.
    pub planner: Planner,
}

/// One Table II baseline's best achievable result on a workload.
#[derive(Debug, Clone)]
pub struct ClassComparison {
    /// Taxonomy name (`Fix_Fix_None` ...).
    pub class_name: &'static str,
    /// Representative design.
    pub example: &'static str,
    /// Best evaluation within the class's format freedom (None when the
    /// class cannot run the kernel at all).
    pub best: Option<Evaluation>,
}

impl FlexSystem {
    /// Build a system around a configured SAGE instance.
    pub fn new(sage: Sage) -> Self {
        FlexSystem {
            sage,
            planner: Planner::default(),
        }
    }

    /// Best evaluation per Table II accelerator class (the Fig. 12/13
    /// comparison row).
    pub fn compare_classes(&self, w: &SageWorkload) -> Vec<ClassComparison> {
        AcceleratorClass::table2_suite()
            .into_iter()
            .map(|class| ClassComparison {
                class_name: class.name,
                example: class.example,
                best: self.sage.recommend_for_class(w, &class).map(|r| r.best),
            })
            .collect()
    }

    /// Run one job end to end: [`Planner::plan`] (`pin` as there), then
    /// [`Planner::execute_plan`]. Operands are stored in their MCFs, as
    /// they would arrive from DRAM; MINT converts them to the ACFs and the
    /// cycle-accurate simulator executes every tile.
    ///
    /// The plan cuts the stationary operand into scratchpad-sized column
    /// tiles, and MINT converts tile *t+1* while the array computes tile
    /// *t*. The returned [`PipelineRun`] reports that overlapped total
    /// beside the serial convert-then-compute one.
    pub fn run(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        w: &SageWorkload,
        pin: Option<&FormatChoice>,
    ) -> Result<PipelineRun, RunError> {
        let plan = self.planner.plan(&self.sage, a, b, w, pin)?;
        self.planner.execute_plan(&self.sage, &plan, a, b)
    }

    /// Software reference output for verification.
    #[expect(
        clippy::expect_used,
        reason = "the public signature has no error channel; mismatched shapes are a caller bug"
    )]
    pub fn reference_output(a: &CooMatrix, b: &CooMatrix) -> DenseMatrix {
        let a_csr = MatrixData::Csr(CsrMatrix::from_coo(a));
        let b_dense = b.clone().into_dense();
        sparseflex_kernels::spmm(&a_csr, &b_dense).expect("operand shapes agree by construction")
    }

    /// Normalized-EDP table (Fig. 13): every class's best EDP divided by
    /// this work's, per workload; `None` for classes that cannot run it.
    pub fn normalized_edp(&self, w: &SageWorkload) -> Vec<(&'static str, Option<f64>)> {
        let clock = self.sage.accel.clock_hz;
        let ours = self.sage.recommend(w).best.edp(clock);
        self.compare_classes(w)
            .into_iter()
            .map(|c| (c.class_name, c.best.map(|b| b.edp(clock) / ours)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{DataType, SparseMatrix};
    use sparseflex_workloads::synth::random_matrix;

    fn workload_from(a: &CooMatrix, b: &CooMatrix, spgemm: bool) -> SageWorkload {
        if spgemm {
            SageWorkload::spgemm(
                a.rows(),
                a.cols(),
                b.cols(),
                a.nnz() as u64,
                b.nnz() as u64,
                DataType::Fp32,
            )
        } else {
            SageWorkload::spmm(a.rows(), a.cols(), b.cols(), a.nnz() as u64, DataType::Fp32)
        }
    }

    #[test]
    fn functional_run_produces_correct_output() {
        // A small SpGEMM through the full SAGE -> MINT -> accel path.
        let a = random_matrix(24, 32, 80, 1);
        let b = random_matrix(32, 20, 60, 2);
        let w = workload_from(&a, &b, true);
        // Use the small walkthrough-scale accelerator so tiling kicks in.
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 8;
        sys.sage.accel.pe_buffer_elems = 64;
        let run = sys.run(&a, &b, &w, None).unwrap();
        let expect =
            sparseflex_kernels::gemm::gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(
            run.output.approx_eq(&expect, 1e-9),
            "functional output mismatch for choice {}",
            run.evaluation().choice
        );
    }

    #[test]
    fn functional_run_spmm_dense_b() {
        let a = random_matrix(16, 24, 60, 3);
        let b = random_matrix(24, 12, 24 * 12, 4); // fully dense B
        let w = workload_from(&a, &b, false);
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 16;
        sys.sage.accel.pe_buffer_elems = 64;
        let run = sys.run(&a, &b, &w, None).unwrap();
        let expect =
            sparseflex_kernels::gemm::gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(run.output.approx_eq(&expect, 1e-9));
        // SpMM with dense B: SAGE must not pick a compressed ACF for B
        // (nothing to compress).
        assert_eq!(run.evaluation().choice.acf_b, MatrixFormat::Dense);
    }

    #[test]
    fn this_work_never_loses_the_class_comparison() {
        let sys = FlexSystem::default();
        let w = SageWorkload::spgemm(7_700, 2_600, 3_850, 1_000_000, 500_000, DataType::Fp32);
        for (name, norm) in sys.normalized_edp(&w) {
            if let Some(x) = norm {
                assert!(x >= 0.999, "{name} has normalized EDP {x} < 1");
            }
        }
    }

    #[test]
    fn class_comparison_covers_table2() {
        let sys = FlexSystem::default();
        let w = SageWorkload::spmm(1_000, 1_000, 500, 10_000, DataType::Fp32);
        let rows = sys.compare_classes(&w);
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().any(|r| r.class_name == "Flex_Flex_HW"));
        // TPU (dense only) can always run (densely).
        let tpu = rows
            .iter()
            .find(|r| r.class_name == "Fix_Fix_None")
            .unwrap();
        assert!(tpu.best.is_some());
    }

    #[test]
    fn plan_reports_search_size() {
        let sys = FlexSystem::default();
        let w = SageWorkload::spgemm(500, 500, 250, 2_500, 1_250, DataType::Fp32);
        let plan = sys.sage.recommend(&w);
        assert!(plan.candidates > 50);
        assert!(plan.best.total_cycles() > 0.0);
    }

    #[test]
    fn unexecutable_pin_fails_typed_and_caches_nothing() {
        let sys = FlexSystem::default();
        let a = random_matrix(16, 24, 60, 5);
        let b = random_matrix(24, 12, 40, 6);
        let w = workload_from(&a, &b, true);
        // The WS array takes only a Dense or CSC stationary operand.
        let choice = FormatChoice {
            mcf_a: MatrixFormat::Csr,
            mcf_b: MatrixFormat::Csr,
            acf_a: MatrixFormat::Csr,
            acf_b: MatrixFormat::Coo,
        };
        for _ in 0..2 {
            let run = sys.run(&a, &b, &w, Some(&choice));
            assert_eq!(
                run.err(),
                Some(RunError::UnsupportedChoice {
                    a: MatrixFormat::Csr,
                    b: MatrixFormat::Coo,
                })
            );
            assert!(sys.planner.cache.is_empty(), "a failed pin caches nothing");
        }
        // The repeat searched again: the first failure cleared its marker.
        assert_eq!(sys.planner.cache.misses(), 2);
        assert_eq!(sys.planner.cache.hits(), 0);
    }

    #[test]
    fn unencodable_pin_fails_typed_and_caches_nothing() {
        let sys = FlexSystem::default();
        let pins = [
            (
                MatrixFormat::Bsr { br: 0, bc: 2 },
                FormatError::InvalidBlockSize { block: 0 },
            ),
            (
                MatrixFormat::Rlc { run_bits: 64 },
                FormatError::Unsupported("RLC run field wider than 63 bits"),
            ),
        ];
        // B with columns, and B with none: a pin fails before any operand
        // is encoded or priced.
        for b in [random_matrix(24, 12, 40, 6), CooMatrix::empty(4, 0)] {
            let a = random_matrix(16, b.rows(), 30, 5);
            let w = workload_from(&a, &b, true);
            for (mcf_b, err) in &pins {
                let choice = FormatChoice {
                    mcf_a: MatrixFormat::Csr,
                    mcf_b: *mcf_b,
                    acf_a: MatrixFormat::Csr,
                    acf_b: MatrixFormat::Csr,
                };
                let run = sys.run(&a, &b, &w, Some(&choice));
                assert_eq!(
                    run.err(),
                    Some(RunError::Format(err.clone())),
                    "{choice} on a {}x{} B",
                    b.rows(),
                    b.cols()
                );
            }
        }
        assert!(sys.planner.cache.is_empty(), "a failed pin caches nothing");
        assert_eq!(sys.planner.cache.misses(), 4);
    }

    #[test]
    fn rlc_streaming_operand_with_zero_columns_runs_on_every_acf() {
        // A 3x0 . 0x4 job whose A sits in memory as RLC: MINT decodes the
        // empty run stream for every ACF instead of dividing by zero.
        let a = CooMatrix::empty(3, 0);
        let b = CooMatrix::empty(0, 4);
        let w = workload_from(&a, &b, true);
        let sys = FlexSystem::default();
        let pairs = MatrixFormat::acf_set()
            .map(|acf_a| (acf_a, MatrixFormat::Csc))
            .into_iter()
            .chain([(MatrixFormat::Csr, MatrixFormat::Csr)]);
        for (acf_a, acf_b) in pairs {
            let choice = FormatChoice {
                mcf_a: MatrixFormat::Rlc { run_bits: 4 },
                mcf_b: MatrixFormat::Csr,
                acf_a,
                acf_b,
            };
            let run = sys
                .run(&a, &b, &w, Some(&choice))
                .unwrap_or_else(|e| panic!("{choice}: {e}"));
            assert_eq!(run.output, DenseMatrix::zeros(3, 4), "{choice}");
        }
    }
}
