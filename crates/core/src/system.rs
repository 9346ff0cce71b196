//! The integrated system: SAGE planning, MINT conversion, accelerator
//! execution.

use crate::plan::{ExecutionPlan, PlanTrace};
use crate::planner::{PlanDiscipline, Planner};
use sparseflex_accel::exec::{simulate_ws, SimError, SimResult};
use sparseflex_accel::taxonomy::AcceleratorClass;
use sparseflex_formats::{
    csr_from_stream, encode_with_descriptor, CooMatrix, CsrMatrix, DenseMatrix, FormatDescriptor,
    FormatError, MatrixData, MatrixEncoding, MatrixFormat, SparseMatrix,
};
use sparseflex_mint::ConversionReport;
use sparseflex_sage::eval::ConversionMode;
use sparseflex_sage::{DescriptorChoice, Evaluation, FormatChoice, Sage, SageWorkload};
use std::fmt;

/// Errors an end-to-end run can raise, typed so callers can distinguish
/// the recoverable cases from genuine misconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// An indivisible stationary unit (one compressed column or row of
    /// the stationary operand) needs more PE-buffer slots than exist.
    ///
    /// Usually **recoverable** (see [`RunError::is_recoverable`]): the
    /// tile-grained pipeline ([`FlexSystem::run_pipelined`] /
    /// [`FlexSystem::run_batch`]) splits the stationary operand into
    /// column tiles until every unit fits, so the same workload runs
    /// there. Only a buffer too small for even a single compressed pair
    /// (`available < 2`) cannot be tiled around.
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
    /// Encoding or converting an operand failed structurally.
    Format(FormatError),
}

impl RunError {
    /// True when retrying through the tiled pipeline can succeed: the
    /// stationary operand merely exceeded one scratchpad residency, and
    /// the buffer can hold at least one compressed `(index, value)` pair
    /// — the narrowest unit column tiling can produce. A buffer below two
    /// slots cannot be fixed by any tiling, so it is reported as
    /// unrecoverable (retry loops would fail identically forever).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, RunError::StationaryTooLarge { available, .. } if *available >= 2)
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::StationaryTooLarge { needed, available } => {
                let hint = if *available >= 2 {
                    " (recoverable: run through the tiled pipeline)"
                } else {
                    ""
                };
                write!(
                    f,
                    "stationary unit needs {needed} slots, PE buffer has {available}{hint}"
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
    /// [`ExecutionPlan`]s, owns the bounded LRU plan cache (shared
    /// across entry points, batch calls and worker threads), and
    /// executes plans on the accelerator.
    pub planner: Planner,
}

/// The analytic plan SAGE produces for a workload.
#[derive(Debug, Clone)]
pub struct SystemPlan {
    /// The winning evaluation (choice + breakdown).
    pub evaluation: Evaluation,
    /// Candidates SAGE searched.
    pub candidates: usize,
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

/// Result of a functional end-to-end run.
#[derive(Debug)]
pub struct FunctionalRun {
    /// MINT conversion report for operand A (empty when MCF == ACF).
    pub conv_a: ConversionReport,
    /// MINT conversion report for operand B.
    pub conv_b: ConversionReport,
    /// Cycle-accurate simulation result (output + cycles + activity).
    pub sim: SimResult,
    /// The monolithic (single-tile) plan the run executed.
    pub plan: ExecutionPlan,
    /// Predicted vs measured cycles for the executed plan.
    pub trace: PlanTrace,
}

impl FunctionalRun {
    /// The evaluation the run executed (SAGE's choice or the caller's).
    pub fn evaluation(&self) -> &Evaluation {
        &self.plan.evaluation
    }
}

/// Result of an end-to-end run whose memory formats were open
/// descriptor compositions (see [`FlexSystem::run_custom_mcf`]).
#[derive(Debug)]
pub struct CustomRun {
    /// Operand A as encoded per its memory descriptor.
    pub mcf_a: MatrixEncoding,
    /// Operand B as encoded per its memory descriptor.
    pub mcf_b: MatrixEncoding,
    /// Exact storage footprint of A's memory encoding (bits).
    pub mcf_a_bits: u64,
    /// Exact storage footprint of B's memory encoding (bits).
    pub mcf_b_bits: u64,
    /// Cycle-accurate simulation result (output + cycles + activity).
    pub sim: SimResult,
}

impl CustomRun {
    /// The computed output.
    pub fn output(&self) -> &DenseMatrix {
        &self.sim.output
    }
}

impl FlexSystem {
    /// Build a system around a configured SAGE instance.
    pub fn new(sage: Sage) -> Self {
        FlexSystem {
            sage,
            planner: Planner::default(),
        }
    }

    /// Analytic plan: SAGE searches the full MCF x ACF space.
    pub fn plan(&self, w: &SageWorkload) -> SystemPlan {
        let rec = self.sage.recommend(w);
        SystemPlan {
            evaluation: rec.best,
            candidates: rec.candidates,
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

    /// Functional end-to-end run on real (small) operands:
    ///
    /// 1. The [`Planner`] plans the job: SAGE's MCF/ACF choice (cached
    ///    or searched) captured in a single-tile [`ExecutionPlan`].
    /// 2. Operands are *stored* in their MCFs (as they would arrive from
    ///    DRAM).
    /// 3. MINT's block engine converts MCF → ACF — the **whole** operand
    ///    at once, strictly before compute.
    /// 4. The cycle-accurate WS simulator executes the kernel.
    ///
    /// This is the monolithic (serial) path: operands must fit one
    /// scratchpad residency, or the run fails with the recoverable
    /// [`RunError::StationaryTooLarge`] — which the tile-grained
    /// [`FlexSystem::run_pipelined`] renders unreachable by splitting the
    /// stationary operand. Internally it is the same planner + executor
    /// as every other run path, scheduled with one tile spanning all
    /// stationary columns.
    pub fn run_functional(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        w: &SageWorkload,
    ) -> Result<FunctionalRun, RunError> {
        let plan = self
            .planner
            .plan_job(&self.sage, a, b, w, PlanDiscipline::Monolithic)?;
        self.execute_monolithic(&plan, a, b)
    }

    /// [`run_functional`](Self::run_functional) with the format choice
    /// pinned by the caller instead of planned by SAGE (the evaluation is
    /// carried through to the result unchanged).
    pub fn run_with_choice(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        evaluation: Evaluation,
    ) -> Result<FunctionalRun, RunError> {
        let w = Planner::derive_workload(&self.sage, a, b, &evaluation.choice);
        let plan = self.planner.plan_pinned(
            &self.sage,
            a,
            b,
            w,
            evaluation,
            PlanDiscipline::Monolithic,
        )?;
        self.execute_monolithic(&plan, a, b)
    }

    /// [`run_functional`](Self::run_functional) with the four formats
    /// pinned by the caller: SAGE evaluates (or serves from cache) that
    /// exact choice instead of searching. Cache rows are keyed on the
    /// choice's descriptor fingerprint, so this entry point and
    /// [`run_with_descriptors`](Self::run_with_descriptors) share them.
    pub fn run_with_formats(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        w: &SageWorkload,
        choice: &FormatChoice,
    ) -> Result<FunctionalRun, RunError> {
        let plan = self.planner.plan_with_formats(
            &self.sage,
            a,
            b,
            w,
            choice,
            PlanDiscipline::Monolithic,
        )?;
        self.execute_monolithic(&plan, a, b)
    }

    /// The descriptor spelling of [`run_with_formats`](Self::run_with_formats):
    /// preset descriptors translate to the legacy choice and hit the
    /// same plan-cache rows. Open (non-preset) compositions are MCF-only
    /// constructs — run them through
    /// [`run_custom_mcf`](Self::run_custom_mcf) instead.
    pub fn run_with_descriptors(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        w: &SageWorkload,
        choice: &DescriptorChoice,
    ) -> Result<FunctionalRun, RunError> {
        let legacy =
            choice
                .to_format_choice()
                .ok_or(RunError::Format(FormatError::Unsupported(
                    "open compositions have no compute-format mapping; use run_custom_mcf",
                )))?;
        self.run_with_formats(a, b, w, &legacy)
    }

    /// Execute a workload whose **memory formats** are open descriptor
    /// compositions (no legacy enum name required): each operand is
    /// encoded exactly per its descriptor
    /// ([`CustomMatrix`](sparseflex_formats::CustomMatrix) level
    /// storage for non-presets), decoded through the format-agnostic
    /// fiber stream into the accelerator's CSR×Dense compute formats,
    /// and run on the cycle-accurate weight-stationary simulator.
    pub fn run_custom_mcf(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        mcf_a: &FormatDescriptor,
        mcf_b: &FormatDescriptor,
    ) -> Result<CustomRun, RunError> {
        if a.cols() != b.rows() {
            return Err(RunError::ShapeMismatch {
                a_cols: a.cols(),
                b_rows: b.rows(),
            });
        }
        let a_mem = encode_with_descriptor(a, mcf_a)?;
        let b_mem = encode_with_descriptor(b, mcf_b)?;
        let dtype = self.sage.accel.dtype;
        let (mcf_a_bits, mcf_b_bits) = (a_mem.storage_bits(dtype), b_mem.storage_bits(dtype));
        // MCF -> ACF: decode each operand's fiber stream into the
        // compute formats (CSR streaming, dense stationary).
        let a_acf = MatrixData::Csr(csr_from_stream(a_mem.row_stream()));
        let mut b_dense = DenseMatrix::zeros(b.rows(), b.cols());
        b_mem.row_stream().for_each_nnz(&mut |r, c, v| {
            b_dense.set(r, c, v);
        });
        let b_acf = MatrixData::Dense(b_dense);
        let sim = simulate_ws(&a_acf, &b_acf, &self.sage.accel)?;
        Ok(CustomRun {
            mcf_a: a_mem,
            mcf_b: b_mem,
            mcf_a_bits,
            mcf_b_bits,
            sim,
        })
    }

    /// Execute a monolithic (single-tile) plan and repackage the one
    /// tile's results in the classic [`FunctionalRun`] shape.
    #[expect(
        clippy::expect_used,
        reason = "a monolithic plan schedules exactly one tile (TilePolicy::Whole)"
    )]
    fn execute_monolithic(
        &self,
        plan: &ExecutionPlan,
        a: &CooMatrix,
        b: &CooMatrix,
    ) -> Result<FunctionalRun, RunError> {
        let run = self.planner.execute_plan(&self.sage, plan, a, b)?;
        let tile = run
            .tiles
            .into_iter()
            .next()
            .expect("a monolithic plan schedules exactly one tile");
        Ok(FunctionalRun {
            conv_a: run.conv_a,
            conv_b: tile.conv,
            sim: SimResult {
                output: run.output,
                cycles: tile.compute,
                counts: tile.counts,
                n_tiles: tile.array_col_tiles,
                k_passes: tile.k_passes,
            },
            plan: run.plan,
            trace: run.trace,
        })
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
        let ours = self.plan(w).evaluation.edp(clock);
        self.compare_classes(w)
            .into_iter()
            .map(|c| (c.class_name, c.best.map(|b| b.edp(clock) / ours)))
            .collect()
    }

    /// The conversion mode this system uses (hardware MINT).
    pub fn conversion_mode(&self) -> ConversionMode {
        ConversionMode::Hardware
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
        let run = sys.run_functional(&a, &b, &w).unwrap();
        let expect =
            sparseflex_kernels::gemm::gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(
            run.sim.output.approx_eq(&expect, 1e-9),
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
        let run = sys.run_functional(&a, &b, &w).unwrap();
        let expect =
            sparseflex_kernels::gemm::gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(run.sim.output.approx_eq(&expect, 1e-9));
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
        let plan = sys.plan(&w);
        assert!(plan.candidates > 50);
        assert!(plan.evaluation.total_cycles() > 0.0);
    }
}
