//! The `ExecutionPlan` IR: everything the system decides *before* it
//! touches the accelerator, captured as one typed value.
//!
//! The paper's architecture (Fig. 1b) is plan-then-run: SAGE picks the
//! MCF/ACF pair, MINT is configured, and only then does the accelerator
//! execute. This module is that boundary made explicit. A plan records,
//! per job:
//!
//! - the chosen MCF/ACF per operand and SAGE's full cost breakdown (the
//!   [`Evaluation`] budget),
//! - the stationary-operand column-tile schedule (the tiler's exported
//!   [`ColumnSchedule`]),
//! - the predicted MINT-conversion / compute overlap schedule (the
//!   per-tile cycle lanes folded by `mint::tiled::overlap_schedule`).
//!
//! Executing a plan yields a [`PipelineRun`](crate::PipelineRun), whose
//! measured tiles sit beside this prediction, so the cost model is
//! *validated* on every run, not assumed. [`ExecutionPlan::explain`]
//! renders the whole decision as a human-readable dump (see
//! `examples/plan_explain.rs`).

use crate::calibrate::Coefficients;
use sparseflex_formats::ColumnSchedule;
use sparseflex_mint::OverlapSchedule;
use sparseflex_sage::eval::Evaluation;
use sparseflex_sage::{FormatChoice, SageKernel, SageWorkload};
use std::fmt::Write as _;

/// The dataflow a plan executes under (decided by the ACF pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataflow {
    /// CSR(A) x CSR(B) row-wise product (Gustavson) on the sparse PEs.
    GustavsonSpGemm,
    /// The weight-stationary array (B stationary, A streamed).
    WeightStationary,
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dataflow::GustavsonSpGemm => write!(f, "Gustavson SpGEMM"),
            Dataflow::WeightStationary => write!(f, "weight-stationary"),
        }
    }
}

/// The planner's a-priori cycle picture of one job, tile by tile: SAGE's
/// analytic whole-operand totals, scaled by the calibrator's
/// coefficients and split across tiles by stored-nonzero weight.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPrediction {
    /// The calibration coefficients every lane below was scaled by.
    pub coefficients: Coefficients,
    /// Predicted MINT cycles to convert the streaming operand A
    /// (pipeline prologue; hidden only behind A's own DRAM fetch).
    pub conv_a_cycles: u64,
    /// Predicted MINT conversion cycles per stationary tile.
    pub per_tile_conv: Vec<u64>,
    /// Predicted accelerator compute cycles per stationary tile.
    pub per_tile_compute: Vec<u64>,
    /// The two lanes folded into predicted overlapped vs serial totals.
    pub schedule: OverlapSchedule,
}

impl PlanPrediction {
    /// Predicted compute cycles summed over all tiles.
    pub fn compute_cycles(&self) -> u64 {
        self.per_tile_compute.iter().sum()
    }

    /// Predicted stationary-operand conversion cycles summed over all
    /// tiles (excludes the A prologue).
    pub fn conversion_cycles(&self) -> u64 {
        self.per_tile_conv.iter().sum()
    }
}

/// One job's complete pre-execution decision record.
///
/// Produced by `Planner::plan`, consumed by `Planner::execute_plan`;
/// the evaluation half is what the bounded plan cache stores and reuses
/// across jobs with equal workload statistics and hardware config.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// The workload statistics the plan was made for (the cache key's
    /// workload half).
    pub workload: SageWorkload,
    /// SAGE's winning (or caller-pinned) evaluation: format choice plus
    /// the predicted DRAM/conversion/compute budget.
    pub evaluation: Evaluation,
    /// The dataflow the ACF pair selects.
    pub dataflow: Dataflow,
    /// Column-tile schedule of the stationary operand.
    pub schedule: ColumnSchedule,
    /// Per-tile cycle prediction.
    pub predicted: PlanPrediction,
    /// True when the evaluation was served from the plan cache rather
    /// than searched.
    pub from_cache: bool,
    /// The calibration generation whose coefficients scaled the
    /// prediction (0 = the uncalibrated analytic model), read under the
    /// same lock as `predicted.coefficients`.
    pub calibration_generation: u64,
}

impl ExecutionPlan {
    /// The format choice the plan executes.
    pub fn choice(&self) -> &FormatChoice {
        &self.evaluation.choice
    }

    /// Number of stationary column tiles the plan schedules.
    pub fn tiles(&self) -> usize {
        self.schedule.len()
    }

    /// Human-readable plan dump: workload, decision, schedule, budget.
    ///
    /// The paper's SAGE answers *which* formats; `explain` also answers
    /// *why the runtime will behave as it does* — tile count and policy,
    /// the predicted overlap, and whether the decision was cached.
    pub fn explain(&self) -> String {
        let w = &self.workload;
        let e = &self.evaluation;
        let kernel = match w.kernel {
            SageKernel::SpMm => "SpMM",
            SageKernel::SpGemm => "SpGEMM",
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ExecutionPlan: {kernel} {}x{}x{} (nnz_a={}, nnz_b={}, {:?})",
            w.m, w.k, w.n, w.nnz_a, w.nnz_b, w.dtype
        );
        let _ = writeln!(
            out,
            "  densities  : A {:.4}%  B {:.4}%",
            w.density_a() * 100.0,
            w.density_b() * 100.0
        );
        let _ = writeln!(
            out,
            "  choice     : {}  [{}]",
            e.choice,
            if self.from_cache {
                "plan-cache hit"
            } else {
                "searched"
            }
        );
        let _ = writeln!(out, "  dataflow   : {}", self.dataflow);
        let _ = writeln!(
            out,
            "  tiles      : {} column tile(s), policy {} ({} stored nnz, widest {})",
            self.schedule.len(),
            self.schedule.policy,
            self.schedule.total_nnz(),
            self.schedule.max_width()
        );
        let _ = writeln!(
            out,
            "  budget     : dram {:.0}cy + conv {:.0}cy + compute {:.0}cy = {:.0}cy, \
             {:.3e} J, utilization {:.1}%",
            e.dram_cycles,
            e.conv_cycles,
            e.compute_cycles,
            e.total_cycles(),
            e.total_energy(),
            e.utilization * 100.0
        );
        let s = &self.predicted.schedule;
        let _ = writeln!(
            out,
            "  overlap    : predicted {} overlapped vs {} serial ({:.3}x, {} hidden) \
             + {}cy A-conversion prologue",
            s.overlapped_cycles,
            s.serial_cycles,
            s.speedup(),
            s.hidden_cycles(),
            self.predicted.conv_a_cycles
        );
        let _ = writeln!(
            out,
            "  calibration: generation {}{}",
            self.calibration_generation,
            if self.calibration_generation == 0 {
                " (uncalibrated analytic model)"
            } else {
                ""
            }
        );
        out
    }
}
