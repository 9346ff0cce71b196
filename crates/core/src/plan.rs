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
//! Executing a plan yields a [`PlanTrace`] — predicted vs measured
//! cycles per tile — so the cost model is *validated* on every run, not
//! assumed. [`ExecutionPlan::explain`] renders the whole decision as a
//! human-readable dump (see `examples/plan_explain.rs`).

use sparseflex_formats::ColumnSchedule;
use sparseflex_mint::OverlapSchedule;
use sparseflex_sage::eval::Evaluation;
use sparseflex_sage::{FormatChoice, SageKernel, SageWorkload};
use std::fmt::Write as _;

/// Which cost model the planner used to fill a plan's prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// SAGE's analytic models over workload statistics (cheap; per-tile
    /// cycles are whole-operand totals split by tile nonzero weight).
    #[default]
    Stats,
    /// A planning-time dry run over the *actual operand structure*: each
    /// tile is converted and simulated once while planning, so the
    /// prediction matches the measured execution cycle-for-cycle. This
    /// is the model-validation oracle — it costs one extra execution.
    Structure,
}

impl std::fmt::Display for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostModel::Stats => write!(f, "stats"),
            CostModel::Structure => write!(f, "structure"),
        }
    }
}

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

/// The planner's a-priori cycle picture of one job, tile by tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPrediction {
    /// Cost model that produced the numbers.
    pub cost_model: CostModel,
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
    /// The calibration generation the stats prediction was scaled under
    /// (0 = the uncalibrated analytic model). Part of the plan-cache
    /// key: a recalibration bump invalidates rows planned under older
    /// coefficients.
    pub calibration_generation: u64,
}

impl ExecutionPlan {
    /// The format choice the plan executes.
    pub fn choice(&self) -> &FormatChoice {
        &self.evaluation.choice
    }

    /// Stable fingerprint of the plan's four format descriptors — the
    /// format identity plan caches and persisted artifacts key on (equal
    /// for the enum and descriptor spellings of the same choice, and
    /// independent of the legacy enums' representation).
    pub fn choice_fingerprint(&self) -> u64 {
        self.evaluation.choice.descriptor_fingerprint()
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
            "  choice     : {}  [{}]  fp 0x{:016x}",
            e.choice,
            if self.from_cache {
                "plan-cache hit"
            } else {
                "searched"
            },
            self.choice_fingerprint()
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
             + {}cy A-conversion prologue  [{} model]",
            s.overlapped_cycles,
            s.serial_cycles,
            s.speedup(),
            s.hidden_cycles(),
            self.predicted.conv_a_cycles,
            self.predicted.cost_model
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

/// Predicted vs measured cycles for one executed stationary tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCompare {
    /// First stationary column of the tile.
    pub col_start: usize,
    /// One past the last stationary column of the tile.
    pub col_end: usize,
    /// Planner-predicted MINT conversion cycles.
    pub predicted_conv_cycles: u64,
    /// Measured MINT conversion cycles (pipelined wall clock).
    pub measured_conv_cycles: u64,
    /// Planner-predicted accelerator compute cycles.
    pub predicted_compute_cycles: u64,
    /// Measured accelerator compute cycles.
    pub measured_compute_cycles: u64,
}

/// The validation record every executed plan yields: the plan's
/// prediction lanes against what `accel::exec` actually measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTrace {
    /// Cost model the prediction side came from.
    pub cost_model: CostModel,
    /// Per-tile comparison, in execution order.
    pub tiles: Vec<TileCompare>,
    /// The predicted double-buffered schedule (from the plan).
    pub predicted_schedule: OverlapSchedule,
    /// The measured double-buffered schedule (from execution).
    pub measured_schedule: OverlapSchedule,
}

impl PlanTrace {
    /// Predicted compute cycles summed over all tiles.
    pub fn predicted_compute_cycles(&self) -> u64 {
        self.tiles.iter().map(|t| t.predicted_compute_cycles).sum()
    }

    /// Measured compute cycles summed over all tiles.
    pub fn measured_compute_cycles(&self) -> u64 {
        self.tiles.iter().map(|t| t.measured_compute_cycles).sum()
    }

    /// True when every tile's predicted compute cycles equal the
    /// measured ones exactly (the [`CostModel::Structure`] guarantee).
    pub fn compute_exact(&self) -> bool {
        self.tiles
            .iter()
            .all(|t| t.predicted_compute_cycles == t.measured_compute_cycles)
    }

    /// Mean per-tile relative cycle error: the average over tiles of
    /// `|predicted − measured| / max(measured, 1)`, with conversion and
    /// compute lanes summed per tile (0.0 for a perfect prediction or
    /// an empty trace). The scalar the calibration loop drives down.
    pub fn mean_cycle_error(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .tiles
            .iter()
            .map(|t| {
                let p = (t.predicted_conv_cycles + t.predicted_compute_cycles) as f64;
                let m = (t.measured_conv_cycles + t.measured_compute_cycles) as f64;
                (p - m).abs() / m.max(1.0)
            })
            .sum();
        sum / self.tiles.len() as f64
    }

    /// Multiplicative total-compute error: `max(p, m) / min(p, m)` over
    /// the summed compute cycles (1.0 for a perfect prediction; also 1.0
    /// when both sides are zero, e.g. empty operands).
    pub fn compute_error_factor(&self) -> f64 {
        let p = self.predicted_compute_cycles() as f64;
        let m = self.measured_compute_cycles() as f64;
        if p == 0.0 && m == 0.0 {
            return 1.0;
        }
        if p == 0.0 || m == 0.0 {
            return f64::INFINITY;
        }
        (p / m).max(m / p)
    }
}
