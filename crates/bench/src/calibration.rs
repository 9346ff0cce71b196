//! Calibration exhibit — the online calibration loop's error trajectory.
//!
//! Repeated traffic through plan → execute →
//! [`recalibrate`](sparseflex_core::Calibrator::recalibrate) rounds,
//! recording the mean predicted-vs-measured cycle error per round: round
//! 0 is the uncalibrated analytic model, and the fitted coefficients
//! strictly tighten it.
//!
//! Rendered as `results/calibration.csv` and the machine-readable
//! `results/BENCH_calibration.json` snapshot CI uploads.

use crate::pipeline::bench_system;
use sparseflex_core::Planner;
use sparseflex_formats::{DataType, SparseMatrix};
use sparseflex_sage::SageWorkload;
use sparseflex_workloads::synth::random_matrix;

/// One calibration round's error snapshot.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationRound {
    /// Round index (0 = uncalibrated).
    pub round: usize,
    /// Calibration generation the round's plans were made under.
    pub generation: u64,
    /// Mean per-tile relative cycle error across the round's executed
    /// plans ([`PipelineRun::mean_cycle_error`]).
    ///
    /// [`PipelineRun::mean_cycle_error`]: sparseflex_core::PipelineRun::mean_cycle_error
    pub mean_cycle_error: f64,
}

/// The full calibration measurement.
#[derive(Debug, Clone)]
pub struct CalibrationMeasurement {
    /// Per-round calibration error (round 0 = uncalibrated).
    pub rounds: Vec<CalibrationRound>,
}

/// Number of calibration rounds the exhibit executes after the
/// uncalibrated baseline round (the acceptance bar is ≥ 3).
const CALIBRATION_ROUNDS: usize = 3;

/// Measure the whole exhibit once.
pub fn measure() -> CalibrationMeasurement {
    let sys = bench_system();

    // Repeated traffic over three small shapes, one recalibration per
    // round. Round 0 is the uncalibrated model.
    let planner = Planner::default();
    let shapes = [
        (48usize, 48usize, 40usize, 600usize, 700usize),
        (64, 64, 48, 400, 500),
        (56, 72, 40, 300, 350),
    ];
    let operands: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n, nnz_a, nnz_b))| {
            let a = random_matrix(m, k, nnz_a, 1_000 + i as u64);
            let b = random_matrix(k, n, nnz_b, 2_000 + i as u64);
            let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
            (a, b, w)
        })
        .collect();
    let mut rounds = Vec::with_capacity(CALIBRATION_ROUNDS + 1);
    for round in 0..=CALIBRATION_ROUNDS {
        let generation = planner.calibrator.generation();
        let mut err_sum = 0.0;
        for (a, b, w) in &operands {
            let plan = planner
                .plan(&sys.sage, a, b, w, None)
                .expect("calibration shape plans");
            let run = planner
                .execute_plan(&sys.sage, &plan, a, b)
                .expect("calibration shape executes");
            err_sum += run.mean_cycle_error();
        }
        rounds.push(CalibrationRound {
            round,
            generation,
            mean_cycle_error: err_sum / operands.len() as f64,
        });
        if round < CALIBRATION_ROUNDS {
            planner.calibrator.recalibrate();
        }
    }

    CalibrationMeasurement { rounds }
}

/// CSV rows (the `results/calibration.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement as the CSV exhibit.
pub fn rows_from(m: &CalibrationMeasurement) -> Vec<String> {
    let mut out = vec![
        "# calibration error per round (round 0 = uncalibrated)".to_string(),
        "calibration_round,generation,mean_cycle_error".to_string(),
    ];
    for r in &m.rounds {
        out.push(format!(
            "{},{},{:.6}",
            r.round, r.generation, r.mean_cycle_error
        ));
    }
    out
}

/// The machine-readable perf snapshot (`results/BENCH_calibration.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &CalibrationMeasurement) -> String {
    let mut out = String::from("{\n  \"calibration\": [\n");
    for (i, r) in m.rounds.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"round\": {}, \"generation\": {}, \"mean_cycle_error\": {:.6}}}{}\n",
            r.round,
            r.generation,
            r.mean_cycle_error,
            if i + 1 < m.rounds.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_strictly_tightens_prediction_error() {
        let m = measure();
        assert_eq!(m.rounds.len(), CALIBRATION_ROUNDS + 1);
        let uncalibrated = m.rounds[0].mean_cycle_error;
        let last = m.rounds.last().unwrap();
        assert_eq!(m.rounds[0].generation, 0);
        assert_eq!(last.generation, CALIBRATION_ROUNDS as u64);
        assert!(
            last.mean_cycle_error < uncalibrated,
            "after {} rounds the error must strictly shrink: {} vs {}",
            CALIBRATION_ROUNDS,
            last.mean_cycle_error,
            uncalibrated
        );
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let json = snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"calibration\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
