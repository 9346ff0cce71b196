//! Online calibration of the stats cost model from executed runs.
//!
//! Every executed plan yields a [`PipelineRun`] whose measured tiles sit
//! beside the planner's per-tile prediction. The [`Calibrator`] closes
//! that loop: it folds the (predicted, measured) pairs of each
//! cost-model *lane* — MINT conversion, weight-stationary compute,
//! Gustavson SpGEMM compute — into that lane's running sums and refits a
//! multiplicative coefficient per lane by least squares, so repeated
//! traffic tightens the stats model toward the machine it actually runs
//! on.
//!
//! The fit is a slope through the origin: measured ≈ c · predicted, with
//! `c = Σ p·m / Σ p²` minimizing the squared residual. Those two sums are
//! all a lane keeps, so memory stays constant, recording never
//! allocates, and every sample ever recorded weighs in the next refit.
//! Predictions are summed **de-scaled** (divided by the coefficients the
//! plan was scaled with), so samples stay in raw model units across
//! generations, the fit never compounds its own corrections, and a plan
//! executed after a refit counts in the same units as one executed
//! before it.
//!
//! [`Calibrator::recalibrate`] bumps a generation counter, and
//! [`ExecutionPlan::explain`] prints the generation whose coefficients
//! scaled a plan. The plan cache does not depend on it: a cached SAGE
//! evaluation reads no coefficient, and every plan is scaled by the
//! coefficients current when it is made, whether its evaluation is
//! cached or searched.
//!
//! [`PipelineRun`]: crate::PipelineRun
//! [`ExecutionPlan::explain`]: crate::plan::ExecutionPlan::explain

use crate::lock_clean;
use crate::plan::Dataflow;
use std::sync::Mutex;

/// Multiplicative corrections applied to the stats model's cycle lanes
/// (1.0 = the uncalibrated analytic model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Scales MINT conversion-cycle predictions (both operands).
    pub conv: f64,
    /// Scales compute-cycle predictions for weight-stationary plans.
    pub compute_ws: f64,
    /// Scales compute-cycle predictions for Gustavson SpGEMM plans.
    pub compute_spgemm: f64,
}

impl Default for Coefficients {
    fn default() -> Self {
        Coefficients {
            conv: 1.0,
            compute_ws: 1.0,
            compute_spgemm: 1.0,
        }
    }
}

impl Coefficients {
    /// The compute coefficient for a plan's dataflow.
    pub fn compute(&self, dataflow: Dataflow) -> f64 {
        match dataflow {
            Dataflow::GustavsonSpGemm => self.compute_spgemm,
            Dataflow::WeightStationary => self.compute_ws,
        }
    }
}

/// One lane's regression state: the sample count and the two sums the
/// slope reads, each added to in recording order.
#[derive(Debug, Clone, Default)]
struct LaneSums {
    samples: usize,
    /// Σ p² over the raw predictions.
    spp: f64,
    /// Σ p·m over the (raw predicted, measured) pairs.
    spm: f64,
}

impl LaneSums {
    fn push(&mut self, raw_predicted: f64, measured: f64) {
        self.samples += 1;
        self.spp += raw_predicted * raw_predicted;
        self.spm += raw_predicted * measured;
    }

    /// Least-squares slope through the origin, `None` when the lane has
    /// no informative samples (all-zero predictions fit any slope).
    fn slope(&self) -> Option<f64> {
        if self.spp <= 0.0 {
            return None;
        }
        let c = self.spm / self.spp;
        (c.is_finite() && c > 0.0).then_some(c)
    }
}

#[derive(Debug, Clone, Default)]
struct CalState {
    generation: u64,
    coeffs: Coefficients,
    conv: LaneSums,
    compute_ws: LaneSums,
    compute_spgemm: LaneSums,
}

/// Accumulates executed runs and refits the stats cost model's per-lane
/// coefficients by least squares (see the module docs). Thread-safe and
/// shared by reference, like the plan cache beside it.
#[derive(Debug, Default)]
pub struct Calibrator {
    state: Mutex<CalState>,
}

impl Clone for Calibrator {
    fn clone(&self) -> Self {
        Calibrator {
            state: Mutex::new(lock_clean(&self.state).clone()),
        }
    }
}

impl Calibrator {
    /// The calibration generation: 0 until the first
    /// [`recalibrate`](Self::recalibrate), bumped by one per refit.
    pub fn generation(&self) -> u64 {
        lock_clean(&self.state).generation
    }

    /// The current generation and the coefficients it names, read under
    /// one lock, so a plan scaled by these coefficients records the
    /// generation that produced them.
    pub fn current(&self) -> (u64, Coefficients) {
        let s = lock_clean(&self.state);
        (s.generation, s.coeffs)
    }

    /// Total (predicted, measured) pairs recorded across lanes.
    pub fn samples(&self) -> usize {
        let s = lock_clean(&self.state);
        s.conv.samples + s.compute_ws.samples + s.compute_spgemm.samples
    }

    /// Record one executed plan: per tile, the (predicted, measured)
    /// cycles of the conversion lane and of the compute lane (see
    /// `PipelineRun::lane_cycles`). Each tile contributes one sample to
    /// the conversion lane and one to `dataflow`'s compute lane.
    /// Predictions are divided by `coeffs`, the coefficients the plan was
    /// scaled with, so the sums stay in raw model units even when a refit
    /// lands between planning and execution.
    pub(crate) fn record(
        &self,
        dataflow: Dataflow,
        coeffs: &Coefficients,
        tiles: impl IntoIterator<Item = [(u64, u64); 2]>,
    ) {
        let c_conv = coeffs.conv.max(f64::MIN_POSITIVE);
        let c_comp = coeffs.compute(dataflow).max(f64::MIN_POSITIVE);
        let mut s = lock_clean(&self.state);
        for [(p_conv, m_conv), (p_comp, m_comp)] in tiles {
            s.conv.push(p_conv as f64 / c_conv, m_conv as f64);
            let lane = match dataflow {
                Dataflow::GustavsonSpGemm => &mut s.compute_spgemm,
                Dataflow::WeightStationary => &mut s.compute_ws,
            };
            lane.push(p_comp as f64 / c_comp, m_comp as f64);
        }
    }

    /// Refit every lane's coefficient from the accumulated samples and
    /// bump the calibration generation (lanes without informative
    /// samples keep their current coefficient). Returns the new
    /// coefficients.
    pub fn recalibrate(&self) -> Coefficients {
        let mut s = lock_clean(&self.state);
        if let Some(c) = s.conv.slope() {
            s.coeffs.conv = c;
        }
        if let Some(c) = s.compute_ws.slope() {
            s.coeffs.compute_ws = c;
        }
        if let Some(c) = s.compute_spgemm.slope() {
            s.coeffs.compute_spgemm = c;
        }
        s.generation += 1;
        s.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-tile lane pairs whose measured cycles are exactly `factor` ×
    /// the predicted ones in both lanes.
    fn scaled_tiles(predicted: &[(u64, u64)], factor: f64) -> Vec<[(u64, u64); 2]> {
        predicted
            .iter()
            .map(|&(conv, comp)| {
                [
                    (conv, (conv as f64 * factor) as u64),
                    (comp, (comp as f64 * factor) as u64),
                ]
            })
            .collect()
    }

    #[test]
    fn recalibration_recovers_a_uniform_scale_factor() {
        let cal = Calibrator::default();
        cal.record(
            Dataflow::WeightStationary,
            &Coefficients::default(),
            scaled_tiles(&[(100, 1_000), (240, 2_200), (60, 800)], 1.5),
        );
        let c = cal.recalibrate();
        assert!((c.conv - 1.5).abs() < 1e-12, "conv slope {}", c.conv);
        assert!((c.compute_ws - 1.5).abs() < 1e-12);
        assert_eq!(c.compute_spgemm, 1.0, "untouched lane keeps identity");
    }

    #[test]
    fn generations_count_refits() {
        let cal = Calibrator::default();
        assert_eq!(cal.generation(), 0);
        cal.recalibrate();
        cal.recalibrate();
        assert_eq!(cal.generation(), 2);
        // No samples: coefficients stay identity.
        assert_eq!(cal.current(), (2, Coefficients::default()));
    }

    #[test]
    fn descaling_keeps_samples_in_raw_units_across_generations() {
        let cal = Calibrator::default();
        // Round 1: raw model underpredicts 2x.
        cal.record(
            Dataflow::WeightStationary,
            &Coefficients::default(),
            scaled_tiles(&[(100, 500)], 2.0),
        );
        let c1 = cal.recalibrate();
        assert!((c1.compute_ws - 2.0).abs() < 1e-12);
        // Round 2: the *planner* now predicts with the 2.0 coefficient
        // applied, so a perfectly-calibrated run has predicted ==
        // measured. De-scaling must map it back to raw units and keep
        // the slope at 2.0 instead of compounding to 4.0.
        cal.record(
            Dataflow::WeightStationary,
            &c1,
            scaled_tiles(&[(200, 1_000)], 1.0),
        );
        let c2 = cal.recalibrate();
        assert!(
            (c2.compute_ws - 2.0).abs() < 1e-9,
            "slope compounded: {}",
            c2.compute_ws
        );
        assert_eq!(cal.generation(), 2);
    }

    /// No sample is dropped: past 4,096 per lane, a sample still counts
    /// and still moves the slope.
    #[test]
    fn a_sample_past_4096_still_moves_the_slope() {
        let cal = Calibrator::default();
        let on_the_line: Vec<(u64, u64)> = (1..=4096).map(|i| (i, i)).collect();
        cal.record(
            Dataflow::WeightStationary,
            &Coefficients::default(),
            scaled_tiles(&on_the_line, 1.0),
        );
        assert_eq!(cal.recalibrate().compute_ws, 1.0);
        cal.record(
            Dataflow::WeightStationary,
            &Coefficients::default(),
            scaled_tiles(&[(4097, 4097)], 1_000.0),
        );
        assert_eq!(cal.samples(), 2 * 4097);
        let c = cal.recalibrate();
        assert!(c.conv > 1.0, "conv slope {}", c.conv);
        assert!(c.compute_ws > 1.0, "compute slope {}", c.compute_ws);
    }

    #[test]
    fn clones_are_independent() {
        let cal = Calibrator::default();
        cal.record(
            Dataflow::WeightStationary,
            &Coefficients::default(),
            scaled_tiles(&[(10, 20)], 2.0),
        );
        let snap = cal.clone();
        cal.recalibrate();
        assert_eq!(snap.generation(), 0, "clone must not see later refits");
        assert_eq!(cal.generation(), 1);
    }
}
