//! Online calibration of the stats cost model from executed runs.
//!
//! Every executed plan yields a [`PipelineRun`] whose measured tiles sit
//! beside the planner's per-tile prediction. The [`Calibrator`] closes
//! that loop: it accumulates the (predicted, measured) pairs per
//! cost-model *lane* — MINT conversion, weight-stationary compute,
//! Gustavson SpGEMM compute — and refits a multiplicative coefficient
//! per lane by least squares, so repeated traffic tightens the stats
//! model toward the machine it actually runs on.
//!
//! The fit is a slope through the origin: measured ≈ c · predicted, with
//! `c = Σ p·m / Σ p²` minimizing the squared residual. Predictions are
//! stored **de-scaled** (divided by the coefficients the plan was scaled
//! with), so samples stay in raw model units across generations, the
//! fit never compounds its own corrections, and a plan executed after a
//! refit is stored in the same units as one executed before it.
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

/// Per-lane sample cap: under sustained traffic the calibrator keeps the
/// first `MAX_SAMPLES_PER_LANE` (raw predicted, measured) pairs per lane
/// and drops the rest, bounding memory like the plan cache bounds plans.
const MAX_SAMPLES_PER_LANE: usize = 4096;

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

/// One lane's regression samples (parallel vectors, bounded).
#[derive(Debug, Clone, Default)]
struct LaneSamples {
    raw_predicted: Vec<f64>,
    measured: Vec<f64>,
}

impl LaneSamples {
    fn push(&mut self, raw_predicted: f64, measured: f64) {
        if self.raw_predicted.len() < MAX_SAMPLES_PER_LANE {
            self.raw_predicted.push(raw_predicted);
            self.measured.push(measured);
        }
    }

    /// Least-squares slope through the origin, `None` when the lane has
    /// no informative samples (all-zero predictions fit any slope).
    fn slope(&self) -> Option<f64> {
        let spp: f64 = self.raw_predicted.iter().map(|p| p * p).sum();
        if spp <= 0.0 {
            return None;
        }
        let spm: f64 = self
            .raw_predicted
            .iter()
            .zip(&self.measured)
            .map(|(p, m)| p * m)
            .sum();
        let c = spm / spp;
        (c.is_finite() && c > 0.0).then_some(c)
    }
}

#[derive(Debug, Clone, Default)]
struct CalState {
    generation: u64,
    coeffs: Coefficients,
    conv: LaneSamples,
    compute_ws: LaneSamples,
    compute_spgemm: LaneSamples,
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

    /// Total (predicted, measured) pairs accumulated across lanes.
    pub fn samples(&self) -> usize {
        let s = lock_clean(&self.state);
        s.conv.raw_predicted.len()
            + s.compute_ws.raw_predicted.len()
            + s.compute_spgemm.raw_predicted.len()
    }

    /// Record one executed plan: per tile, the (predicted, measured)
    /// cycles of the conversion lane and of the compute lane (see
    /// `PipelineRun::lane_cycles`). Each tile contributes one sample to
    /// the conversion lane and one to `dataflow`'s compute lane.
    /// Predictions are divided by `coeffs`, the coefficients the plan was
    /// scaled with, so stored samples stay in raw model units even when
    /// a refit lands between planning and execution.
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

    #[test]
    fn sample_cap_bounds_memory() {
        let cal = Calibrator::default();
        let big: Vec<(u64, u64)> = (0..MAX_SAMPLES_PER_LANE as u64 + 100)
            .map(|i| (i + 1, i + 1))
            .collect();
        cal.record(
            Dataflow::WeightStationary,
            &Coefficients::default(),
            scaled_tiles(&big, 1.0),
        );
        assert_eq!(cal.samples(), 2 * MAX_SAMPLES_PER_LANE);
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
