//! The overlap schedule model of tiled conversion.
//!
//! "MINT is pipelined to start conversion while streaming in data from
//! memory" (§V-B) — and the system-level consequence the paper's Fig. 12
//! prices is that conversion of the *next* operand tile overlaps compute
//! on the *current* one. The runtime converts each tile with
//! [`ConversionEngine::convert_matrix`](crate::ConversionEngine::convert_matrix);
//! this module prices the overlap:
//!
//! - [`overlap_schedule`] folds per-tile conversion and compute cycle
//!   vectors into the double-buffered pipeline total (convert tile `t+1`
//!   while computing tile `t`) alongside the serial convert-then-compute
//!   total, so callers (the `sparseflex-core` stage machine, SAGE's
//!   conversion model) price the overlap instead of assuming it;
//! - [`split_cycles`] spreads a whole-operand cycle prediction across
//!   tiles, and [`added_hardware_cycles`] is SAGE's analytic view of the
//!   same pipeline.

/// Cycle totals of a tiled plan→convert→execute run under the two
/// disciplines the acceptance comparison needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlapSchedule {
    /// Double-buffered total: tile `t+1` converts while tile `t`
    /// computes, so each step costs `max(compute_t, conv_{t+1})` and only
    /// the first tile's conversion is exposed as pipeline fill.
    pub overlapped_cycles: u64,
    /// Serial total: every conversion strictly precedes its compute.
    pub serial_cycles: u64,
}

impl OverlapSchedule {
    /// Cycles the overlap hides (`serial - overlapped`).
    pub fn hidden_cycles(&self) -> u64 {
        self.serial_cycles - self.overlapped_cycles
    }

    /// Serial-over-overlapped speedup (1.0 when nothing overlaps).
    pub fn speedup(&self) -> f64 {
        if self.overlapped_cycles == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.overlapped_cycles as f64
        }
    }
}

/// Fold per-tile conversion and compute cycles into the double-buffered
/// schedule.
///
/// `conv[t]` is the pipelined conversion cost of tile `t`; `compute[t]`
/// its accelerator cycles. Both slices must be the same length (one entry
/// per tile). With double buffering the machine converts tile 0, then at
/// each step computes tile `t` while converting tile `t+1`:
///
/// ```text
/// overlapped = conv[0] + sum_t max(compute[t], conv[t+1])   (conv[T] = 0)
/// serial     = sum_t (conv[t] + compute[t])
/// ```
pub fn overlap_schedule(conv: &[u64], compute: &[u64]) -> OverlapSchedule {
    assert_eq!(
        conv.len(),
        compute.len(),
        "one conversion entry per compute tile"
    );
    if conv.is_empty() {
        return OverlapSchedule::default();
    }
    let mut overlapped = conv[0];
    for (t, &compute_t) in compute.iter().enumerate() {
        let next_conv = conv.get(t + 1).copied().unwrap_or(0);
        overlapped += compute_t.max(next_conv);
    }
    let serial = conv.iter().sum::<u64>() + compute.iter().sum::<u64>();
    OverlapSchedule {
        overlapped_cycles: overlapped,
        serial_cycles: serial,
    }
}

/// Split a predicted whole-operand cycle total across tiles in
/// proportion to `weights` (per-tile stored nonzeros, as exported by the
/// tiler's column schedule), falling back to an even split when every
/// weight is zero.
///
/// This is the planning-time counterpart of the per-tile cycle vectors
/// the runtime measures: a planner holding only whole-operand cost-model
/// totals uses it to materialize the per-tile conversion and compute
/// lanes that [`overlap_schedule`] folds into a *predicted*
/// [`OverlapSchedule`], which execution then compares against the
/// measured one.
pub fn split_cycles(total: f64, weights: &[usize]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: usize = weights.iter().sum();
    if sum == 0 {
        let even = (total / weights.len() as f64).round().max(0.0) as u64;
        return vec![even; weights.len()];
    }
    weights
        .iter()
        .map(|&w| (total * w as f64 / sum as f64).round().max(0.0) as u64)
        .collect()
}

/// SAGE's analytic view of the tile-grained pipeline: predict the
/// conversion cycles that stay exposed after the overlap the runtime
/// actually schedules, from whole-operand statistics split into `tiles`
/// equal stationary tiles.
///
/// The model mirrors `run_pipelined`'s stage machine tile for tile:
///
/// - **Prologue / fill**: the streaming operand converts once up front
///   and the first stationary tile converts before any compute exists to
///   hide it — together they overlap only the fetch streaming in under
///   them (`dram_a` plus tile 0's share of `dram_b`, §V-B).
/// - **Steady state**: each later stationary tile's conversion
///   double-buffers against the previous tile's compute on top of its
///   own fetch share.
///
/// Only the per-phase excess surfaces as latency, so — unlike the old
/// whole-operand closed form `max(0, conv - dram - compute)` — the
/// prediction genuinely depends on the tile count: more tiles shrink the
/// exposed fill, and a conversion-bound steady state exposes its excess
/// once per tile.
pub fn added_hardware_cycles(
    conv_a: f64,
    dram_a: f64,
    conv_b: f64,
    dram_b: f64,
    compute_total: f64,
    tiles: usize,
) -> f64 {
    let t = tiles.max(1) as f64;
    let fill_exposed = (conv_a + conv_b / t - (dram_a + dram_b / t)).max(0.0);
    let steady_exposed = ((conv_b - dram_b - compute_total) / t).max(0.0);
    fill_exposed + (t - 1.0) * steady_exposed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_schedule_hides_conversion_behind_compute() {
        // 4 tiles, conversion 10 each, compute 25 each: all but tile 0's
        // conversion hides behind compute.
        let s = overlap_schedule(&[10, 10, 10, 10], &[25, 25, 25, 25]);
        assert_eq!(s.serial_cycles, 140);
        assert_eq!(s.overlapped_cycles, 10 + 25 * 4);
        assert_eq!(s.hidden_cycles(), 30);
        assert!(s.speedup() > 1.0);
    }

    #[test]
    fn conversion_bound_pipelines_degrade_gracefully() {
        // Conversion slower than compute: the converter is the bottleneck
        // but compute still hides behind it.
        let s = overlap_schedule(&[30, 30], &[10, 10]);
        assert_eq!(s.serial_cycles, 80);
        assert_eq!(s.overlapped_cycles, 30 + 30 + 10);
        assert!(s.overlapped_cycles < s.serial_cycles);
    }

    #[test]
    fn empty_and_single_tile_schedules() {
        assert_eq!(overlap_schedule(&[], &[]), OverlapSchedule::default());
        let one = overlap_schedule(&[7], &[9]);
        assert_eq!(one.overlapped_cycles, 16);
        assert_eq!(one.serial_cycles, 16);
        assert_eq!(one.hidden_cycles(), 0);
    }

    #[test]
    fn split_cycles_follows_weights() {
        // Proportional: weights 1:3 split 400 cycles 100/300.
        assert_eq!(split_cycles(400.0, &[10, 30]), vec![100, 300]);
        // All-zero weights (empty tiles) fall back to an even split.
        assert_eq!(split_cycles(90.0, &[0, 0, 0]), vec![30, 30, 30]);
        // No tiles, no cycles.
        assert_eq!(split_cycles(1_000.0, &[]), Vec::<u64>::new());
        // The split feeds straight into the overlap fold.
        let conv = split_cycles(40.0, &[1, 1, 1, 1]);
        let s = overlap_schedule(&conv, &[25, 25, 25, 25]);
        assert_eq!(s.overlapped_cycles, 10 + 25 * 4);
    }

    #[test]
    fn added_cycles_track_the_pipeline_phases() {
        // Everything hides: conversions fit their fetch windows.
        assert_eq!(
            added_hardware_cycles(50.0, 500.0, 100.0, 800.0, 500.0, 8),
            0.0
        );
        // Untiled, a conversion-heavy stationary operand is exposed above
        // the prologue fetch window (compute cannot hide the single
        // tile's fill): 2000 - (300 + 300).
        let untiled = added_hardware_cycles(0.0, 300.0, 2_000.0, 300.0, 10_000.0, 1);
        assert_eq!(untiled, 1_400.0);
        // Tiling shrinks the exposed fill: with 4 tiles only tile 0's
        // share converts before compute exists to hide the rest.
        let tiled = added_hardware_cycles(0.0, 300.0, 2_000.0, 300.0, 10_000.0, 4);
        assert!(tiled < untiled, "tiled {tiled} !< untiled {untiled}");
        // Streaming-operand conversion is prologue work: it can hide only
        // behind its own fetch, regardless of tiling.
        let prologue = added_hardware_cycles(900.0, 100.0, 0.0, 0.0, 10_000.0, 16);
        assert_eq!(prologue, 800.0);
    }
}
