//! SpGEMM dataflow pricing: Gustavson vs row-wise product.
//!
//! The kernels crate exposes two bit-for-bit identical SpGEMM dataflows
//! ([`SpgemmAlgo`]): Gustavson's row algorithm (dense sparse-accumulator
//! the width of `B`, O(1) scatter per partial product) and the row-wise
//! k-way merge product (scratch proportional to the row fan-out,
//! O(log fan-out) per partial product). Which one is cheaper is a
//! workload property, so SAGE prices both from the same statistics it
//! already holds ([`SageWorkload`]) and tells the runtime which to run —
//! the software analogue of the paper's per-workload ACF selection.
//!
//! The model counts *scratch-touch work* per output row:
//!
//! - **Gustavson** pays the partial products `F = nnz_a · c_B` (each an
//!   O(1) accumulator scatter, `c_B = nnz_b / k` average B-row fill),
//!   plus an `T · log2(T + 2)` sort of the `T` surviving outputs per row,
//!   plus an amortized share of zeroing/holding the `n`-wide dense
//!   accumulator across the `m` rows.
//! - **Row-wise** pays the same `F` partial products but each through an
//!   `O(log2(fanout + 2))` heap step, and nothing proportional to `n`.
//!
//! At moderate density Gustavson's O(1) inner step wins; in the
//! hyper-sparse wide-`B` corner (fan-out of a handful, `n` in the
//! millions) the dense accumulator dominates everything and row-wise
//! wins. The crossover this model picks matches the regimes reported for
//! merge-based SpGEMM in the literature the paper builds on.

use crate::workload::SageWorkload;
use sparseflex_kernels::SpgemmAlgo;

/// Cost breakdown for one SpGEMM dataflow, in abstract scratch-touch
/// operations (comparable between the two variants only).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DataflowCost {
    /// Which dataflow this prices.
    algo: SpgemmAlgo,
    /// Modeled scratch-touch operations.
    ops: f64,
}

/// Average nonzeros per *occupied* row of A (the rows that stream).
fn avg_row_fanout(w: &SageWorkload) -> f64 {
    w.nnz_a as f64 / (w.m as f64).max(1.0)
}

/// Average fill of a B row.
fn avg_b_row_fill(w: &SageWorkload) -> f64 {
    w.nnz_b as f64 / (w.k as f64).max(1.0)
}

/// Price Gustavson's row algorithm for `w`.
fn gustavson_cost(w: &SageWorkload) -> DataflowCost {
    let flops = w.nnz_a as f64 * avg_b_row_fill(w);
    // Surviving outputs per row, then the per-row sort of that many ids.
    let t_per_row = w.expected_nnz_out() as f64 / (w.m as f64).max(1.0);
    let sort = w.m as f64 * t_per_row * (t_per_row + 2.0).log2();
    // The n-wide dense accumulator: allocated once, but its cache/zeroing
    // footprint is touched per occupied row. One touch per 64 slots
    // approximates line-granular occupancy cost.
    let accumulator = w.m as f64 * (w.n as f64 / 64.0);
    DataflowCost {
        algo: SpgemmAlgo::Gustavson,
        ops: flops + sort + accumulator,
    }
}

/// Price the row-wise merge product for `w`.
fn rowwise_cost(w: &SageWorkload) -> DataflowCost {
    let flops = w.nnz_a as f64 * avg_b_row_fill(w);
    let heap_depth = (avg_row_fanout(w) + 2.0).log2();
    DataflowCost {
        algo: SpgemmAlgo::RowWise,
        ops: flops * heap_depth,
    }
}

/// Pick the cheaper SpGEMM dataflow for `w`.
///
/// Deterministic: ties break toward Gustavson (the default dataflow).
pub fn choose_spgemm_algo(w: &SageWorkload) -> SpgemmAlgo {
    let g = gustavson_cost(w);
    let r = rowwise_cost(w);
    if r.ops < g.ops {
        SpgemmAlgo::RowWise
    } else {
        SpgemmAlgo::Gustavson
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::DataType;

    #[test]
    fn moderate_density_prefers_gustavson() {
        // 10% dense 1k x 1k squares: heavy per-row collisions, so the
        // O(1) accumulator scatter beats the log-depth heap.
        let w = SageWorkload::spgemm(1_000, 1_000, 1_000, 100_000, 100_000, DataType::Fp32);
        assert_eq!(choose_spgemm_algo(&w), SpgemmAlgo::Gustavson);
    }

    #[test]
    fn hyper_sparse_wide_b_prefers_rowwise() {
        // A few nnz per row against a B a million columns wide: the
        // n-wide dense accumulator is the whole cost.
        let w = SageWorkload::spgemm(10_000, 10_000, 1_000_000, 30_000, 2_000_000, DataType::Fp32);
        assert_eq!(choose_spgemm_algo(&w), SpgemmAlgo::RowWise);
    }

    #[test]
    fn pricing_is_deterministic() {
        let w = SageWorkload::spgemm(500, 400, 300, 2_000, 1_500, DataType::Fp32);
        let first = (gustavson_cost(&w), rowwise_cost(&w), choose_spgemm_algo(&w));
        for _ in 0..3 {
            assert_eq!(
                (gustavson_cost(&w), rowwise_cost(&w), choose_spgemm_algo(&w)),
                first
            );
        }
    }

    #[test]
    fn empty_workload_defaults_to_gustavson() {
        let w = SageWorkload::spgemm(0, 0, 0, 0, 0, DataType::Fp32);
        assert_eq!(choose_spgemm_algo(&w), SpgemmAlgo::Gustavson);
    }
}
