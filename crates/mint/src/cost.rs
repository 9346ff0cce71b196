//! Closed-form conversion cost model — the "conversion cost" input SAGE
//! consumes (§VI: "to model the conversion cost, we evaluate the building
//! blocks necessary for each conversion scenario along with their
//! relative execution cycles and power consumption").
//!
//! Unlike [`crate::engine`], which meters an actual conversion, this
//! module predicts cycles and energy from `(dims, nnz, formats)` only, so
//! SAGE can search format spaces for workloads too large to materialize.
//! Each stage's traffic is one match over the source and destination
//! [`MatrixFormat`] / [`TensorFormat`]. The model mirrors the engine's
//! charging rules; tests cross-validate the two on random operands and
//! pin the matrix model bit-for-bit against a reference copy.

use crate::blocks::{E_DIVMOD_OP, E_MEMCTRL_OP, E_SMALL_OP};
use crate::engine::ConversionEngine;
use sparseflex_formats::size_model::{bsr_expected_blocks, rlc_expected_entries};
use sparseflex_formats::{MatrixFormat, TensorFormat};

/// Predicted cost of one conversion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConversionCost {
    /// Pipelined wall-clock cycles (bottleneck stage + fill).
    pub cycles: u64,
    /// Energy in joules.
    pub energy: f64,
}

impl ConversionCost {
    /// Zero cost (identity conversion).
    const fn free() -> Self {
        ConversionCost {
            cycles: 0,
            energy: 0.0,
        }
    }

    /// Sequential composition of two conversions.
    pub fn then(&self, other: &ConversionCost) -> ConversionCost {
        ConversionCost {
            cycles: self.cycles + other.cycles,
            energy: self.energy + other.energy,
        }
    }
}

/// Elements a format must stream through the converter for an
/// `rows x cols` matrix with `nnz` nonzeros (values + metadata, in
/// element slots): coordinate formats stream one slot per stored
/// coordinate, CSR/CSC their pointer array, BSR its dense blocks, ZVC
/// one slot per 32 mask bits, and the padded stores (DIA strips, ELL
/// rows) the full dense payload (conservative upper bound).
fn stream_slots(fmt: &MatrixFormat, rows: usize, cols: usize, nnz: u64) -> u64 {
    let total = rows as u64 * cols as u64;
    match *fmt {
        MatrixFormat::Dense | MatrixFormat::Dia | MatrixFormat::Ell => total,
        MatrixFormat::Coo => 3 * nnz,
        MatrixFormat::Csr => 2 * nnz + rows as u64 + 1,
        MatrixFormat::Csc => 2 * nnz + cols as u64 + 1,
        MatrixFormat::Rlc { run_bits } => 2 * rlc_expected_entries(total, nnz, run_bits),
        MatrixFormat::Zvc => total.div_ceil(32) + nnz,
        MatrixFormat::Bsr { br, bc } => {
            let blocks = bsr_expected_blocks(rows, cols, nnz as usize, br, bc);
            blocks * (br * bc) as u64 + blocks + rows.div_ceil(br) as u64 + 1
        }
    }
}

/// True when positions are implicit in the stream order (Dense, RLC,
/// ZVC): no coordinates are stored, so decoding needs no divide/mod.
fn is_flat(fmt: &MatrixFormat) -> bool {
    matches!(
        fmt,
        MatrixFormat::Dense | MatrixFormat::Rlc { .. } | MatrixFormat::Zvc
    )
}

/// Predict the MINT cost of converting a matrix from `src` to `dst`.
///
/// The conversion is pipelined against the DRAM stream, so the returned
/// cycle count is the bottleneck-stage occupancy: the memory controller
/// moving `in + out` slots, the divide/mod array (8 elements/cycle), or
/// the scan/sort stages (16-32 elements/cycle) — whichever is slowest.
pub fn conversion_cost(
    src: &MatrixFormat,
    dst: &MatrixFormat,
    rows: usize,
    cols: usize,
    nnz: u64,
    engine: &ConversionEngine,
) -> ConversionCost {
    if src == dst {
        return ConversionCost::free();
    }
    let in_slots = stream_slots(src, rows, cols, nnz);
    let out_slots = stream_slots(dst, rows, cols, nnz);

    // Stage occupancies.
    let mem_cycles = engine.memctrl.cycles(in_slots + out_slots);
    // Divide/mod recovers explicit coordinates from a flat stream and
    // computes BSR block positions. Flat -> flat re-encodes (e.g. ZVC ->
    // Dense) are pure expand/compact passes; coordinate -> flat needs
    // only multiply-adds.
    let needs_divmod = (is_flat(src) && !is_flat(dst)) || matches!(dst, MatrixFormat::Bsr { .. });
    let divmod_items = if needs_divmod { nnz } else { 0 };
    let divmod_cycles = engine.divmod.cycles(divmod_items);
    // CSC's column-major order must be regrouped into (or produced from)
    // the row-major stream: the coordinate-order change MINT's sorter
    // network handles (Fig. 8c).
    let sort_items = if *src == MatrixFormat::Csc || *dst == MatrixFormat::Csc {
        nnz
    } else {
        0
    };
    let sort_cycles = engine.sorter.cycles(sort_items);
    // Scan traffic: dense/bitmask decodes scan the whole matrix/bitmap;
    // every other source rebuilds one pointer array.
    let scan_items = match *src {
        MatrixFormat::Dense => rows as u64 * cols as u64,
        MatrixFormat::Zvc => (rows as u64 * cols as u64).div_ceil(32),
        _ => (rows.max(cols) as u64) + 1,
    };
    let scan_cycles = engine.prefix.cycles(scan_items);

    let fill = engine.prefix.latency()
        + engine.sorter.latency()
        + engine.divmod.latency()
        + engine.memctrl.setup_latency;
    let cycles = mem_cycles
        .max(divmod_cycles)
        .max(sort_cycles)
        .max(scan_cycles)
        + fill;

    let energy = (in_slots + out_slots) as f64 * E_MEMCTRL_OP
        + divmod_items as f64 * E_DIVMOD_OP
        + sort_items as f64 * engine.sorter.stages() as f64 * crate::blocks::E_SORT_STAGE
        + scan_items as f64 * 2.0 * E_SMALL_OP
        + nnz as f64 * 2.0 * E_SMALL_OP; // comparators/adders along the way

    ConversionCost { cycles, energy }
}

/// Tensor-format conversion cost (same stage structure as the matrix
/// path, tensor stream sizes).
pub fn tensor_conversion_cost(
    src: &TensorFormat,
    dst: &TensorFormat,
    dims: (usize, usize, usize),
    nnz: u64,
    engine: &ConversionEngine,
) -> ConversionCost {
    if src == dst {
        return ConversionCost::free();
    }
    let total = dims.0 as u64 * dims.1 as u64 * dims.2 as u64;
    let slots = |fmt: &TensorFormat| -> u64 {
        match *fmt {
            TensorFormat::Dense => total,
            // One slot per coordinate rank plus the value, per nonzero
            // (explicit 3-D coordinates; HiCOO's block + element pair
            // streams the same four slots).
            TensorFormat::Coo | TensorFormat::HiCoo { .. } => 4 * nnz,
            TensorFormat::Csf => 2 * nnz + 2 * (nnz / 2).max(1), // fids + ptrs estimate
            TensorFormat::Rlc { run_bits } => 2 * rlc_expected_entries(total, nnz, run_bits),
            TensorFormat::Zvc => total.div_ceil(32) + nnz,
        }
    };
    let is_flat = |fmt: &TensorFormat| {
        matches!(
            fmt,
            TensorFormat::Dense | TensorFormat::Rlc { .. } | TensorFormat::Zvc
        )
    };
    let in_slots = slots(src);
    let out_slots = slots(dst);
    let mem_cycles = engine.memctrl.cycles(in_slots + out_slots);
    // Coordinate recovery (two div/mod rounds per nonzero) is needed only
    // when a flat stream must produce explicit coordinates.
    let divmod_items = if is_flat(src) && !is_flat(dst) {
        2 * nnz
    } else {
        0
    };
    let divmod_cycles = engine.divmod.cycles(divmod_items);
    let scan_items = match *src {
        TensorFormat::Dense => total,
        TensorFormat::Zvc => total.div_ceil(32),
        _ => nnz,
    };
    let scan_cycles = engine.prefix.cycles(scan_items);
    let fill = engine.prefix.latency() + engine.divmod.latency() + engine.memctrl.setup_latency;
    let cycles = mem_cycles.max(divmod_cycles).max(scan_cycles) + fill;
    let energy = (in_slots + out_slots) as f64 * E_MEMCTRL_OP
        + divmod_items as f64 * E_DIVMOD_OP
        + scan_items as f64 * 2.0 * E_SMALL_OP;
    ConversionCost { cycles, energy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{MatrixData, SparseMatrix};
    use sparseflex_workloads::synth::random_matrix;

    #[test]
    fn identity_is_free() {
        let eng = ConversionEngine::default();
        let c = conversion_cost(&MatrixFormat::Csr, &MatrixFormat::Csr, 100, 100, 500, &eng);
        assert_eq!(c, ConversionCost::free());
    }

    #[test]
    fn cost_scales_with_nnz() {
        let eng = ConversionEngine::default();
        let small = conversion_cost(
            &MatrixFormat::Csr,
            &MatrixFormat::Csc,
            1000,
            1000,
            1_000,
            &eng,
        );
        let large = conversion_cost(
            &MatrixFormat::Csr,
            &MatrixFormat::Csc,
            1000,
            1000,
            100_000,
            &eng,
        );
        assert!(large.cycles > small.cycles);
        assert!(large.energy > small.energy);
    }

    #[test]
    fn dense_conversions_pay_for_the_full_scan() {
        let eng = ConversionEngine::default();
        let from_dense = conversion_cost(
            &MatrixFormat::Dense,
            &MatrixFormat::Csr,
            2000,
            2000,
            4_000,
            &eng,
        );
        let from_coo = conversion_cost(
            &MatrixFormat::Coo,
            &MatrixFormat::Csr,
            2000,
            2000,
            4_000,
            &eng,
        );
        assert!(
            from_dense.cycles > 10 * from_coo.cycles,
            "dense {} vs coo {}",
            from_dense.cycles,
            from_coo.cycles
        );
    }

    #[test]
    fn model_tracks_engine_measurements() {
        // The analytic model should land within 2x of the metered engine
        // for the Fig. 8 reference conversions (it models bottleneck-stage
        // occupancy; the engine meters every stage).
        let eng = ConversionEngine::default();
        let coo = random_matrix(100, 120, 2_000, 3);
        let csr = sparseflex_formats::CsrMatrix::from_coo(&coo);
        let (_, rep) = eng.csr_to_csc(&csr);
        let predicted = conversion_cost(
            &MatrixFormat::Csr,
            &MatrixFormat::Csc,
            100,
            120,
            2_000,
            &eng,
        );
        let measured = rep.pipelined_cycles();
        let ratio = predicted.cycles as f64 / measured as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "predicted {} vs measured {measured} (ratio {ratio})",
            predicted.cycles
        );
    }

    #[test]
    fn rlc_decode_cost_tracks_engine() {
        let eng = ConversionEngine::default();
        let coo = random_matrix(64, 64, 512, 5);
        let rlc = sparseflex_formats::RlcMatrix::from_coo(&coo, 4);
        let data = MatrixData::Rlc(rlc.clone());
        let (out, rep) = eng.convert_matrix(&data, &MatrixFormat::Coo).unwrap();
        assert_eq!(out.to_coo(), coo);
        let predicted = conversion_cost(
            &MatrixFormat::Rlc { run_bits: 4 },
            &MatrixFormat::Coo,
            64,
            64,
            512,
            &eng,
        );
        let ratio = predicted.cycles as f64 / rep.pipelined_cycles() as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn conversion_energy_is_negligible_vs_dram() {
        // §VII-C: "conversion energy cost is negligible because accessing
        // data from DRAM consumes significantly more energy than
        // compute." Check the ratio for a speech2-sized workload.
        let eng = ConversionEngine::default();
        let (rows, cols, nnz) = (7_700, 2_600, 1_000_000u64);
        let conv = conversion_cost(
            &MatrixFormat::Rlc { run_bits: 4 },
            &MatrixFormat::Csr,
            rows,
            cols,
            nnz,
            &eng,
        );
        // DRAM energy to move the same operand once (20 pJ/bit x ~36 bits/nnz).
        let dram = nnz as f64 * 36.0 * 20.0e-12;
        assert!(
            conv.energy < dram * 0.05,
            "conversion energy {} should be well under 5% of DRAM {}",
            conv.energy,
            dram
        );
    }

    #[test]
    fn then_composes() {
        let a = ConversionCost {
            cycles: 10,
            energy: 1.0,
        };
        let b = ConversionCost {
            cycles: 5,
            energy: 0.5,
        };
        assert_eq!(
            a.then(&b),
            ConversionCost {
                cycles: 15,
                energy: 1.5
            }
        );
    }

    /// An independent copy of the closed-form cost model — the
    /// bit-for-bit pin that any refactor of [`conversion_cost`] moves the
    /// logic, not the numbers.
    fn legacy_conversion_cost(
        src: &MatrixFormat,
        dst: &MatrixFormat,
        rows: usize,
        cols: usize,
        nnz: u64,
        engine: &ConversionEngine,
    ) -> ConversionCost {
        fn stream_slots(fmt: &MatrixFormat, rows: usize, cols: usize, nnz: u64) -> u64 {
            let total = rows as u64 * cols as u64;
            match *fmt {
                MatrixFormat::Dense => total,
                MatrixFormat::Coo => 3 * nnz,
                MatrixFormat::Csr => 2 * nnz + rows as u64 + 1,
                MatrixFormat::Csc => 2 * nnz + cols as u64 + 1,
                MatrixFormat::Rlc { run_bits } => 2 * rlc_expected_entries(total, nnz, run_bits),
                MatrixFormat::Zvc => total.div_ceil(32) + nnz,
                MatrixFormat::Bsr { br, bc } => {
                    let blocks = sparseflex_formats::size_model::bsr_expected_blocks(
                        rows,
                        cols,
                        nnz as usize,
                        br,
                        bc,
                    );
                    blocks * (br * bc) as u64 + blocks + rows.div_ceil(br) as u64 + 1
                }
                MatrixFormat::Dia | MatrixFormat::Ell => total,
            }
        }
        fn is_flat(fmt: &MatrixFormat) -> bool {
            matches!(
                fmt,
                MatrixFormat::Dense | MatrixFormat::Zvc | MatrixFormat::Rlc { .. }
            )
        }
        if src == dst {
            return ConversionCost::free();
        }
        let in_slots = stream_slots(src, rows, cols, nnz);
        let out_slots = stream_slots(dst, rows, cols, nnz);
        let mem_cycles = engine.memctrl.cycles(in_slots + out_slots);
        let needs_divmod =
            (is_flat(src) && !is_flat(dst)) || matches!(dst, MatrixFormat::Bsr { .. });
        let divmod_items = if needs_divmod { nnz } else { 0 };
        let divmod_cycles = engine.divmod.cycles(divmod_items);
        let needs_sorter = |f: &MatrixFormat| matches!(f, MatrixFormat::Csc);
        let sort_items = if needs_sorter(src) || needs_sorter(dst) {
            nnz
        } else {
            0
        };
        let sort_cycles = engine.sorter.cycles(sort_items);
        let scan_items = match (src, dst) {
            (MatrixFormat::Dense, _) => rows as u64 * cols as u64,
            (MatrixFormat::Zvc, _) => (rows as u64 * cols as u64).div_ceil(32),
            _ => (rows.max(cols) as u64) + 1,
        };
        let scan_cycles = engine.prefix.cycles(scan_items);
        let fill = engine.prefix.latency()
            + engine.sorter.latency()
            + engine.divmod.latency()
            + engine.memctrl.setup_latency;
        let cycles = mem_cycles
            .max(divmod_cycles)
            .max(sort_cycles)
            .max(scan_cycles)
            + fill;
        let energy = (in_slots + out_slots) as f64 * E_MEMCTRL_OP
            + divmod_items as f64 * E_DIVMOD_OP
            + sort_items as f64 * engine.sorter.stages() as f64 * crate::blocks::E_SORT_STAGE
            + scan_items as f64 * 2.0 * E_SMALL_OP
            + nnz as f64 * 2.0 * E_SMALL_OP;
        ConversionCost { cycles, energy }
    }

    #[test]
    fn conversion_cost_matches_the_legacy_model_for_every_pair() {
        // Pin the cost model bit-for-bit against the reference copy for
        // all 9x9 format pairs.
        let eng = ConversionEngine::default();
        let formats = [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 4, bc: 4 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Zvc,
        ];
        for src in formats {
            for dst in formats {
                for (rows, cols, nnz) in [(500, 400, 3_000), (64, 2_000, 10), (33, 33, 900)] {
                    let legacy = legacy_conversion_cost(&src, &dst, rows, cols, nnz, &eng);
                    let cost = conversion_cost(&src, &dst, rows, cols, nnz, &eng);
                    assert_eq!(legacy, cost, "{src} -> {dst} at {rows}x{cols}/{nnz}");
                }
            }
        }
    }

    #[test]
    fn tensor_costs_positive_and_identity_free() {
        let eng = ConversionEngine::default();
        let dims = (100, 100, 50);
        let c = tensor_conversion_cost(&TensorFormat::Coo, &TensorFormat::Csf, dims, 10_000, &eng);
        assert!(c.cycles > 0);
        let id = tensor_conversion_cost(&TensorFormat::Csf, &TensorFormat::Csf, dims, 10_000, &eng);
        assert_eq!(id, ConversionCost::free());
    }
}
