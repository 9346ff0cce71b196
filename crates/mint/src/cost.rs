//! Closed-form conversion cost model — the "conversion cost" input SAGE
//! consumes (§VI: "to model the conversion cost, we evaluate the building
//! blocks necessary for each conversion scenario along with their
//! relative execution cycles and power consumption").
//!
//! Unlike [`crate::engine`], which meters an actual conversion, this
//! module predicts cycles and energy from `(dims, nnz, formats)` only, so
//! SAGE can search format spaces for workloads too large to materialize.
//! The model mirrors the engine's charging rules; tests cross-validate
//! the two on random operands.

use crate::blocks::{E_DIVMOD_OP, E_MEMCTRL_OP, E_SMALL_OP};
use crate::engine::ConversionEngine;
use sparseflex_formats::descriptor::Level;
use sparseflex_formats::size_model::rlc_expected_entries;
use sparseflex_formats::{FormatDescriptor, MatrixFormat, RankOrder, TensorFormat};

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
    pub const fn free() -> Self {
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

/// Elements a descriptor must stream through the converter for an
/// `rows x cols` matrix with `nnz` nonzeros (values + metadata, in
/// element slots), derived from its level structure: coordinate ranks
/// stream one slot per stored coordinate, offsets ranks their pointer
/// array, bitmask ranks one slot per 32 mask bits, padded layouts the
/// full dense payload (conservative upper bound).
fn stream_slots(desc: &FormatDescriptor, rows: usize, cols: usize, nnz: u64) -> u64 {
    use Level as L;
    let total = rows as u64 * cols as u64;
    match (desc.levels.as_slice(), desc.order) {
        ([L::Uncompressed, L::Uncompressed], _) => total,
        ([L::Singleton, L::Singleton], _) => 3 * nnz,
        ([L::Uncompressed, L::CompressedOffsets], RankOrder::RowMajor) => 2 * nnz + rows as u64 + 1,
        ([L::Uncompressed, L::CompressedOffsets], RankOrder::ColMajor) => 2 * nnz + cols as u64 + 1,
        ([L::RunLength { run_bits }], _) => 2 * rlc_expected_entries(total, nnz, *run_bits),
        ([L::Bitmask], _) => total.div_ceil(32) + nnz,
        ([L::Blocked { br, bc }, L::CompressedOffsets], _) => {
            let blocks = sparseflex_formats::size_model::bsr_expected_blocks(
                rows,
                cols,
                nnz as usize,
                *br,
                *bc,
            );
            blocks * (*br * *bc) as u64 + blocks + rows.div_ceil(*br) as u64 + 1
        }
        // Padded stores (DIA strips, ELL rows) scale with their padded
        // payloads; approximate with the dense stream.
        _ => total,
    }
}

/// Divide/mod is needed only when recovering explicit coordinates from a
/// flat stream (no rank of the source stores coordinates, some rank of
/// the destination does), or when computing block positions for a
/// blocked destination rank. Flat -> flat re-encodes (e.g. ZVC -> Dense)
/// are pure expand/compact passes; coordinate -> flat needs only
/// multiply-adds.
fn needs_divmod(src: &FormatDescriptor, dst: &FormatDescriptor) -> bool {
    (src.is_flat() && !dst.is_flat()) || dst.has_blocked_rank()
}

/// Does decoding/encoding this descriptor require the sorter? A
/// column-major rank order must be regrouped into (or produced from) the
/// row-major stream — the coordinate-order change MINT's sorter network
/// handles (Fig. 8c).
fn needs_sorter(desc: &FormatDescriptor) -> bool {
    desc.order == RankOrder::ColMajor
}

/// Scan-stage traffic for decoding the source: uncompressed and bitmask
/// linearized ranks scan the whole payload/bitmap; everything else
/// rebuilds one pointer array.
fn scan_items(src: &FormatDescriptor, rows: usize, cols: usize) -> u64 {
    use Level as L;
    let total = rows as u64 * cols as u64;
    match src.levels.as_slice() {
        [L::Uncompressed, L::Uncompressed] | [L::Uncompressed] => total,
        [L::Bitmask] => total.div_ceil(32),
        _ => (rows.max(cols) as u64) + 1,
    }
}

/// The MINT hardware blocks a descriptor delta engages — the
/// block-level rendering of a conversion plan. Each variant maps to a
/// module of [`crate::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConverterBlock {
    /// Streams operand slots in and out ([`crate::blocks::memctrl`]).
    MemoryController,
    /// Rebuilds offset/pointer arrays and scans flat payloads
    /// ([`crate::blocks::prefix_sum`]).
    PrefixSum,
    /// Regroups coordinates across a rank-order change
    /// ([`crate::blocks::sorter`]).
    Sorter,
    /// Recovers explicit coordinates from flat streams and computes
    /// block positions ([`crate::blocks::divmod`]).
    DividerModulo,
    /// Populates and pops presence bitmasks
    /// ([`crate::blocks::counter`]).
    Counter,
}

/// Which hardware blocks converting `src` to `dst` engages, derived
/// from the descriptor delta: prefix-sum for offsets ranks, the sorter
/// for coordinate-order changes, divide/mod for coordinate recovery and
/// blocked ranks, the counter for bitmask ranks. Identity conversions
/// engage nothing.
pub fn required_blocks(src: &FormatDescriptor, dst: &FormatDescriptor) -> Vec<ConverterBlock> {
    if src == dst {
        return Vec::new();
    }
    let mut blocks = vec![ConverterBlock::MemoryController, ConverterBlock::PrefixSum];
    if needs_sorter(src) || needs_sorter(dst) {
        blocks.push(ConverterBlock::Sorter);
    }
    if needs_divmod(src, dst) {
        blocks.push(ConverterBlock::DividerModulo);
    }
    if src.has_bitmask_rank() || dst.has_bitmask_rank() {
        blocks.push(ConverterBlock::Counter);
    }
    blocks
}

/// Predict the MINT cost of converting a matrix between two format
/// **descriptors** — the canonical costing path; the
/// [`conversion_cost`] enum entry point is a thin wrapper over this.
///
/// The conversion is pipelined against the DRAM stream, so the returned
/// cycle count is the bottleneck-stage occupancy: the memory controller
/// moving `in + out` slots, the divide/mod array (8 elements/cycle), or
/// the scan/sort stages (16-32 elements/cycle) — whichever is slowest.
pub fn descriptor_conversion_cost(
    src: &FormatDescriptor,
    dst: &FormatDescriptor,
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
    let divmod_items = if needs_divmod(src, dst) { nnz } else { 0 };
    let divmod_cycles = engine.divmod.cycles(divmod_items);
    let sort_items = if needs_sorter(src) || needs_sorter(dst) {
        nnz
    } else {
        0
    };
    let sort_cycles = engine.sorter.cycles(sort_items);
    // Scan traffic: dense/bitmask decodes scan the whole bitmap/matrix;
    // pointer rebuilds scan one pointer array.
    let scan_items = scan_items(src, rows, cols);
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

/// Predict the MINT cost of converting a matrix from `src` to `dst` —
/// the enum entry point, a thin wrapper translating each format to its
/// per-rank descriptor.
pub fn conversion_cost(
    src: &MatrixFormat,
    dst: &MatrixFormat,
    rows: usize,
    cols: usize,
    nnz: u64,
    engine: &ConversionEngine,
) -> ConversionCost {
    descriptor_conversion_cost(
        &src.descriptor(),
        &dst.descriptor(),
        rows,
        cols,
        nnz,
        engine,
    )
}

/// Tensor-format conversion cost between two descriptors (same stage
/// structure as the matrix path, tensor stream sizes).
pub fn descriptor_tensor_conversion_cost(
    src: &FormatDescriptor,
    dst: &FormatDescriptor,
    dims: (usize, usize, usize),
    nnz: u64,
    engine: &ConversionEngine,
) -> ConversionCost {
    use Level as L;
    if src == dst {
        return ConversionCost::free();
    }
    let total = dims.0 as u64 * dims.1 as u64 * dims.2 as u64;
    let slots = |d: &FormatDescriptor| -> u64 {
        match d.levels.as_slice() {
            [L::Uncompressed, L::Uncompressed, L::Uncompressed] => total,
            // One slot per coordinate rank plus the value, per nonzero
            // (explicit 3-D coordinates; HiCOO's block + element pair
            // streams the same four slots).
            [L::Singleton, L::Singleton, L::Singleton] | [L::Blocked { .. }, L::Singleton] => {
                4 * nnz
            }
            [L::CompressedOffsets, L::CompressedOffsets, L::CompressedOffsets] => {
                2 * nnz + 2 * (nnz / 2).max(1) // fids + ptrs estimate
            }
            [L::RunLength { run_bits }] => 2 * rlc_expected_entries(total, nnz, *run_bits),
            [L::Bitmask] => total.div_ceil(32) + nnz,
            _ => total,
        }
    };
    let in_slots = slots(src);
    let out_slots = slots(dst);
    let mem_cycles = engine.memctrl.cycles(in_slots + out_slots);
    // Coordinate recovery (two div/mod rounds per nonzero) is needed only
    // when a flat stream must produce explicit coordinates.
    let divmod_items = if src.is_flat() && !dst.is_flat() {
        2 * nnz
    } else {
        0
    };
    let divmod_cycles = engine.divmod.cycles(divmod_items);
    let scan_items = match src.levels.as_slice() {
        [L::Uncompressed, L::Uncompressed, L::Uncompressed] => total,
        [L::Bitmask] => total.div_ceil(32),
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

/// Tensor-format conversion cost — the enum entry point, a thin wrapper
/// over [`descriptor_tensor_conversion_cost`].
pub fn tensor_conversion_cost(
    src: &TensorFormat,
    dst: &TensorFormat,
    dims: (usize, usize, usize),
    nnz: u64,
    engine: &ConversionEngine,
) -> ConversionCost {
    descriptor_tensor_conversion_cost(&src.descriptor(), &dst.descriptor(), dims, nnz, engine)
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

    /// The pre-descriptor cost model, copied verbatim — the bit-for-bit
    /// pin proving the descriptor rebase moved the logic, not the
    /// numbers (the wrapper test alone would compare the new code with
    /// itself).
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
    fn descriptor_costing_matches_the_legacy_model_for_every_pair() {
        // Pin the descriptor-delta engine bit-for-bit against the
        // pre-refactor closed-form model for all 9x9 preset pairs.
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
                    let via_desc = descriptor_conversion_cost(
                        &src.descriptor(),
                        &dst.descriptor(),
                        rows,
                        cols,
                        nnz,
                        &eng,
                    );
                    assert_eq!(legacy, via_desc, "{src} -> {dst} at {rows}x{cols}/{nnz}");
                }
            }
        }
    }

    #[test]
    fn required_blocks_map_level_deltas_to_hardware() {
        use sparseflex_formats::FormatDescriptor;
        let csr = FormatDescriptor::csr();
        let csc = FormatDescriptor::csc();
        let dense = FormatDescriptor::dense();
        let zvc = FormatDescriptor::zvc();
        let bsr = FormatDescriptor::bsr(4, 4);
        // Identity engages nothing.
        assert!(required_blocks(&csr, &csr).is_empty());
        // Coordinate-order change engages the sorter.
        assert!(required_blocks(&csr, &csc).contains(&ConverterBlock::Sorter));
        assert!(!required_blocks(&csr, &dense).contains(&ConverterBlock::Sorter));
        // Offsets-rank destinations rebuild pointers with the prefix sum.
        assert!(required_blocks(&dense, &csr).contains(&ConverterBlock::PrefixSum));
        // Flat -> coordinate recovery and blocked ranks use divide/mod.
        assert!(required_blocks(&dense, &csr).contains(&ConverterBlock::DividerModulo));
        assert!(required_blocks(&csr, &bsr).contains(&ConverterBlock::DividerModulo));
        assert!(!required_blocks(&csr, &dense).contains(&ConverterBlock::DividerModulo));
        // Bitmask ranks engage the population counter.
        assert!(required_blocks(&csr, &zvc).contains(&ConverterBlock::Counter));
        assert!(required_blocks(&zvc, &csr).contains(&ConverterBlock::Counter));
        assert!(!required_blocks(&csr, &csc).contains(&ConverterBlock::Counter));
        // Everything non-identity moves data.
        assert!(required_blocks(&csr, &csc).contains(&ConverterBlock::MemoryController));
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
