//! Evaluation of one (MCF, ACF) choice: the composed cost, conversion
//! and performance models.

use crate::search::FormatChoice;
use crate::workload::{SageKernel, SageWorkload};
use sparseflex_accel::exec::SimError;
use sparseflex_accel::model::{spgemm_estimate, ws_estimate, WsWorkload};
use sparseflex_accel::{AccelConfig, DramModel, EnergyModel};
use sparseflex_formats::size_model::matrix_storage_bits;
use sparseflex_formats::MatrixFormat;
use sparseflex_mint::{conversion_cost, ConversionEngine};

/// How conversions are performed (Table I column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConversionMode {
    /// MCF must equal ACF; any mismatch is rejected.
    RequireIdentity,
    /// MINT hardware beside the accelerator: conversion overlaps the
    /// DRAM stream, only the excess shows up as added cycles.
    Hardware,
    /// Host software: conversion is serialized and slowed by the given
    /// factor, and operands pay a host round-trip over the interconnect
    /// (bits moved at `pcie_bits_per_cycle`).
    Software {
        /// Host slowdown vs MINT throughput.
        slowdown: f64,
        /// Interconnect bandwidth in bits per accelerator cycle
        /// (PCIe 3.0 x16 ~ 16 GB/s = 128 bits/cycle at 1 GHz).
        pcie_bits_per_cycle: f64,
    },
}

impl ConversionMode {
    /// The default host model used for `Flex_Flex_SW`.
    pub fn default_software() -> Self {
        ConversionMode::Software {
            slowdown: 10.0,
            pcie_bits_per_cycle: 128.0,
        }
    }
}

/// Full cost breakdown of one format choice on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The evaluated choice.
    pub choice: FormatChoice,
    /// DRAM cycles (fetch A + fetch B + write O).
    pub dram_cycles: f64,
    /// DRAM energy (J).
    pub dram_energy: f64,
    /// Added conversion cycles (after overlap).
    pub conv_cycles: f64,
    /// Conversion energy (J).
    pub conv_energy: f64,
    /// Accelerator compute cycles.
    pub compute_cycles: f64,
    /// On-chip compute energy (J).
    pub compute_energy: f64,
    /// Predicted PE utilization.
    pub utilization: f64,
}

impl Evaluation {
    /// Total cycles (memory + conversion + compute, the Fig. 12 stack).
    pub fn total_cycles(&self) -> f64 {
        self.dram_cycles + self.conv_cycles + self.compute_cycles
    }

    /// Total energy in joules.
    pub fn total_energy(&self) -> f64 {
        self.dram_energy + self.conv_energy + self.compute_energy
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, clock_hz: f64) -> f64 {
        self.total_energy() * self.total_cycles() / clock_hz
    }
}

/// The SAGE predictor: hardware parameters plus the three sub-models.
#[derive(Debug, Clone)]
pub struct Sage {
    /// Accelerator configuration (PEs, buffers, bus, clock).
    pub accel: AccelConfig,
    /// DRAM interface model.
    pub dram: DramModel,
    /// MINT configuration for conversion costs.
    pub mint: ConversionEngine,
    /// Energy constants.
    pub energy: EnergyModel,
}

impl Default for Sage {
    fn default() -> Self {
        Sage {
            accel: AccelConfig::paper(),
            dram: DramModel::paper(),
            mint: ConversionEngine::default(),
            energy: EnergyModel::default_28nm(),
        }
    }
}

impl Sage {
    /// Evaluate one format choice on a matrix workload (analytic operand
    /// sizes under the uniform-random assumption).
    pub fn evaluate(
        &self,
        w: &SageWorkload,
        choice: &FormatChoice,
        mode: ConversionMode,
    ) -> Result<Evaluation, SimError> {
        self.evaluate_with_operand_bits(w, choice, mode, None)
    }

    /// Evaluate with optional *measured* operand storage sizes (the
    /// structured-format extension's, passed through the search, where
    /// the analytic size model's uniform-random assumption would
    /// misprice BSR/DIA/ELL MCFs).
    pub(crate) fn evaluate_with_operand_bits(
        &self,
        w: &SageWorkload,
        choice: &FormatChoice,
        mode: ConversionMode,
        exact_bits: Option<(u64, u64)>,
    ) -> Result<Evaluation, SimError> {
        if matches!(mode, ConversionMode::RequireIdentity)
            && (choice.mcf_a != choice.acf_a || choice.mcf_b != choice.acf_b)
        {
            return Err(SimError::UnsupportedAcf {
                a: choice.acf_a,
                b: choice.acf_b,
            });
        }

        // ---- Cost model: DRAM traffic in the chosen MCFs.
        let (bits_a, bits_b) = match exact_bits {
            Some(pair) => pair,
            None => (
                matrix_storage_bits(&choice.mcf_a, w.m, w.k, w.nnz_a as usize, w.dtype),
                matrix_storage_bits(&choice.mcf_b, w.k, w.n, w.nnz_b as usize, w.dtype),
            ),
        };
        // Output writeback: dense for SpMM-like outputs, compressed for
        // sparse outputs; identical across choices so it never flips a
        // comparison, but keeps absolute numbers honest.
        let nnz_o = w.expected_nnz_out() as usize;
        let bits_o = matrix_storage_bits(&MatrixFormat::Dense, w.m, w.n, nnz_o, w.dtype).min(
            matrix_storage_bits(&MatrixFormat::Csr, w.m, w.n, nnz_o, w.dtype),
        );
        let dram_a_cycles = self.dram.transfer_cycles(bits_a) as f64;
        let dram_b_cycles = self.dram.transfer_cycles(bits_b) as f64;
        let dram_cycles = self.dram.transfer_cycles(bits_a + bits_b + bits_o) as f64;
        let dram_energy = self.dram.transfer_energy(bits_a + bits_b + bits_o);

        // ---- Performance model (needed first: hardware conversion
        // overlaps with fetch + compute).
        let ws = WsWorkload {
            m: w.m,
            k: w.k,
            n: w.n,
            nnz_a: w.nnz_a,
            nnz_b: w.nnz_b,
            acf_a: choice.acf_a,
            acf_b: choice.acf_b,
        };
        let est = if choice.acf_a == MatrixFormat::Csr && choice.acf_b == MatrixFormat::Csr {
            spgemm_estimate(&ws, &self.accel)?
        } else {
            ws_estimate(&ws, &self.accel)?
        };

        // ---- Conversion model.
        let conv_a = conversion_cost(&choice.mcf_a, &choice.acf_a, w.m, w.k, w.nnz_a, &self.mint);
        let conv_b = conversion_cost(&choice.mcf_b, &choice.acf_b, w.k, w.n, w.nnz_b, &self.mint);
        let (conv_cycles, conv_energy) = match mode {
            ConversionMode::RequireIdentity => (0.0, 0.0),
            ConversionMode::Hardware => {
                // "MINT is pipelined to start conversion while streaming
                // in data from memory" (SV-B), and the tiled runtime in
                // `sparseflex-core` additionally converts stationary tile
                // t+1 while the array computes tile t. Price that exact
                // schedule: A's conversion is prologue work hidden only
                // by its own fetch; B's spreads over the stationary tiles,
                // with tile 0 as pipeline fill and later tiles hidden
                // behind the previous tile's compute.
                let tiles = self.stationary_tiles(w);
                let added = sparseflex_mint::tiled::added_hardware_cycles(
                    conv_a.cycles as f64,
                    dram_a_cycles,
                    conv_b.cycles as f64,
                    dram_b_cycles,
                    est.cycles.total(),
                    tiles,
                );
                (added, conv_a.energy + conv_b.energy)
            }
            ConversionMode::Software {
                slowdown,
                pcie_bits_per_cycle,
            } => {
                // Host conversion: serialized, slowed, plus a PCIe round
                // trip for each converted operand (H2D + D2H).
                let mut cycles = 0.0;
                let mut energy = 0.0;
                for (conv, bits) in [(conv_a, bits_a), (conv_b, bits_b)] {
                    if conv.cycles > 0 {
                        cycles +=
                            conv.cycles as f64 * slowdown + 2.0 * bits as f64 / pcie_bits_per_cycle;
                        // Host DRAM traffic both ways dominates energy.
                        energy +=
                            conv.energy * slowdown + 2.0 * bits as f64 * self.energy.dram_per_bit();
                    }
                }
                (cycles, energy)
            }
        };

        Ok(Evaluation {
            choice: *choice,
            dram_cycles,
            dram_energy,
            conv_cycles,
            conv_energy,
            compute_cycles: est.cycles.total(),
            compute_energy: est.energy(&self.energy).total(),
            utilization: est.utilization(),
        })
    }

    /// Stable fingerprint of the full hardware configuration this
    /// predictor evaluates against (accelerator, DRAM, MINT, energy
    /// constants).
    ///
    /// Two `Sage` instances with equal fingerprints provably produce
    /// equal [`Evaluation`]s for equal workloads, so the fingerprint is
    /// the hardware half of a plan-cache key: cached evaluations are
    /// reused only while the configuration they were searched under
    /// stays in force (mutating `sage.accel` naturally invalidates them).
    pub fn config_fingerprint(&self) -> u64 {
        use std::fmt::Write;
        use std::hash::Hasher;
        // The Debug rendering covers every model parameter, including
        // float fields that cannot implement `Hash` directly; it is
        // streamed straight into the hasher (no intermediate string),
        // since this runs on the warm plan-cache lookup path.
        struct HashWriter(std::collections::hash_map::DefaultHasher);
        impl Write for HashWriter {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut w = HashWriter(std::collections::hash_map::DefaultHasher::new());
        write!(w, "{self:?}").expect("hashing never fails");
        w.0.finish()
    }

    /// Stationary tiles the pipelined runtime cuts a workload into: one
    /// weight-stationary array residency (`num_pes` stationary columns)
    /// per tile, clamped to keep the model O(1).
    fn stationary_tiles(&self, w: &SageWorkload) -> usize {
        w.n.div_ceil(self.accel.num_pes.max(1)).clamp(1, 4096)
    }

    /// Is this ACF pair executable for this kernel on the WS array?
    pub fn acf_supported(
        &self,
        w: &SageWorkload,
        acf_a: MatrixFormat,
        acf_b: MatrixFormat,
    ) -> bool {
        let spgemm_pair = acf_a == MatrixFormat::Csr && acf_b == MatrixFormat::Csr;
        if spgemm_pair {
            // Gustavson needs a sparse B; pointless for dense B.
            return w.kernel == SageKernel::SpGemm;
        }
        matches!(
            acf_a,
            MatrixFormat::Dense | MatrixFormat::Csr | MatrixFormat::Coo | MatrixFormat::Csc
        ) && matches!(acf_b, MatrixFormat::Dense | MatrixFormat::Csc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::DataType;

    fn choice(
        mcf_a: MatrixFormat,
        mcf_b: MatrixFormat,
        acf_a: MatrixFormat,
        acf_b: MatrixFormat,
    ) -> FormatChoice {
        FormatChoice {
            mcf_a,
            mcf_b,
            acf_a,
            acf_b,
        }
    }

    #[test]
    fn identity_mode_rejects_mismatched_formats() {
        let sage = Sage::default();
        let w = SageWorkload::spmm(1000, 1000, 500, 10_000, DataType::Fp32);
        let c = choice(
            MatrixFormat::Zvc,
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Dense,
        );
        assert!(sage
            .evaluate(&w, &c, ConversionMode::RequireIdentity)
            .is_err());
        let ok = choice(
            MatrixFormat::Csr,
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Dense,
        );
        assert!(sage
            .evaluate(&w, &ok, ConversionMode::RequireIdentity)
            .is_ok());
    }

    #[test]
    fn compact_mcf_cuts_dram_share() {
        let sage = Sage::default();
        let w = SageWorkload::spmm(4000, 4000, 2000, 160_000, DataType::Fp32); // 1% dense
        let dense_mcf = choice(
            MatrixFormat::Dense,
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Dense,
        );
        let csr_mcf = choice(
            MatrixFormat::Csr,
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Dense,
        );
        let e_dense = sage
            .evaluate(&w, &dense_mcf, ConversionMode::Hardware)
            .unwrap();
        let e_csr = sage
            .evaluate(&w, &csr_mcf, ConversionMode::Hardware)
            .unwrap();
        assert!(e_csr.dram_cycles < e_dense.dram_cycles);
        assert!(e_csr.total_energy() < e_dense.total_energy());
    }

    #[test]
    fn hardware_conversion_overlaps_software_does_not() {
        let sage = Sage::default();
        let w = SageWorkload::spmm(2000, 2000, 1000, 40_000, DataType::Fp32);
        let c = choice(
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Dense,
        );
        let hw = sage.evaluate(&w, &c, ConversionMode::Hardware).unwrap();
        let sw = sage
            .evaluate(&w, &c, ConversionMode::default_software())
            .unwrap();
        assert!(
            sw.conv_cycles > 10.0 * hw.conv_cycles.max(1.0),
            "sw {} vs hw {}",
            sw.conv_cycles,
            hw.conv_cycles
        );
        assert!(sw.total_cycles() > hw.total_cycles());
    }

    #[test]
    fn edp_scales_with_clock() {
        let sage = Sage::default();
        let w = SageWorkload::spmm(500, 500, 250, 5_000, DataType::Fp32);
        let c = choice(
            MatrixFormat::Csr,
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Dense,
        );
        let e = sage.evaluate(&w, &c, ConversionMode::Hardware).unwrap();
        assert!(e.edp(1e9) > e.edp(2e9));
        assert!(e.total_cycles() > 0.0);
        assert!(e.total_energy() > 0.0);
    }

    #[test]
    fn config_fingerprint_tracks_hardware_changes() {
        let a = Sage::default();
        let mut b = Sage::default();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        b.accel.num_pes = a.accel.num_pes / 2;
        assert_ne!(a.config_fingerprint(), b.config_fingerprint());
        b.accel.num_pes = a.accel.num_pes;
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
    }

    #[test]
    fn spgemm_pair_only_for_spgemm_kernel() {
        let sage = Sage::default();
        let spmm = SageWorkload::spmm(100, 100, 100, 1_000, DataType::Fp32);
        let spgemm = SageWorkload::spgemm(100, 100, 100, 1_000, 1_000, DataType::Fp32);
        assert!(!sage.acf_supported(&spmm, MatrixFormat::Csr, MatrixFormat::Csr));
        assert!(sage.acf_supported(&spgemm, MatrixFormat::Csr, MatrixFormat::Csr));
        assert!(sage.acf_supported(&spmm, MatrixFormat::Coo, MatrixFormat::Dense));
        assert!(!sage.acf_supported(&spmm, MatrixFormat::Zvc, MatrixFormat::Dense));
    }
}
