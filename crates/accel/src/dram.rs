//! DRAM transfer model: cycles and energy of moving an MCF-encoded
//! operand between DRAM and the accelerator's global scratchpad.
//!
//! This is the "cost model" half of SAGE (§VI): "the cost model first
//! predicts the DRAM energy consumption and transfer cycles cost. This is
//! directly proportional to the compression size of the MCF."

use crate::energy::EnergyModel;
use sparseflex_formats::size_model::matrix_storage_bits;
use sparseflex_formats::{DataType, MatrixFormat};

/// DRAM interface parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Sustained bandwidth in bits per accelerator cycle. The paper's
    /// 512-bit input bus is fed at line rate, so 512 bits/cycle at 1 GHz
    /// = 64 GB/s — HBM-class.
    pub bits_per_cycle: u64,
    /// Energy accounting constants.
    pub energy: EnergyModel,
}

impl DramModel {
    /// Default model matched to the paper configuration.
    pub fn paper() -> Self {
        DramModel {
            bits_per_cycle: 512,
            energy: EnergyModel::default_28nm(),
        }
    }

    /// Cycles to transfer `bits` of payload.
    pub fn transfer_cycles(&self, bits: u64) -> u64 {
        bits.div_ceil(self.bits_per_cycle)
    }

    /// Energy (J) to transfer `bits` of payload.
    pub fn transfer_energy(&self, bits: u64) -> f64 {
        bits as f64 * self.energy.dram_per_bit()
    }

    /// Cycles to fetch a matrix operand stored in `mcf`.
    pub fn matrix_fetch_cycles(
        &self,
        mcf: &MatrixFormat,
        rows: usize,
        cols: usize,
        nnz: usize,
        dtype: DataType,
    ) -> u64 {
        self.transfer_cycles(matrix_storage_bits(mcf, rows, cols, nnz, dtype))
    }

    /// Energy to fetch a matrix operand stored in `mcf`.
    pub fn matrix_fetch_energy(
        &self,
        mcf: &MatrixFormat,
        rows: usize,
        cols: usize,
        nnz: usize,
        dtype: DataType,
    ) -> f64 {
        self.transfer_energy(matrix_storage_bits(mcf, rows, cols, nnz, dtype))
    }
}

impl Default for DramModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_round_up() {
        let d = DramModel::paper();
        assert_eq!(d.transfer_cycles(0), 0);
        assert_eq!(d.transfer_cycles(1), 1);
        assert_eq!(d.transfer_cycles(512), 1);
        assert_eq!(d.transfer_cycles(513), 2);
    }

    #[test]
    fn energy_proportional_to_size() {
        let d = DramModel::paper();
        let e1 = d.transfer_energy(1000);
        let e2 = d.transfer_energy(2000);
        assert!((e2 - 2.0 * e1).abs() < 1e-18);
    }

    #[test]
    fn compact_mcf_costs_less() {
        // Fig. 4's whole point: at 1% density, CSR transfers fewer bits
        // than Dense, so fewer cycles and less energy.
        let d = DramModel::paper();
        let (m, k) = (1000, 1000);
        let nnz = 10_000;
        let csr = d.matrix_fetch_cycles(&MatrixFormat::Csr, m, k, nnz, DataType::Fp32);
        let dense = d.matrix_fetch_cycles(&MatrixFormat::Dense, m, k, nnz, DataType::Fp32);
        assert!(csr < dense / 10, "csr {csr} vs dense {dense}");
        let e_csr = d.matrix_fetch_energy(&MatrixFormat::Csr, m, k, nnz, DataType::Fp32);
        let e_dense = d.matrix_fetch_energy(&MatrixFormat::Dense, m, k, nnz, DataType::Fp32);
        assert!(e_csr < e_dense);
    }
}
