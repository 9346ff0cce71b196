//! Pipelined bitonic sorting network.
//!
//! The paper's MINT includes "a pipelined sorting network (input size
//! equal to the number of unique metadata coming in per cycle)" (§VII-B),
//! used e.g. by CSR→CSC to sort each chunk of column ids before cluster
//! counting (Fig. 8c step 2).

use super::E_SORT_STAGE;
use crate::report::{BlockKind, ConversionReport};

/// A bitonic sorting network of a fixed power-of-two width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortingNetwork {
    /// Chunk width (power of two).
    pub width: usize,
}

impl SortingNetwork {
    /// MINT's default width: 16 metadata elements per cycle (the 512-bit
    /// bus delivers up to 16 32-bit words).
    pub fn mint_default() -> Self {
        SortingNetwork { width: 16 }
    }

    /// Compare-exchange stages: `log2(w) * (log2(w) + 1) / 2`.
    pub fn stages(&self) -> u64 {
        let w = self.width.max(2) as u64;
        let log = (64 - (w - 1).leading_zeros()) as u64;
        log * (log + 1) / 2
    }

    /// Busy cycles for `n` elements (pipelined: one chunk per cycle after
    /// the `stages()` fill).
    pub fn cycles(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        n.div_ceil(self.width.max(1) as u64)
    }

    /// Pipeline fill latency.
    pub fn latency(&self) -> u64 {
        self.stages()
    }

    /// Energy for `n` elements (each traverses every stage).
    pub fn energy(&self, n: u64) -> f64 {
        n as f64 * self.stages() as f64 * E_SORT_STAGE
    }

    /// Charge the report for sorting `n` elements.
    pub fn charge(&self, n: u64, report: &mut ConversionReport) {
        report.charge(BlockKind::Sorter, self.cycles(n), self.energy(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_count_matches_bitonic() {
        assert_eq!(SortingNetwork { width: 16 }.stages(), 10); // 4*5/2
        assert_eq!(SortingNetwork { width: 8 }.stages(), 6); // 3*4/2
        assert_eq!(SortingNetwork { width: 2 }.stages(), 1);
    }

    #[test]
    fn charge_records_cycles_and_energy() {
        let net = SortingNetwork { width: 4 };
        let mut r = ConversionReport::default();
        net.charge(8, &mut r);
        assert_eq!(r.cycles(BlockKind::Sorter), net.cycles(8));
        assert_eq!(r.energy(BlockKind::Sorter), net.energy(8));
    }

    #[test]
    fn throughput_one_chunk_per_cycle() {
        let net = SortingNetwork { width: 16 };
        assert_eq!(net.cycles(160), 10);
        assert_eq!(net.cycles(161), 11);
        assert_eq!(net.cycles(0), 0);
    }
}
