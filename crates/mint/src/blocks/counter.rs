//! Cluster counter: occurrence counting over sorted chunks.
//!
//! Fig. 8c step 3 "counts the number of specific values within the
//! chunk" after the sorting network groups equal ids together. A bank of
//! comparators detects run boundaries and per-lane counters accumulate
//! run lengths in a single cycle per chunk.

use super::E_SMALL_OP;
use crate::report::{BlockKind, ConversionReport};

/// A cluster counter matched to a sorting-network width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCounter {
    /// Chunk width.
    pub width: usize,
}

impl ClusterCounter {
    /// MINT default, matched to the sorter.
    pub fn mint_default() -> Self {
        ClusterCounter { width: 16 }
    }

    /// Busy cycles for `n` elements (one chunk per cycle).
    pub fn cycles(&self, n: u64) -> u64 {
        n.div_ceil(self.width.max(1) as u64)
    }

    /// Energy: one comparison + one counter update per element.
    pub fn energy(&self, n: u64) -> f64 {
        n as f64 * 2.0 * E_SMALL_OP
    }

    /// Charge the report for counting `n` elements.
    pub fn charge(&self, n: u64, report: &mut ConversionReport) {
        report.charge(BlockKind::ClusterCounter, self.cycles(n), self.energy(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_records_cycles_and_energy() {
        let c = ClusterCounter::mint_default();
        let mut r = ConversionReport::default();
        c.charge(6, &mut r);
        assert_eq!(r.cycles(BlockKind::ClusterCounter), c.cycles(6));
        assert_eq!(r.energy(BlockKind::ClusterCounter), c.energy(6));
    }

    #[test]
    fn chunked_throughput() {
        let c = ClusterCounter { width: 4 };
        assert_eq!(c.cycles(9), 3);
        assert_eq!(c.cycles(0), 0);
    }
}
