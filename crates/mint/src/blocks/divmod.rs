//! Parallel divide / modulo units.
//!
//! Position calculations (flat offset → coordinates) need integer divide
//! and mod by tensor dimensions (Fig. 8d step 4, Fig. 8f step 3). "We
//! limit the number of parallel mod and divider units to eight due to how
//! hardware expensive the modules are" (§VII-B); together they consume
//! 74% of MINT_m's area and 65% of its power. When dimensions are powers
//! of two the divide degenerates to a shift, but the hardware must cover
//! the general case.

use super::E_DIVMOD_OP;
use crate::report::{BlockKind, ConversionReport};

/// An array of pipelined divide+mod units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivModArray {
    /// Parallel units (the paper uses 8).
    pub units: usize,
    /// Pipeline depth of one unit (int32 divider).
    pub depth: u64,
}

impl DivModArray {
    /// The paper's MINT configuration: eight pipelined units.
    pub fn mint_default() -> Self {
        DivModArray { units: 8, depth: 4 }
    }

    /// Busy cycles to process `n` (dividend, divisor) pairs.
    pub fn cycles(&self, n: u64) -> u64 {
        n.div_ceil(self.units.max(1) as u64)
    }

    /// Pipeline fill latency.
    pub fn latency(&self) -> u64 {
        self.depth
    }

    /// Energy for `n` operations (divide + mod share the datapath).
    pub fn energy(&self, n: u64) -> f64 {
        n as f64 * E_DIVMOD_OP
    }

    /// Charge the report for `n` divide+mod operations.
    pub fn charge(&self, n: u64, report: &mut ConversionReport) {
        report.charge(BlockKind::Divider, self.cycles(n), self.energy(n) / 2.0);
        report.charge(BlockKind::Modulo, self.cycles(n), self.energy(n) / 2.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_units_process_eight_per_cycle() {
        let arr = DivModArray::mint_default();
        assert_eq!(arr.cycles(8), 1);
        assert_eq!(arr.cycles(9), 2);
        assert_eq!(arr.cycles(0), 0);
    }

    #[test]
    fn charges_both_divider_and_modulo() {
        let arr = DivModArray::mint_default();
        let mut r = ConversionReport::default();
        arr.charge(3, &mut r);
        for kind in [BlockKind::Divider, BlockKind::Modulo] {
            assert_eq!(r.cycles(kind), arr.cycles(3));
            assert_eq!(r.energy(kind), arr.energy(3) / 2.0);
        }
    }
}
