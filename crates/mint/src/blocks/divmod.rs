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

    /// Charge the report for `n` divide+mod operations, without
    /// computing them (for conversions that need only the cost).
    pub fn charge(&self, n: u64, report: &mut ConversionReport) {
        report.charge(BlockKind::Divider, self.cycles(n), self.energy(n) / 2.0);
        report.charge(BlockKind::Modulo, self.cycles(n), self.energy(n) / 2.0);
    }

    /// Functional divide+mod over a slice, charging the report once for
    /// the whole batch.
    pub fn div_mod(
        &self,
        values: &[u64],
        divisor: u64,
        report: &mut ConversionReport,
    ) -> Vec<(u64, u64)> {
        assert!(divisor > 0, "divide by zero in DivModArray");
        self.charge(values.len() as u64, report);
        values.iter().map(|&v| (v / divisor, v % divisor)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_divmod() {
        let arr = DivModArray::mint_default();
        let mut r = ConversionReport::default();
        let out = arr.div_mod(&[10, 17, 3], 4, &mut r);
        assert_eq!(out, vec![(2, 2), (4, 1), (0, 3)]);
    }

    #[test]
    fn eight_units_process_eight_per_cycle() {
        let arr = DivModArray::mint_default();
        assert_eq!(arr.cycles(8), 1);
        assert_eq!(arr.cycles(9), 2);
        assert_eq!(arr.cycles(0), 0);
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn zero_divisor_panics() {
        let arr = DivModArray::mint_default();
        let mut r = ConversionReport::default();
        let _ = arr.div_mod(&[1], 0, &mut r);
    }

    #[test]
    fn charges_both_divider_and_modulo() {
        let arr = DivModArray::mint_default();
        let mut r = ConversionReport::default();
        let _ = arr.div_mod(&[1, 2, 3], 2, &mut r);
        assert!(r.cycles(crate::report::BlockKind::Divider) > 0);
        assert!(r.cycles(crate::report::BlockKind::Modulo) > 0);
    }
}
