//! Memory controller: address generators, FIFOs and a crossbar feeding
//! the conversion scratchpad (§VII-B lists it among MINT's components).

use super::E_MEMCTRL_OP;
use crate::report::{BlockKind, ConversionReport};

/// Scratchpad-facing memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemController {
    /// Elements moved per cycle (reads or writes, crossbar-limited).
    pub elems_per_cycle: usize,
    /// Fixed request setup latency.
    pub setup_latency: u64,
}

impl MemController {
    /// MINT default: 16 elements/cycle (512-bit port), 4-cycle setup.
    pub fn mint_default() -> Self {
        MemController {
            elems_per_cycle: 16,
            setup_latency: 4,
        }
    }

    /// Busy cycles to move `n` elements.
    pub fn cycles(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        n.div_ceil(self.elems_per_cycle.max(1) as u64)
    }

    /// Energy to move `n` elements.
    pub fn energy(&self, n: u64) -> f64 {
        n as f64 * E_MEMCTRL_OP
    }

    /// Charge a transfer of `n` elements against the report.
    pub fn transfer(&self, n: u64, report: &mut ConversionReport) {
        report.charge(BlockKind::MemController, self.cycles(n), self.energy(n));
    }

    /// Charge the transfers of `ns` elements as one: their cycles and
    /// energies are summed, in order, before they reach the report.
    pub fn transfer_all(&self, ns: &[u64], report: &mut ConversionReport) {
        let cycles = ns.iter().map(|&n| self.cycles(n)).sum();
        let energy = ns.iter().fold(0.0, |e, &n| e + self.energy(n));
        report.charge(BlockKind::MemController, cycles, energy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_round_up() {
        let m = MemController::mint_default();
        assert_eq!(m.cycles(16), 1);
        assert_eq!(m.cycles(17), 2);
        assert_eq!(m.cycles(0), 0);
    }

    #[test]
    fn transfer_charges_report() {
        let m = MemController::mint_default();
        let mut r = ConversionReport::default();
        m.transfer(32, &mut r);
        assert_eq!(r.cycles(BlockKind::MemController), 2);
        assert!(r.total_energy() > 0.0);
    }
}
