//! Prefix-sum (scan) units — the three designs of Fig. 9.
//!
//! "Prefix sums are often used during format conversions" (§V-A). The
//! paper shows three implementations, each reusable on top of existing
//! accelerator reduction hardware:
//!
//! - **Serial chain** (Fig. 9a): a systolic chain with diagonal
//!   forwarding links; throughput `width` outputs/cycle once filled, fill
//!   latency `width` cycles, plus a final offset-adder row that carries
//!   the running total between blocks. Cheapest overlay (+2% area / +3%
//!   power on a 16x16 int32 PE array, §VII-B).
//! - **Work efficient** (Fig. 9b): Brent-Kung on an adder-tree reduction
//!   network; `2*log2(width)` cycles per block, not pipelined across
//!   blocks (the tree is reused for both sweeps).
//! - **Highly parallel** (Fig. 9c): Kogge-Stone; `log2(width)` latency,
//!   fully pipelined, most adders and forwarding links (+20% area / +27%
//!   power overlay).

use super::E_SMALL_OP;
use crate::report::{BlockKind, ConversionReport};

/// Which Fig. 9 implementation a [`PrefixSumUnit`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixSumDesign {
    /// Fig. 9a — systolic chain with diagonal links.
    SerialChain,
    /// Fig. 9b — work-efficient (Brent-Kung) on an adder tree.
    WorkEfficient,
    /// Fig. 9c — highly parallel (Kogge-Stone).
    HighlyParallel,
}

/// A scan unit of a given width and design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixSumUnit {
    /// Inputs consumed per block (the paper uses 32 "to satisfy MINT
    /// throughput").
    pub width: usize,
    /// Hardware design point.
    pub design: PrefixSumDesign,
}

impl PrefixSumUnit {
    /// The paper's MINT configuration: 32-wide highly parallel scan.
    pub fn mint_default() -> Self {
        PrefixSumUnit {
            width: 32,
            design: PrefixSumDesign::HighlyParallel,
        }
    }

    /// Pipeline fill latency in cycles.
    pub fn latency(&self) -> u64 {
        let w = self.width.max(2) as u64;
        let log = (64 - (w - 1).leading_zeros()) as u64;
        match self.design {
            PrefixSumDesign::SerialChain => w, // one hop per element
            PrefixSumDesign::WorkEfficient => 2 * log,
            PrefixSumDesign::HighlyParallel => log,
        }
    }

    /// Busy cycles to scan `n` elements.
    pub fn cycles(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let w = self.width.max(1) as u64;
        let blocks = n.div_ceil(w);
        match self.design {
            // Pipelined: one block per cycle after fill.
            PrefixSumDesign::SerialChain | PrefixSumDesign::HighlyParallel => blocks,
            // Tree reused for up-sweep and down-sweep: not pipelined.
            PrefixSumDesign::WorkEfficient => blocks * self.latency(),
        }
    }

    /// Active adders in the design (drives area/power overlays).
    pub fn adder_count(&self) -> u64 {
        let w = self.width.max(2) as u64;
        let log = (64 - (w - 1).leading_zeros()) as u64;
        match self.design {
            // Chain + final offset row.
            PrefixSumDesign::SerialChain => 2 * w,
            // Brent-Kung uses ~2w adders worth of tree nodes.
            PrefixSumDesign::WorkEfficient => 2 * w - log - 2,
            // Kogge-Stone: w adders per stage.
            PrefixSumDesign::HighlyParallel => w * log,
        }
    }

    /// Energy to scan `n` elements (each element passes `latency`-ish
    /// adder stages; serial chain does 2 adds per element).
    pub fn energy(&self, n: u64) -> f64 {
        let per_elem = match self.design {
            PrefixSumDesign::SerialChain => 2.0,
            PrefixSumDesign::WorkEfficient => 2.0,
            PrefixSumDesign::HighlyParallel => {
                let w = self.width.max(2) as u64;
                (64 - (w - 1).leading_zeros()) as f64
            }
        };
        n as f64 * per_elem * E_SMALL_OP
    }

    /// Charge the report for scanning `n` elements.
    pub fn charge(&self, n: u64, report: &mut ConversionReport) {
        report.charge(BlockKind::PrefixSum, self.cycles(n), self.energy(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_records_cycles_and_energy() {
        let unit = PrefixSumUnit::mint_default();
        let mut r = ConversionReport::default();
        unit.charge(4, &mut r);
        assert_eq!(r.cycles(BlockKind::PrefixSum), unit.cycles(4));
        assert_eq!(r.energy(BlockKind::PrefixSum), unit.energy(4));
    }

    #[test]
    fn latencies_match_fig9() {
        let w = 32;
        let chain = PrefixSumUnit {
            width: w,
            design: PrefixSumDesign::SerialChain,
        };
        let work = PrefixSumUnit {
            width: w,
            design: PrefixSumDesign::WorkEfficient,
        };
        let par = PrefixSumUnit {
            width: w,
            design: PrefixSumDesign::HighlyParallel,
        };
        assert_eq!(chain.latency(), 32);
        assert_eq!(work.latency(), 10); // 2 * log2(32)
        assert_eq!(par.latency(), 5); // "latency of logN cycles"
    }

    #[test]
    fn parallel_needs_more_adders_than_chain() {
        // Fig. 9c "requires more active adders and forwarding links".
        let w = 32;
        let chain = PrefixSumUnit {
            width: w,
            design: PrefixSumDesign::SerialChain,
        };
        let par = PrefixSumUnit {
            width: w,
            design: PrefixSumDesign::HighlyParallel,
        };
        assert!(par.adder_count() > chain.adder_count());
    }

    #[test]
    fn pipelined_designs_sustain_block_per_cycle() {
        let par = PrefixSumUnit {
            width: 32,
            design: PrefixSumDesign::HighlyParallel,
        };
        assert_eq!(par.cycles(3200), 100);
        let work = PrefixSumUnit {
            width: 32,
            design: PrefixSumDesign::WorkEfficient,
        };
        assert_eq!(work.cycles(3200), 100 * work.latency());
        assert!(work.cycles(3200) > par.cycles(3200));
    }

    #[test]
    fn zero_elements_cost_nothing() {
        let unit = PrefixSumUnit::mint_default();
        assert_eq!(unit.cycles(0), 0);
        assert_eq!(unit.energy(0), 0.0);
    }
}
