//! Per-conversion usage reports.

/// The MINT building-block kinds (Fig. 8a's library).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKind {
    /// Prefix-sum (scan) unit.
    PrefixSum,
    /// Pipelined bitonic sorting network.
    Sorter,
    /// Cluster counter (run/occurrence counting on sorted chunks).
    ClusterCounter,
    /// Parallel divide units.
    Divider,
    /// Parallel modulo units.
    Modulo,
    /// Comparator bank.
    Comparators,
    /// Memory controller (address generators, FIFOs, crossbar).
    MemController,
    /// Scalar adder bank (increments, offsets).
    Adders,
}

impl BlockKind {
    /// Every kind, in declaration order (a report's index order).
    pub(crate) const ALL: [BlockKind; 8] = [
        BlockKind::PrefixSum,
        BlockKind::Sorter,
        BlockKind::ClusterCounter,
        BlockKind::Divider,
        BlockKind::Modulo,
        BlockKind::Comparators,
        BlockKind::MemController,
        BlockKind::Adders,
    ];

    /// Short name for CSV output.
    pub const fn name(self) -> &'static str {
        match self {
            BlockKind::PrefixSum => "prefix_sum",
            BlockKind::Sorter => "sorter",
            BlockKind::ClusterCounter => "cluster_counter",
            BlockKind::Divider => "divider",
            BlockKind::Modulo => "modulo",
            BlockKind::Comparators => "comparators",
            BlockKind::MemController => "mem_controller",
            BlockKind::Adders => "adders",
        }
    }
}

/// Cycle and energy usage of one conversion, per building block.
///
/// MINT pipelines blocks against the incoming DRAM stream ("MINT is
/// pipelined to start conversion while streaming in data from memory",
/// §V-B), so the wall-clock cycle count of a conversion is the *maximum*
/// stage occupancy plus pipeline fill, not the sum — both views are
/// exposed.
///
/// Per-block totals live in fixed arrays indexed by [`BlockKind`]. A block
/// never charged holds −0.0 energy, the additive identity, so a sum over
/// every kind equals the sum over the charged ones bit for bit (an empty
/// report's [`total_energy`](Self::total_energy) is −0.0, an `f64` sum of
/// nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionReport {
    block_cycles: [u64; BlockKind::ALL.len()],
    block_energy: [f64; BlockKind::ALL.len()],
    /// Pipeline fill/flush latency (sum of stage latencies).
    pub fill_latency: u64,
    /// Elements processed (for throughput reporting).
    pub elements: u64,
}

impl Default for ConversionReport {
    fn default() -> Self {
        ConversionReport {
            block_cycles: [0; BlockKind::ALL.len()],
            block_energy: [-0.0; BlockKind::ALL.len()],
            fill_latency: 0,
            elements: 0,
        }
    }
}

impl ConversionReport {
    /// Record `cycles` of busy time and `energy` joules against a block.
    pub fn charge(&mut self, kind: BlockKind, cycles: u64, energy: f64) {
        self.block_cycles[kind as usize] += cycles;
        self.block_energy[kind as usize] += energy;
    }

    /// Merge another report into this one (sequential composition).
    pub fn merge(&mut self, other: &ConversionReport) {
        for (c, o) in self.block_cycles.iter_mut().zip(other.block_cycles) {
            *c += o;
        }
        for (e, o) in self.block_energy.iter_mut().zip(other.block_energy) {
            *e += o;
        }
        self.fill_latency += other.fill_latency;
        self.elements += other.elements;
    }

    /// Busy cycles charged to `kind`.
    pub fn cycles(&self, kind: BlockKind) -> u64 {
        self.block_cycles[kind as usize]
    }

    /// Energy charged to `kind` (joules).
    pub fn energy(&self, kind: BlockKind) -> f64 {
        self.block_energy[kind as usize]
    }

    /// The blocks with busy cycles, in `BlockKind::ALL` order.
    pub fn busy_blocks(&self) -> impl Iterator<Item = (BlockKind, u64)> + '_ {
        BlockKind::ALL
            .into_iter()
            .map(|k| (k, self.cycles(k)))
            .filter(|&(_, c)| c > 0)
    }

    /// Pipelined wall-clock cycles: the busiest stage bounds throughput,
    /// plus the fill latency.
    pub fn pipelined_cycles(&self) -> u64 {
        self.block_cycles.iter().copied().max().unwrap_or(0) + self.fill_latency
    }

    /// Fully serialized cycles (no stage overlap) — the upper bound.
    pub fn serialized_cycles(&self) -> u64 {
        self.block_cycles.iter().sum::<u64>() + self.fill_latency
    }

    /// Total conversion energy in joules.
    pub fn total_energy(&self) -> f64 {
        self.block_energy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut r = ConversionReport::default();
        r.charge(BlockKind::PrefixSum, 10, 1e-12);
        r.charge(BlockKind::PrefixSum, 5, 1e-12);
        r.charge(BlockKind::Sorter, 40, 2e-12);
        assert_eq!(r.cycles(BlockKind::PrefixSum), 15);
        assert_eq!(r.serialized_cycles(), 55);
        assert_eq!(r.pipelined_cycles(), 40);
        assert!((r.total_energy() - 4e-12).abs() < 1e-20);
    }

    #[test]
    fn uncharged_blocks_leave_every_sum_unchanged() {
        // An empty report's energy is an f64 sum of nothing: -0.0.
        let mut r = ConversionReport::default();
        assert_eq!(r.total_energy().to_bits(), (-0.0f64).to_bits());
        assert_eq!((r.pipelined_cycles(), r.serialized_cycles()), (0, 0));
        r.charge(BlockKind::Sorter, 0, 0.0);
        assert_eq!(r.total_energy().to_bits(), 0.0f64.to_bits());
        assert_eq!(r.busy_blocks().count(), 0);
    }

    #[test]
    fn pipelined_bounded_by_serialized() {
        let mut r = ConversionReport {
            fill_latency: 7,
            ..Default::default()
        };
        r.charge(BlockKind::Divider, 100, 0.0);
        r.charge(BlockKind::MemController, 80, 0.0);
        assert!(r.pipelined_cycles() <= r.serialized_cycles());
        assert_eq!(r.pipelined_cycles(), 107);
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = ConversionReport::default();
        a.charge(BlockKind::Adders, 3, 1.0);
        let mut b = ConversionReport::default();
        b.charge(BlockKind::Adders, 4, 2.0);
        b.charge(BlockKind::Sorter, 9, 0.5);
        a.merge(&b);
        assert_eq!(a.cycles(BlockKind::Adders), 7);
        assert_eq!(a.cycles(BlockKind::Sorter), 9);
        assert_eq!(a.total_energy(), 3.5);
    }
}
