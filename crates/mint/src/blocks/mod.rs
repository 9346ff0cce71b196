//! MINT's building-block library (Fig. 8a).
//!
//! Each block is *metered*: a conversion step charges it the elements
//! the step pushes through it, and it reports busy cycles and energy for
//! the cost model. The converted operands themselves come from the
//! conversions of `sparseflex-formats`. Throughput parameters default to
//! the paper's MINT implementation (§VII-B): a 32-input prefix-sum
//! overlay, eight parallel divide/mod units, a sorting network sized to
//! the per-cycle metadata rate, and a memory controller with address
//! generators, FIFOs and a crossbar.

pub mod counter;
pub mod divmod;
pub mod memctrl;
pub mod prefix_sum;
pub mod sorter;

pub use counter::ClusterCounter;
pub use divmod::DivModArray;
pub use memctrl::MemController;
pub use prefix_sum::{PrefixSumDesign, PrefixSumUnit};
pub use sorter::SortingNetwork;

/// Energy charged per element-op flowing through a small arithmetic
/// block (comparator, adder, counter) — int32-scale, in joules.
pub const E_SMALL_OP: f64 = 0.1e-12;
/// Lane width of the adder / comparator banks (elements per cycle).
const SMALL_BANK_WIDTH: u64 = 16;

/// Busy cycles for `n` elements through a 16-wide adder/comparator bank.
#[inline]
pub fn small_op_cycles(n: u64) -> u64 {
    n.div_ceil(SMALL_BANK_WIDTH)
}
/// Energy per element through a divide/mod unit (pipelined int32 divide).
pub const E_DIVMOD_OP: f64 = 2.0e-12;
/// Energy per element through one sorting-network stage.
pub const E_SORT_STAGE: f64 = 0.15e-12;
/// Energy per 32-bit element moved by the memory controller (FIFO +
/// crossbar + scratchpad port).
pub const E_MEMCTRL_OP: f64 = 1.0e-12;
