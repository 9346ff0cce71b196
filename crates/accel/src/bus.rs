//! Broadcast-bus beat packing rules (the Fig. 6 arithmetic).
//!
//! The distribution bus delivers `bus_slots` element-sized slots per
//! cycle, where a slot carries either an operand element or a metadata
//! element ("we assume that each metadata and data element consume the
//! same amount of resources", §IV-B). How many matrix-A elements fit in
//! one beat depends on the streaming ACF:
//!
//! | ACF of A | slot layout per beat | elements/beat |
//! |---|---|---|
//! | Dense | 1 shared row id + data | `slots - 1` |
//! | CSR | 1 shared row id + (data, col id) pairs | `(slots - 1) / 2` |
//! | CSC | 1 shared col id + (data, row id) pairs | `(slots - 1) / 2` |
//! | COO | (data, col id, row id) triples | `slots / 3` |
//!
//! A beat never mixes rows (CSR/Dense) or columns (CSC): "if the row id
//! is not common among both data, it must be broken up" (§IV-B).

/// Packing calculator for a bus of `slots` element slots per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusPacking {
    /// Bus capacity in element slots per cycle.
    pub slots: usize,
}

/// Result of packing one operand stream: beat count and slot traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamBeats {
    /// Bus cycles consumed (one beat per cycle before PE stalls).
    pub beats: u64,
    /// Total element slots carried (data + metadata), for NoC energy.
    pub slots_used: u64,
}

impl BusPacking {
    /// Data elements per beat for a Dense stream (row id shares the beat).
    pub fn dense_capacity(&self) -> usize {
        self.slots.saturating_sub(1).max(1)
    }

    /// (data, index) pairs per beat for CSR/CSC streams.
    pub fn pair_capacity(&self) -> usize {
        (self.slots.saturating_sub(1) / 2).max(1)
    }

    /// (data, col id, row id) triples per beat for COO streams.
    pub fn triple_capacity(&self) -> usize {
        (self.slots / 3).max(1)
    }

    /// Beats to broadcast-load `elems` stationary element slots into PE
    /// buffers (values and metadata alike ride the same bus).
    pub fn load_run(&self, elems: usize) -> StreamBeats {
        let beats = (elems as u64).div_ceil(self.slots as u64);
        StreamBeats {
            beats,
            slots_used: elems as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 6's five-slot bus.
    const FIG6: BusPacking = BusPacking { slots: 5 };

    #[test]
    fn fig6_capacities() {
        assert_eq!(FIG6.dense_capacity(), 4); // "four data elements and one row id"
        assert_eq!(FIG6.pair_capacity(), 2); // "two data elements, two col ids, one common row id"
        assert_eq!(FIG6.triple_capacity(), 1); // "only one data entry can be sent per cycle"
    }

    #[test]
    fn paper_bus_capacities() {
        let bus = BusPacking { slots: 16 };
        assert_eq!(bus.dense_capacity(), 15);
        assert_eq!(bus.pair_capacity(), 7);
        assert_eq!(bus.triple_capacity(), 5);
    }

    #[test]
    fn degenerate_narrow_bus_still_progresses() {
        let bus = BusPacking { slots: 1 };
        assert!(bus.dense_capacity() >= 1);
        assert!(bus.pair_capacity() >= 1);
        assert!(bus.triple_capacity() >= 1);
    }

    #[test]
    fn load_run_uses_full_bus() {
        assert_eq!(FIG6.load_run(10).beats, 2);
        assert_eq!(FIG6.load_run(11).beats, 3);
        assert_eq!(FIG6.load_run(0).beats, 0);
    }
}
