//! Accelerator configuration.

use sparseflex_formats::DataType;

/// Hardware parameters of the weight-stationary accelerator template.
///
/// The paper's evaluation configuration (§VII-A): "all accelerators are
/// given 16384 total MAC units (similar to Google TPU), 512B of buffer
/// storage per PE, 512-bit input bus per cycle, and 32-bit datatype"; PEs
/// have "a vector size of eight 32-bit compute units" (§IV-A), giving
/// 2048 PEs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Number of processing elements.
    pub num_pes: usize,
    /// MAC lanes per PE vector unit.
    pub vector_width: usize,
    /// Per-PE scratchpad size in **element slots** (the paper's Fig. 6
    /// accounting treats each data or metadata element as one slot).
    pub pe_buffer_elems: usize,
    /// Broadcast-bus capacity per cycle in element slots.
    pub bus_slots: usize,
    /// Logical element datatype (sets slot width for DRAM accounting).
    pub dtype: DataType,
    /// Clock frequency in Hz (1 GHz per the MINT synthesis in §VII-B).
    pub clock_hz: f64,
}

impl AccelConfig {
    /// The §VII-A evaluation configuration: 2048 PEs x 8 lanes = 16384
    /// MACs, 512 B / 4 B = 128 element slots per PE, 512-bit / 32-bit = 16
    /// bus slots per cycle.
    pub fn paper() -> Self {
        AccelConfig {
            num_pes: 2048,
            vector_width: 8,
            pe_buffer_elems: 128,
            bus_slots: 16,
            dtype: DataType::Fp32,
            clock_hz: 1.0e9,
        }
    }

    /// The Fig. 6 walkthrough configuration: "we assume 4 PEs, a
    /// distribution bandwidth of five elements per cycle, and a weight
    /// buffer size of eight elements per PE".
    pub fn walkthrough() -> Self {
        AccelConfig {
            num_pes: 4,
            vector_width: 8,
            pe_buffer_elems: 8,
            bus_slots: 5,
            dtype: DataType::Fp32,
            clock_hz: 1.0e9,
        }
    }

    /// Total MAC lanes in the array.
    pub fn total_macs(&self) -> usize {
        self.num_pes * self.vector_width
    }

    /// Bus width in bits (slots x element width).
    pub fn bus_bits(&self) -> u64 {
        self.bus_slots as u64 * self.dtype.bits()
    }

    /// Per-PE buffer size in bytes.
    pub fn pe_buffer_bytes(&self) -> u64 {
        self.pe_buffer_elems as u64 * self.dtype.bytes()
    }
}

impl Default for AccelConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_7a() {
        let c = AccelConfig::paper();
        assert_eq!(c.total_macs(), 16_384);
        assert_eq!(c.pe_buffer_bytes(), 512);
        assert_eq!(c.bus_bits(), 512);
        assert_eq!(c.dtype, DataType::Fp32);
    }

    #[test]
    fn walkthrough_config_matches_fig6() {
        let c = AccelConfig::walkthrough();
        assert_eq!(c.num_pes, 4);
        assert_eq!(c.bus_slots, 5);
        assert_eq!(c.pe_buffer_elems, 8);
    }
}
