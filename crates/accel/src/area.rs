//! Area and power model for the PE array (Fig. 7b).
//!
//! The paper reports that extending a base PE (vector MAC, weight buffer,
//! output registers) with the flexible-ACF machinery (metadata
//! comparators, a one-hot-to-binary encoder, data/metadata flags and the
//! valid-data address generator) "increases the size of a PE with 128B
//! buffer by ~10%" (Fig. 7b). We model component areas in normalized
//! units calibrated so that ratio holds, then scale to the evaluation
//! configuration.

/// Area accounting in mm² (28nm-class, calibrated to the paper's reported
/// ratios rather than to a real PDK).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One MAC lane (fp32 multiply + add).
    pub mac_lane_mm2: f64,
    /// SRAM per byte of PE buffer.
    pub sram_per_byte_mm2: f64,
    /// Control/registers fixed per PE.
    pub pe_control_mm2: f64,
    /// One metadata comparator.
    pub comparator_mm2: f64,
    /// One-hot-to-binary encoder + valid-data address generator.
    pub encoder_mm2: f64,
}

impl AreaModel {
    /// Default constants. Calibrated so an 8-lane PE with a 128 B buffer
    /// gains ~10% area from the sparse extensions (Fig. 7b).
    pub const fn default_28nm() -> Self {
        AreaModel {
            mac_lane_mm2: 600e-6,
            sram_per_byte_mm2: 25e-6,
            pe_control_mm2: 400e-6,
            comparator_mm2: 45e-6,
            encoder_mm2: 150e-6,
        }
    }

    /// Area of a base (dense-only) PE with the given lanes and buffer.
    pub fn base_pe_mm2(&self, vector_width: usize, buffer_bytes: u64) -> f64 {
        self.mac_lane_mm2 * vector_width as f64
            + self.sram_per_byte_mm2 * buffer_bytes as f64
            + self.pe_control_mm2
    }

    /// Area of the extended PE: base + one comparator per vector lane
    /// (index matching is lane-parallel) + encoder/address generator.
    pub fn extended_pe_mm2(&self, vector_width: usize, buffer_bytes: u64) -> f64 {
        self.base_pe_mm2(vector_width, buffer_bytes)
            + self.comparator_mm2 * vector_width as f64
            + self.encoder_mm2
    }

    /// Fractional overhead of the extension for a PE configuration.
    pub fn extension_overhead(&self, vector_width: usize, buffer_bytes: u64) -> f64 {
        let base = self.base_pe_mm2(vector_width, buffer_bytes);
        (self.extended_pe_mm2(vector_width, buffer_bytes) - base) / base
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::default_28nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7b_extension_overhead_near_ten_percent() {
        // "the extension increases the size of a PE with 128B buffer by
        // ~10%. We use a PE with vector size of eight 32-bit compute
        // units."
        let a = AreaModel::default_28nm();
        let ovh = a.extension_overhead(8, 128);
        assert!((0.05..0.15).contains(&ovh), "overhead {ovh} not ~10%");
    }

    #[test]
    fn bigger_buffer_dilutes_overhead() {
        let a = AreaModel::default_28nm();
        let small = a.extension_overhead(8, 128);
        let large = a.extension_overhead(8, 512);
        assert!(large < small);
    }
}
