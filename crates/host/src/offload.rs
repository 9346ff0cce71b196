//! Host-device offload transfer model (Fig. 11).
//!
//! When format conversion runs on the host, the operand pays an H2D and
//! D2H round trip over PCIe: "transferring data can consume up to 75% of
//! the total time, and has a geomean of roughly 50%. Thus, it is critical
//! to have hardware support for format conversion" (§VII-B).

/// PCIe link + conversion-time composition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadModel {
    /// Link bandwidth in bytes/s (PCIe 3.0 x16 ~ 16 GB/s).
    pub pcie_bw: f64,
    /// Per-transfer latency in seconds (DMA setup + driver).
    pub transfer_latency_s: f64,
}

impl OffloadModel {
    /// PCIe 3.0 x16 defaults.
    pub fn pcie3_x16() -> Self {
        OffloadModel {
            pcie_bw: 16.0e9,
            transfer_latency_s: 10.0e-6,
        }
    }

    /// Time to move `bytes` one way.
    fn transfer_time(&self, bytes: f64) -> f64 {
        bytes / self.pcie_bw + self.transfer_latency_s
    }

    /// Breakdown of one offloaded conversion: H2D of the input, device
    /// compute, D2H of the output.
    pub fn offload(&self, in_bytes: f64, out_bytes: f64, compute_s: f64) -> OffloadBreakdown {
        OffloadBreakdown {
            h2d_s: self.transfer_time(in_bytes),
            compute_s,
            d2h_s: self.transfer_time(out_bytes),
        }
    }
}

impl Default for OffloadModel {
    fn default() -> Self {
        Self::pcie3_x16()
    }
}

/// Time breakdown of one host-offloaded operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadBreakdown {
    /// Host-to-device transfer time.
    pub h2d_s: f64,
    /// Device compute time.
    pub compute_s: f64,
    /// Device-to-host transfer time.
    pub d2h_s: f64,
}

impl OffloadBreakdown {
    /// Total wall time.
    pub fn total(&self) -> f64 {
        self.h2d_s + self.compute_s + self.d2h_s
    }

    /// The Fig. 11 metric: transfer time over total time.
    pub fn transfer_ratio(&self) -> f64 {
        (self.h2d_s + self.d2h_s) / self.total()
    }
}

/// Geometric mean helper for the Fig. 11 summary row.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_ratio_bounds() {
        let m = OffloadModel::pcie3_x16();
        let b = m.offload(1e9, 1e9, 0.01);
        let r = b.transfer_ratio();
        assert!(r > 0.0 && r < 1.0);
        // 2 GB over 16 GB/s = 125 ms vs 10 ms compute -> ratio > 90%.
        assert!(r > 0.9, "ratio {r}");
    }

    #[test]
    fn fig11_band_for_balanced_conversion() {
        // A conversion whose compute time roughly equals one transfer
        // lands near the paper's ~50% geomean.
        let m = OffloadModel::pcie3_x16();
        let bytes = 100.0e6;
        let compute = 2.0 * bytes / m.pcie_bw; // compute == both transfers
        let b = m.offload(bytes, bytes, compute);
        let r = b.transfer_ratio();
        assert!((0.4..0.6).contains(&r), "ratio {r}");
    }

    #[test]
    fn latency_floor_for_tiny_transfers() {
        let m = OffloadModel::pcie3_x16();
        assert!(m.transfer_time(1.0) >= m.transfer_latency_s);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }
}
