//! Roofline models of the paper's host devices (§VII-B).

/// A compute device modelled as a roofline: peak FLOP/s, memory
/// bandwidth, power, and per-kernel fixed overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Device name for reports.
    pub name: &'static str,
    /// Peak fused multiply-add throughput in FLOP/s.
    pub peak_flops: f64,
    /// Sustained memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Board/package power in watts (TDP).
    pub tdp_w: f64,
    /// Fixed per-kernel overhead in seconds (launch/dispatch).
    pub kernel_overhead_s: f64,
    /// Efficiency of *irregular* (sparse) kernels relative to peak —
    /// index chasing and load imbalance keep sparse libraries far from
    /// peak; 10% is typical of cuSPARSE SpMM on scattered patterns.
    pub sparse_efficiency: f64,
}

impl DeviceModel {
    /// NVIDIA Titan RTX per §VII-B: 4608 CUDA cores at 1.77 GHz (FMA =
    /// 2 FLOP/cycle/core ~ 16.3 TFLOP/s fp32), 672 GB/s, 280 W.
    pub fn titan_rtx() -> Self {
        DeviceModel {
            name: "TitanRTX",
            peak_flops: 4608.0 * 2.0 * 1.77e9,
            mem_bw: 672.0e9,
            tdp_w: 280.0,
            kernel_overhead_s: 20.0e-6,
            sparse_efficiency: 0.10,
        }
    }

    /// Intel Core i9-9820X per §VII-B: 10 cores at 3.3 GHz (AVX-512 FMA
    /// ~ 32 fp32 FLOP/cycle/core ~ 1.06 TFLOP/s), 85 GB/s, 165 W.
    pub fn core_i9() -> Self {
        DeviceModel {
            name: "Corei9-9820X",
            peak_flops: 10.0 * 32.0 * 3.3e9,
            mem_bw: 85.0e9,
            tdp_w: 165.0,
            kernel_overhead_s: 5.0e-6,
            sparse_efficiency: 0.15,
        }
    }

    /// Roofline time for a kernel with the given FLOPs and byte traffic.
    fn roofline_time(&self, flops: f64, bytes: f64, efficiency: f64) -> f64 {
        let compute = flops / (self.peak_flops * efficiency.max(1e-6));
        let memory = bytes / self.mem_bw;
        compute.max(memory) + self.kernel_overhead_s
    }

    /// Energy of a kernel run (TDP x time; the coarse model GPUs report).
    pub fn energy(&self, time_s: f64) -> f64 {
        self.tdp_w * time_s
    }
}

/// The four matrix-multiplication algorithms (distinct ACFs) of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmAlgorithm {
    /// cuBLAS dense GEMM — Dense(A)-Dense(B)-Dense(O).
    GemmDense,
    /// cuSPARSE SpMM — CSR(A)-Dense(B)-Dense(O).
    SpmmCsrDense,
    /// cuSPARSE SpMM, stationary-compressed — Dense(A)-CSC(B)-Dense(O).
    SpmmDenseCsc,
    /// cuSPARSE SpGEMM — CSR(A)-CSR(B)-CSR(O).
    SpgemmCsr,
}

impl MmAlgorithm {
    /// All four, in Fig. 5's legend order.
    pub const fn all() -> [MmAlgorithm; 4] {
        [
            MmAlgorithm::GemmDense,
            MmAlgorithm::SpmmCsrDense,
            MmAlgorithm::SpmmDenseCsc,
            MmAlgorithm::SpgemmCsr,
        ]
    }

    /// Short name for CSV output.
    pub const fn name(self) -> &'static str {
        match self {
            MmAlgorithm::GemmDense => "Dense-Dense-Dense",
            MmAlgorithm::SpmmCsrDense => "CSR-Dense-Dense",
            MmAlgorithm::SpmmDenseCsc => "Dense-CSC-Dense",
            MmAlgorithm::SpgemmCsr => "CSR-CSR-CSR",
        }
    }
}

/// Predicted execution profile of one algorithm at one density point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmEstimate {
    /// Wall time in seconds.
    pub time_s: f64,
    /// Fraction of peak compute engaged (the paper's "SM utilization";
    /// dense GEMM counts zero-valued MACs as busy, which is exactly the
    /// Fig. 5b subtlety: "SM utilization includes zero valued
    /// operations").
    pub sm_util: f64,
    /// Fraction of memory bandwidth engaged.
    pub mem_util: f64,
    /// Energy in joules.
    pub energy_j: f64,
}

/// Estimate one Fig. 5 point: `M = N = K = n`, both operands at density
/// `d`, fp32 elements.
pub fn estimate_mm(dev: &DeviceModel, alg: MmAlgorithm, n: usize, d: f64) -> MmEstimate {
    let nf = n as f64;
    let nnz = (nf * nf * d).max(1.0);
    let elem = 4.0; // fp32
    let idx = 4.0; // 32-bit indices
    let (flops, bytes, eff) = match alg {
        MmAlgorithm::GemmDense => {
            // Full cubic work regardless of sparsity.
            (2.0 * nf * nf * nf, 3.0 * nf * nf * elem, 1.0)
        }
        MmAlgorithm::SpmmCsrDense => {
            // Work on nonzeros of A against dense B.
            let flops = 2.0 * nnz * nf;
            // Traffic: CSR A + dense B re-read per row tile + dense O.
            let bytes = nnz * (elem + idx) + 2.0 * nf * nf * elem;
            (flops, bytes, dev.sparse_efficiency)
        }
        MmAlgorithm::SpmmDenseCsc => {
            let flops = 2.0 * nnz * nf;
            let bytes = nnz * (elem + idx) + 2.0 * nf * nf * elem;
            // Column-stationary form gathers A rows; slightly worse
            // locality than the CSR row form.
            (flops, bytes, dev.sparse_efficiency * 0.8)
        }
        MmAlgorithm::SpgemmCsr => {
            // Expected flops: nnz_a * avg row of B = nnz * (nnz / n) / n.
            let flops = 2.0 * nnz * (nnz / nf).max(1.0);
            let nnz_o = (nf * nf * (1.0 - (1.0 - d * d).powf(nf))).max(1.0);
            let bytes = 2.0 * nnz * (elem + idx) + nnz_o * (elem + idx);
            // SpGEMM is latency/irregularity bound: hashing and merging
            // per output row cost beyond raw FLOPs.
            (flops, bytes, dev.sparse_efficiency * 0.5)
        }
    };
    let time = dev.roofline_time(flops, bytes, eff);
    // SM utilization counts issued (not useful) operations: dense GEMM
    // keeps the SMs busy with zeros.
    let issued_flops = match alg {
        MmAlgorithm::GemmDense => 2.0 * nf * nf * nf,
        _ => flops,
    };
    let sm_util = (issued_flops / (time * dev.peak_flops)).min(1.0);
    let mem_util = (bytes / (time * dev.mem_bw)).min(1.0);
    MmEstimate {
        time_s: time,
        sm_util,
        mem_util,
        energy_j: dev.energy(time),
    }
}

/// Analytic conversion-time model for the library baselines of Fig. 10:
/// a format conversion is a memory-bound multi-pass streaming kernel.
pub fn conversion_time(dev: &DeviceModel, nnz: u64, passes: f64, bytes_per_nnz: f64) -> f64 {
    let bytes = nnz as f64 * bytes_per_nnz * passes;
    bytes / dev.mem_bw + dev.kernel_overhead_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_specs_match_paper() {
        let t = DeviceModel::titan_rtx();
        assert!((t.peak_flops - 16.31e12).abs() / 16.31e12 < 0.01);
        assert_eq!(t.mem_bw, 672.0e9);
        assert_eq!(t.tdp_w, 280.0);
    }

    #[test]
    fn fig5_dense_flat_across_density() {
        // Dense GEMM time must not depend on sparsity.
        let dev = DeviceModel::titan_rtx();
        let a = estimate_mm(&dev, MmAlgorithm::GemmDense, 11_000, 1e-8);
        let b = estimate_mm(&dev, MmAlgorithm::GemmDense, 11_000, 1.0);
        assert!((a.time_s - b.time_s).abs() < 1e-12);
    }

    #[test]
    fn fig5_crossover_dense_wins_high_density() {
        // "Dense(A)-Dense(B)-Dense(O) performs better in density regions
        // from 10% to 100%" while "CSR(A)-CSR(B)-CSR(O) performs better
        // from 1e-6% to 0.1%".
        let dev = DeviceModel::titan_rtx();
        let n = 11_000;
        let dense_hi = estimate_mm(&dev, MmAlgorithm::GemmDense, n, 0.5).time_s;
        let spgemm_hi = estimate_mm(&dev, MmAlgorithm::SpgemmCsr, n, 0.5).time_s;
        assert!(
            dense_hi < spgemm_hi,
            "dense {dense_hi} vs spgemm {spgemm_hi} at 50%"
        );
        let dense_lo = estimate_mm(&dev, MmAlgorithm::GemmDense, n, 1e-8).time_s;
        let spgemm_lo = estimate_mm(&dev, MmAlgorithm::SpgemmCsr, n, 1e-8).time_s;
        assert!(
            spgemm_lo < dense_lo,
            "spgemm {spgemm_lo} vs dense {dense_lo} at 1e-6%"
        );
    }

    #[test]
    fn fig5b_dense_sm_util_stays_high() {
        // "SM utilization includes zero valued operations" — dense GEMM
        // shows high SM utilization even on sparse data.
        let dev = DeviceModel::titan_rtx();
        let e = estimate_mm(&dev, MmAlgorithm::GemmDense, 11_000, 1e-6);
        assert!(e.sm_util > 0.5, "sm_util {}", e.sm_util);
        let s = estimate_mm(&dev, MmAlgorithm::SpmmCsrDense, 11_000, 1e-6);
        assert!(s.sm_util < 0.05, "sparse sm_util {}", s.sm_util);
    }

    #[test]
    fn spmm_is_memory_bound_at_low_density() {
        // Fig. 5c: "the other two SpMM algorithms are often memory
        // bound" — at low density the dense-B traffic dominates the
        // little compute there is.
        let dev = DeviceModel::titan_rtx();
        let e = estimate_mm(&dev, MmAlgorithm::SpmmCsrDense, 11_000, 1e-4);
        assert!(e.mem_util > 0.5, "mem_util {}", e.mem_util);
    }

    #[test]
    fn conversion_time_scales_with_nnz() {
        let dev = DeviceModel::core_i9();
        let small = conversion_time(&dev, 10_000, 3.0, 12.0);
        let large = conversion_time(&dev, 10_000_000, 3.0, 12.0);
        assert!(large > 10.0 * small);
    }

    #[test]
    fn cpu_conversion_slower_than_gpu_at_scale() {
        // 85 GB/s vs 672 GB/s: at large nnz the GPU's bandwidth wins
        // despite its larger launch overhead.
        let cpu = conversion_time(&DeviceModel::core_i9(), 50_000_000, 3.0, 12.0);
        let gpu = conversion_time(&DeviceModel::titan_rtx(), 50_000_000, 3.0, 12.0);
        assert!(gpu < cpu);
        // At tiny sizes the overhead dominates and the CPU wins.
        let cpu_s = conversion_time(&DeviceModel::core_i9(), 1_000, 3.0, 12.0);
        let gpu_s = conversion_time(&DeviceModel::titan_rtx(), 1_000, 3.0, 12.0);
        assert!(cpu_s < gpu_s);
    }
}
