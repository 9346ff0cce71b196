//! Measured software conversions: real wall-clock timings of this
//! workspace's own conversion routines, used as the honest
//! software-baseline datapoint in the Fig. 10 bench.

use sparseflex_formats::{convert, csr_from_stream, CsrMatrix, DenseMatrix, SparseMatrix};
use std::time::Instant;

/// Result of timing one software conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionTiming {
    /// Best-of-N wall time in seconds.
    pub seconds: f64,
    /// Nonzeros processed.
    pub nnz: usize,
    /// Throughput in nonzeros per second.
    pub nnz_per_sec: f64,
}

/// Which conversion to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedConversion {
    /// CSR → CSC (the Fig. 10a benchmark).
    CsrToCsc,
    /// Dense → CSR (the Fig. 10b benchmark).
    DenseToCsr,
}

/// Time a software conversion, best of `reps` runs.
pub fn time_conversion(
    which: TimedConversion,
    csr: &CsrMatrix,
    dense: Option<&DenseMatrix>,
    reps: usize,
) -> ConversionTiming {
    let reps = reps.max(1);
    let mut best = f64::INFINITY;
    match which {
        TimedConversion::CsrToCsc => {
            for _ in 0..reps {
                let t0 = Instant::now();
                let out = convert::csr_to_csc(csr);
                let dt = t0.elapsed().as_secs_f64();
                // Keep the optimizer honest.
                assert_eq!(out.nnz(), csr.nnz());
                best = best.min(dt);
            }
        }
        TimedConversion::DenseToCsr => {
            let d = dense.expect("DenseToCsr needs the dense operand");
            for _ in 0..reps {
                let t0 = Instant::now();
                let out = csr_from_stream(d);
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(out.nnz(), csr.nnz());
                best = best.min(dt);
            }
        }
    }
    ConversionTiming {
        seconds: best,
        nnz: csr.nnz(),
        nnz_per_sec: csr.nnz() as f64 / best.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_workloads::synth::random_matrix;

    #[test]
    fn timings_are_positive_and_scale() {
        let small = random_matrix(200, 200, 2_000, 1);
        let large = random_matrix(1000, 1000, 200_000, 2);
        let csr_s = CsrMatrix::from_coo(&small);
        let csr_l = CsrMatrix::from_coo(&large);
        let t_s = time_conversion(TimedConversion::CsrToCsc, &csr_s, None, 3);
        let t_l = time_conversion(TimedConversion::CsrToCsc, &csr_l, None, 3);
        assert!(t_s.seconds > 0.0);
        assert!(t_l.seconds > t_s.seconds / 10.0); // sanity, not strict
        assert_eq!(t_l.nnz, 200_000);
    }

    #[test]
    fn dense_to_csr_timing_runs() {
        let coo = random_matrix(300, 300, 9_000, 3);
        let dense = coo.clone().into_dense();
        let csr = CsrMatrix::from_coo(&coo);
        let t = time_conversion(TimedConversion::DenseToCsr, &csr, Some(&dense), 2);
        assert!(t.nnz_per_sec > 0.0);
    }

    #[test]
    #[should_panic(expected = "needs the dense operand")]
    fn dense_variant_requires_dense() {
        let coo = random_matrix(10, 10, 10, 4);
        let csr = CsrMatrix::from_coo(&coo);
        let _ = time_conversion(TimedConversion::DenseToCsr, &csr, None, 1);
    }
}
