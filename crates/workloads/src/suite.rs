//! The Table III workload suite.
//!
//! Thirteen workloads spanning six orders of magnitude of density — ten
//! matrices (SuiteSparse + DeepBench) and three 3-D tensors (BrainQ +
//! FROSTT). Dimensions, nonzero counts and density percentages are taken
//! verbatim from Table III of the paper; the operands themselves are
//! regenerated synthetically (see the crate docs for why that substitution
//! is sound).

use crate::synth::random_matrix;
use sparseflex_formats::CooMatrix;

/// Which kernel(s) a workload participates in (the shading colours of
/// Table III: blue = SpGEMM, grey = SpMM, tan = SpTTM, yellow = MTTKRP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Sparse × sparse matrix multiply.
    SpGemm,
    /// Sparse × dense matrix multiply.
    SpMm,
    /// Sparse tensor × dense matrix.
    SpTtm,
    /// Matricized tensor times Khatri-Rao product.
    Mttkrp,
}

impl KernelClass {
    /// Short name for CSV output.
    pub const fn name(self) -> &'static str {
        match self {
            KernelClass::SpGemm => "SpGEMM",
            KernelClass::SpMm => "SpMM",
            KernelClass::SpTtm => "SpTTM",
            KernelClass::Mttkrp => "MTTKRP",
        }
    }
}

/// Shape of a workload's sparse operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadShape {
    /// 2-D operand `rows x cols`.
    Matrix {
        /// Rows (`M`).
        rows: usize,
        /// Columns (`K`).
        cols: usize,
    },
    /// 3-D operand `x_dim x y_dim x z_dim`.
    Tensor {
        /// First mode.
        x: usize,
        /// Second mode.
        y: usize,
        /// Third mode.
        z: usize,
    },
}

/// One row of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Workload name as printed in the paper.
    pub name: &'static str,
    /// Source dataset (`suitesparse`, `deepbench`, `frostt`, `brainq`).
    pub source: &'static str,
    /// Operand shape.
    pub shape: WorkloadShape,
    /// Nonzero count (paper's reported value).
    pub nnz: usize,
}

/// The thirteen Table III workloads.
pub const TABLE_III: [WorkloadSpec; 13] = [
    WorkloadSpec {
        name: "journals",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 124,
            cols: 124,
        },
        nnz: 12_068,
    },
    WorkloadSpec {
        name: "bibd_17_8",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 171,
            cols: 92_000,
        },
        nnz: 3_300_000,
    },
    WorkloadSpec {
        name: "dendrimer",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 730,
            cols: 730,
        },
        nnz: 63_000,
    },
    WorkloadSpec {
        name: "speech1",
        source: "deepbench",
        shape: WorkloadShape::Matrix {
            rows: 11_000,
            cols: 3_600,
        },
        nnz: 3_900_000,
    },
    WorkloadSpec {
        name: "speech2",
        source: "deepbench",
        shape: WorkloadShape::Matrix {
            rows: 7_700,
            cols: 2_600,
        },
        nnz: 1_000_000,
    },
    WorkloadSpec {
        name: "nd3k",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 9_000,
            cols: 9_000,
        },
        nnz: 3_300_000,
    },
    WorkloadSpec {
        name: "cavity14",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 2_600,
            cols: 2_600,
        },
        nnz: 76_000,
    },
    WorkloadSpec {
        name: "model3",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 1_600,
            cols: 4_600,
        },
        nnz: 24_000,
    },
    WorkloadSpec {
        name: "cat_ears_4_4",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 5_200,
            cols: 13_200,
        },
        nnz: 40_000,
    },
    WorkloadSpec {
        name: "m3plates",
        source: "suitesparse",
        shape: WorkloadShape::Matrix {
            rows: 11_000,
            cols: 11_000,
        },
        nnz: 6_600,
    },
    WorkloadSpec {
        name: "BrainQ",
        source: "brainq",
        shape: WorkloadShape::Tensor {
            x: 60,
            y: 70_000,
            z: 9,
        },
        nnz: 11_000_000,
    },
    WorkloadSpec {
        name: "Crime",
        source: "frostt",
        shape: WorkloadShape::Tensor {
            x: 6_200,
            y: 24,
            z: 2_500,
        },
        nnz: 5_200_000,
    },
    WorkloadSpec {
        name: "Uber",
        source: "frostt",
        shape: WorkloadShape::Tensor {
            x: 4_400,
            y: 1_100,
            z: 1_700,
        },
        nnz: 3_300_000,
    },
];

impl WorkloadSpec {
    /// Look up a Table III workload by name.
    pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
        TABLE_III.iter().find(|w| w.name == name)
    }

    /// Density in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz as f64 / self.volume() as f64
    }

    /// Total element count of the operand.
    fn volume(&self) -> u64 {
        match self.shape {
            WorkloadShape::Matrix { rows, cols } => rows as u64 * cols as u64,
            WorkloadShape::Tensor { x, y, z } => x as u64 * y as u64 * z as u64,
        }
    }

    /// Kernel classes this workload participates in: matrices run SpGEMM
    /// and SpMM; tensors run SpTTM and MTTKRP (Table III shading).
    pub fn kernels(&self) -> &'static [KernelClass] {
        match self.shape {
            WorkloadShape::Matrix { .. } => &[KernelClass::SpGemm, KernelClass::SpMm],
            WorkloadShape::Tensor { .. } => &[KernelClass::SpTtm, KernelClass::Mttkrp],
        }
    }

    /// Is this one of the three tensor workloads?
    pub fn is_tensor(&self) -> bool {
        matches!(self.shape, WorkloadShape::Tensor { .. })
    }

    /// Dimensions of the second (factor) operand: "the factorizing
    /// matrices that are multiplied with the tensors are generalized to
    /// have dimensions of K by (M/2)" (§VII-A). For a matrix workload
    /// `M x K` the factor is `K x M/2`; for a tensor the contracted mode
    /// plays K and the first mode plays M.
    pub fn factor_dims(&self) -> (usize, usize) {
        match self.shape {
            WorkloadShape::Matrix { rows, cols } => (cols, (rows / 2).max(1)),
            WorkloadShape::Tensor { x, z, .. } => (z, (x / 2).max(1)),
        }
    }

    /// Generate the sparse matrix operand (matrix workloads only).
    pub fn generate_matrix(&self, seed: u64) -> Option<CooMatrix> {
        match self.shape {
            WorkloadShape::Matrix { rows, cols } => Some(random_matrix(rows, cols, self.nnz, seed)),
            WorkloadShape::Tensor { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::SparseMatrix;

    #[test]
    fn densities_match_paper_column() {
        // Table III's density column (in percent).
        let expected: [(&str, f64); 13] = [
            ("journals", 78.5),
            ("bibd_17_8", 20.9),
            ("dendrimer", 11.8),
            ("speech1", 10.0),
            ("speech2", 5.0),
            ("nd3k", 4.1),
            ("cavity14", 1.1),
            ("model3", 0.32),
            ("cat_ears_4_4", 0.057),
            ("m3plates", 0.0054),
            ("BrainQ", 29.1),
            ("Crime", 1.5),
            ("Uber", 0.039),
        ];
        for (name, pct) in expected {
            let w = WorkloadSpec::by_name(name).unwrap();
            let got = w.density() * 100.0;
            let tol = pct * 0.15 + 0.002; // paper rounds dims and nnz
            assert!(
                (got - pct).abs() < tol,
                "{name}: density {got:.4}% vs paper {pct}% (tol {tol:.4})"
            );
        }
    }

    #[test]
    fn kernel_classes_follow_shading() {
        let j = WorkloadSpec::by_name("journals").unwrap();
        assert_eq!(j.kernels(), &[KernelClass::SpGemm, KernelClass::SpMm]);
        let u = WorkloadSpec::by_name("Uber").unwrap();
        assert_eq!(u.kernels(), &[KernelClass::SpTtm, KernelClass::Mttkrp]);
        assert!(u.is_tensor());
        assert!(u.generate_matrix(1).is_none());
    }

    #[test]
    fn factor_dims_follow_k_by_m_half() {
        let s = WorkloadSpec::by_name("speech2").unwrap();
        assert_eq!(s.factor_dims(), (2_600, 3_850));
        let u = WorkloadSpec::by_name("Uber").unwrap();
        assert_eq!(u.factor_dims(), (1_700, 2_200));
    }

    #[test]
    fn small_matrix_generation_matches_spec() {
        let j = WorkloadSpec::by_name("journals").unwrap();
        let m = j.generate_matrix(1).unwrap();
        assert_eq!(m.rows(), 124);
        assert_eq!(m.cols(), 124);
        assert_eq!(m.nnz(), 12_068);
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(WorkloadSpec::by_name("nonexistent").is_none());
    }

    #[test]
    fn all_names_unique() {
        let mut names: Vec<_> = TABLE_III.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLE_III.len());
    }
}
