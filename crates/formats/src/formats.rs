//! Format names and dynamically-typed format containers.
//!
//! [`MatrixFormat`] / [`TensorFormat`] name the formats (plus structural
//! parameters) that SAGE searches over, MINT converts between and the
//! size and cost models price, one closed-form formula per variant;
//! [`MatrixData`] / [`TensorData`] hold an actual encoded operand in any of
//! those formats behind one type, which is what flows through the
//! accelerator simulator and the conversion pipelines.

use crate::bsr::BsrMatrix;
use crate::build::MatrixBuilder;
use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::csf::CsfTensor;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::dia::DiaMatrix;
use crate::ell::EllMatrix;
use crate::error::FormatError;
use crate::hicoo::HiCooTensor;
use crate::rlc::{RlcMatrix, RlcTensor3, DEFAULT_RUN_BITS};
use crate::tensor::{CooTensor3, DenseTensor3};
use crate::traits::{SparseMatrix, SparseTensor3};
use crate::zvc::{ZvcMatrix, ZvcTensor3};
use crate::Value;

/// A matrix compression format (with structural parameters where needed).
///
/// The paper's MCF search space is `{Dense, RLC, ZVC, COO, CSR, CSC}` and
/// its ACF space is `{Dense, COO, CSR, CSC}` (§VII-A); BSR/DIA/ELL extend
/// the structured-format coverage flagged as future work in §VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixFormat {
    /// Uncompressed row-major.
    Dense,
    /// Coordinate list.
    Coo,
    /// Compressed sparse row.
    Csr,
    /// Compressed sparse column.
    Csc,
    /// Block compressed row with `br x bc` blocks.
    Bsr {
        /// Block rows.
        br: usize,
        /// Block columns.
        bc: usize,
    },
    /// Diagonal storage.
    Dia,
    /// ELLPACK padded rows.
    Ell,
    /// Run-length coding with the given run-field width.
    Rlc {
        /// Bits in the zero-run field.
        run_bits: u32,
    },
    /// Zero-value compression (bitmask).
    Zvc,
}

impl MatrixFormat {
    /// The six MCF choices evaluated in the paper (§VII-A), with default
    /// structural parameters: SAGE's memory-format candidates.
    pub const fn mcf_set() -> [MatrixFormat; 6] {
        [
            MatrixFormat::Dense,
            MatrixFormat::Rlc {
                run_bits: DEFAULT_RUN_BITS,
            },
            MatrixFormat::Zvc,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
        ]
    }

    /// The four ACF choices evaluated in the paper (§VII-A).
    pub const fn acf_set() -> [MatrixFormat; 4] {
        [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
        ]
    }

    /// Short name for CSV/log output.
    pub fn name(&self) -> &'static str {
        match self {
            MatrixFormat::Dense => "Dense",
            MatrixFormat::Coo => "COO",
            MatrixFormat::Csr => "CSR",
            MatrixFormat::Csc => "CSC",
            MatrixFormat::Bsr { .. } => "BSR",
            MatrixFormat::Dia => "DIA",
            MatrixFormat::Ell => "ELL",
            MatrixFormat::Rlc { .. } => "RLC",
            MatrixFormat::Zvc => "ZVC",
        }
    }

    /// The error [`MatrixData::encode`] gives for this format before it
    /// looks at any entry: a BSR block side of zero, or an RLC run field
    /// wider than 63 bits. Every other format encodes any matrix.
    pub fn check_encodable(&self) -> Result<(), FormatError> {
        match *self {
            MatrixFormat::Bsr { br, bc } if br == 0 || bc == 0 => {
                Err(FormatError::InvalidBlockSize { block: 0 })
            }
            MatrixFormat::Rlc { run_bits } => checked_run_bits(run_bits).map(drop),
            _ => Ok(()),
        }
    }

    /// True for the formats whose size/compute models do not depend on the
    /// spatial structure of the nonzeros (the paper's performance model
    /// covers exactly these; structured formats are its future work).
    pub const fn is_unstructured(&self) -> bool {
        !matches!(
            self,
            MatrixFormat::Bsr { .. } | MatrixFormat::Dia | MatrixFormat::Ell
        )
    }
}

impl std::fmt::Display for MatrixFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixFormat::Bsr { br, bc } => write!(f, "BSR{br}x{bc}"),
            MatrixFormat::Rlc { run_bits } => write!(f, "RLC(r{run_bits})"),
            other => f.write_str(other.name()),
        }
    }
}

/// A 3-D tensor compression format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorFormat {
    /// Uncompressed (z fastest).
    Dense,
    /// Coordinate list.
    Coo,
    /// Compressed sparse fiber.
    Csf,
    /// Hierarchical COO with cubic blocks of the given edge.
    HiCoo {
        /// Cubic block edge (power of two, <= 256).
        block: usize,
    },
    /// Run-length coding over the flattened stream.
    Rlc {
        /// Bits in the zero-run field.
        run_bits: u32,
    },
    /// Zero-value compression over the flattened stream.
    Zvc,
}

impl TensorFormat {
    /// Tensor MCF choices used in the Table III tensor rows.
    pub const fn mcf_set() -> [TensorFormat; 5] {
        [
            TensorFormat::Dense,
            TensorFormat::Rlc {
                run_bits: DEFAULT_RUN_BITS,
            },
            TensorFormat::Zvc,
            TensorFormat::Coo,
            TensorFormat::Csf,
        ]
    }

    /// Tensor ACF choices (Dense, COO, CSF — matching Table III).
    pub const fn acf_set() -> [TensorFormat; 3] {
        [TensorFormat::Dense, TensorFormat::Coo, TensorFormat::Csf]
    }

    /// Short name for CSV/log output.
    pub fn name(&self) -> &'static str {
        match self {
            TensorFormat::Dense => "Dense",
            TensorFormat::Coo => "COO",
            TensorFormat::Csf => "CSF",
            TensorFormat::HiCoo { .. } => "HiCOO",
            TensorFormat::Rlc { .. } => "RLC",
            TensorFormat::Zvc => "ZVC",
        }
    }
}

impl std::fmt::Display for TensorFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorFormat::HiCoo { block } => write!(f, "HiCOO(b{block})"),
            TensorFormat::Rlc { run_bits } => write!(f, "RLC(r{run_bits})"),
            other => f.write_str(other.name()),
        }
    }
}

/// An RLC run field counts zeros in a `u64` and the encoders compute
/// `1 << run_bits`, so fields wider than 63 bits are rejected.
pub(crate) fn checked_run_bits(run_bits: u32) -> Result<u32, FormatError> {
    if run_bits > 63 {
        return Err(FormatError::Unsupported("RLC run field wider than 63 bits"));
    }
    Ok(run_bits)
}

/// A matrix operand encoded in any supported format.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixData {
    /// Dense payload.
    Dense(DenseMatrix),
    /// COO payload.
    Coo(CooMatrix),
    /// CSR payload.
    Csr(CsrMatrix),
    /// CSC payload.
    Csc(CscMatrix),
    /// BSR payload.
    Bsr(BsrMatrix),
    /// DIA payload.
    Dia(DiaMatrix),
    /// ELL payload.
    Ell(EllMatrix),
    /// RLC payload.
    Rlc(RlcMatrix),
    /// ZVC payload.
    Zvc(ZvcMatrix),
}

impl MatrixData {
    /// Value slots this encoding physically stores, padding and explicit
    /// zeros included — the value-slot count of the size model's formula,
    /// so the BSR/DIA/ELL (and Dense/RLC) explicit-zero accounting lives
    /// in one place. Always `>=` [`Self::logical_nnz`]; equal for the
    /// compact encodings (COO/CSR/CSC/ZVC).
    pub fn stored_elements(&self) -> u64 {
        let structure = crate::size_model::MatrixStructure::exact(self);
        crate::size_model::matrix_charge(&self.format(), &structure).1
    }

    /// Stored nonzeros — the [`SparseMatrix::nnz`] contract (explicit
    /// zeros and padding slots are never counted).
    pub fn logical_nnz(&self) -> u64 {
        self.nnz() as u64
    }

    /// The named format of this payload.
    pub fn format(&self) -> MatrixFormat {
        match self {
            MatrixData::Dense(_) => MatrixFormat::Dense,
            MatrixData::Coo(_) => MatrixFormat::Coo,
            MatrixData::Csr(_) => MatrixFormat::Csr,
            MatrixData::Csc(_) => MatrixFormat::Csc,
            MatrixData::Bsr(b) => {
                let (br, bc) = b.block_shape();
                MatrixFormat::Bsr { br, bc }
            }
            MatrixData::Dia(_) => MatrixFormat::Dia,
            MatrixData::Ell(_) => MatrixFormat::Ell,
            MatrixData::Rlc(r) => MatrixFormat::Rlc {
                run_bits: r.run_bits(),
            },
            MatrixData::Zvc(_) => MatrixFormat::Zvc,
        }
    }

    /// Borrow as the common trait object.
    pub fn as_sparse(&self) -> &dyn SparseMatrix {
        match self {
            MatrixData::Dense(m) => m,
            MatrixData::Coo(m) => m,
            MatrixData::Csr(m) => m,
            MatrixData::Csc(m) => m,
            MatrixData::Bsr(m) => m,
            MatrixData::Dia(m) => m,
            MatrixData::Ell(m) => m,
            MatrixData::Rlc(m) => m,
            MatrixData::Zvc(m) => m,
        }
    }

    /// Encode a COO hub matrix into the given format.
    pub fn encode(coo: &CooMatrix, target: &MatrixFormat) -> Result<MatrixData, FormatError> {
        Ok(match *target {
            MatrixFormat::Dense => MatrixData::Dense(coo.clone().into_dense()),
            MatrixFormat::Coo => MatrixData::Coo(coo.clone()),
            MatrixFormat::Csr => MatrixData::Csr(CsrMatrix::from_coo(coo)),
            MatrixFormat::Csc => MatrixData::Csc(CscMatrix::from_coo(coo)),
            MatrixFormat::Bsr { br, bc } => MatrixData::Bsr(BsrMatrix::from_coo(coo, br, bc)?),
            MatrixFormat::Dia => MatrixData::Dia(DiaMatrix::from_coo(coo)),
            MatrixFormat::Ell => MatrixData::Ell(EllMatrix::from_coo(coo)),
            MatrixFormat::Rlc { run_bits } => {
                MatrixData::Rlc(RlcMatrix::from_coo(coo, checked_run_bits(run_bits)?))
            }
            MatrixFormat::Zvc => MatrixData::Zvc(ZvcMatrix::from_coo(coo)),
        })
    }

    /// Convert this payload into the given format straight from its own
    /// layout, with no COO hub: one row-major walk of the stored nonzeros
    /// into a builder of the target. The result equals
    /// [`encode`](Self::encode) of [`to_coo`](SparseMatrix::to_coo) bit
    /// for bit; the same format is a clone.
    pub fn convert_to(&self, target: &MatrixFormat) -> Result<MatrixData, FormatError> {
        if self.format() == *target {
            return Ok(self.clone());
        }
        // The target's arrays start at the source's stored count where
        // reading it is O(1); Dense, DIA, BSR and RLC would have to scan.
        let stored = match self {
            MatrixData::Coo(m) => m.values().len(),
            MatrixData::Csr(m) => m.values().len(),
            MatrixData::Csc(m) => m.values().len(),
            MatrixData::Zvc(m) => m.values().len(),
            _ => 0,
        };
        let mut builder = MatrixBuilder::new(*target, self.rows(), self.cols(), stored)?;
        self.row_stream()
            .for_each_fiber(&mut |r, cs, vs| builder.push_run(r, cs, vs, 0));
        builder.finish()
    }
}

impl SparseMatrix for MatrixData {
    fn rows(&self) -> usize {
        self.as_sparse().rows()
    }
    fn cols(&self) -> usize {
        self.as_sparse().cols()
    }
    fn nnz(&self) -> usize {
        self.as_sparse().nnz()
    }
    fn get(&self, row: usize, col: usize) -> Value {
        self.as_sparse().get(row, col)
    }
    fn to_coo(&self) -> CooMatrix {
        self.as_sparse().to_coo()
    }
}

/// A 3-D tensor operand encoded in any supported format.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// Dense payload.
    Dense(DenseTensor3),
    /// COO payload.
    Coo(CooTensor3),
    /// CSF payload.
    Csf(CsfTensor),
    /// HiCOO payload.
    HiCoo(HiCooTensor),
    /// RLC payload.
    Rlc(RlcTensor3),
    /// ZVC payload.
    Zvc(ZvcTensor3),
}

impl TensorData {
    /// The named format of this payload.
    pub fn format(&self) -> TensorFormat {
        match self {
            TensorData::Dense(_) => TensorFormat::Dense,
            TensorData::Coo(_) => TensorFormat::Coo,
            TensorData::Csf(_) => TensorFormat::Csf,
            TensorData::HiCoo(h) => TensorFormat::HiCoo { block: h.block() },
            TensorData::Rlc(r) => TensorFormat::Rlc {
                run_bits: r.run_bits(),
            },
            TensorData::Zvc(_) => TensorFormat::Zvc,
        }
    }

    /// Borrow as the common trait object.
    pub fn as_sparse(&self) -> &dyn SparseTensor3 {
        match self {
            TensorData::Dense(t) => t,
            TensorData::Coo(t) => t,
            TensorData::Csf(t) => t,
            TensorData::HiCoo(t) => t,
            TensorData::Rlc(t) => t,
            TensorData::Zvc(t) => t,
        }
    }

    /// Encode a COO hub tensor into the given format.
    pub fn encode(coo: &CooTensor3, target: &TensorFormat) -> Result<TensorData, FormatError> {
        Ok(match *target {
            TensorFormat::Dense => TensorData::Dense(coo.clone().into_dense()),
            TensorFormat::Coo => TensorData::Coo(coo.clone()),
            TensorFormat::Csf => TensorData::Csf(CsfTensor::from_coo(coo)),
            TensorFormat::HiCoo { block } => TensorData::HiCoo(HiCooTensor::from_coo(coo, block)?),
            TensorFormat::Rlc { run_bits } => {
                TensorData::Rlc(RlcTensor3::from_coo(coo, checked_run_bits(run_bits)?))
            }
            TensorFormat::Zvc => TensorData::Zvc(ZvcTensor3::from_coo(coo)),
        })
    }
}

impl SparseTensor3 for TensorData {
    fn dim_x(&self) -> usize {
        self.as_sparse().dim_x()
    }
    fn dim_y(&self) -> usize {
        self.as_sparse().dim_y()
    }
    fn dim_z(&self) -> usize {
        self.as_sparse().dim_z()
    }
    fn nnz(&self) -> usize {
        self.as_sparse().nnz()
    }
    fn get(&self, x: usize, y: usize, z: usize) -> Value {
        self.as_sparse().get(x, y, z)
    }
    fn to_coo(&self) -> CooTensor3 {
        self.as_sparse().to_coo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        CooMatrix::from_triplets(
            6,
            5,
            vec![
                (0, 0, 1.0),
                (1, 3, 2.0),
                (2, 2, 3.0),
                (4, 4, 4.0),
                (5, 0, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn every_matrix_format_roundtrips_through_encode() {
        let coo = sample_coo();
        let formats = [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 4 },
            MatrixFormat::Zvc,
        ];
        for fmt in formats {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            assert_eq!(data.to_coo(), coo, "roundtrip failed for {fmt}");
            assert_eq!(data.rows(), 6);
            assert_eq!(data.cols(), 5);
        }
    }

    #[test]
    fn convert_between_all_pairs() {
        let coo = sample_coo();
        let formats = MatrixFormat::mcf_set();
        for src in formats {
            let a = MatrixData::encode(&coo, &src).unwrap();
            for dst in formats {
                let b = a.convert_to(&dst).unwrap();
                assert_eq!(b.format(), dst);
                assert_eq!(b.to_coo(), coo, "convert {src} -> {dst} lost data");
            }
        }
    }

    #[test]
    fn format_carries_params() {
        let coo = sample_coo();
        let b = MatrixData::encode(&coo, &MatrixFormat::Bsr { br: 3, bc: 2 }).unwrap();
        assert_eq!(b.format(), MatrixFormat::Bsr { br: 3, bc: 2 });
        let r = MatrixData::encode(&coo, &MatrixFormat::Rlc { run_bits: 7 }).unwrap();
        assert_eq!(r.format(), MatrixFormat::Rlc { run_bits: 7 });
    }

    #[test]
    fn tensor_formats_roundtrip() {
        let coo = CooTensor3::from_quads(
            4,
            5,
            6,
            vec![(0, 0, 0, 1.0), (1, 4, 5, 2.0), (3, 2, 3, 3.0)],
        )
        .unwrap();
        let formats = [
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 2 },
            TensorFormat::Rlc { run_bits: 6 },
            TensorFormat::Zvc,
        ];
        for fmt in formats {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            assert_eq!(data.to_coo(), coo, "tensor roundtrip failed for {fmt}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(MatrixFormat::Bsr { br: 2, bc: 4 }.to_string(), "BSR2x4");
        assert_eq!(MatrixFormat::Rlc { run_bits: 4 }.to_string(), "RLC(r4)");
        assert_eq!(MatrixFormat::Csr.to_string(), "CSR");
        assert_eq!(TensorFormat::HiCoo { block: 8 }.to_string(), "HiCOO(b8)");
    }

    #[test]
    fn mcf_acf_sets_match_paper() {
        assert_eq!(MatrixFormat::mcf_set().len(), 6);
        assert_eq!(MatrixFormat::acf_set().len(), 4);
        assert!(MatrixFormat::acf_set().iter().all(|f| f.is_unstructured()));
    }
}
