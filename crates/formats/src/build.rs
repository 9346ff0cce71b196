//! Format builders: assemble a matrix in any format from its nonzeros,
//! pushed in row-major order, by construction — no COO hub and no
//! re-validation.
//!
//! The tiler cuts an operand into tiles of its own format, and
//! [`MatrixData::convert_to`] re-encodes an operand, by walking the
//! source once in its own layout and pushing every stored nonzero into
//! a builder of the target format. A builder yields exactly what
//! [`MatrixData::encode`] yields for the COO of the same entries.

use crate::coo::CooMatrix;
use crate::csr::RowEncoder;
use crate::dense::DenseMatrix;
use crate::error::FormatError;
use crate::formats::{checked_run_bits, MatrixData, MatrixFormat};
use crate::rlc::{RlcMatrix, RunEncoder};
use crate::zvc::{MaskEncoder, ZvcMatrix};
use crate::Value;

/// Where a builder keeps its entries until [`MatrixBuilder::finish`].
enum Stage {
    /// Dense: the zero-filled row-major buffer itself.
    Dense(Vec<Value>),
    /// COO, and the structured formats (BSR, DIA, ELL) encoded from it.
    Triplets {
        row_ids: Vec<usize>,
        col_ids: Vec<usize>,
        values: Vec<Value>,
    },
    /// CSR, and CSC counting-sorted from it.
    Rows(RowEncoder),
    /// RLC, with its run-field width.
    Runs { run_bits: u32, runs: RunEncoder },
    /// ZVC.
    Mask(MaskEncoder),
}

/// Builds one `rows x cols` matrix of a fixed format from nonzeros pushed
/// in row-major order: rows ascending, columns strictly ascending within
/// a row, no zero values. CSR, RLC and ZVC encode with the same encoder
/// their `from_coo` uses.
pub(crate) struct MatrixBuilder {
    format: MatrixFormat,
    rows: usize,
    cols: usize,
    stage: Stage,
}

impl MatrixBuilder {
    /// An empty builder with room for `nnz` entries. Fails where
    /// [`MatrixData::encode`] fails before it looks at any entry (an RLC
    /// run field wider than 63 bits); an invalid BSR block shape fails at
    /// [`finish`](Self::finish), as the encoder does.
    pub(crate) fn new(
        format: MatrixFormat,
        rows: usize,
        cols: usize,
        nnz: usize,
    ) -> Result<Self, FormatError> {
        let stage = match format {
            MatrixFormat::Dense => Stage::Dense(vec![0.0; rows * cols]),
            MatrixFormat::Csr | MatrixFormat::Csc => Stage::Rows(RowEncoder::new(rows, nnz)),
            MatrixFormat::Rlc { run_bits } => {
                let run_bits = checked_run_bits(run_bits)?;
                Stage::Runs {
                    run_bits,
                    runs: RunEncoder::new(run_bits, nnz),
                }
            }
            MatrixFormat::Zvc => Stage::Mask(MaskEncoder::new(rows * cols, nnz)),
            MatrixFormat::Coo
            | MatrixFormat::Bsr { .. }
            | MatrixFormat::Dia
            | MatrixFormat::Ell => Stage::Triplets {
                row_ids: Vec::with_capacity(nnz),
                col_ids: Vec::with_capacity(nnz),
                values: Vec::with_capacity(nnz),
            },
        };
        Ok(MatrixBuilder {
            format,
            rows,
            cols,
            stage,
        })
    }

    /// Append one row segment: the entries `(r, cols[i] - first_col,
    /// vals[i])`, after every entry pushed so far in row-major order.
    /// Explicit zeros are skipped (the COO hub drops them too).
    pub(crate) fn push_run(&mut self, r: usize, cols: &[usize], vals: &[Value], first_col: usize) {
        debug_assert!(r < self.rows && cols.iter().all(|&c| c - first_col < self.cols));
        let nonzeros = cols
            .iter()
            .zip(vals)
            .filter(|&(_, &v)| v != 0.0)
            .map(|(&c, &v)| (c - first_col, v));
        let row_start = r * self.cols;
        match &mut self.stage {
            Stage::Dense(data) => {
                for (c, v) in nonzeros {
                    data[row_start + c] = v;
                }
            }
            Stage::Triplets {
                row_ids,
                col_ids,
                values,
            } => {
                for (c, v) in nonzeros {
                    row_ids.push(r);
                    col_ids.push(c);
                    values.push(v);
                }
            }
            Stage::Rows(enc) => {
                for (c, v) in nonzeros {
                    enc.push(r, c, v);
                }
            }
            Stage::Runs { runs, .. } => {
                for (c, v) in nonzeros {
                    runs.push((row_start + c) as u64, v);
                }
            }
            Stage::Mask(enc) => {
                for (c, v) in nonzeros {
                    enc.push(row_start + c, v);
                }
            }
        }
    }

    /// The finished matrix.
    pub(crate) fn finish(self) -> Result<MatrixData, FormatError> {
        let MatrixBuilder {
            format,
            rows,
            cols,
            stage,
        } = self;
        Ok(match stage {
            Stage::Dense(data) => MatrixData::Dense(DenseMatrix::from_vec(rows, cols, data)?),
            Stage::Triplets {
                row_ids,
                col_ids,
                values,
            } => {
                let coo = CooMatrix::from_parts_unchecked(rows, cols, row_ids, col_ids, values);
                match format {
                    MatrixFormat::Coo => MatrixData::Coo(coo),
                    _ => MatrixData::encode(&coo, &format)?,
                }
            }
            Stage::Rows(enc) => {
                let csr = enc.finish(rows, cols);
                match format {
                    MatrixFormat::Csr => MatrixData::Csr(csr),
                    _ => MatrixData::Csc(crate::convert::csr_to_csc(&csr)),
                }
            }
            Stage::Runs { run_bits, runs } => {
                let (entries, trailing_zeros) = runs.finish((rows * cols) as u64);
                MatrixData::Rlc(RlcMatrix::from_parts_unchecked(
                    rows,
                    cols,
                    run_bits,
                    entries,
                    trailing_zeros,
                ))
            }
            Stage::Mask(enc) => {
                let (mask, values) = enc.finish();
                MatrixData::Zvc(ZvcMatrix::from_parts_unchecked(rows, cols, mask, values))
            }
        })
    }
}
