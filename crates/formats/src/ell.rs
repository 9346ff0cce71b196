//! ELLPACK (ELL) format — structured-format extension.
//!
//! ELLPACK is named by the paper alongside DIA/HiCOO/BSR as a structured
//! format its performance model defers to future work (§VI). We implement
//! it fully so the size model and the structured-format ablation benches
//! can include it.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// ELLPACK sparse matrix: every row padded to the maximum row population.
///
/// Stores two `rows x width` row-major arrays — column indices and values —
/// where `width` is the maximum nonzeros in any row. Padding slots carry a
/// sentinel column (`usize::MAX`) and zero value. Regular row populations
/// (e.g. pruned DL weights with balanced sparsity) make ELL competitive;
/// one heavy row blows up every row's storage.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    rows: usize,
    cols: usize,
    width: usize,
    col_ids: Vec<usize>,
    values: Vec<Value>,
    nnz: usize,
}

/// Sentinel column index marking a padding slot.
pub const ELL_PAD: usize = usize::MAX;

impl EllMatrix {
    /// Convert from the COO hub; `width` becomes the max row population.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let mut counts = vec![0usize; rows];
        for &r in coo.row_ids() {
            counts[r] += 1;
        }
        let width = counts.iter().copied().max().unwrap_or(0);
        let mut col_ids = vec![ELL_PAD; rows * width];
        let mut values = vec![0.0; rows * width];
        let mut fill = vec![0usize; rows];
        for (r, c, v) in coo.iter() {
            let slot = r * width + fill[r];
            fill[r] += 1;
            col_ids[slot] = c;
            values[slot] = v;
        }
        EllMatrix {
            rows,
            cols: coo.cols(),
            width,
            col_ids,
            values,
            nnz: coo.nnz(),
        }
    }

    /// Build from explicit padded arrays (tests / generators).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        width: usize,
        col_ids: Vec<usize>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if col_ids.len() != rows * width || values.len() != rows * width {
            return Err(FormatError::LengthMismatch {
                what: "ell arrays vs rows*width",
                expected: rows * width,
                actual: col_ids.len().min(values.len()),
            });
        }
        let mut nnz = 0;
        for r in 0..rows {
            for w in 0..width {
                let c = col_ids[r * width + w];
                if c == ELL_PAD {
                    continue;
                }
                if c >= cols {
                    return Err(FormatError::IndexOutOfBounds {
                        index: c,
                        bound: cols,
                        axis: 1,
                    });
                }
                // The `nnz()` contract (traits.rs) counts stored *nonzeros*
                // only: an occupied slot carrying an explicit zero is
                // padding-equivalent and must not count.
                if values[r * width + w] != 0.0 {
                    nnz += 1;
                }
            }
        }
        // `get` reads a row's slots up to its first padding slot, and the
        // walk re-sorts a row's entries by column and streams them as
        // one fiber, so a row must hold its entries before its padding
        // and name each column once.
        let mut sorted = Vec::new();
        for row in col_ids.chunks(width.max(1)) {
            let filled = row.iter().position(|&c| c == ELL_PAD).unwrap_or(row.len());
            if row[filled..].iter().any(|&c| c != ELL_PAD) {
                return Err(FormatError::MalformedPointer {
                    what: "ell entry after a padding slot",
                });
            }
            let entries = &row[..filled];
            if entries.windows(2).any(|p| p[0] >= p[1]) {
                sorted.clear();
                sorted.extend_from_slice(entries);
                sorted.sort_unstable();
                if sorted.windows(2).any(|p| p[0] == p[1]) {
                    return Err(FormatError::MalformedPointer {
                        what: "ell column repeated within a row",
                    });
                }
            }
        }
        Ok(EllMatrix {
            rows,
            cols,
            width,
            col_ids,
            values,
            nnz,
        })
    }

    /// Padded row width (max nonzeros per row).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Padded column-index array (`rows * width`).
    #[inline]
    pub fn col_ids(&self) -> &[usize] {
        &self.col_ids
    }

    /// Padded value array (`rows * width`).
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Count of stored slots including padding.
    pub fn stored_values(&self) -> usize {
        self.values.len()
    }

    /// One padded row: `(col_ids, values)` slices of length `width`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[Value]) {
        let (s, e) = (r * self.width, (r + 1) * self.width);
        (&self.col_ids[s..e], &self.values[s..e])
    }
}

impl SparseMatrix for EllMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.nnz
    }
    fn get(&self, row: usize, col: usize) -> Value {
        let (cs, vs) = self.row(row);
        for (i, &c) in cs.iter().enumerate() {
            if c == col {
                return vs[i];
            }
            if c == ELL_PAD {
                break;
            }
        }
        0.0
    }
    fn to_coo(&self) -> CooMatrix {
        crate::traverse::coo_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            5,
            vec![
                (0, 0, 1.0),
                (0, 4, 2.0),
                (1, 2, 3.0),
                (3, 0, 4.0),
                (3, 1, 5.0),
                (3, 4, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn width_is_max_row_population() {
        let ell = EllMatrix::from_coo(&sample());
        assert_eq!(ell.width(), 3); // row 3 has three nonzeros
        assert_eq!(ell.stored_values(), 4 * 3);
        assert_eq!(ell.nnz(), 6);
    }

    #[test]
    fn roundtrip() {
        let coo = sample();
        let ell = EllMatrix::from_coo(&coo);
        assert_eq!(ell.to_coo(), coo);
    }

    #[test]
    fn get_handles_padding() {
        let ell = EllMatrix::from_coo(&sample());
        assert_eq!(ell.get(0, 4), 2.0);
        assert_eq!(ell.get(2, 0), 0.0); // fully padded row
        assert_eq!(ell.get(1, 4), 0.0);
    }

    #[test]
    fn empty_matrix_has_zero_width() {
        let ell = EllMatrix::from_coo(&CooMatrix::empty(3, 3));
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.nnz(), 0);
        assert_eq!(ell.to_coo(), CooMatrix::empty(3, 3));
    }

    #[test]
    fn from_parts_validates() {
        assert!(EllMatrix::from_parts(2, 2, 1, vec![0], vec![1.0, 2.0]).is_err());
        assert!(EllMatrix::from_parts(2, 2, 1, vec![0, 9], vec![1.0, 2.0]).is_err());
        let ok = EllMatrix::from_parts(2, 2, 1, vec![0, ELL_PAD], vec![1.0, 0.0]).unwrap();
        assert_eq!(ok.nnz(), 1);
    }

    #[test]
    fn explicit_zero_slots_do_not_count_as_nonzeros() {
        // An occupied slot carrying value 0.0 is padding-equivalent: the
        // "stored nonzeros, no explicit zeros" contract in traits.rs says
        // nnz()/density() must ignore it, matching to_coo().
        let ell = EllMatrix::from_parts(2, 3, 2, vec![0, 2, 1, ELL_PAD], vec![1.0, 0.0, 2.0, 0.0])
            .unwrap();
        assert_eq!(ell.nnz(), 2);
        assert_eq!(ell.nnz(), ell.to_coo().nnz());
        assert!((ell.density() - 2.0 / 6.0).abs() < 1e-15);
    }

    /// One row of the given slots in a 1 × 3 matrix, valued 1, 2, ….
    fn one_row(col_ids: Vec<usize>) -> Result<EllMatrix, FormatError> {
        let values = (1..=col_ids.len()).map(|v| v as Value).collect();
        EllMatrix::from_parts(1, 3, col_ids.len(), col_ids, values)
    }

    const REPEATED: FormatError = FormatError::MalformedPointer {
        what: "ell column repeated within a row",
    };

    #[test]
    fn from_parts_rejects_a_repeated_column() {
        assert_eq!(one_row(vec![1, 1]).err(), Some(REPEATED));
    }

    #[test]
    fn from_parts_rejects_a_repeated_column_among_unsorted_slots() {
        assert_eq!(one_row(vec![2, 0, 2]).err(), Some(REPEATED));
    }

    #[test]
    fn from_parts_rejects_an_entry_after_padding() {
        let late = FormatError::MalformedPointer {
            what: "ell entry after a padding slot",
        };
        assert_eq!(one_row(vec![ELL_PAD, 1]).err(), Some(late));
    }

    /// Every 2 × 3 ELL of width 2 that `from_parts` accepts, over every
    /// slot column (padding included) and a zero or nonzero value, walks
    /// into valid CSR: `csr_cow` never panics and holds what `to_coo`
    /// holds.
    #[test]
    fn every_accepted_ell_materializes_as_csr() {
        use crate::{csr::CsrMatrix, formats::MatrixData, traverse::csr_cow};
        let (mut accepted, mut rejected) = (0, 0);
        for code in 0..8usize.pow(4) {
            let slot = |i: u32| code / 8usize.pow(i) % 8;
            let col_ids = (0..4).map(|i| [0, 1, 2, ELL_PAD][slot(i) % 4]).collect();
            let values = (0..4).map(|i| (slot(i) / 4 * (i + 1) as usize) as Value);
            match EllMatrix::from_parts(2, 3, 2, col_ids, values.collect()) {
                Ok(ell) => {
                    accepted += 1;
                    let want = CsrMatrix::from_coo(&ell.to_coo());
                    assert_eq!(*csr_cow(&MatrixData::Ell(ell)), want);
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted}, {rejected}");
    }
}
