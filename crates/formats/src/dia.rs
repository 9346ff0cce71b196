//! Diagonal (DIA) format.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::traits::SparseMatrix;
use crate::Value;

/// Diagonal sparse matrix storage (Fig. 3a, "Diagonal (DIA)").
///
/// Stores a dense strip for each occupied diagonal, identified by its
/// offset `k = col - row` (0 = main diagonal, negative = below). Each strip
/// holds `rows` entries; positions falling outside the matrix are padding
/// (the `*` entries in the paper's figure). DIA is one of the structured
/// formats the paper's §VI flags for its future-work performance model —
/// we implement the full functional format and its size model here.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    rows: usize,
    cols: usize,
    /// Sorted diagonal offsets (`col - row`).
    offsets: Vec<isize>,
    /// `offsets.len() * rows` payload, one strip per diagonal, indexed by
    /// row: element `(d, r)` holds `M[r][r + offsets[d]]`.
    data: Vec<Value>,
}

impl DiaMatrix {
    /// Convert from the COO hub. Every occupied diagonal gets a strip, so
    /// scattered patterns can explode storage (that is the point of the
    /// format trade-off study; see `size_model`).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        let mut offsets: Vec<isize> = coo
            .iter()
            .map(|(r, c, _)| c as isize - r as isize)
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        let mut data = vec![0.0; offsets.len() * rows];
        for (r, c, v) in coo.iter() {
            let k = c as isize - r as isize;
            // `offsets` holds every entry's diagonal, so this is its index.
            let d = offsets.partition_point(|&o| o < k);
            data[d * rows + r] = v;
        }
        DiaMatrix {
            rows,
            cols,
            offsets,
            data,
        }
    }

    /// Build from explicit strips (tests / generators).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        offsets: Vec<isize>,
        data: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if data.len() != offsets.len() * rows {
            return Err(FormatError::LengthMismatch {
                what: "dia data vs offsets*rows",
                expected: offsets.len() * rows,
                actual: data.len(),
            });
        }
        if offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FormatError::MalformedPointer {
                what: "dia offsets not sorted/unique",
            });
        }
        for &k in &offsets {
            if k <= -(rows as isize) || k >= cols as isize {
                return Err(FormatError::IndexOutOfBounds {
                    index: k.unsigned_abs(),
                    bound: if k < 0 { rows } else { cols },
                    axis: if k < 0 { 0 } else { 1 },
                });
            }
        }
        Ok(DiaMatrix {
            rows,
            cols,
            offsets,
            data,
        })
    }

    /// Occupied diagonal offsets, sorted ascending.
    #[inline]
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// Number of stored diagonals.
    #[inline]
    pub fn num_diagonals(&self) -> usize {
        self.offsets.len()
    }

    /// Raw strip payload (`num_diagonals * rows` values, padding included).
    #[inline]
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// Count of stored values including padding (hardware traffic volume).
    pub fn stored_values(&self) -> usize {
        self.data.len()
    }
}

impl SparseMatrix for DiaMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        // Only count entries that map inside the matrix and are nonzero.
        let mut n = 0;
        for (d, &k) in self.offsets.iter().enumerate() {
            for r in 0..self.rows {
                let c = r as isize + k;
                if c >= 0 && (c as usize) < self.cols && self.data[d * self.rows + r] != 0.0 {
                    n += 1;
                }
            }
        }
        n
    }
    fn get(&self, row: usize, col: usize) -> Value {
        let k = col as isize - row as isize;
        match self.offsets.binary_search(&k) {
            Ok(d) => self.data[d * self.rows + row],
            Err(_) => 0.0,
        }
    }
    fn to_coo(&self) -> CooMatrix {
        crate::traverse::coo_from_stream(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3a DIA example:
    /// ```text
    /// * a b      offsets -1 0 1 with strips
    /// c d 0      data = [* a b / c d 0 / 0 e 0 / 0 f *] per figure
    /// 0 e 0
    /// 0 f *
    /// ```
    /// (4x3 matrix, offsets -1, 0, +1).
    fn fig3a() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            3,
            vec![
                (0, 1, 1.0), // a (offset +1)
                (0, 2, 2.0), // b? figure shows b on +2? Using +1/+2 pattern:
                (1, 0, 3.0), // c (offset -1)
                (1, 1, 4.0), // d (offset 0)
                (2, 1, 5.0), // e (offset -1)
                (3, 1, 6.0), // f (offset -2)
            ],
        )
        .unwrap()
    }

    #[test]
    fn structure_matches_occupied_diagonals() {
        let dia = DiaMatrix::from_coo(&fig3a());
        assert_eq!(dia.offsets(), &[-2, -1, 0, 1, 2]);
        assert_eq!(dia.num_diagonals(), 5);
        assert_eq!(dia.stored_values(), 5 * 4);
    }

    #[test]
    fn roundtrip() {
        let coo = fig3a();
        let dia = DiaMatrix::from_coo(&coo);
        assert_eq!(dia.to_coo(), coo);
        assert_eq!(dia.nnz(), 6);
    }

    #[test]
    fn tridiagonal_is_compact() {
        // Classic DIA sweet spot: banded matrix.
        let n = 16;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let coo = CooMatrix::from_triplets(n, n, t).unwrap();
        let dia = DiaMatrix::from_coo(&coo);
        assert_eq!(dia.num_diagonals(), 3);
        assert_eq!(dia.to_coo(), coo);
    }

    #[test]
    fn get_on_missing_diagonal_is_zero() {
        let dia = DiaMatrix::from_coo(&fig3a());
        assert_eq!(dia.get(3, 0), 0.0);
        assert_eq!(dia.get(0, 0), 0.0); // main diagonal strip exists but entry is 0
    }

    #[test]
    fn strip_padding_does_not_count_as_nonzeros() {
        // A strip slot can be (a) outside the matrix or (b) an explicit
        // zero inside it; neither counts toward nnz() under the traits.rs
        // "stored nonzeros, no explicit zeros" contract.
        let dia = DiaMatrix::from_parts(
            3,
            3,
            vec![-1, 0],
            // offset -1 strip: [pad, 4.0, 0.0]; main diagonal: [1.0, 0.0, 3.0].
            vec![9.0, 4.0, 0.0, 1.0, 0.0, 3.0],
        )
        .unwrap();
        assert_eq!(dia.stored_values(), 6);
        assert_eq!(dia.nnz(), 3);
        assert_eq!(dia.nnz(), dia.to_coo().nnz());
        assert!((dia.density() - 3.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn from_parts_validates() {
        // Wrong payload length.
        assert!(DiaMatrix::from_parts(3, 3, vec![0], vec![1.0; 2]).is_err());
        // Unsorted offsets.
        assert!(DiaMatrix::from_parts(3, 3, vec![1, 0], vec![0.0; 6]).is_err());
        // Offset outside matrix.
        assert!(DiaMatrix::from_parts(3, 3, vec![5], vec![0.0; 3]).is_err());
        assert!(DiaMatrix::from_parts(3, 3, vec![0], vec![1.0, 2.0, 3.0]).is_ok());
    }
}
