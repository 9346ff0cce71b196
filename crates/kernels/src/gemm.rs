//! Dense GEMM: `O = A * B` with `A: MxK`, `B: KxN`, `O: MxN`.

use crate::parallel::{even_ranges, fan_out, split_at_ranges, worker_count};
use sparseflex_formats::{DenseMatrix, SparseMatrix};

/// Cache-blocked sequential dense GEMM (ikj loop order so the innermost
/// loop streams both `B` and `O` rows contiguously).
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    gemm_into(a.data(), b.data(), out.data_mut(), m, k, n);
    out
}

/// Multithreaded dense GEMM: whole output rows are partitioned across
/// [`fan_out`] workers; each computes its rows independently.
pub fn gemm_parallel(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimensions must agree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    let (a_data, b_data) = (a.data(), b.data());
    // Whole output rows per worker: `n` elements per row.
    let rows = even_ranges(m, worker_count(m));
    let bands = split_at_ranges(out.data_mut(), &rows, n);
    fan_out(rows.into_iter().zip(bands).collect(), |(rows, band)| {
        let a_rows = &a_data[rows.start * k..rows.end * k];
        gemm_into(a_rows, b_data, band, rows.len(), k, n);
    });
    out
}

/// Inner blocked kernel writing into a raw output slice.
fn gemm_into(a: &[f64], b: &[f64], o: &mut [f64], m: usize, k: usize, n: usize) {
    const BK: usize = 64;
    for k0 in (0..k).step_by(BK) {
        let k1 = (k0 + BK).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut o[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let av = arow[kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (ov, bv) in orow.iter_mut().zip(brow) {
                    *ov += av * bv;
                }
            }
        }
    }
}

/// Naive triple-loop GEMM used only as a test oracle.
pub fn gemm_naive(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{DenseMatrix, SparseMatrix};

    fn mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        // Small deterministic pseudo-random fill (LCG), no rand dependency
        // needed here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push(((state >> 33) % 17) as f64 - 8.0);
        }
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn blocked_matches_naive() {
        let a = mat(17, 23, 1);
        let b = mat(23, 9, 2);
        assert_eq!(gemm(&a, &b), gemm_naive(&a, &b));
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = mat(64, 48, 3);
        let b = mat(48, 33, 4);
        assert_eq!(gemm_parallel(&a, &b), gemm(&a, &b));
    }

    #[test]
    fn identity_multiplication() {
        let a = mat(8, 8, 5);
        let mut id = DenseMatrix::zeros(8, 8);
        for i in 0..8 {
            id.set(i, i, 1.0);
        }
        assert_eq!(gemm(&a, &id), a);
        assert_eq!(gemm(&id, &a), a);
    }

    #[test]
    fn single_row_and_column() {
        let a = mat(1, 31, 6);
        let b = mat(31, 1, 7);
        let o = gemm(&a, &b);
        assert_eq!(o.rows(), 1);
        assert_eq!(o.cols(), 1);
        assert_eq!(o, gemm_naive(&a, &b));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = mat(2, 3, 8);
        let b = mat(4, 2, 9);
        let _ = gemm(&a, &b);
    }

    #[test]
    fn crossover_block_boundary() {
        // K exactly at and straddling the blocking factor.
        for k in [63, 64, 65, 128] {
            let a = mat(5, k, k as u64);
            let b = mat(k, 6, k as u64 + 1);
            assert_eq!(gemm(&a, &b), gemm_naive(&a, &b), "K={k}");
        }
    }
}
