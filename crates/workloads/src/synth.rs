//! Core seeded random sparse generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparseflex_formats::{CooMatrix, CooTensor3, DenseMatrix};
use std::collections::HashSet;

/// Draw a nonzero value: uniform magnitude in `[0.5, 1.5)` with random
/// sign, so no draw is ever exactly zero and accumulations stay well
/// conditioned.
fn nonzero_value(rng: &mut StdRng) -> f64 {
    let mag = rng.gen_range(0.5..1.5);
    if rng.gen_bool(0.5) {
        mag
    } else {
        -mag
    }
}

/// Sample exactly `k` distinct indices from `0..total` (Floyd's
/// algorithm, O(k) expected time and memory).
fn sample_distinct(total: u64, k: u64, rng: &mut StdRng) -> Vec<u64> {
    assert!(k <= total, "cannot sample {k} distinct from {total}");
    let mut chosen: HashSet<u64> = HashSet::with_capacity(k as usize);
    for j in (total - k)..total {
        let t = rng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut v: Vec<u64> = chosen.into_iter().collect();
    v.sort_unstable();
    v
}

/// Uniform random sparse matrix with **exactly** `nnz` nonzeros.
pub fn random_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CooMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = (rows as u64) * (cols as u64);
    let flats = sample_distinct(total, nnz as u64, &mut rng);
    let mut row_ids = Vec::with_capacity(flats.len());
    let mut col_ids = Vec::with_capacity(flats.len());
    let mut values = Vec::with_capacity(flats.len());
    for f in flats {
        row_ids.push((f / cols as u64) as usize);
        col_ids.push((f % cols as u64) as usize);
        values.push(nonzero_value(&mut rng));
    }
    CooMatrix::from_parts(rows, cols, row_ids, col_ids, values).expect("sampled flats are sorted")
}

/// Fully dense random matrix.
pub fn random_dense_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| nonzero_value(&mut rng)).collect();
    DenseMatrix::from_vec(rows, cols, data).expect("length matches by construction")
}

/// Uniform random sparse 3-D tensor with exactly `nnz` nonzeros.
pub fn random_tensor3(dx: usize, dy: usize, dz: usize, nnz: usize, seed: u64) -> CooTensor3 {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = (dx as u64) * (dy as u64) * (dz as u64);
    let flats = sample_distinct(total, nnz as u64, &mut rng);
    let quads: Vec<(usize, usize, usize, f64)> = flats
        .into_iter()
        .map(|f| {
            let f = f as usize;
            let x = f / (dy * dz);
            let y = (f / dz) % dy;
            let z = f % dz;
            (x, y, z, nonzero_value(&mut rng))
        })
        .collect();
    CooTensor3::from_quads(dx, dy, dz, quads).expect("sampled coordinates are in-bounds")
}

/// Banded matrix: `bands` diagonals centred on the main diagonal, fully
/// populated — the DIA-favourable structure used by the structured-format
/// ablation benches.
pub fn banded_matrix(n: usize, bands: usize, seed: u64) -> CooMatrix {
    assert!(
        bands % 2 == 1,
        "bands must be odd (symmetric around main diagonal)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let half = (bands / 2) as isize;
    let mut triplets = Vec::new();
    for r in 0..n {
        for k in -half..=half {
            let c = r as isize + k;
            if c >= 0 && (c as usize) < n {
                triplets.push((r, c as usize, nonzero_value(&mut rng)));
            }
        }
    }
    CooMatrix::from_triplets(n, n, triplets).expect("band coordinates are in-bounds")
}

/// Block-sparse matrix: a fraction `block_density` of aligned
/// `block x block` tiles are fully populated — the BSR-favourable
/// structure (e.g. structured pruning) for ablation benches.
pub fn blocked_matrix(
    rows: usize,
    cols: usize,
    block: usize,
    block_density: f64,
    seed: u64,
) -> CooMatrix {
    assert!(block > 0, "block must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for br in 0..rows.div_ceil(block) {
        for bc in 0..cols.div_ceil(block) {
            if rng.gen_bool(block_density) {
                for r in br * block..((br + 1) * block).min(rows) {
                    for c in bc * block..((bc + 1) * block).min(cols) {
                        triplets.push((r, c, nonzero_value(&mut rng)));
                    }
                }
            }
        }
    }
    CooMatrix::from_triplets(rows, cols, triplets).expect("block coordinates are in-bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{SparseMatrix, SparseTensor3};

    #[test]
    fn exact_nnz_is_exact() {
        for nnz in [0, 1, 10, 500] {
            let m = random_matrix(50, 40, nnz, 42);
            assert_eq!(m.nnz(), nnz);
        }
    }

    #[test]
    fn exact_nnz_full_matrix() {
        let m = random_matrix(10, 10, 100, 7);
        assert_eq!(m.nnz(), 100);
        assert_eq!(m.density(), 1.0);
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = random_matrix(30, 30, 77, 123);
        let b = random_matrix(30, 30, 77, 123);
        assert_eq!(a, b);
        let c = random_matrix(30, 30, 77, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn no_zero_values_emitted() {
        let m = random_matrix(40, 40, 300, 5);
        assert!(m.values().iter().all(|v| *v != 0.0));
        assert!(m.values().iter().all(|v| v.abs() >= 0.5 && v.abs() < 1.5));
    }

    #[test]
    fn tensor_exact_nnz() {
        let t = random_tensor3(20, 20, 20, 456, 11);
        assert_eq!(t.nnz(), 456);
        assert_eq!(t.shape(), (20, 20, 20));
    }

    #[test]
    fn banded_has_expected_diagonals() {
        use sparseflex_formats::DiaMatrix;
        let m = banded_matrix(32, 5, 3);
        let dia = DiaMatrix::from_coo(&m);
        assert_eq!(dia.num_diagonals(), 5);
        // Main diagonal fully populated.
        for i in 0..32 {
            assert_ne!(m.get(i, i), 0.0);
        }
    }

    #[test]
    fn blocked_matrix_block_structure() {
        use sparseflex_formats::BsrMatrix;
        let m = blocked_matrix(64, 64, 8, 0.2, 21);
        let bsr = BsrMatrix::from_coo(&m, 8, 8).unwrap();
        // Every stored block must be completely full (no padding).
        assert_eq!(bsr.padding_ratio(), 0.0);
    }

    #[test]
    fn dense_matrix_values_nonzero() {
        let m = random_dense_matrix(17, 19, 2);
        assert_eq!(m.count_nonzeros(), 17 * 19);
    }

    #[test]
    #[should_panic(expected = "bands must be odd")]
    fn banded_rejects_even_band_count() {
        let _ = banded_matrix(10, 4, 0);
    }
}
