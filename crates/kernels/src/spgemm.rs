//! SpGEMM: sparse × sparse matrix multiplication.
//!
//! "SpGEMM dominates the setup times of applications that use multigrid
//! methods" (§II). The CSR(A)-CSR(B)-CSR(O) ACF is the one the paper's
//! Fig. 5 shows winning at extreme sparsity on GPUs.
//!
//! The format-generic entry points are [`crate::spgemm()`] /
//! [`crate::spgemm_with`] / [`crate::spgemm_parallel`]; this module holds
//! the two per-row routines their one stream body drives, one fiber of
//! `A` at a time: Gustavson's sparse accumulator and the row-wise merge.

use sparseflex_formats::{CsrMatrix, Value};

/// Sparse-accumulator scratch reused across output rows: the dense value
/// row and a two-level occupancy bitmap over it — one bit per column, and
/// one summary bit per 64-column word. The bits, not the values, say
/// which columns a row touched, so a column whose products cancel to
/// `0.0` mid-row is still visited (and dropped) on emit. Emitting scans
/// the set bits in word order, so columns come out ascending with no sort,
/// and clears every bit it visits.
pub(crate) struct Accumulator {
    acc: Vec<f64>,
    occupied: Vec<u64>,
    summary: Vec<u64>,
}

impl Accumulator {
    /// Scratch for output rows of width `n`.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Accumulator {
            acc: vec![0.0; n],
            occupied: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }
}

/// One Gustavson row — the sparse-accumulator step the generic stream
/// dispatcher also drives, one fiber of `A` at a time: accumulate
/// `Σ A[i][k] * B[k][:]` into the scratch row, then emit its nonzeros in
/// ascending column order. O(width/4096 + touched words + MACs).
pub(crate) fn gustavson_row(
    acols: &[usize],
    avals: &[Value],
    b: &CsrMatrix,
    scratch: &mut Accumulator,
    col_ids: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    let Accumulator {
        acc,
        occupied,
        summary,
    } = scratch;
    for (k, av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(*k);
        for (&j, bv) in bcols.iter().zip(bvals) {
            // Store only on a column's first touch: a bit set on every MAC
            // would chain each MAC to the last one's store to that word.
            let (w, bit) = (j / 64, 1 << (j % 64));
            if occupied[w] & bit == 0 {
                if occupied[w] == 0 {
                    summary[w / 64] |= 1 << (w % 64);
                }
                occupied[w] |= bit;
            }
            acc[j] += av * bv;
        }
    }
    for (s, sum) in summary.iter_mut().enumerate() {
        if *sum == 0 {
            continue;
        }
        let mut words = std::mem::take(sum);
        while words != 0 {
            let w = s * 64 + words.trailing_zeros() as usize;
            words &= words - 1;
            let mut bits = std::mem::take(&mut occupied[w]);
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if acc[j] != 0.0 {
                    col_ids.push(j);
                    values.push(acc[j]);
                }
                acc[j] = 0.0;
            }
        }
    }
}

/// Min-heap scratch for the row-wise merge: `(output column j, A-slot s,
/// position within B's row s)` entries ordered lexicographically, so ties
/// on `j` pop in ascending A-slot order — exactly Gustavson's
/// k-ascending accumulation order per output element.
pub(crate) type MergeHeap = Vec<(usize, usize, usize)>;

#[inline]
fn heap_push(h: &mut MergeHeap, item: (usize, usize, usize)) {
    h.push(item);
    let mut i = h.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if h[i] < h[parent] {
            h.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

#[inline]
fn heap_pop(h: &mut MergeHeap) -> Option<(usize, usize, usize)> {
    let last = h.len().checked_sub(1)?;
    h.swap(0, last);
    let top = h.pop()?;
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut smallest = i;
        if l < h.len() && h[l] < h[smallest] {
            smallest = l;
        }
        if r < h.len() && h[r] < h[smallest] {
            smallest = r;
        }
        if smallest == i {
            break;
        }
        h.swap(i, smallest);
        i = smallest;
    }
    Some(top)
}

/// One **row-wise-product** output row (*Maple*'s dataflow, PAPERS.md):
/// instead of scattering into a dense accumulator the width of `B`, merge
/// the sorted B-rows selected by the A-fiber with a k-way heap, emitting
/// output columns in ascending order as the merge front passes them.
///
/// Scratch is O(row fan-out) instead of O(B cols), which is the win at
/// extreme sparsity / very wide `B`. The merge pops ties on the output
/// column in A-slot (= ascending `k`) order and starts every element's
/// accumulation from `0.0`, so each output value sees the **identical**
/// floating-point addition sequence as [`gustavson_row`] — including the
/// `!= 0.0` exact-cancellation drop — making the two algorithms
/// bit-for-bit interchangeable.
pub(crate) fn rowwise_row(
    acols: &[usize],
    avals: &[Value],
    b: &CsrMatrix,
    heap: &mut MergeHeap,
    col_ids: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    heap.clear();
    for (s, &k) in acols.iter().enumerate() {
        let (bcols, _) = b.row(k);
        if !bcols.is_empty() {
            heap_push(heap, (bcols[0], s, 0));
        }
    }
    let mut cur_j = usize::MAX;
    let mut acc = 0.0f64;
    let mut live = false;
    while let Some((j, s, pos)) = heap_pop(heap) {
        if live && j != cur_j {
            if acc != 0.0 {
                col_ids.push(cur_j);
                values.push(acc);
            }
            acc = 0.0;
        }
        cur_j = j;
        live = true;
        let (bcols, bvals) = b.row(acols[s]);
        acc += avals[s] * bvals[pos];
        if pos + 1 < bcols.len() {
            heap_push(heap, (bcols[pos + 1], s, pos + 1));
        }
    }
    if live && acc != 0.0 {
        col_ids.push(cur_j);
        values.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use crate::gemm::gemm_naive;
    use crate::{spgemm, spgemm_with, SpgemmAlgo};
    use sparseflex_formats::{CooMatrix, CsrMatrix, MatrixData, SparseMatrix};

    fn mk(rows: usize, cols: usize, seed: u64, nnz: usize) -> MatrixData {
        let triplets = random_triplets(rows, cols, seed, nnz);
        csr(CooMatrix::from_triplets(rows, cols, triplets).unwrap())
    }

    /// Up to `nnz` integer-valued entries in -4..=4 (exact in f64).
    fn random_triplets(
        rows: usize,
        cols: usize,
        seed: u64,
        nnz: usize,
    ) -> Vec<(usize, usize, f64)> {
        let mut state = seed;
        let mut triplets = Vec::new();
        for _ in 0..nnz {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as usize % rows;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = (state >> 33) as usize % cols;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) % 9) as f64 - 4.0;
            if v != 0.0 {
                triplets.push((r, c, v));
            }
        }
        triplets
    }

    fn csr(coo: CooMatrix) -> MatrixData {
        MatrixData::Csr(CsrMatrix::from_coo(&coo))
    }

    /// A row combining +1 and -1 contributions that cancel exactly.
    fn cancelling_pair() -> (MatrixData, MatrixData) {
        (
            csr(CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).unwrap()),
            csr(CooMatrix::from_triplets(2, 1, vec![(0, 0, 5.0), (1, 0, -5.0)]).unwrap()),
        )
    }

    fn rowwise(a: &MatrixData, b: &MatrixData) -> CsrMatrix {
        spgemm_with(a, b, SpgemmAlgo::RowWise).unwrap()
    }

    #[test]
    fn matches_dense_reference() {
        let a = mk(8, 10, 1, 20);
        let b = mk(10, 6, 2, 18);
        let o = spgemm(&a, &b).unwrap();
        assert_eq!(o.to_dense(), gemm_naive(&a.to_dense(), &b.to_dense()));
    }

    #[test]
    fn cancellation_drops_output_entry() {
        let (a, b) = cancelling_pair();
        assert_eq!(spgemm(&a, &b).unwrap().nnz(), 0);
        assert_eq!(rowwise(&a, &b).nnz(), 0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = mk(12, 12, 5, 30);
        let id =
            csr(CooMatrix::from_triplets(12, 12, (0..12).map(|i| (i, i, 1.0)).collect()).unwrap());
        assert_eq!(spgemm(&a, &id).unwrap().to_dense(), a.to_dense());
        assert_eq!(spgemm(&id, &a).unwrap().to_dense(), a.to_dense());
    }

    #[test]
    fn empty_operand_yields_empty() {
        let a = csr(CooMatrix::empty(4, 5));
        let b = mk(5, 3, 6, 8);
        assert_eq!(spgemm(&a, &b).unwrap().nnz(), 0);
        assert_eq!(rowwise(&a, &b).nnz(), 0);
        let wide = csr(CooMatrix::empty(5, 1000));
        assert_eq!(rowwise(&a, &wide).nnz(), 0);
    }

    /// The row-wise merge must replay Gustavson's exact addition sequence,
    /// so the two dataflows are bit-for-bit equal — including dropped
    /// exact cancellations — on random operands, and at B widths on both
    /// sides of an occupancy word (64 columns) and of a summary word
    /// (4,096 columns), up to a hypersparse B 100,003 columns wide.
    ///
    /// At each width, output row 0 cancels exactly at two columns that
    /// straddle a word boundary and row 1 then reuses them: an occupancy
    /// or summary bit left stale by the cancelled row would drop or
    /// misplace row 1's entries.
    #[test]
    fn rowwise_is_bit_identical_to_gustavson() {
        for seed in 0..6u64 {
            let a = mk(30, 25, seed * 2 + 1, 150);
            let b = mk(25, 40, seed * 2 + 2, 170);
            assert_eq!(rowwise(&a, &b), spgemm(&a, &b).unwrap(), "seed {seed}");
        }
        let k = 12;
        for (seed, n) in (0u64..).zip([1, 63, 64, 65, 4095, 4096, 4097, 100_003]) {
            let boundary = (n - 1) / 64 * 64;
            let (c0, c1) = if boundary == 0 {
                (0, n - 1)
            } else {
                (boundary - 1, boundary)
            };
            // B's rows 0-2 hold the straddling pair; rows 3.. are random.
            let mut b = vec![
                (0, c0, 1.0),
                (0, c1, 1.0),
                (1, c0, -1.0),
                (1, c1, -1.0),
                (2, c0, 2.0),
                (2, c1, 3.0),
            ];
            let fill = random_triplets(k - 3, n, seed * 2 + 101, 40);
            b.extend(fill.into_iter().map(|(r, c, v)| (r + 3, c, v)));
            // A's row 0 sums B's rows 0 and 1 (the cancellation), row 1
            // reads row 2 (the reuse); rows 2.. are random.
            let mut a = vec![(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)];
            let fill = random_triplets(6, k, seed * 2 + 102, 30);
            a.extend(fill.into_iter().map(|(r, c, v)| (r + 2, c, v)));
            let a = csr(CooMatrix::from_triplets(8, k, a).unwrap());
            let b = csr(CooMatrix::from_triplets(k, n, b).unwrap());
            let g = spgemm(&a, &b).unwrap();
            assert_eq!(rowwise(&a, &b), g, "width {n}");
            assert_eq!(
                g.to_dense(),
                gemm_naive(&a.to_dense(), &b.to_dense()),
                "width {n}"
            );
            let (cols, vals) = g.row(1);
            let want = if c0 == c1 {
                vec![(c0, 5.0)]
            } else {
                vec![(c0, 2.0), (c1, 3.0)]
            };
            assert_eq!(
                cols.iter()
                    .copied()
                    .zip(vals.iter().copied())
                    .collect::<Vec<_>>(),
                want,
                "width {n}: the row after the cancellation"
            );
            assert_eq!(g.row(0).0, &[] as &[usize], "width {n}: the cancelled row");
        }
    }

    #[test]
    fn output_rows_are_sorted() {
        let a = mk(20, 20, 7, 80);
        let b = mk(20, 20, 8, 80);
        for o in [spgemm(&a, &b).unwrap(), rowwise(&a, &b)] {
            for r in 0..o.rows() {
                let (cols, _) = o.row(r);
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted");
            }
        }
    }
}
