//! SpGEMM: sparse × sparse matrix multiplication (Gustavson's algorithm).
//!
//! "SpGEMM dominates the setup times of applications that use multigrid
//! methods" (§II). The CSR(A)-CSR(B)-CSR(O) ACF is the one the paper's
//! Fig. 5 shows winning at extreme sparsity on GPUs.
//!
//! The format-generic entry points are [`crate::spgemm()`] /
//! [`crate::spgemm_parallel`]; this module holds the retained CSR×CSR fast
//! paths and the Gustavson row routine the generic stream consumer shares.

use sparseflex_formats::{CsrMatrix, SparseMatrix, Value};

/// Gustavson SpGEMM fast path: `O = A * B`, all three in CSR.
///
/// Row `i` of `O` is the sparse linear combination of the rows of `B`
/// selected by row `i` of `A`, accumulated in a dense scratch row (the
/// classic sparse accumulator).
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR rows Gustavson emits"
)]
pub(crate) fn csr_csr(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    debug_assert_eq!(a.cols(), b.rows(), "SpGEMM inner dimensions must agree");
    let m = a.rows();
    let n = b.cols();
    let mut row_ptr = Vec::with_capacity(m + 1);
    row_ptr.push(0usize);
    let mut col_ids = Vec::new();
    let mut values = Vec::new();

    let mut scratch = Accumulator::new(n);
    for i in 0..m {
        let (acols, avals) = a.row(i);
        gustavson_row(acols, avals, b, &mut scratch, &mut col_ids, &mut values);
        row_ptr.push(values.len());
    }
    CsrMatrix::from_parts(m, n, row_ptr, col_ids, values)
        .expect("Gustavson emits sorted valid CSR rows")
}

/// Sparse-accumulator scratch reused across output rows: the dense value
/// row, an occupancy stamp per column (so first-touch detection is O(1)
/// even when cancellation leaves `acc[j] == 0.0` mid-row), and the touched
/// column list.
pub(crate) struct Accumulator {
    acc: Vec<f64>,
    occupied: Vec<bool>,
    touched: Vec<usize>,
}

impl Accumulator {
    /// Scratch for output rows of width `n`.
    pub(crate) fn new(n: usize) -> Self {
        Accumulator {
            acc: vec![0.0; n],
            occupied: vec![false; n],
            touched: Vec::with_capacity(n),
        }
    }
}

/// One Gustavson row — the sparse-accumulator step the generic stream
/// dispatcher also drives, one fiber of `A` at a time: accumulate
/// `Σ A[i][k] * B[k][:]` into the scratch row, emit sorted nonzeros.
pub(crate) fn gustavson_row(
    acols: &[usize],
    avals: &[Value],
    b: &CsrMatrix,
    scratch: &mut Accumulator,
    col_ids: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    for (k, av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(*k);
        for (j, bv) in bcols.iter().zip(bvals) {
            if !scratch.occupied[*j] {
                scratch.occupied[*j] = true;
                scratch.touched.push(*j);
            }
            scratch.acc[*j] += av * bv;
        }
    }
    scratch.touched.sort_unstable();
    for &j in &scratch.touched {
        if scratch.acc[j] != 0.0 {
            col_ids.push(j);
            values.push(scratch.acc[j]);
        }
        scratch.acc[j] = 0.0;
        scratch.occupied[j] = false;
    }
    scratch.touched.clear();
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

/// Row-wise-product SpGEMM fast path: `O = A * B`, all three in CSR.
#[expect(
    clippy::expect_used,
    reason = "from_parts re-validates the CSR rows the row-wise merge emits"
)]
pub(crate) fn csr_csr_rowwise(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    debug_assert_eq!(a.cols(), b.rows(), "SpGEMM inner dimensions must agree");
    let m = a.rows();
    let n = b.cols();
    let mut row_ptr = Vec::with_capacity(m + 1);
    row_ptr.push(0usize);
    let mut col_ids = Vec::new();
    let mut values = Vec::new();
    let mut heap: MergeHeap = Vec::new();
    for i in 0..m {
        let (acols, avals) = a.row(i);
        rowwise_row(acols, avals, b, &mut heap, &mut col_ids, &mut values);
        row_ptr.push(values.len());
    }
    CsrMatrix::from_parts(m, n, row_ptr, col_ids, values)
        .expect("the row-wise merge emits sorted valid CSR rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use sparseflex_formats::{CooMatrix, SparseMatrix};

    fn mk(rows: usize, cols: usize, seed: u64, nnz: usize) -> CsrMatrix {
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
        CsrMatrix::from_coo(&CooMatrix::from_triplets(rows, cols, triplets).unwrap())
    }

    #[test]
    fn matches_dense_reference() {
        let a = mk(8, 10, 1, 20);
        let b = mk(10, 6, 2, 18);
        let o = csr_csr(&a, &b);
        let expect = gemm_naive(&a.to_dense(), &b.to_dense());
        assert_eq!(o.to_dense(), expect);
    }

    #[test]
    fn cancellation_drops_output_entry() {
        // A row combining +1 and -1 contributions that cancel exactly.
        let a = CsrMatrix::from_coo(
            &CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).unwrap(),
        );
        let b = CsrMatrix::from_coo(
            &CooMatrix::from_triplets(2, 1, vec![(0, 0, 5.0), (1, 0, -5.0)]).unwrap(),
        );
        let o = csr_csr(&a, &b);
        assert_eq!(o.nnz(), 0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = mk(12, 12, 5, 30);
        let id = {
            let t: Vec<_> = (0..12).map(|i| (i, i, 1.0)).collect();
            CsrMatrix::from_coo(&CooMatrix::from_triplets(12, 12, t).unwrap())
        };
        assert_eq!(csr_csr(&a, &id).to_dense(), a.to_dense());
        assert_eq!(csr_csr(&id, &a).to_dense(), a.to_dense());
    }

    #[test]
    fn empty_operand_yields_empty() {
        let a = CsrMatrix::from_coo(&CooMatrix::empty(4, 5));
        let b = mk(5, 3, 6, 8);
        assert_eq!(csr_csr(&a, &b).nnz(), 0);
    }

    /// The row-wise merge must replay Gustavson's exact addition sequence,
    /// so the two fast paths are bit-for-bit equal — including dropped
    /// exact cancellations — on random operands.
    #[test]
    fn rowwise_is_bit_identical_to_gustavson() {
        for seed in 0..6u64 {
            let a = mk(30, 25, seed * 2 + 1, 150);
            let b = mk(25, 40, seed * 2 + 2, 170);
            assert_eq!(csr_csr_rowwise(&a, &b), csr_csr(&a, &b), "seed {seed}");
        }
    }

    #[test]
    fn rowwise_drops_exact_cancellation_like_gustavson() {
        let a = CsrMatrix::from_coo(
            &CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).unwrap(),
        );
        let b = CsrMatrix::from_coo(
            &CooMatrix::from_triplets(2, 1, vec![(0, 0, 5.0), (1, 0, -5.0)]).unwrap(),
        );
        assert_eq!(csr_csr_rowwise(&a, &b).nnz(), 0);
    }

    #[test]
    fn rowwise_handles_empty_operands() {
        let a = CsrMatrix::from_coo(&CooMatrix::empty(4, 5));
        let b = mk(5, 3, 6, 8);
        assert_eq!(csr_csr_rowwise(&a, &b).nnz(), 0);
        let wide = CsrMatrix::from_coo(&CooMatrix::empty(5, 1000));
        assert_eq!(csr_csr_rowwise(&a, &wide).nnz(), 0);
    }

    #[test]
    fn output_rows_are_sorted() {
        let a = mk(20, 20, 7, 80);
        let b = mk(20, 20, 8, 80);
        let o = csr_csr(&a, &b);
        for r in 0..o.rows() {
            let (cols, _) = o.row(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted");
        }
    }
}
