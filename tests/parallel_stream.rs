//! Data-parallel streaming properties — the acceptance suite for the
//! two-phase (partition → ranged traversal) fan-out of the generic
//! stream path.
//!
//! Four contracts are pinned here, across **every** matrix and tensor
//! format:
//!
//! 1. **Partitions are sound.** `row_partition` / `fiber_partition`
//!    return contiguous, disjoint, covering ranges whose per-range
//!    emitted-nnz never exceeds the ideal share by more than one fiber
//!    (whole fibers are never split), and concatenating the ranged
//!    walks in range order replays the full stream exactly.
//! 2. **Parallel kernels are bit-for-bit sequential.** At forced worker
//!    counts 1/2/3/4/7/8, every parallel kernel — SpMM, both SpGEMM
//!    dataflows, MTTKRP, SpTTM, and parallel CSR materialization —
//!    equals its sequential twin exactly (and the dense reference,
//!    exact on the small-integer operands generated here).
//! 3. **Warm worker arenas never allocate.** After one warm-up ranged
//!    pass, each range's repeat traversal performs zero heap
//!    allocations under the counting global allocator, at 3 and 8
//!    parts.
//! 4. **Tensor streams do not move.** One digest pins every tensor
//!    format's accessors, partitions, ranged walks and tensor kernels
//!    bit for bit.

use proptest::prelude::*;
use sparseflex::formats::{
    csr_from_stream, CooMatrix, CooTensor3, DenseMatrix, DenseTensor3, MatrixData, MatrixFormat,
    SparseMatrix, StreamArena, TensorData, TensorFormat,
};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::parallel::with_workers;
use sparseflex::kernels::{
    csr_from_stream_parallel, mttkrp_parallel, mttkrp_via_stream, spgemm_parallel_with,
    spgemm_with, spmm_parallel, spmm_via_stream, spttm, spttm_parallel, SpgemmAlgo,
};
use sparseflex_bench::allocs;

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

/// Every matrix format variant (block/run parameters exercise ragged
/// edges).
fn matrix_formats() -> Vec<MatrixFormat> {
    vec![
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 3, bc: 2 },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits: 3 },
        MatrixFormat::Zvc,
    ]
}

/// Every tensor format variant.
fn tensor_formats() -> Vec<TensorFormat> {
    vec![
        TensorFormat::Dense,
        TensorFormat::Coo,
        TensorFormat::Csf,
        TensorFormat::HiCoo { block: 2 },
        TensorFormat::Rlc { run_bits: 3 },
        TensorFormat::Zvc,
    ]
}

const WORKER_COUNTS: [usize; 6] = [1, 2, 3, 4, 7, 8];

/// Range counts the warm-arena allocation contract is checked at.
const RANGED_PARTS: [usize; 2] = [3, 8];

type MatrixFibers = Vec<(usize, Vec<usize>, Vec<f64>)>;
type TensorFibers = Vec<(usize, usize, Vec<usize>, Vec<f64>)>;

fn matrix_fibers_full(data: &MatrixData) -> MatrixFibers {
    let mut out = Vec::new();
    data.row_stream().for_each_fiber(&mut |r, cols, vals| {
        out.push((r, cols.to_vec(), vals.to_vec()));
    });
    out
}

fn matrix_fibers_range(data: &MatrixData, range: std::ops::Range<usize>) -> MatrixFibers {
    let mut out = Vec::new();
    let mut arena = StreamArena::new();
    data.row_stream()
        .for_each_fiber_range_in(range, &mut arena, &mut |r, cols, vals| {
            out.push((r, cols.to_vec(), vals.to_vec()));
        });
    out
}

fn tensor_fibers_full(data: &TensorData) -> TensorFibers {
    let mut out = Vec::new();
    data.fiber_stream().for_each_fiber(&mut |x, y, zs, vals| {
        out.push((x, y, zs.to_vec(), vals.to_vec()));
    });
    out
}

fn tensor_fibers_range(data: &TensorData, range: std::ops::Range<usize>) -> TensorFibers {
    let mut out = Vec::new();
    let mut arena = StreamArena::new();
    data.fiber_stream()
        .for_each_fiber_range_in(range, &mut arena, &mut |x, y, zs, vals| {
            out.push((x, y, zs.to_vec(), vals.to_vec()));
        });
    out
}

/// Structural soundness shared by both partition kinds: ranges are
/// non-empty, contiguous, in order, start at 0, and end at `units`.
fn assert_partition_shape(
    ranges: &[std::ops::Range<usize>],
    units: usize,
    parts: usize,
    label: &str,
) {
    if units == 0 {
        assert!(
            ranges.is_empty(),
            "{label}: empty input must yield no ranges"
        );
        return;
    }
    assert!(!ranges.is_empty(), "{label}: non-empty input yields ranges");
    assert!(
        ranges.len() <= parts.max(1),
        "{label}: at most `parts` ranges"
    );
    assert_eq!(ranges[0].start, 0, "{label}: first range starts at 0");
    assert_eq!(
        ranges[ranges.len() - 1].end,
        units,
        "{label}: last range ends at {units}"
    );
    for w in ranges.windows(2) {
        assert_eq!(w[0].end, w[1].start, "{label}: ranges must be contiguous");
    }
    for r in ranges {
        assert!(r.start < r.end, "{label}: ranges must be non-empty");
    }
}

fn naive_mttkrp(t: &CooTensor3, b: &DenseMatrix, c: &DenseMatrix) -> DenseMatrix {
    use sparseflex::formats::SparseTensor3;
    let j = b.cols();
    let mut o = DenseMatrix::zeros(t.dim_x(), j);
    for (x, y, z, v) in t.iter() {
        for jj in 0..j {
            let cur = o.row(x)[jj];
            o.set(x, jj, cur + v * c.row(z)[jj] * b.row(y)[jj]);
        }
    }
    o
}

fn naive_spttm(t: &CooTensor3, b: &DenseMatrix) -> DenseTensor3 {
    use sparseflex::formats::SparseTensor3;
    let j = b.cols();
    let mut y = DenseTensor3::zeros(t.dim_x(), t.dim_y(), j);
    for (xi, yi, zi, v) in t.iter() {
        for jj in 0..j {
            y.add_assign(xi, yi, jj, v * b.row(zi)[jj]);
        }
    }
    y
}

fn arb_sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    proptest::collection::vec(
        ((0..rows), (0..cols), -8i32..8).prop_map(|(r, c, v)| (r, c, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |t| CooMatrix::from_triplets(rows, cols, t).unwrap())
}

fn arb_dense(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-8i32..8, rows * cols).prop_map(move |v| {
        DenseMatrix::from_vec(rows, cols, v.into_iter().map(|x| x as f64).collect()).unwrap()
    })
}

fn arb_tensor(
    dx: usize,
    dy: usize,
    dz: usize,
    max_nnz: usize,
) -> impl Strategy<Value = CooTensor3> {
    proptest::collection::vec(
        ((0..dx), (0..dy), (0..dz), -5i32..5).prop_map(|(x, y, z, v)| (x, y, z, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |q| CooTensor3::from_quads(dx, dy, dz, q).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Phase-1 soundness for matrices: partitions are contiguous,
    /// covering, nnz-balanced up to one fiber, and the concatenated
    /// ranged walks replay the full stream exactly.
    #[test]
    fn matrix_partitions_are_sound_and_ranged_walks_concatenate(
        a in arb_sparse(11, 13, 70),
    ) {
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&a, &fmt).unwrap();
            let full = matrix_fibers_full(&data);
            let total: usize = full.iter().map(|(_, cs, _)| cs.len()).sum();
            let max_fiber = full.iter().map(|(_, cs, _)| cs.len()).max().unwrap_or(0);
            for parts in [1usize, 2, 3, 7, 16] {
                let ranges = data.row_stream().row_partition(parts);
                assert_partition_shape(&ranges, a.rows(), parts, &format!("{fmt} parts={parts}"));
                let mut glued = Vec::new();
                for r in &ranges {
                    let band = matrix_fibers_range(&data, r.clone());
                    for (row, _, _) in &band {
                        prop_assert!(r.contains(row), "{} fiber {} outside {:?}", fmt, row, r);
                    }
                    let band_nnz: usize = band.iter().map(|(_, cs, _)| cs.len()).sum();
                    prop_assert!(
                        band_nnz <= total.div_ceil(parts) + max_fiber,
                        "{} parts={} range {:?}: {} nnz exceeds balanced share",
                        fmt, parts, r, band_nnz
                    );
                    glued.extend(band);
                }
                prop_assert_eq!(&glued, &full, "{} parts={}", fmt, parts);
            }
        }
    }

    /// Phase-1 soundness for tensors, over the flattened `(x, y)` fiber
    /// key space.
    #[test]
    fn tensor_partitions_are_sound_and_ranged_walks_concatenate(
        t in arb_tensor(5, 4, 6, 40),
    ) {
        use sparseflex::formats::SparseTensor3;
        let keys = t.dim_x() * t.dim_y();
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            let full = tensor_fibers_full(&data);
            let total: usize = full.iter().map(|(_, _, zs, _)| zs.len()).sum();
            let max_fiber = full.iter().map(|(_, _, zs, _)| zs.len()).max().unwrap_or(0);
            for parts in [1usize, 2, 3, 7, 32] {
                let ranges = data.fiber_stream().fiber_partition(parts);
                assert_partition_shape(&ranges, keys, parts, &format!("{fmt} parts={parts}"));
                let mut glued = Vec::new();
                for r in &ranges {
                    let band = tensor_fibers_range(&data, r.clone());
                    for (x, y, _, _) in &band {
                        let key = x * t.dim_y() + y;
                        prop_assert!(r.contains(&key), "{} key {} outside {:?}", fmt, key, r);
                    }
                    let band_nnz: usize = band.iter().map(|(_, _, zs, _)| zs.len()).sum();
                    prop_assert!(
                        band_nnz <= total.div_ceil(parts) + max_fiber,
                        "{} parts={} range {:?}: {} nnz exceeds balanced share",
                        fmt, parts, r, band_nnz
                    );
                    glued.extend(band);
                }
                prop_assert_eq!(&glued, &full, "{} parts={}", fmt, parts);
            }
        }
    }

    /// Phase-2 for matrices: at every forced worker count, the parallel
    /// SpMM / SpGEMM (both dataflows) / CSR materialization equal their
    /// sequential twins bit-for-bit for every format — and the dense
    /// reference, which is exact on these integer-valued operands.
    #[test]
    fn parallel_matrix_kernels_are_bitwise_sequential(
        a in arb_sparse(11, 9, 50),
        bs in arb_sparse(9, 8, 45),
        bd in arb_dense(9, 5),
    ) {
        let spmm_expect = gemm_naive(&a.clone().into_dense(), &bd);
        let spgemm_expect = gemm_naive(&a.clone().into_dense(), &bs.clone().into_dense());
        for fmt in matrix_formats() {
            let da = MatrixData::encode(&a, &fmt).unwrap();
            let db = MatrixData::encode(&bs, &fmt).unwrap();
            let seq_spmm = spmm_via_stream(&da, &bd).unwrap();
            prop_assert_eq!(&seq_spmm, &spmm_expect, "{} sequential SpMM", fmt);
            let seq_gus = spgemm_with(&da, &db, SpgemmAlgo::Gustavson).unwrap();
            let seq_row = spgemm_with(&da, &db, SpgemmAlgo::RowWise).unwrap();
            prop_assert_eq!(seq_gus.to_dense(), spgemm_expect.clone(), "{} sequential SpGEMM", fmt);
            let seq_csr = csr_from_stream(da.row_stream());
            for workers in WORKER_COUNTS {
                with_workers(workers, || {
                    assert_eq!(
                        spmm_parallel(&da, &bd).unwrap(),
                        seq_spmm,
                        "{fmt} SpMM diverged at {workers} workers"
                    );
                    assert_eq!(
                        spgemm_parallel_with(&da, &db, SpgemmAlgo::Gustavson).unwrap(),
                        seq_gus,
                        "{fmt} Gustavson SpGEMM diverged at {workers} workers"
                    );
                    assert_eq!(
                        spgemm_parallel_with(&da, &db, SpgemmAlgo::RowWise).unwrap(),
                        seq_row,
                        "{fmt} row-wise SpGEMM diverged at {workers} workers"
                    );
                    assert_eq!(
                        csr_from_stream_parallel(da.row_stream()),
                        seq_csr,
                        "{fmt} CSR materialization diverged at {workers} workers"
                    );
                });
            }
        }
    }

    /// Phase-2 for tensors: parallel MTTKRP and SpTTM equal their
    /// sequential twins bit-for-bit for every format at every forced
    /// worker count — and the exact dense reference.
    #[test]
    fn parallel_tensor_kernels_are_bitwise_sequential(
        t in arb_tensor(5, 4, 6, 36),
        b in arb_dense(4, 5),
        c in arb_dense(6, 5),
        bz in arb_dense(6, 4),
    ) {
        let mttkrp_expect = naive_mttkrp(&t, &b, &c);
        let spttm_expect = naive_spttm(&t, &bz);
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            let seq_mttkrp = mttkrp_via_stream(&data, &b, &c).unwrap();
            let seq_spttm = spttm(&data, &bz).unwrap();
            prop_assert_eq!(&seq_mttkrp, &mttkrp_expect, "{} sequential MTTKRP", fmt);
            prop_assert_eq!(&seq_spttm, &spttm_expect, "{} sequential SpTTM", fmt);
            for workers in WORKER_COUNTS {
                with_workers(workers, || {
                    assert_eq!(
                        mttkrp_parallel(&data, &b, &c).unwrap(),
                        seq_mttkrp,
                        "{fmt} MTTKRP diverged at {workers} workers"
                    );
                    assert_eq!(
                        spttm_parallel(&data, &bz).unwrap(),
                        seq_spttm,
                        "{fmt} SpTTM diverged at {workers} workers"
                    );
                });
            }
        }
    }
}

/// Allocation-free ranged fold (the closure must not touch the heap, or
/// the zero-alloc assertion would blame the traversal for it).
fn matrix_range_checksum(
    data: &MatrixData,
    range: std::ops::Range<usize>,
    arena: &mut StreamArena,
) -> f64 {
    let mut acc = 0.0f64;
    data.row_stream()
        .for_each_fiber_range_in(range, arena, &mut |r, cols, vals| {
            acc += (r + cols.len()) as f64;
            for &v in vals {
                acc += v;
            }
        });
    acc
}

fn tensor_range_checksum(
    data: &TensorData,
    range: std::ops::Range<usize>,
    arena: &mut StreamArena,
) -> f64 {
    let mut acc = 0.0f64;
    data.fiber_stream()
        .for_each_fiber_range_in(range, arena, &mut |x, y, zs, vals| {
            acc += (x + y + zs.len()) as f64;
            for &v in vals {
                acc += v;
            }
        });
    acc
}

/// The per-worker arena contract behind every parallel kernel: once a
/// worker's arena has seen its range, re-streaming that range allocates
/// nothing — for every format, with the worker loop simulated serially
/// so thread-spawn bookkeeping cannot pollute the count.
#[test]
fn warm_worker_arenas_never_allocate_per_range() {
    assert!(allocs::probe_installed(), "counting allocator installed");
    let a = CooMatrix::from_triplets(
        24,
        30,
        (0..120)
            .map(|i| ((i * 7) % 24, (i * 13) % 30, (i % 9) as f64 - 4.0))
            .collect(),
    )
    .unwrap();
    let t = CooTensor3::from_quads(
        8,
        7,
        9,
        (0..90)
            .map(|i| ((i * 3) % 8, (i * 5) % 7, (i * 11) % 9, (i % 7) as f64 - 3.0))
            .collect(),
    )
    .unwrap();
    for parts in RANGED_PARTS {
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&a, &fmt).unwrap();
            let ranges = data.row_stream().row_partition(parts);
            let mut arenas: Vec<StreamArena> = ranges.iter().map(|_| StreamArena::new()).collect();
            for (r, arena) in ranges.iter().zip(arenas.iter_mut()) {
                let warm = matrix_range_checksum(&data, r.clone(), arena);
                let (n, steady) =
                    allocs::count_allocs(|| matrix_range_checksum(&data, r.clone(), arena));
                assert_eq!(warm, steady, "{fmt} range {r:?}: passes must agree");
                assert_eq!(
                    n, 0,
                    "{fmt} range {r:?} of {parts}: steady-state ranged traversal allocated"
                );
            }
        }
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            let ranges = data.fiber_stream().fiber_partition(parts);
            let mut arenas: Vec<StreamArena> = ranges.iter().map(|_| StreamArena::new()).collect();
            for (r, arena) in ranges.iter().zip(arenas.iter_mut()) {
                let warm = tensor_range_checksum(&data, r.clone(), arena);
                let (n, steady) =
                    allocs::count_allocs(|| tensor_range_checksum(&data, r.clone(), arena));
                assert_eq!(warm, steady, "{fmt} range {r:?}: passes must agree");
                assert_eq!(
                    n, 0,
                    "{fmt} range {r:?} of {parts}: steady-state ranged traversal allocated"
                );
            }
        }
    }
}

/// Fold a dense matrix: its shape, then the bits of every element.
fn pin_matrix(m: &DenseMatrix, pinned: &mut Vec<u8>) {
    for d in [m.rows(), m.cols()] {
        pinned.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for v in m.data() {
        pinned.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Fold a walk's fibers: each fiber's `(x, y)`, length, z ids and value
/// bits, then an end marker.
fn pin_fibers(fibers: &TensorFibers, pinned: &mut Vec<u8>) {
    for (x, y, zs, vals) in fibers {
        for d in [*x, *y, zs.len()].iter().chain(zs) {
            pinned.extend_from_slice(&(*d as u64).to_le_bytes());
        }
        for v in vals {
            pinned.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    pinned.extend_from_slice(&u64::MAX.to_le_bytes());
}

/// The tensor streams pinned end to end: one FNV-1a digest over every
/// tensor format (RLC at 2 and 4 run bits) on tensors with a zero extent
/// on each axis and on random operands (hypersparse, fibers across mask
/// words, and a full one). Per format it folds `nnz`, `shape`, `get` on
/// every cell, `to_coo`, `fiber_partition` at 1–6 parts with each range's
/// walk, walks of ranges that run past the end, and MTTKRP
/// (`mttkrp`, `mttkrp_via_stream`, `mttkrp_parallel`) and SpTTM
/// (`spttm`, `spttm_parallel`), the parallel forms at 1–4 workers.
#[test]
fn tensor_streams_are_pinned_bit_for_bit() {
    use sparseflex::formats::{fnv1a, SparseTensor3};
    use sparseflex::kernels::mttkrp;
    use sparseflex::workloads::synth::{random_dense_matrix, random_tensor3};

    let formats = [
        TensorFormat::Dense,
        TensorFormat::Coo,
        TensorFormat::Csf,
        TensorFormat::HiCoo { block: 2 },
        TensorFormat::Rlc { run_bits: 2 },
        TensorFormat::Rlc { run_bits: 4 },
        TensorFormat::Zvc,
    ];
    let operands = [
        random_tensor3(0, 4, 5, 0, 1),
        random_tensor3(3, 0, 5, 0, 2),
        random_tensor3(3, 4, 0, 0, 3),
        random_tensor3(5, 4, 6, 40, 4),
        random_tensor3(9, 8, 5, 6, 5),
        random_tensor3(3, 7, 130, 120, 6),
        random_tensor3(4, 3, 65, 300, 7),
        random_tensor3(2, 3, 4, 24, 8),
    ];
    let mut pinned = Vec::new();
    for (i, t) in operands.iter().enumerate() {
        let (dx, dy, dz) = t.shape();
        let keys = dx * dy;
        let seed = 100 + 3 * i as u64;
        let b = random_dense_matrix(dy, 3, seed);
        let c = random_dense_matrix(dz, 3, seed + 1);
        let bz = random_dense_matrix(dz, 2, seed + 2);
        for fmt in &formats {
            let data = TensorData::encode(t, fmt).unwrap();
            pinned.extend_from_slice(fmt.to_string().as_bytes());
            for d in [data.nnz(), dx, dy, dz] {
                pinned.extend_from_slice(&(d as u64).to_le_bytes());
            }
            assert_eq!(data.shape(), (dx, dy, dz), "{fmt} shape");
            for x in 0..dx {
                for y in 0..dy {
                    for z in 0..dz {
                        pinned.extend_from_slice(&data.get(x, y, z).to_bits().to_le_bytes());
                    }
                }
            }
            for (x, y, z, v) in data.to_coo().iter() {
                for d in [x, y, z] {
                    pinned.extend_from_slice(&(d as u64).to_le_bytes());
                }
                pinned.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for parts in 1..=6 {
                for r in data.fiber_stream().fiber_partition(parts) {
                    for d in [r.start, r.end] {
                        pinned.extend_from_slice(&(d as u64).to_le_bytes());
                    }
                    pin_fibers(&tensor_fibers_range(&data, r), &mut pinned);
                }
            }
            for lo in [0, keys / 2, keys, keys + 1] {
                pin_fibers(&tensor_fibers_range(&data, lo..keys + 3), &mut pinned);
            }
            pin_matrix(&mttkrp(&data, &b, &c).unwrap(), &mut pinned);
            pin_matrix(&mttkrp_via_stream(&data, &b, &c).unwrap(), &mut pinned);
            for v in spttm(&data, &bz).unwrap().data() {
                pinned.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            for workers in 1..=4 {
                with_workers(workers, || {
                    pin_matrix(&mttkrp_parallel(&data, &b, &c).unwrap(), &mut pinned);
                    for v in spttm_parallel(&data, &bz).unwrap().data() {
                        pinned.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                });
            }
        }
    }
    assert_eq!(
        fnv1a(&pinned),
        0x1002_cbbc_cce0_b851,
        "tensor stream digest moved"
    );
}
