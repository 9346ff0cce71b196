//! Arena-backed streaming properties — the acceptance suite for the
//! zero-alloc traversal redesign.
//!
//! This test binary installs the counting global allocator from
//! `sparseflex_bench::allocs`, so it can assert the tentpole claim
//! directly: after one warm-up traversal grows the [`StreamArena`] to a
//! format's high-water mark, subsequent traversals of **every** matrix
//! and tensor format perform *zero* heap allocations. Alongside, a
//! proptest pins the semantic half of the contract: the arena-backed
//! stream emits exactly the same fiber sequence as the arena-less
//! convenience path, even when one arena is shared dirty across formats
//! and passes.

use proptest::prelude::*;
use sparseflex::formats::{
    csr_from_stream, csr_from_stream_in, CooMatrix, CooTensor3, MatrixData, MatrixFormat,
    StreamArena, TensorData, TensorFormat,
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

type MatrixFibers = Vec<(usize, Vec<usize>, Vec<f64>)>;
type TensorFibers = Vec<(usize, usize, Vec<usize>, Vec<f64>)>;

fn matrix_fibers_in(data: &MatrixData, arena: &mut StreamArena) -> MatrixFibers {
    let mut out = Vec::new();
    data.row_stream()
        .for_each_fiber_in(arena, &mut |r, cols, vals| {
            out.push((r, cols.to_vec(), vals.to_vec()));
        });
    out
}

fn matrix_fibers_oneshot(data: &MatrixData) -> MatrixFibers {
    let mut out = Vec::new();
    data.row_stream().for_each_fiber(&mut |r, cols, vals| {
        out.push((r, cols.to_vec(), vals.to_vec()));
    });
    out
}

fn tensor_fibers_in(data: &TensorData, arena: &mut StreamArena) -> TensorFibers {
    let mut out = Vec::new();
    data.fiber_stream()
        .for_each_fiber_in(arena, &mut |x, y, zs, vals| {
            out.push((x, y, zs.to_vec(), vals.to_vec()));
        });
    out
}

fn tensor_fibers_oneshot(data: &TensorData) -> TensorFibers {
    let mut out = Vec::new();
    data.fiber_stream().for_each_fiber(&mut |x, y, zs, vals| {
        out.push((x, y, zs.to_vec(), vals.to_vec()));
    });
    out
}

/// Allocation-free traversal fold (the closure must not touch the heap,
/// or the zero-alloc assertion would blame the traversal for it).
fn matrix_checksum(data: &MatrixData, arena: &mut StreamArena) -> f64 {
    let mut acc = 0.0f64;
    data.row_stream()
        .for_each_fiber_in(arena, &mut |r, cols, vals| {
            acc += (r + cols.len()) as f64;
            for &v in vals {
                acc += v;
            }
        });
    acc
}

fn tensor_checksum(data: &TensorData, arena: &mut StreamArena) -> f64 {
    let mut acc = 0.0f64;
    data.fiber_stream()
        .for_each_fiber_in(arena, &mut |x, y, zs, vals| {
            acc += (x + y + zs.len()) as f64;
            for &v in vals {
                acc += v;
            }
        });
    acc
}

fn arb_sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    proptest::collection::vec(
        ((0..rows), (0..cols), -8i32..8).prop_map(|(r, c, v)| (r, c, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |t| CooMatrix::from_triplets(rows, cols, t).unwrap())
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_backed_streams_match_one_shot_streams(
        a in arb_sparse(9, 11, 44),
        t in arb_tensor(5, 4, 6, 30),
    ) {
        // One arena, shared dirty across every format and two passes
        // each: the buffers a previous format left behind must never
        // leak into the next format's emitted fibers.
        let mut arena = StreamArena::new();
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&a, &fmt).unwrap();
            let expect = matrix_fibers_oneshot(&data);
            for pass in 0..2 {
                prop_assert_eq!(
                    &matrix_fibers_in(&data, &mut arena),
                    &expect,
                    "matrix {} pass {}",
                    fmt,
                    pass
                );
            }
        }
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            let expect = tensor_fibers_oneshot(&data);
            for pass in 0..2 {
                prop_assert_eq!(
                    &tensor_fibers_in(&data, &mut arena),
                    &expect,
                    "tensor {} pass {}",
                    fmt,
                    pass
                );
            }
        }
    }
}

#[test]
fn warm_arena_traversals_never_allocate() {
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
    for fmt in matrix_formats() {
        let data = MatrixData::encode(&a, &fmt).unwrap();
        let mut arena = StreamArena::new();
        let warm = matrix_checksum(&data, &mut arena);
        let (allocs_steady, steady) = allocs::count_allocs(|| matrix_checksum(&data, &mut arena));
        assert_eq!(warm, steady, "{fmt}: passes must agree");
        assert_eq!(allocs_steady, 0, "{fmt}: steady-state traversal allocated");
    }
    for fmt in tensor_formats() {
        let data = TensorData::encode(&t, &fmt).unwrap();
        let mut arena = StreamArena::new();
        let warm = tensor_checksum(&data, &mut arena);
        let (allocs_steady, steady) = allocs::count_allocs(|| tensor_checksum(&data, &mut arena));
        assert_eq!(warm, steady, "{fmt}: passes must agree");
        assert_eq!(allocs_steady, 0, "{fmt}: steady-state traversal allocated");
    }
}

#[test]
fn csr_materialization_with_recycling_never_allocates_steady_state() {
    let a = CooMatrix::from_triplets(
        24,
        30,
        (0..120)
            .map(|i| ((i * 7) % 24, (i * 13) % 30, (i % 9) as f64 - 4.0))
            .collect(),
    )
    .unwrap();
    let data = MatrixData::encode(&a, &MatrixFormat::Csc).unwrap();
    let expect = csr_from_stream(data.row_stream());
    let mut arena = StreamArena::new();
    // Warm-up cycle: build once, hand the triple back.
    let warm = csr_from_stream_in(&mut arena, data.row_stream());
    assert_eq!(warm, expect, "arena-backed build must match arena-less");
    arena.recycle_csr(warm);
    let (n, rebuilt) = allocs::count_allocs(|| {
        let c = csr_from_stream_in(&mut arena, data.row_stream());
        let ok = c == expect;
        arena.recycle_csr(c);
        ok
    });
    assert!(rebuilt, "recycled rebuild must still match");
    assert_eq!(n, 0, "steady-state CSR materialization allocated");
}
