//! Property suite for the open-descriptor search space: the conformance
//! gate that makes beam search over **non-preset** format compositions
//! trustworthy.
//!
//! Random Open-space `FormatDescriptor`s (seeded, via the vendored
//! proptest) are encoded through `CustomMatrix` and executed by the
//! fiber-stream kernels; results must match the dense reference
//! **bit-for-bit** (integer-valued fixtures make f64 arithmetic exact,
//! so any divergence is a traversal bug, not rounding). On top of the
//! conformance gate, the suite pins the beam search's determinism, the
//! preset candidate counts the lazy enumeration must preserve, and the
//! ISSUE acceptance bar: on a Table III workload the open-space beam
//! beats every paper-preset MCF choice while visiting < 25% of the
//! exhaustive candidates.

use proptest::prelude::*;
use sparseflex::formats::descriptor::{enumerate_matrix_iter, Level, RankOrder, ValuesLayout};
use sparseflex::formats::{
    CooMatrix, CustomMatrix, DataType, DenseMatrix, FormatDescriptor, SearchSpace,
};
use sparseflex::kernels::gemm::gemm_naive;
use sparseflex::kernels::spmm;
use sparseflex::sage::{BeamConfig, Sage, SageWorkload, SearchObjective};

/// Every two-level row-major composition over the Open space's level
/// pool that validates as a matrix format — presets (U·C = CSR) and
/// non-presets (B·C, B·R4, ...) alike, plus run-length width variants.
fn open_descriptor_pool() -> Vec<FormatDescriptor> {
    let outers = [Level::Uncompressed, Level::Bitmask];
    let inners = [
        Level::CompressedOffsets,
        Level::Bitmask,
        Level::RunLength { run_bits: 2 },
        Level::RunLength { run_bits: 4 },
        Level::RunLength { run_bits: 8 },
    ];
    let mut pool = Vec::new();
    for outer in outers {
        for inner in inners {
            let d = FormatDescriptor::new(
                RankOrder::RowMajor,
                vec![outer, inner],
                ValuesLayout::Contiguous,
            );
            if d.validate_matrix().is_ok() {
                pool.push(d);
            }
        }
    }
    assert!(pool.len() >= 6, "level pool unexpectedly small");
    pool
}

fn arb_open_descriptor() -> impl Strategy<Value = FormatDescriptor> {
    let pool = open_descriptor_pool();
    (0..pool.len()).prop_map(move |i| pool[i].clone())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SpMV through a random open-space encoding is bit-for-bit the
    /// dense reference (an SpMM with a one-column dense operand).
    #[test]
    fn spmv_through_random_open_descriptors_is_exact(
        a in arb_sparse(12, 10, 48),
        x in arb_dense(10, 1),
        desc in arb_open_descriptor(),
    ) {
        let enc = CustomMatrix::encode(&a, &desc).unwrap();
        let expect = gemm_naive(&a.clone().into_dense(), &x);
        let got = spmm(&enc, &x).unwrap();
        prop_assert_eq!(got, expect, "spmv through {}", desc);
    }

    /// SpMM through a random open-space encoding is bit-for-bit the
    /// dense reference.
    #[test]
    fn spmm_through_random_open_descriptors_is_exact(
        a in arb_sparse(11, 9, 40),
        b in arb_dense(9, 6),
        desc in arb_open_descriptor(),
    ) {
        let enc = CustomMatrix::encode(&a, &desc).unwrap();
        let expect = gemm_naive(&a.clone().into_dense(), &b);
        let got = spmm(&enc, &b).unwrap();
        prop_assert_eq!(got, expect, "spmm through {}", desc);
    }

    /// The encoding also sizes: every sampled descriptor reports a
    /// positive storage footprint for a non-empty operand.
    #[test]
    fn random_open_descriptors_are_sizable(
        a in arb_sparse(12, 10, 48),
        desc in arb_open_descriptor(),
    ) {
        let enc = CustomMatrix::encode(&a, &desc).unwrap();
        prop_assert!(enc.storage_bits(DataType::Fp32) > 0);
    }
}

/// Fixed-seed beam search is deterministic: the same configuration on
/// fresh engines returns the same plan, candidate counts and pruning
/// decisions, run after run.
#[test]
fn fixed_seed_beam_search_is_deterministic() {
    let w = SageWorkload::spgemm(11_000, 11_000, 5_500, 6_600, 3_300, DataType::Fp32);
    let cfg = BeamConfig {
        seed: 0xD5EE_D001,
        ..BeamConfig::default()
    };
    let reference = Sage::default().recommend_open_with(&w, &cfg);
    for _ in 0..3 {
        let again = Sage::default().recommend_open_with(&w, &cfg);
        assert_eq!(again.best.choice, reference.best.choice);
        assert_eq!(again.best.total_cycles(), reference.best.total_cycles());
        assert_eq!(again.visited, reference.visited);
        assert_eq!(again.pruned, reference.pruned);
    }
}

/// The lazy enumeration keeps the preset candidate counts the paper's
/// search is pinned to: 6 MCFs and 4 ACFs, which with the ACF pair
/// legality rules yield 324 SpGEMM / 288 SpMM candidates.
#[test]
fn preset_candidate_counts_stay_pinned_under_lazy_enumeration() {
    assert_eq!(enumerate_matrix_iter(SearchSpace::McfPaper).count(), 6);
    assert_eq!(enumerate_matrix_iter(SearchSpace::AcfPaper).count(), 4);
    let sage = Sage::default();
    let spgemm = SageWorkload::spgemm(200, 200, 100, 2_000, 1_000, DataType::Fp32);
    assert_eq!(sage.recommend(&spgemm).candidates, 324);
    let spmm = SageWorkload::spmm(200, 200, 100, 2_000, DataType::Fp32);
    assert_eq!(sage.recommend(&spmm).candidates, 288);
}

/// The ISSUE acceptance bar, asserted end-to-end on a Table III
/// workload (m3plates, the hyper-sparse regime): the open-space beam
/// finds a plan whose simulated cycles beat **every** paper-preset MCF
/// choice, while visiting < 25% of what exhaustive enumeration would
/// score.
#[test]
fn open_beam_beats_every_paper_preset_on_m3plates_within_visit_budget() {
    let sage = Sage::default();
    // m3plates: 11000x11000, 6600 nnz (Table III), SpGEMM against a
    // rank-5500 factor.
    let w = SageWorkload::spgemm(11_000, 11_000, 5_500, 6_600, 3_300, DataType::Fp32);
    let preset_best = sparseflex_bench::search::preset_best_cycles(&sage, &w);
    let open = sage.recommend_open_with(
        &w,
        &BeamConfig {
            objective: SearchObjective::Cycles,
            ..BeamConfig::default()
        },
    );
    assert!(
        open.best.total_cycles() < preset_best,
        "open beam ({}) must beat every preset ({})",
        open.best.total_cycles(),
        preset_best
    );
    assert!(
        open.visited_fraction() < 0.25,
        "visited {}/{}",
        open.visited,
        open.exhaustive
    );
}
