//! SAGE's decisions pinned bit for bit: every Table II class search, the
//! free search, the Fig. 13 normalization and the structure-aware search
//! folded into one digest over a grid of workloads on three arrays.

use sparseflex::accel::taxonomy::AcceleratorClass;
use sparseflex::accel::AccelConfig;
use sparseflex::formats::{fnv1a, CooMatrix, DataType, SparseMatrix};
use sparseflex::sage::{Evaluation, Recommendation, Sage, SageKernel, SageWorkload};
use sparseflex::system::FlexSystem;
use sparseflex::workloads::synth::{banded_matrix, blocked_matrix, random_matrix};

/// Fold one evaluation: its choice, then the bits of every cost field.
fn pin_evaluation(e: &Evaluation, pinned: &mut Vec<u8>) {
    let Evaluation {
        choice,
        dram_cycles,
        dram_energy,
        conv_cycles,
        conv_energy,
        compute_cycles,
        compute_energy,
        utilization,
    } = e;
    pinned.extend_from_slice(format!("{choice:?}").as_bytes());
    for v in [
        dram_cycles,
        dram_energy,
        conv_cycles,
        conv_energy,
        compute_cycles,
        compute_energy,
        utilization,
    ] {
        pinned.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Fold a search result: whether it found anything, its best evaluation
/// and how many candidates it evaluated.
fn pin_recommendation(rec: Option<&Recommendation>, pinned: &mut Vec<u8>) {
    match rec {
        None => pinned.push(0),
        Some(rec) => {
            pinned.push(1);
            pin_evaluation(&rec.best, pinned);
            pinned.extend_from_slice(&(rec.candidates as u64).to_le_bytes());
        }
    }
}

/// A grid of SpMM and SpGEMM workloads: every shape over five extents
/// (zero included), each at one of six density pairs (zero and full
/// among them) in rotation, alternating Fp32 and Int8.
fn grid_workloads() -> Vec<SageWorkload> {
    let extents = [0usize, 3, 40, 257, 3_000];
    let densities = [
        (0.0, 0.0),
        (1.0, 1.0),
        (0.3, 0.01),
        (0.001, 0.5),
        (0.05, 0.05),
        (1.0, 0.0002),
    ];
    let mut out = Vec::new();
    let mut i = 0usize;
    for &m in &extents {
        for &k in &extents {
            for &n in &extents {
                let (da, db) = densities[i % densities.len()];
                let dtype = if i.is_multiple_of(2) {
                    DataType::Fp32
                } else {
                    DataType::Int8
                };
                let nnz = |cells: usize, d: f64| (cells as f64 * d).round() as u64;
                let nnz_a = nnz(m * k, da);
                out.push(SageWorkload::spmm(m, k, n, nnz_a, dtype));
                out.push(SageWorkload::spgemm(m, k, n, nnz_a, nnz(k * n, db), dtype));
                i += 1;
            }
        }
    }
    out
}

/// SAGE pinned end to end: one FNV-1a digest over its decisions on
/// the paper's array, the benchmark's 8 PEs of 64-slot buffers and the
/// Fig. 6 walkthrough array. Per grid workload it folds every Table II
/// class's search (best evaluation and candidate count), the free
/// search and the normalized-EDP row. Per array it folds the
/// structure-aware search on a banded, a blocked and a random operand,
/// for both kernels, and the fixed-MCF search on each operand's ranked
/// MCFs.
#[test]
fn search_decisions_are_pinned_bit_for_bit() {
    let mut bench = AccelConfig::paper();
    bench.num_pes = 8;
    bench.pe_buffer_elems = 64;
    let arrays = [AccelConfig::paper(), bench, AccelConfig::walkthrough()];
    let workloads = grid_workloads();
    let operands: [CooMatrix; 3] = [
        banded_matrix(96, 5, 1),
        blocked_matrix(96, 96, 8, 0.15, 2),
        random_matrix(96, 96, 700, 3),
    ];
    let b = random_matrix(96, 48, 900, 4);
    let suite = AcceleratorClass::table2_suite();

    let mut pinned = Vec::new();
    for accel in arrays {
        let sys = FlexSystem::new(Sage {
            accel,
            ..Sage::default()
        });
        for w in &workloads {
            for class in &suite {
                pinned.extend_from_slice(class.name.as_bytes());
                pin_recommendation(sys.sage.recommend_for_class(w, class).as_ref(), &mut pinned);
            }
            pin_recommendation(Some(&sys.sage.recommend(w)), &mut pinned);
            for (name, norm) in sys.normalized_edp(w) {
                pinned.extend_from_slice(name.as_bytes());
                pinned.extend_from_slice(&norm.map_or(u64::MAX, f64::to_bits).to_le_bytes());
            }
        }
        for a in &operands {
            let mut ranks = None;
            for kernel in [SageKernel::SpMm, SageKernel::SpGemm] {
                let (rec, rank_a, rank_b) =
                    sys.sage.recommend_structured(a, &b, kernel, DataType::Fp32);
                pin_recommendation(Some(&rec), &mut pinned);
                for c in rank_a.iter().chain(&rank_b) {
                    pinned.extend_from_slice(format!("{:?}", c.format).as_bytes());
                    pinned.extend_from_slice(&c.bits.to_le_bytes());
                }
                ranks = Some((rank_a, rank_b));
            }
            let (rank_a, rank_b) = ranks.expect("both kernels ranked the operands");
            let w = SageWorkload::spgemm(
                a.rows(),
                a.cols(),
                b.cols(),
                a.nnz() as u64,
                b.nnz() as u64,
                DataType::Fp32,
            );
            for c in &rank_a {
                let rec = sys
                    .sage
                    .recommend_with_fixed_mcf(&w, c.format, rank_b[0].format, None);
                pin_recommendation(Some(&rec), &mut pinned);
            }
        }
    }
    assert_eq!(
        fnv1a(&pinned),
        0x136e_5f73_e054_4f08,
        "a SAGE decision, cost field or candidate count moved"
    );
}
