//! Seeded input generation. The program under test only ever sees what
//! these functions return; the same seed gives byte-identical inputs.

use crate::util::Rng;
use sparseflex_core::FlexSystem;
use sparseflex_formats::{
    CooMatrix, CooTensor3, DataType, DenseMatrix, MatrixData, MatrixFormat, SparseMatrix,
    TensorData, TensorFormat,
};
use sparseflex_sage::SageWorkload;
use sparseflex_serve::{wire, Priority, WireJob};
use sparseflex_workloads::synth::{
    banded_matrix, blocked_matrix, random_dense_matrix, random_matrix, random_tensor3,
};

/// The system every workload runs on: the Fig. 6-class array the
/// repository's own serving and pipeline exhibits use, small enough that
/// modest operands span many stationary residencies.
pub fn bench_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

/// Wire formats the served frames mix.
pub const WIRE_FORMATS: [(&str, MatrixFormat); 6] = [
    ("csr", MatrixFormat::Csr),
    ("coo", MatrixFormat::Coo),
    ("csc", MatrixFormat::Csc),
    ("bsr2x2", MatrixFormat::Bsr { br: 2, bc: 2 }),
    ("zvc", MatrixFormat::Zvc),
    ("rlc4", MatrixFormat::Rlc { run_bits: 4 }),
];

/// Tenants and their fair-share weights.
pub const TENANTS: [(u32, u64); 3] = [(1, 1), (2, 2), (3, 4)];

/// One served SpGEMM job: its encoded frame, the operands it encodes,
/// and the software reference output.
#[derive(Debug, Clone)]
pub struct Frame {
    pub bytes: Vec<u8>,
    pub a: CooMatrix,
    pub b: CooMatrix,
    pub reference: DenseMatrix,
}

/// A shape: `(m, k, n, nnz_a, nnz_b)` — exactly the plan-cache key's
/// workload half.
pub type Shape = (usize, usize, usize, usize, usize);

fn frame(shape: Shape, index: usize, rng: &mut Rng) -> Frame {
    let (m, k, n, nnz_a, nnz_b) = shape;
    let a = random_matrix(m, k, nnz_a, rng.next_u64());
    let b = random_matrix(k, n, nnz_b, rng.next_u64());
    let (_, fa) = WIRE_FORMATS[index % WIRE_FORMATS.len()];
    let (_, fb) = WIRE_FORMATS[(index / WIRE_FORMATS.len() + 2 * index + 1) % WIRE_FORMATS.len()];
    let job = WireJob {
        tenant: TENANTS[index % TENANTS.len()].0,
        priority: match index % 5 {
            0 => Priority::High,
            4 => Priority::Low,
            _ => Priority::Normal,
        },
        dtype: DataType::Fp32,
        a: MatrixData::encode(&a, &fa).expect("generated operand encodes"),
        b: MatrixData::encode(&b, &fb).expect("generated operand encodes"),
    };
    Frame {
        bytes: wire::encode_job(&job).expect("generated job encodes"),
        reference: FlexSystem::reference_output(&a, &b),
        a,
        b,
    }
}

/// serve_hot's repeating shapes: six small SpGEMM shapes. Shapes and
/// nonzero counts are fixed and the seed draws positions and values, so
/// SAGE makes the same choices under every seed.
pub const HOT_SHAPES: [Shape; 6] = [
    (16, 20, 12, 80, 70),
    (24, 16, 20, 90, 95),
    (12, 28, 16, 70, 110),
    (20, 20, 20, 120, 120),
    (28, 12, 24, 100, 60),
    (16, 16, 28, 60, 85),
];

/// Frames per hot shape (different values, formats, tenants).
pub const HOT_FRAMES_PER_SHAPE: usize = 8;

/// serve_hot's frame pool: a few shapes, many frames per shape.
pub fn hot_pool(seed: u64) -> Vec<Frame> {
    let mut rng = Rng::new(seed);
    (0..HOT_SHAPES.len() * HOT_FRAMES_PER_SHAPE)
        .map(|i| frame(HOT_SHAPES[i % HOT_SHAPES.len()], i, &mut rng))
        .collect()
}

/// Base shapes `(m, k, n)` of the cache-miss frames the one-worker
/// determinism test drains, all with `m * k >= 720`.
#[cfg(test)]
pub const COLD_BASES: [(usize, usize, usize); 12] = [
    (24, 30, 20),
    (28, 28, 28),
    (32, 24, 16),
    (30, 30, 24),
    (36, 20, 32),
    (20, 36, 24),
    (26, 32, 20),
    (32, 32, 28),
    (36, 24, 16),
    (24, 36, 32),
    (30, 26, 24),
    (28, 34, 20),
];

/// `count` frames with pairwise distinct shapes: frame `i` is base
/// `i % bases.len()` with `nnz_a` moved from 35% density by a unique
/// offset (0, -1, +1, -2, ...). Every frame is therefore a new plan-cache
/// key, while the mix's cost stays the same under every seed.
#[cfg(test)]
pub fn cold_frames(seed: u64, bases: &[(usize, usize, usize)], count: usize) -> Vec<Frame> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|i| {
            let (m, k, n) = bases[i % bases.len()];
            let o = i / bases.len();
            let nnz_a = if o.is_multiple_of(2) {
                m * k * 35 / 100 + o / 2
            } else {
                (m * k * 35 / 100)
                    .checked_sub(o / 2 + 1)
                    .filter(|&x| x > 0)
                    .expect("cold shape count fits the base densities")
            };
            assert!(nnz_a <= m * k, "cold shape count fits the base densities");
            frame((m, k, n, nnz_a, k * n / 4), i, &mut rng)
        })
        .collect()
}

/// One pipeline_large job.
#[derive(Debug, Clone)]
pub struct PipelineJob {
    pub class: &'static str,
    pub a: CooMatrix,
    pub b: CooMatrix,
    pub workload: SageWorkload,
    pub reference: DenseMatrix,
}

/// pipeline_large's density classes: `(class, m, k, n, density_a,
/// density_b)`. journals-like dense-ish, speech2-like moderate and
/// m3plates-like hypersparse and wide. `n / num_pes` sets the stationary
/// tile count (16 to 128 on the bench system). Shapes and nonzero counts
/// are fixed and the seed draws positions and values, so SAGE's choices —
/// which depend on the shape statistics only — do not change with it.
pub const PIPELINE_CLASSES: [(&str, usize, usize, usize, f64, f64); 6] = [
    ("journals", 32, 96, 128, 0.785, 0.4),
    ("journals", 32, 96, 192, 0.6, 0.785),
    ("speech2", 128, 128, 512, 0.05, 0.05),
    ("speech2", 96, 256, 384, 0.05, 0.03),
    ("m3plates", 256, 1024, 1024, 0.002, 0.001),
    ("m3plates", 384, 1024, 768, 0.001, 0.002),
];

pub fn pipeline_jobs(seed: u64) -> Vec<PipelineJob> {
    let mut rng = Rng::new(seed);
    PIPELINE_CLASSES
        .iter()
        .map(|&(class, m, k, n, da, db)| {
            let nnz_a = ((m * k) as f64 * da) as usize;
            let nnz_b = ((k * n) as f64 * db) as usize;
            let a = random_matrix(m, k, nnz_a, rng.next_u64());
            let b = random_matrix(k, n, nnz_b, rng.next_u64());
            let workload =
                SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
            PipelineJob {
                class,
                reference: FlexSystem::reference_output(&a, &b),
                a,
                b,
                workload,
            }
        })
        .collect()
}

/// Every matrix format the kernel workload covers.
pub const MATRIX_FORMATS: [(&str, MatrixFormat); 9] = [
    ("dense", MatrixFormat::Dense),
    ("coo", MatrixFormat::Coo),
    ("csr", MatrixFormat::Csr),
    ("csc", MatrixFormat::Csc),
    ("bsr2x2", MatrixFormat::Bsr { br: 2, bc: 2 }),
    ("dia", MatrixFormat::Dia),
    ("ell", MatrixFormat::Ell),
    ("rlc4", MatrixFormat::Rlc { run_bits: 4 }),
    ("zvc", MatrixFormat::Zvc),
];

/// Every tensor format the kernel workload covers.
pub const TENSOR_FORMATS: [(&str, TensorFormat); 6] = [
    ("dense", TensorFormat::Dense),
    ("coo", TensorFormat::Coo),
    ("csf", TensorFormat::Csf),
    ("hicoo2", TensorFormat::HiCoo { block: 2 }),
    ("rlc4", TensorFormat::Rlc { run_bits: 4 }),
    ("zvc", TensorFormat::Zvc),
];

/// Operands for one matrix format: `a` (m x k) and `b` (k x k) sparse in
/// the format, plus the dense SpMM operand; COO hubs kept for references.
pub struct MatrixOperands {
    pub label: &'static str,
    pub a: MatrixData,
    pub b: MatrixData,
    pub a_coo: CooMatrix,
    pub b_coo: CooMatrix,
    pub dense: DenseMatrix,
}

/// Operands for one tensor format plus the factor matrices.
pub struct TensorOperands {
    pub t: TensorData,
    pub t_coo: CooTensor3,
    pub fb: DenseMatrix,
    pub fc: DenseMatrix,
    pub ttm: DenseMatrix,
}

/// Dense-operand width for SpMM.
pub const SPMM_COLS: usize = 128;
/// MTTKRP rank and SpTTM output width.
pub const TENSOR_RANK: usize = 64;

/// Matrix operands that suit each format: banded for DIA, 2x2-blocked
/// for BSR, a smaller dense-ish matrix for the dense layout, uniform
/// random for the rest. Sizes put every sequential call at >= 1 ms.
pub fn matrix_operands(seed: u64) -> Vec<MatrixOperands> {
    let mut rng = Rng::new(seed);
    MATRIX_FORMATS
        .iter()
        .map(|&(label, fmt)| {
            let (a, b) = match label {
                "dia" => (
                    banded_matrix(1536, 15, rng.next_u64()),
                    banded_matrix(1536, 15, rng.next_u64()),
                ),
                "bsr2x2" => (
                    blocked_matrix(768, 768, 2, 0.02, rng.next_u64()),
                    blocked_matrix(768, 768, 2, 0.02, rng.next_u64()),
                ),
                "dense" => (
                    random_matrix(192, 192, 7_000, rng.next_u64()),
                    random_matrix(192, 192, 7_000, rng.next_u64()),
                ),
                _ => (
                    random_matrix(1024, 1024, 12_000, rng.next_u64()),
                    random_matrix(1024, 1024, 12_000, rng.next_u64()),
                ),
            };
            let dense = random_dense_matrix(a.cols(), SPMM_COLS, rng.next_u64());
            MatrixOperands {
                label,
                a: MatrixData::encode(&a, &fmt).expect("generated operand encodes"),
                b: MatrixData::encode(&b, &fmt).expect("generated operand encodes"),
                a_coo: a,
                b_coo: b,
                dense,
            }
        })
        .collect()
}

pub fn tensor_operands(seed: u64) -> Vec<TensorOperands> {
    let mut rng = Rng::new(seed);
    TENSOR_FORMATS
        .iter()
        .map(|&(label, fmt)| {
            let (dx, dy, dz, nnz) = if label == "dense" {
                (44, 44, 44, 16_000)
            } else {
                (96, 96, 96, 30_000)
            };
            let t = random_tensor3(dx, dy, dz, nnz, rng.next_u64());
            TensorOperands {
                t: TensorData::encode(&t, &fmt).expect("generated tensor encodes"),
                t_coo: t,
                fb: random_dense_matrix(dy, TENSOR_RANK, rng.next_u64()),
                fc: random_dense_matrix(dz, TENSOR_RANK, rng.next_u64()),
                ttm: random_dense_matrix(dz, TENSOR_RANK, rng.next_u64()),
            }
        })
        .collect()
}
