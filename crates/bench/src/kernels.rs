//! Streaming-kernel exhibit — the measured stream-vs-fast-path overhead
//! and the zero-alloc steady-state evidence for the arena-backed
//! traversals.
//!
//! Three measurement families, all on pinned-seed synthetic operands so
//! the exhibit is reproducible run to run:
//!
//! - **Allocation points** — per compression format, heap allocations
//!   during the *warm-up* traversal (the arena growing to the format's
//!   high-water mark) vs the *steady-state* traversal (same arena,
//!   second pass). The tentpole claim is steady = 0 for every format
//!   that needs scratch (CSC/BSR/ELL/DIA/RLC/ZVC), which
//!   [`enforce`] gates. Counts read 0 unless the measuring binary
//!   installs [`crate::allocs::CountingAllocator`]; `counting_installed`
//!   records which case the snapshot was taken under.
//! - **Overhead points** — median wall-clock of the format-generic
//!   stream path over the tuned CSR SpMV row loop for the same operand,
//!   gated against `STREAM_OVERHEAD_BUDGET`. (SpMM has no fast path
//!   left to compare against.) ZVC rows ride along uninspected: they
//!   price running a hub-only format directly against the CSR kernel,
//!   not wrapper overhead.
//! - **SpGEMM dataflow points** — Gustavson vs row-wise wall-clock on a
//!   moderate and a hyper-sparse/wide operand pair, plus which dataflow
//!   [`sparseflex_sage::choose_spgemm_algo`] picks for each. Untimed
//!   correctness (bit-identical outputs) is asserted during measurement.

use crate::allocs;
use sparseflex_formats::{CsrMatrix, DenseMatrix, MatrixData, MatrixFormat, StreamArena};
use sparseflex_kernels::{spgemm, spgemm_with, spmm, spmv, spmv_via_stream, SpgemmAlgo};
use sparseflex_sage::choose_spgemm_algo;
use sparseflex_sage::SageWorkload;
use std::time::Instant;

/// Operand side for the exhibit matrices.
const N: usize = 256;
/// Dense-operand width (SpMM B columns).
const DENSE_COLS: usize = 32;
/// Nonzeros in the sparse operands (~1.5% dense).
const NNZ: usize = 1_000;
/// Timing repetitions (median taken).
const REPS: usize = 9;

/// Steady-state traversal allocations allowed per format: none. The
/// arena's warm-up pass grows every buffer to its high-water mark; after
/// that the stream must not touch the heap.
const STEADY_ALLOC_BUDGET: u64 = 0;

/// Maximum allowed `stream_ns / fast_ns` ratio for the gated kernels.
/// Locally the CSR stream path measures within ~1.3x of the tuned row
/// loop (same inner routines, one dispatch layer); 3x leaves generous
/// headroom for noisy shared CI runners while still catching a
/// regression that re-introduces per-fiber allocation or copying.
const STREAM_OVERHEAD_BUDGET: f64 = 3.0;

/// Heap-allocation counts for one format's arena-backed traversal.
#[derive(Debug, Clone)]
pub struct AllocPoint {
    /// Format label.
    pub format: String,
    /// Allocations during the first (arena-warming) traversal.
    pub warmup_allocs: u64,
    /// Allocations during the second traversal over the same arena.
    pub steady_allocs: u64,
    /// Whether [`enforce`] holds this point to `STEADY_ALLOC_BUDGET`.
    pub gated: bool,
}

/// Fast-path vs stream-path wall-clock for one kernel.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Kernel + operand label.
    pub kernel: &'static str,
    /// Median ns of the tuned fast path.
    pub fast_ns: u64,
    /// Median ns of the format-generic stream path.
    pub stream_ns: u64,
    /// Whether [`enforce`] holds this ratio to `STREAM_OVERHEAD_BUDGET`.
    pub gated: bool,
}

impl OverheadPoint {
    /// Stream-over-fast wall-clock ratio.
    pub fn ratio(&self) -> f64 {
        self.stream_ns as f64 / self.fast_ns.max(1) as f64
    }
}

/// Gustavson vs row-wise wall-clock for one operand pair.
#[derive(Debug, Clone)]
pub struct SpgemmPoint {
    /// Operand-pair label.
    pub name: &'static str,
    /// Median ns of Gustavson.
    pub gustavson_ns: u64,
    /// Median ns of the row-wise merge product.
    pub rowwise_ns: u64,
    /// Which dataflow SAGE's pricing picks for this shape.
    pub sage_choice: SpgemmAlgo,
}

/// One full measurement of the exhibit.
#[derive(Debug, Clone)]
pub struct KernelsMeasurement {
    /// Per-format traversal allocation counts.
    pub alloc_points: Vec<AllocPoint>,
    /// Fast-vs-stream wall-clock points.
    pub overhead_points: Vec<OverheadPoint>,
    /// SpGEMM dataflow wall-clock points.
    pub spgemm_points: Vec<SpgemmPoint>,
    /// Whether a counting allocator was installed when measuring (alloc
    /// counts are all 0 otherwise and the alloc gate is vacuous).
    pub counting_installed: bool,
}

/// A gate violation found by [`enforce`].
#[derive(Debug, Clone)]
pub struct Violation(pub String);

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time `f` [`REPS`] times (after one untimed warm-up call) and return
/// the median duration in nanoseconds.
fn time_median<R>(mut f: impl FnMut() -> R) -> u64 {
    std::hint::black_box(f());
    let samples = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median_ns(samples)
}

/// The formats whose arena-backed traversal the exhibit counts. All are
/// gated except the zero-copy ones (kept as evidence they stay at 0 on
/// both passes for free).
fn alloc_formats() -> Vec<(String, MatrixFormat, bool)> {
    vec![
        ("csr".into(), MatrixFormat::Csr, false),
        ("coo".into(), MatrixFormat::Coo, false),
        ("csc".into(), MatrixFormat::Csc, true),
        ("bsr2x2".into(), MatrixFormat::Bsr { br: 2, bc: 2 }, true),
        ("ell".into(), MatrixFormat::Ell, true),
        ("dia".into(), MatrixFormat::Dia, true),
        ("rlc4".into(), MatrixFormat::Rlc { run_bits: 4 }, true),
        ("zvc".into(), MatrixFormat::Zvc, true),
    ]
}

fn exhibit_coo(seed: u64) -> sparseflex_formats::CooMatrix {
    sparseflex_workloads::synth::random_matrix(N, N, NNZ, seed)
}

/// Fold a traversal into a checksum so the stream cannot be optimized
/// away; allocation-free by construction.
fn traverse_checksum(data: &MatrixData, arena: &mut StreamArena) -> f64 {
    let mut checksum = 0.0f64;
    data.row_stream()
        .for_each_fiber_in(arena, &mut |r, cols, vals| {
            checksum += (r + cols.len()) as f64;
            for &v in vals {
                checksum += v;
            }
        });
    checksum
}

/// Measure the per-format allocation points.
fn measure_allocs() -> Vec<AllocPoint> {
    let coo = exhibit_coo(11);
    let mut out = Vec::new();
    for (label, fmt, gated) in alloc_formats() {
        let data = MatrixData::encode(&coo, &fmt).expect("exhibit operand encodes");
        let mut arena = StreamArena::new();
        let (warmup_allocs, w) = allocs::count_allocs(|| traverse_checksum(&data, &mut arena));
        let (steady_allocs, s) = allocs::count_allocs(|| traverse_checksum(&data, &mut arena));
        assert_eq!(w, s, "{label}: warm and steady traversals must agree");
        std::hint::black_box(s);
        out.push(AllocPoint {
            format: label,
            warmup_allocs,
            steady_allocs,
            gated,
        });
    }
    // The CSR-materialization consumer: after one warm-up
    // build-and-recycle cycle, rebuilding a CSR from the stream reuses
    // the recycled triple and the arena scratch — zero allocations.
    let csc = MatrixData::encode(&coo, &MatrixFormat::Csc).expect("CSC encodes");
    let mut arena = StreamArena::new();
    let warm = sparseflex_formats::csr_from_stream_in(&mut arena, csc.row_stream());
    arena.recycle_csr(warm);
    let (warmup_allocs, c) = allocs::count_allocs(|| {
        let c = sparseflex_formats::csr_from_stream_in(&mut arena, csc.row_stream());
        arena.recycle_csr(c);
    });
    let (steady_allocs, _) = allocs::count_allocs(|| {
        let c = sparseflex_formats::csr_from_stream_in(&mut arena, csc.row_stream());
        arena.recycle_csr(c);
    });
    std::hint::black_box(c);
    out.push(AllocPoint {
        format: "csr_from_stream+recycle".into(),
        warmup_allocs,
        steady_allocs,
        gated: true,
    });
    out
}

/// Measure the fast-vs-stream overhead points.
fn measure_overhead() -> Vec<OverheadPoint> {
    let coo = exhibit_coo(13);
    let a_csr = MatrixData::Csr(CsrMatrix::from_coo(&coo));
    let a_zvc = MatrixData::encode(&coo, &MatrixFormat::Zvc).expect("ZVC encodes");
    let x: Vec<f64> = (0..N).map(|i| (i % 13) as f64 - 6.0).collect();
    let b: DenseMatrix = sparseflex_workloads::synth::random_dense_matrix(N, DENSE_COLS, 17);

    let fast = time_median(|| spmv(&a_csr, &x).expect("shapes agree"));
    let stream = time_median(|| spmv_via_stream(&a_csr, &x).expect("shapes agree"));
    let zvc = time_median(|| spmv(&a_zvc, &x).expect("shapes agree"));
    let spmm_csr = time_median(|| spmm(&a_csr, &b).expect("shapes agree"));
    let spmm_zvc = time_median(|| spmm(&a_zvc, &b).expect("shapes agree"));
    vec![
        OverheadPoint {
            kernel: "spmv_csr",
            fast_ns: fast,
            stream_ns: stream,
            gated: true,
        },
        OverheadPoint {
            kernel: "spmv_zvc_vs_csr_fast",
            fast_ns: fast,
            stream_ns: zvc,
            gated: false,
        },
        OverheadPoint {
            kernel: "spmm_zvc_vs_csr",
            fast_ns: spmm_csr,
            stream_ns: spmm_zvc,
            gated: false,
        },
    ]
}

/// The SpGEMM dataflow points' shapes: (name, m, k, n, nnz_a, nnz_b,
/// seed).
const SPGEMM_SHAPES: [(&str, usize, usize, usize, usize, usize, u64); 2] = [
    ("moderate_256", N, N, N, 10_000, 10_000, 19),
    ("hypersparse_wide", 512, 512, 8_192, 1_500, 24_000, 23),
];

/// The workload SAGE prices for one SpGEMM dataflow point.
fn spgemm_workload(m: usize, k: usize, n: usize, nnz_a: usize, nnz_b: usize) -> SageWorkload {
    SageWorkload::spgemm(
        m,
        k,
        n,
        nnz_a as u64,
        nnz_b as u64,
        sparseflex_formats::DataType::Fp32,
    )
}

/// Measure the SpGEMM dataflow points (and assert bit-identity while
/// the operands are at hand).
fn measure_spgemm() -> Vec<SpgemmPoint> {
    SPGEMM_SHAPES
        .iter()
        .map(|&(name, m, k, n, nnz_a, nnz_b, seed)| {
            let a = MatrixData::Csr(CsrMatrix::from_coo(
                &sparseflex_workloads::synth::random_matrix(m, k, nnz_a, seed),
            ));
            let b = MatrixData::Csr(CsrMatrix::from_coo(
                &sparseflex_workloads::synth::random_matrix(k, n, nnz_b, seed + 1),
            ));
            let g = spgemm(&a, &b).expect("shapes agree");
            let r = spgemm_with(&a, &b, SpgemmAlgo::RowWise).expect("shapes agree");
            assert_eq!(g, r, "{name}: dataflows must be bit-identical");
            SpgemmPoint {
                name,
                gustavson_ns: time_median(|| spgemm(&a, &b).expect("shapes agree")),
                rowwise_ns: time_median(|| {
                    spgemm_with(&a, &b, SpgemmAlgo::RowWise).expect("shapes agree")
                }),
                sage_choice: choose_spgemm_algo(&spgemm_workload(m, k, n, nnz_a, nnz_b)),
            }
        })
        .collect()
}

/// Measure the whole exhibit once.
pub fn measure() -> KernelsMeasurement {
    KernelsMeasurement {
        alloc_points: measure_allocs(),
        overhead_points: measure_overhead(),
        spgemm_points: measure_spgemm(),
        counting_installed: allocs::probe_installed(),
    }
}

/// Apply the committed budgets to a measurement; empty = gate passes.
///
/// The allocation gate only binds when the measuring process installed
/// the counting allocator (otherwise every count reads 0 and the check
/// is vacuous — `kernels_gate` refuses to run in that state).
pub fn enforce(m: &KernelsMeasurement) -> Vec<Violation> {
    let mut v = Vec::new();
    if m.counting_installed {
        for p in &m.alloc_points {
            if p.gated && p.steady_allocs > STEADY_ALLOC_BUDGET {
                v.push(Violation(format!(
                    "{}: {} steady-state allocations (budget {})",
                    p.format, p.steady_allocs, STEADY_ALLOC_BUDGET
                )));
            }
        }
    }
    for p in &m.overhead_points {
        if p.gated && p.ratio() > STREAM_OVERHEAD_BUDGET {
            v.push(Violation(format!(
                "{}: stream/fast ratio {:.2} (budget {:.2}; fast {} ns, stream {} ns)",
                p.kernel,
                p.ratio(),
                STREAM_OVERHEAD_BUDGET,
                p.fast_ns,
                p.stream_ns
            )));
        }
    }
    v
}

/// CSV rows (the `results/kernels.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement's host-independent part as the CSV exhibit: the
/// allocation counts and SAGE's dataflow choice per SpGEMM shape. The
/// wall-clock rows are [`measured_rows_from`]'s.
pub fn rows_from(m: &KernelsMeasurement) -> Vec<String> {
    let mut out = vec![
        format!(
            "# arena-backed traversal allocations (counting allocator installed: {})",
            m.counting_installed
        ),
        "format,warmup_allocs,steady_allocs,gated".to_string(),
    ];
    for p in &m.alloc_points {
        out.push(format!(
            "{},{},{},{}",
            p.format, p.warmup_allocs, p.steady_allocs, p.gated
        ));
    }
    out.push(String::new());
    out.push("# spgemm dataflow SAGE's pricing picks".to_string());
    out.push("workload,sage_choice".to_string());
    for p in &m.spgemm_points {
        out.push(format!("{},{:?}", p.name, p.sage_choice));
    }
    out
}

/// Render a measurement's wall-clock part as CSV
/// (`results/kernels_measured.csv`): the stream-vs-fast-path overhead
/// and the two SpGEMM dataflows' times.
pub fn measured_rows_from(m: &KernelsMeasurement) -> Vec<String> {
    let mut out = vec![
        "# stream path vs fast path (median ns)".to_string(),
        "kernel,fast_ns,stream_ns,ratio,gated".to_string(),
    ];
    for p in &m.overhead_points {
        out.push(format!(
            "{},{},{},{:.3},{}",
            p.kernel,
            p.fast_ns,
            p.stream_ns,
            p.ratio(),
            p.gated
        ));
    }
    out.push(String::new());
    out.push("# spgemm dataflows (median ns)".to_string());
    out.push("workload,gustavson_ns,rowwise_ns".to_string());
    for p in &m.spgemm_points {
        out.push(format!("{},{},{}", p.name, p.gustavson_ns, p.rowwise_ns));
    }
    out
}

/// The machine-readable perf snapshot (`results/BENCH_kernels.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &KernelsMeasurement) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"counting_installed\": {},\n  \"steady_alloc_budget\": {},\n  \
         \"stream_overhead_budget\": {:.2},\n",
        m.counting_installed, STEADY_ALLOC_BUDGET, STREAM_OVERHEAD_BUDGET
    ));
    json.push_str("  \"alloc_points\": [\n");
    for (i, p) in m.alloc_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"format\": \"{}\", \"warmup_allocs\": {}, \"steady_allocs\": {}, \
             \"gated\": {}}}{}\n",
            p.format,
            p.warmup_allocs,
            p.steady_allocs,
            p.gated,
            if i + 1 < m.alloc_points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n  \"overhead_points\": [\n");
    for (i, p) in m.overhead_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"fast_ns\": {}, \"stream_ns\": {}, \
             \"ratio\": {:.4}, \"gated\": {}}}{}\n",
            p.kernel,
            p.fast_ns,
            p.stream_ns,
            p.ratio(),
            p.gated,
            if i + 1 < m.overhead_points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n  \"spgemm_points\": [\n");
    for (i, p) in m.spgemm_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"gustavson_ns\": {}, \"rowwise_ns\": {}, \
             \"sage_choice\": \"{:?}\"}}{}\n",
            p.name,
            p.gustavson_ns,
            p.rowwise_ns,
            p.sage_choice,
            if i + 1 < m.spgemm_points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ]\n}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhibit_measures_and_renders() {
        let m = measure();
        assert_eq!(m.alloc_points.len(), alloc_formats().len() + 1);
        assert!(m.overhead_points.iter().any(|p| p.kernel == "spmv_csr"));
        assert_eq!(m.spgemm_points.len(), 2);
        // The test harness installs no counting allocator, so every
        // count must read 0 and the snapshot must say so.
        assert!(!m.counting_installed);
        for p in &m.alloc_points {
            assert_eq!(p.warmup_allocs, 0, "{}", p.format);
            assert_eq!(p.steady_allocs, 0, "{}", p.format);
        }
        let json = json_from(&m);
        assert!(json.contains("\"counting_installed\": false"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let rows = rows_from(&m);
        assert!(rows.iter().any(|r| r.starts_with("csc,")));
        assert!(rows.iter().any(|r| r == "moderate_256,Gustavson"));
        let measured = measured_rows_from(&m);
        assert!(measured.iter().any(|r| r.starts_with("spmv_csr,")));
        assert!(measured.iter().any(|r| r.starts_with("hypersparse_wide,")));
    }

    #[test]
    fn sage_prices_the_exhibit_shapes_apart() {
        let choices: Vec<_> = SPGEMM_SHAPES
            .iter()
            .map(|&(name, m, k, n, nnz_a, nnz_b, _)| {
                (
                    name,
                    choose_spgemm_algo(&spgemm_workload(m, k, n, nnz_a, nnz_b)),
                )
            })
            .collect();
        assert_eq!(
            choices,
            [
                ("moderate_256", SpgemmAlgo::Gustavson),
                ("hypersparse_wide", SpgemmAlgo::RowWise),
            ]
        );
    }

    #[test]
    fn enforce_flags_synthetic_violations() {
        let m = KernelsMeasurement {
            alloc_points: vec![AllocPoint {
                format: "fake".into(),
                warmup_allocs: 9,
                steady_allocs: 3,
                gated: true,
            }],
            overhead_points: vec![OverheadPoint {
                kernel: "fake_kernel",
                fast_ns: 100,
                stream_ns: 100_000,
                gated: true,
            }],
            spgemm_points: vec![],
            counting_installed: true,
        };
        let v = enforce(&m);
        assert_eq!(v.len(), 2);
        assert!(v[0].0.contains("fake"));
        assert!(v[1].0.contains("ratio"));
    }
}
