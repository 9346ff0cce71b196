//! Parallel-streaming exhibit — wall-clock and correctness evidence for
//! the two-phase (partition → ranged traversal) data-parallel kernels.
//!
//! Three measurement families, all on pinned-seed synthetic operands:
//!
//! - **Kernel points** — per compression format, median wall-clock of
//!   the sequential stream kernel vs its parallel twin at forced worker
//!   counts ([`WORKER_COUNTS`], via
//!   [`sparseflex_kernels::parallel::with_workers`]), for SpMM and
//!   Gustavson SpGEMM over every matrix format and MTTKRP and SpTTM over
//!   every tensor format. Alongside each timing the outputs are compared
//!   **bit-for-bit**; `bitwise_equal` must hold for every point and is
//!   the property `kernels_gate` prices — never the speedup, which on a
//!   single-core CI runner is physically capped at 1.0 (the snapshot
//!   records `cores` so readers can interpret the ratios honestly).
//! - **Ranged-allocation points** — per format, heap allocations during
//!   a repeat ranged traversal over warm per-range arenas (the worker
//!   loop simulated serially so thread-spawn bookkeeping cannot pollute
//!   the count). The budget is zero, exactly like the full-stream gate
//!   in [`crate::kernels`].
//! - **Partition stats** — per format, how evenly `row_partition`
//!   spreads nonzeros at the largest forced worker count (max/ideal
//!   band ratio), documenting phase 1's load balance.

use crate::allocs;
use sparseflex_formats::{
    CooMatrix, CooTensor3, MatrixData, MatrixFormat, StreamArena, TensorData, TensorFormat,
};
use sparseflex_kernels::parallel::with_workers;
use sparseflex_kernels::{
    mttkrp_parallel, mttkrp_via_stream, spgemm_parallel_with, spgemm_with, spmm, spmm_parallel,
    spttm, spttm_parallel, SpgemmAlgo,
};
use std::time::Instant;

/// Operand side for the exhibit matrices.
const N: usize = 192;
/// Dense-operand width (SpMM B columns / MTTKRP and SpTTM rank).
const DENSE_COLS: usize = 24;
/// Nonzeros in the sparse matrix operands (~2% dense).
const NNZ: usize = 760;
/// Tensor dims and nonzeros.
const TDIMS: (usize, usize, usize) = (48, 24, 32);
const TNNZ: usize = 900;
/// Timing repetitions (median taken).
const REPS: usize = 7;

/// Forced worker counts the exhibit sweeps.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Steady-state ranged-traversal allocations allowed per format: none.
pub const RANGED_ALLOC_BUDGET: u64 = 0;

/// Sequential-vs-parallel wall-clock for one kernel × format.
#[derive(Debug, Clone)]
pub struct ParallelPoint {
    /// Kernel label (`spmm`, `spgemm`, `mttkrp`, `spttm`).
    pub kernel: &'static str,
    /// Format label.
    pub format: String,
    /// Median ns of the sequential stream kernel.
    pub seq_ns: u64,
    /// Median ns of the parallel twin at each of [`WORKER_COUNTS`].
    pub par_ns: [u64; 4],
    /// Whether every parallel output equalled the sequential output
    /// bit-for-bit at every worker count.
    pub bitwise_equal: bool,
}

impl ParallelPoint {
    /// Sequential-over-parallel speedup at each forced worker count
    /// (>1.0 means the parallel path was faster).
    pub fn speedups(&self) -> [f64; 4] {
        self.par_ns.map(|p| self.seq_ns as f64 / p.max(1) as f64)
    }
}

/// Heap-allocation count for one format's warm ranged traversal.
#[derive(Debug, Clone)]
pub struct RangedAllocPoint {
    /// Format label.
    pub format: String,
    /// Allocations on a repeat ranged pass over warm per-range arenas.
    pub steady_allocs: u64,
}

/// Load-balance figure for one format's phase-1 partition.
#[derive(Debug, Clone)]
pub struct BalancePoint {
    /// Format label.
    pub format: String,
    /// Ranges produced at the widest forced worker count.
    pub ranges: usize,
    /// Largest band nnz over the ideal equal share (1.0 = perfect).
    pub max_over_ideal: f64,
}

/// One full measurement of the exhibit.
#[derive(Debug, Clone)]
pub struct ParallelMeasurement {
    /// Sequential-vs-parallel kernel points.
    pub kernel_points: Vec<ParallelPoint>,
    /// Warm ranged-traversal allocation counts.
    pub ranged_allocs: Vec<RangedAllocPoint>,
    /// Phase-1 load-balance stats.
    pub balance_points: Vec<BalancePoint>,
    /// Hardware threads visible to the measuring process — the honest
    /// ceiling on any speedup in this snapshot.
    pub cores: usize,
    /// Whether a counting allocator was installed when measuring.
    pub counting_installed: bool,
}

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

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

/// Every matrix format the exhibit sweeps.
fn matrix_formats() -> Vec<(String, MatrixFormat)> {
    vec![
        ("dense".into(), MatrixFormat::Dense),
        ("coo".into(), MatrixFormat::Coo),
        ("csr".into(), MatrixFormat::Csr),
        ("csc".into(), MatrixFormat::Csc),
        ("bsr2x2".into(), MatrixFormat::Bsr { br: 2, bc: 2 }),
        ("dia".into(), MatrixFormat::Dia),
        ("ell".into(), MatrixFormat::Ell),
        ("rlc4".into(), MatrixFormat::Rlc { run_bits: 4 }),
        ("zvc".into(), MatrixFormat::Zvc),
    ]
}

/// Every tensor format the exhibit sweeps.
fn tensor_formats() -> Vec<(String, TensorFormat)> {
    vec![
        ("dense".into(), TensorFormat::Dense),
        ("coo".into(), TensorFormat::Coo),
        ("csf".into(), TensorFormat::Csf),
        ("hicoo2".into(), TensorFormat::HiCoo { block: 2 }),
        ("rlc4".into(), TensorFormat::Rlc { run_bits: 4 }),
        ("zvc".into(), TensorFormat::Zvc),
    ]
}

fn exhibit_matrix(seed: u64) -> CooMatrix {
    sparseflex_workloads::synth::random_matrix(N, N, NNZ, seed)
}

fn exhibit_tensor(seed: u64) -> CooTensor3 {
    let (dx, dy, dz) = TDIMS;
    sparseflex_workloads::synth::random_tensor3(dx, dy, dz, TNNZ, seed)
}

/// Time the sequential kernel `seq` and its parallel twin `par` at every
/// forced worker count, checking bit-for-bit equality at each.
fn kernel_point<T: PartialEq>(
    kernel: &'static str,
    format: &str,
    seq: impl Fn() -> T,
    par: impl Fn() -> T,
) -> ParallelPoint {
    let expect = seq();
    let seq_ns = time_median(&seq);
    let mut bitwise_equal = true;
    let mut par_ns = [0u64; 4];
    for (slot, &w) in WORKER_COUNTS.iter().enumerate() {
        with_workers(w, || {
            bitwise_equal &= par() == expect;
            par_ns[slot] = time_median(&par);
        });
    }
    ParallelPoint {
        kernel,
        format: format.to_string(),
        seq_ns,
        par_ns,
        bitwise_equal,
    }
}

/// Measure the sequential-vs-parallel kernel points.
pub fn measure_kernels() -> Vec<ParallelPoint> {
    let a = exhibit_matrix(29);
    let bs = exhibit_matrix(31);
    let bd = sparseflex_workloads::synth::random_dense_matrix(N, DENSE_COLS, 37);
    let t = exhibit_tensor(41);
    let (_, dy, dz) = TDIMS;
    let fb = sparseflex_workloads::synth::random_dense_matrix(dy, DENSE_COLS, 43);
    let fc = sparseflex_workloads::synth::random_dense_matrix(dz, DENSE_COLS, 47);
    let gus = SpgemmAlgo::Gustavson;
    let mut out = Vec::new();
    for (label, fmt) in matrix_formats() {
        let da = MatrixData::encode(&a, &fmt).expect("exhibit operand encodes");
        let db = MatrixData::encode(&bs, &fmt).expect("exhibit operand encodes");
        out.push(kernel_point(
            "spmm",
            &label,
            || spmm(&da, &bd).expect("shapes agree"),
            || spmm_parallel(&da, &bd).expect("shapes agree"),
        ));
        out.push(kernel_point(
            "spgemm",
            &label,
            || spgemm_with(&da, &db, gus).expect("shapes agree"),
            || spgemm_parallel_with(&da, &db, gus).expect("shapes agree"),
        ));
    }
    for (label, fmt) in tensor_formats() {
        let dt = TensorData::encode(&t, &fmt).expect("exhibit tensor encodes");
        out.push(kernel_point(
            "mttkrp",
            &label,
            || mttkrp_via_stream(&dt, &fb, &fc).expect("shapes agree"),
            || mttkrp_parallel(&dt, &fb, &fc).expect("shapes agree"),
        ));
        out.push(kernel_point(
            "spttm",
            &label,
            || spttm(&dt, &fc).expect("shapes agree"),
            || spttm_parallel(&dt, &fc).expect("shapes agree"),
        ));
    }
    out
}

/// Allocation-free ranged fold.
fn ranged_checksum(
    data: &MatrixData,
    range: std::ops::Range<usize>,
    arena: &mut StreamArena,
) -> f64 {
    let mut checksum = 0.0f64;
    data.row_stream()
        .for_each_fiber_range_in(range, arena, &mut |r, cols, vals| {
            checksum += (r + cols.len()) as f64;
            for &v in vals {
                checksum += v;
            }
        });
    checksum
}

/// Measure the warm ranged-traversal allocation points (worker loop
/// simulated serially; each range keeps its own warm arena, exactly the
/// per-worker lifecycle the parallel kernels run).
pub fn measure_ranged_allocs() -> Vec<RangedAllocPoint> {
    let coo = exhibit_matrix(53);
    let parts = *WORKER_COUNTS.last().expect("non-empty sweep");
    let mut out = Vec::new();
    for (label, fmt) in matrix_formats() {
        let data = MatrixData::encode(&coo, &fmt).expect("exhibit operand encodes");
        let ranges = data.row_stream().row_partition(parts);
        let mut arenas: Vec<StreamArena> = ranges.iter().map(|_| StreamArena::new()).collect();
        let mut steady = 0u64;
        for (range, arena) in ranges.iter().zip(arenas.iter_mut()) {
            let warm = ranged_checksum(&data, range.clone(), arena);
            let (n, s) = allocs::count_allocs(|| ranged_checksum(&data, range.clone(), arena));
            assert_eq!(warm, s, "{label}: warm and steady ranged passes must agree");
            steady += n;
        }
        out.push(RangedAllocPoint {
            format: label,
            steady_allocs: steady,
        });
    }
    out
}

/// Measure phase-1 load balance at the widest forced worker count.
pub fn measure_balance() -> Vec<BalancePoint> {
    let coo = exhibit_matrix(59);
    let parts = *WORKER_COUNTS.last().expect("non-empty sweep");
    let mut out = Vec::new();
    for (label, fmt) in matrix_formats() {
        let data = MatrixData::encode(&coo, &fmt).expect("exhibit operand encodes");
        let ranges = data.row_stream().row_partition(parts);
        let mut arena = StreamArena::new();
        let mut band_nnz = vec![0usize; ranges.len()];
        let mut total = 0usize;
        for (i, range) in ranges.iter().enumerate() {
            data.row_stream().for_each_fiber_range_in(
                range.clone(),
                &mut arena,
                &mut |_, cols, _| {
                    band_nnz[i] += cols.len();
                },
            );
            total += band_nnz[i];
        }
        let ideal = (total as f64 / ranges.len().max(1) as f64).max(1.0);
        out.push(BalancePoint {
            format: label,
            ranges: ranges.len(),
            max_over_ideal: band_nnz.iter().copied().max().unwrap_or(0) as f64 / ideal,
        });
    }
    out
}

/// Measure the whole exhibit once.
pub fn measure() -> ParallelMeasurement {
    ParallelMeasurement {
        kernel_points: measure_kernels(),
        ranged_allocs: measure_ranged_allocs(),
        balance_points: measure_balance(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        counting_installed: allocs::probe_installed(),
    }
}

/// Apply the committed gates to a measurement; empty = gate passes.
///
/// Only deterministic properties are gated: bitwise sequential/parallel
/// equality always, and the zero ranged-allocation budget when the
/// measuring process installed the counting allocator. Speedup is
/// **never** gated — it is hardware-dependent and equals ~1.0 on the
/// single-core CI runner.
pub fn enforce(m: &ParallelMeasurement) -> Vec<crate::kernels::Violation> {
    let mut v = Vec::new();
    for p in &m.kernel_points {
        if !p.bitwise_equal {
            v.push(crate::kernels::Violation(format!(
                "{}/{}: parallel output diverged bitwise from sequential",
                p.kernel, p.format
            )));
        }
    }
    if m.counting_installed {
        for p in &m.ranged_allocs {
            if p.steady_allocs > RANGED_ALLOC_BUDGET {
                v.push(crate::kernels::Violation(format!(
                    "{}: {} steady-state ranged-traversal allocations (budget {})",
                    p.format, p.steady_allocs, RANGED_ALLOC_BUDGET
                )));
            }
        }
    }
    v
}

/// CSV rows (the `results/parallel.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement as the CSV exhibit.
pub fn rows_from(m: &ParallelMeasurement) -> Vec<String> {
    let mut out = vec![
        format!(
            "# sequential vs parallel stream kernels (median ns; {} hardware threads, \
             counting allocator installed: {})",
            m.cores, m.counting_installed
        ),
        format!(
            "kernel,format,seq_ns,{},{},bitwise_equal",
            WORKER_COUNTS.map(|w| format!("par{w}_ns")).join(","),
            WORKER_COUNTS.map(|w| format!("speedup{w}")).join(","),
        ),
    ];
    for p in &m.kernel_points {
        let s = p.speedups();
        out.push(format!(
            "{},{},{},{},{},{}",
            p.kernel,
            p.format,
            p.seq_ns,
            p.par_ns.map(|n| n.to_string()).join(","),
            s.map(|x| format!("{x:.3}")).join(","),
            p.bitwise_equal
        ));
    }
    out.push(String::new());
    out.push("# warm ranged-traversal allocations (per-range arenas, serial replay)".to_string());
    out.push("format,steady_allocs".to_string());
    for p in &m.ranged_allocs {
        out.push(format!("{},{}", p.format, p.steady_allocs));
    }
    out.push(String::new());
    out.push(format!(
        "# phase-1 nnz balance at {} ranges (max band / ideal share)",
        WORKER_COUNTS.last().expect("non-empty sweep")
    ));
    out.push("format,ranges,max_over_ideal".to_string());
    for p in &m.balance_points {
        out.push(format!("{},{},{:.3}", p.format, p.ranges, p.max_over_ideal));
    }
    out
}

/// The machine-readable perf snapshot (`results/BENCH_parallel.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &ParallelMeasurement) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"cores\": {},\n  \"counting_installed\": {},\n  \"worker_counts\": [{}],\n  \
         \"ranged_alloc_budget\": {},\n",
        m.cores,
        m.counting_installed,
        WORKER_COUNTS.map(|w| w.to_string()).join(", "),
        RANGED_ALLOC_BUDGET
    ));
    json.push_str("  \"kernel_points\": [\n");
    for (i, p) in m.kernel_points.iter().enumerate() {
        let s = p.speedups();
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"format\": \"{}\", \"seq_ns\": {}, \
             \"par_ns\": [{}], \"speedups\": [{}], \"bitwise_equal\": {}}}{}\n",
            p.kernel,
            p.format,
            p.seq_ns,
            p.par_ns.map(|n| n.to_string()).join(", "),
            s.map(|x| format!("{x:.4}")).join(", "),
            p.bitwise_equal,
            if i + 1 < m.kernel_points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n  \"ranged_alloc_points\": [\n");
    for (i, p) in m.ranged_allocs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"format\": \"{}\", \"steady_allocs\": {}}}{}\n",
            p.format,
            p.steady_allocs,
            if i + 1 < m.ranged_allocs.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("  ],\n  \"balance_points\": [\n");
    for (i, p) in m.balance_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"format\": \"{}\", \"ranges\": {}, \"max_over_ideal\": {:.4}}}{}\n",
            p.format,
            p.ranges,
            p.max_over_ideal,
            if i + 1 < m.balance_points.len() {
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
        assert_eq!(
            m.kernel_points.len(),
            (matrix_formats().len() + tensor_formats().len()) * 2
        );
        assert!(m.kernel_points.iter().all(|p| p.bitwise_equal));
        assert_eq!(m.ranged_allocs.len(), matrix_formats().len());
        assert_eq!(m.balance_points.len(), matrix_formats().len());
        assert!(m.cores >= 1);
        // The test harness installs no counting allocator, so counts
        // read 0 and the alloc half of the gate is vacuous here (the
        // kernels_gate binary installs it).
        assert!(!m.counting_installed);
        assert!(enforce(&m).is_empty(), "exhibit must pass its own gate");
        let json = json_from(&m);
        assert!(json.contains("\"cores\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let rows = rows_from(&m);
        assert!(rows.iter().any(|r| r.starts_with("spgemm,zvc,")));
        assert!(rows.iter().any(|r| r.starts_with("mttkrp,csf,")));
        assert!(rows.iter().any(|r| r.starts_with("spttm,hicoo2,")));
    }

    #[test]
    fn enforce_flags_synthetic_violations() {
        let m = ParallelMeasurement {
            kernel_points: vec![ParallelPoint {
                kernel: "spmm",
                format: "fake".into(),
                seq_ns: 100,
                par_ns: [100; 4],
                bitwise_equal: false,
            }],
            ranged_allocs: vec![RangedAllocPoint {
                format: "fake".into(),
                steady_allocs: 5,
            }],
            balance_points: vec![],
            cores: 1,
            counting_installed: true,
        };
        let v = enforce(&m);
        assert_eq!(v.len(), 2);
        assert!(v[0].0.contains("diverged"));
        assert!(v[1].0.contains("ranged-traversal"));
    }
}
