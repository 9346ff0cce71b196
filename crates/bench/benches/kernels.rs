//! Criterion benches for the software kernels across density regions —
//! the measured companion to the Fig. 5 device-model sweep — plus the
//! `kernels_stream` group pricing the format-generic stream path against
//! the CSR SpMV fast path and across formats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparseflex_formats::{CsrMatrix, DenseMatrix, MatrixData, MatrixFormat};
use sparseflex_kernels::{gemm, spgemm, spgemm_with, spmm, spmv, spmv_via_stream, SpgemmAlgo};
use sparseflex_workloads::synth::{random_dense_matrix, random_matrix};

const N: usize = 384;

fn bench_mm_across_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("mm_density");
    g.sample_size(10);
    let b_dense = random_dense_matrix(N, N, 7);
    for dens in [0.001, 0.01, 0.1] {
        let nnz = ((N * N) as f64 * dens) as usize;
        let a = random_matrix(N, N, nnz, 1);
        let a_csr = MatrixData::Csr(CsrMatrix::from_coo(&a));
        let b_csr = MatrixData::Csr(CsrMatrix::from_coo(&random_matrix(N, N, nnz, 2)));
        g.bench_with_input(
            BenchmarkId::new("spmm_csr_dense", dens),
            &dens,
            |bench, _| bench.iter(|| spmm(&a_csr, &b_dense).expect("shapes agree")),
        );
        g.bench_with_input(
            BenchmarkId::new("spgemm_csr_csr", dens),
            &dens,
            |bench, _| bench.iter(|| spgemm(&a_csr, &b_csr).expect("shapes agree")),
        );
        g.bench_with_input(
            BenchmarkId::new("spgemm_rowwise_csr_csr", dens),
            &dens,
            |bench, _| {
                bench.iter(|| {
                    spgemm_with(&a_csr, &b_csr, SpgemmAlgo::RowWise).expect("shapes agree")
                })
            },
        );
    }
    let a_dense: DenseMatrix = random_dense_matrix(N, N, 3);
    g.bench_function("gemm_dense", |bench| {
        bench.iter(|| gemm(&a_dense, &b_dense))
    });
    g.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    g.sample_size(10);
    let a = random_matrix(1024, 1024, 100_000, 4);
    let a_csr = MatrixData::Csr(CsrMatrix::from_coo(&a));
    let b = random_dense_matrix(1024, 256, 5);
    g.bench_function("spmm_sequential", |bench| {
        bench.iter(|| spmm(&a_csr, &b).expect("shapes agree"))
    });
    g.bench_function("spmm_parallel", |bench| {
        bench.iter(|| sparseflex_kernels::spmm_parallel(&a_csr, &b).expect("shapes agree"))
    });
    g.finish();
}

/// Generic-stream vs concrete fast-path: the dispatch overhead of the
/// format-agnostic API, and the cost of streaming formats with no
/// dedicated kernel. `spmv` on a CSR operand dispatches to the tuned row
/// loop and `spmv_via_stream` forces the same operand through the
/// fiber-stream consumer; SpMM has only the stream body. The ZVC rows
/// show a hub-only format running a kernel that previously required
/// pre-conversion to CSR.
fn bench_stream_vs_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels_stream");
    g.sample_size(10);
    let nnz = ((N * N) as f64 * 0.01) as usize;
    let coo = random_matrix(N, N, nnz, 6);
    let a_csr = MatrixData::Csr(CsrMatrix::from_coo(&coo));
    let a_zvc = MatrixData::encode(&coo, &MatrixFormat::Zvc).expect("ZVC encodes any matrix");
    let b = random_dense_matrix(N, 64, 8);
    let x: Vec<f64> = (0..N).map(|i| (i % 13) as f64 - 6.0).collect();

    g.bench_function("spmv_csr_fast_path", |bench| {
        bench.iter(|| spmv(&a_csr, &x).expect("shapes agree"))
    });
    g.bench_function("spmv_csr_via_stream", |bench| {
        bench.iter(|| spmv_via_stream(&a_csr, &x).expect("shapes agree"))
    });
    g.bench_function("spmv_zvc_stream", |bench| {
        bench.iter(|| spmv(&a_zvc, &x).expect("shapes agree"))
    });
    g.bench_function("spmm_csr_stream", |bench| {
        bench.iter(|| spmm(&a_csr, &b).expect("shapes agree"))
    });
    g.bench_function("spmm_zvc_stream", |bench| {
        bench.iter(|| spmm(&a_zvc, &b).expect("shapes agree"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mm_across_density,
    bench_parallel_speedup,
    bench_stream_vs_fast_path
);
criterion_main!(benches);
