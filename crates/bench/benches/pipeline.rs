//! Criterion group pricing the tile-grained runtime: monolithic
//! (serial convert-then-compute) vs pipelined (double-buffered tiles) vs
//! batched execution, on the Fig. 12-class exhibit shapes.

use criterion::{criterion_group, criterion_main, Criterion};
use sparseflex_bench::pipeline::{batch_jobs, bench_system, exhibit_operands, exhibit_run};
use sparseflex_core::{FlexSystem, PlanDiscipline};
use sparseflex_formats::{DataType, SparseMatrix};
use sparseflex_sage::SageWorkload;
use sparseflex_workloads::synth::random_matrix;

fn bench_overlapped_vs_serial(c: &mut Criterion) {
    let sys = bench_system();
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for (i, (name, m, k, n, nnz_a, nnz_b)) in exhibit_operands().into_iter().enumerate() {
        let a = random_matrix(m, k, nnz_a, 100 + i as u64);
        let b = random_matrix(k, n, nnz_b, 101 + i as u64);
        let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
        // Wall-clock of the monolithic path (whole-operand conversion,
        // then compute) vs the tiled stage machine; the modeled cycle
        // ratio is in results/BENCH_pipeline.json.
        g.bench_function(&format!("monolithic/{name}"), |bench| {
            bench.iter(|| {
                sys.run(&a, &b, &w, None, PlanDiscipline::Monolithic)
                    .expect("exhibit shape runs")
            })
        });
        g.bench_function(&format!("pipelined/{name}"), |bench| {
            bench.iter(|| exhibit_run(&sys, &a, &b))
        });
    }
    g.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    let sys = bench_system();
    let jobs = batch_jobs();
    let mut g = c.benchmark_group("pipeline_batch");
    g.sample_size(10);
    // Cold cache: every shape pays one SAGE search (a fresh system per
    // call isolates the cold case from the persistent cache).
    g.bench_function("batch_12_jobs_cold_cache", |bench| {
        bench.iter(|| FlexSystem::new(sys.sage.clone()).run_batch(&jobs))
    });
    // Warm cache: the serving steady state — repeated shapes skip the
    // MCF x ACF search entirely.
    sys.run_batch(&jobs);
    g.bench_function("batch_12_jobs_warm_cache", |bench| {
        bench.iter(|| sys.run_batch(&jobs))
    });
    g.finish();
}

criterion_group!(benches, bench_overlapped_vs_serial, bench_batch_throughput);
criterion_main!(benches);
