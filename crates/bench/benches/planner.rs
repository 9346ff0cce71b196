//! Criterion group pricing the planner layer: end-to-end `Planner::plan`
//! latency cold (full SAGE MCF×ACF search) vs cached (bounded LRU plan
//! cache hit), plus the warm serving pass over the Table III suite.

use criterion::{criterion_group, criterion_main, Criterion};
use sparseflex_bench::pipeline::{bench_system, exhibit_operands};
use sparseflex_bench::planner::suite_workloads;
use sparseflex_core::{PlanDiscipline, Planner};
use sparseflex_formats::{DataType, SparseMatrix};
use sparseflex_sage::SageWorkload;
use sparseflex_workloads::synth::random_matrix;

fn bench_plan_latency(c: &mut Criterion) {
    let sys = bench_system();
    let (_, m, k, n, nnz_a, nnz_b) = exhibit_operands()[0];
    let a = random_matrix(m, k, nnz_a, 42);
    let b = random_matrix(k, n, nnz_b, 43);
    let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
    let mut g = c.benchmark_group("planner");
    g.sample_size(10);
    // Cold: a fresh planner per call pays the full MCF x ACF search.
    g.bench_function("plan_cold", |bench| {
        bench.iter(|| {
            Planner::default()
                .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
                .expect("exhibit shape plans")
        })
    });
    // Cached: the serving steady state — the search is a cache hit and
    // only the tile schedule + prediction are rebuilt per job.
    let warm = Planner::default();
    warm.plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .expect("exhibit shape plans");
    g.bench_function("plan_cached", |bench| {
        bench.iter(|| {
            warm.plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
                .expect("exhibit shape plans")
        })
    });
    g.finish();
}

fn bench_suite_hit_rate(c: &mut Criterion) {
    let sys = bench_system();
    let suite = suite_workloads();
    let mut g = c.benchmark_group("planner_suite");
    g.sample_size(10);
    // One warm pass over the whole Table III serving mix (26 workloads),
    // every evaluation a cache hit.
    let planner = Planner::default();
    for (_, w) in &suite {
        planner.evaluate_cached(&sys.sage, w);
    }
    g.bench_function("table3_suite_warm_pass", |bench| {
        bench.iter(|| {
            for (_, w) in &suite {
                planner.evaluate_cached(&sys.sage, w);
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_plan_latency, bench_suite_hit_rate);
criterion_main!(benches);
