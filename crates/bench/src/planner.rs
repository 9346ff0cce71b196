//! Planner exhibit — plan latency cold vs cached, and plan-cache hit
//! rate / LRU-bound behavior under the Table III workload suite.
//!
//! [`rows`] emits the CSV series like every other exhibit;
//! [`snapshot_json`] renders the same measurements as the
//! machine-readable `results/BENCH_planner.json` perf snapshot that CI
//! uploads, so the planning layer's perf trajectory is tracked across
//! PRs alongside the pipeline's.

use crate::fig12::spgemm_workload;
use crate::fig13::spmm_workload;
use crate::pipeline::{bench_system, exhibit_operands};
use sparseflex_core::{PlanCache, PlanDiscipline, Planner};
use sparseflex_formats::{DataType, SparseMatrix};
use sparseflex_sage::SageWorkload;
use sparseflex_workloads::synth::random_matrix;
use sparseflex_workloads::TABLE_III;
use std::time::Instant;

/// Every matrix workload of the Table III suite, under both kernels —
/// the serving mix the plan cache is measured against.
pub fn suite_workloads() -> Vec<(String, SageWorkload)> {
    TABLE_III
        .iter()
        .filter(|s| !s.is_tensor())
        .flat_map(|spec| {
            [
                (format!("{}/SpGEMM", spec.name), spgemm_workload(spec)),
                (format!("{}/SpMM", spec.name), spmm_workload(spec)),
            ]
        })
        .collect()
}

/// One full measurement of the planner exhibit.
#[derive(Debug, Clone)]
pub struct PlannerMeasurement {
    /// Distinct workloads in the suite (10 matrix specs x 2 kernels).
    pub suite_plans: usize,
    /// Misses on the first (cold) pass over the suite.
    pub cold_misses: u64,
    /// Hits on the second (warm) pass over the suite.
    pub warm_hits: u64,
    /// Warm-pass hit rate (hits / plans).
    pub hit_rate: f64,
    /// Capacity of the deliberately undersized cache pass.
    pub bounded_capacity: usize,
    /// LRU evictions that undersized cache suffered over two passes.
    pub bounded_evictions: u64,
    /// Mean end-to-end `Planner::plan` latency with a cold cache (µs).
    pub plan_cold_us: f64,
    /// Mean end-to-end `Planner::plan` latency with a warm cache (µs).
    pub plan_cached_us: f64,
}

/// Measure the whole exhibit once.
pub fn measure() -> PlannerMeasurement {
    let sys = bench_system();
    let suite = suite_workloads();

    // Cache hit rate under the Table III suite: one cold pass, one warm.
    let planner = Planner::default();
    for (_, w) in &suite {
        planner.evaluate_cached(&sys.sage, w);
    }
    let cold = planner.cache.counters();
    for (_, w) in &suite {
        planner.evaluate_cached(&sys.sage, w);
    }
    let warm = planner.cache.counters().since(cold);

    // The bound at work: a cache smaller than the suite must evict (LRU)
    // yet never exceed its capacity.
    let mut bounded = Planner::default();
    bounded.cache = PlanCache::with_capacity(8);
    for _ in 0..2 {
        for (_, w) in &suite {
            bounded.evaluate_cached(&sys.sage, w);
        }
    }
    assert!(bounded.cache.len() <= bounded.cache.capacity());

    // Plan latency, cold vs cached, on the first Fig. 12-class exhibit
    // shape (full `plan`: search-or-hit + tile schedule + prediction).
    let (_, m, k, n, nnz_a, nnz_b) = exhibit_operands()[0];
    let a = random_matrix(m, k, nnz_a, 42);
    let b = random_matrix(k, n, nnz_b, 43);
    let w = SageWorkload::spgemm(m, k, n, a.nnz() as u64, b.nnz() as u64, DataType::Fp32);
    let iters = 24u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        let cold_planner = Planner::default();
        cold_planner
            .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
            .expect("exhibit shape plans");
    }
    let plan_cold_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    let warm_planner = Planner::default();
    warm_planner
        .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
        .expect("exhibit shape plans");
    let t1 = Instant::now();
    for _ in 0..iters {
        warm_planner
            .plan(&sys.sage, &a, &b, &w, None, PlanDiscipline::Pipelined)
            .expect("exhibit shape plans");
    }
    let plan_cached_us = t1.elapsed().as_secs_f64() * 1e6 / iters as f64;

    PlannerMeasurement {
        suite_plans: suite.len(),
        cold_misses: cold.misses,
        warm_hits: warm.hits,
        hit_rate: warm.hits as f64 / suite.len() as f64,
        bounded_capacity: bounded.cache.capacity(),
        bounded_evictions: bounded.cache.evictions(),
        plan_cold_us,
        plan_cached_us,
    }
}

/// CSV rows (the `results/planner.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement as the CSV exhibit.
pub fn rows_from(m: &PlannerMeasurement) -> Vec<String> {
    vec![
        "# planner layer: plan cache under the Table III suite + plan latency".to_string(),
        "suite_plans,cold_misses,warm_hits,hit_rate,bounded_capacity,bounded_evictions,\
         plan_cold_us,plan_cached_us"
            .to_string(),
        format!(
            "{},{},{},{:.4},{},{},{:.2},{:.2}",
            m.suite_plans,
            m.cold_misses,
            m.warm_hits,
            m.hit_rate,
            m.bounded_capacity,
            m.bounded_evictions,
            m.plan_cold_us,
            m.plan_cached_us
        ),
    ]
}

/// The machine-readable perf snapshot (`results/BENCH_planner.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &PlannerMeasurement) -> String {
    format!(
        "{{\n  \"suite\": {{\"plans\": {}, \"cold_misses\": {}, \"warm_hits\": {}, \
         \"hit_rate\": {:.4}}},\n  \"bounded\": {{\"capacity\": {}, \"evictions\": {}}},\n  \
         \"latency\": {{\"plan_cold_us\": {:.2}, \"plan_cached_us\": {:.2}}}\n}}",
        m.suite_plans,
        m.cold_misses,
        m.warm_hits,
        m.hit_rate,
        m.bounded_capacity,
        m.bounded_evictions,
        m.plan_cold_us,
        m.plan_cached_us
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pass_hits_every_suite_shape() {
        let m = measure();
        assert_eq!(m.suite_plans, 20, "10 matrix specs x 2 kernels");
        assert_eq!(m.cold_misses, 20, "cold pass must search everything");
        assert_eq!(m.warm_hits, 20, "warm pass must hit everything");
        assert!((m.hit_rate - 1.0).abs() < 1e-12);
        // The undersized cache is forced to evict but stays bounded.
        assert!(m.bounded_evictions > 0);
        assert_eq!(m.bounded_capacity, 8);
        // Latency numbers are real measurements.
        assert!(m.plan_cold_us > 0.0 && m.plan_cached_us > 0.0);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let json = snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"suite\""));
        assert!(json.contains("\"bounded\""));
        assert!(json.contains("\"latency\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
