//! Serving exhibit — sustained multi-tenant throughput through
//! [`FlexService`] and the plan-cache sharding story.
//!
//! Two halves, rendered into `results/serving.csv` and the
//! `results/BENCH_serving.json` snapshot CI uploads:
//!
//! 1. **Measured throughput**: a fixed mixed-tenant job stream is pushed
//!    through the wire format into a service at 1/2/4/8 workers;
//!    jobs/sec and p50/p95/p99 completion latency are wall-clock
//!    measurements (informational — CI machines differ, so tests only
//!    assert they are positive and ordered).
//! 2. **Contention**: lock contention on the plan cache under 8
//!    workers, twice. The *measured* numbers hammer a single-lock and a
//!    sharded cache with real threads and report contended lock
//!    acquisitions. Because wall-clock contention on an arbitrary CI
//!    box is noise, the *modeled* numbers replay the same key stream —
//!    mapped to shards by the planner's true key→shard function
//!    ([`Planner::cache_shard`]) — through a deterministic lock-service
//!    model (each lookup holds its shard for a fixed critical section;
//!    a worker stalls while its shard is busy). The model is exact
//!    arithmetic, so "sharding removes the single-lock stall" is a
//!    reproducible claim: the snapshot records single-lock vs sharded
//!    stall cycles at 8 workers, and the test asserts sharded < single.

use crate::pipeline::bench_system;
use crate::planner::suite_workloads;
use sparseflex_core::{PlanCache, Planner, StoredTrace};
use sparseflex_formats::{DataType, MatrixData, MatrixFormat};
use sparseflex_serve::{wire, FlexService, JobTicket, Priority, ServeConfig, WireJob};
use sparseflex_workloads::synth::random_matrix;
use std::time::Instant;

/// Worker-pool sizes the throughput sweep covers.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Cache shards the sharded configurations use.
pub const CACHE_SHARDS: usize = 8;

/// Cycles one cache lookup holds its shard lock in the deterministic
/// contention model.
pub const LOOKUP_SERVICE_CYCLES: u64 = 10;

/// Throughput and latency at one worker-pool size.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// Worker threads (virtual accelerator instances).
    pub workers: usize,
    /// Jobs completed per wall-clock second (measured).
    pub jobs_per_sec: f64,
    /// Median submit→completion latency, milliseconds (measured).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds (measured).
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds (measured).
    pub p99_ms: f64,
    /// Plan-cache hits during the stream.
    pub cache_hits: u64,
    /// Plan-cache misses during the stream.
    pub cache_misses: u64,
    /// Jobs executed by a worker that stole them from a sibling.
    pub stolen: u64,
}

/// The 8-worker cache-contention comparison, measured and modeled.
#[derive(Debug, Clone)]
pub struct ContentionComparison {
    /// Concurrent lookup threads / modeled workers.
    pub workers: usize,
    /// Lookups issued per thread in the measured hammer and per worker
    /// in the model.
    pub lookups_per_worker: usize,
    /// Shards of the sharded configuration.
    pub shards: usize,
    /// Contended lock acquisitions measured on the single-lock cache
    /// (real threads; informational — scheduler-dependent).
    pub measured_single_contended: u64,
    /// Contended lock acquisitions measured on the sharded cache.
    pub measured_sharded_contended: u64,
    /// Deterministic modeled stall cycles with one lock at 8 workers.
    pub modeled_single_stall_cycles: u64,
    /// Deterministic modeled stall cycles with the sharded cache.
    pub modeled_sharded_stall_cycles: u64,
}

/// One full measurement of the serving exhibit.
#[derive(Debug, Clone)]
pub struct ServingMeasurement {
    /// Jobs in the stream each worker-pool size serves.
    pub job_count: usize,
    /// Distinct tenants submitting.
    pub tenants: usize,
    /// Distinct workload shapes (the plan cache's working set).
    pub shapes: usize,
    /// Traces replayed into the calibrator before traffic (0 without
    /// `--warm-start`).
    pub warm_traces: usize,
    /// The throughput sweep over [`WORKER_SWEEP`].
    pub throughput: Vec<WorkerPoint>,
    /// The 8-worker single-lock vs sharded comparison.
    pub contention: ContentionComparison,
}

/// The mixed-tenant job stream: `count` jobs cycling over a small set
/// of shapes (so the plan cache sees repeats), three tenants with
/// different weights, and a mix of priorities — submitted as wire
/// frames.
fn job_stream(count: usize) -> Vec<Vec<u8>> {
    let shapes = [
        (16usize, 20usize, 12usize, 80usize, 70usize),
        (24, 16, 20, 90, 95),
        (12, 28, 16, 70, 110),
        (20, 20, 20, 120, 120),
        (28, 12, 24, 100, 60),
        (16, 16, 28, 60, 85),
    ];
    (0..count)
        .map(|i| {
            let (m, k, n, nnz_a, nnz_b) = shapes[i % shapes.len()];
            let a = random_matrix(m, k, nnz_a, 1_000 + (i % shapes.len()) as u64);
            let b = random_matrix(k, n, nnz_b, 2_000 + (i % shapes.len()) as u64);
            let job = WireJob {
                tenant: (i % 3) as u32 + 1,
                priority: match i % 5 {
                    0 => Priority::High,
                    4 => Priority::Low,
                    _ => Priority::Normal,
                },
                dtype: DataType::Fp32,
                a: MatrixData::encode(&a, &MatrixFormat::Csr).expect("encode A"),
                b: MatrixData::encode(&b, &MatrixFormat::Coo).expect("encode B"),
            };
            wire::encode_job(&job).expect("encode job frame")
        })
        .collect()
}

/// Serve the stream once at the given pool size and measure it.
fn serve_once(frames: &[Vec<u8>], workers: usize, warm: Option<&[StoredTrace]>) -> WorkerPoint {
    let service = FlexService::start(
        bench_system(),
        ServeConfig {
            workers,
            queue_capacity: frames.len() + 16,
            tenant_inflight_cap: frames.len() + 16,
            cache_shards: CACHE_SHARDS,
            dispatch_batch: 4,
            start_paused: true,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    if let Some(traces) = warm {
        service.warm_start(traces);
    }
    service.register_tenant(1, 1);
    service.register_tenant(2, 2);
    service.register_tenant(3, 4);
    let tickets: Vec<JobTicket> = frames
        .iter()
        .map(|f| service.submit_frame(f).expect("stream fits the queue"))
        .collect();
    let t0 = Instant::now();
    service.resume();
    // Completion instants observed in submission order: a later wait
    // returning immediately means the job finished while we blocked on
    // an earlier one, so each observation upper-bounds that job's true
    // completion time (exact for the last).
    let mut latencies_ms: Vec<f64> = tickets
        .into_iter()
        .map(|t| {
            t.wait().expect("job completes");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
    let stats = service.stats();
    WorkerPoint {
        workers,
        jobs_per_sec: frames.len() as f64 / elapsed,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        stolen: stats.jobs_stolen,
    }
}

/// Hammer `cache` from `threads` real threads (hit-only lookups) and
/// report contended acquisitions. Informational: on a loaded or
/// single-core host the scheduler decides how much the threads overlap.
fn measured_contention(shards: usize, threads: usize, lookups: usize) -> u64 {
    let sys = bench_system();
    let planner = Planner::with_cache(PlanCache::with_shards(256, shards));
    let suite = suite_workloads();
    for (_, w) in &suite {
        planner.evaluate_cached(&sys.sage, w);
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the contention exhibit needs real threads racing on the cache"
    )]
    std::thread::scope(|scope| {
        for t in 0..threads {
            let planner = &planner;
            let sys = &sys;
            let suite = &suite;
            scope.spawn(move || {
                for i in 0..lookups {
                    let (_, w) = &suite[(t * 7 + i) % suite.len()];
                    planner.evaluate_cached(&sys.sage, w);
                }
            });
        }
    });
    planner.cache.contended_acquisitions()
}

/// Deterministic lock-service model: `workers` concurrent lookup
/// streams over the suite's real key→shard mapping. Time advances in
/// lockstep rounds; a lookup occupies its shard for
/// [`LOOKUP_SERVICE_CYCLES`], and a worker whose shard is busy stalls
/// until it frees. Returns total stall cycles across all workers —
/// exact arithmetic, identical on every host.
pub fn modeled_stall_cycles(
    shard_of: &[usize],
    shards: usize,
    workers: usize,
    rounds: usize,
) -> u64 {
    let mut shard_free = vec![0u64; shards];
    let mut worker_now = vec![0u64; workers];
    let mut stalls = 0u64;
    for round in 0..rounds {
        for w in 0..workers {
            // Each worker walks the suite at its own offset, so the
            // streams interleave rather than marching in phase.
            let shard = shard_of[(w * 7 + round) % shard_of.len()];
            let start = worker_now[w].max(shard_free[shard]);
            stalls += start - worker_now[w];
            worker_now[w] = start + LOOKUP_SERVICE_CYCLES;
            shard_free[shard] = worker_now[w];
        }
    }
    stalls
}

/// The suite's key→shard mapping under `shards` shards, via the
/// planner's real hash (not a re-implementation).
fn suite_shard_map(shards: usize) -> Vec<usize> {
    let sys = bench_system();
    let planner = Planner::with_cache(PlanCache::with_shards(256, shards));
    suite_workloads()
        .iter()
        .map(|(_, w)| planner.cache_shard(&sys.sage, w))
        .collect()
}

/// Measure the whole exhibit once (no warm start).
pub fn measure() -> ServingMeasurement {
    measure_with(None)
}

/// Measure with the calibrator optionally warm-started from stored
/// traces before traffic (the `--warm-start` path of `run_all`).
pub fn measure_with(warm: Option<&[StoredTrace]>) -> ServingMeasurement {
    let frames = job_stream(48);
    let throughput = WORKER_SWEEP
        .iter()
        .map(|&workers| serve_once(&frames, workers, warm))
        .collect();

    let threads = 8;
    let lookups = 4_000;
    let contention = ContentionComparison {
        workers: threads,
        lookups_per_worker: lookups,
        shards: CACHE_SHARDS,
        measured_single_contended: measured_contention(1, threads, lookups),
        measured_sharded_contended: measured_contention(CACHE_SHARDS, threads, lookups),
        modeled_single_stall_cycles: modeled_stall_cycles(&suite_shard_map(1), 1, threads, lookups),
        modeled_sharded_stall_cycles: modeled_stall_cycles(
            &suite_shard_map(CACHE_SHARDS),
            CACHE_SHARDS,
            threads,
            lookups,
        ),
    };
    ServingMeasurement {
        job_count: frames.len(),
        tenants: 3,
        shapes: 6,
        warm_traces: warm.map_or(0, <[StoredTrace]>::len),
        throughput,
        contention,
    }
}

/// CSV rows (the `results/serving.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement as the CSV exhibit.
pub fn rows_from(m: &ServingMeasurement) -> Vec<String> {
    let mut out = vec![
        format!(
            "# serving layer: {} mixed-tenant wire jobs, {} tenants, {} shapes, \
             warm_traces={}",
            m.job_count, m.tenants, m.shapes, m.warm_traces
        ),
        "workers,jobs_per_sec,p50_ms,p95_ms,p99_ms,cache_hits,cache_misses,stolen".to_string(),
    ];
    for p in &m.throughput {
        out.push(format!(
            "{},{:.2},{:.3},{:.3},{:.3},{},{},{}",
            p.workers,
            p.jobs_per_sec,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.cache_hits,
            p.cache_misses,
            p.stolen
        ));
    }
    let c = &m.contention;
    out.push(format!(
        "# cache contention at {} workers, {} lookups each: modeled stall cycles \
         single_lock={} sharded({})={}; measured contended acquisitions \
         single_lock={} sharded={}",
        c.workers,
        c.lookups_per_worker,
        c.modeled_single_stall_cycles,
        c.shards,
        c.modeled_sharded_stall_cycles,
        c.measured_single_contended,
        c.measured_sharded_contended
    ));
    out
}

/// The machine-readable perf snapshot (`results/BENCH_serving.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &ServingMeasurement) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"stream\": {{\"jobs\": {}, \"tenants\": {}, \"shapes\": {}, \"warm_traces\": {}}},\n",
        m.job_count, m.tenants, m.shapes, m.warm_traces
    ));
    s.push_str("  \"throughput\": [\n");
    for (i, p) in m.throughput.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"jobs_per_sec\": {:.2}, \"p50_ms\": {:.3}, \
             \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"stolen\": {}}}{}\n",
            p.workers,
            p.jobs_per_sec,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms,
            p.cache_hits,
            p.cache_misses,
            p.stolen,
            if i + 1 < m.throughput.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let c = &m.contention;
    s.push_str(&format!(
        "  \"contention\": {{\"workers\": {}, \"lookups_per_worker\": {}, \"shards\": {},\n    \
         \"modeled_stall_cycles\": {{\"single_lock\": {}, \"sharded\": {}}},\n    \
         \"measured_contended\": {{\"single_lock\": {}, \"sharded\": {}}}}}\n",
        c.workers,
        c.lookups_per_worker,
        c.shards,
        c.modeled_single_stall_cycles,
        c.modeled_sharded_stall_cycles,
        c.measured_single_contended,
        c.measured_sharded_contended
    ));
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_cache_beats_single_lock_in_the_model() {
        // The acceptance claim, pinned on the deterministic model (the
        // measured numbers are host-dependent and only recorded).
        let single = modeled_stall_cycles(&suite_shard_map(1), 1, 8, 4_000);
        let sharded = modeled_stall_cycles(&suite_shard_map(CACHE_SHARDS), CACHE_SHARDS, 8, 4_000);
        assert!(
            sharded < single,
            "sharded stalls ({sharded}) must beat the single lock ({single})"
        );
        // One lock at 8 workers serializes nearly everything: each
        // round's 8 lookups queue on the same lock.
        assert!(single > 0);
        // Sharding the suite across 8 locks must remove most of it.
        assert!(
            (sharded as f64) < (single as f64) * 0.5,
            "sharding should at least halve modeled stalls ({sharded} vs {single})"
        );
    }

    #[test]
    fn model_is_deterministic() {
        let map = suite_shard_map(CACHE_SHARDS);
        let a = modeled_stall_cycles(&map, CACHE_SHARDS, 8, 500);
        let b = modeled_stall_cycles(&map, CACHE_SHARDS, 8, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn throughput_sweep_serves_every_job() {
        let frames = job_stream(12);
        let p = serve_once(&frames, 2, None);
        assert_eq!(p.workers, 2);
        assert_eq!(p.cache_hits + p.cache_misses, 12, "every job plans once");
        assert!(p.jobs_per_sec > 0.0);
        assert!(p.p50_ms > 0.0 && p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        // A tiny hand-built measurement keeps the test fast.
        let m = ServingMeasurement {
            job_count: 4,
            tenants: 3,
            shapes: 2,
            warm_traces: 0,
            throughput: vec![WorkerPoint {
                workers: 1,
                jobs_per_sec: 10.0,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
                cache_hits: 2,
                cache_misses: 2,
                stolen: 0,
            }],
            contention: ContentionComparison {
                workers: 8,
                lookups_per_worker: 100,
                shards: 8,
                measured_single_contended: 5,
                measured_sharded_contended: 1,
                modeled_single_stall_cycles: 1000,
                modeled_sharded_stall_cycles: 10,
            },
        };
        let json = json_from(&m);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"throughput\""));
        assert!(json.contains("\"modeled_stall_cycles\""));
        let csv = rows_from(&m);
        assert!(csv.iter().any(|r| r.starts_with("workers,")));
    }
}
