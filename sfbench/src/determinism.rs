//! The benchmark's own determinism checks, on fixed seeds: the same seed
//! must give the same inputs and the same deterministic metrics, so any
//! difference between two runs of one seed is the host's, not ours.

use crate::gen::{self, COLD_BASES};
use crate::replay::{Input, Replay};
use crate::trace::Tracer;
use crate::util::Metrics;
use crate::{kernels, model, serve};
use sparseflex_formats::{CooMatrix, SparseMatrix};
use sparseflex_serve::{FlexService, ServeConfig};
use std::time::Instant;

/// FNV-1a over byte slices: the input fingerprint the determinism tests
/// compare.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn usizes(&mut self, v: &[usize]) {
        for x in v {
            self.bytes(&(*x as u64).to_le_bytes());
        }
    }
}

/// Fingerprint of a COO matrix (shape, coordinates, value bits).
fn hash_coo(h: &mut Fnv, m: &CooMatrix) {
    h.usizes(&[m.rows(), m.cols(), m.nnz()]);
    for (r, c, v) in m.iter() {
        h.usizes(&[r, c]);
        h.f64s(&[v]);
    }
}

fn serve_inputs_hash(seed: u64) -> u64 {
    let inputs = serve::inputs(seed, 120);
    let mut h = Fnv::default();
    for f in &inputs.frames {
        h.bytes(&f.bytes);
        h.f64s(f.reference.data());
    }
    h.usizes(&inputs.open);
    h.usizes(&inputs.backlog);
    h.0
}

fn operands_hash(seed: u64) -> u64 {
    let mut h = Fnv::default();
    for job in gen::pipeline_jobs(seed) {
        hash_coo(&mut h, &job.a);
        hash_coo(&mut h, &job.b);
    }
    for m in gen::matrix_operands(seed) {
        hash_coo(&mut h, &m.a_coo);
        hash_coo(&mut h, &m.b_coo);
        h.f64s(m.dense.data());
    }
    for t in gen::tensor_operands(seed) {
        for (x, y, z, v) in t.t_coo.iter() {
            h.usizes(&[x, y, z]);
            h.f64s(&[v]);
        }
        h.f64s(t.fb.data());
    }
    h.0
}

#[test]
fn generated_inputs_repeat_for_a_seed_and_change_with_it() {
    assert_eq!(serve_inputs_hash(7), serve_inputs_hash(7));
    assert_ne!(serve_inputs_hash(7), serve_inputs_hash(8));
    let cold = |seed| {
        let mut h = Fnv::default();
        for f in gen::cold_frames(seed, &COLD_BASES, 60) {
            h.bytes(&f.bytes);
        }
        h.0
    };
    assert_eq!(cold(7), cold(7));
    assert_ne!(cold(7), cold(8));
    assert_eq!(operands_hash(7), operands_hash(7));
    assert_ne!(operands_hash(7), operands_hash(8));
}

#[test]
fn modeled_metrics_repeat_exactly() {
    let jobs = gen::pipeline_jobs(7);
    let pairs: Vec<_> = jobs.iter().map(|j| (&j.a, &j.b)).collect();
    let first = model::modeled(&pairs).expect("modeled runs succeed");
    let second = model::modeled(&pairs).expect("modeled runs succeed");
    assert!(first.sim_cycles_per_job > 0.0);
    assert_eq!(
        first.sim_cycles_per_job.to_bits(),
        second.sim_cycles_per_job.to_bits()
    );
    assert_eq!(
        first.speedup_vs_sw_conv.to_bits(),
        second.speedup_vs_sw_conv.to_bits()
    );
}

/// `planner.tiles_per_job` and `wire.result_bytes` from a replay of the
/// first hot frames.
fn replayed_counts(seed: u64) -> (f64, Vec<usize>) {
    let frames = gen::hot_pool(seed);
    let mut replay = Replay::new(gen::bench_system());
    let mut tr = Tracer::new(Instant::now());
    let sizes = frames
        .iter()
        .take(12)
        .enumerate()
        .map(|(i, f)| {
            let r = replay
                .job(
                    &mut tr,
                    i as u64,
                    Input::Frame {
                        bytes: &f.bytes,
                        job_id: i as u64,
                    },
                )
                .expect("replay succeeds and matches execute_plan");
            r.result_frame.expect("frame inputs re-encode").len()
        })
        .collect();
    let mut m = Metrics::default();
    replay.metrics(&tr, &mut m);
    (
        m.get("planner.tiles_per_job")
            .expect("replay reports tiles"),
        sizes,
    )
}

#[test]
fn tiles_per_job_and_result_bytes_repeat_exactly() {
    let (tiles_a, bytes_a) = replayed_counts(7);
    let (tiles_b, bytes_b) = replayed_counts(7);
    assert!(tiles_a >= 1.0);
    assert_eq!(tiles_a.to_bits(), tiles_b.to_bits());
    assert_eq!(bytes_a, bytes_b);
}

/// Drain a cold backlog (more distinct shapes than the cache holds) on a
/// one-worker service and return its hit/miss/eviction counts.
fn one_worker_cold_counts(seed: u64) -> (u64, u64, u64) {
    let frames = gen::cold_frames(seed, &COLD_BASES, 300);
    let service = FlexService::start(
        gen::bench_system(),
        ServeConfig {
            workers: 1,
            queue_capacity: 1024,
            tenant_inflight_cap: 1024,
            start_paused: true,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let tickets: Vec<_> = (0..900)
        .map(|i| {
            service
                .submit_frame(&frames[i / 3].bytes)
                .expect("backlog fits the queue")
        })
        .collect();
    service.resume();
    for t in tickets {
        t.wait().expect("job completes");
    }
    let c = service.stats().cache;
    (c.hits, c.misses, c.evictions)
}

#[test]
fn one_worker_cold_drain_repeats_its_cache_counts() {
    let first = one_worker_cold_counts(7);
    assert_eq!(first, one_worker_cold_counts(7));
    let (hits, misses, evictions) = first;
    assert_eq!(hits + misses, 900);
    assert!(misses >= 300, "every fresh shape misses once");
    assert!(evictions > 0, "300 shapes overflow the 256-row cache");
}

#[test]
fn every_metric_is_in_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let names: Vec<(String, &str)> = crate::end_to_end()
        .into_iter()
        .chain(crate::per_layer())
        .collect();
    for (name, unit) in &names {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\":").count(), names.len());
    for w in crate::WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
    }
    assert!(kernels::call_list().len() == 60);
}
