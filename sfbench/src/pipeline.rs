//! pipeline_large: one caller in a closed loop running
//! `FlexSystem::run_pipelined` directly (no wire, no service) on SpGEMM
//! jobs that span the density classes. MINT conversion, the cycle
//! simulator and the tile fan-out dominate; `serve` and `wire` are
//! bypassed.

use crate::gen::{self, PipelineJob};
use crate::model;
use crate::replay::{bits_equal, Input, Replay};
use crate::trace::Tracer;
use crate::util::{
    class_medians, closed_loop, closed_loop_wall, repeat_setup, secs, Metrics, Times,
};
use crate::RunOut;
use sparseflex_core::{FlexSystem, PipelineRun};
use sparseflex_formats::{DenseMatrix, SparseMatrix};
use std::time::Instant;

const SETUP_REPEATS: usize = 9;
/// Passes over the job mix before timing: fills the plan cache, the tile
/// arenas and the calibrator's sample buffers.
const WARM_PASSES: usize = 2;

fn run_job(sys: &FlexSystem, job: &PipelineJob) -> Result<PipelineRun, String> {
    sys.run_pipelined(&job.a, &job.b, &job.workload)
        .map_err(|e| format!("{} job failed: {e}", job.class))
}

fn setup(seed: u64) -> Result<(Vec<PipelineJob>, FlexSystem), String> {
    let jobs = gen::pipeline_jobs(seed);
    let sys = gen::bench_system();
    for _ in 0..WARM_PASSES {
        for job in &jobs {
            if !run_job(&sys, job)?.output.approx_eq(&job.reference, 1e-9) {
                return Err(format!("{} job mismatched during warm-up", job.class));
            }
        }
    }
    Ok((jobs, sys))
}

/// One closed-loop pass over the job mix: appends per-job seconds to
/// `times` and returns the failures and the outputs. With a tracer each
/// call is a `pipeline.run_pipelined` span.
fn pass(
    sys: &FlexSystem,
    jobs: &[PipelineJob],
    times: &mut Times,
    mut tracer: Option<&mut Tracer>,
    job_base: u64,
) -> (u64, Vec<DenseMatrix>) {
    let mut failed = 0;
    let mut outputs = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let run = times.time(|| match tracer.as_deref_mut() {
            Some(tr) => tr.span("pipeline.run_pipelined", job_base + i as u64, || {
                run_job(sys, job)
            }),
            None => run_job(sys, job),
        });
        match run {
            Ok(r) if r.output.approx_eq(&job.reference, 1e-9) => outputs.push(r.output),
            _ => {
                failed += 1;
                outputs.push(DenseMatrix::zeros(0, 0));
            }
        }
    }
    (failed, outputs)
}

pub fn params(jobs: &[PipelineJob]) -> Vec<(&'static str, String)> {
    let sys = gen::bench_system();
    vec![
        ("loop", "closed, 1 caller".into()),
        (
            "jobs",
            jobs.iter()
                .map(|j| {
                    format!(
                        "{}:{}x{}x{}:nnz_a={}:nnz_b={}",
                        j.class,
                        j.a.rows(),
                        j.a.cols(),
                        j.b.cols(),
                        j.a.nnz(),
                        j.b.nnz()
                    )
                })
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("num_pes", sys.sage.accel.num_pes.to_string()),
        (
            "pe_buffer_elems",
            sys.sage.accel.pe_buffer_elems.to_string(),
        ),
        ("warm_passes", WARM_PASSES.to_string()),
    ]
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunOut, String> {
    let ((jobs, sys), setup_s) = repeat_setup(SETUP_REPEATS, || setup(seed))?;
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut times = Times::default();
    let mut traced_times = Times::default();
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let mut live_outputs: Vec<DenseMatrix> = Vec::new();
    let budget = seconds * if trace { 0.6 } else { 1.0 };
    let start = Instant::now();
    let mut passes = 0u64;
    while secs(start) < budget {
        let (f, _) = pass(&sys, &jobs, &mut times, None, 0);
        failed += f;
        attempted += jobs.len() as u64;
        if let Some(tr) = tracer.as_mut() {
            let base = passes * jobs.len() as u64;
            let (f, outs) = pass(&sys, &jobs, &mut traced_times, Some(tr), base);
            failed += f;
            attempted += jobs.len() as u64;
            if live_outputs.is_empty() {
                live_outputs = outs;
            }
        }
        passes += 1;
    }
    let jobs_per_cpu_s = closed_loop(&times.cpu, jobs.len()).0;
    m.put("jobs_per_cpu_s", jobs_per_cpu_s, "jobs/cpu-s");
    let wall = closed_loop_wall(&times.wall, jobs.len());
    let modeled = model::modeled(&jobs.iter().map(|j| (&j.a, &j.b)).collect::<Vec<_>>())?;
    m.put("sim_cycles_per_job", modeled.sim_cycles_per_job, "cycles");
    m.put("model_speedup_vs_sw_conv", modeled.speedup_vs_sw_conv, "x");
    let wall_ms = class_medians(&times.wall, jobs.len());
    let cpu_ms = class_medians(&times.cpu, jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        eprintln!(
            "pipeline: job {i} ({}) median {:.3} ms wall, {:.3} ms CPU: {}",
            job.class,
            wall_ms[i] * 1e3,
            cpu_ms[i] * 1e3,
            modeled.plans[i]
        );
    }
    eprintln!(
        "pipeline: {} timed jobs over {:.1} s ({passes} passes of {} jobs)",
        times.cpu.len(),
        secs(start),
        jobs.len()
    );

    let mut spans = None;
    if let Some(mut tr) = tracer {
        m.put(
            "bench.trace_overhead",
            jobs_per_cpu_s / closed_loop(&traced_times.cpu, jobs.len()).0,
            "x",
        );
        let c = sys.planner.cache.counters();
        m.put(
            "planner.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "fraction",
        );
        m.put("planner.evictions", c.evictions as f64, "count");
        m.put(
            "planner.searches_per_shape",
            c.misses as f64 / jobs.len() as f64,
            "count",
        );
        // Replay each job twice on a fresh system: the first pass misses
        // the plan cache (search), the second hits it (lookup).
        let mut replay = Replay::new(gen::bench_system());
        let mut rt = tr.fork();
        for round in 0..2u64 {
            for (i, job) in jobs.iter().enumerate() {
                let id = 1_000_000 + round * jobs.len() as u64 + i as u64;
                let replayed = replay.job(
                    &mut rt,
                    id,
                    Input::Operands {
                        a: &job.a,
                        b: &job.b,
                    },
                )?;
                if !bits_equal(&replayed.run.output, &live_outputs[i]) {
                    return Err(format!(
                        "replay of {} job {i} differs from the live run's output",
                        job.class
                    ));
                }
            }
        }
        replay.metrics(&rt, &mut m);
        tr.absorb(rt);
        spans = Some(tr);
    }
    m.put("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    Ok(RunOut {
        metrics: m,
        wall,
        attempted,
        failed,
        params: params(&jobs),
        spans,
    })
}
