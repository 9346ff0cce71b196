//! serve_hot: wire frames from three tenants into a live `FlexService`
//! with `nproc` workers.
//!
//! Two phases. A backlog phase submits a fixed backlog to a paused
//! service, resumes it and times the drain on the process CPU clock
//! (`jobs_per_cpu_s`) and the wall clock; it is repeated on fresh services
//! and the median kept. An open loop then sends frames at a fixed offered
//! rate well below saturation and times every job on the wall clock from
//! its *scheduled* send time (`latency_p50_ms`, `latency_p99_ms`).
//!
//! The load comes from two threads: the generator, which sleeps until
//! each due time (it never spins, so it does not take a core from the
//! two workers), and the collector, which observes completions and checks
//! every result frame against the software reference.

use crate::gen::{self, Frame, TENANTS};
use crate::model;
use crate::replay::{Input, Replay};
use crate::trace::Tracer;
use crate::util::{
    cpu_s, cpu_since, mean, median, nproc, quantile, repeat_setup, secs, windowed_p99, Metrics,
};
use crate::RunOut;
use sparseflex_core::PlanCache;
use sparseflex_serve::{wire, FlexService, JobOutcome, JobTicket, ServeConfig, ServeError};
use std::collections::{HashSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered open-loop rate, jobs/s: well below the 8.7k-14.5k jobs/s a
/// backlog drains at on two cores, where no backlog builds up.
pub const RATE: f64 = 3000.0;
/// Jobs in each backlog drain.
pub const BACKLOG: usize = 7200;
/// Admission bounds large enough that the offered load is never refused.
const ADMISSION_CAP: usize = 8192;
/// How often a drain polls for its last completion.
const DRAIN_POLL: Duration = Duration::from_millis(1);
/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPEATS: usize = 3;

/// Generated inputs: the frame pool, and the frame index sequences of the
/// open loop and of each backlog drain.
pub struct Inputs {
    pub frames: Vec<Frame>,
    pub open: Vec<usize>,
    pub backlog: Vec<usize>,
}

pub fn inputs(seed: u64, open_jobs: usize) -> Inputs {
    let frames = gen::hot_pool(seed);
    let n = frames.len();
    Inputs {
        open: (0..open_jobs).map(|i| i % n).collect(),
        backlog: (0..BACKLOG).map(|i| i % n).collect(),
        frames,
    }
}

pub fn config(paused: bool) -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        queue_capacity: ADMISSION_CAP,
        tenant_inflight_cap: ADMISSION_CAP,
        start_paused: paused,
        ..ServeConfig::default()
    }
}

fn start(paused: bool) -> FlexService {
    let service = FlexService::start(gen::bench_system(), config(paused)).expect("service starts");
    for (tenant, weight) in TENANTS {
        service.register_tenant(tenant, weight);
    }
    service
}

/// Decode a result frame and compare it with the job's reference.
fn correct(frame: &Frame, outcome: &JobOutcome) -> bool {
    wire::decode_result(&outcome.result_frame)
        .map(|r| r.job_id == outcome.job_id && r.output.approx_eq(&frame.reference, 1e-9))
        .unwrap_or(false)
}

/// Inputs plus a started, warmed service — everything before the first
/// timed job. Warm-up serves every frame once and drains one backlog on a
/// throw-away service, so the timed drains start from a warm process.
fn setup(seed: u64, open_jobs: usize) -> Result<(Inputs, FlexService), String> {
    let inputs = inputs(seed, open_jobs);
    let service = start(false);
    let tickets: Vec<(JobTicket, &Frame)> = inputs
        .frames
        .iter()
        .map(|f| {
            service
                .submit_frame(&f.bytes)
                .map(|t| (t, f))
                .map_err(|e| format!("warm-up submit refused: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for (t, f) in tickets {
        match t.wait() {
            Ok(o) if correct(f, &o) => {}
            _ => return Err("warm-up job failed or mismatched".into()),
        }
    }
    if drain(&inputs.frames, &inputs.backlog, None).failed > 0 {
        return Err("warm-up drain failed or mismatched".into());
    }
    Ok((inputs, service))
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct LoopOut {
    pub latencies_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub queue_wait_cycles: Vec<f64>,
    /// `(position in the sequence, job id, frame, result frame)`, kept
    /// for the replay check in traced runs.
    pub kept: Vec<(usize, u64, usize, Vec<u8>)>,
}

type Sent = (JobTicket, usize, usize, Instant);

/// Send `seq` at `rate` jobs/s and observe every completion. With a
/// tracer, `submit_frame` calls and submit→completion intervals become
/// spans and result frames are kept.
pub fn open_loop(
    service: &FlexService,
    frames: &[Frame],
    seq: &[usize],
    rate: f64,
    mut tracer: Option<&mut Tracer>,
) -> LoopOut {
    let traced = tracer.is_some();
    let (tx, rx) = mpsc::channel::<Sent>();
    let t0 = Instant::now() + Duration::from_millis(5);
    let (mut out, collector_spans) = std::thread::scope(|s| {
        let collector = s.spawn(move || collect(rx, frames, traced));
        let mut late_ms = Vec::with_capacity(seq.len());
        let mut refused = 0u64;
        for (i, &f) in seq.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let submitted = match tracer.as_deref_mut() {
                Some(tr) => tr.span("serve.submit_frame", i as u64, || {
                    service.submit_frame(&frames[f].bytes)
                }),
                None => service.submit_frame(&frames[f].bytes),
            };
            match submitted {
                Ok(t) => tx.send((t, i, f, due)).expect("collector is alive"),
                Err(_) => refused += 1,
            }
        }
        drop(tx);
        let (mut out, spans) = collector.join().expect("collector thread");
        out.late_ms = late_ms;
        out.failed += refused;
        (out, spans)
    });
    out.attempted = seq.len() as u64;
    if let Some(tr) = tracer {
        // The collector's spans share the tracer's clock origin.
        for (job, start, end) in collector_spans {
            tr.record("serve.job", job, tr.ns_at(start), tr.ns_at(end));
        }
    }
    out
}

/// The collector: sweep outstanding tickets without blocking, and block
/// on the oldest only when none has completed.
fn collect(
    rx: mpsc::Receiver<Sent>,
    frames: &[Frame],
    traced: bool,
) -> (LoopOut, Vec<(u64, Instant, Instant)>) {
    let mut out = LoopOut::default();
    let mut job_spans = Vec::new();
    let mut pending: VecDeque<Sent> = VecDeque::new();
    let mut complete = |res: Result<JobOutcome, ServeError>, i: usize, f: usize, due: Instant| {
        let now = Instant::now();
        out.latencies_ms
            .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
        if traced {
            job_spans.push((i as u64, due, now));
        }
        match res {
            Ok(o) => {
                if !correct(&frames[f], &o) {
                    out.failed += 1;
                }
                out.queue_wait_cycles.push(o.queue_wait_cycles as f64);
                if traced {
                    out.kept.push((i, o.job_id, f, o.result_frame));
                }
            }
            Err(_) => out.failed += 1,
        }
    };
    loop {
        if pending.is_empty() {
            match rx.recv() {
                Ok(sent) => pending.push_back(sent),
                Err(_) => break,
            }
        }
        while let Ok(sent) = rx.try_recv() {
            pending.push_back(sent);
        }
        let mut progressed = false;
        let mut k = 0;
        while k < pending.len() {
            match pending[k].0.try_wait() {
                Some(res) => {
                    let (_, i, f, due) = pending.remove(k).expect("index in range");
                    complete(res, i, f, due);
                    progressed = true;
                }
                None => k += 1,
            }
        }
        if !progressed {
            if let Some((t, i, f, due)) = pending.pop_front() {
                complete(t.wait(), i, f, due);
            }
        }
    }
    (out, job_spans)
}

/// What one backlog drain measured.
struct Drain {
    /// Jobs ÷ wall seconds from `resume` to the last completion.
    rate: f64,
    /// Jobs ÷ process CPU seconds over the same interval.
    cpu_rate: f64,
    /// Jobs ÷ process CPU seconds from the first submit to the last
    /// completion: the interval that holds the traced `submit_frame` spans.
    cpu_rate_from_submit: f64,
    failed: u64,
}

/// Submit `backlog` to a paused fresh service, resume, and time the drain.
fn drain(frames: &[Frame], backlog: &[usize], mut tracer: Option<&mut Tracer>) -> Drain {
    let service = start(true);
    let mut failed = 0u64;
    let first_submit = cpu_s();
    let mut tickets = Vec::with_capacity(backlog.len());
    for (i, &f) in backlog.iter().enumerate() {
        let r = match tracer.as_deref_mut() {
            Some(tr) => tr.span("serve.submit_frame", i as u64, || {
                service.submit_frame(&frames[f].bytes)
            }),
            None => service.submit_frame(&frames[f].bytes),
        };
        match r {
            Ok(t) => tickets.push((t, f)),
            Err(_) => failed += 1,
        }
    }
    // The submitting thread sleeps while the workers drain, so it does not
    // compete with them for the two cores; completion is polled every
    // DRAIN_POLL (a bounded error on a drain of several hundred ms).
    let before = service.stats().jobs_completed;
    let (t0, c0) = (Instant::now(), cpu_s());
    service.resume();
    while service.stats().jobs_completed - before < tickets.len() as u64 {
        std::thread::sleep(DRAIN_POLL);
    }
    let elapsed = secs(t0);
    let cpu = cpu_since(c0);
    let cpu_from_submit = cpu_since(first_submit);
    let done = tickets.len() as f64;
    for (t, f) in tickets {
        if !matches!(t.wait(), Ok(ref o) if correct(&frames[f], o)) {
            failed += 1;
        }
    }
    service.shutdown();
    Drain {
        rate: done / elapsed,
        cpu_rate: done / cpu,
        cpu_rate_from_submit: done / cpu_from_submit,
        failed,
    }
}

pub fn params(inputs: &Inputs) -> Vec<(&'static str, String)> {
    let distinct: HashSet<usize> = inputs.open.iter().copied().collect();
    let cfg = config(false);
    vec![
        ("offered_rate_jobs_per_s", RATE.to_string()),
        ("open_loop_jobs", inputs.open.len().to_string()),
        ("distinct_open_frames", distinct.len().to_string()),
        ("backlog_jobs", BACKLOG.to_string()),
        ("workers", cfg.workers.to_string()),
        ("cache_capacity", cfg.cache_capacity.to_string()),
        ("cache_shards", cfg.cache_shards.to_string()),
        ("dispatch_batch", cfg.dispatch_batch.to_string()),
        ("tenants_weights", "1:1,2:2,3:4".into()),
        ("shapes", format!("{:?}", gen::HOT_SHAPES)),
        ("wire_formats", gen::WIRE_FORMATS.map(|(n, _)| n).join(",")),
    ]
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunOut, String> {
    let open_secs = seconds * if trace { 0.3 } else { 0.25 };
    let open_jobs = (RATE * open_secs).round().max(1.0) as usize;
    let ((inputs, service), setup_s) = repeat_setup(SETUP_REPEATS, || setup(seed, open_jobs))?;
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    let run_start = Instant::now();
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Backlog drains on fresh services; traced runs alternate traced and
    // untraced drains for the overhead ratio.
    let drain_budget = seconds * if trace { 0.25 } else { 0.7 };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut drain_tracer = Tracer::new(Instant::now());
    while plain.len() < 3 || (secs(run_start) < drain_budget && plain.len() < 40) {
        let d = drain(&inputs.frames, &inputs.backlog, None);
        failed += d.failed;
        attempted += inputs.backlog.len() as u64;
        plain.push(d);
        if trace {
            let d = drain(&inputs.frames, &inputs.backlog, Some(&mut drain_tracer));
            failed += d.failed;
            attempted += inputs.backlog.len() as u64;
            traced.push(d);
        }
    }
    let rates = |ds: &[Drain], f: fn(&Drain) -> f64| ds.iter().map(f).collect::<Vec<f64>>();
    let drain_rates = rates(&plain, |d| d.rate);
    let cpu_rates = rates(&plain, |d| d.cpu_rate);
    eprintln!("serve: drain jobs/s {drain_rates:.0?}, jobs/cpu-s {cpu_rates:.0?}");

    let before = service.stats();
    let lp = open_loop(
        &service,
        &inputs.frames,
        &inputs.open,
        RATE,
        tracer.as_mut(),
    );
    let after = service.stats();
    let clock_hz = service.system().sage.accel.clock_hz;
    service.shutdown();
    attempted += lp.attempted;
    failed += lp.failed;
    let measured_s = secs(run_start);
    eprintln!(
        "serve: latency quantiles p90..p99.9 {:.3?} ms",
        [0.9, 0.95, 0.98, 0.99, 0.995, 0.999].map(|q| quantile(&lp.latencies_ms, q))
    );
    eprintln!(
        "serve: generator late p50 {:.3} p99 {:.3} ms",
        quantile(&lp.late_ms, 0.5),
        quantile(&lp.late_ms, 0.99)
    );

    m.put("jobs_per_cpu_s", median(&cpu_rates), "jobs/cpu-s");
    let mut wall = Metrics::default();
    wall.put("jobs_per_s", median(&drain_rates), "jobs/s");
    wall.put("latency_p50_ms", median(&lp.latencies_ms), "ms");
    wall.put("latency_p99_ms", windowed_p99(&lp.latencies_ms), "ms");
    let modeled = model::modeled(
        &inputs
            .frames
            .iter()
            .map(|f| (&f.a, &f.b))
            .collect::<Vec<_>>(),
    )?;
    m.put("sim_cycles_per_job", modeled.sim_cycles_per_job, "cycles");
    m.put("model_speedup_vs_sw_conv", modeled.speedup_vs_sw_conv, "x");
    eprintln!(
        "serve: open loop {} jobs at {}/s over {open_secs:.1} s ({} latency samples), {} drains of {} jobs, {measured_s:.1} s measured",
        inputs.open.len(),
        RATE,
        lp.latencies_ms.len(),
        plain.len() + traced.len(),
        inputs.backlog.len(),
    );

    let mut spans = None;
    if let Some(mut tr) = tracer {
        let delta = |f: fn(&sparseflex_serve::ServiceStats) -> u64| f(&after) - f(&before);
        let completed = delta(|s| s.jobs_completed).max(1) as f64;
        let hits = delta(|s| s.cache.hits) as f64;
        let misses = delta(|s| s.cache.misses) as f64;
        let distinct: HashSet<usize> = inputs.open.iter().copied().collect();
        let to_us = |c: f64| c / clock_hz * 1e6;
        m.put("serve.latency_p50_ms", median(&lp.latencies_ms), "ms");
        m.put("serve.latency_p99_ms", windowed_p99(&lp.latencies_ms), "ms");
        m.put(
            "serve.submit_us.p50",
            tr.median_us("serve.submit_frame"),
            "us",
        );
        m.put(
            "serve.queue_wait_us.p50",
            to_us(quantile(&lp.queue_wait_cycles, 0.5)),
            "us",
        );
        m.put(
            "serve.queue_wait_us.p99",
            to_us(quantile(&lp.queue_wait_cycles, 0.99)),
            "us",
        );
        m.put(
            "serve.stolen_frac",
            delta(|s| s.jobs_stolen) as f64 / completed,
            "fraction",
        );
        m.put("serve.rejected", delta(|s| s.jobs_rejected) as f64, "count");
        m.put(
            "serve.cache_contended",
            delta(|s| s.cache_contended) as f64,
            "count",
        );
        m.put(
            "planner.hit_ratio",
            hits / (hits + misses).max(1.0),
            "fraction",
        );
        m.put(
            "planner.evictions",
            delta(|s| s.cache.evictions) as f64,
            "count",
        );
        m.put(
            "planner.searches_per_shape",
            misses / distinct.len().max(1) as f64,
            "count",
        );
        m.put(
            "wire.job_bytes",
            mean(
                &inputs
                    .open
                    .iter()
                    .map(|&f| inputs.frames[f].bytes.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        );
        m.put(
            "wire.result_bytes",
            mean(&lp.kept.iter().map(|k| k.3.len() as f64).collect::<Vec<_>>()),
            "bytes",
        );
        m.put(
            "bench.generator_late_ms.p99",
            quantile(&lp.late_ms, 0.99),
            "ms",
        );
        m.put(
            "bench.trace_overhead",
            median(&rates(&plain, |d| d.cpu_rate_from_submit))
                / median(&rates(&traced, |d| d.cpu_rate_from_submit)),
            "x",
        );

        // Replay every live job, in submission order, on one thread
        // against a fresh system configured like the service's.
        let cfg = config(false);
        let mut sys = gen::bench_system();
        sys.planner.cache = PlanCache::with_shards(cfg.cache_capacity, cfg.cache_shards);
        let mut replay = Replay::new(sys);
        let mut rt = tr.fork();
        let mut kept = lp.kept;
        kept.sort_by_key(|k| k.0);
        for (i, job_id, f, served) in &kept {
            let replayed = replay.job(
                &mut rt,
                *i as u64,
                Input::Frame {
                    bytes: &inputs.frames[*f].bytes,
                    job_id: *job_id,
                },
            )?;
            if replayed.result_frame.as_deref() != Some(served.as_slice()) {
                return Err(format!(
                    "replay of job {job_id} produced a different result frame than the service"
                ));
            }
            rt.span("wire.decode_result", *i as u64, || {
                wire::decode_result(served)
            })
            .map_err(|e| format!("decode_result: {e}"))?;
        }
        replay.metrics(&rt, &mut m);
        m.put("wire.decode_job_us", rt.median_us("wire.decode_job"), "us");
        m.put(
            "wire.encode_result_us",
            rt.median_us("wire.encode_result"),
            "us",
        );
        m.put(
            "wire.decode_result_us",
            rt.median_us("wire.decode_result"),
            "us",
        );
        tr.absorb(rt);
        spans = Some(tr);
    }
    m.put("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    Ok(RunOut {
        metrics: m,
        wall,
        attempted,
        failed,
        params: params(&inputs),
        spans,
    })
}
