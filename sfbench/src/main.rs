//! The sparseflex benchmark: end-to-end metrics per workload, and a
//! separate traced run for per-layer metrics.
//!
//! ```text
//! sfbench --workload <serve_hot|pipeline_large|kernels_formats|all>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; every output is checked. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). A mismatch exits with code 1; a
//! traced replay that did different work aborts with code 2 and prints
//! no result. Traced runs also write every span to
//! `.bench_trace/<workload>-seed<n>.json`.

#[cfg(test)]
mod determinism;
mod gen;
mod kernels;
mod model;
mod pipeline;
mod replay;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;
use util::{host_record, result_line, Metrics};

/// The workloads `BENCHMARK.json` lists and `--workload all` runs.
pub const WORKLOADS: [&str; 3] = ["serve_hot", "pipeline_large", "kernels_formats"];

/// What one workload run measured.
pub struct RunOut {
    pub metrics: Metrics,
    /// Wall-clock figures, printed on their own lines and kept out of the
    /// result line: on a VM that loses up to ~40% of its CPU to steal they
    /// cannot hold the benchmark's bounds.
    pub wall: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub params: Vec<(&'static str, String)>,
    pub spans: Option<trace::Tracer>,
}

/// End-to-end metrics, printed by every untraced run. Timings are on the
/// process CPU clock (`util::cpu_s`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_cpu_s", "jobs/cpu-s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_job", "cycles"),
    ("model_speedup_vs_sw_conv", "x"),
];

/// Wall-clock diagnostics every run prints: see `RunOut::wall`.
pub const WALL: [(&str, &str); 3] = [
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics other than the per-kernel ones, printed by every
/// traced run.
const LAYERS: [(&str, &str); 35] = [
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.stolen_frac", "fraction"),
    ("serve.rejected", "count"),
    ("serve.cache_contended", "count"),
    ("wire.decode_job_us", "us"),
    ("wire.encode_result_us", "us"),
    ("wire.decode_result_us", "us"),
    ("wire.job_bytes", "bytes"),
    ("wire.result_bytes", "bytes"),
    ("planner.lookup_us", "us"),
    ("planner.search_us", "us"),
    ("sage.candidates", "count"),
    ("planner.hit_ratio", "fraction"),
    ("planner.evictions", "count"),
    ("planner.searches_per_shape", "count"),
    ("planner.plan_us", "us"),
    ("planner.execute_us", "us"),
    ("planner.tiles_per_job", "count"),
    ("planner.tile_parallelism", "x"),
    ("formats.to_coo_us", "us"),
    ("formats.encode_us", "us"),
    ("formats.tile_us", "us"),
    ("formats.csr_view_us", "us"),
    ("mint.convert_us", "us"),
    ("mint.conversions_per_job", "count"),
    ("mint.conv_cycles_per_job", "cycles"),
    ("accel.simulate_us", "us"),
    ("accel.compute_cycles_per_job", "cycles"),
    ("accel.host_ns_per_sim_cycle", "ns/cycle"),
    ("bench.generator_late_ms.p99", "ms"),
    ("bench.trace_overhead", "x"),
];

fn catalogue(table: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    table.iter().map(|(n, u)| (n.to_string(), *u)).collect()
}

pub fn end_to_end() -> Vec<(String, &'static str)> {
    catalogue(&END_TO_END)
}

/// Every per-layer metric name and unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = catalogue(&LAYERS);
    for call in kernels::call_list() {
        out.push((format!("{}_ms", call.name()), "ms"));
    }
    for kernel in kernels::MATRIX_KERNELS
        .iter()
        .chain(&kernels::TENSOR_KERNELS)
    {
        out.push((format!("kernels.{kernel}.par_speedup"), "x"));
    }
    for label in ["csr", "coo"] {
        out.push((format!("kernels.spmm.stream_over_fast.{label}"), "x"));
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<RunOut, String> {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "serve_hot" => serve::run(seed, secs, trace),
        "pipeline_large" => pipeline::run(seed, secs, trace),
        _ => kernels::run(seed, secs, trace),
    }
}

/// `--workload all`: each workload in its own process (so each reports
/// its own peak memory), one after another.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("sfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.to_string()
            } else {
                value
            });
        }
        println!("== {w}");
        let status = std::process::Command::new(&exe).args(&child_args).status();
        let code = match status {
            Ok(s) => s.code().unwrap_or(2),
            Err(e) => {
                eprintln!("sfbench: {w}: {e}");
                2
            }
        };
        worst = worst.max(u8::try_from(code).unwrap_or(2));
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sfbench: {}: aborted: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let mut params = out.params.clone();
    params.push(("seconds", args.seconds.to_string()));
    params.push(("trace", u8::from(args.trace).to_string()));
    let host = host_record(&args.workload, args.seed, &params);
    println!("host {host}");
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} fraction ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let chosen = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let selected = out.metrics.select(&chosen);
    for (name, value, unit) in &selected.0 {
        println!("{name} = {value} {unit}");
    }
    for (name, value, unit) in &out.wall.select(&catalogue(&WALL)).0 {
        println!("wall-clock (not a metric) {name} = {value} {unit}");
    }
    if let Some(spans) = &out.spans {
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, spans.to_json(&host)));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("sfbench: could not write {path}: {e}"),
        }
        for (name, (n, total, own)) in spans.summary() {
            eprintln!("span {name:<32} n={n:<7} total={total:>12.1} us  self={own:>12.1} us");
        }
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &selected)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
