//! Runs every figure/table generator and writes `results/<name>.csv`.
//!
//! `--warm-start[=PATH]` (or env `SPARSEFLEX_WARM_START=PATH`, `=1` for
//! the default path) replays the executed-plan traces stored at
//! `results/traces.json` into the serving exhibit's calibrator before
//! traffic, so the worker pool resumes from the previous run's
//! calibration instead of cold-starting.
use std::fs;

// Counting allocator so the kernels exhibit's BENCH_kernels.json carries
// real steady-state allocation counts (one relaxed atomic increment per
// allocation; no effect on any other exhibit's measurements).
#[global_allocator]
static ALLOC: sparseflex_bench::allocs::CountingAllocator =
    sparseflex_bench::allocs::CountingAllocator;

/// A named figure/table generator.
type Job = (&'static str, fn() -> Vec<String>);

/// Resolve the warm-start trace file from `--warm-start[=PATH]` /
/// `SPARSEFLEX_WARM_START`, if requested.
fn warm_start_path() -> Option<std::path::PathBuf> {
    for arg in std::env::args().skip(1) {
        if arg == "--warm-start" {
            return Some("results/traces.json".into());
        }
        if let Some(p) = arg.strip_prefix("--warm-start=") {
            return Some(p.into());
        }
    }
    match std::env::var("SPARSEFLEX_WARM_START") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Some("results/traces.json".into()),
        Ok(v) if !v.is_empty() && v != "0" => Some(v.into()),
        _ => None,
    }
}

fn main() -> std::io::Result<()> {
    let dir = std::path::Path::new("results");
    fs::create_dir_all(dir)?;
    let warm_traces: Option<Vec<sparseflex_core::StoredTrace>> = match warm_start_path() {
        Some(path) => match sparseflex_core::read_traces(&path) {
            Ok(traces) => {
                eprintln!(
                    "warm-start: {} traces from {}",
                    traces.len(),
                    path.display()
                );
                Some(traces)
            }
            Err(e) => {
                eprintln!(
                    "warm-start: cannot read {}: {e} (cold start)",
                    path.display()
                );
                None
            }
        },
        None => None,
    };
    let jobs: Vec<Job> = vec![
        ("fig04", sparseflex_bench::fig04::rows),
        ("fig05", sparseflex_bench::fig05::rows),
        ("fig06", sparseflex_bench::fig06::rows),
        ("fig07", sparseflex_bench::fig07::rows),
        ("fig09", sparseflex_bench::fig09::rows),
        ("fig10", sparseflex_bench::fig10::rows),
        ("fig11", sparseflex_bench::fig11::rows),
        ("fig12", sparseflex_bench::fig12::rows),
        ("fig13", sparseflex_bench::fig13::rows),
        ("fig14", sparseflex_bench::fig14::rows),
        ("table1", sparseflex_bench::table1::rows),
        ("table2", sparseflex_bench::table2::rows),
        ("table3", sparseflex_bench::table3::rows),
        ("fig05_measured", sparseflex_bench::fig05_measured::rows),
        ("ablation", sparseflex_bench::ablation::rows),
    ];
    for (name, job) in jobs {
        eprintln!("generating {name} ...");
        let rows = job();
        fs::write(dir.join(format!("{name}.csv")), rows.join("\n") + "\n")?;
    }
    // The pipeline exhibit is measured once and rendered twice: the CSV
    // series alongside the other exhibits, and the machine-readable perf
    // snapshot CI uploads so the trajectory is tracked across PRs.
    eprintln!("generating pipeline + BENCH_pipeline.json ...");
    let measured = sparseflex_bench::pipeline::measure();
    fs::write(
        dir.join("pipeline.csv"),
        sparseflex_bench::pipeline::rows_from(&measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_pipeline.json"),
        sparseflex_bench::pipeline::json_from(&measured) + "\n",
    )?;
    // The planner exhibit follows the same pattern: one measurement,
    // rendered as the CSV series and the JSON perf snapshot.
    eprintln!("generating planner + BENCH_planner.json ...");
    let planner_measured = sparseflex_bench::planner::measure();
    fs::write(
        dir.join("planner.csv"),
        sparseflex_bench::planner::rows_from(&planner_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_planner.json"),
        sparseflex_bench::planner::json_from(&planner_measured) + "\n",
    )?;
    // Calibration exhibit: the calibration error trajectory, as CSV +
    // JSON snapshot.
    eprintln!("generating calibration + BENCH_calibration.json ...");
    let calibration_measured = sparseflex_bench::calibration::measure();
    fs::write(
        dir.join("calibration.csv"),
        sparseflex_bench::calibration::rows_from(&calibration_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_calibration.json"),
        sparseflex_bench::calibration::json_from(&calibration_measured) + "\n",
    )?;
    // Persist the calibration rounds' executed-plan traces so a later
    // process can warm-start its calibrator from this traffic.
    sparseflex_core::write_traces(&dir.join("traces.json"), &calibration_measured.traces)?;
    // Serving exhibit: multi-tenant throughput through the wire format
    // plus the plan-cache sharding comparison.
    eprintln!("generating serving + BENCH_serving.json ...");
    let serving_measured = sparseflex_bench::serving::measure_with(warm_traces.as_deref());
    fs::write(
        dir.join("serving.csv"),
        sparseflex_bench::serving::rows_from(&serving_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_serving.json"),
        sparseflex_bench::serving::json_from(&serving_measured) + "\n",
    )?;
    // Streaming-kernel exhibit: zero-alloc steady-state evidence plus
    // the stream-vs-fast-path overhead, measured once, rendered as CSV
    // and the JSON snapshot the kernels_gate CI step prices.
    eprintln!("generating kernels + BENCH_kernels.json ...");
    let kernels_measured = sparseflex_bench::kernels::measure();
    fs::write(
        dir.join("kernels.csv"),
        sparseflex_bench::kernels::rows_from(&kernels_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_kernels.json"),
        sparseflex_bench::kernels::json_from(&kernels_measured) + "\n",
    )?;
    // Parallel-streaming exhibit: sequential/parallel bit-identity and
    // per-worker arena behaviour across every format, with honest wall
    // times at forced worker counts (speedups are informational — the
    // snapshot records the core count they were taken under).
    eprintln!("generating parallel + BENCH_parallel.json ...");
    let parallel_measured = sparseflex_bench::parallel::measure();
    fs::write(
        dir.join("parallel.csv"),
        sparseflex_bench::parallel::rows_from(&parallel_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_parallel.json"),
        sparseflex_bench::parallel::json_from(&parallel_measured) + "\n",
    )?;
    eprintln!(
        "wrote results/*.csv + results/BENCH_pipeline.json + results/BENCH_planner.json \
         + results/BENCH_calibration.json + results/BENCH_serving.json + results/BENCH_kernels.json \
         + results/BENCH_parallel.json"
    );
    Ok(())
}
