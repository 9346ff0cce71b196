//! Runs every figure/table generator and writes `results/<name>.csv`.
use std::fs;

// Counting allocator so the kernels exhibit's BENCH_kernels.json carries
// real steady-state allocation counts (one relaxed atomic increment per
// allocation; no effect on any other exhibit's measurements).
#[global_allocator]
static ALLOC: sparseflex_bench::allocs::CountingAllocator =
    sparseflex_bench::allocs::CountingAllocator;

/// A named figure/table generator.
type Job = (&'static str, fn() -> Vec<String>);

fn main() -> std::io::Result<()> {
    let dir = std::path::Path::new("results");
    fs::create_dir_all(dir)?;
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
        ("fig10_measured", sparseflex_bench::fig10::measured_rows),
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
    // Streaming-kernel exhibit: zero-alloc steady-state evidence plus
    // the stream-vs-fast-path overhead, measured once, rendered as the
    // host-independent CSV, the wall-clock CSV and the JSON snapshot the
    // kernels_gate CI step prices.
    eprintln!("generating kernels + kernels_measured + BENCH_kernels.json ...");
    let kernels_measured = sparseflex_bench::kernels::measure();
    fs::write(
        dir.join("kernels.csv"),
        sparseflex_bench::kernels::rows_from(&kernels_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("kernels_measured.csv"),
        sparseflex_bench::kernels::measured_rows_from(&kernels_measured).join("\n") + "\n",
    )?;
    fs::write(
        dir.join("BENCH_kernels.json"),
        sparseflex_bench::kernels::json_from(&kernels_measured) + "\n",
    )?;
    eprintln!(
        "wrote results/*.csv + results/BENCH_pipeline.json + results/BENCH_calibration.json \
         + results/BENCH_kernels.json"
    );
    Ok(())
}
