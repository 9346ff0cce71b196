//! Pipeline exhibit — overlapped vs serial vs batched execution of the
//! tile-grained runtime (the end-to-end measurement of the paper's
//! "conversion overlaps with streaming" claim, plus the batch serving
//! throughput the ROADMAP asks for).
//!
//! [`rows`] emits the CSV series like every other exhibit;
//! [`snapshot_json`] renders the same measurements as the
//! machine-readable `results/BENCH_pipeline.json` perf snapshot that CI
//! uploads, so the perf trajectory is tracked across PRs.

use sparseflex_core::{BatchJob, FlexSystem, PipelineRun, PlanDiscipline};
use sparseflex_formats::{DataType, MatrixFormat, SparseMatrix};
use sparseflex_sage::{FormatChoice, SageWorkload};
use sparseflex_workloads::synth::random_matrix;

/// One measured pipeline workload.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Workload label (Fig. 12-class scaled shapes).
    pub name: &'static str,
    /// Stationary column tiles executed.
    pub tiles: usize,
    /// Total MINT conversion cycles (A prologue + every B tile).
    pub conv_cycles: u64,
    /// Total accelerator compute cycles.
    pub compute_cycles: u64,
    /// Double-buffered wall-clock total.
    pub overlapped_cycles: u64,
    /// Serial convert-then-compute total.
    pub serial_cycles: u64,
}

impl PipelinePoint {
    /// Serial-over-overlapped speedup.
    pub fn speedup(&self) -> f64 {
        self.serial_cycles as f64 / self.overlapped_cycles.max(1) as f64
    }
}

/// Batch front-end measurement.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Jobs served.
    pub jobs: usize,
    /// Distinct workload shapes among them.
    pub distinct_shapes: usize,
    /// SAGE searches skipped via the plan cache.
    pub plan_cache_hits: u64,
    /// Modeled single-instance service cycles (sum of overlapped totals).
    pub total_overlapped_cycles: u64,
}

/// The measurement system: Fig. 6-class array scaled so the exhibit
/// workloads span several stationary residencies.
pub fn bench_system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

/// The Fig. 12-class scaled workloads: same density classes as journals /
/// speech2 / m3plates, shrunk so the cycle-accurate simulator stays
/// bench-fast.
fn exhibit_operands() -> Vec<(&'static str, usize, usize, usize, usize, usize)> {
    // (name, m, k, n, nnz_a, nnz_b)
    vec![
        ("journals_scaled", 40, 40, 48, 1_200, 1_500),
        ("speech2_scaled", 77, 26, 76, 500, 480),
        ("m3plates_scaled", 110, 110, 128, 130, 140),
    ]
}

/// Run prebuilt operands through the pipelined runtime with a
/// conversion-bearing format choice (MCF COO → ACF CSC for the stationary
/// operand, so every tile exercises MINT).
fn exhibit_run(
    sys: &FlexSystem,
    a: &sparseflex_formats::CooMatrix,
    b: &sparseflex_formats::CooMatrix,
) -> PipelineRun {
    let w = SageWorkload::spgemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.nnz() as u64,
        b.nnz() as u64,
        DataType::Fp32,
    );
    let choice = FormatChoice {
        mcf_a: MatrixFormat::Csr,
        mcf_b: MatrixFormat::Coo,
        acf_a: MatrixFormat::Csr,
        acf_b: MatrixFormat::Csc,
    };
    sys.run(a, b, &w, Some(&choice), PlanDiscipline::Pipelined)
        .expect("exhibit workload runs")
}

/// Generate one exhibit workload's operands and run it (see
/// [`exhibit_run`]).
fn run_exhibit(
    sys: &FlexSystem,
    m: usize,
    k: usize,
    n: usize,
    nnz_a: usize,
    nnz_b: usize,
    seed: u64,
) -> PipelineRun {
    let a = random_matrix(m, k, nnz_a, seed);
    let b = random_matrix(k, n, nnz_b, seed + 1);
    exhibit_run(sys, &a, &b)
}

/// Measure every exhibit workload.
fn measure_pipeline() -> Vec<PipelinePoint> {
    let sys = bench_system();
    exhibit_operands()
        .into_iter()
        .enumerate()
        .map(|(i, (name, m, k, n, nnz_a, nnz_b))| {
            let run = run_exhibit(&sys, m, k, n, nnz_a, nnz_b, 100 + i as u64);
            PipelinePoint {
                name,
                tiles: run.tiles.len(),
                conv_cycles: run.conversion_cycles(),
                compute_cycles: run.compute_cycles(),
                overlapped_cycles: run.overlapped_cycles(),
                serial_cycles: run.serial_cycles(),
            }
        })
        .collect()
}

/// The batch exhibit: 12 jobs over the 3 exhibit shapes served through
/// `run_batch`.
fn batch_jobs() -> Vec<BatchJob> {
    let mut jobs = Vec::new();
    for round in 0..4u64 {
        for (i, (_, m, k, n, nnz_a, nnz_b)) in exhibit_operands().into_iter().enumerate() {
            jobs.push(BatchJob::spgemm(
                random_matrix(m, k, nnz_a, 200 + round * 10 + i as u64),
                random_matrix(k, n, nnz_b, 300 + round * 10 + i as u64),
                DataType::Fp32,
            ));
        }
    }
    jobs
}

/// Measure the batch front-end.
fn measure_batch() -> BatchPoint {
    let sys = bench_system();
    let jobs = batch_jobs();
    let batch = sys.run_batch(&jobs);
    assert_eq!(batch.succeeded(), jobs.len(), "every batch job must run");
    BatchPoint {
        jobs: jobs.len(),
        distinct_shapes: exhibit_operands().len(),
        plan_cache_hits: batch.plan_cache_hits,
        total_overlapped_cycles: batch.total_overlapped_cycles(),
    }
}

/// One full measurement of the exhibit (pipeline points + batch): taken
/// once and rendered to both the CSV rows and the JSON snapshot, so
/// `run_all` does not simulate everything twice.
#[derive(Debug, Clone)]
pub struct PipelineMeasurement {
    /// Per-workload pipeline measurements.
    pub points: Vec<PipelinePoint>,
    /// The batch front-end measurement.
    pub batch: BatchPoint,
}

/// Measure the whole exhibit once.
pub fn measure() -> PipelineMeasurement {
    PipelineMeasurement {
        points: measure_pipeline(),
        batch: measure_batch(),
    }
}

/// CSV rows (the `results/pipeline.csv` exhibit).
pub fn rows() -> Vec<String> {
    rows_from(&measure())
}

/// Render a measurement as the CSV exhibit.
pub fn rows_from(m: &PipelineMeasurement) -> Vec<String> {
    let mut out = vec![
        "# pipeline overlapped vs serial execution + batch serving".to_string(),
        "workload,tiles,conv_cycles,compute_cycles,overlapped_cycles,serial_cycles,speedup"
            .to_string(),
    ];
    for p in &m.points {
        out.push(format!(
            "{},{},{},{},{},{},{:.4}",
            p.name,
            p.tiles,
            p.conv_cycles,
            p.compute_cycles,
            p.overlapped_cycles,
            p.serial_cycles,
            p.speedup()
        ));
    }
    let b = &m.batch;
    out.push(String::new());
    out.push("# batch front-end (run_batch over the exhibit shapes)".to_string());
    out.push("jobs,distinct_shapes,plan_cache_hits,total_overlapped_cycles".to_string());
    out.push(format!(
        "{},{},{},{}",
        b.jobs, b.distinct_shapes, b.plan_cache_hits, b.total_overlapped_cycles
    ));
    out
}

/// The machine-readable perf snapshot (`results/BENCH_pipeline.json`).
pub fn snapshot_json() -> String {
    json_from(&measure())
}

/// Render a measurement as the JSON perf snapshot.
pub fn json_from(m: &PipelineMeasurement) -> String {
    let points = &m.points;
    let batch = &m.batch;
    let mut json = String::from("{\n  \"workloads\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"tiles\": {}, \"conv_cycles\": {}, \
             \"compute_cycles\": {}, \"overlapped_cycles\": {}, \"serial_cycles\": {}, \
             \"speedup\": {:.4}}}{}\n",
            p.name,
            p.tiles,
            p.conv_cycles,
            p.compute_cycles,
            p.overlapped_cycles,
            p.serial_cycles,
            p.speedup(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"batch\": {{\"jobs\": {}, \"distinct_shapes\": {}, \
         \"plan_cache_hits\": {}, \"total_overlapped_cycles\": {}}}\n",
        batch.jobs, batch.distinct_shapes, batch.plan_cache_hits, batch.total_overlapped_cycles
    ));
    json.push('}');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_strictly_beats_serial_on_every_exhibit_workload() {
        // The acceptance bar, priced where CI can see it: on the
        // Fig. 12-class exhibit shapes the overlapped total is strictly
        // below the serial convert-then-compute total.
        for p in measure_pipeline() {
            assert!(p.tiles >= 2, "{}: too few tiles ({})", p.name, p.tiles);
            assert!(
                p.overlapped_cycles < p.serial_cycles,
                "{}: overlapped {} !< serial {}",
                p.name,
                p.overlapped_cycles,
                p.serial_cycles
            );
            assert!(p.speedup() > 1.0);
        }
    }

    #[test]
    fn batch_point_hits_the_plan_cache() {
        let b = measure_batch();
        assert_eq!(b.jobs, 12);
        // 12 jobs over 3 shapes: at least the 2nd..4th rounds of each
        // shape must reuse a cached plan (racing first rounds may miss).
        assert!(b.plan_cache_hits >= 6, "only {} hits", b.plan_cache_hits);
        assert!(b.total_overlapped_cycles > 0);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let json = snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workloads\""));
        assert!(json.contains("\"batch\""));
        assert!(json.contains("journals_scaled"));
        // Balanced braces/brackets (hand-rolled JSON stays parseable).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
