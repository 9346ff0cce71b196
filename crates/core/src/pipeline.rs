//! The tile-grained run record and the batched front-end over the
//! planner layer.
//!
//! A [`PlanDiscipline::Pipelined`] plan cuts the stationary operand into
//! scratchpad-sized column tiles, and the shared executor
//! ([`execute_plan`](crate::planner::Planner::execute_plan)) has MINT
//! convert tile *t+1* while the array computes tile *t*
//! (double-buffered). Every run — monolithic (one tile) or pipelined —
//! yields a [`PipelineRun`], which reports both the overlapped and serial
//! cycle totals, so the paper's "conversion is cheap because it overlaps"
//! claim is measured end-to-end rather than assumed. It is also the one
//! predicted-vs-measured record: its tiles are measured against the
//! plan's per-tile prediction, and that comparison feeds the calibrator.
//!
//! Tiling also lifts the residency limit: a stationary operand whose
//! compressed rows overflow a PE buffer (the recoverable
//! [`RunError::StationaryTooLarge`]) is split until every stationary
//! unit fits, so workloads a monolithic plan rejects run here.
//!
//! One job's tiles run in schedule order on the thread that executes the
//! job: as in the paper, one array streams a job's tiles, and the
//! convert∥compute overlap is modeled in cycles. Parallelism is across
//! jobs. On top of the pipeline, [`FlexSystem::run_batch`] serves many
//! independent workloads across parallel *virtual accelerator instances*
//! (one [`fan_out`] worker each, which runs its jobs' tiles itself),
//! sharing the system's own [`Planner`](crate::planner::Planner) — and
//! therefore its bounded plan cache — across jobs, threads **and
//! successive batch calls**, so a long-lived service pays each workload
//! shape's MCF×ACF search once.

use crate::plan::ExecutionPlan;
use crate::planner::PlanDiscipline;
use crate::system::{FlexSystem, RunError};
use sparseflex_accel::exec::{ActivityCounts, CycleBreakdown};
use sparseflex_formats::{CooMatrix, DenseMatrix, SparseMatrix};
use sparseflex_kernels::parallel::{even_ranges, fan_out, split_at_ranges, worker_count};
use sparseflex_mint::tiled::OverlapSchedule;
use sparseflex_mint::ConversionReport;
use sparseflex_sage::{Evaluation, SageWorkload};

/// Per-tile record of the convert and execute stages.
#[derive(Debug, Clone)]
pub struct TileTrace {
    /// First stationary column of the tile.
    pub col_start: usize,
    /// One past the last stationary column of the tile.
    pub col_end: usize,
    /// MINT report for converting this tile MCF→ACF.
    pub conv: ConversionReport,
    /// Accelerator cycle breakdown for executing this tile.
    pub compute: CycleBreakdown,
    /// Accelerator activity counters for this tile.
    pub counts: ActivityCounts,
}

/// Result of executing one [`ExecutionPlan`] (tile-grained or
/// monolithic — a monolithic run is simply a one-tile plan).
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The executed plan: format choice, tile schedule, predicted
    /// budget, and whether the evaluation came from the plan cache.
    pub plan: ExecutionPlan,
    /// The full output matrix; every tile accumulated its product into
    /// its own columns.
    pub output: DenseMatrix,
    /// Conversion report for the streaming operand A (converted once, in
    /// the pipeline prologue).
    pub conv_a: ConversionReport,
    /// One trace per stationary column tile, in execution order.
    pub tiles: Vec<TileTrace>,
    /// The measured double-buffered vs serial cycle totals over the
    /// tile stream (the plan's prediction is `plan.predicted.schedule`).
    pub schedule: OverlapSchedule,
}

impl PipelineRun {
    /// The evaluation the run executed (SAGE-planned or caller-pinned).
    pub fn evaluation(&self) -> &Evaluation {
        &self.plan.evaluation
    }

    /// Whether the plan's evaluation was served from the plan cache.
    pub fn plan_cached(&self) -> bool {
        self.plan.from_cache
    }

    /// Wall-clock cycles with conversion overlapped behind compute
    /// (prologue A conversion + the double-buffered tile schedule).
    pub fn overlapped_cycles(&self) -> u64 {
        self.conv_a.pipelined_cycles() + self.schedule.overlapped_cycles
    }

    /// Wall-clock cycles of the serial convert-then-compute discipline —
    /// what a [`PlanDiscipline::Monolithic`] run models.
    pub fn serial_cycles(&self) -> u64 {
        self.conv_a.pipelined_cycles() + self.schedule.serial_cycles
    }

    /// Total accelerator compute cycles across all tiles.
    pub fn compute_cycles(&self) -> u64 {
        self.tiles.iter().map(|t| t.compute.total()).sum()
    }

    /// Total MINT conversion cycles (A prologue + every B tile).
    pub fn conversion_cycles(&self) -> u64 {
        self.conv_a.pipelined_cycles()
            + self
                .tiles
                .iter()
                .map(|t| t.conv.pipelined_cycles())
                .sum::<u64>()
    }

    /// Per executed tile, in order: the (predicted, measured) cycles of
    /// the conversion lane and of the compute lane. A tile the plan
    /// holds no prediction for counts as predicted at 0 cycles.
    pub(crate) fn lane_cycles(&self) -> impl Iterator<Item = [(u64, u64); 2]> + '_ {
        let p = &self.plan.predicted;
        self.tiles.iter().enumerate().map(move |(i, t)| {
            [
                (
                    p.per_tile_conv.get(i).copied().unwrap_or(0),
                    t.conv.pipelined_cycles(),
                ),
                (
                    p.per_tile_compute.get(i).copied().unwrap_or(0),
                    t.compute.total(),
                ),
            ]
        })
    }

    /// Mean per-tile relative cycle error of the plan's prediction: the
    /// average over tiles of `|predicted − measured| / max(measured, 1)`,
    /// with conversion and compute lanes summed per tile (0.0 for a
    /// perfect prediction or no tiles). The scalar the calibration loop
    /// drives down.
    pub fn mean_cycle_error(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .lane_cycles()
            .map(|[(pc, mc), (pk, mk)]| {
                let (p, m) = ((pc + pk) as f64, (mc + mk) as f64);
                (p - m).abs() / m.max(1.0)
            })
            .sum();
        sum / self.tiles.len() as f64
    }

    /// Multiplicative total-compute error of the plan's prediction:
    /// `max(p, m) / min(p, m)` over the summed compute cycles (1.0 for a
    /// perfect prediction; also 1.0 when both sides are zero, e.g. empty
    /// operands).
    pub fn compute_error_factor(&self) -> f64 {
        let p = self.plan.predicted.compute_cycles() as f64;
        let m = self.compute_cycles() as f64;
        if p == 0.0 && m == 0.0 {
            return 1.0;
        }
        if p == 0.0 || m == 0.0 {
            return f64::INFINITY;
        }
        (p / m).max(m / p)
    }
}

/// One independent workload in a batch: operands plus the statistics
/// SAGE plans from.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Streaming operand.
    pub a: CooMatrix,
    /// Stationary operand.
    pub b: CooMatrix,
    /// Workload statistics (the plan-cache key).
    pub workload: SageWorkload,
}

impl BatchJob {
    /// Build a job, deriving the SpGEMM workload statistics from the
    /// operands themselves.
    pub fn spgemm(a: CooMatrix, b: CooMatrix, dtype: sparseflex_formats::DataType) -> Self {
        let workload = SageWorkload::spgemm(
            a.rows(),
            a.cols(),
            b.cols(),
            a.nnz() as u64,
            b.nnz() as u64,
            dtype,
        );
        BatchJob { a, b, workload }
    }
}

/// Result of serving one batch through the pipelined runtime.
#[derive(Debug)]
pub struct BatchRun {
    /// Per-job outcomes, in submission order.
    pub results: Vec<Result<PipelineRun, RunError>>,
    /// SAGE searches skipped via the plan cache **during this batch**.
    pub plan_cache_hits: u64,
    /// SAGE searches actually performed during this batch.
    pub plans_computed: u64,
    /// Plan-cache entries evicted (LRU) during this batch.
    pub plan_cache_evictions: u64,
    /// Virtual accelerator instances (worker threads) used.
    pub workers: usize,
}

impl BatchRun {
    /// Jobs that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Sum of overlapped cycles across successful jobs (the batch's
    /// modeled service time on one instance; divide by `workers` for the
    /// parallel estimate).
    pub fn total_overlapped_cycles(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(PipelineRun::overlapped_cycles)
            .sum()
    }
}

impl FlexSystem {
    /// `run(a, b, w, None, PlanDiscipline::Pipelined)`: SAGE plans the
    /// formats and the tiles are double-buffered. Kept as an alias only
    /// because the benchmark calls it by this name.
    pub fn run_pipelined(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        w: &SageWorkload,
    ) -> Result<PipelineRun, RunError> {
        self.run(a, b, w, None, PlanDiscipline::Pipelined)
    }

    /// Serve a batch of independent workloads across parallel virtual
    /// accelerator instances, sharing the system's own
    /// [`Planner`](crate::planner::Planner).
    ///
    /// Jobs are partitioned into contiguous chunks, one
    /// [`fan_out`] worker per chunk (each simulates its own accelerator
    /// instance and runs its jobs' tiles itself, so no job nests a
    /// fan-out); results come back in submission order. Repeated
    /// workload shapes hit the bounded plan cache and skip the MCF×ACF
    /// search — **including shapes cached by earlier `run_batch` calls**
    /// on the same system, since the planner (and its cache) persists.
    ///
    /// Each job runs [`run`](Self::run)'s plan-then-execute sequence with
    /// SAGE planning and the pipelined discipline; this is a fan-out over
    /// jobs, not another planning variant.
    pub fn run_batch(&self, jobs: &[BatchJob]) -> BatchRun {
        let planner = &self.planner;
        let before = planner.cache.counters();
        let workers = worker_count(jobs.len());
        // Hit/miss counts are tallied from this batch's own plans (the
        // `from_cache` bit), not from global cache-counter deltas, so
        // concurrent batches sharing one planner never misattribute each
        // other's searches: every job either hits or computes, exactly.
        let hits = std::sync::atomic::AtomicU64::new(0);
        let misses = std::sync::atomic::AtomicU64::new(0);
        let mut results: Vec<Option<Result<PipelineRun, RunError>>> =
            (0..jobs.len()).map(|_| None).collect();
        let ranges = even_ranges(jobs.len(), workers);
        let chunks = split_at_ranges(&mut results, &ranges, 1);
        fan_out(
            ranges.into_iter().zip(chunks).collect(),
            |(range, chunk)| {
                for (job, slot) in jobs[range].iter().zip(chunk) {
                    *slot = Some(
                        planner
                            .plan(
                                &self.sage,
                                &job.a,
                                &job.b,
                                &job.workload,
                                None,
                                PlanDiscipline::Pipelined,
                            )
                            .and_then(|plan| {
                                let counter = if plan.from_cache { &hits } else { &misses };
                                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                planner.execute_plan(&self.sage, &plan, &job.a, &job.b)
                            }),
                    );
                }
            },
        );
        // Evictions cannot be pinned to a single job; the global delta is
        // exact for the common one-batch-at-a-time serving pattern.
        let delta = planner.cache.counters().since(before);
        BatchRun {
            // The chunks tile every slot and each worker fills its own, so
            // flattening drops nothing.
            results: results.into_iter().flatten().collect(),
            plan_cache_hits: hits.into_inner(),
            plans_computed: misses.into_inner(),
            plan_cache_evictions: delta.evictions,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{DataType, MatrixFormat};
    use sparseflex_kernels::gemm::gemm_naive;
    use sparseflex_sage::FormatChoice;
    use sparseflex_workloads::synth::random_matrix;

    fn small_system() -> FlexSystem {
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 8;
        sys.sage.accel.pe_buffer_elems = 64;
        sys
    }

    fn spgemm_workload(a: &CooMatrix, b: &CooMatrix) -> SageWorkload {
        SageWorkload::spgemm(
            a.rows(),
            a.cols(),
            b.cols(),
            a.nnz() as u64,
            b.nnz() as u64,
            DataType::Fp32,
        )
    }

    #[test]
    fn pipelined_output_matches_monolithic_run() {
        let sys = small_system();
        let a = random_matrix(24, 32, 90, 1);
        let b = random_matrix(32, 40, 120, 2);
        let w = spgemm_workload(&a, &b);
        let mono = sys
            .run(&a, &b, &w, None, PlanDiscipline::Monolithic)
            .unwrap();
        let piped = sys.run_pipelined(&a, &b, &w).unwrap();
        assert_eq!(piped.output, mono.output, "tiling changed the product");
        assert!(piped.tiles.len() > 1, "operand should span several tiles");
        // The second planning of the same workload stats hit the cache.
        assert!(piped.plan_cached(), "second run of the shape must hit");
    }

    #[test]
    fn oversized_stationary_rows_recover_through_the_pipeline() {
        // One B row holds 16 entries; 8-slot PE buffers (4 pairs) cannot
        // hold it, so the monolithic SpGEMM path fails with the typed,
        // recoverable error — and the tiler splits it until it fits.
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 4;
        sys.sage.accel.pe_buffer_elems = 8;
        let b = CooMatrix::from_triplets(4, 16, (0..16).map(|j| (0, j, (j + 1) as f64)).collect())
            .unwrap();
        let a =
            CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.0), (1, 0, 2.0), (2, 3, 3.0)]).unwrap();
        let w = spgemm_workload(&a, &b);
        let choice = FormatChoice {
            mcf_a: MatrixFormat::Csr,
            mcf_b: MatrixFormat::Csr,
            acf_a: MatrixFormat::Csr,
            acf_b: MatrixFormat::Csr,
        };

        let mono = sys.run(&a, &b, &w, Some(&choice), PlanDiscipline::Monolithic);
        match mono {
            Err(ref e @ RunError::StationaryTooLarge { needed, available }) => {
                assert_eq!(needed, 32);
                assert_eq!(available, 8);
                assert!(e.is_recoverable());
            }
            other => panic!("expected StationaryTooLarge, got {other:?}"),
        }

        let piped = sys
            .run(&a, &b, &w, Some(&choice), PlanDiscipline::Pipelined)
            .expect("the tiler renders the rejection unreachable");
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(piped.output.approx_eq(&expect, 1e-9));
        // Every tile's stationary rows now fit 4 pairs.
        assert!(piped.tiles.iter().all(|t| t.col_end - t.col_start <= 4));
    }

    #[test]
    fn overlap_beats_serial_when_conversion_is_nontrivial() {
        // Fig. 12-class shape: compressed MCF != ACF so every tile pays a
        // real conversion, spread over many tiles.
        let sys = small_system();
        let a = random_matrix(40, 48, 300, 5);
        let b = random_matrix(48, 64, 900, 6);
        let w = spgemm_workload(&a, &b);
        let choice = FormatChoice {
            mcf_a: MatrixFormat::Csr,
            mcf_b: MatrixFormat::Csr,
            acf_a: MatrixFormat::Csr,
            acf_b: MatrixFormat::Csc,
        };
        let run = sys
            .run(&a, &b, &w, Some(&choice), PlanDiscipline::Pipelined)
            .unwrap();
        assert!(run.tiles.len() >= 2);
        assert!(
            run.overlapped_cycles() < run.serial_cycles(),
            "overlap {} !< serial {}",
            run.overlapped_cycles(),
            run.serial_cycles()
        );
        let expect = gemm_naive(&a.clone().into_dense(), &b.clone().into_dense());
        assert!(run.output.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn batch_serves_jobs_and_caches_plans() {
        let sys = small_system();
        let mut jobs = Vec::new();
        // 6 jobs over 2 distinct shapes -> at most 2 searches... but the
        // racing workers may each miss once; at least half must hit.
        for i in 0..3u64 {
            jobs.push(BatchJob::spgemm(
                random_matrix(16, 20, 60, 10 + i),
                random_matrix(20, 24, 80, 20 + i),
                DataType::Fp32,
            ));
            jobs.push(BatchJob::spgemm(
                random_matrix(12, 16, 40, 30 + i),
                random_matrix(16, 18, 50, 40 + i),
                DataType::Fp32,
            ));
        }
        let batch = sys.run_batch(&jobs);
        assert_eq!(batch.results.len(), 6);
        assert_eq!(batch.succeeded(), 6);
        assert!(batch.workers >= 1);
        assert_eq!(sys.planner.cache.len(), 2, "two distinct shapes");
        assert!(
            batch.plan_cache_hits + batch.plans_computed == 6,
            "every job either hits or computes"
        );
        assert!(batch.plan_cache_hits >= 2, "repeated shapes must hit");
        // Every job's output is correct.
        for (job, res) in jobs.iter().zip(&batch.results) {
            let run = res.as_ref().unwrap();
            let expect = gemm_naive(&job.a.clone().into_dense(), &job.b.clone().into_dense());
            assert!(run.output.approx_eq(&expect, 1e-9));
        }
        assert!(batch.total_overlapped_cycles() > 0);
    }

    #[test]
    fn batch_cache_persists_across_calls() {
        // Satellite + acceptance: the batch front-end must reuse the
        // system planner's cache across successive run_batch calls.
        let sys = small_system();
        let jobs = vec![BatchJob::spgemm(
            random_matrix(16, 20, 60, 77),
            random_matrix(20, 24, 80, 78),
            DataType::Fp32,
        )];
        let first = sys.run_batch(&jobs);
        assert_eq!(first.plans_computed, 1, "cold cache must search");
        let second = sys.run_batch(&jobs);
        assert!(
            second.plan_cache_hits > 0,
            "the second batch call must hit the persistent cache"
        );
        assert_eq!(second.plans_computed, 0);
        assert_eq!(
            second.results[0].as_ref().unwrap().output,
            first.results[0].as_ref().unwrap().output
        );
    }

    #[test]
    fn sub_pair_buffers_are_unrecoverable() {
        // A 1-slot PE buffer cannot hold even one compressed pair; no
        // tiling fixes that, so the pipeline fails with the same typed
        // error flagged *unrecoverable* (no retry loop).
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 4;
        sys.sage.accel.pe_buffer_elems = 1;
        let a = random_matrix(4, 6, 8, 1);
        let b = random_matrix(6, 8, 12, 2);
        let w = spgemm_workload(&a, &b);
        let choice = FormatChoice {
            mcf_a: MatrixFormat::Csr,
            mcf_b: MatrixFormat::Csr,
            acf_a: MatrixFormat::Csr,
            acf_b: MatrixFormat::Csr,
        };
        match sys.run(&a, &b, &w, Some(&choice), PlanDiscipline::Pipelined) {
            Err(e @ RunError::StationaryTooLarge { .. }) => {
                assert!(!e.is_recoverable(), "no tiling can fix a 1-slot buffer")
            }
            other => panic!("expected unrecoverable StationaryTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let sys = small_system();
        let a = random_matrix(4, 5, 6, 1);
        let b = random_matrix(7, 3, 6, 2);
        let w = SageWorkload::spgemm(4, 5, 3, 6, 6, DataType::Fp32);
        assert!(matches!(
            sys.run_pipelined(&a, &b, &w),
            Err(RunError::ShapeMismatch {
                a_cols: 5,
                b_rows: 7
            })
        ));
    }
}
