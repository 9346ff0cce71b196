//! Single-threaded stage-by-stage replay of served or pipelined jobs.
//!
//! The replay calls the public stages in the order the service runs them
//! — `wire::decode_job` → `to_coo` → `Planner::evaluate_cached` →
//! `plan_pinned` → `execute_plan` → `wire::encode_result` — each inside
//! its own span. It then replays the executed plan once more through its
//! public parts (`MatrixData::encode`, `tile_column_ranges`,
//! `convert_matrix`, `csr_cow`/`csr_cow_in`, `simulate_spgemm` /
//! `simulate_ws`) on the plan's own `schedule.ranges`, and checks that the
//! parts did exactly the work `execute_plan` did: the same conversion and
//! compute cycles, and the same output bit for bit.

use crate::trace::Tracer;
use crate::util::{mean, median, Metrics};
use sparseflex_accel::exec::{simulate_spgemm, simulate_ws};
use sparseflex_core::{BatchJob, Dataflow, FlexSystem, PipelineRun, PlanDiscipline};
use sparseflex_formats::{
    csr_cow, csr_cow_in, tile_column_ranges, CooMatrix, DenseMatrix, MatrixData, MatrixTile,
    SparseMatrix, StreamArena,
};
use sparseflex_sage::SageWorkload;
use sparseflex_serve::wire::{self, WireResult};
use std::collections::{BTreeMap, HashSet};

/// One job to replay: a wire frame (with the id the service stamped
/// into its result) or operands handed straight to the planner.
pub enum Input<'a> {
    Frame { bytes: &'a [u8], job_id: u64 },
    Operands { a: &'a CooMatrix, b: &'a CooMatrix },
}

/// What one replayed job produced.
pub struct Replayed {
    pub run: PipelineRun,
    /// The re-encoded result frame (frame inputs only).
    pub result_frame: Option<Vec<u8>>,
}

/// Replay state: a fresh system configured like the one under test, a
/// warm traversal arena, and the accumulated per-job records.
pub struct Replay {
    sys: FlexSystem,
    arena: StreamArena,
    jobs: Vec<JobRecord>,
    shapes: HashSet<String>,
    candidates: Vec<f64>,
}

struct JobRecord {
    tiles: usize,
    conversions: usize,
    conv_cycles: u64,
    compute_cycles: u64,
    tile_work_ns: u64,
    execute_ns: u64,
}

/// The plan-cache key fields, as a string (distinct-shape counting).
fn shape_key(w: &SageWorkload) -> String {
    format!("{}x{}x{}:{}:{}", w.m, w.k, w.n, w.nnz_a, w.nnz_b)
}

impl Replay {
    pub fn new(sys: FlexSystem) -> Self {
        Replay {
            sys,
            arena: StreamArena::new(),
            jobs: Vec::new(),
            shapes: HashSet::new(),
            candidates: Vec::new(),
        }
    }

    /// Replay one job inside a `replay.job` span tagged `job`.
    pub fn job(&mut self, tr: &mut Tracer, job: u64, input: Input<'_>) -> Result<Replayed, String> {
        tr.enter("replay.job", job);
        let r = self.job_inner(tr, job, input);
        tr.exit();
        r
    }

    fn job_inner(
        &mut self,
        tr: &mut Tracer,
        job: u64,
        input: Input<'_>,
    ) -> Result<Replayed, String> {
        let sys = &self.sys;
        let (a, b, w, frame_job_id) = match input {
            Input::Frame { bytes, job_id } => {
                let wj = tr
                    .span("wire.decode_job", job, || wire::decode_job(bytes))
                    .map_err(|e| format!("decode_job: {e}"))?;
                let bj = tr.span("formats.to_coo", job, || {
                    BatchJob::spgemm(wj.a.to_coo(), wj.b.to_coo(), wj.dtype)
                });
                (bj.a, bj.b, bj.workload, Some(job_id))
            }
            Input::Operands { a, b } => {
                let bj = BatchJob::spgemm(a.clone(), b.clone(), sys.sage.accel.dtype);
                (bj.a, bj.b, bj.workload, None)
            }
        };

        tr.enter("planner.evaluate", job);
        let (evaluation, hit) = sys.planner.evaluate_cached(&sys.sage, &w);
        tr.exit();
        let last = tr.spans.len() - 1;
        tr.spans[last].name = if hit {
            "planner.lookup"
        } else {
            "planner.search"
        };
        if self.shapes.insert(shape_key(&w)) {
            self.candidates
                .push(sys.sage.recommend(&w).candidates as f64);
        }

        let mut plan = tr
            .span("planner.plan_pinned", job, || {
                sys.planner
                    .plan_pinned(&sys.sage, &a, &b, w, evaluation, PlanDiscipline::Pipelined)
            })
            .map_err(|e| format!("plan_pinned: {e}"))?;
        plan.from_cache = hit;

        tr.enter("planner.execute_plan", job);
        let run = sys.planner.execute_plan(&sys.sage, &plan, &a, &b);
        tr.exit();
        let execute_ns = {
            let s = &tr.spans[tr.spans.len() - 1];
            s.end_ns - s.start_ns
        };
        let run = run.map_err(|e| format!("execute_plan: {e}"))?;

        let record = self.replay_parts(tr, job, &run, &a, &b, execute_ns)?;
        self.jobs.push(record);

        let result_frame = match frame_job_id {
            Some(job_id) => {
                let res = WireResult {
                    job_id,
                    output: run.output.clone(),
                };
                Some(
                    tr.span("wire.encode_result", job, || wire::encode_result(&res))
                        .map_err(|e| format!("encode_result: {e}"))?,
                )
            }
            None => None,
        };
        Ok(Replayed { run, result_frame })
    }

    /// Re-run `run`'s plan through the public parts of `execute_plan`
    /// and check the parts did the same work.
    fn replay_parts(
        &mut self,
        tr: &mut Tracer,
        job: u64,
        run: &PipelineRun,
        a: &CooMatrix,
        b: &CooMatrix,
        execute_ns: u64,
    ) -> Result<JobRecord, String> {
        let sage = &self.sys.sage;
        let choice = run.plan.choice();
        let ranges = &run.plan.schedule.ranges;
        let spgemm = run.plan.dataflow == Dataflow::GustavsonSpGemm;
        let err = |e: &dyn std::fmt::Display| format!("replayed parts: {e}");

        tr.enter("replay.parts", job);
        let (a_mem, b_mem) = tr.span("formats.encode", job, || {
            (
                MatrixData::encode(a, &choice.mcf_a),
                MatrixData::encode(b, &choice.mcf_b),
            )
        });
        let (a_mem, b_mem) = (a_mem.map_err(|e| err(&e))?, b_mem.map_err(|e| err(&e))?);
        let b_cols = b_mem.cols();
        let mut conversions = usize::from(a_mem.format() != choice.acf_a);
        let tiles = if ranges.as_slice() == [(0, b_cols)] {
            vec![MatrixTile {
                col_start: 0,
                col_end: b_cols,
                data: b_mem,
            }]
        } else {
            tr.span("formats.tile", job, || tile_column_ranges(&b_mem, ranges))
                .map_err(|e| err(&e))?
        };
        let (a_acf, conv_a) = tr
            .span("mint.convert", job, || {
                sage.mint.convert_matrix(&a_mem, &choice.acf_a)
            })
            .map_err(|e| err(&e))?;
        let a_csr = if spgemm {
            Some(tr.span("formats.csr_view", job, || csr_cow(&a_acf)))
        } else {
            None
        };

        let mut conv_cycles = conv_a.pipelined_cycles();
        let mut compute_cycles = 0u64;
        let mut tile_work_ns = 0u64;
        let mut output = DenseMatrix::zeros(a.rows(), b_cols);
        for tile in &tiles {
            let start = tr.now_ns();
            conversions += usize::from(tile.data.format() != choice.acf_b);
            let (tile_acf, conv) = tr
                .span("mint.convert", job, || {
                    sage.mint.convert_matrix(&tile.data, &choice.acf_b)
                })
                .map_err(|e| err(&e))?;
            conv_cycles += conv.pipelined_cycles();
            let sim = if let Some(a_csr) = a_csr.as_deref() {
                let arena = &mut self.arena;
                let tile_csr = tr.span("formats.csr_view", job, || csr_cow_in(arena, &tile_acf));
                let sim = tr.span("accel.simulate", job, || {
                    simulate_spgemm(a_csr, &tile_csr, &sage.accel)
                });
                if let std::borrow::Cow::Owned(c) = tile_csr {
                    self.arena.recycle_csr(c);
                }
                sim
            } else {
                tr.span("accel.simulate", job, || {
                    simulate_ws(&a_acf, &tile_acf, &sage.accel)
                })
            }
            .map_err(|e| err(&e))?;
            tile_work_ns += tr.now_ns() - start;
            compute_cycles += sim.cycles.total();
            for r in 0..sim.output.rows() {
                for (j, &v) in sim.output.row(r).iter().enumerate() {
                    if v != 0.0 {
                        output.set(r, tile.col_start + j, v);
                    }
                }
            }
        }
        tr.exit();

        if conv_cycles != run.conversion_cycles() || compute_cycles != run.compute_cycles() {
            return Err(format!(
                "replay did different work: conversion cycles {conv_cycles} vs {}, \
                 compute cycles {compute_cycles} vs {}",
                run.conversion_cycles(),
                run.compute_cycles()
            ));
        }
        if !bits_equal(&output, &run.output) {
            return Err("replayed parts produced a different output".into());
        }
        Ok(JobRecord {
            tiles: tiles.len(),
            conversions,
            conv_cycles,
            compute_cycles,
            tile_work_ns,
            execute_ns,
        })
    }

    /// Planner, formats, MINT and accelerator metrics from the replayed
    /// spans and records.
    pub fn metrics(&self, tr: &Tracer, m: &mut Metrics) {
        let per_job = per_job_totals_us(tr);
        let per_job_median = |name: &str| {
            let v: Vec<f64> = per_job
                .values()
                .filter_map(|n| n.get(name).copied())
                .collect();
            median(&v)
        };
        let jobs = &self.jobs;
        let f = |g: fn(&JobRecord) -> f64| jobs.iter().map(g).collect::<Vec<f64>>();
        m.put("planner.lookup_us", tr.median_us("planner.lookup"), "us");
        m.put("planner.search_us", tr.median_us("planner.search"), "us");
        m.put("sage.candidates", mean(&self.candidates), "count");
        m.put("planner.plan_us", tr.median_us("planner.plan_pinned"), "us");
        m.put(
            "planner.execute_us",
            tr.median_us("planner.execute_plan"),
            "us",
        );
        m.put(
            "planner.tiles_per_job",
            mean(&f(|j| j.tiles as f64)),
            "count",
        );
        m.put(
            "planner.tile_parallelism",
            median(&f(|j| j.tile_work_ns as f64 / j.execute_ns.max(1) as f64)),
            "x",
        );
        m.put("formats.to_coo_us", tr.median_us("formats.to_coo"), "us");
        m.put("formats.encode_us", per_job_median("formats.encode"), "us");
        m.put("formats.tile_us", per_job_median("formats.tile"), "us");
        m.put(
            "formats.csr_view_us",
            per_job_median("formats.csr_view"),
            "us",
        );
        m.put("mint.convert_us", per_job_median("mint.convert"), "us");
        m.put(
            "mint.conversions_per_job",
            mean(&f(|j| j.conversions as f64)),
            "count",
        );
        m.put(
            "mint.conv_cycles_per_job",
            mean(&f(|j| j.conv_cycles as f64)),
            "cycles",
        );
        m.put("accel.simulate_us", per_job_median("accel.simulate"), "us");
        m.put(
            "accel.compute_cycles_per_job",
            mean(&f(|j| j.compute_cycles as f64)),
            "cycles",
        );
        let sim_ns: f64 = tr.durations_us("accel.simulate").iter().sum::<f64>() * 1e3;
        let cycles: u64 = jobs.iter().map(|j| j.compute_cycles).sum();
        m.put(
            "accel.host_ns_per_sim_cycle",
            sim_ns / cycles.max(1) as f64,
            "ns/cycle",
        );
    }
}

/// Per job: the summed duration of each span name, in microseconds.
fn per_job_totals_us(tr: &Tracer) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in &tr.spans {
        *out.entry(s.job).or_default().entry(s.name).or_default() += s.us();
    }
    out
}

/// Bitwise equality of two dense matrices.
pub fn bits_equal(x: &DenseMatrix, y: &DenseMatrix) -> bool {
    x.rows() == y.rows()
        && x.cols() == y.cols()
        && x.data()
            .iter()
            .zip(y.data())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}
