//! The planning layer: one `Planner` producing [`ExecutionPlan`]s for
//! every run path, backed by a bounded LRU [`PlanCache`].
//!
//! Planning and execution are split exactly where the paper splits them
//! (Fig. 1b):
//!
//! ```text
//!               ┌───────────────────────────┐
//!   workload ──→│          PLANNER          │──→ ExecutionPlan
//!   operands    │ PlanCache ─ SAGE search   │      (typed IR)
//!               │ tiler schedule ─ overlap  │        │
//!               └───────────────────────────┘        ▼
//!               ┌───────────────────────────┐   execute_plan
//!               │  EXECUTOR (stage machine) │──→ PipelineRun
//!               │  MINT convert ∥ accel     │
//!               └───────────────────────────┘
//! ```
//!
//! [`Planner::plan`] consults the cache (keyed on workload statistics,
//! the hardware fingerprint and, for a caller-pinned format choice, that
//! choice itself, so config changes invalidate naturally), runs SAGE
//! only on a miss — the full search, or the one pinned choice — cuts the
//! stationary operand's column-tile schedule, and fills the per-tile
//! cycle prediction from SAGE's statistics, scaled by the calibrator's
//! current coefficients. The schedule depends on the dataflow alone:
//! Gustavson plans cut `Bounded` tiles and weight-stationary plans cut
//! `Uniform` ones. [`Planner::execute_plan`] is the *only* place
//! operands meet the accelerator: the double-buffered convert∥compute
//! stage machine that every run, single or batched, executes — so they
//! cannot diverge. Its [`PipelineRun`] measures each tile against the
//! prediction and feeds the calibrator.

use crate::calibrate::{Calibrator, Coefficients};
use crate::lock_clean;
use crate::pipeline::{PipelineRun, TileTrace};
use crate::plan::{Dataflow, ExecutionPlan, PlanPrediction};
use crate::system::RunError;
use sparseflex_accel::exec::{
    simulate_spgemm_into, simulate_ws_into, GustavsonA, OutBand, SimScratch, SimStats,
};
use sparseflex_accel::ConversionSupport;
use sparseflex_formats::{
    csr_cow, cut_schedule, plan_column_schedule, ColumnSchedule, CooMatrix, DenseMatrix,
    MatrixData, MatrixFormat, MatrixTile, SparseMatrix, TilePolicy,
};
use sparseflex_mint::tiled::{overlap_schedule, split_cycles};
use sparseflex_mint::{conversion_cost, ConversionReport};
use sparseflex_sage::eval::Evaluation;
use sparseflex_sage::{FormatChoice, Sage, SageKernel, SageWorkload};
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// The one plan discipline: scratchpad-sized column tiles with
/// double-buffered conversion. Only [`Planner::plan_pinned`] takes it,
/// and ignores it, because the benchmark's traced replay passes it; it
/// goes away with that replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDiscipline {
    /// Scratchpad-sized column tiles, MINT converting tile *t+1* while
    /// the array computes tile *t*.
    Pipelined,
}

/// Key identifying a cached plan: the workload statistics SAGE's models
/// consume, the hardware-configuration fingerprint, and — for pinned
/// choices — the choice itself. Equal keys provably yield equal
/// evaluations, and two different pins never share a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    kernel: SageKernel,
    m: usize,
    k: usize,
    n: usize,
    nnz_a: u64,
    nnz_b: u64,
    dtype: sparseflex_formats::DataType,
    hw: u64,
    /// `None` for free-search plans; the pinned choice otherwise.
    choice: Option<FormatChoice>,
}

/// Monotonic cache counters (snapshot with [`PlanCache::counters`];
/// subtract snapshots with [`CacheCounters::since`] to scope them to one
/// batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Searches skipped because the evaluation was cached.
    pub hits: u64,
    /// Full SAGE searches performed.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheCounters {
    /// The delta between this snapshot and an `earlier` one.
    pub fn since(&self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct LruState {
    /// Value plus last-touched tick per key.
    map: HashMap<PlanKey, (Evaluation, u64)>,
    /// Keys whose search is running right now, each counting the times a
    /// caller parked on it instead of searching again.
    in_flight: HashMap<PlanKey, usize>,
    tick: u64,
    counters: CacheCounters,
}

impl LruState {
    /// Insert `eval` under `key`, first evicting the least-recently-used
    /// entry (smallest tick) when a new key would exceed `capacity`.
    fn insert(&mut self, key: PlanKey, eval: Evaluation, capacity: usize) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
                self.counters.evictions += 1;
            }
        }
        self.map.insert(key, (eval, self.tick));
    }
}

/// One lock domain of the sharded cache: an LRU map, the condvar its
/// in-flight searches signal, and the counter of lock acquisitions that
/// found the mutex already held.
#[derive(Debug, Default)]
struct Shard {
    state: Mutex<LruState>,
    /// Notified whenever one of this shard's in-flight searches ends.
    searched: Condvar,
    /// Acquisitions whose `try_lock` failed before blocking — the
    /// measured contention signal the service reports.
    contended: AtomicU64,
}

impl Shard {
    /// Lock the shard, counting the acquisition as contended when the
    /// mutex was already held by another worker.
    fn lock(&self) -> MutexGuard<'_, LruState> {
        match self.state.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                lock_clean(&self.state)
            }
        }
    }
}

/// Marks one key's search as in flight; dropping it — after the insert,
/// or when the search errors or panics — clears the marker and wakes the
/// callers parked on it.
struct InFlight<'a> {
    shard: &'a Shard,
    key: PlanKey,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.shard.lock().in_flight.remove(&self.key);
        self.shard.searched.notify_all();
    }
}

/// Thread-safe **bounded** cache of SAGE evaluations with LRU eviction,
/// optionally sharded by key hash.
///
/// The MCF×ACF search is the most expensive part of serving a small
/// workload; batches with repeated shapes (the common serving pattern)
/// pay it once. The cache holds at most `capacity` distinct shapes under
/// sustained traffic: inserting beyond a shard's bound evicts that
/// shard's least-recently-*used* entry (lookups refresh recency, so hot
/// shapes survive cold scans). Concurrent misses on one key are
/// single-flight: one caller runs the search, the others wait for its row
/// and count as hits.
///
/// [`with_capacity`](PlanCache::with_capacity) builds the classic
/// single-lock cache (one shard, global LRU order);
/// [`with_shards`](PlanCache::with_shards) splits the key space across
/// `shards` independent locks so concurrent workers serving disjoint
/// shapes stop serializing on one mutex — the contention the serving
/// bench first measures on the single-lock layout and then removes.
/// Eviction order is LRU *per shard*; counters aggregate across shards
/// (per-shard snapshots via [`shard_counters`](PlanCache::shard_counters)).
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Shard>,
    shard_capacity: usize,
}

/// Default number of distinct workload shapes a plan cache retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache {
            shards: self
                .shards
                .iter()
                .map(|s| {
                    // In-flight searches belong to the original's callers.
                    let mut state = lock_clean(&s.state).clone();
                    state.in_flight.clear();
                    Shard {
                        state: Mutex::new(state),
                        ..Shard::default()
                    }
                })
                .collect(),
            shard_capacity: self.shard_capacity,
        }
    }
}

impl PlanCache {
    /// The classic single-lock cache bounded to `capacity` entries
    /// (clamped to at least 1), with exact global LRU order.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache::with_shards(capacity, 1)
    }

    /// A cache of ~`capacity` total entries split across `shards`
    /// independent lock domains (both clamped to at least 1). Each shard
    /// is bounded to `ceil(capacity / shards)` entries, so the reported
    /// [`capacity`](PlanCache::capacity) may round up slightly.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.max(1).div_ceil(shards);
        PlanCache {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity,
        }
    }

    /// The total capacity bound (summed across shards).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// The shard a key hashes to (stable within a process run).
    fn shard_index(&self, key: &PlanKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// The cached evaluation for `key`, or the one `search` produces.
    /// Returns it with whether it came from the cache.
    ///
    /// Single-flight: at most one caller searches a key at a time. A miss
    /// marks the key in flight and searches outside the shard lock;
    /// callers arriving for the same key meanwhile park on the shard's
    /// condvar and then take the inserted row as a hit. A search that
    /// errors or panics clears its marker and wakes them, so the next one
    /// searches instead. A hit is one lock and one clone.
    fn get_or_try_insert_with<E>(
        &self,
        key: PlanKey,
        search: impl FnOnce() -> Result<Evaluation, E>,
    ) -> Result<(Evaluation, bool), E> {
        let shard = &self.shards[self.shard_index(&key)];
        let mut s = shard.lock();
        loop {
            s.tick += 1;
            let tick = s.tick;
            if let Some((eval, touched)) = s.map.get_mut(&key) {
                *touched = tick;
                let hit = eval.clone();
                s.counters.hits += 1;
                return Ok((hit, true));
            }
            let Some(parked) = s.in_flight.get_mut(&key) else {
                break;
            };
            *parked += 1;
            s = shard
                .searched
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        s.counters.misses += 1;
        s.in_flight.insert(key, 0);
        drop(s);
        let _marker = InFlight { shard, key };
        let eval = search()?;
        shard.lock().insert(key, eval.clone(), self.shard_capacity);
        Ok((eval, false))
    }

    /// Times a caller has parked on `key`'s in-flight search (0 when none
    /// is running).
    #[cfg(test)]
    fn parked(&self, key: &PlanKey) -> usize {
        let shard = &self.shards[self.shard_index(key)];
        shard.lock().in_flight.get(key).copied().unwrap_or(0)
    }

    /// Searches skipped thanks to the cache.
    pub fn hits(&self) -> u64 {
        self.counters().hits
    }

    /// Full SAGE searches performed.
    pub fn misses(&self) -> u64 {
        self.counters().misses
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.counters().evictions
    }

    /// Snapshot of all counters, aggregated across shards.
    pub fn counters(&self) -> CacheCounters {
        self.shard_counters()
            .into_iter()
            .fold(CacheCounters::default(), |acc, c| CacheCounters {
                hits: acc.hits + c.hits,
                misses: acc.misses + c.misses,
                evictions: acc.evictions + c.evictions,
            })
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_counters(&self) -> Vec<CacheCounters> {
        self.shards
            .iter()
            .map(|s| lock_clean(&s.state).counters)
            .collect()
    }

    /// Lock acquisitions that found the mutex already held, summed over
    /// shards — the measured-contention signal the service reports
    /// (reset never; subtract snapshots to scope a window).
    pub fn contended_acquisitions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.contended.load(Ordering::Relaxed))
            .sum()
    }

    /// Distinct workload shapes currently cached, summed over shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_clean(&s.state).map.len())
            .sum()
    }

    /// True when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The SAGE-driven planner: turns (operands, workload) into an
/// [`ExecutionPlan`] and executes plans on the accelerator. One planner
/// (and its cache) is shared by every `FlexSystem` run path and across
/// batch worker threads.
#[derive(Debug, Default, Clone)]
pub struct Planner {
    /// The bounded evaluation cache.
    pub cache: PlanCache,
    /// Online calibration of the stats model: every executed run is
    /// recorded here, and [`Calibrator::recalibrate`] refits the
    /// per-lane coefficients that scale the predictions of later plans.
    /// Cached evaluations read no coefficient, so a refit keeps them.
    pub calibrator: Calibrator,
}

impl Planner {
    /// The cache key for `w` on `sage`'s hardware, with the pinned
    /// choice.
    fn key(&self, sage: &Sage, w: &SageWorkload, choice: Option<FormatChoice>) -> PlanKey {
        PlanKey {
            kernel: w.kernel,
            m: w.m,
            k: w.k,
            n: w.n,
            nnz_a: w.nnz_a,
            nnz_b: w.nnz_b,
            dtype: w.dtype,
            hw: sage.config_fingerprint(),
            choice,
        }
    }

    /// Fetch the evaluation for `w`, running the SAGE MCF×ACF search
    /// only on a cache miss. Returns the evaluation and whether it was
    /// served from cache. Keys include [`Sage::config_fingerprint`], so
    /// a reconfigured accelerator never reuses stale plans.
    ///
    /// The free-search first step of [`plan`](Self::plan), public on its
    /// own because the benchmark's traced replay times it separately.
    pub fn evaluate_cached(&self, sage: &Sage, w: &SageWorkload) -> (Evaluation, bool) {
        let Ok(found) = self
            .cache
            .get_or_try_insert_with(self.key(sage, w, None), || {
                Ok::<_, Infallible>(sage.recommend(w).best)
            });
        found
    }

    /// Plan one job: the SAGE evaluation (served from the cache or
    /// computed on a miss), then the tile schedule and cycle prediction
    /// for the evaluation's dataflow.
    ///
    /// With `pin: None`, SAGE searches the full MCF×ACF space and the row
    /// is keyed on the workload. With `Some(choice)`, SAGE evaluates only
    /// that choice and the row is keyed on the choice as well, so
    /// repeating a pin hits the same row. A pinned choice naming a format
    /// no operand can be encoded in fails with [`RunError::Format`] before
    /// SAGE prices it, and one the accelerator cannot execute fails with a
    /// typed [`RunError`]; neither caches anything.
    pub fn plan(
        &self,
        sage: &Sage,
        a: &CooMatrix,
        b: &CooMatrix,
        w: &SageWorkload,
        pin: Option<&FormatChoice>,
    ) -> Result<ExecutionPlan, RunError> {
        let (evaluation, from_cache) = match pin {
            None => self.evaluate_cached(sage, w),
            Some(choice) => {
                self.cache
                    .get_or_try_insert_with(self.key(sage, w, Some(*choice)), || {
                        for format in [choice.mcf_a, choice.mcf_b, choice.acf_a, choice.acf_b] {
                            format.check_encodable()?;
                        }
                        sage.evaluate(w, choice, ConversionSupport::Hardware)
                            .map_err(RunError::from)
                    })?
            }
        };
        let mut plan = self.plan_pinned(sage, a, b, *w, evaluation, PlanDiscipline::Pipelined)?;
        plan.from_cache = from_cache;
        Ok(plan)
    }

    /// The tile schedule and cycle prediction around an evaluation the
    /// caller already holds, with no cache lookup. The middle step of
    /// [`plan`](Self::plan), public on its own because the benchmark's
    /// traced replay times each step separately. The schedule is planned
    /// from B's triplets, so B is not encoded here. The returned plan is
    /// marked `from_cache: false`; callers relaying a cached evaluation
    /// set the field themselves. `_discipline` is ignored (see
    /// [`PlanDiscipline`]).
    pub fn plan_pinned(
        &self,
        sage: &Sage,
        a: &CooMatrix,
        b: &CooMatrix,
        workload: SageWorkload,
        evaluation: Evaluation,
        _discipline: PlanDiscipline,
    ) -> Result<ExecutionPlan, RunError> {
        if a.cols() != b.rows() {
            return Err(RunError::ShapeMismatch {
                a_cols: a.cols(),
                b_rows: b.rows(),
            });
        }
        let choice = &evaluation.choice;
        let accel = &sage.accel;
        let spgemm = choice.acf_a == MatrixFormat::Csr && choice.acf_b == MatrixFormat::Csr;
        let dataflow = if spgemm {
            Dataflow::GustavsonSpGemm
        } else {
            Dataflow::WeightStationary
        };

        // ---- Tile schedule: cut the stationary operand per dataflow.
        let residency = accel.num_pes.max(1);
        let policy = match dataflow {
            Dataflow::GustavsonSpGemm => TilePolicy::Bounded {
                // Gustavson PEs buffer whole compressed row segments (2
                // slots per entry): cap per-row entries per tile so no
                // stationary unit can overflow a buffer.
                max_row_entries: accel.pe_buffer_elems / 2,
                max_width: residency,
            },
            // WS tiles are one array residency wide (`num_pes` stationary
            // columns); the simulator splits K internally.
            Dataflow::WeightStationary => TilePolicy::Uniform { width: residency },
        };
        let schedule = plan_column_schedule(b, policy).ok_or(RunError::StationaryTooLarge {
            needed: 2,
            available: accel.pe_buffer_elems,
        })?;

        // ---- Cycle prediction, scaled by the calibrator's coefficients.
        let (calibration_generation, coeffs) = self.calibrator.current();
        let predicted = predict_stats(sage, a, b, &evaluation, &schedule, coeffs, dataflow);

        Ok(ExecutionPlan {
            workload,
            evaluation,
            dataflow,
            schedule,
            predicted,
            from_cache: false,
            calibration_generation,
        })
    }

    /// Execute an [`ExecutionPlan`] on real operands: encode A in its MCF
    /// and cut B's scheduled tiles straight into its MCF
    /// ([`cut_schedule`], so B is never encoded whole), convert the
    /// streaming operand once (pipeline prologue), then convert∥execute
    /// every scheduled stationary tile — on the
    /// modeled machine, MINT fills one staging buffer with tile *t+1*
    /// while the array computes tile *t*, a double-buffered overlap
    /// priced by the per-tile cycle lanes folded into the run's
    /// [`OverlapSchedule`](sparseflex_mint::OverlapSchedule). Every run
    /// path funnels through this one executor, and every run's tiles,
    /// measured against the plan's prediction, feed the calibrator.
    /// `FlexSystem::run` is [`plan`](Self::plan) followed by this; it is
    /// public on its own so a plan can be inspected before it runs, and
    /// so the benchmark's traced replay can time it separately.
    pub fn execute_plan(
        &self,
        sage: &Sage,
        plan: &ExecutionPlan,
        a: &CooMatrix,
        b: &CooMatrix,
    ) -> Result<PipelineRun, RunError> {
        let choice = plan.choice();
        let spgemm = plan.dataflow == Dataflow::GustavsonSpGemm;
        let a_mem = MatrixData::encode(a, &choice.mcf_a)?;
        let tiles_mem = cut_schedule(b, &choice.mcf_b, &plan.schedule)?;
        // The streaming operand converts once, in the pipeline prologue.
        let (a_acf, conv_a) = sage.mint.convert_matrix(&a_mem, &choice.acf_a)?;
        let mut output = DenseMatrix::zeros(a.rows(), b.cols());
        let executed =
            convert_and_execute_tiles(sage, choice, spgemm, &a_acf, &tiles_mem, &mut output)?;

        let tiles: Vec<TileTrace> = tiles_mem
            .iter()
            .zip(executed)
            .map(|(tile, (conv, sim))| TileTrace {
                col_start: tile.col_start,
                col_end: tile.col_end,
                conv,
                compute: sim.cycles,
                counts: sim.counts,
            })
            .collect();

        let conv_cycles: Vec<u64> = tiles.iter().map(|t| t.conv.pipelined_cycles()).collect();
        let compute_cycles: Vec<u64> = tiles.iter().map(|t| t.compute.total()).collect();
        let run = PipelineRun {
            plan: plan.clone(),
            output,
            conv_a,
            tiles,
            schedule: overlap_schedule(&conv_cycles, &compute_cycles),
        };
        // Close the loop: every executed plan feeds the online calibrator
        // (recalibration itself stays an explicit caller decision, so
        // predictions never shift mid-batch).
        self.calibrator.record(
            plan.dataflow,
            &plan.predicted.coefficients,
            run.lane_cycles(),
        );
        Ok(run)
    }
}

/// Convert each scheduled tile MCF→ACF and run it on the cycle-accurate
/// simulator, in schedule order on the calling thread, accumulating each
/// tile's product straight into `output` at the tile's column offset:
/// Gustavson SpGEMM when `spgemm` is set, weight-stationary otherwise.
///
/// One array streams a job's tiles, as in the paper (§V-B): MINT's
/// convert∥compute overlap is modeled in cycles, not run on host threads.
/// Jobs run in parallel as separate accelerator instances (`run_batch`'s
/// workers and the serve workers), so the executor opens no fan-out of
/// its own. The simulator's scratch is sized once per job, and the
/// streaming operand's Gustavson index is built once and read by every
/// tile. A Gustavson plan's ACFs are CSR, so its CSR views borrow the
/// converted operands.
fn convert_and_execute_tiles(
    sage: &Sage,
    choice: &sparseflex_sage::FormatChoice,
    spgemm: bool,
    a_acf: &MatrixData,
    tiles_mem: &[MatrixTile],
    output: &mut DenseMatrix,
) -> Result<Vec<(ConversionReport, SimStats)>, RunError> {
    let a_csr = if spgemm { Some(csr_cow(a_acf)) } else { None };
    let a_cols = a_csr.as_deref().map(|a| GustavsonA::new(a, &sage.accel));
    let n = output.cols();
    let mut scratch = SimScratch::default();
    tiles_mem
        .iter()
        .map(|tile| {
            let (tile_acf, conv) = sage.mint.convert_matrix(&tile.data, &choice.acf_b)?;
            let out = OutBand::new(output.data_mut(), n, tile.col_start);
            let sim = match &a_cols {
                Some(a) => {
                    simulate_spgemm_into(a, &csr_cow(&tile_acf), &sage.accel, &mut scratch, out)?
                }
                None => simulate_ws_into(a_acf, &tile_acf, &sage.accel, &mut scratch, out)?,
            };
            Ok((conv, sim))
        })
        .collect()
}

/// Stats-model prediction: SAGE's whole-operand analytic totals scaled
/// by the calibrator's fitted per-lane coefficients, then split across
/// tiles by stored-nonzero weight.
fn predict_stats(
    sage: &Sage,
    a: &CooMatrix,
    b: &CooMatrix,
    evaluation: &Evaluation,
    schedule: &ColumnSchedule,
    coeffs: Coefficients,
    dataflow: Dataflow,
) -> PlanPrediction {
    let choice = &evaluation.choice;
    let conv_a = conversion_cost(
        &choice.mcf_a,
        &choice.acf_a,
        a.rows(),
        a.cols(),
        a.nnz() as u64,
        &sage.mint,
    )
    .cycles;
    let conv_b = conversion_cost(
        &choice.mcf_b,
        &choice.acf_b,
        b.rows(),
        b.cols(),
        b.nnz() as u64,
        &sage.mint,
    )
    .cycles;
    let per_tile_conv = split_cycles(conv_b as f64 * coeffs.conv, &schedule.tile_nnz);
    let per_tile_compute = split_cycles(
        evaluation.compute_cycles * coeffs.compute(dataflow),
        &schedule.tile_nnz,
    );
    PlanPrediction {
        coefficients: coeffs,
        conv_a_cycles: (conv_a as f64 * coeffs.conv).round() as u64,
        schedule: overlap_schedule(&per_tile_conv, &per_tile_compute),
        per_tile_conv,
        per_tile_compute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::DataType;
    use sparseflex_workloads::synth::random_matrix;

    fn workload(seed: usize) -> SageWorkload {
        // Distinct shapes per seed so each gets its own cache key.
        SageWorkload::spgemm(
            100 + seed,
            100,
            50,
            1_000 + seed as u64,
            500,
            DataType::Fp32,
        )
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let sage = Sage::default();
        let planner = Planner::default();
        let (e1, cached1) = planner.evaluate_cached(&sage, &workload(0));
        assert!(!cached1);
        let (e2, cached2) = planner.evaluate_cached(&sage, &workload(0));
        assert!(cached2);
        assert_eq!(e1, e2, "cached evaluation must be the searched one");
        let c = planner.cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 0));
        assert_eq!(planner.cache.len(), 1);
    }

    #[test]
    fn hardware_changes_invalidate_cached_plans() {
        let mut sage = Sage::default();
        let planner = Planner::default();
        planner.evaluate_cached(&sage, &workload(0));
        // Same workload, different hardware: must be a fresh search.
        sage.accel.num_pes /= 2;
        let (_, cached) = planner.evaluate_cached(&sage, &workload(0));
        assert!(!cached, "reconfigured hardware must not reuse stale plans");
        assert_eq!(planner.cache.len(), 2, "two distinct hardware keys");
    }

    #[test]
    fn eviction_is_lru_ordered() {
        let sage = Sage::default();
        let planner = Planner {
            cache: PlanCache::with_capacity(2),
            ..Planner::default()
        };
        // Fill: w0, w1.
        planner.evaluate_cached(&sage, &workload(0));
        planner.evaluate_cached(&sage, &workload(1));
        assert_eq!(planner.cache.evictions(), 0);
        // Insert w2 at capacity: w0 is the least recently used -> evicted.
        planner.evaluate_cached(&sage, &workload(2));
        assert_eq!(planner.cache.evictions(), 1);
        assert_eq!(planner.cache.len(), 2);
        let (_, w1_cached) = planner.evaluate_cached(&sage, &workload(1));
        assert!(w1_cached, "w1 must have survived the eviction");
        let (_, w0_cached) = planner.evaluate_cached(&sage, &workload(0));
        assert!(!w0_cached, "w0 was the LRU entry and must be gone");
    }

    #[test]
    fn lookups_refresh_recency() {
        let sage = Sage::default();
        let planner = Planner {
            cache: PlanCache::with_capacity(2),
            ..Planner::default()
        };
        planner.evaluate_cached(&sage, &workload(0)); // miss: {w0}
        planner.evaluate_cached(&sage, &workload(1)); // miss: {w0, w1}
        planner.evaluate_cached(&sage, &workload(0)); // hit: w0 now hot
        planner.evaluate_cached(&sage, &workload(2)); // evicts w1, not w0
        let (_, w0_cached) = planner.evaluate_cached(&sage, &workload(0));
        assert!(w0_cached, "the refreshed entry must survive");
        let (_, w1_cached) = planner.evaluate_cached(&sage, &workload(1));
        assert!(!w1_cached, "the stale entry must be the one evicted");
        assert_eq!(planner.cache.evictions(), 2);
    }

    #[test]
    fn capacity_bound_holds_under_sustained_traffic() {
        let sage = Sage::default();
        let planner = Planner {
            cache: PlanCache::with_capacity(4),
            ..Planner::default()
        };
        for i in 0..32 {
            planner.evaluate_cached(&sage, &workload(i));
        }
        assert_eq!(planner.cache.len(), 4, "cache must never exceed capacity");
        assert_eq!(planner.cache.evictions(), 28);
        assert_eq!(planner.cache.capacity(), 4);
    }

    #[test]
    fn counter_snapshots_subtract() {
        let sage = Sage::default();
        let planner = Planner::default();
        planner.evaluate_cached(&sage, &workload(0));
        let before = planner.cache.counters();
        planner.evaluate_cached(&sage, &workload(0));
        planner.evaluate_cached(&sage, &workload(1));
        let delta = planner.cache.counters().since(before);
        assert_eq!((delta.hits, delta.misses), (1, 1));
    }

    #[test]
    fn with_capacity_is_single_shard() {
        let cache = PlanCache::with_capacity(8);
        assert_eq!(cache.shards.len(), 1);
        assert_eq!(cache.capacity(), 8);
    }

    #[test]
    fn sharded_cache_aggregates_counters_and_len() {
        let sage = Sage::default();
        let planner = Planner {
            cache: PlanCache::with_shards(64, 8),
            ..Planner::default()
        };
        assert_eq!(planner.cache.shards.len(), 8);
        assert_eq!(planner.cache.capacity(), 64);
        for i in 0..16 {
            planner.evaluate_cached(&sage, &workload(i)); // misses
        }
        for i in 0..16 {
            planner.evaluate_cached(&sage, &workload(i)); // hits
        }
        let c = planner.cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (16, 16, 0));
        assert_eq!(planner.cache.len(), 16);
        let per_shard = planner.cache.shard_counters();
        assert_eq!(per_shard.len(), 8);
        assert_eq!(per_shard.iter().map(|c| c.hits).sum::<u64>(), 16);
        assert_eq!(per_shard.iter().map(|c| c.misses).sum::<u64>(), 16);
    }

    #[test]
    fn sharded_cache_still_bounds_and_serves_hits() {
        let sage = Sage::default();
        // Tiny per-shard bound: ceil(8/4) = 2 entries per shard.
        let planner = Planner {
            cache: PlanCache::with_shards(8, 4),
            ..Planner::default()
        };
        for i in 0..64 {
            planner.evaluate_cached(&sage, &workload(i));
        }
        assert!(
            planner.cache.len() <= planner.cache.capacity(),
            "sharded cache must respect its total bound"
        );
        assert!(planner.cache.evictions() > 0);
        // A re-lookup of a just-inserted hot key must hit.
        planner.evaluate_cached(&sage, &workload(63));
        let (_, cached) = planner.evaluate_cached(&sage, &workload(63));
        assert!(cached);
    }

    #[test]
    fn shard_mapping_is_stable_and_in_range() {
        let sage = Sage::default();
        let planner = Planner {
            cache: PlanCache::with_shards(64, 8),
            ..Planner::default()
        };
        let shard = |i| {
            planner
                .cache
                .shard_index(&planner.key(&sage, &workload(i), None))
        };
        for i in 0..32 {
            let s1 = shard(i);
            assert_eq!(s1, shard(i), "same key must always map to the same shard");
            assert!(s1 < planner.cache.shards.len());
        }
        // Distinct workloads must spread across the shards, so concurrent
        // workers planning disjoint shapes rarely meet on one lock. The
        // bound is not all 8: `DefaultHasher` is not stable across Rust
        // releases, and under a fresh hash 32 keys reach 5 or fewer
        // shards with probability about 2e-5.
        let distinct: std::collections::HashSet<usize> = (0..32).map(shard).collect();
        assert!(
            distinct.len() >= 6,
            "32 keys must reach at least 6 of 8 shards, reached {}",
            distinct.len()
        );
    }

    #[test]
    fn contended_acquisitions_start_at_zero() {
        let cache = PlanCache::with_shards(16, 4);
        assert_eq!(cache.contended_acquisitions(), 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test races two real threads on one key"
    )]
    fn concurrent_misses_on_one_key_search_once() {
        let sage = Sage::default();
        let w = workload(0);
        let key = Planner::default().key(&sage, &w, None);
        let best = sage.recommend(&w).best;
        let cache = PlanCache::with_capacity(8);
        let searches = AtomicU64::new(0);
        // The search holds its key in flight until the other caller has
        // parked on it (bounded, so a broken single-flight fails the
        // count below instead of hanging).
        let search = || {
            searches.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while cache.parked(&key) == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            Ok::<_, Infallible>(best.clone())
        };
        let [first, second] = std::thread::scope(|s| {
            let a = s.spawn(|| cache.get_or_try_insert_with(key, search));
            let b = s.spawn(|| cache.get_or_try_insert_with(key, search));
            [a.join().unwrap(), b.join().unwrap()]
        });
        let (Ok(first), Ok(second)) = (first, second);
        assert_eq!(
            searches.load(Ordering::SeqCst),
            1,
            "one search between both"
        );
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_ne!(first.1, second.1, "exactly one caller is served from cache");
        assert_eq!(first.0, best);
        assert_eq!(second.0, best);
        assert_eq!(cache.parked(&key), 0, "the marker is cleared");
    }

    #[test]
    fn failed_or_panicked_searches_clear_their_marker() {
        let sage = Sage::default();
        let best = sage.recommend(&workload(0)).best;
        let cache = PlanCache::with_capacity(8);
        let key = Planner::default().key(&sage, &workload(0), None);
        assert_eq!(
            cache.get_or_try_insert_with(key, || Err("no plan")),
            Err("no plan")
        );
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_try_insert_with(key, || -> Result<Evaluation, ()> {
                panic!("search panicked")
            })
        }));
        assert!(panicked.is_err());
        // Neither left the key in flight: the next caller searches.
        let found = cache.get_or_try_insert_with(key, || Ok::<_, ()>(best.clone()));
        assert_eq!(found, Ok((best, false)));
        assert_eq!(cache.counters().misses, 3);
    }

    #[test]
    fn pinned_and_free_search_rows_are_distinct() {
        let sage = Sage::default();
        let planner = Planner::default();
        let a = random_matrix(24, 32, 80, 1);
        let b = random_matrix(32, 20, 60, 2);
        let w = SageWorkload::spgemm(24, 32, 20, 80, 60, DataType::Fp32);
        let best = sage.recommend(&w).best;
        let plan = |pin| planner.plan(&sage, &a, &b, &w, pin).unwrap();
        assert!(!plan(None).from_cache);
        // SAGE's own winner, pinned: the same evaluation, in its own row.
        let pinned = plan(Some(&best.choice));
        assert!(!pinned.from_cache, "a pin must not hit the free-search row");
        assert_eq!(pinned.evaluation, best);
        assert_eq!(planner.cache.len(), 2);
        assert!(plan(None).from_cache);
        assert!(plan(Some(&best.choice)).from_cache);
        let c = planner.cache.counters();
        assert_eq!((c.hits, c.misses), (2, 2));
    }

    /// One job, one thread: `run_batch` across four workers gives every
    /// job the output bits, tile traces and cycles of a one-worker `run`.
    #[test]
    fn batched_jobs_match_one_worker_runs() {
        use crate::pipeline::BatchJob;
        use crate::system::FlexSystem;
        use sparseflex_kernels::parallel::with_workers;
        let mut sys = FlexSystem::default();
        sys.sage.accel.num_pes = 4;
        sys.sage.accel.pe_buffer_elems = 32;
        // Dense-ish to hypersparse, so SAGE picks both dataflows.
        let jobs: Vec<BatchJob> = [(24, 16, 40, 300, 400), (30, 40, 64, 60, 90)]
            .iter()
            .cycle()
            .take(8)
            .zip(0u64..)
            .map(|(&(m, k, n, nnz_a, nnz_b), seed)| {
                let a = random_matrix(m, k, nnz_a, seed);
                let b = random_matrix(k, n, nnz_b, 100 + seed);
                BatchJob::spgemm(a, b, DataType::Fp32)
            })
            .collect();
        let batch = with_workers(4, || sys.run_batch(&jobs));
        assert_eq!(batch.workers, 4);

        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut dataflows = Vec::new();
        for (job, batched) in jobs.iter().zip(&batch.results) {
            let batched = batched.as_ref().unwrap();
            let solo = with_workers(1, || sys.run(&job.a, &job.b, &job.workload, None)).unwrap();
            assert_eq!(bits(&batched.output), bits(&solo.output));
            assert_eq!(batched.tiles.len(), solo.tiles.len());
            for (t, s) in batched.tiles.iter().zip(&solo.tiles) {
                assert_eq!((t.col_start, t.col_end), (s.col_start, s.col_end));
                assert_eq!(
                    (&t.conv, t.compute, t.counts),
                    (&s.conv, s.compute, s.counts)
                );
            }
            assert_eq!(batched.schedule, solo.schedule);
            assert!(batched.tiles.len() > 1, "every job runs several tiles");
            dataflows.push(batched.plan.dataflow);
        }
        assert!(dataflows.contains(&Dataflow::GustavsonSpGemm));
        assert!(dataflows.contains(&Dataflow::WeightStationary));
    }
}
