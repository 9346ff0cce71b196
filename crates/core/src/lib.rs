//! # sparseflex-core
//!
//! The integrated `Flex_Flex_HW` system — the paper's proposed design
//! point (Table I, bottom row): a weight-stationary sparse accelerator
//! whose PEs support multiple ACFs (§IV), with MINT converting formats in
//! hardware beside the datapath (§V) and SAGE choosing the MCF/ACF
//! combination per workload (§VI).
//!
//! Planning and execution are split into two layers, exactly where the
//! paper splits them (Fig. 1b): a [`planner::Planner`] turns a workload
//! into a typed [`plan::ExecutionPlan`] (MCF/ACF choice, column-tile
//! schedule, predicted cycle budget — cached in a bounded LRU
//! [`planner::PlanCache`] keyed on workload statistics + hardware
//! fingerprint), and one shared executor runs plans on the accelerator,
//! yielding a [`PipelineRun`] whose measured tiles sit beside the plan's
//! predicted cycles and feed the [`Calibrator`].
//!
//! One entry point runs a job, and a batch fans that sequence out:
//!
//! - [`FlexSystem::run`] — [`Planner::plan`] then
//!   [`Planner::execute_plan`]. SAGE searches the format space, or the
//!   caller pins a [`sparseflex_sage::FormatChoice`]; either way the
//!   evaluation is cached. The plan cuts the stationary operand into
//!   scratchpad-sized column tiles and MINT converts tile *t+1* while
//!   the array computes tile *t* (double-buffered), lifting the
//!   one-residency operand limit and exposing overlapped vs serial cycle
//!   totals in the returned [`PipelineRun`].
//! - [`FlexSystem::run_batch`] — many workloads across parallel virtual
//!   accelerator instances, sharing the system planner's cache across
//!   jobs, threads and successive batch calls.
//! - [`FlexSystem::compare_classes`] / [`FlexSystem::normalized_edp`] —
//!   the analytic path used by the Fig. 12/13/14 benches: SAGE's best
//!   evaluation for this work and for every Table II baseline class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod calibrate;
pub mod casestudy;
pub mod pipeline;
pub mod plan;
pub mod planner;
pub mod system;

pub use calibrate::{Calibrator, Coefficients};
pub use casestudy::{layer_edp, LayerEdp};
pub use pipeline::{BatchJob, BatchRun, PipelineRun, TileTrace};
pub use plan::{Dataflow, ExecutionPlan, PlanPrediction};
pub use planner::{CacheCounters, PlanCache, PlanDiscipline, Planner, DEFAULT_PLAN_CACHE_CAPACITY};
// Serve starts its workers through this re-export: a direct
// `sparseflex-kernels` dependency would change sfbench's lock file.
pub use sparseflex_kernels::parallel::spawn_worker;
pub use system::{ClassComparison, FlexSystem, RunError};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Poison-tolerant lock acquisition. A thread that panics mid-job
/// poisons whatever it held, but every structure guarded in this stack
/// keeps its invariants across each critical section (counters are
/// monotonic, queues and caches structurally valid after every update),
/// so the right response is to recover the data — not to cascade the
/// panic into every other worker and waiter.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
