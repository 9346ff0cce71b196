//! The multi-tenant job service: admission control, weighted-fair
//! scheduling, and a work-stealing worker pool of virtual accelerator
//! instances.
//!
//! Submission path: a wire frame (or an in-process [`WireJob`]) passes
//! **admission control** — a bounded central queue plus a per-tenant
//! in-flight cap, both rejecting with typed [`SubmitError`]s so callers
//! get backpressure instead of unbounded buffering. Admitted jobs land
//! in their tenant's priority queues.
//!
//! Dispatch is **stride scheduling** (weighted fair queueing in virtual
//! time): each tenant advances a `pass` value by `STRIDE_SCALE / weight`
//! per dispatched job, and the scheduler always serves the backlogged
//! tenant with the smallest pass — so a weight-8 tenant receives ~8× the
//! dispatch rate of a weight-1 tenant while both are backlogged, and no
//! backlogged tenant starves (its pass eventually becomes the minimum).
//! Within a tenant, High beats Normal beats Low.
//!
//! Workers are persistent threads, each modeling one virtual accelerator
//! instance with its own deque: a worker pulls a batch from the central
//! queues, executes the first job, and parks the rest in its deque; idle
//! workers **steal** from the back of siblings' deques before sleeping,
//! so one worker's burst spreads across the pool. Workers start through
//! [`spawn_worker`] and never spawn a thread per job: a worker converts
//! and simulates its job's tiles itself, in schedule order, as every
//! caller of `execute_plan` does; jobs, not tiles, are what spread across
//! cores.
//!
//! The pool shares one planner whose [`PlanCache`] is sharded by key
//! hash ([`PlanCache::with_shards`]), so concurrent workers planning
//! disjoint shapes do not serialize on a single cache lock.

use crate::wire::{self, WireError, WireJob, WireResult};
use sparseflex_core::{
    lock_clean, spawn_worker, BatchJob, CacheCounters, FlexSystem, PlanCache, RunError,
};
use sparseflex_formats::SparseMatrix;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Scheduling priority of a job within its tenant's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Served before Normal and Low within the tenant.
    High = 0,
    /// The default service class.
    Normal = 1,
    /// Served only when the tenant has nothing more urgent.
    Low = 2,
}

/// Stride-scheduling scale: per-dispatch pass increment is
/// `STRIDE_SCALE / weight`, so weights up to `STRIDE_SCALE` resolve to
/// distinct rates.
const STRIDE_SCALE: u64 = 1 << 20;

/// Typed admission-control rejections. Every variant is backpressure a
/// well-behaved client can act on (retry later, shed load, raise caps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The central queue is at capacity; retry after completions drain.
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The tenant already has its maximum jobs in flight
    /// (queued + executing).
    TenantBusy {
        /// The rejected tenant.
        tenant: u32,
        /// Jobs the tenant currently has in flight.
        in_flight: usize,
        /// The per-tenant cap that was hit.
        cap: usize,
    },
    /// The submitted bytes are not a valid job frame, or an in-process
    /// job's shapes exceed the cell bound a frame's meet.
    Wire(WireError),
    /// The service is shutting down and accepts no new work.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} jobs)")
            }
            SubmitError::TenantBusy {
                tenant,
                in_flight,
                cap,
            } => write!(
                f,
                "tenant {tenant} at its in-flight cap ({in_flight}/{cap})"
            ),
            SubmitError::Wire(e) => write!(f, "malformed job frame: {e}"),
            SubmitError::Shutdown => write!(f, "service is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<WireError> for SubmitError {
    fn from(e: WireError) -> Self {
        SubmitError::Wire(e)
    }
}

/// Why a completed job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The accelerator run itself failed.
    Run(RunError),
    /// Encoding the result frame failed.
    Wire(WireError),
    /// The service shut down before the job was executed.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Run(e) => write!(f, "job execution failed: {e}"),
            ServeError::Wire(e) => write!(f, "result encoding failed: {e}"),
            ServeError::Shutdown => write!(f, "service shut down before the job ran"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Failure to bring the worker pool up: the OS refused to create a
/// worker thread. Any workers spawned before the failure are shut down
/// and joined before this is returned.
#[derive(Debug)]
pub struct StartError {
    /// Index of the worker whose thread could not be created.
    pub worker: usize,
    /// The underlying spawn failure.
    pub source: std::io::Error,
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "could not spawn serve worker {}: {}",
            self.worker, self.source
        )
    }
}

impl std::error::Error for StartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A completed job's payload: the encoded result frame plus scheduling
/// telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Service-assigned job id.
    pub job_id: u64,
    /// The submitting tenant.
    pub tenant: u32,
    /// Encoded [`WireResult`] frame (decode with
    /// [`wire::decode_result`]).
    pub result_frame: Vec<u8>,
    /// Modeled accelerator cycles the job waited in queues (wall time
    /// from admission to dispatch × the accelerator clock).
    pub queue_wait_cycles: u64,
    /// Global dispatch sequence number (0 = dispatched first): the
    /// deterministic record of scheduling order fairness tests assert
    /// on.
    pub dispatch_seq: u64,
    /// Worker (virtual accelerator instance) that executed the job.
    pub worker: usize,
    /// True when the executing worker stole the job from a sibling's
    /// deque.
    pub stolen: bool,
}

/// One-shot completion slot shared between worker and waiter.
type Oneshot = Arc<(Mutex<Option<Result<JobOutcome, ServeError>>>, Condvar)>;

/// Handle to one submitted job; [`wait`](JobTicket::wait) blocks until
/// the service completes (or abandons) it.
#[derive(Debug)]
pub struct JobTicket {
    /// Service-assigned job id (also stamped into the result frame).
    pub job_id: u64,
    slot: Oneshot,
}

impl JobTicket {
    /// Block until the job completes; returns the outcome or the typed
    /// failure. Abandoned jobs (service dropped) resolve to
    /// [`ServeError::Shutdown`] rather than hanging.
    pub fn wait(self) -> Result<JobOutcome, ServeError> {
        let (lock, cvar) = &*self.slot;
        let mut done = lock_clean(lock);
        loop {
            if let Some(outcome) = done.take() {
                return outcome;
            }
            done = cvar.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking probe: the outcome if the job already completed.
    pub fn try_wait(&self) -> Option<Result<JobOutcome, ServeError>> {
        lock_clean(&self.slot.0).take()
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (virtual accelerator instances). Each runs its
    /// job's tiles itself, in schedule order, so jobs execute on at most
    /// this many cores.
    pub workers: usize,
    /// Central submission-queue bound; submissions beyond it are
    /// rejected with [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap (queued + executing); submissions beyond
    /// it are rejected with [`SubmitError::TenantBusy`].
    pub tenant_inflight_cap: usize,
    /// Lock shards of the shared plan cache (1 = the classic
    /// single-lock cache).
    pub cache_shards: usize,
    /// Total plan-cache capacity, split across shards.
    pub cache_capacity: usize,
    /// Jobs a worker pulls from the central queues per dispatch; the
    /// surplus parks in its own deque where siblings can steal it.
    pub dispatch_batch: usize,
    /// Start with dispatch paused (submissions accepted, nothing
    /// executed) until [`FlexService::resume`] — lets tests line up a
    /// full backlog so scheduling order is deterministic.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            tenant_inflight_cap: 128,
            cache_shards: 8,
            cache_capacity: sparseflex_core::DEFAULT_PLAN_CACHE_CAPACITY,
            dispatch_batch: 4,
            start_paused: false,
        }
    }
}

/// Per-tenant service counters (monotonic; snapshot via
/// [`FlexService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: u32,
    /// Fair-share weight.
    pub weight: u64,
    /// Jobs accepted by admission control.
    pub submitted: u64,
    /// Jobs completed (successfully or with a run error).
    pub completed: u64,
    /// Submissions rejected (queue full or in-flight cap).
    pub rejected: u64,
    /// Total modeled accelerator cycles the tenant's jobs spent queued.
    pub queue_wait_cycles: u64,
}

/// Whole-service snapshot: per-tenant counters plus pool and cache
/// telemetry.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Per-tenant counters, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Jobs executed across all tenants.
    pub jobs_completed: u64,
    /// Submissions rejected across all tenants.
    pub jobs_rejected: u64,
    /// Jobs executed by a worker that stole them from a sibling.
    pub jobs_stolen: u64,
    /// Plan-cache counters aggregated across shards.
    pub cache: CacheCounters,
    /// Per-shard plan-cache counters.
    pub cache_shards: Vec<CacheCounters>,
    /// Cache-lock acquisitions that found the lock already held.
    pub cache_contended: u64,
    /// Worker threads in the pool.
    pub workers: usize,
}

/// One admitted, not-yet-dispatched job.
struct Pending {
    job_id: u64,
    tenant: u32,
    job: BatchJob,
    slot: Oneshot,
    admitted_at: Instant,
}

/// A dispatched job travelling through a worker deque.
struct Active {
    job_id: u64,
    tenant: u32,
    job: BatchJob,
    slot: Oneshot,
    queue_wait_cycles: u64,
    dispatch_seq: u64,
}

#[derive(Default)]
struct TenantState {
    weight: u64,
    pass: u64,
    in_flight: usize,
    queues: [VecDeque<Pending>; 3],
    submitted: u64,
    completed: u64,
    rejected: u64,
    queue_wait_cycles: u64,
}

impl TenantState {
    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

struct Central {
    tenants: HashMap<u32, TenantState>,
    queued_total: usize,
    /// Jobs parked in worker deques (stealable). Tracked under the
    /// central lock so sleeping workers can't miss a park notification.
    parked_total: usize,
    /// Virtual time: the pass of the most recently dispatched tenant.
    /// Tenants entering (or re-entering) the backlog start here, so an
    /// idle tenant cannot bank credit and then monopolize the pool.
    global_pass: u64,
    dispatch_seq: u64,
    paused: bool,
    shutdown: bool,
}

struct Shared {
    system: FlexSystem,
    central: Mutex<Central>,
    /// Signalled on submissions, resume, and shutdown.
    work_ready: Condvar,
    deques: Vec<Mutex<VecDeque<Active>>>,
    stolen: AtomicU64,
    next_job_id: AtomicU64,
    clock_hz: f64,
    config: ServeConfig,
}

impl Shared {
    /// Pop the next job under weighted-fair order: the backlogged tenant
    /// with the smallest pass, its highest-priority sub-queue first.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "queue wait is counted in whole cycles; `as` drops the fraction and saturates"
    )]
    fn dispatch_one(&self, central: &mut Central) -> Option<Active> {
        let tenant_id = central
            .tenants
            .iter()
            .filter(|(_, t)| t.queued() > 0)
            .min_by_key(|(id, t)| (t.pass, **id))
            .map(|(id, _)| *id)?;
        // Both lookups hold by construction (the tenant was picked from
        // the map with queued() > 0 under this same lock); `?` keeps the
        // path total anyway — a violated invariant means "no job", not a
        // worker panic.
        let t = central.tenants.get_mut(&tenant_id)?;
        let pending = t.queues.iter_mut().find_map(VecDeque::pop_front)?;
        t.pass += STRIDE_SCALE / t.weight.max(1);
        central.global_pass = t.pass;
        central.queued_total -= 1;
        let wait = (pending.admitted_at.elapsed().as_secs_f64() * self.clock_hz) as u64;
        t.queue_wait_cycles += wait;
        let seq = central.dispatch_seq;
        central.dispatch_seq += 1;
        Some(Active {
            job_id: pending.job_id,
            tenant: pending.tenant,
            job: pending.job,
            slot: pending.slot,
            queue_wait_cycles: wait,
            dispatch_seq: seq,
        })
    }

    /// Execute one job on this worker and deliver the outcome.
    fn run_job(&self, active: Active, worker: usize, stolen: bool) {
        if stolen {
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
        let Active {
            job_id,
            tenant,
            job,
            slot,
            queue_wait_cycles,
            dispatch_seq,
        } = active;
        let outcome = self
            .system
            .run(&job.a, &job.b, &job.workload, None)
            .map_err(ServeError::Run)
            .and_then(|run| {
                wire::encode_result(&WireResult {
                    job_id,
                    output: run.output,
                })
                .map_err(ServeError::Wire)
            })
            .map(|result_frame| JobOutcome {
                job_id,
                tenant,
                result_frame,
                queue_wait_cycles,
                dispatch_seq,
                worker,
                stolen,
            });
        {
            let mut central = lock_clean(&self.central);
            if let Some(t) = central.tenants.get_mut(&tenant) {
                t.in_flight -= 1;
                t.completed += 1;
            }
        }
        // A drained queue slot may now admit a blocked submitter; there
        // is no separate submitter condvar — submission is non-blocking
        // — but waking workers lets them re-check the central queues.
        let (lock, cvar) = &*slot;
        *lock_clean(lock) = Some(outcome);
        cvar.notify_all();
    }

    /// Note a job leaving a deque (popped or stolen).
    fn unpark_one(&self) {
        let mut central = lock_clean(&self.central);
        central.parked_total = central.parked_total.saturating_sub(1);
    }

    /// Worker main loop: own deque → central queues (batched) → steal
    /// from siblings → sleep.
    fn worker_loop(self: &Arc<Self>, worker: usize) {
        loop {
            // 1. Own deque, oldest first.
            if let Some(active) = lock_clean(&self.deques[worker]).pop_front() {
                self.unpark_one();
                self.run_job(active, worker, false);
                continue;
            }
            // 2. Pull a batch from the central queues; execute the first
            //    job, park the surplus in our deque for siblings to
            //    steal.
            let first = {
                let mut central = lock_clean(&self.central);
                if central.shutdown {
                    return;
                }
                if central.paused {
                    let _unused = self
                        .work_ready
                        .wait(central)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                let mut batch = Vec::new();
                while batch.len() < self.config.dispatch_batch.max(1) {
                    match self.dispatch_one(&mut central) {
                        Some(a) => batch.push(a),
                        None => break,
                    }
                }
                drop(central);
                let mut it = batch.into_iter();
                let first = it.next();
                let surplus: Vec<Active> = it.collect();
                if !surplus.is_empty() {
                    let count = surplus.len();
                    lock_clean(&self.deques[worker]).extend(surplus);
                    // Publish the parked count under the central lock
                    // before notifying, so a sibling racing into its
                    // sleep check either sees parked work or receives
                    // the wakeup — never neither.
                    let mut central = lock_clean(&self.central);
                    central.parked_total += count;
                    drop(central);
                    self.work_ready.notify_all();
                }
                first
            };
            if let Some(active) = first {
                self.run_job(active, worker, false);
                continue;
            }
            // 3. Steal from the back of a sibling's deque (the youngest
            //    parked job, keeping the victim's locality on the front).
            let stolen = (0..self.deques.len())
                .filter(|&v| v != worker)
                .find_map(|v| lock_clean(&self.deques[v]).pop_back());
            if let Some(active) = stolen {
                self.unpark_one();
                self.run_job(active, worker, true);
                continue;
            }
            // 4. Nothing anywhere: sleep until submission/resume/
            //    shutdown/parked work appears.
            let central = lock_clean(&self.central);
            if central.shutdown {
                return;
            }
            if central.paused || (central.queued_total == 0 && central.parked_total == 0) {
                let _unused = self
                    .work_ready
                    .wait(central)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// The multi-tenant serving front-end over a [`FlexSystem`].
///
/// Owns a pool of persistent worker threads sharing the system's
/// planner (with its cache re-sharded per
/// [`ServeConfig::cache_shards`]). Dropping the service shuts the pool
/// down and resolves every still-queued ticket with
/// [`ServeError::Shutdown`].
pub struct FlexService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FlexService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlexService")
            .field("workers", &self.workers.len())
            .field("config", &self.shared.config)
            .finish()
    }
}

impl FlexService {
    /// Start the service around `system` (its planner's cache is
    /// replaced by a sharded cache per the config; calibrator state is
    /// preserved). Fails with [`StartError`] if the OS refuses a worker
    /// thread; any workers already spawned are torn down first.
    pub fn start(mut system: FlexSystem, config: ServeConfig) -> Result<Self, StartError> {
        system.planner.cache = PlanCache::with_shards(config.cache_capacity, config.cache_shards);
        let clock_hz = system.sage.accel.clock_hz;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            system,
            central: Mutex::new(Central {
                tenants: HashMap::new(),
                queued_total: 0,
                parked_total: 0,
                global_pass: 0,
                dispatch_seq: 0,
                paused: config.start_paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            stolen: AtomicU64::new(0),
            next_job_id: AtomicU64::new(0),
            clock_hz,
            config,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let s = Arc::clone(&shared);
            match spawn_worker(format!("sparseflex-serve-{i}"), move || s.worker_loop(i)) {
                Ok(h) => handles.push(h),
                Err(source) => {
                    lock_clean(&shared.central).shutdown = true;
                    shared.work_ready.notify_all();
                    for h in handles {
                        let _unused = h.join();
                    }
                    return Err(StartError { worker: i, source });
                }
            }
        }
        Ok(FlexService {
            shared,
            workers: handles,
        })
    }

    /// Set a tenant's fair-share weight (clamped to ≥ 1). Unregistered
    /// tenants are auto-registered at weight 1 on first submission.
    pub fn register_tenant(&self, tenant: u32, weight: u64) {
        let mut central = lock_clean(&self.shared.central);
        let global_pass = central.global_pass;
        let t = central.tenants.entry(tenant).or_default();
        t.weight = weight.max(1);
        t.pass = t.pass.max(global_pass);
    }

    /// Submit an encoded job frame ([`wire::encode_job`]). The frame is
    /// decoded and admitted atomically; rejections are typed.
    pub fn submit_frame(&self, bytes: &[u8]) -> Result<JobTicket, SubmitError> {
        let job = wire::decode_job(bytes)?;
        self.submit(job)
    }

    /// Submit an in-process job, skipping the wire decode. Its shapes
    /// meet the cell bound a job frame's meet, or it fails with
    /// [`SubmitError::Wire`] before any tenant state changes.
    pub fn submit(&self, job: WireJob) -> Result<JobTicket, SubmitError> {
        let WireJob {
            tenant,
            priority,
            dtype,
            a,
            b,
        } = job;
        wire::check_job_cells(&a, &b)?;
        let batch_job = BatchJob::spgemm(a.to_coo(), b.to_coo(), dtype);
        let slot: Oneshot = Arc::new((Mutex::new(None), Condvar::new()));
        let job_id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut central = lock_clean(&self.shared.central);
            if central.shutdown {
                return Err(SubmitError::Shutdown);
            }
            let global_pass = central.global_pass;
            let queued_total = central.queued_total;
            let cfg = &self.shared.config;
            let t = central.tenants.entry(tenant).or_insert_with(|| {
                let mut t = TenantState {
                    weight: 1,
                    ..TenantState::default()
                };
                t.pass = global_pass;
                t
            });
            if queued_total >= cfg.queue_capacity {
                t.rejected += 1;
                return Err(SubmitError::QueueFull {
                    capacity: cfg.queue_capacity,
                });
            }
            if t.in_flight >= cfg.tenant_inflight_cap {
                t.rejected += 1;
                return Err(SubmitError::TenantBusy {
                    tenant,
                    in_flight: t.in_flight,
                    cap: cfg.tenant_inflight_cap,
                });
            }
            // A tenant re-entering the backlog joins at current virtual
            // time instead of replaying banked idle credit.
            if t.queued() == 0 {
                t.pass = t.pass.max(global_pass);
            }
            t.in_flight += 1;
            t.submitted += 1;
            t.queues[priority as usize].push_back(Pending {
                job_id,
                tenant,
                job: batch_job,
                slot: Arc::clone(&slot),
                admitted_at: Instant::now(),
            });
            central.queued_total += 1;
        }
        self.shared.work_ready.notify_one();
        Ok(JobTicket { job_id, slot })
    }

    /// Un-pause dispatch (no-op when not paused). See
    /// [`ServeConfig::start_paused`].
    pub fn resume(&self) {
        lock_clean(&self.shared.central).paused = false;
        self.shared.work_ready.notify_all();
    }

    /// Snapshot per-tenant counters plus pool and cache telemetry.
    pub fn stats(&self) -> ServiceStats {
        let central = lock_clean(&self.shared.central);
        let mut tenants: Vec<TenantStats> = central
            .tenants
            .iter()
            .map(|(&tenant, t)| TenantStats {
                tenant,
                weight: t.weight,
                submitted: t.submitted,
                completed: t.completed,
                rejected: t.rejected,
                queue_wait_cycles: t.queue_wait_cycles,
            })
            .collect();
        tenants.sort_by_key(|t| t.tenant);
        let cache = &self.shared.system.planner.cache;
        ServiceStats {
            jobs_completed: tenants.iter().map(|t| t.completed).sum(),
            jobs_rejected: tenants.iter().map(|t| t.rejected).sum(),
            jobs_stolen: self.shared.stolen.load(Ordering::Relaxed),
            cache: cache.counters(),
            cache_shards: cache.shard_counters(),
            cache_contended: cache.contended_acquisitions(),
            workers: self.workers.len(),
            tenants,
        }
    }

    /// The shared system (e.g. to inspect the planner's cache).
    pub fn system(&self) -> &FlexSystem {
        &self.shared.system
    }

    /// Stop accepting work, drain queues (pending tickets resolve to
    /// [`ServeError::Shutdown`]), and join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let abandoned: Vec<Oneshot> = {
            let mut central = lock_clean(&self.shared.central);
            central.shutdown = true;
            let mut slots = Vec::new();
            for t in central.tenants.values_mut() {
                for q in &mut t.queues {
                    while let Some(p) = q.pop_front() {
                        t.in_flight -= 1;
                        slots.push(p.slot);
                    }
                }
            }
            central.queued_total = 0;
            slots
        };
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _unused = handle.join();
        }
        // Workers are gone; anything still parked in a deque is
        // abandoned too.
        let parked: Vec<Oneshot> = self
            .shared
            .deques
            .iter()
            .flat_map(|d| lock_clean(d).drain(..).map(|a| a.slot).collect::<Vec<_>>())
            .collect();
        for slot in abandoned.into_iter().chain(parked) {
            let (lock, cvar) = &*slot;
            let mut done = lock_clean(lock);
            if done.is_none() {
                *done = Some(Err(ServeError::Shutdown));
            }
            cvar.notify_all();
        }
    }
}

impl Drop for FlexService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{CooMatrix, DataType, MatrixData, MatrixFormat};

    fn operand(rows: usize, cols: usize, seed: u64) -> CooMatrix {
        let mut triplets = Vec::new();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        for r in 0..rows {
            for c in 0..cols {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(4) {
                    triplets.push((r, c, ((state % 17) as f64) - 8.0));
                }
            }
        }
        CooMatrix::from_triplets(rows, cols, triplets).unwrap()
    }

    fn job(tenant: u32, priority: Priority, seed: u64) -> WireJob {
        let a = MatrixData::encode(&operand(8, 10, seed), &MatrixFormat::Csr).unwrap();
        let b = MatrixData::encode(&operand(10, 6, seed + 100), &MatrixFormat::Zvc).unwrap();
        WireJob {
            tenant,
            priority,
            dtype: DataType::Fp32,
            a,
            b,
        }
    }

    #[test]
    fn jobs_complete_and_counters_track() {
        let service = FlexService::start(
            FlexSystem::default(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        let tickets: Vec<JobTicket> = (0..8)
            .map(|i| service.submit(job(1, Priority::Normal, i)).unwrap())
            .collect();
        for t in tickets {
            let outcome = t.wait().expect("job must complete");
            assert_eq!(outcome.tenant, 1);
            let res = wire::decode_result(&outcome.result_frame).unwrap();
            assert_eq!(res.job_id, outcome.job_id);
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_completed, 8);
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].submitted, 8);
        assert_eq!(stats.tenants[0].completed, 8);
        assert_eq!(stats.tenants[0].rejected, 0);
        assert_eq!(stats.cache.misses + stats.cache.hits, 8);
    }

    #[test]
    fn queue_full_and_tenant_caps_reject_typed() {
        let service = FlexService::start(
            FlexSystem::default(),
            ServeConfig {
                workers: 1,
                queue_capacity: 4,
                tenant_inflight_cap: 3,
                start_paused: true,
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        // Paused: jobs queue without being drained.
        assert!(service.submit(job(1, Priority::Normal, 0)).is_ok());
        assert!(service.submit(job(1, Priority::Normal, 1)).is_ok());
        assert!(service.submit(job(1, Priority::Normal, 2)).is_ok());
        // Tenant 1 is now at its in-flight cap.
        assert!(matches!(
            service.submit(job(1, Priority::Normal, 3)),
            Err(SubmitError::TenantBusy {
                tenant: 1,
                in_flight: 3,
                cap: 3
            })
        ));
        // Another tenant still fits — until the queue bound.
        assert!(service.submit(job(2, Priority::Normal, 4)).is_ok());
        assert!(matches!(
            service.submit(job(2, Priority::Normal, 5)),
            Err(SubmitError::QueueFull { capacity: 4 })
        ));
        let stats = service.stats();
        assert_eq!(stats.jobs_rejected, 2);
        service.resume();
    }

    #[test]
    fn weighted_fairness_governs_dispatch_order() {
        let service = FlexService::start(
            FlexSystem::default(),
            ServeConfig {
                workers: 1,
                queue_capacity: 1024,
                tenant_inflight_cap: 1024,
                start_paused: true,
                dispatch_batch: 1,
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        service.register_tenant(1, 1); // saturating competitor
        service.register_tenant(2, 8); // light, high-weight tenant
        let heavy: Vec<JobTicket> = (0..36)
            .map(|i| service.submit(job(1, Priority::Normal, i)).unwrap())
            .collect();
        let light: Vec<JobTicket> = (0..6)
            .map(|i| service.submit(job(2, Priority::Normal, 200 + i)).unwrap())
            .collect();
        service.resume();
        let heavy_seq: Vec<u64> = heavy
            .into_iter()
            .map(|t| t.wait().unwrap().dispatch_seq)
            .collect();
        let light_seq: Vec<u64> = light
            .into_iter()
            .map(|t| t.wait().unwrap().dispatch_seq)
            .collect();
        // The weight-8 tenant's 6 jobs all dispatch within the first
        // stretch of the schedule — it is not starved behind the 36-job
        // backlog of the weight-1 competitor.
        let light_max = *light_seq.iter().max().unwrap();
        assert!(
            light_max < 14,
            "high-weight tenant starved: its last dispatch was #{light_max}"
        );
        let heavy_mean: f64 = heavy_seq.iter().sum::<u64>() as f64 / heavy_seq.len() as f64;
        let light_mean: f64 = light_seq.iter().sum::<u64>() as f64 / light_seq.len() as f64;
        assert!(
            light_mean < heavy_mean,
            "weighted tenant must be served earlier on average \
             ({light_mean:.1} vs {heavy_mean:.1})"
        );
    }

    #[test]
    fn priorities_order_within_a_tenant() {
        let service = FlexService::start(
            FlexSystem::default(),
            ServeConfig {
                workers: 1,
                start_paused: true,
                dispatch_batch: 1,
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        let low = service.submit(job(1, Priority::Low, 0)).unwrap();
        let normal = service.submit(job(1, Priority::Normal, 1)).unwrap();
        let high = service.submit(job(1, Priority::High, 2)).unwrap();
        service.resume();
        let low_seq = low.wait().unwrap().dispatch_seq;
        let normal_seq = normal.wait().unwrap().dispatch_seq;
        let high_seq = high.wait().unwrap().dispatch_seq;
        assert!(high_seq < normal_seq && normal_seq < low_seq);
    }

    #[test]
    fn surplus_batch_work_is_stolen_by_idle_workers() {
        // One worker drains the whole backlog into its deque (batch >=
        // backlog); its siblings have nothing queued and must steal.
        // Whether a steal lands before the hoarder drains its own deque
        // is a scheduling race on a loaded single-core host, so the
        // scenario retries — one observed steal proves the mechanism
        // and its accounting.
        let run_once = || {
            let service = FlexService::start(
                FlexSystem::default(),
                ServeConfig {
                    workers: 4,
                    dispatch_batch: 64,
                    start_paused: true,
                    queue_capacity: 64,
                    ..ServeConfig::default()
                },
            )
            .expect("service starts");
            let tickets: Vec<JobTicket> = (0..48)
                .map(|i| service.submit(job(1, Priority::Normal, i)).unwrap())
                .collect();
            service.resume();
            let outcomes: Vec<JobOutcome> =
                tickets.into_iter().map(|t| t.wait().unwrap()).collect();
            assert!(outcomes.iter().all(|o| o.worker < 4));
            let stolen = service.stats().jobs_stolen;
            assert_eq!(outcomes.iter().filter(|o| o.stolen).count() as u64, stolen);
            stolen
        };
        assert!(
            (0..8).map(|_| run_once()).any(|s| s > 0),
            "idle workers never stole from the hoarding worker's deque"
        );
    }

    #[test]
    fn shutdown_resolves_pending_tickets() {
        let service = FlexService::start(
            FlexSystem::default(),
            ServeConfig {
                workers: 1,
                start_paused: true,
                ..ServeConfig::default()
            },
        )
        .expect("service starts");
        let ticket = service.submit(job(1, Priority::Normal, 0)).unwrap();
        service.shutdown();
        assert_eq!(ticket.wait(), Err(ServeError::Shutdown));
    }
}
