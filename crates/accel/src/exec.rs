//! Cycle-accurate functional execution of the weight-stationary array.
//!
//! [`simulate_ws`] runs `O = A x B` with `B` stationary (one column per
//! PE, tiled) and `A` streaming over the broadcast bus, for every ACF
//! combination of §IV: A in Dense / CSR / COO / CSC against B in Dense /
//! CSC. [`simulate_spgemm`] runs the CSR(A)-CSR(B) Gustavson dataflow
//! (rows of `B` stationary) used by the extreme-sparsity workloads.
//!
//! The simulator is *functional*: it performs the index matching the
//! extended PEs do in hardware and produces the actual output matrix
//! alongside exact cycle counts. It reads each operand in place through
//! its own ACF (Dense rows, CSR rows, COO triplets in storage order, CSC
//! columns) and packs the stream into beats by the [`BusPacking`] rules
//! without materializing them. A CSC stationary tile is indexed once per
//! k-pass by `k`; against a Dense one every PE matches every streamed
//! `k`, so a beat's PE work, buffer reads and flushes follow from its
//! length and rows and only the value MACs run per element. Tests
//! validate the output against the software kernels and the cycle counts
//! against the paper's Fig. 6 walkthrough.

use crate::bus::BusPacking;
use crate::config::AccelConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use sparseflex_formats::{
    CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, MatrixData, MatrixFormat, SparseMatrix, Value,
};
use std::fmt;
use std::ops::Range;

/// Errors a simulation can raise before running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Inner dimensions of A and B disagree.
    DimMismatch {
        /// Columns of A.
        a_cols: usize,
        /// Rows of B.
        b_rows: usize,
    },
    /// The requested ACF pair is not supported by the WS array.
    UnsupportedAcf {
        /// Streaming operand format.
        a: MatrixFormat,
        /// Stationary operand format.
        b: MatrixFormat,
    },
    /// A stationary unit (column or row) cannot fit in a PE buffer even
    /// alone.
    BufferTooSmall {
        /// Slots required by the indivisible unit.
        needed: usize,
        /// Slots available.
        available: usize,
    },
    /// An [`AccelConfig`] field the array cannot run with is zero: no MAC
    /// lanes (`vector_width`) or no bus slots (`bus_slots`).
    ZeroConfig {
        /// The zero field.
        field: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DimMismatch { a_cols, b_rows } => {
                write!(
                    f,
                    "dimension mismatch: A has {a_cols} cols, B has {b_rows} rows"
                )
            }
            SimError::UnsupportedAcf { a, b } => {
                write!(f, "unsupported ACF pair {a}(A)-{b}(B) on the WS array")
            }
            SimError::BufferTooSmall { needed, available } => {
                write!(
                    f,
                    "stationary unit needs {needed} slots, PE buffer has {available}"
                )
            }
            SimError::ZeroConfig { field } => {
                write!(f, "accelerator config has {field} = 0")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Cycle totals, split the way Fig. 12 stacks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Cycles broadcasting stationary tiles into PE buffers.
    pub load_b: u64,
    /// Cycles streaming matrix A (bus beats x PE stall factor).
    pub stream_a: u64,
    /// Cycles draining output registers to the global buffer.
    pub drain: u64,
}

impl CycleBreakdown {
    /// Total compute-side cycles.
    pub fn total(&self) -> u64 {
        self.load_b + self.stream_a + self.drain
    }
}

/// Activity counters for energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityCounts {
    /// MAC lane-operations issued (including zero-operand "wasted" ones).
    pub macs: u64,
    /// MACs where both operands were nonzero (true utilization).
    pub effective_macs: u64,
    /// Element slots moved over the broadcast bus.
    pub bus_slots_used: u64,
    /// PE buffer reads (stationary operand + metadata).
    pub pe_buffer_reads: u64,
    /// PE buffer writes (stationary tile loads).
    pub pe_buffer_writes: u64,
    /// Output-register flushes to the global buffer.
    pub output_flushes: u64,
}

impl ActivityCounts {
    /// PE utilization: effective MACs over issued MACs.
    pub fn utilization(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.effective_macs as f64 / self.macs as f64
        }
    }

    /// On-chip energy (DRAM is accounted separately by the memory model).
    pub fn energy(&self, e: &EnergyModel) -> EnergyBreakdown {
        EnergyBreakdown {
            compute: self.macs as f64 * e.mac_fp32,
            pe_buffer: (self.pe_buffer_reads + self.pe_buffer_writes) as f64 * e.pe_buffer_access,
            global_buffer: self.output_flushes as f64 * e.global_buffer_access,
            noc: self.bus_slots_used as f64 * e.noc_transfer,
            dram: 0.0,
        }
    }
}

/// Result of one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The computed output matrix (dense accumulation).
    pub output: DenseMatrix,
    /// Cycle breakdown.
    pub cycles: CycleBreakdown,
    /// Activity counters.
    pub counts: ActivityCounts,
    /// Number of stationary column tiles executed.
    pub n_tiles: usize,
    /// Total number of k-range passes across all column tiles.
    pub k_passes: usize,
}

/// Open-row marker of a PE that has accumulated nothing this pass.
const NO_ROW: usize = usize::MAX;

/// Reject a configuration the array cannot run with, before any work.
fn check_config(cfg: &AccelConfig) -> Result<(), SimError> {
    for (field, value) in [
        ("vector_width", cfg.vector_width),
        ("bus_slots", cfg.bus_slots),
    ] {
        if value == 0 {
            return Err(SimError::ZeroConfig { field });
        }
    }
    Ok(())
}

/// The output and the counters one simulation accumulates.
struct Sim {
    out: DenseMatrix,
    cycles: CycleBreakdown,
    counts: ActivityCounts,
    bus: BusPacking,
    vector_width: u64,
}

impl Sim {
    fn new(m: usize, n: usize, cfg: &AccelConfig) -> Self {
        Sim {
            out: DenseMatrix::zeros(m, n),
            cycles: CycleBreakdown::default(),
            counts: ActivityCounts::default(),
            bus: BusPacking {
                slots: cfg.bus_slots,
            },
            vector_width: cfg.vector_width as u64,
        }
    }

    /// Broadcast `slots` stationary element slots into the PE buffers.
    fn load(&mut self, slots: usize) {
        let load = self.bus.load_run(slots);
        self.cycles.load_b += load.beats;
        self.counts.bus_slots_used += load.slots_used;
        self.counts.pe_buffer_writes += slots as u64;
    }

    /// One bus beat of `slots` slots whose busiest PE issued `work` MACs:
    /// the vector unit retires `vector_width` of them per cycle, and a
    /// beat takes at least one cycle.
    fn beat(&mut self, slots: u64, work: u64) {
        self.counts.bus_slots_used += slots;
        self.cycles.stream_a += work.div_ceil(self.vector_width).max(1);
    }

    fn finish(mut self, cfg: &AccelConfig, n_tiles: usize, k_passes: usize) -> SimResult {
        // Output registers drain through per-PE ports into the banked
        // global buffer (one flush per PE per cycle), not over the shared
        // input bus.
        self.cycles.drain = self
            .counts
            .output_flushes
            .div_ceil(cfg.num_pes.max(1) as u64);
        SimResult {
            output: self.out,
            cycles: self.cycles,
            counts: self.counts,
            n_tiles,
            k_passes,
        }
    }
}

/// Matrix A as the bus streams it, read in place through its ACF.
#[derive(Clone, Copy)]
enum Stream<'a> {
    Dense(&'a DenseMatrix),
    Csr(&'a CsrMatrix),
    Coo(&'a CooMatrix),
    Csc(&'a CscMatrix),
}

/// The stationary side of one k-pass: what the tile's PEs do with each
/// streamed element.
trait Stations {
    /// Match element `a = A(row, k)` against every PE of the tile.
    fn elem(&mut self, sim: &mut Sim, k: usize, a: Value, row: usize);
    /// Close the beat of `slots` bus slots holding the elements since the
    /// previous call.
    fn end_beat(&mut self, sim: &mut Sim, slots: u64);
    /// Close the pass: flush the output rows the PEs still hold.
    fn end_pass(&mut self, sim: &mut Sim);
}

/// Stream A's elements with `k` in `ks` through `st`, beat by beat. A
/// Dense or CSR beat holds one row's elements and a CSC beat one
/// column's; COO beats run across rows. `whole` says `ks` covers every
/// `k`, so no row needs searching.
fn stream_pass(a: Stream, ks: Range<usize>, whole: bool, st: &mut impl Stations, sim: &mut Sim) {
    match a {
        Stream::Dense(d) => {
            let cap = sim.bus.dense_capacity();
            for r in 0..d.rows() {
                for (i, beat) in d.row(r)[ks.clone()].chunks(cap).enumerate() {
                    for (k, &v) in (ks.start + i * cap..).zip(beat) {
                        st.elem(sim, k, v, r);
                    }
                    st.end_beat(sim, beat.len() as u64 + 1); // + shared row id
                }
            }
        }
        Stream::Csr(c) => {
            let cap = sim.bus.pair_capacity();
            for r in 0..c.rows() {
                let (cols, vals) = c.row(r);
                let w = window(cols, &ks, whole);
                for (kb, vb) in cols[w.clone()].chunks(cap).zip(vals[w].chunks(cap)) {
                    for (&k, &v) in kb.iter().zip(vb) {
                        st.elem(sim, k, v, r);
                    }
                    st.end_beat(sim, 2 * kb.len() as u64 + 1); // pairs + shared row id
                }
            }
        }
        Stream::Coo(c) => {
            let cap = sim.bus.triple_capacity();
            let mut pending = 0usize;
            for ((&r, &k), &v) in c.row_ids().iter().zip(c.col_ids()).zip(c.values()) {
                if !ks.contains(&k) {
                    continue;
                }
                st.elem(sim, k, v, r);
                pending += 1;
                if pending == cap {
                    st.end_beat(sim, 3 * cap as u64);
                    pending = 0;
                }
            }
            if pending > 0 {
                st.end_beat(sim, 3 * pending as u64);
            }
        }
        Stream::Csc(c) => {
            let cap = sim.bus.pair_capacity();
            for k in ks {
                let (rows, vals) = c.col(k);
                for (rb, vb) in rows.chunks(cap).zip(vals.chunks(cap)) {
                    for (&r, &v) in rb.iter().zip(vb) {
                        st.elem(sim, k, v, r);
                    }
                    st.end_beat(sim, 2 * rb.len() as u64 + 1); // pairs + shared col id
                }
            }
        }
    }
    st.end_pass(sim);
}

/// The positions of a sorted index list that fall in `ks`.
fn window(idx: &[usize], ks: &Range<usize>, whole: bool) -> Range<usize> {
    if whole {
        0..idx.len()
    } else {
        idx.partition_point(|&k| k < ks.start)..idx.partition_point(|&k| k < ks.end)
    }
}

/// A Dense stationary tile, columns `c0..c1` of B: every PE holds the
/// pass's whole k-range, so every streamed element matches every PE.
struct DenseStations<'a> {
    b: &'a DenseMatrix,
    c0: usize,
    c1: usize,
    /// A column-major (CSC) stream changes the output row on every
    /// element, so each MAC flushes.
    col_major: bool,
    /// The output row every PE accumulates (row-major streams).
    open_row: usize,
    beat_len: u64,
}

impl Stations for DenseStations<'_> {
    fn elem(&mut self, sim: &mut Sim, k: usize, a: Value, row: usize) {
        self.beat_len += 1;
        if !self.col_major && self.open_row != row {
            if self.open_row != NO_ROW {
                sim.counts.output_flushes += (self.c1 - self.c0) as u64;
            }
            self.open_row = row;
        }
        if a == 0.0 {
            return;
        }
        let n = sim.out.cols();
        let out = &mut sim.out.data_mut()[row * n + self.c0..row * n + self.c1];
        for (o, &bv) in out.iter_mut().zip(&self.b.row(k)[self.c0..self.c1]) {
            if bv != 0.0 {
                sim.counts.effective_macs += 1;
                *o += a * bv;
            }
        }
    }

    fn end_beat(&mut self, sim: &mut Sim, slots: u64) {
        let len = std::mem::take(&mut self.beat_len);
        let width = (self.c1 - self.c0) as u64;
        sim.counts.macs += len * width;
        sim.counts.pe_buffer_reads += len * width;
        if self.col_major {
            sim.counts.output_flushes += len * width;
        }
        sim.beat(slots, if width == 0 { 0 } else { len });
    }

    fn end_pass(&mut self, sim: &mut Sim) {
        if self.open_row != NO_ROW {
            sim.counts.output_flushes += (self.c1 - self.c0) as u64;
            self.open_row = NO_ROW;
        }
    }
}

/// Run one Dense stationary tile in k-passes of `pe_buffer_elems` rows;
/// returns the pass count.
fn dense_b_tile(
    sim: &mut Sim,
    a: Stream,
    st: &mut DenseStations,
    cfg: &AccelConfig,
) -> Result<usize, SimError> {
    let buf = cfg.pe_buffer_elems;
    if buf == 0 {
        return Err(SimError::BufferTooSmall {
            needed: 1,
            available: 0,
        });
    }
    let k_dim = st.b.rows();
    let mut passes = 0;
    // An empty K still takes one (empty) pass.
    for k0 in (0..k_dim.max(1)).step_by(buf) {
        let k1 = (k0 + buf).min(k_dim);
        passes += 1;
        sim.load((st.c1 - st.c0) * (k1 - k0));
        stream_pass(a, k0..k1, k0 == 0 && k1 == k_dim, st, sim);
    }
    Ok(passes)
}

/// Each PE's MACs within the current beat. A counter is reset lazily:
/// it holds the beat it counts for, and a stale beat reads as zero.
struct BeatWork {
    work: Vec<(u64, u64)>,
    beat: u64,
    max: u64,
}

impl BeatWork {
    fn new(pes: usize) -> Self {
        BeatWork {
            work: vec![(0, 0); pes],
            beat: 1,
            max: 0,
        }
    }

    /// PE `pe` issues `macs` more MACs in this beat.
    fn add(&mut self, pe: usize, macs: u64) {
        let slot = &mut self.work[pe];
        if slot.0 != self.beat {
            *slot = (self.beat, 0);
        }
        slot.1 += macs;
        self.max = self.max.max(slot.1);
    }

    /// End the beat: the busiest PE's MACs in it.
    fn end(&mut self) -> u64 {
        self.beat += 1;
        std::mem::take(&mut self.max)
    }
}

/// A CSC stationary tile, columns `c0..c0 + width` of B (PE `p` holds
/// column `c0 + p`), loaded one k-pass at a time as a by-`k` index of
/// `(PE, value)` pairs. The buffers are sized once per simulation.
struct CscStations<'a> {
    b: &'a CscMatrix,
    c0: usize,
    width: usize,
    col_major: bool,
    k0: usize,
    /// `by_k[ptr[k - k0]..ptr[k - k0 + 1]]` are the pass's pairs at `k`.
    ptr: Vec<usize>,
    by_k: Vec<(usize, Value)>,
    /// Per PE: the first stored entry of its column not yet loaded.
    next: Vec<usize>,
    /// Per PE: the output row it accumulates (row-major streams).
    open_row: Vec<usize>,
    work: BeatWork,
}

impl<'a> CscStations<'a> {
    fn new(b: &'a CscMatrix, a: Stream, cfg: &AccelConfig) -> Self {
        let pes = cfg.num_pes.max(1).min(b.cols());
        let pairs = (cfg.pe_buffer_elems / 2).saturating_mul(pes);
        CscStations {
            b,
            c0: 0,
            width: 0,
            col_major: matches!(a, Stream::Csc(_)),
            k0: 0,
            ptr: Vec::with_capacity(b.rows() + 2),
            by_k: Vec::with_capacity(b.nnz().min(pairs)),
            next: vec![0; pes],
            open_row: vec![NO_ROW; pes],
            work: BeatWork::new(pes),
        }
    }

    /// Start the tile of columns `cols`.
    fn start_tile(&mut self, cols: Range<usize>) {
        self.c0 = cols.start;
        self.width = cols.len();
        self.next[..self.width].copy_from_slice(&self.b.col_ptr()[cols]);
    }

    /// End of the next k-pass: the largest `k1` for which no PE's column
    /// holds more than `cap` pairs from its first unloaded entry to `k1`.
    fn pass_end(&self, cap: usize) -> usize {
        let (col_ptr, ks) = (self.b.col_ptr(), self.b.row_ids());
        let mut k1 = self.b.rows();
        for (p, &s) in self.next[..self.width].iter().enumerate() {
            if s + cap < col_ptr[self.c0 + p + 1] {
                k1 = k1.min(ks[s + cap]);
            }
        }
        k1
    }

    /// Load every PE's entries in `ks` and index them by `k` (a counting
    /// sort); returns the slots loaded.
    fn load_pass(&mut self, ks: Range<usize>) -> usize {
        let (col_ptr, rows, vals) = (self.b.col_ptr(), self.b.row_ids(), self.b.values());
        self.k0 = ks.start;
        // Count into ptr[k - k0 + 2]; after the prefix sum ptr[k - k0 + 1]
        // is bucket k's start, and filling advances it to bucket k+1's.
        self.ptr.clear();
        self.ptr.resize(ks.len() + 2, 0);
        for (p, &s) in self.next[..self.width].iter().enumerate() {
            let end = col_ptr[self.c0 + p + 1];
            for &k in rows[s..end].iter().take_while(|&&k| k < ks.end) {
                self.ptr[k - ks.start + 2] += 1;
            }
        }
        for i in 2..self.ptr.len() {
            self.ptr[i] += self.ptr[i - 1];
        }
        let total = self.ptr[ks.len() + 1];
        self.by_k.clear();
        self.by_k.resize(total, (0, 0.0));
        for (p, next) in self.next[..self.width].iter_mut().enumerate() {
            let end = col_ptr[self.c0 + p + 1];
            while *next < end && rows[*next] < ks.end {
                let slot = &mut self.ptr[rows[*next] - ks.start + 1];
                self.by_k[*slot] = (p, vals[*next]);
                *slot += 1;
                *next += 1;
            }
        }
        2 * total
    }
}

impl Stations for CscStations<'_> {
    fn elem(&mut self, sim: &mut Sim, k: usize, a: Value, row: usize) {
        let i = k - self.k0;
        let n = sim.out.cols();
        let matches = &self.by_k[self.ptr[i]..self.ptr[i + 1]];
        sim.counts.macs += matches.len() as u64;
        sim.counts.pe_buffer_reads += matches.len() as u64;
        for &(p, bv) in matches {
            self.work.add(p, 1);
            if a != 0.0 && bv != 0.0 {
                sim.counts.effective_macs += 1;
                sim.out.data_mut()[row * n + self.c0 + p] += a * bv;
            }
            if self.col_major {
                sim.counts.output_flushes += 1;
            } else if self.open_row[p] != row {
                if self.open_row[p] != NO_ROW {
                    sim.counts.output_flushes += 1;
                }
                self.open_row[p] = row;
            }
        }
    }

    fn end_beat(&mut self, sim: &mut Sim, slots: u64) {
        sim.beat(slots, self.work.end());
    }

    fn end_pass(&mut self, sim: &mut Sim) {
        for open in &mut self.open_row[..self.width] {
            if *open != NO_ROW {
                sim.counts.output_flushes += 1;
                *open = NO_ROW;
            }
        }
    }
}

/// Run one CSC stationary tile, each k-pass as long as the fullest
/// column allows; returns the pass count.
fn csc_b_tile(
    sim: &mut Sim,
    a: Stream,
    st: &mut CscStations,
    cfg: &AccelConfig,
) -> Result<usize, SimError> {
    // Compressed stationary columns take 2 slots per stored entry.
    let buf = cfg.pe_buffer_elems;
    if buf < 2 {
        return Err(SimError::BufferTooSmall {
            needed: 2,
            available: buf,
        });
    }
    let cap = buf / 2;
    let k_dim = st.b.rows();
    let mut passes = 0;
    let mut k0 = 0;
    loop {
        let k1 = st.pass_end(cap);
        if k1 <= k0 && k_dim > 0 {
            // Unreachable for a valid CSC: a column holds at most one
            // entry per k.
            return Err(SimError::BufferTooSmall {
                needed: 2 * (cap + 1),
                available: buf,
            });
        }
        passes += 1;
        let slots = st.load_pass(k0..k1);
        sim.load(slots);
        stream_pass(a, k0..k1, k0 == 0 && k1 == k_dim, st, sim);
        k0 = k1;
        if k0 >= k_dim {
            return Ok(passes);
        }
    }
}

/// The stationary operand of [`simulate_ws`].
enum Stationary<'a> {
    Dense(&'a DenseMatrix),
    Csc(CscStations<'a>),
}

/// Simulate `O = A x B` on the weight-stationary array.
///
/// Supported ACF pairs: `A in {Dense, CSR, COO, CSC}` x `B in {Dense,
/// CSC}`. For CSR(A)-CSR(B) SpGEMM use [`simulate_spgemm`].
pub fn simulate_ws(
    a: &MatrixData,
    b: &MatrixData,
    cfg: &AccelConfig,
) -> Result<SimResult, SimError> {
    check_config(cfg)?;
    if a.cols() != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: a.cols(),
            b_rows: b.rows(),
        });
    }
    let unsupported = SimError::UnsupportedAcf {
        a: a.format(),
        b: b.format(),
    };
    let stream = match a {
        MatrixData::Dense(d) => Stream::Dense(d),
        MatrixData::Csr(c) => Stream::Csr(c),
        MatrixData::Coo(c) => Stream::Coo(c),
        MatrixData::Csc(c) => Stream::Csc(c),
        _ => return Err(unsupported),
    };
    let mut stationary = match b {
        MatrixData::Csc(c) => Stationary::Csc(CscStations::new(c, stream, cfg)),
        MatrixData::Dense(d) => Stationary::Dense(d),
        _ => return Err(unsupported),
    };

    let n = b.cols();
    let mut sim = Sim::new(a.rows(), n, cfg);
    let mut n_tiles = 0usize;
    let mut k_passes = 0usize;
    // A zero-PE configuration runs as one PE, as in `simulate_spgemm`
    // and the analytic estimates.
    let pes = cfg.num_pes.max(1);
    for c0 in (0..n).step_by(pes) {
        let c1 = (c0 + pes).min(n);
        n_tiles += 1;
        k_passes += match &mut stationary {
            Stationary::Dense(d) => {
                let mut st = DenseStations {
                    b: d,
                    c0,
                    c1,
                    col_major: matches!(stream, Stream::Csc(_)),
                    open_row: NO_ROW,
                    beat_len: 0,
                };
                dense_b_tile(&mut sim, stream, &mut st, cfg)?
            }
            Stationary::Csc(st) => {
                st.start_tile(c0..c1);
                csc_b_tile(&mut sim, stream, st, cfg)?
            }
        };
    }
    Ok(sim.finish(cfg, n_tiles, k_passes))
}

/// Simulate CSR(A)-CSR(B) SpGEMM with the Gustavson dataflow: rows of `B`
/// are distributed round-robin across PE buffers; each streamed nonzero
/// `A(r, k)` activates the PE holding row `k` of `B`, which multiplies it
/// against that whole compressed row.
pub fn simulate_spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &AccelConfig,
) -> Result<SimResult, SimError> {
    check_config(cfg)?;
    if a.cols() != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: a.cols(),
            b_rows: b.rows(),
        });
    }
    let k_dim = a.cols();
    let p = cfg.num_pes.max(1);

    // Greedy K ranges: add B rows k0..k1 while every PE's footprint
    // (2 slots per stored nonzero of its assigned rows) fits. Row k sits
    // on PE k mod p. No PE overflows when all of B fits one buffer.
    let cap = cfg.pe_buffer_elems;
    let mut ranges: Vec<Range<usize>> = Vec::new();
    if 2 * b.nnz() > cap {
        let mut footprint = vec![0usize; p];
        let (mut k0, mut pe) = (0, 0);
        for k in 0..k_dim {
            let foot = 2 * b.row_nnz(k);
            if foot > cap {
                return Err(SimError::BufferTooSmall {
                    needed: foot,
                    available: cap,
                });
            }
            if footprint[pe] + foot > cap {
                ranges.push(k0..k);
                k0 = k;
                footprint.fill(0);
            }
            footprint[pe] += foot;
            pe = if pe + 1 == p { 0 } else { pe + 1 };
        }
        ranges.push(k0..k_dim);
    } else {
        ranges.push(0..k_dim);
    }

    let mut sim = Sim::new(a.rows(), b.cols(), cfg);
    let mut work = BeatWork::new(p);
    let mut macs = 0u64;
    let whole = ranges.len() == 1;
    for ks in &ranges {
        sim.load(2 * (b.row_ptr()[ks.end] - b.row_ptr()[ks.start]));
        macs += spgemm_pass(&mut sim, a, b, ks, whole, p, &mut work);
    }
    // Every streamed nonzero multiplies its whole B row: each MAC reads
    // metadata and value and scatters one accumulation.
    sim.counts.macs += macs;
    sim.counts.effective_macs += macs;
    sim.counts.pe_buffer_reads += 2 * macs;
    sim.counts.output_flushes += macs;
    Ok(sim.finish(cfg, 1, ranges.len()))
}

/// Stream A's CSR rows restricted to `ks` (Fig. 6's CSR beats) against
/// the B rows resident for the pass; returns the MACs issued.
fn spgemm_pass(
    sim: &mut Sim,
    a: &CsrMatrix,
    b: &CsrMatrix,
    ks: &Range<usize>,
    whole: bool,
    p: usize,
    work: &mut BeatWork,
) -> u64 {
    let cap = sim.bus.pair_capacity();
    let n = sim.out.cols();
    let mut macs = 0u64;
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        let w = window(cols, ks, whole);
        for (kb, vb) in cols[w.clone()].chunks(cap).zip(vals[w].chunks(cap)) {
            let out = &mut sim.out.data_mut()[r * n..(r + 1) * n];
            for (&k, &v) in kb.iter().zip(vb) {
                let (bcols, bvals) = b.row(k);
                if bcols.is_empty() {
                    continue; // no MAC, so no PE to find
                }
                work.add(k % p, bcols.len() as u64);
                macs += bcols.len() as u64;
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    out[j] += v * bv;
                }
            }
            sim.beat(2 * kb.len() as u64 + 1, work.end()); // pairs + shared row id
        }
    }
    macs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 6 walkthrough operands.
    /// Matrix A (4x8): A@(0,0), B@(0,2), C@(0,4), H@(3,5).
    fn fig6_a() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            8,
            vec![(0, 0, 1.0), (0, 2, 2.0), (0, 4, 3.0), (3, 5, 8.0)],
        )
        .unwrap()
    }

    /// Matrix B (8x4): a@(0,0), d@(0,1), b@(2,0), f@(3,2), c@(4,0),
    /// g@(5,2), h@(5,3), e@(7,1).
    fn fig6_b() -> CooMatrix {
        CooMatrix::from_triplets(
            8,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 4.0),
                (2, 0, 2.0),
                (3, 2, 6.0),
                (4, 0, 3.0),
                (5, 2, 7.0),
                (5, 3, 8.0),
                (7, 1, 5.0),
            ],
        )
        .unwrap()
    }

    fn encode(coo: &CooMatrix, fmt: MatrixFormat) -> MatrixData {
        MatrixData::encode(coo, &fmt).unwrap()
    }

    fn reference(a: &CooMatrix, b: &CooMatrix) -> DenseMatrix {
        sparseflex_kernels::gemm::gemm_naive(&a.clone().into_dense(), &b.clone().into_dense())
    }

    #[test]
    fn fig6a_dense_dense_takes_8_stream_cycles() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Dense);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 8, "Fig. 6a: 8 cycles to send matrix A");
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
    }

    #[test]
    fn fig6b_csr_csc_takes_3_stream_cycles() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Csr);
        let b = encode(&fig6_b(), MatrixFormat::Csc);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 3, "Fig. 6b: 3 cycles to send matrix A");
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
    }

    #[test]
    fn fig6c_coo_dense_takes_4_stream_cycles() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Coo);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 4, "Fig. 6c: 4 cycles to send matrix A");
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
    }

    #[test]
    fn all_acf_pairs_compute_correctly() {
        let cfg = AccelConfig::walkthrough();
        let a_coo = fig6_a();
        let b_coo = fig6_b();
        let expect = reference(&a_coo, &b_coo);
        for a_fmt in [
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Coo,
            MatrixFormat::Csc,
        ] {
            for b_fmt in [MatrixFormat::Dense, MatrixFormat::Csc] {
                let r = simulate_ws(&encode(&a_coo, a_fmt), &encode(&b_coo, b_fmt), &cfg)
                    .unwrap_or_else(|e| panic!("{a_fmt}-{b_fmt}: {e}"));
                assert_eq!(r.output, expect, "wrong output for {a_fmt}(A)-{b_fmt}(B)");
            }
        }
    }

    #[test]
    fn dense_acf_wastes_macs_sparse_acf_does_not() {
        let cfg = AccelConfig::walkthrough();
        let a_coo = fig6_a();
        let b_coo = fig6_b();
        let dense = simulate_ws(
            &encode(&a_coo, MatrixFormat::Dense),
            &encode(&b_coo, MatrixFormat::Dense),
            &cfg,
        )
        .unwrap();
        let sparse = simulate_ws(
            &encode(&a_coo, MatrixFormat::Csr),
            &encode(&b_coo, MatrixFormat::Csc),
            &cfg,
        )
        .unwrap();
        assert!(
            dense.counts.utilization() < 0.2,
            "dense util {}",
            dense.counts.utilization()
        );
        assert_eq!(sparse.counts.utilization(), 1.0);
        assert_eq!(dense.counts.effective_macs, sparse.counts.effective_macs);
    }

    #[test]
    fn tiling_splits_wide_outputs_and_deep_k() {
        // N wider than the PE count and K deeper than the buffer.
        let mut cfg = AccelConfig::walkthrough();
        cfg.num_pes = 2;
        cfg.pe_buffer_elems = 4;
        let a =
            CooMatrix::from_triplets(3, 10, (0..10).map(|k| (k % 3, k, (k + 1) as f64)).collect())
                .unwrap();
        let b = CooMatrix::from_triplets(
            10,
            5,
            (0..10)
                .flat_map(|k| (0..5).map(move |j| (k, j, ((k + j) % 4) as f64 + 1.0)))
                .collect(),
        )
        .unwrap();
        let r = simulate_ws(
            &encode(&a, MatrixFormat::Csr),
            &encode(&b, MatrixFormat::Dense),
            &cfg,
        )
        .unwrap();
        assert_eq!(r.n_tiles, 3); // ceil(5 cols / 2 PEs)
        assert!(r.k_passes >= 3 * 3); // each tile needs ceil(10/4) = 3 passes
        assert_eq!(r.output, reference(&a, &b));
    }

    #[test]
    fn csc_stationary_tiling_by_occupancy() {
        // Stationary CSC columns with very uneven population.
        let mut cfg = AccelConfig::walkthrough();
        cfg.num_pes = 2;
        cfg.pe_buffer_elems = 6; // 3 pairs per PE
        let mut trip = Vec::new();
        for k in 0..12 {
            trip.push((k, 0, 1.0)); // column 0 fully populated
        }
        trip.push((11, 1, 2.0)); // column 1 nearly empty
        let b = CooMatrix::from_triplets(12, 2, trip).unwrap();
        let a = CooMatrix::from_triplets(2, 12, vec![(0, 0, 1.0), (1, 11, 1.0)]).unwrap();
        let r = simulate_ws(
            &encode(&a, MatrixFormat::Csr),
            &encode(&b, MatrixFormat::Csc),
            &cfg,
        )
        .unwrap();
        // Column 0 has 12 entries at 3 pairs per pass -> at least 4 passes.
        assert!(r.k_passes >= 4, "k_passes = {}", r.k_passes);
        assert_eq!(r.output, reference(&a, &b));
    }

    #[test]
    fn spgemm_matches_software() {
        let cfg = AccelConfig::walkthrough();
        let a = CsrMatrix::from_coo(&fig6_a());
        let b = CsrMatrix::from_coo(&fig6_b());
        let r = simulate_spgemm(&a, &b, &cfg).unwrap();
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
        assert_eq!(r.counts.utilization(), 1.0);
    }

    #[test]
    fn spgemm_rejects_oversized_row() {
        let mut cfg = AccelConfig::walkthrough();
        cfg.pe_buffer_elems = 4; // 2 pairs
        let b = CooMatrix::from_triplets(2, 8, (0..8).map(|j| (0, j, 1.0)).collect()).unwrap();
        let a = CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0)]).unwrap();
        let r = simulate_spgemm(&CsrMatrix::from_coo(&a), &CsrMatrix::from_coo(&b), &cfg);
        assert!(matches!(r, Err(SimError::BufferTooSmall { .. })));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&CooMatrix::empty(2, 3), MatrixFormat::Csr);
        let b = encode(&CooMatrix::empty(4, 2), MatrixFormat::Dense);
        assert!(matches!(
            simulate_ws(&a, &b, &cfg),
            Err(SimError::DimMismatch { .. })
        ));
    }

    #[test]
    fn unsupported_acf_rejected() {
        let cfg = AccelConfig::walkthrough();
        let coo = fig6_a();
        let a = encode(&coo, MatrixFormat::Zvc);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        assert!(matches!(
            simulate_ws(&a, &b, &cfg),
            Err(SimError::UnsupportedAcf { .. })
        ));
    }

    #[test]
    fn vector_width_limits_beat_throughput() {
        // With one MAC lane, a dense beat of 4 elements takes 4 cycles.
        let mut cfg = AccelConfig::walkthrough();
        cfg.vector_width = 1;
        let a = encode(&fig6_a(), MatrixFormat::Dense);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 8 * 4);
    }

    /// Zero `field` in the walkthrough configuration.
    fn zeroed(field: &str) -> AccelConfig {
        let mut cfg = AccelConfig::walkthrough();
        match field {
            "vector_width" => cfg.vector_width = 0,
            _ => cfg.bus_slots = 0,
        }
        cfg
    }

    fn ws_with(cfg: &AccelConfig) -> Result<SimResult, SimError> {
        let a = encode(&fig6_a(), MatrixFormat::Dense);
        let b = encode(&fig6_b(), MatrixFormat::Csc);
        simulate_ws(&a, &b, cfg)
    }

    fn spgemm_with(cfg: &AccelConfig) -> Result<SimResult, SimError> {
        let a = CsrMatrix::from_coo(&fig6_a());
        let b = CsrMatrix::from_coo(&fig6_b());
        simulate_spgemm(&a, &b, cfg)
    }

    #[test]
    fn ws_rejects_zero_vector_width() {
        let field = "vector_width";
        assert_eq!(ws_with(&zeroed(field)), Err(SimError::ZeroConfig { field }));
    }

    #[test]
    fn ws_rejects_zero_bus_slots() {
        let field = "bus_slots";
        assert_eq!(ws_with(&zeroed(field)), Err(SimError::ZeroConfig { field }));
    }

    #[test]
    fn spgemm_rejects_zero_vector_width() {
        let field = "vector_width";
        assert_eq!(
            spgemm_with(&zeroed(field)),
            Err(SimError::ZeroConfig { field })
        );
    }

    #[test]
    fn spgemm_rejects_zero_bus_slots() {
        let field = "bus_slots";
        assert_eq!(
            spgemm_with(&zeroed(field)),
            Err(SimError::ZeroConfig { field })
        );
    }

    /// SplitMix64: the product property's deterministic input stream.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Mostly sevenths (so the summation order shows in the rounded
        /// bits), some exact zeros, which a sparse format stores and WS
        /// must skip, and rare infinities, which make a skipped zero
        /// product visible (`0 x inf` is NaN).
        fn value(&mut self) -> Value {
            match self.below(40) {
                0..=4 => 0.0,
                5 => Value::INFINITY,
                6 => Value::NEG_INFINITY,
                _ => (self.below(2001) as Value - 1000.0) / 7.0,
            }
        }
    }

    /// A random `rows x cols` operand in every format the simulators
    /// take. Its stored entries, rows may be empty, and the sparse
    /// formats keep the explicit zeros (COO drops them, by its contract).
    struct Operand {
        dense: MatrixData,
        csr: CsrMatrix,
        coo: MatrixData,
        csc: MatrixData,
    }

    fn operand(g: &mut Gen, rows: usize, cols: usize) -> Operand {
        let density = g.below(101);
        let mut entries = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if g.below(100) < density {
                    entries.push((r, c, g.value()));
                }
            }
        }
        let mut dense = vec![0.0; rows * cols];
        let mut row_ptr = vec![0; rows + 1];
        let mut col_ptr = vec![0; cols + 1];
        for &(r, c, v) in &entries {
            dense[r * cols + c] = v;
            row_ptr[r + 1] += 1;
            col_ptr[c + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        for i in 1..col_ptr.len() {
            col_ptr[i] += col_ptr[i - 1];
        }
        let csr = CsrMatrix::from_parts(
            rows,
            cols,
            row_ptr,
            entries.iter().map(|e| e.1).collect(),
            entries.iter().map(|e| e.2).collect(),
        )
        .unwrap();
        let mut by_col = entries.clone();
        by_col.sort_by_key(|&(r, c, _)| (c, r));
        let csc = CscMatrix::from_parts(
            rows,
            cols,
            col_ptr,
            by_col.iter().map(|e| e.0).collect(),
            by_col.iter().map(|e| e.2).collect(),
        )
        .unwrap();
        Operand {
            dense: MatrixData::Dense(DenseMatrix::from_vec(rows, cols, dense).unwrap()),
            coo: MatrixData::Coo(CooMatrix::from_triplets(rows, cols, entries).unwrap()),
            csr,
            csc: MatrixData::Csc(csc),
        }
    }

    /// `A x B` summed over every product of a stored `A(i, k)` and a
    /// stored `B(k, j)`, or only those with no zero factor when
    /// `skip_zeros`; and the number of products summed.
    fn product(a: &CsrMatrix, b: &CsrMatrix, skip_zeros: bool) -> (DenseMatrix, u64) {
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        let mut products = 0;
        for i in 0..a.rows() {
            let (ks, avs) = a.row(i);
            for (&k, &av) in ks.iter().zip(avs) {
                let (js, bvs) = b.row(k);
                for (&j, &bv) in js.iter().zip(bvs) {
                    if !skip_zeros || (av != 0.0 && bv != 0.0) {
                        out.add_assign(i, j, av * bv);
                        products += 1;
                    }
                }
            }
        }
        (out, products)
    }

    /// The same product up to summation order: every non-finite cell
    /// exactly (a NaN for a NaN, the same infinity), every finite cell
    /// within `1e-9`.
    fn same_product(got: &DenseMatrix, want: &DenseMatrix) -> bool {
        (got.rows(), got.cols()) == (want.rows(), want.cols())
            && got.data().iter().zip(want.data()).all(|(&g, &w)| {
                if g.is_finite() && w.is_finite() {
                    (g - w).abs() <= 1e-9
                } else {
                    g == w || (g.is_nan() && w.is_nan())
                }
            })
    }

    /// The error a WS run must return: a PE buffer too small for one
    /// stationary unit of B (a Dense value, or a CSC row id and value),
    /// if B has a column to tile at all.
    fn ws_overflow(b: &MatrixData, cfg: &AccelConfig) -> Option<SimError> {
        let needed = match b {
            MatrixData::Csc(_) => 2,
            _ => 1,
        };
        let available = cfg.pe_buffer_elems;
        (b.cols() > 0 && available < needed)
            .then_some(SimError::BufferTooSmall { needed, available })
    }

    /// The error an SpGEMM run must return: the first row of B whose
    /// stored entries, two slots each, overflow a PE buffer.
    fn spgemm_overflow(b: &CsrMatrix, cfg: &AccelConfig) -> Option<SimError> {
        let available = cfg.pe_buffer_elems;
        (0..b.rows())
            .map(|k| 2 * b.row_nnz(k))
            .find(|&needed| needed > available)
            .map(|needed| SimError::BufferTooSmall { needed, available })
    }

    #[test]
    fn simulators_compute_the_reference_product() {
        let mut g = Gen(0x5eed);
        for case in 0..6000 {
            let (m, k, n) = (g.below(7), g.below(10), g.below(10));
            let cfg = AccelConfig {
                num_pes: g.below(6),
                vector_width: 1 + g.below(4),
                pe_buffer_elems: g.below(10),
                bus_slots: 1 + g.below(8),
                ..AccelConfig::walkthrough()
            };
            let a = operand(&mut g, m, k);
            let b = operand(&mut g, k, n);
            // A run computes the product, with one effective MAC per
            // product summed, or returns exactly the overflow B forces.
            let check = |sim: &str,
                         got: Result<SimResult, SimError>,
                         (want, products): &(DenseMatrix, u64),
                         overflow: Option<SimError>,
                         tiles: usize| {
                let what = || format!("case {case}: {sim} {m}x{k}x{n} {cfg:?}");
                match (got, overflow) {
                    (Ok(r), None) => {
                        assert!(same_product(&r.output, want), "{}", what());
                        assert_eq!(
                            (r.counts.effective_macs, r.n_tiles),
                            (*products, tiles),
                            "{}",
                            what()
                        );
                    }
                    (got, overflow) => assert_eq!(got.err(), overflow, "{}", what()),
                }
            };
            // WS skips every product with a zero factor; SpGEMM
            // multiplies every stored pair.
            let ws = product(&a.csr, &b.csr, true);
            let ws_tiles = n.div_ceil(cfg.num_pes.max(1));
            let a_csr = MatrixData::Csr(a.csr.clone());
            for (a_fmt, a) in [
                ("Dense", &a.dense),
                ("CSR", &a_csr),
                ("COO", &a.coo),
                ("CSC", &a.csc),
            ] {
                for (b_fmt, b) in [("Dense", &b.dense), ("CSC", &b.csc)] {
                    check(
                        &format!("{a_fmt}(A)-{b_fmt}(B)"),
                        simulate_ws(a, b, &cfg),
                        &ws,
                        ws_overflow(b, &cfg),
                        ws_tiles,
                    );
                }
            }
            check(
                "SpGEMM",
                simulate_spgemm(&a.csr, &b.csr, &cfg),
                &product(&a.csr, &b.csr, false),
                spgemm_overflow(&b.csr, &cfg),
                1,
            );
        }
    }

    #[test]
    fn energy_counts_are_consistent() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Csr);
        let b = encode(&fig6_b(), MatrixFormat::Csc);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        let e = r.counts.energy(&EnergyModel::default_28nm());
        assert!(e.total() > 0.0);
        assert_eq!(e.dram, 0.0);
        // Sparse-sparse matching: every MAC read one stationary value.
        assert_eq!(r.counts.pe_buffer_reads, r.counts.macs);
    }
}
