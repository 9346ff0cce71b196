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
//! alongside exact cycle counts, at a host cost that tracks the MACs it
//! models. It reads each operand in place through its own ACF (Dense
//! rows, CSR rows, COO triplets in storage order, CSC columns) and packs
//! the stream into beats by the [`BusPacking`] rules without
//! materializing them. Only value MACs and sparse-sparse matching run per
//! element:
//!
//! - A Dense stationary tile holds a pass's whole k-range in every PE, so
//!   every streamed element matches every PE. Each k-pass's beats,
//!   cycles, bus slots, MACs, buffer reads and flushes follow from the
//!   stream's shape: one row's k-window for a Dense stream (every row
//!   sends the same), each row's window length for CSR, each column's
//!   length for CSC, and the in-window count and row runs for COO.
//! - A CSC stationary tile is indexed once per k-pass by `k`. A Dense
//!   stream against it counts one row's beats, MACs, buffer reads and
//!   flushes for every row, and its value MACs run once per tile, against
//!   the tile laid out densely. A CSR, COO or CSC stream still matches
//!   each element against the PEs holding its `k`, beat by beat.
//! - Effective MACs come from the stationary tile's per-`k` nonzero
//!   counts, taken per tile (Dense tiles, and CSC tiles under a Dense
//!   stream) or per pass (CSC tiles under a sparse stream): over each
//!   nonzero `A(r, k)` streamed, the tile's nonzeros at `k`, counted
//!   beside the value MACs.
//! - Value MACs hold an output row's tile columns in register lanes
//!   (`[Value; 8]` chunks and a remainder) across all of that row's
//!   terms over all of K. Each cell still adds its products in ascending
//!   `k`. A product with a zero factor adds nothing, which leaves an
//!   accumulator that starts at +0.0 bit for bit as it was (it never
//!   holds −0.0), where `0 x inf` would add NaN.
//! - A Gustavson tile walks only B's non-empty rows, through a by-column
//!   index of A ([`GustavsonA`]) built once per operand and shared by
//!   every tile. A pass's beats are a function of A alone, and a beat
//!   takes more than one cycle only if its busiest PE issues more MACs
//!   than the vector width. A beat carries at most `cap` (A entry, B row)
//!   pairs, so its MACs are at most `cap + Σ(len − 1)` over its pairs' B
//!   rows. When `cap` is at most the vector width and a pass holds fewer
//!   B entries than B rows, only B rows with two or more entries count
//!   toward their beat, each its `len − 1`, and only a beat whose count
//!   passes `vector_width − cap` is summed PE by PE. Every other pass
//!   counts every MAC against the vector width.
//!
//! [`simulate_ws_into`] and [`simulate_spgemm_into`] accumulate the
//! product into a caller's [`OutBand`] (a row stride and a column offset),
//! so a tiled run writes each tile straight into its job's output, with
//! scratch ([`SimScratch`]) sized once for a run of tiles.
//! [`simulate_ws`] and [`simulate_spgemm`] wrap them with an owned
//! output. Tests validate the output against a reference product and the
//! software kernels, the cycle counts against the paper's Fig. 6
//! walkthrough, and the band form bit for bit against the owned one.

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

/// The totals of one simulation, without its output: what
/// [`simulate_ws_into`] and [`simulate_spgemm_into`] return, the product
/// having gone to the caller's [`OutBand`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Cycle breakdown.
    pub cycles: CycleBreakdown,
    /// Activity counters.
    pub counts: ActivityCounts,
    /// Number of stationary column tiles executed.
    pub n_tiles: usize,
    /// Total number of k-range passes across all column tiles.
    pub k_passes: usize,
}

impl SimResult {
    fn owned(output: DenseMatrix, stats: SimStats) -> Self {
        SimResult {
            output,
            cycles: stats.cycles,
            counts: stats.counts,
            n_tiles: stats.n_tiles,
            k_passes: stats.k_passes,
        }
    }
}

/// The caller's buffer a simulation accumulates its product into: entry
/// `(r, j)` of the product is `data[r * stride + col + j]`. Every cell the
/// product covers must hold +0.0 before the run; the run touches no other
/// cell.
#[derive(Debug)]
pub struct OutBand<'a> {
    data: &'a mut [Value],
    stride: usize,
    col: usize,
}

impl<'a> OutBand<'a> {
    /// A band over `data` whose rows lie `stride` values apart, the
    /// product's columns starting at column `col` of each row.
    pub fn new(data: &'a mut [Value], stride: usize, col: usize) -> Self {
        OutBand { data, stride, col }
    }

    /// Panic unless an `m x n` product fits the band: a caller's bug.
    fn check(&self, m: usize, n: usize) {
        assert!(
            m == 0
                || n == 0
                || (self.col + n <= self.stride
                    && (m - 1) * self.stride + self.col + n <= self.data.len()),
            "a {m}x{n} product does not fit an output band of stride {} at column {}",
            self.stride,
            self.col
        );
    }

    /// Columns `c0..c1` of product row `r`.
    #[inline]
    fn row(&mut self, r: usize, c0: usize, c1: usize) -> &mut [Value] {
        let base = r * self.stride + self.col;
        &mut self.data[base + c0..base + c1]
    }
}

/// Open-row marker of a PE that has accumulated nothing this pass.
const NO_ROW: usize = usize::MAX;

/// End of a column's list of entries of A.
const END: usize = usize::MAX;

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

/// Scratch a run of simulations reuses, on one thread: sized by the first
/// tiles and grown by later ones, never per beat or pass.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// A CSC stationary pass's by-`k` index: `by_k[ptr[k - k0]..ptr[k -
    /// k0 + 1]]` are its `(PE, value)` pairs at `k`.
    ptr: Vec<usize>,
    by_k: Vec<(usize, Value)>,
    /// The whole tile laid out densely, `k` by PE (Dense streams).
    block: Vec<Value>,
    /// Per PE: the first stored entry of its column not yet loaded.
    next: Vec<usize>,
    /// Per PE: the output row it accumulates (row-major streams).
    open_row: Vec<usize>,
    work: BeatWork,
    /// Per `k` of a weight-stationary tile, or of a CSC pass from `k0`,
    /// the nonzero values the tile's PEs hold at `k`.
    nz_b: Vec<u64>,
    /// Gustavson: the per-PE footprints and k-ranges of the passes.
    footprint: Vec<usize>,
    ranges: Vec<Range<usize>>,
    /// Gustavson, in a pass narrower than K: per row of A, its window's
    /// start and end and its first beat.
    windows: Vec<(usize, usize, usize)>,
    /// Gustavson: per beat, the pass it last did work in and the MACs it
    /// counted in that pass (all of them, or each pair's past its first:
    /// see `gustavson_pass`); and the `(beat, row, k)` of the beats whose
    /// count passes the pass's limit.
    beats: Vec<(u64, u64)>,
    pass: u64,
    over: Vec<(usize, usize, usize)>,
}

/// The counters one simulation accumulates, and the band its product
/// goes to.
struct Sim<'o> {
    out: OutBand<'o>,
    cycles: CycleBreakdown,
    counts: ActivityCounts,
    bus: BusPacking,
    vector_width: u64,
}

impl<'o> Sim<'o> {
    fn new(out: OutBand<'o>, cfg: &AccelConfig) -> Self {
        Sim {
            out,
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

    /// Cycles of a beat whose busiest PE issued `work` MACs: the vector
    /// unit retires `vector_width` of them per cycle, and a beat takes at
    /// least one cycle.
    fn beat_cycles(&self, work: u64) -> u64 {
        if work <= self.vector_width {
            1
        } else {
            work.div_ceil(self.vector_width)
        }
    }

    /// The beats and cycles of `len` elements streamed `cap` to a beat,
    /// each beat's busiest PE issuing one MAC per element.
    fn beats_of(&self, len: usize, cap: usize) -> (u64, u64) {
        let (full, rest) = ((len / cap) as u64, len % cap);
        let full_cycles = full * self.beat_cycles(cap as u64);
        if rest == 0 {
            (full, full_cycles)
        } else {
            (full + 1, full_cycles + self.beat_cycles(rest as u64))
        }
    }

    /// One bus beat of `slots` slots whose busiest PE issued `work` MACs.
    fn beat(&mut self, slots: u64, work: u64) {
        let cycles = self.beat_cycles(work);
        self.counts.bus_slots_used += slots;
        self.cycles.stream_a += cycles;
    }

    fn finish(mut self, cfg: &AccelConfig, n_tiles: usize, k_passes: usize) -> SimStats {
        // Output registers drain through per-PE ports into the banked
        // global buffer (one flush per PE per cycle), not over the shared
        // input bus.
        self.cycles.drain = self
            .counts
            .output_flushes
            .div_ceil(cfg.num_pes.max(1) as u64);
        SimStats {
            cycles: self.cycles,
            counts: self.counts,
            n_tiles,
            k_passes,
        }
    }
}

/// Output lanes a value MAC holds in registers: an output row's tile
/// columns go through [`mac_row`] one `[Value; LANES]` chunk at a time.
const LANES: usize = 8;

/// `acc[j] += a * bk[j]` for every lane, where a product with a zero
/// factor adds nothing rather than `0 x b` (NaN for an infinite factor):
/// a zero `a` skips the lanes, and a zero `bk[j]` adds +0.0. Either way
/// the accumulator keeps its bits, since it starts at +0.0 and so never
/// holds −0.0.
#[inline(always)]
fn mac_lanes(acc: &mut [Value], a: Value, bk: &[Value]) {
    if a != 0.0 {
        for (o, &bv) in acc.iter_mut().zip(bk) {
            *o += if bv != 0.0 { a * bv } else { 0.0 };
        }
    }
}

/// `out[j] += a * b_k[j]` for every term `(k, a)` of one output row, in
/// term order, where `b_k` is `b[k * stride..]`. Each `LANES`-wide chunk
/// of `out`, and then the remainder, stays in registers across all the
/// terms, so each cell still adds its products in term order.
#[inline]
fn mac_row<T>(out: &mut [Value], terms: T, b: &[Value], stride: usize)
where
    T: Iterator<Item = (usize, Value)> + Clone,
{
    let mut chunks = out.chunks_exact_mut(LANES);
    let mut col = 0;
    for chunk in &mut chunks {
        let mut acc = [0.0; LANES];
        acc.copy_from_slice(chunk);
        for (k, a) in terms.clone() {
            let base = k * stride + col;
            mac_lanes(&mut acc, a, &b[base..base + LANES]);
        }
        chunk.copy_from_slice(&acc);
        col += LANES;
    }
    let tail = chunks.into_remainder();
    let w = tail.len();
    if w > 0 {
        let mut acc = [0.0; LANES];
        acc[..w].copy_from_slice(tail);
        for (k, a) in terms {
            let base = k * stride + col;
            mac_lanes(&mut acc[..w], a, &b[base..base + w]);
        }
        tail.copy_from_slice(&acc[..w]);
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

/// The stationary operand of [`simulate_ws_into`].
#[derive(Clone, Copy)]
enum Stationary<'a> {
    Dense(&'a DenseMatrix),
    Csc(&'a CscMatrix),
}

/// The nonzero values among `vs`.
fn nonzeros(vs: &[Value]) -> u64 {
    vs.iter().map(|&v| u64::from(v != 0.0)).sum()
}

/// The effective MACs, those with no zero factor, of terms `(k, a)` of A
/// against a stationary tile holding `nz[k]` nonzeros at each `k`. A zero
/// `a` is masked out rather than branched over.
#[inline]
fn effective<T: Iterator<Item = (usize, Value)>>(terms: T, nz: &[u64]) -> u64 {
    terms.map(|(k, a)| nz[k] * u64::from(a != 0.0)).sum()
}

/// The positions of a sorted index list that fall in `ks`.
fn window(idx: &[usize], ks: &Range<usize>, whole: bool) -> Range<usize> {
    if whole {
        0..idx.len()
    } else {
        idx.partition_point(|&k| k < ks.start)..idx.partition_point(|&k| k < ks.end)
    }
}

/// Count a Dense stream's `m` rows of one `len`-element k-window: one
/// row's `beats`, with `row_cycles` cycles and `macs` MACs (as many
/// buffer reads) in all, repeated for every row.
fn count_dense_rows(sim: &mut Sim, m: u64, len: usize, (beats, row_cycles): (u64, u64), macs: u64) {
    sim.cycles.stream_a += m * row_cycles;
    sim.counts.bus_slots_used += m * (len as u64 + beats); // + shared row id
    sim.counts.macs += m * macs;
    sim.counts.pe_buffer_reads += m * macs;
}

/// Run one Dense stationary tile, columns `cols` of B, in k-passes of
/// `pe_buffer_elems` rows, then its value MACs; returns the pass count.
/// `nz` is scratch for the tile's nonzeros per `k`.
fn dense_b_tile(
    sim: &mut Sim,
    a: Stream,
    b: &DenseMatrix,
    cols: Range<usize>,
    cfg: &AccelConfig,
    nz: &mut Vec<u64>,
) -> Result<usize, SimError> {
    let buf = cfg.pe_buffer_elems;
    if buf == 0 {
        return Err(SimError::BufferTooSmall {
            needed: 1,
            available: 0,
        });
    }
    let (k_dim, width) = (b.rows(), cols.len());
    let mut passes = 0;
    // An empty K still takes one (empty) pass.
    for k0 in (0..k_dim.max(1)).step_by(buf) {
        let k1 = (k0 + buf).min(k_dim);
        passes += 1;
        sim.load(width * (k1 - k0));
        count_dense_b_pass(sim, a, k0..k1, k0 == 0 && k1 == k_dim, width as u64);
    }
    nz.clear();
    nz.extend((0..k_dim).map(|k| nonzeros(&b.row(k)[cols.clone()])));
    // Row `k` of the tile starts at `lanes[k * b.cols()]`; an empty K has
    // no rows (and no terms reach them).
    let lanes = b.data().get(cols.start..).unwrap_or_default();
    sim.counts.effective_macs += dense_b_values(&mut sim.out, a, lanes, b.cols(), cols, nz);
    Ok(passes)
}

/// Count one k-pass of a Dense stationary tile `width` columns wide from
/// the shape of A's stream over `ks` alone: one row's k-window for a
/// Dense stream (every row sends the same), each row's window length for
/// CSR, each column's length for CSC, and the in-window count and row
/// runs for COO. Every PE holds the pass's whole k-range, so each
/// streamed element is one MAC and one buffer read on every PE, and a
/// beat's busiest PE issues one MAC per element. A row-major stream's
/// PEs flush each output row they open when the next opens or the pass
/// ends; a CSC stream changes row on every element, so each MAC flushes.
fn count_dense_b_pass(sim: &mut Sim, a: Stream, ks: Range<usize>, whole: bool, width: u64) {
    let elems = match a {
        Stream::Dense(d) => {
            let (m, len) = (d.rows() as u64, ks.len());
            if len > 0 {
                let beats = sim.beats_of(len, sim.bus.dense_capacity());
                count_dense_rows(sim, m, len, beats, len as u64 * width);
                sim.counts.output_flushes += m * width;
            }
            return;
        }
        Stream::Csr(c) => {
            let cap = sim.bus.pair_capacity();
            let mut elems = 0;
            for r in 0..c.rows() {
                let len = window(c.row(r).0, &ks, whole).len();
                if len > 0 {
                    let (beats, cycles) = sim.beats_of(len, cap);
                    sim.cycles.stream_a += cycles;
                    sim.counts.bus_slots_used += 2 * len as u64 + beats; // pairs + shared row id
                    sim.counts.output_flushes += width;
                    elems += len as u64;
                }
            }
            elems
        }
        Stream::Coo(c) => {
            // Beats run across rows; PEs open an output row per row run.
            let (mut elems, mut runs, mut last) = (0, 0, NO_ROW);
            for (&r, &k) in c.row_ids().iter().zip(c.col_ids()) {
                if ks.contains(&k) {
                    elems += 1;
                    runs += u64::from(r != last);
                    last = r;
                }
            }
            let (_, cycles) = sim.beats_of(elems, sim.bus.triple_capacity());
            sim.cycles.stream_a += cycles;
            sim.counts.bus_slots_used += 3 * elems as u64;
            sim.counts.output_flushes += runs * width;
            elems as u64
        }
        Stream::Csc(c) => {
            let cap = sim.bus.pair_capacity();
            let mut elems = 0;
            for k in ks {
                let len = c.col(k).0.len();
                let (beats, cycles) = sim.beats_of(len, cap);
                sim.cycles.stream_a += cycles;
                sim.counts.bus_slots_used += 2 * len as u64 + beats; // pairs + shared col id
                elems += len as u64;
            }
            sim.counts.output_flushes += elems * width;
            elems
        }
    };
    sim.counts.macs += elems * width;
    sim.counts.pe_buffer_reads += elems * width;
}

/// A stationary tile's value MACs over all of K at once, the tile laid
/// out densely: its row `k` starts at `lanes[k * stride]`, holds `nz[k]`
/// nonzeros and feeds output columns `cols`. Each output row's terms run
/// in ascending `k`, as the passes stream them. A CSC stream reaches a
/// row one column of A at a time, still in ascending `k`. Returns the
/// effective MACs, counted beside each row's values while they are hot.
fn dense_b_values(
    out: &mut OutBand,
    a: Stream,
    lanes: &[Value],
    stride: usize,
    cols: Range<usize>,
    nz: &[u64],
) -> u64 {
    let (c0, c1) = (cols.start, cols.end);
    let mut total = 0;
    match a {
        Stream::Dense(d) => {
            for r in 0..d.rows() {
                let terms = d.row(r).iter().copied().enumerate();
                total += effective(terms.clone(), nz);
                mac_row(out.row(r, c0, c1), terms, lanes, stride);
            }
        }
        Stream::Csr(c) => {
            for r in 0..c.rows() {
                let (ks, vs) = c.row(r);
                let terms = ks.iter().copied().zip(vs.iter().copied());
                total += effective(terms.clone(), nz);
                mac_row(out.row(r, c0, c1), terms, lanes, stride);
            }
        }
        Stream::Coo(c) => {
            let mut start = 0;
            for run in c.row_ids().chunk_by(|r, s| r == s) {
                let span = start..start + run.len();
                let (ks, vs) = (&c.col_ids()[span.clone()], &c.values()[span]);
                let terms = ks.iter().copied().zip(vs.iter().copied());
                total += effective(terms.clone(), nz);
                mac_row(out.row(run[0], c0, c1), terms, lanes, stride);
                start += run.len();
            }
        }
        Stream::Csc(c) => {
            for k in 0..c.cols() {
                let (rs, vs) = c.col(k);
                total += effective(vs.iter().map(|&v| (k, v)), nz);
                for (&r, &v) in rs.iter().zip(vs) {
                    let term = std::iter::once((k, v));
                    mac_row(out.row(r, c0, c1), term, lanes, stride);
                }
            }
        }
    }
    total
}

/// Each PE's MACs within the current beat. A counter is reset lazily:
/// it holds the beat it counts for, and a stale beat reads as zero.
#[derive(Debug)]
struct BeatWork {
    work: Vec<(u64, u64)>,
    beat: u64,
    max: u64,
}

impl Default for BeatWork {
    fn default() -> Self {
        BeatWork {
            work: Vec::new(),
            beat: 1,
            max: 0,
        }
    }
}

impl BeatWork {
    /// Count for `pes` PEs. The beat counter only grows, so counters left
    /// by an earlier run read as stale.
    fn reset(&mut self, pes: usize) {
        self.work.resize(pes, (0, 0));
        self.end();
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
/// `(PE, value)` pairs in the scratch.
struct CscStations<'a, 's> {
    b: &'a CscMatrix,
    c0: usize,
    width: usize,
    /// A column-major (CSC) stream changes the output row on every
    /// element, so each MAC flushes.
    col_major: bool,
    k0: usize,
    /// PEs holding at least one entry in the pass.
    holding: u64,
    s: &'s mut SimScratch,
}

impl<'a, 's> CscStations<'a, 's> {
    /// The tile of columns `cols`, streamed by `a`.
    fn new(b: &'a CscMatrix, cols: Range<usize>, a: Stream, s: &'s mut SimScratch) -> Self {
        let width = cols.len();
        s.next.clear();
        s.next.extend_from_slice(&b.col_ptr()[cols.clone()]);
        s.open_row.clear();
        s.open_row.resize(width, NO_ROW);
        s.work.reset(width);
        CscStations {
            b,
            c0: cols.start,
            width,
            col_major: matches!(a, Stream::Csc(_)),
            k0: 0,
            holding: 0,
            s,
        }
    }

    /// End of the next k-pass: the largest `k1` for which no PE's column
    /// holds more than `cap` pairs from its first unloaded entry to `k1`.
    fn pass_end(&self, cap: usize) -> usize {
        let (col_ptr, ks) = (self.b.col_ptr(), self.b.row_ids());
        let mut k1 = self.b.rows();
        for (p, &s) in self.s.next[..self.width].iter().enumerate() {
            if s + cap < col_ptr[self.c0 + p + 1] {
                k1 = k1.min(ks[s + cap]);
            }
        }
        k1
    }

    /// Load every PE's entries in `ks`, index them by `k` (a counting
    /// sort) and count the nonzeros at each `k`; returns the slots loaded.
    fn load_pass(&mut self, ks: Range<usize>) -> usize {
        let (col_ptr, rows, vals) = (self.b.col_ptr(), self.b.row_ids(), self.b.values());
        let s = &mut *self.s;
        self.k0 = ks.start;
        // Count into ptr[k - k0 + 2]; after the prefix sum ptr[k - k0 + 1]
        // is bucket k's start, and filling advances it to bucket k+1's.
        s.ptr.clear();
        s.ptr.resize(ks.len() + 2, 0);
        for (p, &first) in s.next[..self.width].iter().enumerate() {
            let end = col_ptr[self.c0 + p + 1];
            for &k in rows[first..end].iter().take_while(|&&k| k < ks.end) {
                s.ptr[k - ks.start + 2] += 1;
            }
        }
        let mut sum = 0;
        for p in &mut s.ptr {
            sum += *p;
            *p = sum;
        }
        s.by_k.clear();
        s.by_k.resize(sum, (0, 0.0));
        s.nz_b.clear();
        s.nz_b.resize(ks.len(), 0);
        self.holding = 0;
        for (p, next) in s.next[..self.width].iter_mut().enumerate() {
            let (first, end) = (*next, col_ptr[self.c0 + p + 1]);
            while *next < end && rows[*next] < ks.end {
                let (i, v) = (rows[*next] - ks.start, vals[*next]);
                s.by_k[s.ptr[i + 1]] = (p, v);
                s.ptr[i + 1] += 1;
                s.nz_b[i] += u64::from(v != 0.0);
                *next += 1;
            }
            self.holding += u64::from(*next > first);
        }
        2 * sum
    }

    /// Match element `a = A(row, k)` against every PE of the tile.
    fn elem(&mut self, sim: &mut Sim, k: usize, a: Value, row: usize) {
        let i = k - self.k0;
        let s = &mut *self.s;
        let matches = &s.by_k[s.ptr[i]..s.ptr[i + 1]];
        sim.counts.macs += matches.len() as u64;
        sim.counts.pe_buffer_reads += matches.len() as u64;
        sim.counts.effective_macs += effective(std::iter::once((i, a)), &s.nz_b);
        let out = sim.out.row(row, self.c0, self.c0 + self.width);
        for &(p, bv) in matches {
            s.work.add(p, 1);
            out[p] += if a != 0.0 && bv != 0.0 { a * bv } else { 0.0 };
            if self.col_major {
                sim.counts.output_flushes += 1;
            } else if s.open_row[p] != row {
                if s.open_row[p] != NO_ROW {
                    sim.counts.output_flushes += 1;
                }
                s.open_row[p] = row;
            }
        }
    }

    /// Close the beat of `slots` bus slots holding the elements since the
    /// previous call.
    fn end_beat(&mut self, sim: &mut Sim, slots: u64) {
        sim.beat(slots, self.s.work.end());
    }

    /// Close the pass: flush the output rows the PEs still hold.
    fn end_pass(&mut self, sim: &mut Sim) {
        for open in &mut self.s.open_row[..self.width] {
            if *open != NO_ROW {
                sim.counts.output_flushes += 1;
                *open = NO_ROW;
            }
        }
    }

    /// Count every row of a Dense `d` streamed over `ks`: each row sends
    /// the same k-window, so one row's beats, MACs, buffer reads and
    /// flushes are counted for all. The value MACs run once per tile
    /// ([`CscStations::dense_values`]).
    fn dense_rows(&mut self, sim: &mut Sim, d: &DenseMatrix, ks: Range<usize>) {
        let (m, len) = (d.rows() as u64, ks.len());
        if m == 0 || len == 0 {
            return;
        }
        let s = &mut *self.s;
        // One row's beats: a streamed k matches the PEs holding an entry
        // at k, whatever A's value there.
        let cap = sim.bus.dense_capacity();
        let (mut beats, mut row_cycles, mut macs) = (0, 0, 0);
        for i0 in (0..len).step_by(cap) {
            for i in i0..(i0 + cap).min(len) {
                let matches = &s.by_k[s.ptr[i]..s.ptr[i + 1]];
                macs += matches.len() as u64;
                for &(p, _) in matches {
                    s.work.add(p, 1);
                }
            }
            beats += 1;
            row_cycles += sim.beat_cycles(s.work.end());
        }
        count_dense_rows(sim, m, len, (beats, row_cycles), macs);
        // A PE holding an entry in the pass opens each row, and flushes it
        // when the next row opens or the pass ends.
        sim.counts.output_flushes += m * self.holding;
    }

    /// A Dense stream's value MACs against the whole tile laid out
    /// densely, `k` by PE, as a Dense tile's run: a PE holding nothing at
    /// `k` adds +0.0, as a stored zero does, and each cell still adds its
    /// products in ascending `k` across the passes.
    fn dense_values(&mut self, sim: &mut Sim, d: &DenseMatrix) {
        let (w, s) = (self.width, &mut *self.s);
        s.block.clear();
        s.block.resize(self.b.rows() * w, 0.0);
        for p in 0..w {
            let (ks, vs) = self.b.col(self.c0 + p);
            for (&k, &v) in ks.iter().zip(vs) {
                s.block[k * w + p] = v;
            }
        }
        s.nz_b.clear();
        s.nz_b.extend(s.block.chunks_exact(w).map(nonzeros));
        let cols = self.c0..self.c0 + w;
        let a = Stream::Dense(d);
        sim.counts.effective_macs += dense_b_values(&mut sim.out, a, &s.block, w, cols, &s.nz_b);
    }
}

/// Stream A's elements with `k` in `ks` through a CSC stationary tile's
/// PEs, beat by beat. A Dense or CSR beat holds one row's elements and a
/// CSC beat one column's; COO beats run across rows. `whole` says `ks`
/// covers every `k`, so no row needs searching.
fn stream_pass(a: Stream, ks: Range<usize>, whole: bool, st: &mut CscStations, sim: &mut Sim) {
    match a {
        Stream::Dense(d) => st.dense_rows(sim, d, ks),
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

/// Run one CSC stationary tile, each k-pass as long as the fullest
/// column allows, then a Dense stream's value MACs over the whole tile;
/// returns the pass count.
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
            if let Stream::Dense(d) = a {
                st.dense_values(sim, d);
            }
            return Ok(passes);
        }
    }
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
    let mut output = DenseMatrix::zeros(a.rows(), b.cols());
    let band = OutBand::new(output.data_mut(), b.cols(), 0);
    let stats = simulate_ws_into(a, b, cfg, &mut SimScratch::default(), band)?;
    Ok(SimResult::owned(output, stats))
}

/// [`simulate_ws`] accumulating the product into `out`, with `scratch`
/// kept for the caller's next simulation.
pub fn simulate_ws_into(
    a: &MatrixData,
    b: &MatrixData,
    cfg: &AccelConfig,
    scratch: &mut SimScratch,
    out: OutBand<'_>,
) -> Result<SimStats, SimError> {
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
    let stationary = match b {
        MatrixData::Dense(d) => Stationary::Dense(d),
        MatrixData::Csc(c) => Stationary::Csc(c),
        _ => return Err(unsupported),
    };

    let n = b.cols();
    out.check(a.rows(), n);
    let mut sim = Sim::new(out, cfg);
    let mut n_tiles = 0usize;
    let mut k_passes = 0usize;
    // A zero-PE configuration runs as one PE, as in `simulate_spgemm`
    // and the analytic estimates.
    let pes = cfg.num_pes.max(1);
    for c0 in (0..n).step_by(pes) {
        let cols = c0..(c0 + pes).min(n);
        n_tiles += 1;
        k_passes += match stationary {
            Stationary::Dense(d) => {
                dense_b_tile(&mut sim, stream, d, cols, cfg, &mut scratch.nz_b)?
            }
            Stationary::Csc(c) => {
                let mut st = CscStations::new(c, cols, stream, scratch);
                csc_b_tile(&mut sim, stream, &mut st, cfg)?
            }
        };
    }
    Ok(sim.finish(cfg, n_tiles, k_passes))
}

/// Matrix A of a Gustavson run indexed by column, so that a tile walks
/// only B's non-empty rows and the A entries each meets. Built once per
/// operand, for one bus width, and shared read-only by every tile.
#[derive(Debug)]
pub struct GustavsonA<'a> {
    a: &'a CsrMatrix,
    /// Column `k`'s entries are a list from `head[k]` through `entries`.
    head: Vec<usize>,
    /// `(row, beat, value, next)`: `beat` numbers the entry's beat among
    /// those streaming all of A over all of K, and `next` is the column's
    /// next entry (rows descending).
    entries: Vec<(usize, usize, Value, usize)>,
    /// (data, col id) pairs per beat of the bus it was built for.
    cap: usize,
    /// Beats streaming all of A over all of K.
    beats: usize,
}

impl<'a> GustavsonA<'a> {
    /// Index `a` for runs on `cfg`'s bus.
    pub fn new(a: &'a CsrMatrix, cfg: &AccelConfig) -> Self {
        Self::of_columns(a, cfg, |_| true)
    }

    /// Index the entries of `a` in the columns `keep` selects, in one walk
    /// of A: a run against one B needs only those its non-empty rows meet.
    fn of_columns(a: &'a CsrMatrix, cfg: &AccelConfig, keep: impl Fn(usize) -> bool) -> Self {
        let cap = BusPacking {
            slots: cfg.bus_slots,
        }
        .pair_capacity();
        let mut head = vec![END; a.cols()];
        let mut entries = Vec::with_capacity(a.nnz());
        let mut beats = 0;
        for r in 0..a.rows() {
            let (ks, vs) = a.row(r);
            // Each row opens a beat at its first entry and every `cap`.
            let mut in_beat = cap;
            for (&k, &v) in ks.iter().zip(vs) {
                if in_beat == cap {
                    beats += 1;
                    in_beat = 0;
                }
                in_beat += 1;
                if keep(k) {
                    entries.push((r, beats - 1, v, head[k]));
                    head[k] = entries.len() - 1;
                }
            }
        }
        GustavsonA {
            a,
            head,
            entries,
            cap,
            beats,
        }
    }
}

/// The number of leading row ends in `ends` at or before entry `e`: the
/// offset of the row holding `e`. A galloping search, so a near row costs
/// a step or two and a far one a logarithm of its distance.
fn next_row(ends: &[usize], e: usize) -> usize {
    let mut bound = 1;
    while bound < ends.len() && ends[bound - 1] <= e {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + ends[lo..bound.min(ends.len())].partition_point(|&end| end <= e)
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
    let mut output = DenseMatrix::zeros(a.rows(), b.cols());
    let band = OutBand::new(output.data_mut(), b.cols(), 0);
    // One tile meets only the columns of A that B's non-empty rows select.
    let a_cols = GustavsonA::of_columns(a, cfg, |k| k < b.rows() && b.row_nnz(k) > 0);
    let stats = simulate_spgemm_into(&a_cols, b, cfg, &mut SimScratch::default(), band)?;
    Ok(SimResult::owned(output, stats))
}

/// [`simulate_spgemm`] over an indexed A, accumulating the product into
/// `out`, with `scratch` kept for the caller's next simulation. `a` must
/// have been indexed for `cfg`'s bus.
pub fn simulate_spgemm_into(
    a: &GustavsonA,
    b: &CsrMatrix,
    cfg: &AccelConfig,
    scratch: &mut SimScratch,
    out: OutBand<'_>,
) -> Result<SimStats, SimError> {
    check_config(cfg)?;
    let (m, k_dim) = (a.a.rows(), a.a.cols());
    if k_dim != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: k_dim,
            b_rows: b.rows(),
        });
    }
    assert_eq!(
        a.cap,
        BusPacking {
            slots: cfg.bus_slots
        }
        .pair_capacity(),
        "A was indexed for another bus"
    );
    let p = cfg.num_pes.max(1);

    // Greedy K ranges: add B rows k0..k1 while every PE's footprint
    // (2 slots per stored nonzero of its assigned rows) fits. Row k sits
    // on PE k mod p. No PE overflows when all of B fits one buffer.
    let cap = cfg.pe_buffer_elems;
    let mut ranges = std::mem::take(&mut scratch.ranges);
    ranges.clear();
    if 2 * b.nnz() > cap {
        let footprint = &mut scratch.footprint;
        footprint.clear();
        footprint.resize(p, 0);
        let (mut k0, mut pe) = (0, 0);
        for k in 0..k_dim {
            let foot = 2 * b.row_nnz(k);
            if foot > cap {
                scratch.ranges = ranges;
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

    out.check(m, b.cols());
    let mut sim = Sim::new(out, cfg);
    scratch.work.reset(p);
    let mut macs = 0u64;
    let whole = ranges.len() == 1;
    for ks in &ranges {
        sim.load(2 * (b.row_ptr()[ks.end] - b.row_ptr()[ks.start]));
        macs += gustavson_pass(&mut sim, a, b, ks, whole, p, scratch);
    }
    let passes = ranges.len();
    scratch.ranges = ranges;
    // Every streamed nonzero multiplies its whole B row: each MAC reads
    // metadata and value and scatters one accumulation.
    sim.counts.macs += macs;
    sim.counts.effective_macs += macs;
    sim.counts.pe_buffer_reads += 2 * macs;
    sim.counts.output_flushes += macs;
    Ok(sim.finish(cfg, 1, passes))
}

/// Stream A's CSR rows restricted to `ks` (Fig. 6's CSR beats) against
/// the B rows resident for the pass; returns the MACs issued.
///
/// The pass's beats are A's rows cut `cap` entries to a beat, a function
/// of A alone, and each takes at least one cycle. The walk visits only
/// B's non-empty rows and the A entries in their columns: each such
/// (A entry, B row) pair issues the row's `len` MACs into the product. A
/// beat's busiest PE issues at most all its MACs, so only a beat whose
/// MACs exceed the vector width can take more than one cycle; such a
/// beat's MACs are then summed PE by PE.
///
/// Which pairs count toward their beat: a beat carries at most `cap`
/// pairs, so its MACs are at most `cap + Σ(len − 1)` over its pairs.
/// When `cap` is at most the vector width and the pass holds fewer B
/// entries than B rows, a pair counts only its excess `len − 1` (a
/// one-entry row counts nothing, so its pairs skip the count), and only
/// a beat whose excess passes `vector_width − cap` is summed PE by PE.
/// Every other pass counts each pair's `len` against the vector width.
/// The two differ only in which beats are summed PE by PE, never in a
/// cycle: a beat left out takes one.
fn gustavson_pass(
    sim: &mut Sim,
    a: &GustavsonA,
    b: &CsrMatrix,
    ks: &Range<usize>,
    whole: bool,
    p: usize,
    s: &mut SimScratch,
) -> u64 {
    let (csr, cap) = (a.a, a.cap);
    let (beats, entries) = if whole {
        (a.beats, csr.nnz())
    } else {
        // A pass narrower than K streams each row's window of it.
        s.windows.clear();
        let (mut beats, mut entries) = (0, 0);
        for r in 0..csr.rows() {
            let w = window(csr.row(r).0, ks, false);
            s.windows.push((w.start, w.end, beats));
            beats += w.len().div_ceil(cap);
            entries += w.len();
        }
        (beats, entries)
    };
    sim.counts.bus_slots_used += 2 * entries as u64 + beats as u64; // pairs + shared row id
    sim.cycles.stream_a += beats as u64;
    if s.beats.len() < beats {
        s.beats.resize(beats, (0, 0));
    }
    s.pass += 1;
    s.over.clear();

    let (row_ptr, b_cols, b_vals) = (b.row_ptr(), b.col_ids(), b.values());
    let n = b.cols();
    let (vw, pairs) = (sim.vector_width, cap as u64);
    // Each pair counts its MACs past `discount`; a beat whose count
    // passes `limit` is summed PE by PE.
    let sparse = row_ptr[ks.end] - row_ptr[ks.start] < ks.len();
    let (discount, limit) = if sparse && pairs <= vw {
        (1, vw - pairs)
    } else {
        (0, vw)
    };
    let mut macs = 0u64;
    let (mut k, mut e) = (ks.start, row_ptr[ks.start]);
    while e < row_ptr[ks.end] {
        // B's next non-empty row: the one holding its entry `e`.
        k += next_row(&row_ptr[k + 1..=ks.end], e);
        let end = row_ptr[k + 1];
        let (js, bvs) = (&b_cols[e..end], &b_vals[e..end]);
        let len = js.len() as u64;
        let counted = len - discount;
        let mut next = a.head[k];
        while next != END {
            let (r, whole_beat, av, after) = a.entries[next];
            next = after;
            macs += len;
            if counted > 0 {
                let beat = if whole {
                    whole_beat
                } else {
                    let i = csr.row(r).0.partition_point(|&c| c < k);
                    s.windows[r].2 + (i - s.windows[r].0) / cap
                };
                // A count from an older pass reads as zero.
                let (pass, count) = &mut s.beats[beat];
                let before = if *pass == s.pass { *count } else { 0 };
                (*pass, *count) = (s.pass, before + counted);
                if before <= limit && before + counted > limit {
                    s.over.push((beat, r, k));
                }
            }
            let out = sim.out.row(r, 0, n);
            for (&c, &bv) in js.iter().zip(bvs) {
                out[c] += av * bv;
            }
        }
        e = end;
        k += 1;
    }

    // A beat past the limit: its entries' B rows, PE by PE.
    for &(beat, r, k) in &s.over {
        let cols = csr.row(r).0;
        let (start, end, first) = if whole {
            let i = cols.partition_point(|&c| c < k);
            (0, cols.len(), beat - i / cap)
        } else {
            s.windows[r]
        };
        let lo = start + (beat - first) * cap;
        for &k in &cols[lo..(lo + cap).min(end)] {
            s.work.add(k % p, (row_ptr[k + 1] - row_ptr[k]) as u64);
        }
        let extra = sim.beat_cycles(s.work.end()) - 1;
        sim.cycles.stream_a += extra;
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

    /// A Gustavson run of `a x b` on two PEs with a 64-slot buffer, so
    /// all of B is one pass and even rows of B sit on PE 0; checked
    /// against the reference product.
    fn spgemm_on(
        a: &[(usize, usize, Value)],
        b: &[(usize, usize, Value)],
        (m, k, n): (usize, usize, usize),
        vector_width: usize,
        bus_slots: usize,
    ) -> SimResult {
        let a = CooMatrix::from_triplets(m, k, a.to_vec()).unwrap();
        let b = CooMatrix::from_triplets(k, n, b.to_vec()).unwrap();
        let cfg = AccelConfig {
            num_pes: 2,
            vector_width,
            pe_buffer_elems: 64,
            bus_slots,
            ..AccelConfig::walkthrough()
        };
        let r = simulate_spgemm(&CsrMatrix::from_coo(&a), &CsrMatrix::from_coo(&b), &cfg).unwrap();
        assert_eq!(r.output, reference(&a, &b));
        r
    }

    /// Vector width 4 behind a 7-slot bus (3 pairs a beat), in a pass of
    /// 7 B entries over 8 rows: a pair counts only its B row's entries
    /// past the first, and a beat whose count passes 4 - 3 = 1 is summed
    /// PE by PE. A's row 0 is one beat of three pairs, all on PE 0: rows
    /// 0 and 2 of B hold two entries and row 4 one, so it counts 2 and
    /// its PE issues 5 MACs, 2 cycles. Row 1's beat meets rows 1 and 3,
    /// one entry each: it counts nothing and takes 1 cycle.
    #[test]
    fn sparse_pass_counts_the_entries_past_each_rows_first() {
        let a = [
            (0, 0, 1.0),
            (0, 2, 2.0),
            (0, 4, 3.0),
            (1, 1, 4.0),
            (1, 3, 5.0),
        ];
        let b = [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 2, 3.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
            (3, 0, 6.0),
            (4, 0, 7.0),
        ];
        let r = spgemm_on(&a, &b, (2, 8, 3), 4, 7);
        assert_eq!(r.counts.macs, 7);
        assert_eq!(r.cycles.stream_a, 2 + 1, "two beats, one a cycle over");
    }

    /// The same array in a pass of 7 B entries over 4 rows, where every
    /// pair counts its B row's length against the vector width: A's one
    /// beat meets rows 0 and 2 of B on PE 0, 3 + 2 = 5 MACs, 2 cycles.
    #[test]
    fn dense_pass_counts_every_mac() {
        let a = [(0, 0, 1.0), (0, 2, 2.0)];
        let b = [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (0, 2, 3.0),
            (1, 0, 4.0),
            (2, 0, 5.0),
            (2, 1, 6.0),
            (3, 2, 7.0),
        ];
        let r = spgemm_on(&a, &b, (1, 4, 3), 4, 7);
        assert_eq!(r.counts.macs, 5);
        assert_eq!(r.cycles.stream_a, 1 + 1, "one beat, a cycle over");
    }

    /// A 16-slot bus carries 7 pairs a beat, more than the vector width
    /// of 2, so even a pass of 3 B entries over 8 rows counts every MAC:
    /// A's one beat meets rows 0 (two entries) and 2 (one) of B on PE 0,
    /// 3 MACs, 2 cycles.
    #[test]
    fn beats_wider_than_the_vector_count_every_mac() {
        let a = [(0, 0, 1.0), (0, 2, 2.0), (0, 4, 3.0)];
        let b = [(0, 0, 1.0), (0, 1, 2.0), (2, 1, 3.0)];
        let r = spgemm_on(&a, &b, (1, 8, 2), 2, 16);
        assert_eq!(r.counts.macs, 3);
        assert_eq!(r.cycles.stream_a, 1 + 1, "one beat, a cycle over");
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
        /// must skip, rare infinities, which make a skipped zero product
        /// visible (`0 x inf` is NaN), and rare tiny magnitudes, two of
        /// which multiply to a ±0.0 that underflowed.
        fn value(&mut self) -> Value {
            match self.below(44) {
                0..=4 => 0.0,
                5 => Value::INFINITY,
                6 => Value::NEG_INFINITY,
                7..=9 => [1e-170, -1e-170][self.below(2)],
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

    /// Exclusive upper bounds of a property case's shape and
    /// configuration; `vector_width` and `bus_slots` start at 1.
    struct Bounds {
        m: usize,
        k: usize,
        n: usize,
        num_pes: usize,
        vector_width: usize,
        pe_buffer_elems: usize,
        bus_slots: usize,
    }

    /// Append a run's totals and output bits, or its error, to the bytes a
    /// digest pins.
    fn pin(got: &Result<SimResult, SimError>, pinned: &mut Vec<u8>) {
        match got {
            Ok(r) => {
                for v in r.output.data() {
                    pinned.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                let (c, n) = (r.cycles, r.counts);
                for v in [
                    c.load_b,
                    c.stream_a,
                    c.drain,
                    n.macs,
                    n.effective_macs,
                    n.bus_slots_used,
                    n.pe_buffer_reads,
                    n.pe_buffer_writes,
                    n.output_flushes,
                    r.n_tiles as u64,
                    r.k_passes as u64,
                ] {
                    pinned.extend_from_slice(&v.to_le_bytes());
                }
            }
            Err(e) => pinned.extend_from_slice(e.to_string().as_bytes()),
        }
    }

    #[test]
    fn simulators_compute_the_reference_product() {
        let bounds = Bounds {
            m: 7,
            k: 10,
            n: 10,
            num_pes: 6,
            vector_width: 4,
            pe_buffer_elems: 10,
            bus_slots: 8,
        };
        assert_eq!(
            reference_product_property(0x5eed, 6000, &bounds),
            0xb93c_ef80_32e2_5b47,
            "the 6,000 cases' totals or output bits moved"
        );
    }

    /// Tiles as wide as 20 PEs and products as wide as 40 columns, so
    /// that a tile fills 8-lane chunks and leaves every remainder.
    #[test]
    fn wide_tiles_compute_the_reference_product() {
        let bounds = Bounds {
            m: 13,
            k: 21,
            n: 41,
            num_pes: 21,
            vector_width: 8,
            pe_buffer_elems: 24,
            bus_slots: 16,
        };
        assert_eq!(
            reference_product_property(0x3a9e, 1000, &bounds),
            0xabd2_8f43_c93f_5495,
            "the 1,000 wide cases' totals or output bits moved"
        );
    }

    /// Run `cases` random cases within `bounds` from `seed` through every
    /// simulator, owned and band, against the reference product; returns
    /// the FNV-1a digest of every owned run's totals and output bits, in
    /// case order. Band and owned runs come from the same code, so only
    /// the digest shows a change to what both count.
    fn reference_product_property(seed: u64, cases: usize, bounds: &Bounds) -> u64 {
        let mut g = Gen(seed);
        let mut scratch = SimScratch::default();
        let mut pinned = Vec::new();
        for case in 0..cases {
            let (m, k, n) = (g.below(bounds.m), g.below(bounds.k), g.below(bounds.n));
            let cfg = AccelConfig {
                num_pes: g.below(bounds.num_pes),
                vector_width: 1 + g.below(bounds.vector_width),
                pe_buffer_elems: g.below(bounds.pe_buffer_elems),
                bus_slots: 1 + g.below(bounds.bus_slots),
                ..AccelConfig::walkthrough()
            };
            let a = operand(&mut g, m, k);
            let b = operand(&mut g, k, n);
            let what = |sim: &str| format!("case {case}: {sim} {m}x{k}x{n} {cfg:?}");
            // A run computes the product, with one effective MAC per
            // product summed, or returns exactly the overflow B forces.
            let check = |sim: &str,
                         got: &Result<SimResult, SimError>,
                         (want, products): &(DenseMatrix, u64),
                         overflow: Option<SimError>,
                         tiles: usize| {
                match (got, overflow) {
                    (Ok(r), None) => {
                        assert!(same_product(&r.output, want), "{}", what(sim));
                        assert_eq!(
                            (r.counts.effective_macs, r.n_tiles),
                            (*products, tiles),
                            "{}",
                            what(sim)
                        );
                    }
                    (got, overflow) => {
                        assert_eq!(got.as_ref().err(), overflow.as_ref(), "{}", what(sim))
                    }
                }
            };
            // WS skips every product with a zero factor; SpGEMM
            // multiplies every stored pair. Each band run equals its owned
            // run cycle for cycle and bit for bit, at a random stride and
            // column offset whose cells outside the product keep a
            // sentinel, with one scratch reused across every case.
            let ws = product(&a.csr, &b.csr, true);
            let ws_tiles = n.div_ceil(cfg.num_pes.max(1));
            let col = g.below(3);
            let stride = col + n + g.below(3);
            let a_csr = MatrixData::Csr(a.csr.clone());
            for (a_fmt, a) in [
                ("Dense", &a.dense),
                ("CSR", &a_csr),
                ("COO", &a.coo),
                ("CSC", &a.csc),
            ] {
                for (b_fmt, b) in [("Dense", &b.dense), ("CSC", &b.csc)] {
                    let sim = format!("{a_fmt}(A)-{b_fmt}(B)");
                    let owned = simulate_ws(a, b, &cfg);
                    check(&sim, &owned, &ws, ws_overflow(b, &cfg), ws_tiles);
                    pin(&owned, &mut pinned);
                    let mut data = band(m, n, stride, col);
                    let out = OutBand::new(&mut data, stride, col);
                    let got = simulate_ws_into(a, b, &cfg, &mut scratch, out);
                    assert_same_band(got, &data, stride, col, &owned, &what(&sim));
                }
            }
            let owned = simulate_spgemm(&a.csr, &b.csr, &cfg);
            let ab = product(&a.csr, &b.csr, false);
            check("SpGEMM", &owned, &ab, spgemm_overflow(&b.csr, &cfg), 1);
            pin(&owned, &mut pinned);
            let mut data = band(m, n, stride, col);
            let out = OutBand::new(&mut data, stride, col);
            let a_cols = GustavsonA::new(&a.csr, &cfg);
            let got = simulate_spgemm_into(&a_cols, &b.csr, &cfg, &mut scratch, out);
            assert_same_band(got, &data, stride, col, &owned, &what("SpGEMM"));
        }
        sparseflex_formats::fnv1a(&pinned)
    }

    /// A cell outside the product: any write to it shows.
    const SENTINEL: Value = -12345.5;

    /// An `m`-row band of `stride`, +0.0 on the product's `n` columns
    /// from `col` and the sentinel everywhere else.
    fn band(m: usize, n: usize, stride: usize, col: usize) -> Vec<Value> {
        let mut data = vec![SENTINEL; m * stride];
        for row in data.chunks_mut(stride.max(1)) {
            row[col..col + n].fill(0.0);
        }
        data
    }

    fn bits(values: &[Value]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A band run equals the owned run: the same totals or error, the
    /// product's bits in its cells and the sentinel elsewhere.
    fn assert_same_band(
        got: Result<SimStats, SimError>,
        data: &[Value],
        stride: usize,
        col: usize,
        want: &Result<SimResult, SimError>,
        what: &str,
    ) {
        let w = match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(
                    (g.cycles, g.counts, g.n_tiles, g.k_passes),
                    (w.cycles, w.counts, w.n_tiles, w.k_passes),
                    "{what}"
                );
                w
            }
            (got, want) => {
                assert_eq!(got.err(), want.as_ref().err().cloned(), "{what}");
                return;
            }
        };
        let n = w.output.cols();
        for (r, row) in data.chunks(stride.max(1)).enumerate() {
            assert_eq!(
                bits(&row[col..col + n]),
                bits(w.output.row(r)),
                "{what}: row {r}"
            );
            let outside: Vec<Value> = row[..col].iter().chain(&row[col + n..]).copied().collect();
            assert!(
                outside.iter().all(|v| v.to_bits() == SENTINEL.to_bits()),
                "{what}: row {r} wrote outside the product"
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
