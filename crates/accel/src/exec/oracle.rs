//! The cycle simulator as it was before it accumulated into a caller's
//! output band, kept verbatim as the oracle the band form is checked
//! against, cycle for cycle and bit for bit. It shares only the public
//! result types with the parent module.

use super::{ActivityCounts, CycleBreakdown, SimError, SimResult};
use crate::bus::BusPacking;
use crate::config::AccelConfig;
use sparseflex_formats::{
    CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, MatrixData, SparseMatrix, Value,
};
use std::ops::Range;

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
