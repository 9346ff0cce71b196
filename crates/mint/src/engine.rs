//! The MINT conversion engine: Fig. 8's conversions built from blocks.
//!
//! Every conversion returns the converted operand, computed by the
//! conversions of `sparseflex-formats`, and *meters* the building blocks
//! the hardware would occupy computing it, in a [`ConversionReport`] that
//! the cost model and SAGE consume. The charges come from counts alone
//! (entries, columns, slots): they depend on nothing else, so no block
//! re-runs a conversion the formats crate has already done.
//!
//! Fig. 8's four paths charge their own pipelines: CSR→CSC returns the
//! counting sort of [`convert::csr_to_csc`], RLC→COO and Dense→CSF the
//! source's walk collected by `to_coo` (and, for CSF,
//! [`CsfTensor::from_coo`]), CSR→BSR [`BsrMatrix::from_coo`]. Every other
//! matrix pair is charged the blocks decoding the source and encoding the
//! target would occupy. Four of them build the target directly: CSC→CSR
//! returns the counting sort of [`convert::csc_to_csr`], COO→CSR
//! [`CsrMatrix::from_coo`], and ZVC→Dense and ZVC→CSC read the source's
//! mask in place ([`convert::zvc_to_dense`], [`convert::zvc_to_csc`]).
//! The rest build it straight from the source's own layout
//! ([`MatrixData::convert_to`]).

use crate::blocks::{
    small_op_cycles, ClusterCounter, DivModArray, MemController, PrefixSumUnit, SortingNetwork,
    E_SMALL_OP,
};
use crate::report::{BlockKind, ConversionReport};
use sparseflex_formats::{
    convert, BsrMatrix, CooMatrix, CscMatrix, CsfTensor, CsrMatrix, DenseTensor3, FormatError,
    MatrixData, MatrixFormat, RlcMatrix, SparseMatrix, SparseTensor3,
};

/// A configured MINT instance (one of each merged building block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionEngine {
    /// Scan unit.
    pub prefix: PrefixSumUnit,
    /// Sorting network.
    pub sorter: SortingNetwork,
    /// Cluster counter.
    pub counter: ClusterCounter,
    /// Divide/mod array.
    pub divmod: DivModArray,
    /// Memory controller.
    pub memctrl: MemController,
}

impl Default for ConversionEngine {
    fn default() -> Self {
        ConversionEngine {
            prefix: PrefixSumUnit::mint_default(),
            sorter: SortingNetwork::mint_default(),
            counter: ClusterCounter::mint_default(),
            divmod: DivModArray::mint_default(),
            memctrl: MemController::mint_default(),
        }
    }
}

impl ConversionEngine {
    /// One pipeline's fill: the sum of its stage latencies.
    fn fill_latency(&self) -> u64 {
        self.prefix.latency()
            + self.sorter.latency()
            + self.divmod.latency()
            + self.memctrl.setup_latency
    }

    fn fresh_report(&self) -> ConversionReport {
        let mut rep = ConversionReport::default();
        rep.fill_latency = self.fill_latency();
        rep
    }

    /// CSR → CSC (Fig. 8c): histogram column ids (sort + cluster count),
    /// prefix-sum into `col_ptr`, then scatter values and row ids. The
    /// output is [`convert::csr_to_csc`]'s counting sort, the same
    /// histogram, scan and scatter; each step is charged from `nnz` and
    /// `cols`.
    pub fn csr_to_csc(&self, csr: &CsrMatrix) -> (CscMatrix, ConversionReport) {
        let mut rep = self.fresh_report();
        let nnz = csr.nnz() as u64;
        let cols = csr.cols() as u64;

        // Step 1: read chunks of col_ids.
        self.memctrl.transfer(nnz, &mut rep);
        // Step 2: sort each chunk.
        self.sorter.charge(nnz, &mut rep);
        // Step 3: cluster-count into the histogram.
        self.counter.charge(nnz, &mut rep);
        // Step 4: accumulate histogram writes into scratchpad.
        self.memctrl.transfer(cols, &mut rep);
        // Step 5: prefix sum over col_ptr.
        self.prefix.charge(cols, &mut rep);
        // Steps 6-9: iterate CSR fields, scatter into CSC arrays. Each
        // nonzero costs a read of (value, col_id), a col_ptr read +
        // increment (adders), and a write of (value, row_id).
        self.memctrl.transfer(2 * nnz, &mut rep);
        rep.charge(
            BlockKind::Adders,
            small_op_cycles(nnz),
            nnz as f64 * E_SMALL_OP,
        );
        rep.charge(
            BlockKind::Comparators,
            small_op_cycles(nnz),
            nnz as f64 * E_SMALL_OP,
        );
        self.memctrl.transfer(2 * nnz, &mut rep);
        // Step 10: fix up and store col_ptr.
        self.memctrl.transfer(cols + 1, &mut rep);
        rep.elements += nnz;
        (convert::csr_to_csc(csr), rep)
    }

    /// RLC → COO (Fig. 8d): add one to each run, prefix-sum to recover
    /// flat positions, divide/mod by the row length for coordinates.
    pub fn rlc_to_coo(&self, rlc: &RlcMatrix) -> (CooMatrix, ConversionReport) {
        let coo = rlc.to_coo();
        let mut rep = self.fresh_report();
        self.charge_rlc(rlc.stored_entries() as u64, coo.nnz() as u64, &mut rep);
        (coo, rep)
    }

    /// Charge the blocks Fig. 8d occupies decoding `n` RLC entries, `kept`
    /// of them nonzero.
    fn charge_rlc(&self, n: u64, kept: u64, rep: &mut ConversionReport) {
        // Step 1: stream the RLC entries in.
        self.memctrl.transfer(2 * n, rep);
        // Step 2: +1 offset per element.
        rep.charge(BlockKind::Adders, small_op_cycles(n), n as f64 * E_SMALL_OP);
        // Step 3: prefix sum -> positions + 1.
        self.prefix.charge(n, rep);
        // Step 4: parallel divide/mod by K.
        self.divmod.charge(n, rep);
        // Extension-entry suppression (value == 0 emits nothing).
        rep.charge(
            BlockKind::Comparators,
            small_op_cycles(n),
            n as f64 * E_SMALL_OP,
        );
        // Step 5: store values + coordinates.
        self.memctrl.transfer(3 * kept, rep);
        rep.elements += n;
    }

    /// CSR → BSR (Fig. 8e): walk row blocks, find block columns with
    /// mod + comparators, scatter (padding zeros included), prefix-sum
    /// the block row pointer.
    pub fn csr_to_bsr(
        &self,
        csr: &CsrMatrix,
        br: usize,
        bc: usize,
    ) -> Result<(BsrMatrix, ConversionReport), FormatError> {
        let bsr = BsrMatrix::from_coo(&csr.to_coo(), br, bc)?;
        let mut rep = self.fresh_report();
        self.charge_bsr(csr.rows() as u64, csr.nnz() as u64, &bsr, &mut rep);
        Ok((bsr, rep))
    }

    /// Charge the blocks Fig. 8e occupies building `bsr` from a `rows`-row
    /// CSR holding `nnz` entries. Each block is charged once, its steps
    /// summed first, so the charges compose onto an earlier stage's as a
    /// whole.
    fn charge_bsr(&self, rows: u64, nnz: u64, bsr: &BsrMatrix, rep: &mut ConversionReport) {
        let nbr = bsr.num_block_rows() as u64;
        // Step 1 reads the CSR fields, step 3 scatters values into padded
        // block payloads (padding zeros are written too — that is BSR's
        // cost), step 5 stores the block row pointers and column ids.
        self.memctrl.transfer_all(
            &[
                2 * nnz + rows + 1,
                bsr.stored_values() as u64,
                nbr + 1 + bsr.num_blocks() as u64,
            ],
            rep,
        );
        // Step 2: block-position mods and initialization comparators.
        self.divmod.charge(nnz, rep);
        rep.charge(
            BlockKind::Comparators,
            small_op_cycles(nnz),
            nnz as f64 * E_SMALL_OP,
        );
        // Counter tallies unique blocks per row block.
        self.counter.charge(nnz, rep);
        // Step 5: prefix sum over the block row pointers.
        self.prefix.charge(nbr + 1, rep);
        rep.elements += nnz;
    }

    /// Dense tensor → CSF (Fig. 8f): nonzero scan + prefix sum for output
    /// slots, divide/mod chains for COO coordinates, then tree
    /// construction (comparators + pointer prefix sums).
    pub fn dense_to_csf(&self, dense: &DenseTensor3) -> (CsfTensor, ConversionReport) {
        let mut rep = self.fresh_report();
        let (dx, dy, dz) = dense.shape();
        let total = (dx * dy * dz) as u64;
        // Step 1: stream the dense tensor.
        self.memctrl.transfer(total, &mut rep);
        // Step 2: zero-check comparators + indicator prefix sum.
        rep.charge(
            BlockKind::Comparators,
            small_op_cycles(total),
            total as f64 * E_SMALL_OP,
        );
        rep.charge(
            BlockKind::PrefixSum,
            self.prefix.cycles(total),
            self.prefix.energy(total),
        );
        let coo = dense.to_coo();
        let nnz = coo.nnz() as u64;
        // Step 3: coordinate recovery: two divide/mod rounds per nonzero.
        self.divmod.charge(nnz, &mut rep);
        self.divmod.charge(nnz, &mut rep);
        // Step 4: store the COO intermediate.
        self.memctrl.transfer(4 * nnz, &mut rep);
        // Steps 5-6: tree construction — boundary comparators over the
        // sorted coordinates and prefix sums for the pointer arrays.
        rep.charge(
            BlockKind::Comparators,
            small_op_cycles(2 * nnz),
            2.0 * nnz as f64 * E_SMALL_OP,
        );
        let csf = CsfTensor::from_coo(&coo);
        let ptr_elems = (csf.num_slices() + csf.num_fibers() + 2) as u64;
        rep.charge(
            BlockKind::PrefixSum,
            self.prefix.cycles(ptr_elems),
            self.prefix.energy(ptr_elems),
        );
        // Step 7: store the CSF structure.
        let csf_elems = (2 * csf.nnz() + 2 * csf.num_fibers() + 2 * csf.num_slices() + 2) as u64;
        self.memctrl.transfer(csf_elems, &mut rep);
        rep.elements += total;
        (csf, rep)
    }

    /// Charge the blocks decoding `data` into the COO hub would occupy,
    /// from counts: `kept` is the number of stored nonzeros (explicit
    /// zeros dropped). RLC runs the Fig. 8d pipeline, a stage with a fill
    /// of its own.
    fn charge_decode(&self, data: &MatrixData, kept: u64, rep: &mut ConversionReport) {
        match data {
            MatrixData::Coo(c) => {
                // Pass-through: stream copy only.
                self.memctrl.transfer(3 * c.nnz() as u64, rep);
            }
            MatrixData::Rlc(r) => {
                rep.fill_latency += self.fill_latency();
                self.charge_rlc(r.stored_entries() as u64, kept, rep);
                return;
            }
            MatrixData::Dense(d) => {
                // Zero-check comparators and slot prefix sum over every
                // element, then div/mod for each nonzero's coordinates.
                let total = (d.rows() * d.cols()) as u64;
                self.memctrl.transfer(total, rep);
                rep.charge(
                    BlockKind::Comparators,
                    small_op_cycles(total),
                    total as f64 * E_SMALL_OP,
                );
                self.prefix.charge(total, rep);
                self.divmod.charge(kept, rep);
                self.memctrl.transfer(3 * kept, rep);
            }
            MatrixData::Zvc(z) => {
                // Rank/select via prefix sums over mask popcounts.
                let words = z.mask().len() as u64;
                self.memctrl.transfer(words + z.nnz() as u64, rep);
                self.prefix.charge(words, rep);
                self.divmod.charge(kept, rep);
                self.memctrl.transfer(3 * kept, rep);
            }
            MatrixData::Csr(c) => {
                // Row-pointer expansion: adders walk row_ptr while values
                // and col ids stream through.
                let nnz = c.nnz() as u64;
                self.memctrl.transfer(2 * nnz + c.rows() as u64 + 1, rep);
                rep.charge(
                    BlockKind::Adders,
                    small_op_cycles(nnz),
                    nnz as f64 * E_SMALL_OP,
                );
                self.memctrl.transfer(3 * nnz, rep);
            }
            MatrixData::Csc(c) => {
                // Column-major to row-major: counting sort on row ids.
                let nnz = c.nnz() as u64;
                self.memctrl.transfer(2 * nnz + c.cols() as u64 + 1, rep);
                self.sorter.charge(nnz, rep);
                self.counter.charge(nnz, rep);
                self.prefix.charge(c.rows() as u64, rep);
                self.memctrl.transfer(3 * nnz, rep);
            }
            MatrixData::Bsr(_) | MatrixData::Dia(_) | MatrixData::Ell(_) => {
                // Structured formats: stream stored slots.
                let stored = structured_slots(data);
                self.memctrl.transfer(stored, rep);
                rep.charge(
                    BlockKind::Comparators,
                    small_op_cycles(stored),
                    stored as f64 * E_SMALL_OP,
                );
                self.memctrl.transfer(3 * kept, rep);
            }
        }
        rep.elements += kept;
    }

    /// Charge the blocks encoding `nnz` hub entries into `out` would
    /// occupy, from counts: a stage with a fill of its own, after the
    /// decode. Each block is charged once, its steps summed first, so the
    /// stage's energy composes onto the decode's as a whole.
    fn charge_encode(&self, out: &MatrixData, nnz: u64, rep: &mut ConversionReport) {
        rep.fill_latency += self.fill_latency();
        let (rows, cols) = (out.rows() as u64, out.cols() as u64);
        match out {
            MatrixData::Coo(_) => self.memctrl.transfer(3 * nnz, rep),
            MatrixData::Csr(_) => {
                // Histogram rows (already sorted) + prefix + stream write.
                self.counter.charge(nnz, rep);
                self.prefix.charge(rows, rep);
                self.memctrl.transfer(2 * nnz + rows + 1, rep);
            }
            MatrixData::Csc(_) => {
                self.sorter.charge(nnz, rep);
                self.counter.charge(nnz, rep);
                self.prefix.charge(cols, rep);
                rep.charge(
                    BlockKind::Adders,
                    small_op_cycles(nnz),
                    nnz as f64 * E_SMALL_OP,
                );
                self.memctrl.transfer(2 * nnz + cols + 1, rep);
            }
            // Zero-init + scatter.
            MatrixData::Dense(_) => self.memctrl.transfer_all(&[rows * cols, nnz], rep),
            MatrixData::Rlc(r) => {
                // Position deltas (adders) + run splitting (comparators).
                rep.charge(
                    BlockKind::Adders,
                    small_op_cycles(nnz),
                    nnz as f64 * E_SMALL_OP,
                );
                rep.charge(
                    BlockKind::Comparators,
                    small_op_cycles(nnz),
                    nnz as f64 * E_SMALL_OP,
                );
                self.memctrl.transfer(2 * r.stored_entries() as u64, rep);
            }
            MatrixData::Zvc(z) => {
                self.memctrl.transfer(z.mask().len() as u64 + nnz, rep);
                rep.charge(
                    BlockKind::Adders,
                    small_op_cycles(nnz),
                    nnz as f64 * E_SMALL_OP,
                );
            }
            MatrixData::Bsr(b) => {
                // The Fig. 8e pipeline: a stage with a fill of its own.
                rep.fill_latency += self.fill_latency();
                self.charge_bsr(rows, nnz, b, rep);
            }
            MatrixData::Dia(_) | MatrixData::Ell(_) => {
                // Structured scatter: offset arithmetic + padded writes.
                rep.charge(
                    BlockKind::Adders,
                    small_op_cycles(nnz),
                    nnz as f64 * E_SMALL_OP,
                );
                self.memctrl.transfer(structured_slots(out), rep);
            }
        }
        rep.elements += nnz;
    }

    /// Generic any→any matrix conversion. Fig. 8's direct paths run their
    /// blocks; every other pair is charged the blocks a decode into the
    /// hub and an encode out of it occupy. CSC→CSR returns
    /// [`convert::csc_to_csr`]'s counting sort, COO→CSR
    /// [`CsrMatrix::from_coo`] (COO is row-sorted and stores no zeros),
    /// and ZVC→Dense and ZVC→CSC scatter the source mask's set bits
    /// ([`convert::zvc_to_dense`], [`convert::zvc_to_csc`]); every other
    /// pair builds the target straight from the source's own layout, with
    /// no COO hub.
    pub fn convert_matrix(
        &self,
        data: &MatrixData,
        target: &MatrixFormat,
    ) -> Result<(MatrixData, ConversionReport), FormatError> {
        if data.format() == *target {
            // Identity: no conversion hardware touched.
            return Ok((data.clone(), ConversionReport::default()));
        }
        // Direct paths from Fig. 8.
        match (data, target) {
            (MatrixData::Csr(c), MatrixFormat::Csc) => {
                let (out, rep) = self.csr_to_csc(c);
                return Ok((MatrixData::Csc(out), rep));
            }
            (MatrixData::Csr(c), MatrixFormat::Bsr { br, bc }) => {
                let (out, rep) = self.csr_to_bsr(c, *br, *bc)?;
                return Ok((MatrixData::Bsr(out), rep));
            }
            (MatrixData::Rlc(r), MatrixFormat::Coo) => {
                let (out, rep) = self.rlc_to_coo(r);
                return Ok((MatrixData::Coo(out), rep));
            }
            _ => {}
        }
        let out = match (data, target) {
            (MatrixData::Csc(c), MatrixFormat::Csr) => MatrixData::Csr(convert::csc_to_csr(c)),
            (MatrixData::Coo(c), MatrixFormat::Csr) => MatrixData::Csr(CsrMatrix::from_coo(c)),
            (MatrixData::Zvc(z), MatrixFormat::Dense) => {
                MatrixData::Dense(convert::zvc_to_dense(z))
            }
            (MatrixData::Zvc(z), MatrixFormat::Csc) => MatrixData::Csc(convert::zvc_to_csc(z)),
            _ => data.convert_to(target)?,
        };
        let kept = out.nnz() as u64;
        let mut rep = self.fresh_report();
        self.charge_decode(data, kept, &mut rep);
        self.charge_encode(&out, kept, &mut rep);
        Ok((out, rep))
    }

    /// Decode any tensor payload into the COO hub through the blocks.
    fn decode_tensor_to_coo(
        &self,
        data: &sparseflex_formats::TensorData,
    ) -> (sparseflex_formats::CooTensor3, ConversionReport) {
        use sparseflex_formats::TensorData;
        let mut rep = self.fresh_report();
        let (dx, dy, dz) = data.as_sparse().shape();
        let total = (dx * dy * dz) as u64;
        let coo = match data {
            TensorData::Coo(c) => {
                self.memctrl.transfer(4 * c.nnz() as u64, &mut rep);
                c.clone()
            }
            TensorData::Dense(d) => {
                self.memctrl.transfer(total, &mut rep);
                rep.charge(
                    BlockKind::Comparators,
                    small_op_cycles(total),
                    total as f64 * E_SMALL_OP,
                );
                rep.charge(
                    BlockKind::PrefixSum,
                    self.prefix.cycles(total),
                    self.prefix.energy(total),
                );
                let coo = d.to_coo();
                // Two divide/mod rounds per nonzero's coordinates.
                self.divmod.charge(coo.nnz() as u64, &mut rep);
                self.divmod.charge(coo.nnz() as u64, &mut rep);
                self.memctrl.transfer(4 * coo.nnz() as u64, &mut rep);
                coo
            }
            TensorData::Zvc(z) => {
                let words = z.mask().len() as u64;
                self.memctrl.transfer(words + z.nnz() as u64, &mut rep);
                rep.charge(
                    BlockKind::PrefixSum,
                    self.prefix.cycles(words),
                    self.prefix.energy(words),
                );
                let coo = z.to_coo();
                self.divmod.charge(coo.nnz() as u64, &mut rep);
                self.memctrl.transfer(4 * coo.nnz() as u64, &mut rep);
                coo
            }
            TensorData::Rlc(r) => {
                let n = r.stored_entries() as u64;
                self.memctrl.transfer(2 * n, &mut rep);
                rep.charge(BlockKind::Adders, small_op_cycles(n), n as f64 * E_SMALL_OP);
                rep.charge(
                    BlockKind::PrefixSum,
                    self.prefix.cycles(n),
                    self.prefix.energy(n),
                );
                let coo = r.to_coo();
                self.divmod.charge(coo.nnz() as u64, &mut rep);
                self.divmod.charge(coo.nnz() as u64, &mut rep);
                self.memctrl.transfer(4 * coo.nnz() as u64, &mut rep);
                coo
            }
            TensorData::Csf(c) => {
                // Tree walk: pointer expansion with adders.
                let n = c.nnz() as u64;
                let meta = (c.num_slices() + c.num_fibers()) as u64 * 2 + 2;
                self.memctrl.transfer(2 * n + meta, &mut rep);
                rep.charge(BlockKind::Adders, small_op_cycles(n), n as f64 * E_SMALL_OP);
                self.memctrl.transfer(4 * n, &mut rep);
                c.to_coo()
            }
            TensorData::HiCoo(h) => {
                // Block-id reconstruction: multiply-add per nonzero.
                let n = h.nnz() as u64;
                self.memctrl.transfer(4 * n, &mut rep);
                rep.charge(
                    BlockKind::Adders,
                    small_op_cycles(3 * n),
                    3.0 * n as f64 * E_SMALL_OP,
                );
                self.memctrl.transfer(4 * n, &mut rep);
                h.to_coo()
            }
        };
        rep.elements += coo.nnz() as u64;
        (coo, rep)
    }

    /// Encode the COO tensor hub into any tensor format through the
    /// blocks.
    fn encode_tensor_from_coo(
        &self,
        coo: &sparseflex_formats::CooTensor3,
        target: &sparseflex_formats::TensorFormat,
    ) -> Result<(sparseflex_formats::TensorData, ConversionReport), FormatError> {
        use sparseflex_formats::{TensorData, TensorFormat};
        let mut rep = self.fresh_report();
        let n = coo.nnz() as u64;
        let (dx, dy, dz) = coo.shape();
        let data = match *target {
            TensorFormat::Coo => {
                self.memctrl.transfer(4 * n, &mut rep);
                TensorData::Coo(coo.clone())
            }
            TensorFormat::Csf => {
                // Tree construction: boundary comparators + pointer scans.
                rep.charge(
                    BlockKind::Comparators,
                    small_op_cycles(2 * n),
                    2.0 * n as f64 * E_SMALL_OP,
                );
                let csf = sparseflex_formats::CsfTensor::from_coo(coo);
                let ptrs = (csf.num_slices() + csf.num_fibers() + 2) as u64;
                rep.charge(
                    BlockKind::PrefixSum,
                    self.prefix.cycles(ptrs),
                    self.prefix.energy(ptrs),
                );
                self.memctrl.transfer(2 * n + 2 * ptrs, &mut rep);
                TensorData::Csf(csf)
            }
            TensorFormat::Dense => {
                let total = (dx * dy * dz) as u64;
                self.memctrl.transfer(total + n, &mut rep);
                TensorData::Dense(coo.clone().into_dense())
            }
            TensorFormat::Rlc { run_bits } => {
                rep.charge(BlockKind::Adders, small_op_cycles(n), n as f64 * E_SMALL_OP);
                let rlc = sparseflex_formats::RlcTensor3::from_coo(coo, run_bits);
                self.memctrl
                    .transfer(2 * rlc.stored_entries() as u64, &mut rep);
                TensorData::Rlc(rlc)
            }
            TensorFormat::Zvc => {
                let zvc = sparseflex_formats::ZvcTensor3::from_coo(coo);
                self.memctrl.transfer(zvc.mask().len() as u64 + n, &mut rep);
                rep.charge(BlockKind::Adders, small_op_cycles(n), n as f64 * E_SMALL_OP);
                TensorData::Zvc(zvc)
            }
            TensorFormat::HiCoo { block } => {
                // Block keys need divide/mod per coordinate.
                self.divmod.charge(n, &mut rep);
                let h = sparseflex_formats::HiCooTensor::from_coo(coo, block)?;
                self.memctrl
                    .transfer((4 * h.num_blocks() + 4 * h.nnz()) as u64, &mut rep);
                TensorData::HiCoo(h)
            }
        };
        rep.elements += n;
        Ok((data, rep))
    }

    /// Generic any→any tensor conversion via the COO hub (identity is
    /// free), with the Fig. 8f direct path for Dense→CSF.
    pub fn convert_tensor(
        &self,
        data: &sparseflex_formats::TensorData,
        target: &sparseflex_formats::TensorFormat,
    ) -> Result<(sparseflex_formats::TensorData, ConversionReport), FormatError> {
        use sparseflex_formats::{TensorData, TensorFormat};
        if data.format() == *target {
            return Ok((data.clone(), ConversionReport::default()));
        }
        if let (TensorData::Dense(d), TensorFormat::Csf) = (data, target) {
            let (csf, rep) = self.dense_to_csf(d);
            return Ok((TensorData::Csf(csf), rep));
        }
        let (coo, mut rep) = self.decode_tensor_to_coo(data);
        let (out, enc) = self.encode_tensor_from_coo(&coo, target)?;
        rep.merge(&enc);
        Ok((out, rep))
    }
}

/// Value slots a BSR, DIA or ELL payload stores, padding included (0
/// for every other format).
fn structured_slots(data: &MatrixData) -> u64 {
    match data {
        MatrixData::Bsr(b) => b.stored_values() as u64,
        MatrixData::Dia(d) => d.stored_values() as u64,
        MatrixData::Ell(e) => e.stored_values() as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::DenseMatrix;
    use sparseflex_workloads::synth::random_matrix;

    fn engine() -> ConversionEngine {
        ConversionEngine::default()
    }

    fn fig8b() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 3, 5.0),
                (3, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_to_csc_matches_software_oracle() {
        let coo = fig8b();
        let (csc, rep) = engine().csr_to_csc(&CsrMatrix::from_coo(&coo));
        assert_eq!(csc.to_coo(), coo);
        // Fig. 8c: the histogram [1, 2, 1, 2] prefix-sums to col_ptr.
        assert_eq!(csc.col_ptr(), &[0, 1, 3, 4, 6]);
        assert!(rep.pipelined_cycles() > 0);
        assert!(rep.pipelined_cycles() <= rep.serialized_cycles());
        // All five pipeline stages of Fig. 8c were exercised.
        for kind in [
            BlockKind::Sorter,
            BlockKind::ClusterCounter,
            BlockKind::PrefixSum,
            BlockKind::MemController,
        ] {
            assert!(rep.cycles(kind) > 0, "missing {kind:?}");
        }
    }

    #[test]
    fn rlc_to_coo_matches_software_oracle() {
        let coo = fig8b();
        let rlc = RlcMatrix::from_coo(&coo, 4);
        let (out, rep) = engine().rlc_to_coo(&rlc);
        assert_eq!(out, coo);
        assert!(rep.cycles(BlockKind::Divider) > 0);
        assert!(rep.cycles(BlockKind::Modulo) > 0);
        assert!(rep.cycles(BlockKind::PrefixSum) > 0);
    }

    #[test]
    fn rlc_with_extension_entries_converts_exactly() {
        let coo = CooMatrix::from_triplets(2, 100, vec![(0, 0, 1.0), (1, 99, 2.0)]).unwrap();
        let rlc = RlcMatrix::from_coo(&coo, 3);
        let (out, _) = engine().rlc_to_coo(&rlc);
        assert_eq!(out, coo);
    }

    #[test]
    fn csr_to_bsr_keeps_every_entry_in_its_block() {
        let csr = CsrMatrix::from_coo(&fig8b());
        let (bsr, rep) = engine().csr_to_bsr(&csr, 2, 2).unwrap();
        assert_eq!(bsr.to_coo(), fig8b());
        assert_eq!(bsr.block_shape(), (2, 2));
        // Occupied 2x2 blocks: (0,0) {a,c}, (0,1) {b}, (1,0) {d}, (1,1) {e,f}.
        assert_eq!(bsr.num_blocks(), 4);
        assert!(rep.cycles(BlockKind::Modulo) > 0);
    }

    #[test]
    fn dense_to_csf_matches_fig8f_tree() {
        use sparseflex_formats::CooTensor3;
        // The Fig. 3b tensor, materialized densely then converted.
        let coo = CooTensor3::from_quads(
            4,
            4,
            4,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 1, 2.0),
                (1, 2, 2, 3.0),
                (2, 1, 0, 4.0),
                (2, 1, 3, 5.0),
                (3, 0, 3, 6.0),
            ],
        )
        .unwrap();
        let dense = coo.clone().into_dense();
        let (csf, rep) = engine().dense_to_csf(&dense);
        assert_eq!(csf, CsfTensor::from_coo(&coo));
        assert_eq!(csf.to_coo(), coo);
        assert_eq!(csf.x_fids(), &[0, 1, 2, 3]);
        assert_eq!(csf.num_fibers(), 4);
        assert!(rep.cycles(BlockKind::Comparators) > 0);
        // Step 3: two divide/mod rounds per nonzero.
        assert_eq!(
            rep.cycles(BlockKind::Divider),
            2 * engine().divmod.cycles(6)
        );
    }

    #[test]
    fn every_mcf_acf_pair_converts_exactly() {
        let coo = random_matrix(24, 30, 120, 7);
        let eng = engine();
        for src in MatrixFormat::mcf_set() {
            let data = MatrixData::encode(&coo, &src).unwrap();
            for dst in MatrixFormat::acf_set() {
                let (out, rep) = eng.convert_matrix(&data, &dst).unwrap();
                assert_eq!(out.format(), dst, "{src} -> {dst}");
                assert_eq!(out.to_coo(), coo, "{src} -> {dst} corrupted data");
                if src == dst {
                    assert_eq!(rep.pipelined_cycles(), 0, "identity must be free");
                } else {
                    assert!(
                        rep.pipelined_cycles() > 0,
                        "{src} -> {dst} must cost cycles"
                    );
                }
            }
        }
    }

    #[test]
    fn identity_conversion_is_free() {
        let coo = fig8b();
        let data = MatrixData::encode(&coo, &MatrixFormat::Csr).unwrap();
        let (out, rep) = engine().convert_matrix(&data, &MatrixFormat::Csr).unwrap();
        assert_eq!(out, data);
        assert_eq!(rep.total_energy(), 0.0);
        assert_eq!(rep.serialized_cycles(), 0);
    }

    #[test]
    fn dense_to_csr_pipeline() {
        let coo = random_matrix(16, 16, 40, 3);
        let dense = coo.clone().into_dense();
        let (csr, rep) = engine()
            .convert_matrix(&MatrixData::Dense(dense.clone()), &MatrixFormat::Csr)
            .unwrap();
        assert_eq!(csr, MatrixData::Csr(CsrMatrix::from_coo(&coo)));
        // Dense decode must stream the whole matrix through the memctrl.
        assert!(rep.cycles(BlockKind::MemController) >= (16 * 16) / 16);
    }

    #[test]
    fn rlc_with_zero_columns_converts_to_every_acf() {
        let rlc = MatrixData::encode(&CooMatrix::empty(3, 0), &MatrixFormat::Rlc { run_bits: 4 })
            .unwrap();
        for dst in MatrixFormat::acf_set() {
            let (out, rep) = engine().convert_matrix(&rlc, &dst).unwrap();
            assert_eq!((out.format(), out.rows(), out.cols()), (dst, 3, 0));
            assert_eq!(rep.elements, 0, "RLC -> {dst}");
        }
    }

    /// A splitmix64 stream: the oracle property's deterministic inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (0 when `n == 0`).
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        /// A stored value: ordinary, ±inf, or (when `zeros`) an explicit
        /// zero of either sign.
        fn value(&mut self, zeros: bool) -> f64 {
            match self.below(10) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 | 3 if zeros => [0.0, -0.0][self.below(2)],
                k => k as f64 * if self.below(2) == 0 { 1.0 } else { -0.25 },
            }
        }
    }

    /// A random operand in `fmt`: zero-sized dimensions, empty rows and
    /// columns, ±inf, and explicit stored zeros wherever the format can
    /// hold them.
    fn random_operand(rng: &mut Rng, fmt: MatrixFormat) -> MatrixData {
        let (rows, cols) = (rng.below(9), rng.below(11));
        let n = rng.below(rows * cols + 1);
        let triplets = (0..n)
            .map(|_| (rng.below(rows), rng.below(cols), rng.value(false)))
            .collect();
        let coo = CooMatrix::from_triplets(rows, cols, triplets).unwrap();
        match MatrixData::encode(&coo, &fmt).unwrap() {
            MatrixData::Csr(c) => {
                let values = c.values().iter().map(|_| rng.value(true)).collect();
                let (row_ptr, col_ids) = (c.row_ptr().to_vec(), c.col_ids().to_vec());
                MatrixData::Csr(
                    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values).unwrap(),
                )
            }
            MatrixData::Csc(c) => {
                let values = c.values().iter().map(|_| rng.value(true)).collect();
                let (col_ptr, row_ids) = (c.col_ptr().to_vec(), c.row_ids().to_vec());
                MatrixData::Csc(
                    CscMatrix::from_parts(rows, cols, col_ptr, row_ids, values).unwrap(),
                )
            }
            MatrixData::Zvc(z) => {
                let values = z.values().iter().map(|_| rng.value(true)).collect();
                let zvc = sparseflex_formats::ZvcMatrix::from_parts(
                    rows,
                    cols,
                    z.mask().to_vec(),
                    values,
                );
                MatrixData::Zvc(zvc.unwrap())
            }
            MatrixData::Rlc(r) => {
                let mut entries = r.entries().to_vec();
                for e in &mut entries {
                    e.value = rng.value(true);
                }
                let (bits, trailing) = (r.run_bits(), r.trailing_zeros());
                MatrixData::Rlc(RlcMatrix::from_parts(rows, cols, bits, entries, trailing).unwrap())
            }
            MatrixData::Dense(_) => {
                let data = (0..rows * cols)
                    .map(|_| {
                        if rng.below(3) == 0 {
                            rng.value(true)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                MatrixData::Dense(DenseMatrix::from_vec(rows, cols, data).unwrap())
            }
            other => other,
        }
    }

    /// Append a report to the bytes a digest pins: each block's cycles
    /// and energy bits, the fill latency and the element count.
    fn pin_report(rep: &ConversionReport, pinned: &mut Vec<u8>) {
        for kind in BlockKind::ALL {
            pinned.extend_from_slice(&rep.cycles(kind).to_le_bytes());
            pinned.extend_from_slice(&rep.energy(kind).to_bits().to_le_bytes());
        }
        pinned.extend_from_slice(&rep.fill_latency.to_le_bytes());
        pinned.extend_from_slice(&rep.elements.to_le_bytes());
    }

    /// Every pair builds the target's encoding, and the FNV-1a digest of
    /// every case's report pins what each pair charges: a path that
    /// charges its own steps instead of the decode and encode it
    /// replaces moves the digest.
    #[test]
    fn conversions_build_the_target_encoding_bit_for_bit() {
        let formats = [
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 3 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 2 },
            MatrixFormat::Zvc,
        ];
        let eng = engine();
        let mut rng = Rng(0xacf);
        let mut pinned = Vec::new();
        for case in 0..400 {
            for src in formats {
                let data = random_operand(&mut rng, src);
                for dst in formats {
                    // Fig. 8c's counting sort keeps CSR's explicit zeros;
                    // every other pair builds what encoding the source's
                    // nonzeros yields.
                    let want = match (&data, dst) {
                        _ if src == dst => data.clone(),
                        (MatrixData::Csr(c), MatrixFormat::Csc) => {
                            MatrixData::Csc(convert::csr_to_csc(c))
                        }
                        _ => MatrixData::encode(&data.to_coo(), &dst).unwrap(),
                    };
                    let (out, rep) = eng.convert_matrix(&data, &dst).unwrap();
                    assert_eq!(
                        format!("{out:?}"),
                        format!("{want:?}"),
                        "case {case}: {src} -> {dst} payload"
                    );
                    assert!(rep.pipelined_cycles() <= rep.serialized_cycles());
                    pin_report(&rep, &mut pinned);
                }
            }
        }
        assert_eq!(
            sparseflex_formats::fnv1a(&pinned),
            0x4d81_e25f_2f90_98f8,
            "a conversion's report moved"
        );
    }

    #[test]
    fn bigger_matrices_cost_more_cycles() {
        let eng = engine();
        let small = random_matrix(20, 20, 40, 1);
        let large = random_matrix(20, 20, 300, 2);
        let (_, rep_s) = eng.csr_to_csc(&CsrMatrix::from_coo(&small));
        let (_, rep_l) = eng.csr_to_csc(&CsrMatrix::from_coo(&large));
        assert!(rep_l.pipelined_cycles() > rep_s.pipelined_cycles());
        assert!(rep_l.total_energy() > rep_s.total_energy());
    }

    #[test]
    fn structured_targets_work_via_generic_path() {
        let coo = random_matrix(12, 12, 30, 9);
        let data = MatrixData::encode(&coo, &MatrixFormat::Zvc).unwrap();
        let eng = engine();
        for dst in [
            MatrixFormat::Bsr { br: 3, bc: 3 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
        ] {
            let (out, rep) = eng.convert_matrix(&data, &dst).unwrap();
            assert_eq!(out.to_coo(), coo, "ZVC -> {dst}");
            assert!(rep.pipelined_cycles() > 0);
        }
    }
}
