//! Today's generic conversion through the COO hub, and the two Fig. 8
//! paths it calls, kept verbatim (with the engine passed explicitly) as
//! the oracle the native conversions are checked against, bit for bit.

use super::ConversionEngine;
use crate::blocks::{small_op_cycles, E_SMALL_OP};
use crate::report::{BlockKind, ConversionReport};
use sparseflex_formats::{
    BsrMatrix, CooMatrix, CscMatrix, CsrMatrix, FormatError, MatrixData, MatrixFormat, RlcMatrix,
    SparseMatrix, ZvcMatrix,
};

/// RLC → COO (Fig. 8d): add one to each run, prefix-sum to recover
/// flat positions, divide/mod by the row length for coordinates.
pub fn rlc_to_coo(eng: &ConversionEngine, rlc: &RlcMatrix) -> (CooMatrix, ConversionReport) {
    let mut rep = eng.fresh_report();
    let n = rlc.stored_entries() as u64;
    let cols = rlc.cols() as u64;

    // Step 1: stream the RLC entries in.
    eng.memctrl.transfer(2 * n, &mut rep);
    // Step 2: +1 offset per element.
    rep.charge(BlockKind::Adders, small_op_cycles(n), n as f64 * E_SMALL_OP);
    let steps: Vec<u64> = rlc.entries().iter().map(|e| e.zeros + 1).collect();
    // Step 3: prefix sum -> positions + 1.
    let prefix = eng.prefix.scan(&steps, &mut rep);
    // Step 4: parallel divide/mod by K.
    let flats: Vec<u64> = prefix.iter().map(|p| p - 1).collect();
    let coords = eng.divmod.div_mod(&flats, cols, &mut rep);
    // Extension-entry suppression (value == 0 emits nothing).
    rep.charge(
        BlockKind::Comparators,
        small_op_cycles(n),
        n as f64 * E_SMALL_OP,
    );
    // Step 5: store values + coordinates.
    let mut triplets = Vec::with_capacity(rlc.nnz());
    for (i, e) in rlc.entries().iter().enumerate() {
        if e.value != 0.0 {
            triplets.push((coords[i].0 as usize, coords[i].1 as usize, e.value));
        }
    }
    eng.memctrl.transfer(3 * triplets.len() as u64, &mut rep);
    rep.elements += n;
    let coo = CooMatrix::from_sorted_triplets(rlc.rows(), rlc.cols(), triplets)
        .expect("RLC stream order is row-major");
    (coo, rep)
}

/// CSR → BSR (Fig. 8e): walk row blocks, find block columns with
/// mod + comparators, scatter (padding zeros included), prefix-sum
/// the block row pointer.
pub fn csr_to_bsr(
    eng: &ConversionEngine,
    csr: &CsrMatrix,
    br: usize,
    bc: usize,
) -> Result<(BsrMatrix, ConversionReport), FormatError> {
    let mut rep = eng.fresh_report();
    let nnz = csr.nnz() as u64;
    // Step 1: read the CSR fields.
    eng.memctrl
        .transfer(2 * nnz + csr.rows() as u64 + 1, &mut rep);
    // Step 2: block-position mods and initialization comparators.
    let cols_u64: Vec<u64> = csr.col_ids().iter().map(|&c| c as u64).collect();
    let _ = eng.divmod.div_mod(&cols_u64, bc.max(1) as u64, &mut rep);
    rep.charge(
        BlockKind::Comparators,
        small_op_cycles(nnz),
        nnz as f64 * E_SMALL_OP,
    );

    let bsr = BsrMatrix::from_coo(&csr.to_coo(), br, bc)?;
    // Step 3: scatter values into padded block payloads (padding
    // zeros are written too — that is BSR's cost).
    eng.memctrl.transfer(bsr.stored_values() as u64, &mut rep);
    // Counter tallies unique blocks per row block.
    rep.charge(
        BlockKind::ClusterCounter,
        eng.counter.cycles(nnz),
        eng.counter.energy(nnz),
    );
    // Step 5: prefix sum over the block row pointers.
    let nbr = bsr.num_block_rows() as u64;
    rep.charge(
        BlockKind::PrefixSum,
        eng.prefix.cycles(nbr + 1),
        eng.prefix.energy(nbr + 1),
    );
    eng.memctrl
        .transfer(nbr + 1 + bsr.num_blocks() as u64, &mut rep);
    rep.elements += nnz;
    Ok((bsr, rep))
}

/// Decode any matrix payload into the COO hub through the blocks.
pub fn decode_to_coo(eng: &ConversionEngine, data: &MatrixData) -> (CooMatrix, ConversionReport) {
    let mut rep = eng.fresh_report();
    let coo = match data {
        MatrixData::Coo(c) => {
            // Pass-through: stream copy only.
            eng.memctrl.transfer(3 * c.nnz() as u64, &mut rep);
            c.clone()
        }
        MatrixData::Rlc(r) => {
            let (coo, sub) = rlc_to_coo(eng, r);
            rep.merge(&sub);
            return (coo, rep);
        }
        MatrixData::Dense(d) => {
            let total = (d.rows() * d.cols()) as u64;
            eng.memctrl.transfer(total, &mut rep);
            rep.charge(
                BlockKind::Comparators,
                small_op_cycles(total),
                total as f64 * E_SMALL_OP,
            );
            rep.charge(
                BlockKind::PrefixSum,
                eng.prefix.cycles(total),
                eng.prefix.energy(total),
            );
            let coo = d.to_coo();
            let flats: Vec<u64> = coo
                .iter()
                .map(|(r, c, _)| (r * d.cols() + c) as u64)
                .collect();
            let _ = eng.divmod.div_mod(&flats, d.cols().max(1) as u64, &mut rep);
            eng.memctrl.transfer(3 * coo.nnz() as u64, &mut rep);
            coo
        }
        MatrixData::Zvc(z) => {
            // Rank/select via prefix sums over mask popcounts.
            let words = z.mask().len() as u64;
            eng.memctrl.transfer(words + z.nnz() as u64, &mut rep);
            rep.charge(
                BlockKind::PrefixSum,
                eng.prefix.cycles(words),
                eng.prefix.energy(words),
            );
            let coo = z.to_coo();
            let flats: Vec<u64> = coo
                .iter()
                .map(|(r, c, _)| (r * z.cols() + c) as u64)
                .collect();
            let _ = eng.divmod.div_mod(&flats, z.cols().max(1) as u64, &mut rep);
            eng.memctrl.transfer(3 * coo.nnz() as u64, &mut rep);
            coo
        }
        MatrixData::Csr(c) => {
            // Row-pointer expansion: adders walk row_ptr while values
            // and col ids stream through.
            let nnz = c.nnz() as u64;
            eng.memctrl
                .transfer(2 * nnz + c.rows() as u64 + 1, &mut rep);
            rep.charge(
                BlockKind::Adders,
                small_op_cycles(nnz),
                nnz as f64 * E_SMALL_OP,
            );
            eng.memctrl.transfer(3 * nnz, &mut rep);
            c.to_coo()
        }
        MatrixData::Csc(c) => {
            // Column-major to row-major: counting sort on row ids.
            let nnz = c.nnz() as u64;
            eng.memctrl
                .transfer(2 * nnz + c.cols() as u64 + 1, &mut rep);
            let row_u64: Vec<u64> = c.row_ids().iter().map(|&r| r as u64).collect();
            let sorted = eng.sorter.sort_chunks(&row_u64, &mut rep);
            let hist = eng.counter.count_into(&sorted, c.rows(), &mut rep);
            let _ = eng.prefix.scan_exclusive(&hist, &mut rep);
            eng.memctrl.transfer(3 * nnz, &mut rep);
            c.to_coo()
        }
        other => {
            // Structured formats (BSR/DIA/ELL): stream stored slots.
            let stored = match other {
                MatrixData::Bsr(b) => b.stored_values() as u64,
                MatrixData::Dia(d) => d.stored_values() as u64,
                MatrixData::Ell(e) => e.stored_values() as u64,
                _ => unreachable!("all unstructured formats handled above"),
            };
            eng.memctrl.transfer(stored, &mut rep);
            rep.charge(
                BlockKind::Comparators,
                small_op_cycles(stored),
                stored as f64 * E_SMALL_OP,
            );
            let coo = other.to_coo();
            eng.memctrl.transfer(3 * coo.nnz() as u64, &mut rep);
            coo
        }
    };
    rep.elements += coo.nnz() as u64;
    (coo, rep)
}

/// Encode the COO hub into any matrix format through the blocks.
pub fn encode_from_coo(
    eng: &ConversionEngine,
    coo: &CooMatrix,
    target: &MatrixFormat,
) -> Result<(MatrixData, ConversionReport), FormatError> {
    let mut rep = eng.fresh_report();
    let nnz = coo.nnz() as u64;
    let data = match *target {
        MatrixFormat::Coo => {
            eng.memctrl.transfer(3 * nnz, &mut rep);
            MatrixData::Coo(coo.clone())
        }
        MatrixFormat::Csr => {
            // Histogram rows (already sorted) + prefix + stream write.
            let rows_u64: Vec<u64> = coo.row_ids().iter().map(|&r| r as u64).collect();
            let hist = eng.counter.count_into(&rows_u64, coo.rows(), &mut rep);
            let _ = eng.prefix.scan_exclusive(&hist, &mut rep);
            eng.memctrl
                .transfer(2 * nnz + coo.rows() as u64 + 1, &mut rep);
            MatrixData::Csr(CsrMatrix::from_coo(coo))
        }
        MatrixFormat::Csc => {
            let cols_u64: Vec<u64> = coo.col_ids().iter().map(|&c| c as u64).collect();
            let sorted = eng.sorter.sort_chunks(&cols_u64, &mut rep);
            let hist = eng.counter.count_into(&sorted, coo.cols(), &mut rep);
            let _ = eng.prefix.scan_exclusive(&hist, &mut rep);
            rep.charge(
                BlockKind::Adders,
                small_op_cycles(nnz),
                nnz as f64 * E_SMALL_OP,
            );
            eng.memctrl
                .transfer(2 * nnz + coo.cols() as u64 + 1, &mut rep);
            MatrixData::Csc(CscMatrix::from_coo(coo))
        }
        MatrixFormat::Dense => {
            // Zero-init + scatter.
            let total = (coo.rows() * coo.cols()) as u64;
            eng.memctrl.transfer(total, &mut rep);
            eng.memctrl.transfer(nnz, &mut rep);
            MatrixData::Dense(coo.clone().into_dense())
        }
        MatrixFormat::Rlc { run_bits } => {
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
            let rlc = RlcMatrix::from_coo(coo, run_bits);
            eng.memctrl
                .transfer(2 * rlc.stored_entries() as u64, &mut rep);
            MatrixData::Rlc(rlc)
        }
        MatrixFormat::Zvc => {
            let zvc = ZvcMatrix::from_coo(coo);
            eng.memctrl
                .transfer(zvc.mask().len() as u64 + nnz, &mut rep);
            rep.charge(
                BlockKind::Adders,
                small_op_cycles(nnz),
                nnz as f64 * E_SMALL_OP,
            );
            MatrixData::Zvc(zvc)
        }
        MatrixFormat::Bsr { br, bc } => {
            let csr = CsrMatrix::from_coo(coo);
            let (bsr, sub) = csr_to_bsr(eng, &csr, br, bc)?;
            rep.merge(&sub);
            MatrixData::Bsr(bsr)
        }
        MatrixFormat::Dia | MatrixFormat::Ell => {
            // Structured scatter: offset arithmetic + padded writes.
            let data = MatrixData::encode(coo, target)?;
            let stored = match &data {
                MatrixData::Dia(d) => d.stored_values() as u64,
                MatrixData::Ell(e) => e.stored_values() as u64,
                _ => unreachable!(),
            };
            rep.charge(
                BlockKind::Adders,
                small_op_cycles(nnz),
                nnz as f64 * E_SMALL_OP,
            );
            eng.memctrl.transfer(stored, &mut rep);
            data
        }
    };
    rep.elements += nnz;
    Ok((data, rep))
}

/// Generic any→any matrix conversion: direct fast paths where Fig. 8
/// defines them, otherwise decode→COO→encode.
pub fn convert_matrix(
    eng: &ConversionEngine,
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
            let (out, rep) = eng.csr_to_csc(c);
            return Ok((MatrixData::Csc(out), rep));
        }
        (MatrixData::Csr(c), MatrixFormat::Bsr { br, bc }) => {
            let (out, rep) = csr_to_bsr(eng, c, *br, *bc)?;
            return Ok((MatrixData::Bsr(out), rep));
        }
        (MatrixData::Rlc(r), MatrixFormat::Coo) => {
            let (out, rep) = rlc_to_coo(eng, r);
            return Ok((MatrixData::Coo(out), rep));
        }
        _ => {}
    }
    let (coo, mut rep) = decode_to_coo(eng, data);
    let (out, enc) = encode_from_coo(eng, &coo, target)?;
    rep.merge(&enc);
    Ok((out, rep))
}
