//! Structured-format extension to SAGE — the paper's stated future work
//! (§VI: "Enhancing the performance model for structured formats (e.g.
//! DIA, HiCOO, BSR and ELLPACK) is part of our future work").
//!
//! The uniform-random assumption underprices structured MCFs exactly when
//! they shine: a block-pruned weight matrix stores far fewer BSR blocks
//! than the random model expects, and a banded stiffness matrix occupies
//! a handful of diagonals. This module measures the *actual* pattern
//! (via [`matrix_storage_bits_exact`]) and extends the MCF search with
//! BSR/DIA/ELL candidates, gated by the structure statistics so scattered
//! patterns don't waste search time on hopeless encodings.

use crate::eval::Sage;
use crate::search::Recommendation;
use crate::workload::{SageKernel, SageWorkload};
use sparseflex_formats::size_model::matrix_storage_bits_exact;
use sparseflex_formats::stats::MatrixStats;
use sparseflex_formats::{CooMatrix, DataType, MatrixData, MatrixFormat, SparseMatrix};

/// An MCF candidate with its measured (exact) storage size.
#[derive(Debug, Clone, PartialEq)]
pub struct McfCandidate {
    /// The format.
    pub format: MatrixFormat,
    /// Exact storage bits for this pattern.
    pub bits: u64,
}

/// Rank all MCF candidates for an actual pattern, most compact first.
///
/// Includes the paper's six unstructured MCFs always, and BSR / DIA / ELL
/// when the pattern statistics suggest they can win.
pub fn rank_mcfs_exact(coo: &CooMatrix, dtype: DataType) -> Vec<McfCandidate> {
    let stats = MatrixStats::analyze(coo);
    let mut formats = MatrixFormat::mcf_set().to_vec();
    // Structured candidates, structure-gated.
    if stats.is_banded() {
        formats.push(MatrixFormat::Dia);
    }
    if stats.is_row_balanced() {
        formats.push(MatrixFormat::Ell);
    }
    for block in [2usize, 4, 8] {
        let (_, fill) = MatrixStats::block_occupancy(coo, block);
        // Worth encoding only when occupied blocks are mostly full.
        if fill > 0.5 {
            formats.push(MatrixFormat::Bsr {
                br: block,
                bc: block,
            });
        }
    }
    let mut out: Vec<McfCandidate> = formats
        .into_iter()
        .filter_map(|f| {
            MatrixData::encode(coo, &f).ok().map(|d| McfCandidate {
                format: f,
                bits: matrix_storage_bits_exact(&d, dtype),
            })
        })
        .collect();
    out.sort_by_key(|c| c.bits);
    out
}

impl Sage {
    /// Structure-aware recommendation: measure both operands' patterns,
    /// pick the exact most-compact MCF per operand (structured formats
    /// included), then search the ACFs with the standard models.
    ///
    /// Returns the recommendation plus the chosen per-operand MCF
    /// rankings (for reporting).
    pub fn recommend_structured(
        &self,
        a: &CooMatrix,
        b: &CooMatrix,
        kernel: SageKernel,
        dtype: DataType,
    ) -> (Recommendation, Vec<McfCandidate>, Vec<McfCandidate>) {
        let rank_a = rank_mcfs_exact(a, dtype);
        let rank_b = rank_mcfs_exact(b, dtype);
        let top_a = rank_a.first().expect("non-empty candidate set");
        let top_b = rank_b.first().expect("non-empty candidate set");
        let w = match kernel {
            SageKernel::SpMm => {
                SageWorkload::spmm(a.rows(), a.cols(), b.cols(), a.nnz() as u64, dtype)
            }
            SageKernel::SpGemm => SageWorkload::spgemm(
                a.rows(),
                a.cols(),
                b.cols(),
                a.nnz() as u64,
                b.nnz() as u64,
                dtype,
            ),
        };
        // ACF search with the MCFs pinned to the structure-exact winners,
        // priced at their measured sizes.
        let rec = self.recommend_with_fixed_mcf(
            &w,
            top_a.format,
            top_b.format,
            Some((top_a.bits, top_b.bits)),
        );
        (rec, rank_a, rank_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_workloads::synth::{banded_matrix, blocked_matrix, random_matrix};

    #[test]
    fn blocked_pattern_ranks_bsr_first() {
        // 8x8 fully-dense blocks covering 10% of tiles: BSR's per-block
        // metadata beats per-nonzero metadata.
        let m = blocked_matrix(256, 256, 8, 0.10, 1);
        let ranks = rank_mcfs_exact(&m, DataType::Fp32);
        assert_eq!(
            ranks[0].format,
            MatrixFormat::Bsr { br: 8, bc: 8 },
            "ranking: {:?}",
            ranks.iter().map(|c| (c.format, c.bits)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn banded_pattern_ranks_dia_first() {
        let m = banded_matrix(512, 5, 2);
        let ranks = rank_mcfs_exact(&m, DataType::Fp32);
        assert_eq!(
            ranks[0].format,
            MatrixFormat::Dia,
            "ranking: {:?}",
            ranks.iter().map(|c| (c.format, c.bits)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn random_pattern_sticks_to_unstructured() {
        let m = random_matrix(256, 256, 2_000, 3);
        let ranks = rank_mcfs_exact(&m, DataType::Fp32);
        assert!(
            ranks[0].format.is_unstructured(),
            "random pattern picked {:?}",
            ranks[0].format
        );
    }

    #[test]
    fn structured_recommendation_runs_end_to_end() {
        let sage = Sage::default();
        let a = blocked_matrix(128, 128, 8, 0.15, 4);
        let b = random_matrix(128, 64, 128 * 64, 5); // dense factor
        let (rec, rank_a, _) = sage.recommend_structured(&a, &b, SageKernel::SpMm, DataType::Fp32);
        assert_eq!(rec.best.choice.mcf_a, rank_a[0].format);
        assert!(rec.candidates > 0);
        assert!(rec.best.total_cycles() > 0.0);
    }

    #[test]
    fn structured_mcf_beats_unstructured_on_dram_cycles() {
        // The point of the extension: on a blocked pattern, the
        // structure-aware plan moves fewer DRAM bits than the
        // uniform-random plan.
        let sage = Sage::default();
        let a = blocked_matrix(256, 256, 8, 0.10, 6);
        let b = random_matrix(256, 128, 256 * 128, 7);
        let (structured, _, _) =
            sage.recommend_structured(&a, &b, SageKernel::SpMm, DataType::Fp32);
        let w = SageWorkload::spmm(256, 256, 128, a.nnz() as u64, DataType::Fp32);
        let uniform = sage.recommend(&w);
        assert!(
            structured.best.dram_cycles <= uniform.best.dram_cycles,
            "structured {} vs uniform {}",
            structured.best.dram_cycles,
            uniform.best.dram_cycles
        );
    }
}
