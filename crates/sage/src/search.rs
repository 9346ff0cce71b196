//! Exhaustive MCF x ACF search (the "Generation Engine" of SAGE).
//!
//! One search prices MCF pairs crossed with ACF pairs and keeps the
//! lowest EDP. This work's space is the paper's (§VII-A), defined once as
//! [`AcceleratorClass::flex_flex_hw`]: six MCFs per operand crossed with
//! the ACF pairs the weight-stationary array can stream and hold
//! resident, plus the CSR-CSR Gustavson pair. [`Sage::recommend`] is that
//! class's search; [`Sage::recommend_for_class`] runs the same search
//! over a Table II baseline's pairs and conversion support, and
//! [`Sage::recommend_with_fixed_mcf`] over this work's ACF pairs with
//! the MCFs pinned.

use crate::eval::{acf_priced, Evaluation, Sage};
use crate::tensor_model::{evaluate_tensor, TensorChoice, TensorEvaluation};
use crate::workload::{SageWorkload, TensorWorkload};
use sparseflex_accel::taxonomy::{AcceleratorClass, FormatPair};
use sparseflex_accel::ConversionSupport;
use sparseflex_formats::{MatrixFormat, TensorFormat};

/// One point in the search space: MCF and ACF per operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormatChoice {
    /// Memory format of the streaming operand A.
    pub mcf_a: MatrixFormat,
    /// Memory format of the stationary operand B.
    pub mcf_b: MatrixFormat,
    /// Compute format of A.
    pub acf_a: MatrixFormat,
    /// Compute format of B.
    pub acf_b: MatrixFormat,
}

impl std::fmt::Display for FormatChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MCF {}({}) ACF {}({})",
            self.mcf_a, self.mcf_b, self.acf_a, self.acf_b
        )
    }
}

/// The result of a SAGE search: the winning evaluation plus the number of
/// candidates considered.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The winning (lowest-EDP) evaluation.
    pub best: Evaluation,
    /// Candidates evaluated.
    pub candidates: usize,
}

impl Sage {
    /// Search this work's space ([`AcceleratorClass::flex_flex_hw`]: every
    /// MCF pair crossed with every ACF pair, under MINT conversion) for the
    /// lowest-EDP combination: the `Flex_Flex_HW` class search.
    pub fn recommend(&self, w: &SageWorkload) -> Recommendation {
        self.recommend_for_class(w, &AcceleratorClass::flex_flex_hw())
            .expect("at least Dense-Dense MCF/ACF always evaluates")
    }

    /// Search with the MCFs pinned by the programmer ("there might be
    /// scenarios when the MCF is already predetermined ... SAGE will find
    /// the best accelerator configuration (ACF) and conversion type"):
    /// this work's ACF pairs under MINT conversion. `operand_bits` prices
    /// the operands at their measured storage sizes instead of the
    /// uniform-random size model.
    pub fn recommend_with_fixed_mcf(
        &self,
        w: &SageWorkload,
        mcf_a: MatrixFormat,
        mcf_b: MatrixFormat,
        operand_bits: Option<(u64, u64)>,
    ) -> Recommendation {
        let acfs = AcceleratorClass::flex_flex_hw().acfs;
        self.search(
            w,
            &[(mcf_a, mcf_b)],
            &acfs,
            ConversionSupport::Hardware,
            operand_bits,
        )
        .expect("Dense ACFs always evaluate")
    }

    /// Best achievable evaluation for a Table II accelerator class: the
    /// search is restricted to the class's supported MCF/ACF pairs and
    /// conversion discipline.
    pub fn recommend_for_class(
        &self,
        w: &SageWorkload,
        class: &AcceleratorClass,
    ) -> Option<Recommendation> {
        self.search(w, &class.mcfs, &class.acfs, class.conversion, None)
    }

    /// SAGE's one matrix search: every ACF pair priced for this kernel,
    /// under every MCF pair, in order. Counts the evaluations that
    /// succeed (a pair the array cannot execute does not) and keeps the
    /// first lowest EDP (ties keep the earlier candidate, so the pair
    /// order is part of the output); `None` when nothing evaluates.
    fn search(
        &self,
        w: &SageWorkload,
        mcfs: &[FormatPair],
        acfs: &[FormatPair],
        conversion: ConversionSupport,
        operand_bits: Option<(u64, u64)>,
    ) -> Option<Recommendation> {
        let clock = self.accel.clock_hz;
        let mut best: Option<Evaluation> = None;
        let mut candidates = 0;
        for &(mcf_a, mcf_b) in mcfs {
            for &(acf_a, acf_b) in acfs {
                if !acf_priced(w, acf_a, acf_b) {
                    continue;
                }
                let choice = FormatChoice {
                    mcf_a,
                    mcf_b,
                    acf_a,
                    acf_b,
                };
                let Ok(eval) =
                    self.evaluate_with_operand_bits(w, &choice, conversion, operand_bits)
                else {
                    continue;
                };
                candidates += 1;
                if best.as_ref().is_none_or(|b| eval.edp(clock) < b.edp(clock)) {
                    best = Some(eval);
                }
            }
        }
        best.map(|best| Recommendation { best, candidates })
    }

    /// Search tensor MCF/ACF combinations for a tensor kernel (SpTTM /
    /// MTTKRP rows of Table III) over [`TensorFormat::mcf_set`] ×
    /// [`TensorFormat::acf_set`].
    pub fn recommend_tensor(&self, w: &TensorWorkload) -> TensorEvaluation {
        let mut best: Option<TensorEvaluation> = None;
        for mcf in TensorFormat::mcf_set() {
            for acf in TensorFormat::acf_set() {
                let choice = TensorChoice {
                    mcf_t: mcf,
                    acf_t: acf,
                };
                let eval = evaluate_tensor(self, w, &choice);
                let better = match &best {
                    None => true,
                    Some(b) => eval.edp(self.accel.clock_hz) < b.edp(self.accel.clock_hz),
                };
                if better {
                    best = Some(eval);
                }
            }
        }
        best.expect("tensor search space is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SageKernel;
    use sparseflex_formats::DataType;

    fn sage() -> Sage {
        Sage::default()
    }

    #[test]
    fn recommendation_never_beaten_by_any_candidate() {
        // SAGE's defining invariant: the returned choice minimizes EDP
        // over the enumerated space.
        let s = sage();
        let w = SageWorkload::spmm(2000, 2000, 1000, 200_000, DataType::Fp32);
        let rec = s.recommend(&w);
        let best_edp = rec.best.edp(s.accel.clock_hz);
        for mcf_a in MatrixFormat::mcf_set() {
            for acf_a in [MatrixFormat::Dense, MatrixFormat::Csr] {
                let choice = FormatChoice {
                    mcf_a,
                    mcf_b: MatrixFormat::Dense,
                    acf_a,
                    acf_b: MatrixFormat::Dense,
                };
                if let Ok(e) = s.evaluate(&w, &choice, ConversionSupport::Hardware) {
                    assert!(
                        e.edp(s.accel.clock_hz) >= best_edp * 0.999,
                        "{choice} beats the recommendation"
                    );
                }
            }
        }
    }

    #[test]
    fn extreme_sparsity_prefers_compressed_streaming() {
        // m3plates-like: 11k x 11k at 0.0054% -> COO/CSR MCF and a sparse
        // streaming ACF must win over Dense.
        let s = sage();
        let w = SageWorkload::spgemm(11_000, 11_000, 5_500, 6_600, 3_300, DataType::Fp32);
        let rec = s.recommend(&w);
        assert_ne!(
            rec.best.choice.mcf_a,
            MatrixFormat::Dense,
            "{}",
            rec.best.choice
        );
        assert_ne!(
            rec.best.choice.acf_a,
            MatrixFormat::Dense,
            "{}",
            rec.best.choice
        );
    }

    #[test]
    fn dense_region_prefers_dense_acf() {
        // journals-like: 78.5% density -> dense-style compute.
        let s = sage();
        let w = SageWorkload::spgemm(124, 124, 62, 12_068, 6_034, DataType::Fp32);
        let rec = s.recommend(&w);
        assert_eq!(
            rec.best.choice.acf_b,
            MatrixFormat::Dense,
            "{}",
            rec.best.choice
        );
    }

    #[test]
    fn fixed_mcf_search_respects_the_pin() {
        let s = sage();
        let w = SageWorkload::spmm(1000, 1000, 500, 50_000, DataType::Fp32);
        let rec = s.recommend_with_fixed_mcf(&w, MatrixFormat::Zvc, MatrixFormat::Dense, None);
        assert_eq!(rec.best.choice.mcf_a, MatrixFormat::Zvc);
        assert_eq!(rec.best.choice.mcf_b, MatrixFormat::Dense);
    }

    #[test]
    fn flexible_class_never_loses_to_fixed_classes() {
        // The Fig. 13 story: Flex_Flex_HW's EDP <= every other class's,
        // because its search space is a superset.
        let s = sage();
        let suite = AcceleratorClass::table2_suite();
        for w in [
            SageWorkload::spgemm(124, 124, 62, 12_068, 6_034, DataType::Fp32),
            SageWorkload::spgemm(7_700, 2_600, 3_850, 1_000_000, 500_000, DataType::Fp32),
            SageWorkload::spgemm(11_000, 11_000, 5_500, 6_600, 3_300, DataType::Fp32),
            SageWorkload::spmm(7_700, 2_600, 3_850, 1_000_000, DataType::Fp32),
        ] {
            let ours = s
                .recommend_for_class(&w, &AcceleratorClass::flex_flex_hw())
                .expect("flex class always evaluates")
                .best;
            let our_edp = ours.edp(s.accel.clock_hz);
            for class in &suite {
                if let Some(rec) = s.recommend_for_class(&w, class) {
                    assert!(
                        rec.best.edp(s.accel.clock_hz) >= our_edp * 0.999,
                        "{} beats Flex_Flex_HW on {:?} kernel",
                        class.name,
                        w.kernel
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_count_reflects_search_space() {
        let s = sage();
        let w = SageWorkload::spgemm(500, 500, 250, 2_500, 1_250, DataType::Fp32);
        let rec = s.recommend(&w);
        // 36 MCF pairs x (4x2 WS pairs + CSR-CSR) = up to 324.
        assert!(rec.candidates > 100, "only {} candidates", rec.candidates);
        assert_eq!(w.kernel, SageKernel::SpGemm);
    }

    #[test]
    fn tensor_space_is_table_iii() {
        // Tensor rows of Table III: 5 MCFs x 3 ACFs.
        assert_eq!(TensorFormat::mcf_set().len(), 5);
        assert_eq!(TensorFormat::acf_set().len(), 3);
    }

    #[test]
    fn exhaustive_search_enumerates_the_full_cross_product() {
        // SpGEMM: 36 MCF pairs x (4 streaming ACFs x 2 stationary + the
        // CSR-CSR Gustavson pair) = 324 candidates; SpMM drops the
        // Gustavson pair: 36 x 8 = 288.
        let s = sage();
        let spgemm = SageWorkload::spgemm(200, 200, 100, 2_000, 1_000, DataType::Fp32);
        assert_eq!(s.recommend(&spgemm).candidates, 36 * 9);
        let spmm = SageWorkload::spmm(200, 200, 100, 2_000, DataType::Fp32);
        assert_eq!(s.recommend(&spmm).candidates, 36 * 8);
    }
}
