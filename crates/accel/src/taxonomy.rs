//! The Table I / Table II accelerator taxonomy.
//!
//! Table I classifies accelerators by the *freedom* of their MCF and ACF
//! and by where conversion happens; Table II instantiates one
//! representative per class for the evaluation. This module encodes both
//! so every bench can iterate the same baseline suite the paper does.

use sparseflex_formats::MatrixFormat;

/// Freedom of a format choice (the Fix/Flex columns of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatFreedom {
    /// One hard-wired format (pair).
    Fixed,
    /// Multiple supported formats.
    Flexible,
}

/// Where (and whether) format conversion happens (Table I "Conv").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConversionSupport {
    /// MCF must equal ACF — no converter exists.
    None,
    /// Conversion runs in software on the host (MKL / cuSPARSE).
    Software,
    /// Conversion runs in dedicated hardware next to the accelerator
    /// (MINT in this work; fixed decompressors in prior work).
    Hardware,
}

/// One MCF/ACF pair for the two operands `(A, B)`.
pub type FormatPair = (MatrixFormat, MatrixFormat);

/// A Table II accelerator class.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorClass {
    /// Taxonomy name (e.g. `Fix_Fix_None`).
    pub name: &'static str,
    /// Representative design from the paper (e.g. "TPUv1").
    pub example: &'static str,
    /// MCF freedom.
    pub mcf_freedom: FormatFreedom,
    /// ACF freedom.
    pub acf_freedom: FormatFreedom,
    /// Conversion support.
    pub conversion: ConversionSupport,
    /// MCF pairs the design can store operands in.
    pub mcfs: Vec<FormatPair>,
    /// ACF pairs the design can compute in.
    pub acfs: Vec<FormatPair>,
}

impl AcceleratorClass {
    /// `Fix_Fix_None` — TPUv1: Dense-Dense storage and compute, no
    /// conversion.
    fn fix_fix_none() -> Self {
        AcceleratorClass {
            name: "Fix_Fix_None",
            example: "TPUv1",
            mcf_freedom: FormatFreedom::Fixed,
            acf_freedom: FormatFreedom::Fixed,
            conversion: ConversionSupport::None,
            mcfs: vec![(MatrixFormat::Dense, MatrixFormat::Dense)],
            acfs: vec![(MatrixFormat::Dense, MatrixFormat::Dense)],
        }
    }

    /// `Fix_Fix_None2` — EIE: CSR-Dense and Dense-CSC, identical MCF and
    /// ACF, no conversion.
    fn fix_fix_none2() -> Self {
        let pairs = vec![
            (MatrixFormat::Csr, MatrixFormat::Dense),
            (MatrixFormat::Dense, MatrixFormat::Csc),
        ];
        AcceleratorClass {
            name: "Fix_Fix_None2",
            example: "EIE",
            mcf_freedom: FormatFreedom::Fixed,
            acf_freedom: FormatFreedom::Fixed,
            conversion: ConversionSupport::None,
            mcfs: pairs.clone(),
            acfs: pairs,
        }
    }

    /// `Fix_Flex_HW` — SIGMA: fixed ZVC-ZVC storage, flexible compute
    /// formats, hardware decoder.
    fn fix_flex_hw() -> Self {
        AcceleratorClass {
            name: "Fix_Flex_HW",
            example: "SIGMA",
            mcf_freedom: FormatFreedom::Fixed,
            acf_freedom: FormatFreedom::Flexible,
            conversion: ConversionSupport::Hardware,
            mcfs: vec![(MatrixFormat::Zvc, MatrixFormat::Zvc)],
            acfs: vec![
                (MatrixFormat::Csr, MatrixFormat::Dense),
                (MatrixFormat::Dense, MatrixFormat::Csc),
                (MatrixFormat::Dense, MatrixFormat::Dense),
            ],
        }
    }

    /// `Flex_Fix_HW` — NVDLA: ZVC or Dense storage, dense-only compute,
    /// hardware ZVC decompressor.
    fn flex_fix_hw() -> Self {
        AcceleratorClass {
            name: "Flex_Fix_HW",
            example: "NVDLA",
            mcf_freedom: FormatFreedom::Flexible,
            acf_freedom: FormatFreedom::Fixed,
            conversion: ConversionSupport::Hardware,
            mcfs: vec![
                (MatrixFormat::Dense, MatrixFormat::Zvc),
                (MatrixFormat::Dense, MatrixFormat::Dense),
                (MatrixFormat::Zvc, MatrixFormat::Zvc),
                (MatrixFormat::Zvc, MatrixFormat::Dense),
            ],
            acfs: vec![(MatrixFormat::Dense, MatrixFormat::Dense)],
        }
    }

    /// `Flex_Flex_None` — ExTensor: several formats, but MCF must equal
    /// ACF (no converter).
    fn flex_flex_none() -> Self {
        let pairs = vec![
            (MatrixFormat::Csr, MatrixFormat::Dense),
            (MatrixFormat::Csr, MatrixFormat::Csc),
            (MatrixFormat::Dense, MatrixFormat::Dense),
            (MatrixFormat::Dense, MatrixFormat::Csc),
        ];
        AcceleratorClass {
            name: "Flex_Flex_None",
            example: "ExTensor",
            mcf_freedom: FormatFreedom::Flexible,
            acf_freedom: FormatFreedom::Flexible,
            conversion: ConversionSupport::None,
            mcfs: pairs.clone(),
            acfs: pairs,
        }
    }

    /// `Flex_Flex_SW` — CPU/GPU libraries: any MCF, any ACF, conversion
    /// offloaded to the host.
    fn flex_flex_sw() -> Self {
        AcceleratorClass {
            name: "Flex_Flex_SW",
            example: "MKL/cuSPARSE",
            mcf_freedom: FormatFreedom::Flexible,
            acf_freedom: FormatFreedom::Flexible,
            conversion: ConversionSupport::Software,
            mcfs: Self::full_mcf_pairs(),
            acfs: Self::full_acf_pairs(),
        }
    }

    /// `Flex_Flex_HW` — this work: any MCF, any ACF, MINT conversion
    /// beside the accelerator, SAGE choosing the combination.
    pub fn flex_flex_hw() -> Self {
        AcceleratorClass {
            name: "Flex_Flex_HW",
            example: "This work",
            mcf_freedom: FormatFreedom::Flexible,
            acf_freedom: FormatFreedom::Flexible,
            conversion: ConversionSupport::Hardware,
            mcfs: Self::full_mcf_pairs(),
            acfs: Self::full_acf_pairs(),
        }
    }

    /// All MCF pairs over the paper's six-format MCF set, in its order.
    fn full_mcf_pairs() -> Vec<FormatPair> {
        let set = MatrixFormat::mcf_set();
        set.iter().flat_map(|&a| set.map(|b| (a, b))).collect()
    }

    /// All ACF pairs the WS array supports, in SAGE's search order: A in
    /// {Dense, CSR, COO, CSC} x B in {Dense, CSC}, then the CSR-CSR
    /// SpGEMM dataflow.
    fn full_acf_pairs() -> Vec<FormatPair> {
        let mut out = Vec::new();
        for a in [
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Coo,
            MatrixFormat::Csc,
        ] {
            for b in [MatrixFormat::Dense, MatrixFormat::Csc] {
                out.push((a, b));
            }
        }
        out.push((MatrixFormat::Csr, MatrixFormat::Csr));
        out
    }

    /// The Table II evaluation suite in paper order (software-conversion
    /// class included; the GPU/CPU baselines live in `sparseflex-host`).
    pub fn table2_suite() -> Vec<AcceleratorClass> {
        vec![
            Self::fix_fix_none(),
            Self::fix_fix_none2(),
            Self::fix_flex_hw(),
            Self::flex_flex_none(),
            Self::flex_fix_hw(),
            Self::flex_flex_sw(),
            Self::flex_flex_hw(),
        ]
    }

    /// Does this class require MCF == ACF (no converter)?
    pub fn requires_identity_conversion(&self) -> bool {
        self.conversion == ConversionSupport::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_classes_in_paper_order() {
        let suite = AcceleratorClass::table2_suite();
        let names: Vec<_> = suite.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "Fix_Fix_None",
                "Fix_Fix_None2",
                "Fix_Flex_HW",
                "Flex_Flex_None",
                "Flex_Fix_HW",
                "Flex_Flex_SW",
                "Flex_Flex_HW"
            ]
        );
    }

    #[test]
    fn tpu_is_dense_only() {
        let tpu = AcceleratorClass::fix_fix_none();
        assert_eq!(tpu.mcfs, vec![(MatrixFormat::Dense, MatrixFormat::Dense)]);
        assert!(tpu.requires_identity_conversion());
    }

    #[test]
    fn none_classes_have_equal_mcf_acf_sets() {
        for class in [
            AcceleratorClass::fix_fix_none2(),
            AcceleratorClass::flex_flex_none(),
        ] {
            assert_eq!(
                class.mcfs, class.acfs,
                "{} must pair MCF == ACF",
                class.name
            );
            assert!(class.requires_identity_conversion());
        }
    }

    #[test]
    fn this_work_is_the_paper_vii_a_space_in_search_order() {
        // §VII-A: "6 MCF choices ... and 4 ACF choices". SAGE searches
        // these pairs in order and ties keep the first candidate, so both
        // lists are pinned exactly, order included: MCF pairs over
        // mcf_set() in its order; streaming ACFs Dense, CSR, COO, CSC
        // (not acf_set()'s order) against the weight-stationary B ACFs
        // Dense and CSC; the CSR-CSR Gustavson pair last.
        let work = AcceleratorClass::flex_flex_hw();
        let mcfs = MatrixFormat::mcf_set();
        assert_eq!(work.mcfs.len(), 36);
        for (i, pair) in work.mcfs.iter().enumerate() {
            assert_eq!(*pair, (mcfs[i / 6], mcfs[i % 6]), "MCF pair {i}");
        }
        let (dense, csr, coo, csc) = (
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Coo,
            MatrixFormat::Csc,
        );
        assert_eq!(
            work.acfs,
            vec![
                (dense, dense),
                (dense, csc),
                (csr, dense),
                (csr, csc),
                (coo, dense),
                (coo, csc),
                (csc, dense),
                (csc, csc),
                (csr, csr),
            ]
        );
        for f in MatrixFormat::acf_set() {
            assert!(work.acfs.iter().any(|&(a, _)| a == f), "ACF space lost {f}");
        }
        assert_eq!(work.conversion, ConversionSupport::Hardware);
    }

    #[test]
    fn nvdla_computes_dense_only() {
        let n = AcceleratorClass::flex_fix_hw();
        assert_eq!(n.acfs, vec![(MatrixFormat::Dense, MatrixFormat::Dense)]);
        assert!(n
            .mcfs
            .iter()
            .any(|(a, b)| *a == MatrixFormat::Zvc || *b == MatrixFormat::Zvc));
    }
}
