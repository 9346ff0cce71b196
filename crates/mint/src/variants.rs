//! MINT design variants and overlay overheads (§V-A, §VII-B).
//!
//! The paper synthesizes three MINT implementations in 28nm at 1 GHz:
//!
//! | variant | idea | area |
//! |---|---|---|
//! | `MINT_b` | separate converter per conversion pair | 0.95 mm² |
//! | `MINT_m` | merged building blocks | 0.41 mm² (~57% smaller) |
//! | `MINT_mr` | merged + reuse of accelerator MACs/dividers | 0.23 mm² (~45% smaller again) |
//!
//! Divide and mod units dominate `MINT_m` (74% of area, 65% of power).
//! Reuse requires overlaying prefix-sum wiring on the PE array: the
//! highly-parallel 32-input design costs +20% area / +27% power on a
//! 16x16 int32 array; the serial chain only +2% / +3% (§VII-B).

/// The three MINT implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MintVariant {
    /// Separate per-pair converters.
    Baseline,
    /// Merged building blocks.
    Merged,
    /// Merged blocks + accelerator datapath reuse.
    MergedReuse,
}

impl MintVariant {
    /// Silicon area in mm² (28nm, paper-reported).
    pub const fn area_mm2(self) -> f64 {
        match self {
            MintVariant::Baseline => 0.95,
            MintVariant::Merged => 0.41,
            MintVariant::MergedReuse => 0.23,
        }
    }

    /// Power in watts at 1 GHz. The paper reports relative shares rather
    /// than absolutes; we anchor `MINT_m` at 150 mW (a typical density
    /// for 28nm datapath logic) and scale the others by area.
    pub const fn power_w(self) -> f64 {
        match self {
            MintVariant::Baseline => 0.348,
            MintVariant::Merged => 0.150,
            MintVariant::MergedReuse => 0.084,
        }
    }

    /// Area fraction occupied by divide/mod units (74% for `MINT_m`).
    pub const fn divmod_area_share(self) -> f64 {
        match self {
            MintVariant::Merged => 0.74,
            // Baseline replicates div/mod per converter; reuse borrows
            // the accelerator's dividers for part of the work.
            MintVariant::Baseline => 0.74,
            MintVariant::MergedReuse => 0.55,
        }
    }

    /// All variants in paper order.
    pub const fn all() -> [MintVariant; 3] {
        [
            MintVariant::Baseline,
            MintVariant::Merged,
            MintVariant::MergedReuse,
        ]
    }

    /// Short name.
    pub const fn name(self) -> &'static str {
        match self {
            MintVariant::Baseline => "MINT_b",
            MintVariant::Merged => "MINT_m",
            MintVariant::MergedReuse => "MINT_mr",
        }
    }
}

/// Overlay choice when reusing the PE array for prefix sums (`MINT_mr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixSumOverlay {
    /// Highly-parallel 32-input overlay: fastest, +20% area / +27% power
    /// on the int32 PE array.
    HighlyParallel,
    /// Serial-chain overlay: +2% area / +3% power, longer tail latency.
    SerialChain,
}

impl PrefixSumOverlay {
    /// Fractional area overhead on the int32 PE array.
    pub const fn area_overhead(self) -> f64 {
        match self {
            PrefixSumOverlay::HighlyParallel => 0.20,
            PrefixSumOverlay::SerialChain => 0.02,
        }
    }

    /// Fractional power overhead on the int32 PE array.
    pub const fn power_overhead(self) -> f64 {
        match self {
            PrefixSumOverlay::HighlyParallel => 0.27,
            PrefixSumOverlay::SerialChain => 0.03,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reported_areas() {
        assert_eq!(MintVariant::Baseline.area_mm2(), 0.95);
        assert_eq!(MintVariant::Merged.area_mm2(), 0.41);
        assert_eq!(MintVariant::MergedReuse.area_mm2(), 0.23);
    }

    #[test]
    fn merging_saves_57_percent() {
        let saving = 1.0 - MintVariant::Merged.area_mm2() / MintVariant::Baseline.area_mm2();
        assert!((saving - 0.57).abs() < 0.02, "merge saving {saving}");
    }

    #[test]
    fn reuse_saves_45_percent_more() {
        let saving = 1.0 - MintVariant::MergedReuse.area_mm2() / MintVariant::Merged.area_mm2();
        assert!((saving - 0.44).abs() < 0.02, "reuse saving {saving}");
    }

    #[test]
    fn divmod_dominates_mint_m() {
        assert_eq!(MintVariant::Merged.divmod_area_share(), 0.74);
    }

    #[test]
    fn overlay_overheads_match_section_7b() {
        assert_eq!(PrefixSumOverlay::HighlyParallel.area_overhead(), 0.20);
        assert_eq!(PrefixSumOverlay::HighlyParallel.power_overhead(), 0.27);
        assert_eq!(PrefixSumOverlay::SerialChain.area_overhead(), 0.02);
        assert_eq!(PrefixSumOverlay::SerialChain.power_overhead(), 0.03);
    }
}
