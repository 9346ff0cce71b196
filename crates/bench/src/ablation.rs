//! Ablation studies for the design choices DESIGN.md calls out:
//! structured-format SAGE (future-work extension), MINT merge levels,
//! prefix-sum overlays, and conversion overlap.

use sparseflex_formats::{DataType, SparseMatrix};
use sparseflex_mint::blocks::prefix_sum::{PrefixSumDesign, PrefixSumUnit};
use sparseflex_mint::{MintVariant, PrefixSumOverlay};
use sparseflex_sage::structured::rank_mcfs_exact;
use sparseflex_sage::workload::SageKernel;
use sparseflex_sage::Sage;
use sparseflex_workloads::synth::{
    banded_matrix, blocked_matrix, random_dense_matrix, random_matrix,
};

/// Structured-SAGE ablation: uniform-random SAGE vs structure-aware SAGE
/// on blocked / banded / scattered patterns.
fn structured_rows() -> Vec<String> {
    let sage = Sage::default();
    let mut out = vec![
        "# ablation: structure-aware SAGE (paper future work) vs uniform model".to_string(),
        "pattern,best_exact_mcf,exact_bits,best_unstructured_mcf,unstructured_bits,saving_pct"
            .to_string(),
    ];
    let cases: Vec<(&str, sparseflex_formats::CooMatrix)> = vec![
        ("blocked_8x8_10pct", blocked_matrix(256, 256, 8, 0.10, 1)),
        ("banded_5diag", banded_matrix(512, 5, 2)),
        ("scattered_3pct", random_matrix(256, 256, 2_000, 3)),
    ];
    for (name, m) in cases {
        let ranks = rank_mcfs_exact(&m, DataType::Fp32);
        let best = &ranks[0];
        let best_unstructured = ranks
            .iter()
            .find(|c| c.format.is_unstructured())
            .expect("unstructured candidates always present");
        let saving = 100.0 * (1.0 - best.bits as f64 / best_unstructured.bits as f64);
        out.push(format!(
            "{name},{},{},{},{},{saving:.1}",
            best.format, best.bits, best_unstructured.format, best_unstructured.bits
        ));
        // Exercise the full structured recommendation too.
        let b = random_dense_matrix(m.cols(), 64, 9);
        let b_coo = b.to_coo();
        let (rec, _, _) = sage.recommend_structured(&m, &b_coo, SageKernel::SpMm, DataType::Fp32);
        out.push(format!(
            "#   -> structured plan: {} ({:.3e} J, {:.3e} cycles)",
            rec.best.choice,
            rec.best.total_energy(),
            rec.best.total_cycles()
        ));
    }
    out
}

/// MINT merge-level and overlay ablation (the §VII-B area/power story).
fn mint_rows() -> Vec<String> {
    let mut out = vec![
        "# ablation: MINT merge levels and prefix-sum overlays".to_string(),
        "variant,area_mm2,power_w,divmod_area_share".to_string(),
    ];
    for v in MintVariant::all() {
        out.push(format!(
            "{},{:.2},{:.3},{:.2}",
            v.name(),
            v.area_mm2(),
            v.power_w(),
            v.divmod_area_share()
        ));
    }
    out.push(String::new());
    out.push("overlay,area_overhead_pct,power_overhead_pct,latency_32".to_string());
    for (name, overlay, design) in [
        (
            "highly_parallel",
            PrefixSumOverlay::HighlyParallel,
            PrefixSumDesign::HighlyParallel,
        ),
        (
            "serial_chain",
            PrefixSumOverlay::SerialChain,
            PrefixSumDesign::SerialChain,
        ),
    ] {
        let unit = PrefixSumUnit { width: 32, design };
        out.push(format!(
            "{name},{:.0},{:.0},{}",
            100.0 * overlay.area_overhead(),
            100.0 * overlay.power_overhead(),
            unit.latency()
        ));
    }
    out
}

/// All ablation series.
pub fn rows() -> Vec<String> {
    let mut out = structured_rows();
    out.push(String::new());
    out.extend(mint_rows());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn structured_patterns_save_storage() {
        let rows = super::structured_rows();
        // Blocked and banded rows must show positive savings over the
        // best unstructured format.
        for name in ["blocked_8x8_10pct", "banded_5diag"] {
            let line = rows.iter().find(|l| l.starts_with(name)).unwrap();
            let saving: f64 = line.split(',').next_back().unwrap().parse().unwrap();
            assert!(saving > 5.0, "{name} saving only {saving}%");
        }
        // Scattered pattern: no structured win (saving ~ 0).
        let line = rows.iter().find(|l| l.starts_with("scattered")).unwrap();
        let saving: f64 = line.split(',').next_back().unwrap().parse().unwrap();
        assert!(
            saving.abs() < 1.0,
            "scattered saving {saving}% should be ~0"
        );
    }

    #[test]
    fn mint_table_has_three_variants_two_overlays() {
        let rows = super::mint_rows();
        assert!(rows.iter().any(|l| l.starts_with("MINT_b,0.95")));
        assert!(rows.iter().any(|l| l.starts_with("MINT_mr,0.23")));
        assert!(rows.iter().any(|l| l.starts_with("serial_chain,2,3")));
    }
}
