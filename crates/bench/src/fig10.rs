//! Fig. 10 — conversion execution time and energy: MKL-class CPU vs
//! cuSPARSE-class GPU vs MINT, over the Table III matrix workloads.
//!
//! Two modeled baselines per conversion ([`rows`]):
//! - `cpu_model_s` / `gpu_model_s`: analytic roofline stand-ins for MKL
//!   and cuSPARSE (the paper's hardware is not available here).
//! - `mint_s`: MINT's pipelined cycle count at 1 GHz.
//!
//! [`measured_rows`] adds the host-timed anchor, `rust_measured_s`: real
//! wall time of this workspace's software conversion on the build
//! machine. It lives apart so the modeled rows depend on nothing but the
//! models.

use sparseflex_formats::{CsrMatrix, MatrixFormat};
use sparseflex_host::device::{conversion_time, DeviceModel};
use sparseflex_host::swconvert::{time_conversion, TimedConversion};
use sparseflex_mint::{conversion_cost, ConversionEngine};
use sparseflex_workloads::{WorkloadShape, TABLE_III};

/// Should this workload's matrices be materialized for measured timing?
/// (Capped so the bench binary stays fast; the models cover full scale.)
fn measurable(nnz: usize) -> bool {
    nnz <= 1_500_000
}

/// Fig. 10a/b/c rows.
pub fn rows() -> Vec<String> {
    let engine = ConversionEngine::default();
    let cpu = DeviceModel::core_i9();
    let gpu = DeviceModel::titan_rtx();
    let mut out = vec![
        "# fig10 conversion time & energy; MINT at 1 GHz".to_string(),
        "workload,conversion,cpu_model_s,gpu_model_s,mint_s,cpu_energy_j,gpu_energy_j,mint_energy_j"
            .to_string(),
    ];
    for w in TABLE_III.iter() {
        let WorkloadShape::Matrix { rows: m, cols: k } = w.shape else {
            continue;
        };
        let nnz = w.nnz as u64;
        for (conv_name, src, dst, passes, bpn) in [
            (
                "csr_to_csc",
                MatrixFormat::Csr,
                MatrixFormat::Csc,
                3.0,
                12.0,
            ),
            (
                "dense_to_csr",
                MatrixFormat::Dense,
                MatrixFormat::Csr,
                1.0,
                12.0,
            ),
        ] {
            // Analytic CPU/GPU models. Dense scans move the full matrix.
            let eff_nnz = if src == MatrixFormat::Dense {
                (m * k) as u64
            } else {
                nnz
            };
            let cpu_s = conversion_time(&cpu, eff_nnz, passes, bpn);
            let gpu_s = conversion_time(&gpu, eff_nnz, passes, bpn);
            // MINT.
            let mint = conversion_cost(&src, &dst, m, k, nnz, &engine);
            let mint_s = mint.cycles as f64 / 1.0e9;
            out.push(format!(
                "{},{conv_name},{cpu_s:.4e},{gpu_s:.4e},{mint_s:.4e},{:.4e},{:.4e},{:.4e}",
                w.name,
                cpu.energy(cpu_s),
                gpu.energy(gpu_s),
                mint.energy,
            ));
        }
    }
    out
}

/// Host-timed rows: this workspace's software conversion on the build
/// machine (`results/fig10_measured.csv`), the sanity anchor beside the
/// modeled [`rows`]. Workloads too large to materialize read `NaN`.
pub fn measured_rows() -> Vec<String> {
    let mut out = vec![
        "# fig10 measured: this workspace's software conversion wall time".to_string(),
        "workload,conversion,rust_measured_s".to_string(),
    ];
    for w in TABLE_III.iter() {
        let WorkloadShape::Matrix { rows: m, cols: k } = w.shape else {
            continue;
        };
        let operands = measurable(w.nnz).then(|| {
            let coo = w.generate_matrix(42).expect("matrix workload");
            (CsrMatrix::from_coo(&coo), coo)
        });
        let csr_to_csc = operands.as_ref().map_or(f64::NAN, |(csr, _)| {
            time_conversion(TimedConversion::CsrToCsc, csr, None, 2).seconds
        });
        // Dense materialization is capped harder: skip matrices over 40M
        // elements.
        let dense_to_csr = match &operands {
            Some((csr, coo)) if m * k <= 40_000_000 => {
                let dense = coo.clone().into_dense();
                time_conversion(TimedConversion::DenseToCsr, csr, Some(&dense), 2).seconds
            }
            _ => f64::NAN,
        };
        out.push(format!("{},csr_to_csc,{csr_to_csc:.4e}", w.name));
        out.push(format!("{},dense_to_csr,{dense_to_csr:.4e}", w.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_beats_both_device_models_on_average() {
        // Fig. 10: "MINT shows faster average conversion time than both
        // CPUs and GPUs" and ~3 orders of magnitude energy improvement.
        let engine = ConversionEngine::default();
        let cpu = DeviceModel::core_i9();
        let mut mint_wins = 0;
        let mut total = 0;
        let mut energy_ratios = Vec::new();
        for w in TABLE_III.iter() {
            let WorkloadShape::Matrix { rows: m, cols: k } = w.shape else {
                continue;
            };
            let mint = conversion_cost(
                &MatrixFormat::Csr,
                &MatrixFormat::Csc,
                m,
                k,
                w.nnz as u64,
                &engine,
            );
            let cpu_s = conversion_time(&cpu, w.nnz as u64, 3.0, 12.0);
            total += 1;
            if (mint.cycles as f64 / 1e9) < cpu_s {
                mint_wins += 1;
            }
            energy_ratios.push(cpu.energy(cpu_s) / mint.energy.max(1e-18));
        }
        assert!(mint_wins * 2 > total, "MINT won only {mint_wins}/{total}");
        let geo: f64 =
            energy_ratios.iter().map(|r| r.ln()).sum::<f64>() / energy_ratios.len() as f64;
        assert!(
            geo.exp() > 100.0,
            "energy improvement {} should be >> 100x",
            geo.exp()
        );
    }
}
