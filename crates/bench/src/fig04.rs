//! Fig. 4 — relative DRAM-transfer energy of each MCF vs density,
//! dimensions, and datatype (normalized to CSR).

use sparseflex_accel::DramModel;
use sparseflex_formats::{DataType, MatrixFormat};

/// The format set of Fig. 4a's legend.
fn formats() -> [MatrixFormat; 6] {
    [
        MatrixFormat::Dense,
        MatrixFormat::Rlc { run_bits: 4 },
        MatrixFormat::Zvc,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
    ]
}

/// Fig. 4a: 11k x 11k matrix, density sweep 1e-8..1, per datatype.
/// Values are energy normalized to CSR at the same density.
fn part_a(dtype: DataType) -> Vec<String> {
    let dram = DramModel::paper();
    let (m, k) = (11_000usize, 11_000usize);
    let mut rows = vec![format!(
        "# fig4a dtype={dtype} matrix=11kx11k; energy normalized to CSR"
    )];
    let header: Vec<String> = formats().iter().map(|f| f.to_string()).collect();
    rows.push(format!("density,{}", header.join(",")));
    for i in 0..=32 {
        let dens = 10f64.powf(-8.0 + 8.0 * i as f64 / 32.0);
        let nnz = ((m as f64 * k as f64) * dens).round().max(1.0) as usize;
        let csr_e = dram.matrix_fetch_energy(&MatrixFormat::Csr, m, k, nnz, dtype);
        let cells: Vec<String> = formats()
            .iter()
            .map(|f| {
                let e = dram.matrix_fetch_energy(f, m, k, nnz, dtype);
                format!("{:.4}", e / csr_e)
            })
            .collect();
        rows.push(format!("{dens:.3e},{}", cells.join(",")));
    }
    rows
}

/// Fig. 4b: extremely sparse matrices, 16-bit elements, M = 1k, K sweep.
fn part_b(density: f64) -> Vec<String> {
    let dram = DramModel::paper();
    let dtype = DataType::Int16;
    let m = 1_000usize;
    let mut rows = vec![format!(
        "# fig4b dtype=int16 M=1k density={density}; energy normalized to CSR"
    )];
    let header: Vec<String> = formats().iter().map(|f| f.to_string()).collect();
    rows.push(format!("K,{}", header.join(",")));
    for k in [1_000usize, 10_000, 100_000, 1_000_000, 10_000_000] {
        let nnz = ((m as f64 * k as f64) * density).round().max(1.0) as usize;
        let csr_e = dram.matrix_fetch_energy(&MatrixFormat::Csr, m, k, nnz, dtype);
        let cells: Vec<String> = formats()
            .iter()
            .map(|f| {
                let e = dram.matrix_fetch_energy(f, m, k, nnz, dtype);
                format!("{:.4}", e / csr_e)
            })
            .collect();
        rows.push(format!("{k},{}", cells.join(",")));
    }
    rows
}

/// All Fig. 4 series.
pub fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for dtype in [DataType::Fp32, DataType::Int8] {
        out.extend(part_a(dtype));
        out.push(String::new());
    }
    for dens in [1e-5, 1e-2] {
        out.extend(part_b(dens));
        out.push(String::new());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(rows: &[String], header_contains: &str, line: usize) -> f64 {
        let hdr: Vec<&str> = rows[1].split(',').collect();
        let idx = hdr
            .iter()
            .position(|h| h.contains(header_contains))
            .unwrap();
        rows[line + 2].split(',').nth(idx).unwrap().parse().unwrap()
    }

    #[test]
    fn coo_below_csr_at_extreme_sparsity() {
        let rows = part_a(DataType::Fp32);
        // First density point (1e-8): COO must be < 1 (cheaper than CSR).
        assert!(col(&rows, "COO", 0) < 1.0);
        // Dense must be astronomically worse.
        assert!(col(&rows, "Dense", 0) > 100.0);
    }

    #[test]
    fn dense_at_or_below_csr_at_full_density() {
        let rows = part_a(DataType::Fp32);
        let last = rows.len() - 3; // last data line index into col()
        assert!(col(&rows, "Dense", last) <= 1.0);
    }

    #[test]
    fn rows_are_rectangular_csv() {
        let rows = rows();
        for r in rows.iter().filter(|r| !r.is_empty() && !r.starts_with('#')) {
            assert_eq!(r.split(',').count(), 7, "bad row: {r}");
        }
    }
}
