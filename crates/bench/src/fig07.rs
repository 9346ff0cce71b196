//! Fig. 7b — area overhead of the extended (flexible-ACF) PE over the
//! base PE.

use sparseflex_accel::area::AreaModel;

/// Overhead rows across buffer sizes and vector widths.
pub fn rows() -> Vec<String> {
    let a = AreaModel::default_28nm();
    let mut out = vec![
        "# fig7b extended-PE overhead (paper: ~10% for 8 lanes, 128B buffer)".to_string(),
        "vector_width,buffer_bytes,base_mm2,extended_mm2,overhead_pct".to_string(),
    ];
    for vw in [4usize, 8, 16] {
        for buf in [128u64, 256, 512] {
            let base = a.base_pe_mm2(vw, buf);
            let ext = a.extended_pe_mm2(vw, buf);
            out.push(format!(
                "{vw},{buf},{base:.6},{ext:.6},{:.2}",
                100.0 * a.extension_overhead(vw, buf)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_point_is_near_ten_percent() {
        let rows = super::rows();
        let line = rows.iter().find(|l| l.starts_with("8,128,")).unwrap();
        let pct: f64 = line.split(',').next_back().unwrap().parse().unwrap();
        assert!((5.0..15.0).contains(&pct), "overhead {pct}%");
    }
}
