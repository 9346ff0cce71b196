//! Fig. 12 — cycles / energy / EDP breakdown of SpGEMM on journals,
//! speech2 and m3plates across the Table II accelerator classes.

use sparseflex_core::FlexSystem;
use sparseflex_formats::DataType;
use sparseflex_sage::SageWorkload;
use sparseflex_workloads::{WorkloadShape, WorkloadSpec};

/// Build the SpGEMM workload for a Table III matrix entry (factor
/// operand is K x M/2 at the same density, per §VII-A).
pub fn spgemm_workload(spec: &WorkloadSpec) -> SageWorkload {
    let WorkloadShape::Matrix { rows: m, cols: k } = spec.shape else {
        panic!("{} is not a matrix workload", spec.name)
    };
    let (fr, fc) = spec.factor_dims();
    let nnz_b = ((fr as f64 * fc as f64) * spec.density()).round().max(1.0) as u64;
    SageWorkload::spgemm(m, k, fc, spec.nnz as u64, nnz_b, DataType::Fp32)
}

/// The three Fig. 12 workloads.
pub const FIG12_WORKLOADS: [&str; 3] = ["journals", "speech2", "m3plates"];

/// Breakdown rows.
pub fn rows() -> Vec<String> {
    let sys = FlexSystem::default();
    let mut out = vec![
        "# fig12 SpGEMM breakdown across accelerator classes".to_string(),
        "workload,class,choice,dram_cycles,conv_cycles,compute_cycles,total_cycles,dram_J,conv_J,compute_J,total_J,edp_Js"
            .to_string(),
    ];
    for name in FIG12_WORKLOADS {
        let spec = WorkloadSpec::by_name(name).expect("known workload");
        let w = spgemm_workload(spec);
        for cmp in sys.compare_classes(&w) {
            match cmp.best {
                Some(e) => out.push(format!(
                    "{name},{},{},{:.3e},{:.3e},{:.3e},{:.3e},{:.3e},{:.3e},{:.3e},{:.3e},{:.3e}",
                    cmp.class_name,
                    e.choice,
                    e.dram_cycles,
                    e.conv_cycles,
                    e.compute_cycles,
                    e.total_cycles(),
                    e.dram_energy,
                    e.conv_energy,
                    e.compute_energy,
                    e.total_energy(),
                    e.edp(sys.sage.accel.clock_hz)
                )),
                None => out.push(format!("{name},{},unsupported,,,,,,,,,", cmp.class_name)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::MatrixFormat;

    #[test]
    fn journals_dense_acf_beats_fix_fix_none2() {
        // Fig. 12a: "journals is relatively dense, so an ACF of
        // Dense(A)-Dense(B) is better than Dense(A)-CSR(B)" — the EIE
        // class must lose to this work on journals.
        let sys = FlexSystem::default();
        let w = spgemm_workload(WorkloadSpec::by_name("journals").unwrap());
        let rows = sys.compare_classes(&w);
        let ours = rows
            .iter()
            .find(|c| c.class_name == "Flex_Flex_HW")
            .and_then(|c| c.best.clone())
            .unwrap();
        let eie = rows
            .iter()
            .find(|c| c.class_name == "Fix_Fix_None2")
            .and_then(|c| c.best.clone())
            .unwrap();
        let clock = sys.sage.accel.clock_hz;
        assert!(ours.edp(clock) < eie.edp(clock));
        // And our choice computes B densely.
        assert_eq!(ours.choice.acf_b, MatrixFormat::Dense, "{}", ours.choice);
    }

    #[test]
    fn m3plates_sparse_acf_wins() {
        // Fig. 12c: "since m3plates is extremely sparse, any ACF with
        // dense format will lead to poor compute efficiency."
        let sys = FlexSystem::default();
        let w = spgemm_workload(WorkloadSpec::by_name("m3plates").unwrap());
        let ours = sys.sage.recommend(&w).best;
        assert_ne!(ours.choice.acf_a, MatrixFormat::Dense, "{}", ours.choice);
        assert_ne!(ours.choice.acf_b, MatrixFormat::Dense, "{}", ours.choice);
    }
}
