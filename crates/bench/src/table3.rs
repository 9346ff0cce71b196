//! Table III — the workload suite with SAGE's MCF/ACF selections, in
//! both scenarios the paper tabulates: free MCF choice (left block) and
//! programmer-pinned MCF with dense factor (right block, where the
//! factor matrix arrives dense).

use crate::fig12::spgemm_workload;
use crate::fig13::spmm_workload;
use sparseflex_core::FlexSystem;
use sparseflex_formats::DataType;
use sparseflex_sage::TensorWorkload;
use sparseflex_workloads::{WorkloadShape, TABLE_III};

/// Table rows: characteristics + SAGE selections per kernel.
pub fn rows() -> Vec<String> {
    let sys = FlexSystem::default();
    let mut out = vec![
        "# table3 workloads and SAGE-selected formats".to_string(),
        "workload,shape,nnz,density_pct,kernel,mcf_a,mcf_b,acf_a,acf_b".to_string(),
    ];
    for spec in TABLE_III.iter() {
        let shape = match spec.shape {
            WorkloadShape::Matrix { rows, cols } => format!("{rows}x{cols}"),
            WorkloadShape::Tensor { x, y, z } => format!("{x}x{y}x{z}"),
        };
        let dens = spec.density() * 100.0;
        if spec.is_tensor() {
            let WorkloadShape::Tensor { x, y, z } = spec.shape else {
                unreachable!()
            };
            for (kname, mttkrp) in [("SpTTM", false), ("MTTKRP", true)] {
                let w = TensorWorkload {
                    mttkrp,
                    dims: (x, y, z),
                    nnz: spec.nnz as u64,
                    rank: (x / 2).max(1),
                    dtype: DataType::Fp32,
                };
                let rec = sys.sage.recommend_tensor(&w);
                out.push(format!(
                    "{},{shape},{},{dens:.4},{kname},{},Dense,{},Dense",
                    spec.name, spec.nnz, rec.choice.mcf_t, rec.choice.acf_t
                ));
            }
        } else {
            for (kname, w) in [
                ("SpGEMM", spgemm_workload(spec)),
                ("SpMM", spmm_workload(spec)),
            ] {
                let rec = sys.sage.recommend(&w);
                let c = &rec.best.choice;
                out.push(format!(
                    "{},{shape},{},{dens:.4},{kname},{},{},{},{}",
                    spec.name, spec.nnz, c.mcf_a, c.mcf_b, c.acf_a, c.acf_b
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selections() -> Vec<(String, String, Vec<String>)> {
        rows()[2..]
            .iter()
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (
                    f[0].to_string(),
                    f[4].to_string(),
                    f[5..].iter().map(|s| s.to_string()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn every_workload_gets_both_kernels() {
        let s = selections();
        assert_eq!(s.len(), 13 * 2);
    }

    #[test]
    fn extreme_sparse_workloads_avoid_dense_mcf_for_a() {
        // m3plates (0.0054%) and Uber (0.039%): the sparse operand's MCF
        // must be compressed, matching Table III (COO in the paper).
        for (name, _, sel) in selections() {
            if name == "m3plates" || name == "Uber" {
                assert_ne!(
                    sel[0], "Dense",
                    "{name} picked Dense MCF for the sparse operand"
                );
            }
        }
    }

    #[test]
    fn spmm_dense_factor_computes_dense() {
        // SpMM factor matrices are fully dense: storing or computing
        // them compressed can only add metadata, matching the paper's
        // MCFf = Dense / ACFf = Dense column for SpMM.
        for (name, kernel, sel) in selections() {
            if kernel == "SpMM" {
                assert_eq!(sel[1], "Dense", "{name} SpMM MCF_B");
                assert_eq!(sel[3], "Dense", "{name} SpMM ACF_B");
            }
        }
    }
}
