//! # sparseflex-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§VII). Each `fig*` / `table*` module exposes a
//! `rows()` function returning the CSV series the paper plots; the
//! binaries in `src/bin` print them, and `run_all` writes the complete
//! set to `results/`. The repository's performance benchmark is the
//! separate `sfbench` package.
//!
//! | module | paper exhibit |
//! |---|---|
//! | [`fig04`] | Fig. 4 — MCF compactness vs density / dims / datatype |
//! | [`fig05`] | Fig. 5 — GPU MM algorithms across density regions |
//! | [`fig05_measured`] | Fig. 5, measured — this workspace's kernels across density regions |
//! | [`fig06`] | Fig. 6 — ACF walkthrough cycle counts |
//! | [`fig07`] | Fig. 7b — extended-PE area overhead |
//! | [`fig09`] | Fig. 9 — prefix-sum design space |
//! | [`fig10`] | Fig. 10 — conversion time/energy: MKL vs cuSPARSE vs MINT |
//! | [`fig11`] | Fig. 11 — GPU transfer-to-compute ratios |
//! | [`fig12`] | Fig. 12 — per-workload cycles/energy/EDP breakdowns |
//! | [`fig13`] | Fig. 13 — normalized EDP vs accelerator classes |
//! | [`fig14`] | Fig. 14 — ResNet pruning case study |
//! | [`table1`] | Table I — MCF/ACF taxonomy |
//! | [`table2`] | Table II — evaluated accelerator configs |
//! | [`table3`] | Table III — workloads + SAGE format selections |
//! | [`ablation`] | ablations — structured SAGE, MINT merge levels, prefix-sum overlays, overlap |
//! | [`pipeline`] | tile-grained runtime — overlapped vs serial vs batched |
//! | [`calibration`] | online calibration — predicted-vs-measured cycle error per round |
//! | [`kernels`] | streaming kernels — zero-alloc steady state + stream overhead budget |
//!
//! [`allocs`] holds the counting allocator that `run_all`, `kernels_gate`
//! and the allocation tests install.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod allocs;
pub mod calibration;
pub mod fig04;
pub mod fig05;
pub mod fig05_measured;
pub mod fig06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod kernels;
pub mod pipeline;
pub mod table1;
pub mod table2;
pub mod table3;

/// Print rows to stdout (the shared binary body).
pub fn emit(rows: &[String]) {
    for r in rows {
        println!("{r}");
    }
}
