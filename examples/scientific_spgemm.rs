//! Scientific-computing workloads: run SAGE over the (synthetic stand-ins
//! for the) SuiteSparse matrices of Table III and print the chosen
//! formats plus the EDP advantage over each fixed-format accelerator.
//!
//! ```sh
//! cargo run --release --example scientific_spgemm
//! ```

use sparseflex::formats::DataType;
use sparseflex::sage::SageWorkload;
use sparseflex::system::FlexSystem;
use sparseflex::workloads::{WorkloadShape, TABLE_III};

fn main() {
    let system = FlexSystem::default();
    println!(
        "{:<14} {:>12} {:>10} {:<34} {:>12}",
        "workload", "density", "kernel", "SAGE choice", "worst base"
    );
    for spec in TABLE_III.iter().filter(|s| !s.is_tensor()) {
        let WorkloadShape::Matrix { rows: m, cols: k } = spec.shape else {
            continue;
        };
        let (fr, fc) = spec.factor_dims();
        let nnz_b = ((fr as f64 * fc as f64) * spec.density()).round().max(1.0) as u64;
        let w = SageWorkload::spgemm(m, k, fc, spec.nnz as u64, nnz_b, DataType::Fp32);
        let plan = system.sage.recommend(&w);
        let worst = system
            .normalized_edp(&w)
            .into_iter()
            .filter_map(|(_, n)| n)
            .fold(1.0f64, f64::max);
        println!(
            "{:<14} {:>11.4}% {:>10} {:<34} {:>11.1}x",
            spec.name,
            100.0 * spec.density(),
            "SpGEMM",
            plan.best.choice.to_string(),
            worst
        );
    }
    println!("\n'worst base' is the highest EDP any Table II fixed-format class pays,");
    println!("normalized to the flexible system — the Fig. 13 message in one column.");
}
