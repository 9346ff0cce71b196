//! The deterministic modeled metrics: accelerator cycles per job and the
//! paper's hardware-vs-software conversion speedup, over a workload's
//! distinct SpGEMM jobs. Both depend only on the generated operands.

use crate::gen::bench_system;
use crate::util::{geomean, mean};
use sparseflex_formats::{CooMatrix, DataType, SparseMatrix};
use sparseflex_sage::SageWorkload;

pub struct Modeled {
    /// Mean `PipelineRun::overlapped_cycles()` over the jobs.
    pub sim_cycles_per_job: f64,
    /// Geomean over the jobs of best `Flex_Flex_SW` ÷ best `Flex_Flex_HW`
    /// total cycles.
    pub speedup_vs_sw_conv: f64,
    /// Per job: the dataflow, tile count and format choice SAGE made.
    pub plans: Vec<String>,
}

pub fn spgemm_workload(a: &CooMatrix, b: &CooMatrix) -> SageWorkload {
    SageWorkload::spgemm(
        a.rows(),
        a.cols(),
        b.cols(),
        a.nnz() as u64,
        b.nnz() as u64,
        DataType::Fp32,
    )
}

pub fn modeled(jobs: &[(&CooMatrix, &CooMatrix)]) -> Result<Modeled, String> {
    let sys = bench_system();
    let mut cycles = Vec::with_capacity(jobs.len());
    let mut speedups = Vec::with_capacity(jobs.len());
    let mut plans = Vec::with_capacity(jobs.len());
    for (a, b) in jobs {
        let w = spgemm_workload(a, b);
        let run = sys
            .run_pipelined(a, b, &w)
            .map_err(|e| format!("modeled run failed: {e}"))?;
        cycles.push(run.overlapped_cycles() as f64);
        plans.push(format!(
            "{:?}, {} tiles, {}",
            run.plan.dataflow,
            run.tiles.len(),
            run.evaluation().choice
        ));
        let classes = sys.compare_classes(&w);
        let best = |name: &str| {
            classes
                .iter()
                .find(|c| c.class_name == name)
                .and_then(|c| c.best.as_ref())
                .map(|e| e.total_cycles())
        };
        match (best("Flex_Flex_SW"), best("Flex_Flex_HW")) {
            (Some(sw), Some(hw)) if hw > 0.0 => speedups.push(sw / hw),
            _ => return Err("class comparison lacks Flex_Flex_SW or Flex_Flex_HW".into()),
        }
    }
    Ok(Modeled {
        sim_cycles_per_job: mean(&cycles),
        speedup_vs_sw_conv: geomean(&speedups),
        plans,
    })
}
