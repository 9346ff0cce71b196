//! The §VII-D convolutional-network case study plumbing.
//!
//! Each Fig. 14a layer becomes an im2col GEMM (`M = batch*H*W`,
//! `K = C*R*S`, `N = K_out`) whose operand densities come from the
//! published activation/weight sparsities. [`layer_edp`] evaluates one
//! layer under one pruning strategy for this work and every baseline.

use crate::system::FlexSystem;
use sparseflex_formats::DataType;
use sparseflex_sage::SageWorkload;

/// EDP results for one conv layer under one pruning strategy.
#[derive(Debug, Clone)]
pub struct LayerEdp {
    /// Layer id (1-8).
    pub layer_id: usize,
    /// GEMM dims after im2col.
    pub gemm_dims: (usize, usize, usize),
    /// This work's EDP (J*s).
    pub this_work: f64,
    /// `(class name, EDP)` for each Table II baseline that can run it.
    pub baselines: Vec<(&'static str, Option<f64>)>,
}

/// Evaluate one ResNet layer (as an im2col GEMM) under given densities.
///
/// `act_density` and `weight_density` are fractions of nonzeros; the
/// activation matrix streams (operand A), the weight matrix is stationary
/// (operand B) — matching the WS dataflow of §IV.
pub fn layer_edp(
    system: &FlexSystem,
    layer_id: usize,
    gemm_dims: (usize, usize, usize),
    act_density: f64,
    weight_density: f64,
) -> LayerEdp {
    let (m, k, n) = gemm_dims;
    let nnz_a = ((m as f64 * k as f64) * act_density).round().max(1.0) as u64;
    let nnz_b = ((k as f64 * n as f64) * weight_density).round().max(1.0) as u64;
    let w = SageWorkload::spgemm(m, k, n, nnz_a, nnz_b, DataType::Fp32);
    let clock = system.sage.accel.clock_hz;
    let ours = system.sage.recommend(&w).best.edp(clock);
    let baselines = system
        .compare_classes(&w)
        .into_iter()
        .filter(|c| c.class_name != "Flex_Flex_HW")
        .map(|c| (c.class_name, c.best.map(|b| b.edp(clock))))
        .collect();
    LayerEdp {
        layer_id,
        gemm_dims,
        this_work: ours,
        baselines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_workloads::{PruningStrategy, RESNET_LAYERS};

    #[test]
    fn layer8_global_prune_benefits_from_flexibility() {
        // Layer 8 under 70% global pruning is 98.4% weight-sparse: the
        // flexible system must beat the dense-only TPU class by a wide
        // margin.
        let sys = FlexSystem::default();
        let l = &RESNET_LAYERS[7];
        let s = PruningStrategy::GlobalPrune70;
        let r = layer_edp(
            &sys,
            l.id,
            l.gemm_dims(4), // small batch keeps the model fast
            l.act_density(s),
            l.weight_density(s),
        );
        let tpu = r
            .baselines
            .iter()
            .find(|(n, _)| *n == "Fix_Fix_None")
            .and_then(|(_, e)| *e)
            .expect("TPU class always evaluates");
        assert!(
            r.this_work < tpu * 0.8,
            "this work {} should clearly beat TPU {}",
            r.this_work,
            tpu
        );
    }

    #[test]
    fn every_layer_evaluates_under_every_strategy() {
        let sys = FlexSystem::default();
        for l in &RESNET_LAYERS {
            for s in PruningStrategy::all() {
                let r = layer_edp(
                    &sys,
                    l.id,
                    l.gemm_dims(1),
                    l.act_density(s),
                    l.weight_density(s),
                );
                assert!(r.this_work > 0.0, "layer {} strategy {:?}", l.id, s);
                for (name, edp) in &r.baselines {
                    if let Some(e) = edp {
                        assert!(
                            *e >= r.this_work * 0.999,
                            "layer {} {:?}: {name} beats this work",
                            l.id,
                            s
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparser_weights_reduce_our_edp() {
        // Fig. 14b: on late layers, global pruning (far sparser weights)
        // lowers EDP relative to the unpruned network.
        let sys = FlexSystem::default();
        let l = &RESNET_LAYERS[7];
        let normal = layer_edp(
            &sys,
            l.id,
            l.gemm_dims(4),
            l.act_density(PruningStrategy::Normal),
            l.weight_density(PruningStrategy::Normal),
        );
        let pruned = layer_edp(
            &sys,
            l.id,
            l.gemm_dims(4),
            l.act_density(PruningStrategy::GlobalPrune70),
            l.weight_density(PruningStrategy::GlobalPrune70),
        );
        assert!(
            pruned.this_work < normal.this_work,
            "pruned {} vs normal {}",
            pruned.this_work,
            normal.this_work
        );
    }
}
