//! Fig. 14 — the ResNet-50/CIFAR-10 pruning case study: per-layer EDP
//! under three pruning strategies, and the average EDP of this work
//! against every baseline class.

use sparseflex_core::{layer_edp, FlexSystem};
use sparseflex_host::offload::geomean;
use sparseflex_workloads::{PruningStrategy, RESNET_LAYERS};
use std::collections::BTreeMap;

/// Batch size of the §VII-D evaluation.
const BATCH: usize = 64;

/// Per-layer, per-strategy EDP rows plus baseline averages.
pub fn rows() -> Vec<String> {
    let sys = FlexSystem::default();
    let mut out = vec![
        format!("# fig14 ResNet-50/CIFAR-10 case study, batch {BATCH}"),
        "strategy,layer,M,K,N,this_work_edp_Js".to_string(),
    ];
    let mut class_ratios: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for strategy in PruningStrategy::all() {
        for layer in &RESNET_LAYERS {
            let r = layer_edp(
                &sys,
                layer.id,
                layer.gemm_dims(BATCH),
                layer.act_density(strategy),
                layer.weight_density(strategy),
            );
            let (m, k, n) = r.gemm_dims;
            out.push(format!(
                "{},{},{m},{k},{n},{:.4e}",
                strategy.name(),
                layer.id,
                r.this_work
            ));
            for (class, edp) in &r.baselines {
                if let Some(e) = edp {
                    class_ratios.entry(class).or_default().push(e / r.this_work);
                }
            }
        }
    }
    out.push(String::new());
    out.push(
        "# fig14c: baseline EDP relative to this work (geomean over layers & strategies)"
            .to_string(),
    );
    out.push("class,edp_vs_this_work".to_string());
    for (class, vals) in class_ratios {
        out.push(format!("{class},{:.3}", geomean(&vals)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_average_materially_worse() {
        // Fig. 14c: "we observe on average ~70% EDP reduction across all
        // baselines" — i.e. baselines sit well above 1x our EDP.
        let rows = rows();
        let start = rows.iter().position(|r| r.starts_with("class,")).unwrap();
        let mut worse = 0;
        let mut total = 0;
        for line in &rows[start + 1..] {
            let ratio: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!(ratio >= 0.999, "baseline beat us: {line}");
            total += 1;
            if ratio > 1.2 {
                worse += 1;
            }
        }
        assert!(
            worse * 2 >= total,
            "only {worse}/{total} baselines >20% worse"
        );
    }
}
