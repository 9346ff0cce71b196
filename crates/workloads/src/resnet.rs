//! The Fig. 14a ResNet-50 / CIFAR-10 convolution-layer case study.
//!
//! The paper trains ResNet-50 on CIFAR-10 and applies two L1 unstructured
//! pruning strategies ("50% per layer" and "70% global"); Fig. 14a
//! publishes the resulting per-layer input-activation and weight
//! sparsities, which is everything the EDP model consumes. We encode that
//! table verbatim and synthesize matching operands.

use sparseflex_kernels::ConvLayer;

/// Pruning strategy of the §VII-D case study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruningStrategy {
    /// Unpruned network (activation sparsity from ReLU only).
    Normal,
    /// L1 pruning of 50% of the weights in every layer (0.29% acc. loss).
    LayerPrune50,
    /// L1 pruning of 70% of the weights globally (0.74% acc. loss).
    GlobalPrune70,
}

impl PruningStrategy {
    /// All three strategies, in Fig. 14 order.
    pub const fn all() -> [PruningStrategy; 3] {
        [
            PruningStrategy::Normal,
            PruningStrategy::LayerPrune50,
            PruningStrategy::GlobalPrune70,
        ]
    }

    /// Short name for CSV output.
    pub const fn name(self) -> &'static str {
        match self {
            PruningStrategy::Normal => "normal",
            PruningStrategy::LayerPrune50 => "prune50_layer",
            PruningStrategy::GlobalPrune70 => "prune70_global",
        }
    }
}

/// One row of the Fig. 14a table. Sparsities are fractions of **zeros**
/// (the paper's percentages / 100).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResNetLayer {
    /// Layer id (1-8 as in Fig. 14a).
    pub id: usize,
    /// Convolution geometry.
    pub conv: ConvLayer,
    /// Input-activation sparsity per strategy `[normal, 50%, 70%]`.
    pub act_sparsity: [f64; 3],
    /// Weight sparsity per strategy `[normal, 50%, 70%]`.
    pub weight_sparsity: [f64; 3],
}

const fn conv(c: usize, k: usize, hw: usize, rs: usize) -> ConvLayer {
    ConvLayer {
        in_channels: c,
        out_channels: k,
        height: hw,
        width: hw,
        filter_h: rs,
        filter_w: rs,
        stride: 1,
        // Same-padding for 3x3 filters, none for 1x1 — keeps output H,W
        // equal to input H,W as ResNet blocks do.
        pad: if rs == 3 { 1 } else { 0 },
    }
}

/// The eight convolution layers of Fig. 14a.
pub const RESNET_LAYERS: [ResNetLayer; 8] = [
    ResNetLayer {
        id: 1,
        conv: conv(3, 64, 32, 3),
        act_sparsity: [0.0, 0.0, 0.0],
        weight_sparsity: [0.0, 0.500, 0.454],
    },
    ResNetLayer {
        id: 2,
        conv: conv(64, 256, 32, 1),
        act_sparsity: [0.566, 0.555, 0.550],
        weight_sparsity: [0.0, 0.500, 0.748],
    },
    ResNetLayer {
        id: 3,
        conv: conv(128, 512, 16, 1),
        act_sparsity: [0.631, 0.592, 0.604],
        weight_sparsity: [0.0, 0.500, 0.634],
    },
    ResNetLayer {
        id: 4,
        conv: conv(128, 128, 16, 3),
        act_sparsity: [0.526, 0.520, 0.523],
        weight_sparsity: [0.0, 0.500, 0.353],
    },
    ResNetLayer {
        id: 5,
        conv: conv(1024, 256, 8, 1),
        act_sparsity: [0.602, 0.570, 0.598],
        weight_sparsity: [0.0, 0.500, 0.499],
    },
    ResNetLayer {
        id: 6,
        conv: conv(256, 256, 8, 3),
        act_sparsity: [0.594, 0.565, 0.570],
        weight_sparsity: [0.0, 0.500, 0.383],
    },
    ResNetLayer {
        id: 7,
        conv: conv(512, 2048, 4, 1),
        act_sparsity: [0.640, 0.610, 0.410],
        weight_sparsity: [0.0, 0.500, 0.882],
    },
    ResNetLayer {
        id: 8,
        conv: conv(512, 512, 4, 3),
        act_sparsity: [0.492, 0.478, 0.436],
        weight_sparsity: [0.0, 0.500, 0.984],
    },
];

impl ResNetLayer {
    /// Index into the sparsity arrays for a strategy.
    fn sidx(strategy: PruningStrategy) -> usize {
        match strategy {
            PruningStrategy::Normal => 0,
            PruningStrategy::LayerPrune50 => 1,
            PruningStrategy::GlobalPrune70 => 2,
        }
    }

    /// Input-activation density (1 - sparsity) under a strategy.
    pub fn act_density(&self, strategy: PruningStrategy) -> f64 {
        1.0 - self.act_sparsity[Self::sidx(strategy)]
    }

    /// Weight density (1 - sparsity) under a strategy.
    pub fn weight_density(&self, strategy: PruningStrategy) -> f64 {
        1.0 - self.weight_sparsity[Self::sidx(strategy)]
    }

    /// im2col GEMM dims `(M, K, N)` for the given batch (the paper uses
    /// batch 64).
    pub fn gemm_dims(&self, batch: usize) -> (usize, usize, usize) {
        self.conv.gemm_dims(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_layers_with_paper_geometry() {
        assert_eq!(RESNET_LAYERS.len(), 8);
        let l7 = &RESNET_LAYERS[6];
        assert_eq!(l7.conv.in_channels, 512);
        assert_eq!(l7.conv.out_channels, 2048);
        assert_eq!(l7.conv.height, 4);
        assert_eq!(l7.conv.filter_h, 1);
    }

    #[test]
    fn layer_prune_is_uniform_half() {
        for l in &RESNET_LAYERS {
            assert_eq!(l.weight_sparsity[1], 0.5, "layer {} not 50% pruned", l.id);
        }
    }

    #[test]
    fn global_prune_concentrates_in_late_layers() {
        // Fig. 14a: "with global pruning, convolution layers 7 and 8 have
        // significantly higher weight sparsity than the other layers."
        let late_min = RESNET_LAYERS[6].weight_sparsity[2].min(RESNET_LAYERS[7].weight_sparsity[2]);
        for l in &RESNET_LAYERS[..6] {
            assert!(
                l.weight_sparsity[2] < late_min,
                "layer {} sparsity {} >= late-layer min {}",
                l.id,
                l.weight_sparsity[2],
                late_min
            );
        }
    }

    #[test]
    fn gemm_dims_scale_with_batch() {
        let l2 = &RESNET_LAYERS[1];
        let (m1, k, n) = l2.gemm_dims(1);
        let (m64, k64, n64) = l2.gemm_dims(64);
        assert_eq!(m64, 64 * m1);
        assert_eq!((k, n), (k64, n64));
        assert_eq!(k, 64); // C*R*S = 64*1*1
        assert_eq!(n, 256);
    }
}
