//! im2col: convolution → GEMM rearrangement.
//!
//! "Like TPU, we use im2col to convert convolutions to GEMM operations"
//! (§VII-D). A convolution of a `C x H x W` input with `K` filters of
//! shape `C x R x S` becomes a GEMM of `(P) x (C*R*S)` by
//! `(C*R*S) x K`, where `P` is the number of output positions.

use sparseflex_formats::{DenseMatrix, DenseTensor3, SparseTensor3};

/// Specification of one convolution layer (matching the columns of the
/// paper's Fig. 14a table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayer {
    /// Input channels `C`.
    pub in_channels: usize,
    /// Output channels `K`.
    pub out_channels: usize,
    /// Input activation height `H`.
    pub height: usize,
    /// Input activation width `W`.
    pub width: usize,
    /// Filter height `R`.
    pub filter_h: usize,
    /// Filter width `S`.
    pub filter_w: usize,
    /// Stride (the paper's case study uses stride 1 throughout).
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl ConvLayer {
    /// Output spatial dims `(out_h, out_w)`.
    fn out_dims(&self) -> (usize, usize) {
        let oh = (self.height + 2 * self.pad - self.filter_h) / self.stride + 1;
        let ow = (self.width + 2 * self.pad - self.filter_w) / self.stride + 1;
        (oh, ow)
    }

    /// GEMM dimensions `(M, K, N)` after im2col with the given batch:
    /// `M = batch * out_h * out_w`, `K = C*R*S`, `N = out_channels`.
    pub fn gemm_dims(&self, batch: usize) -> (usize, usize, usize) {
        let (oh, ow) = self.out_dims();
        (
            batch * oh * ow,
            self.in_channels * self.filter_h * self.filter_w,
            self.out_channels,
        )
    }
}

/// Lower one input activation tensor (`C x H x W`, dense) to the im2col
/// matrix of shape `(out_h*out_w) x (C*R*S)`.
///
/// Column ordering is channel-major then filter-row then filter-col,
/// matching the weight matrix layout produced by flattening each filter.
pub fn im2col(input: &DenseTensor3, layer: &ConvLayer) -> DenseMatrix {
    assert_eq!(input.dim_x(), layer.in_channels, "channel count mismatch");
    assert_eq!(input.dim_y(), layer.height, "height mismatch");
    assert_eq!(input.dim_z(), layer.width, "width mismatch");
    let (oh, ow) = layer.out_dims();
    let kdim = layer.in_channels * layer.filter_h * layer.filter_w;
    let mut out = DenseMatrix::zeros(oh * ow, kdim);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let mut col = 0;
            for c in 0..layer.in_channels {
                for fy in 0..layer.filter_h {
                    for fx in 0..layer.filter_w {
                        let iy = oy * layer.stride + fy;
                        let ix = ox * layer.stride + fx;
                        // Padding: coordinates are offset by `pad`; any
                        // position falling outside the input reads zero.
                        let v = if iy >= layer.pad
                            && ix >= layer.pad
                            && iy - layer.pad < layer.height
                            && ix - layer.pad < layer.width
                        {
                            input.get(c, iy - layer.pad, ix - layer.pad)
                        } else {
                            0.0
                        };
                        out.set(row, col, v);
                        col += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use sparseflex_formats::SparseMatrix;

    fn layer() -> ConvLayer {
        ConvLayer {
            in_channels: 3,
            out_channels: 4,
            height: 6,
            width: 6,
            filter_h: 3,
            filter_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    fn input(layer: &ConvLayer) -> DenseTensor3 {
        let mut t = DenseTensor3::zeros(layer.in_channels, layer.height, layer.width);
        let mut v = 1.0;
        for c in 0..layer.in_channels {
            for y in 0..layer.height {
                for x in 0..layer.width {
                    if (c + y + x) % 3 == 0 {
                        t.set(c, y, x, v);
                        v += 1.0;
                    }
                }
            }
        }
        t
    }

    /// Direct (sliding window) convolution used as the im2col test oracle.
    /// Returns a `K x out_h x out_w` tensor.
    fn conv2d_direct(
        input: &DenseTensor3,
        weights: &DenseMatrix, // K x (C*R*S), each row a flattened filter
        layer: &ConvLayer,
    ) -> DenseTensor3 {
        let (oh, ow) = layer.out_dims();
        let mut out = DenseTensor3::zeros(layer.out_channels, oh, ow);
        for k in 0..layer.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    let mut wi = 0;
                    for c in 0..layer.in_channels {
                        for fy in 0..layer.filter_h {
                            for fx in 0..layer.filter_w {
                                let iy = oy * layer.stride + fy;
                                let ix = ox * layer.stride + fx;
                                if iy >= layer.pad
                                    && ix >= layer.pad
                                    && iy - layer.pad < layer.height
                                    && ix - layer.pad < layer.width
                                {
                                    acc += input.get(c, iy - layer.pad, ix - layer.pad)
                                        * weights.get(k, wi);
                                }
                                wi += 1;
                            }
                        }
                    }
                    out.set(k, oy, ox, acc);
                }
            }
        }
        out
    }

    #[test]
    fn out_dims_with_padding() {
        let l = layer();
        assert_eq!(l.out_dims(), (6, 6)); // same-padding 3x3 stride 1
        let l2 = ConvLayer { pad: 0, ..l };
        assert_eq!(l2.out_dims(), (4, 4));
        let l3 = ConvLayer {
            stride: 2,
            pad: 0,
            ..l
        };
        assert_eq!(l3.out_dims(), (2, 2));
    }

    #[test]
    fn gemm_dims_match_paper_shapes() {
        // Fig. 14a layer 2: C=64, K=256, H=W=32, R=S=1 -> per-image GEMM
        // M = 1024, K = 64, N = 256; batch 64 multiplies M.
        let l = ConvLayer {
            in_channels: 64,
            out_channels: 256,
            height: 32,
            width: 32,
            filter_h: 1,
            filter_w: 1,
            stride: 1,
            pad: 0,
        };
        assert_eq!(l.gemm_dims(64), (64 * 32 * 32, 64, 256));
    }

    #[test]
    fn im2col_gemm_equals_direct_convolution() {
        let l = layer();
        let inp = input(&l);
        // Weights: K x (C*R*S) with a deterministic pattern.
        let kdim = l.in_channels * l.filter_h * l.filter_w;
        let wdata: Vec<f64> = (0..l.out_channels * kdim)
            .map(|i| ((i % 5) as f64) - 2.0)
            .collect();
        let weights = DenseMatrix::from_vec(l.out_channels, kdim, wdata).unwrap();

        let cols = im2col(&inp, &l);
        // GEMM: (P x K) * (K x Kout) where weightsᵀ is K x Kout.
        let o = gemm(&cols, &weights.transpose());
        let direct = conv2d_direct(&inp, &weights, &l);

        let (oh, ow) = l.out_dims();
        for k in 0..l.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    assert_eq!(
                        o.get(oy * ow + ox, k),
                        direct.get(k, oy, ox),
                        "mismatch at k={k} oy={oy} ox={ox}"
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_unpadded() {
        let l = ConvLayer { pad: 0, ..layer() };
        let inp = input(&l);
        let cols = im2col(&inp, &l);
        assert_eq!(cols.rows(), 16);
        assert_eq!(cols.cols(), 27);
    }

    #[test]
    #[should_panic(expected = "channel count")]
    fn wrong_input_shape_panics() {
        let l = layer();
        let _ = im2col(&DenseTensor3::zeros(2, 6, 6), &l);
    }
}
