//! Network layers with single-sample forward inference.
//!
//! Weights are kept in the 2-D layout the paper's sparse encodings consume
//! (§3.2.1): convolution kernels `[out_ch, in_ch*kh*kw]` (the NVDLA-
//! compatible 2-D mapping of the 3-D filters) and linear weights
//! `[out, in]`.

use crate::gemm::{gemm_into, GemmScratch};
use crate::tensor::{conv_out_dims, im2col, im2col_into, Tensor};
use serde::{Deserialize, Serialize};

/// Reusable buffers for [`Layer::forward_batch_scratch`]. One instance per
/// worker keeps the whole batched forward pass allocation-free after
/// warm-up: the staging vectors grow to the largest layer once and are
/// reused by every subsequent layer and trial.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// GEMM packing buffers (see [`GemmScratch`]).
    pub gemm: GemmScratch,
    /// Right-hand-side staging: the `[k, n·p]` im2col / column-stacked
    /// input matrix of the current weight layer.
    pub cols: Vec<f32>,
    /// GEMM output staging (`[rows, n·p]`).
    pub out: Vec<f32>,
}

/// Geometry of the packed right-hand matrix built by
/// [`Layer::weight_rhs_into`]: the weight layer computes
/// `weight (rows×k) · rhs (k × n·per_cols)` and sample `s` owns output
/// columns `s·per_cols .. (s+1)·per_cols`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RhsMeta {
    /// Inner dimension (weight fan-in).
    pub k: usize,
    /// Output columns per sample (`out_h·out_w` for conv, 1 for linear).
    pub per_cols: usize,
    /// Output rows (out channels / neurons) — the weight matrix's rows.
    pub rows: usize,
    /// Shape of one sample's output tensor.
    pub out_sample_shape: Vec<usize>,
}

/// One layer of a [`Network`](crate::Network).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution. `weight` is `[out_ch, in_ch*kh*kw]`.
    Conv2d {
        /// Layer name (used to label weight matrices).
        name: String,
        /// Kernel matrix, `[out_ch, in_ch*kh*kw]`.
        weight: Tensor,
        /// Per-output-channel bias.
        bias: Vec<f32>,
        /// Input channels.
        in_ch: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride (same in both dimensions).
        stride: usize,
        /// Zero padding (same on all sides).
        pad: usize,
    },
    /// Fully connected layer. `weight` is `[out, in]`.
    Linear {
        /// Layer name.
        name: String,
        /// Weight matrix, `[out, in]`.
        weight: Tensor,
        /// Per-output bias.
        bias: Vec<f32>,
    },
    /// Rectified linear unit.
    ReLU,
    /// 2×2 max pooling with stride 2. Requires even spatial dimensions.
    MaxPool2,
    /// Global average pooling, `[c,h,w] -> [c]`.
    AvgPoolGlobal,
    /// Flattens `[c,h,w] -> [c*h*w]`.
    Flatten,
    /// Batch normalization (inference form, per-channel affine).
    BatchNorm2d {
        /// Scale per channel.
        gamma: Vec<f32>,
        /// Shift per channel.
        beta: Vec<f32>,
        /// Running mean per channel.
        mean: Vec<f32>,
        /// Running variance per channel.
        var: Vec<f32>,
    },
    /// Residual block: `out = body(x) + shortcut(x)` (empty shortcut =
    /// identity). Forward-only.
    Residual {
        /// Main path.
        body: Vec<Layer>,
        /// Shortcut path (empty = identity).
        shortcut: Vec<Layer>,
    },
}

impl Layer {
    /// Convenience constructor for a convolution with zero-initialized
    /// parameters.
    pub fn conv2d(
        name: &str,
        out_ch: usize,
        in_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        Layer::Conv2d {
            name: name.to_string(),
            weight: Tensor::zeros(&[out_ch, in_ch * k * k]),
            bias: vec![0.0; out_ch],
            in_ch,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Convenience constructor for a linear layer with zero-initialized
    /// parameters.
    pub fn linear(name: &str, out: usize, inp: usize) -> Self {
        Layer::Linear {
            name: name.to_string(),
            weight: Tensor::zeros(&[out, inp]),
            bias: vec![0.0; out],
        }
    }

    /// Runs the layer on a single sample.
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    // maxnvm-lint: allow(R1/index-arith): every flattening ((ci*h+y)*w+x, o*inp row spans) uses the dims the entry match destructured from the validated input shape, so products stay within data().len().
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d {
                weight,
                bias,
                in_ch,
                kh,
                kw,
                stride,
                pad,
                ..
            } => {
                assert_eq!(x.shape().len(), 3, "conv input must be [c,h,w]");
                assert_eq!(x.shape()[0], *in_ch, "conv input channels");
                let (cols, oh, ow) = im2col(x, *kh, *kw, *stride, *pad);
                let out_ch = weight.shape()[0];
                let k = weight.shape()[1];
                let mut out = vec![0.0f32; out_ch * oh * ow];
                gemm_into(
                    &mut out,
                    weight.data(),
                    cols.data(),
                    out_ch,
                    k,
                    oh * ow,
                    &mut GemmScratch::default(),
                );
                for (ci, row) in out.chunks_mut(oh * ow).enumerate() {
                    for v in row.iter_mut() {
                        *v += bias[ci];
                    }
                }
                Tensor::from_vec(&[out_ch, oh, ow], out)
            }
            Layer::Linear { weight, bias, .. } => {
                assert_eq!(x.shape().len(), 1, "linear input must be flat");
                let (out, inp) = (weight.shape()[0], weight.shape()[1]);
                assert_eq!(x.len(), inp, "linear input size");
                let mut y = vec![0.0f32; out];
                for (o, yo) in y.iter_mut().enumerate() {
                    let row = &weight.data()[o * inp..(o + 1) * inp];
                    // Fused dot so the single-sample path is bit-identical
                    // to the batched GEMM column (then + bias, as there).
                    *yo = bias[o] + crate::gemm::fused_dot(row, x.data());
                }
                Tensor::from_vec(&[out], y)
            }
            Layer::ReLU => {
                Tensor::from_vec(x.shape(), x.data().iter().map(|&v| v.max(0.0)).collect())
            }
            Layer::MaxPool2 => {
                assert_eq!(x.shape().len(), 3, "pool input must be [c,h,w]");
                let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                assert!(
                    h % 2 == 0 && w % 2 == 0,
                    "pool needs even dims, got {h}x{w}"
                );
                let (oh, ow) = (h / 2, w / 2);
                let mut out = vec![0.0f32; c * oh * ow];
                for ci in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut m = f32::NEG_INFINITY;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let v = x.data()[(ci * h + oy * 2 + dy) * w + ox * 2 + dx];
                                    m = m.max(v);
                                }
                            }
                            out[(ci * oh + oy) * ow + ox] = m;
                        }
                    }
                }
                Tensor::from_vec(&[c, oh, ow], out)
            }
            Layer::AvgPoolGlobal => {
                assert_eq!(x.shape().len(), 3, "pool input must be [c,h,w]");
                let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                let hw = (h * w) as f32;
                let out = (0..c)
                    .map(|ci| x.data()[ci * h * w..(ci + 1) * h * w].iter().sum::<f32>() / hw)
                    .collect();
                Tensor::from_vec(&[c], out)
            }
            Layer::Flatten => {
                let n = x.len();
                x.clone().reshape(&[n])
            }
            Layer::BatchNorm2d {
                gamma,
                beta,
                mean,
                var,
            } => {
                assert_eq!(x.shape().len(), 3, "batchnorm input must be [c,h,w]");
                let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
                assert_eq!(c, gamma.len(), "batchnorm channels");
                let mut out = x.data().to_vec();
                for ci in 0..c {
                    let inv = 1.0 / (var[ci] + 1e-5).sqrt();
                    for v in &mut out[ci * h * w..(ci + 1) * h * w] {
                        *v = gamma[ci] * (*v - mean[ci]) * inv + beta[ci];
                    }
                }
                Tensor::from_vec(x.shape(), out)
            }
            Layer::Residual { body, shortcut } => {
                let mut main = x.clone();
                for l in body {
                    main = l.forward(&main);
                }
                let mut sc = x.clone();
                for l in shortcut {
                    sc = l.forward(&sc);
                }
                assert_eq!(main.shape(), sc.shape(), "residual shape mismatch");
                let data = main
                    .data()
                    .iter()
                    .zip(sc.data())
                    .map(|(a, b)| a + b)
                    .collect();
                Tensor::from_vec(main.shape(), data)
            }
        }
    }

    /// Runs the layer on a batch of same-shaped samples, allocating a
    /// fresh scratch. See [`Self::forward_batch_scratch`].
    pub fn forward_batch(&self, xs: &[Tensor]) -> Vec<Tensor> {
        self.forward_batch_scratch(xs, &mut ForwardScratch::default())
    }

    /// Runs the layer on a batch of same-shaped samples, reusing the
    /// caller's staging buffers.
    ///
    /// Conv2d and Linear batch into a single matrix multiply (one GEMM
    /// per layer per trial instead of one per sample); other layers map
    /// [`Self::forward`] over the batch. Per-sample results are identical
    /// to [`Self::forward`]: each output element accumulates the same
    /// weight terms in the same ascending-k order, independent of the
    /// other columns (see [`crate::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape or any is incompatible
    /// with the layer.
    pub fn forward_batch_scratch(
        &self,
        xs: &[Tensor],
        scratch: &mut ForwardScratch,
    ) -> Vec<Tensor> {
        if xs.is_empty() {
            return Vec::new();
        }
        if let Some(meta) = self.weight_rhs_into(xs, &mut scratch.cols) {
            return self.forward_from_rhs(
                &scratch.cols,
                &meta,
                xs.len(),
                &mut scratch.out,
                &mut scratch.gemm,
            );
        }
        match self {
            Layer::Residual { body, shortcut } => {
                let mut main = xs.to_vec();
                for l in body {
                    main = l.forward_batch_scratch(&main, scratch);
                }
                let mut sc = xs.to_vec();
                for l in shortcut {
                    sc = l.forward_batch_scratch(&sc, scratch);
                }
                main.iter()
                    .zip(&sc)
                    .map(|(a, b)| {
                        assert_eq!(a.shape(), b.shape(), "residual shape mismatch");
                        let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
                        Tensor::from_vec(a.shape(), data)
                    })
                    .collect()
            }
            _ => xs.iter().map(|x| self.forward(x)).collect(),
        }
    }

    /// The weight matrix and bias of a Conv2d/Linear layer, `None` for
    /// every other layer kind.
    pub fn weight_bias(&self) -> Option<(&Tensor, &[f32])> {
        match self {
            Layer::Conv2d { weight, bias, .. } | Layer::Linear { weight, bias, .. } => {
                Some((weight, bias))
            }
            _ => None,
        }
    }

    /// Packs a batch of inputs into the `[k, n·per_cols]` right-hand
    /// matrix this weight layer multiplies (im2col patches unfolded side
    /// by side for Conv2d, column-stacked vectors for Linear), reusing
    /// the caller's buffer. Returns `None` (leaving `rhs` untouched) for
    /// layers without weights.
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape or are incompatible with
    /// the layer.
    // maxnvm-lint: allow(R1/index-arith): rhs is resized to k*n in this fn before the k*n+s writes; the row index is asserted < inp and s < n by the sample loop.
    pub fn weight_rhs_into(&self, xs: &[Tensor], rhs: &mut Vec<f32>) -> Option<RhsMeta> {
        let n = xs.len();
        match self {
            Layer::Conv2d {
                weight,
                in_ch,
                kh,
                kw,
                stride,
                pad,
                ..
            } => {
                let shape = xs[0].shape().to_vec();
                assert_eq!(shape.len(), 3, "conv input must be [c,h,w]");
                assert_eq!(shape[0], *in_ch, "conv input channels");
                let (c, h, w) = (shape[0], shape[1], shape[2]);
                let (oh, ow) = conv_out_dims(h, w, *kh, *kw, *stride, *pad);
                assert!(oh > 0 && ow > 0, "empty convolution output");
                let p = oh * ow;
                let k = c * kh * kw;
                rhs.clear();
                rhs.resize(k * n * p, 0.0);
                for (s, x) in xs.iter().enumerate() {
                    assert_eq!(x.shape(), &shape[..], "batch shapes must agree");
                    im2col_into(
                        x.data(),
                        c,
                        h,
                        w,
                        *kh,
                        *kw,
                        *stride,
                        *pad,
                        rhs,
                        n * p,
                        s * p,
                    );
                }
                Some(RhsMeta {
                    k,
                    per_cols: p,
                    rows: weight.shape()[0],
                    out_sample_shape: vec![weight.shape()[0], oh, ow],
                })
            }
            Layer::Linear { weight, .. } => {
                let (out_dim, inp) = (weight.shape()[0], weight.shape()[1]);
                rhs.clear();
                rhs.resize(inp * n, 0.0);
                for (s, x) in xs.iter().enumerate() {
                    assert_eq!(x.shape().len(), 1, "linear input must be flat");
                    assert_eq!(x.len(), inp, "linear input size");
                    for (k, &v) in x.data().iter().enumerate() {
                        rhs[k * n + s] = v;
                    }
                }
                Some(RhsMeta {
                    k: inp,
                    per_cols: 1,
                    rows: out_dim,
                    out_sample_shape: vec![out_dim],
                })
            }
            _ => None,
        }
    }

    /// Multiplies this weight layer against a packed right-hand matrix
    /// (from [`Self::weight_rhs_into`]) of `n` samples, adds the bias, and
    /// splits the result into per-sample tensors. `out` is staging for
    /// the GEMM result. Returns empty for layers without weights and for
    /// an empty batch.
    // maxnvm-lint: allow(R1/index-arith): out is sized rows*total from meta here, so o*total+s*p+p <= out.len() for every row o and sample s < n.
    pub fn forward_from_rhs(
        &self,
        rhs: &[f32],
        meta: &RhsMeta,
        n: usize,
        out: &mut Vec<f32>,
        gs: &mut GemmScratch,
    ) -> Vec<Tensor> {
        let Some((weight, bias)) = self.weight_bias() else {
            return Vec::new();
        };
        if n == 0 {
            return Vec::new();
        }
        let total = n * meta.per_cols;
        out.clear();
        out.resize(meta.rows * total, 0.0);
        gemm_into(out, weight.data(), rhs, meta.rows, meta.k, total, gs);
        for (o, row) in out.chunks_mut(total).enumerate() {
            for v in row.iter_mut() {
                *v += bias[o];
            }
        }
        let p = meta.per_cols;
        (0..n)
            .map(|s| {
                let mut data = vec![0.0f32; meta.rows * p];
                for (o, chunk) in data.chunks_mut(p).enumerate() {
                    chunk.copy_from_slice(&out[o * total + s * p..o * total + s * p + p]);
                }
                Tensor::from_vec(&meta.out_sample_shape, data)
            })
            .collect()
    }

    /// Number of stored weights (excluding biases and batch-norm
    /// parameters) — what the paper counts as DNN "parameters" for storage.
    pub fn weight_count(&self) -> usize {
        match self {
            Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => weight.len(),
            Layer::Residual { body, shortcut } => {
                body.iter().chain(shortcut).map(Layer::weight_count).sum()
            }
            _ => 0,
        }
    }

    /// Number of weight matrices this layer contributes to
    /// [`crate::Network::weight_matrices`] (recursing into residual
    /// blocks) — used to keep per-matrix side tables aligned with layer
    /// positions.
    pub fn weight_matrix_count(&self) -> usize {
        match self {
            Layer::Conv2d { .. } | Layer::Linear { .. } => 1,
            Layer::Residual { body, shortcut } => body
                .iter()
                .chain(shortcut)
                .map(Layer::weight_matrix_count)
                .sum(),
            _ => 0,
        }
    }

    /// Whether this layer participates in backprop training (residual and
    /// batch-norm layers are forward-only in this substrate).
    pub fn supports_backprop(&self) -> bool {
        !matches!(
            self,
            Layer::Residual { .. } | Layer::BatchNorm2d { .. } | Layer::AvgPoolGlobal
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -0.5]);
        let y = Layer::ReLU.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn linear_computes_affine() {
        let l = Layer::Linear {
            name: "fc".into(),
            weight: Tensor::from_vec(&[2, 3], vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]),
            bias: vec![1.0, -1.0],
        };
        let y = l.forward(&Tensor::from_vec(&[3], vec![2.0, 4.0, 6.0]));
        assert_eq!(y.data(), &[2.0 - 6.0 + 1.0, 6.0 - 1.0]);
    }

    #[test]
    fn conv_geometry_and_bias() {
        let mut l = Layer::conv2d("c1", 2, 1, 3, 1, 1);
        if let Layer::Conv2d { bias, .. } = &mut l {
            bias[1] = 5.0;
        }
        let y = l.forward(&Tensor::zeros(&[1, 8, 8]));
        assert_eq!(y.shape(), &[2, 8, 8]);
        // Zero weights: channel 0 all zero, channel 1 all bias.
        assert!(y.data()[..64].iter().all(|&v| v == 0.0));
        assert!(y.data()[64..].iter().all(|&v| v == 5.0));
    }

    #[test]
    fn maxpool_takes_window_max() {
        let x = Tensor::from_vec(&[1, 2, 4], vec![1.0, 2.0, 5.0, 0.0, 3.0, 4.0, -1.0, 6.0]);
        let y = Layer::MaxPool2.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[4.0, 6.0]);
    }

    #[test]
    fn global_avg_pool() {
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]);
        let y = Layer::AvgPoolGlobal.forward(&x);
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    fn flatten_reshapes() {
        let x = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(Layer::Flatten.forward(&x).shape(), &[24]);
    }

    #[test]
    fn batchnorm_normalizes_channel() {
        let l = Layer::BatchNorm2d {
            gamma: vec![2.0],
            beta: vec![1.0],
            mean: vec![3.0],
            var: vec![4.0],
        };
        let x = Tensor::from_vec(&[1, 1, 2], vec![3.0, 7.0]);
        let y = l.forward(&x);
        assert!((y.data()[0] - 1.0).abs() < 1e-4); // (3-3)/2*2+1
        assert!((y.data()[1] - 5.0).abs() < 1e-3); // (7-3)/2*2+1
    }

    #[test]
    fn residual_identity_shortcut_adds_input() {
        let block = Layer::Residual {
            body: vec![Layer::ReLU],
            shortcut: vec![],
        };
        let x = Tensor::from_vec(&[3], vec![-2.0, 0.0, 3.0]);
        let y = block.forward(&x);
        assert_eq!(y.data(), &[-2.0, 0.0, 6.0]);
    }

    #[test]
    fn weight_count_recurses_residual() {
        let block = Layer::Residual {
            body: vec![Layer::conv2d("a", 4, 4, 3, 1, 1), Layer::ReLU],
            shortcut: vec![Layer::conv2d("b", 4, 4, 1, 1, 0)],
        };
        assert_eq!(block.weight_count(), 4 * 4 * 9 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "even dims")]
    fn maxpool_rejects_odd_dims() {
        Layer::MaxPool2.forward(&Tensor::zeros(&[1, 3, 4]));
    }
}
