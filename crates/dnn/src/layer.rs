//! Network layers: a single-sample forward (training, per-sample
//! inference) and a batched forward.
//!
//! Weights are kept in the 2-D layout the paper's sparse encodings consume
//! (§3.2.1): convolution kernels `[out_ch, in_ch*kh*kw]` (the NVDLA-
//! compatible 2-D mapping of the 3-D filters) and linear weights
//! `[out, in]`.
//!
//! The batched forward ([`Layer::forward_batch_in_place`]) runs on one
//! [`Batch`] buffer per layer, laid out `[c][h][w][n]`, sample innermost.
//! Conv2d multiplies through the blocked GEMM, whose packing step gathers
//! each strip straight from the buffer ([`crate::tensor`]); Linear
//! multiplies the buffer as it stands; Flatten only relabels it; ReLU
//! runs in place; MaxPool2 takes maxima over contiguous runs of samples.
//! None of these builds an im2col matrix or a per-sample tensor. Every
//! output element is the same ascending-k fused chain as on the
//! single-sample path, which keeps im2col for training's weight gradient,
//! so the two paths give the same bits (DESIGN.md §9).

use crate::gemm::{fused_dot, gemm_into, gemm_packed, gemm_row_into, GemmScratch};
use crate::tensor::{conv_row_into, im2col_into, Batch, BatchPatches, ConvGeometry, Tensor};

/// Reusable buffers for the batched forward
/// ([`Layer::forward_batch_in_place`]). One instance per worker keeps the
/// whole pass allocation-free after warm-up: the buffers grow to the
/// largest layer once and are reused by every later layer and trial.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// GEMM packing buffers (see [`GemmScratch`]).
    pub(crate) gemm: GemmScratch,
    /// The other activation buffer: a layer that cannot run in place
    /// writes its output here, then swaps it with its input.
    spare: Batch,
}

/// One layer's output on one sample, in buffers reused from sample to
/// sample (see [`Layer::forward_into`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Activation {
    /// Row-major values.
    pub(crate) data: Vec<f32>,
    /// Shape of `data`.
    pub(crate) shape: Vec<usize>,
    /// Conv2d only: the `[in_ch·kh·kw, out_h·out_w]` im2col of the
    /// layer's input, the matrix the convolution multiplied.
    pub(crate) cols: Vec<f32>,
}

/// One layer of a [`Network`](crate::Network).
#[derive(Debug, Clone, PartialEq)]
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
    /// Flattens `[c,h,w] -> [c*h*w]`.
    Flatten,
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
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut out = Activation::default();
        self.forward_into(x.data(), x.shape(), &mut out, &mut GemmScratch::default());
        Tensor::from_parts(out.shape, out.data)
    }

    /// Runs the layer on one sample `x` of shape `shape`, into `out`'s
    /// reused buffers; a Conv2d layer also leaves its input's im2col in
    /// `out.cols`, which training multiplies again for the weight
    /// gradient. This is the single-sample forward of [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if the input shape is incompatible with the layer.
    // The pool's flattening (ci*h+y)*w+x uses the dims destructured from
    // the shape asserted [c,h,w] with even h and w, so every tap lies
    // inside x.
    pub(crate) fn forward_into(
        &self,
        x: &[f32],
        shape: &[usize],
        out: &mut Activation,
        gs: &mut GemmScratch,
    ) {
        let mut set_shape = |dims: &[usize]| {
            out.shape.clear();
            out.shape.extend_from_slice(dims);
        };
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
                let g = conv_geometry(shape, *in_ch, *kh, *kw, *stride, *pad);
                let (oh, ow) = g.out_dims();
                let (out_ch, k, p) = (weight.shape()[0], weight.shape()[1], oh * ow);
                out.cols.clear();
                out.cols.resize(k * p, 0.0);
                im2col_into(x, &g, &mut out.cols);
                out.data.resize(out_ch * p, 0.0);
                gemm_into(&mut out.data, weight.data(), &out.cols, out_ch, k, p, gs);
                for (row, b) in out.data.chunks_mut(p).zip(bias) {
                    for v in row {
                        *v += b;
                    }
                }
                set_shape(&[out_ch, oh, ow]);
            }
            Layer::Linear { weight, bias, .. } => {
                assert_eq!(shape.len(), 1, "linear input must be flat");
                let inp = weight.shape()[1];
                assert_eq!(x.len(), inp, "linear input size");
                out.data.clear();
                // Fused dot so the single-sample path is bit-identical to
                // the batched GEMM column (then + bias, as there).
                out.data.extend(
                    weight
                        .data()
                        .chunks_exact(inp)
                        .zip(bias)
                        .map(|(row, b)| b + fused_dot(row, x)),
                );
                set_shape(&[bias.len()]);
            }
            Layer::ReLU => {
                out.data.clear();
                out.data.extend(x.iter().map(|&v| v.max(0.0)));
                set_shape(shape);
            }
            Layer::MaxPool2 => {
                assert_eq!(shape.len(), 3, "pool input must be [c,h,w]");
                let (c, h, w) = (shape[0], shape[1], shape[2]);
                assert!(
                    h % 2 == 0 && w % 2 == 0,
                    "pool needs even dims, got {h}x{w}"
                );
                assert_eq!(x.len(), c * h * w, "pool input length");
                out.data.clear();
                out.data.reserve(c * (h / 2) * (w / 2));
                for ci in 0..c {
                    for oy in 0..h / 2 {
                        for ox in 0..w / 2 {
                            let mut m = f32::NEG_INFINITY;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    m = m.max(x[(ci * h + oy * 2 + dy) * w + ox * 2 + dx]);
                                }
                            }
                            out.data.push(m);
                        }
                    }
                }
                set_shape(&[c, h / 2, w / 2]);
            }
            Layer::Flatten => {
                out.data.clear();
                out.data.extend_from_slice(x);
                set_shape(&[x.len()]);
            }
        }
    }

    /// Runs the layer on a batch of same-shaped samples through
    /// [`Self::forward_batch_in_place`], converting to and from the
    /// sample-innermost layout at the boundary. Per-sample results equal
    /// [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape or any is incompatible
    /// with the layer.
    pub fn forward_batch(&self, xs: &[Tensor]) -> Vec<Tensor> {
        let mut x = Batch::from_samples(xs);
        self.forward_batch_in_place(&mut x, &mut ForwardScratch::default());
        x.to_samples()
    }

    /// Runs the layer on the batch `x`, leaving its output in `x`.
    ///
    /// Conv2d and Linear are one GEMM over the whole batch, with the
    /// bias added after it; ReLU, MaxPool2 and Flatten work on the buffer
    /// as it stands. Each sample's outputs are bit-identical to
    /// [`Self::forward`]: every output element accumulates the same
    /// weight terms in the same ascending-k order, independent of the
    /// other columns (see [`crate::gemm`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch is incompatible with the layer.
    pub fn forward_batch_in_place(&self, x: &mut Batch, scratch: &mut ForwardScratch) {
        if x.is_empty() {
            return;
        }
        match self {
            Layer::ReLU => {
                for v in x.data_mut() {
                    *v = v.max(0.0);
                }
            }
            Layer::Flatten => {
                let len = x.sample_shape().iter().product::<usize>();
                x.set_shape(&[len]);
            }
            Layer::Conv2d { .. } | Layer::Linear { .. } | Layer::MaxPool2 => {
                self.forward_batch_into(x, &mut scratch.spare, &mut scratch.gemm);
                std::mem::swap(x, &mut scratch.spare);
            }
        }
    }

    /// The Conv2d, Linear and MaxPool2 arms of
    /// [`Self::forward_batch_in_place`], which cannot run in place: writes
    /// the output of the non-empty batch `x` into `out`. Other layer
    /// kinds leave `out` untouched.
    ///
    /// # Panics
    ///
    /// Panics if the batch is incompatible with the layer.
    // Every index stays inside the [c][h][w][n] input and the output that
    // `reset` sized from the same dims: the pool reads the 2x2 window of
    // an output pixel, rows of n samples apiece.
    pub(crate) fn forward_batch_into(&self, x: &Batch, out: &mut Batch, gs: &mut GemmScratch) {
        let n = x.len();
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
                let g = conv_geometry(x.sample_shape(), *in_ch, *kh, *kw, *stride, *pad);
                let (oh, ow) = g.out_dims();
                assert!(oh > 0 && ow > 0, "empty convolution output");
                let (out_ch, k) = (weight.shape()[0], weight.shape()[1]);
                let dst = out.reset(&[out_ch, oh, ow], n);
                let patches = BatchPatches { x: x.data(), g, n };
                gemm_packed(dst, weight.data(), &patches, out_ch, k, oh * ow * n, gs);
                add_bias(dst, bias);
            }
            Layer::Linear { weight, bias, .. } => {
                let (out_dim, inp) = (weight.shape()[0], weight.shape()[1]);
                assert_eq!(x.sample_shape().len(), 1, "linear input must be flat");
                assert_eq!(x.sample_shape()[0], inp, "linear input size");
                let dst = out.reset(&[out_dim], n);
                gemm_into(dst, weight.data(), x.data(), out_dim, inp, n, gs);
                add_bias(dst, bias);
            }
            Layer::MaxPool2 => {
                let (c, h, w) = chw(x.sample_shape(), "pool");
                assert!(
                    h % 2 == 0 && w % 2 == 0,
                    "pool needs even dims, got {h}x{w}"
                );
                let (oh, ow) = (h / 2, w / 2);
                let src = x.data();
                let mut runs = out.reset(&[c, oh, ow], n).chunks_exact_mut(n);
                for ci in 0..c {
                    for oy in 0..oh {
                        for (ox, run) in (0..ow).zip(&mut runs) {
                            let top = ((ci * h + 2 * oy) * w + 2 * ox) * n;
                            let bottom = top + w * n;
                            let [tl, tr, bl, br] =
                                [top, top + n, bottom, bottom + n].map(|t| &src[t..t + n]);
                            // The single-sample pool's order: row by row,
                            // left to right, from -inf.
                            let taps = tl.iter().zip(tr).zip(bl).zip(br);
                            for (m, (((&tl, &tr), &bl), &br)) in run.iter_mut().zip(taps) {
                                *m = f32::NEG_INFINITY.max(tl).max(tr).max(bl).max(br);
                            }
                        }
                    }
                }
            }
            Layer::ReLU | Layer::Flatten => {}
        }
    }

    /// Recomputes output row `o` of this weight layer — out channel `o` of
    /// a Conv2d, output `o` of a Linear — over the batch `x` entering the
    /// layer, into `out` (that row's `out_h·out_w·n` or `n` values in
    /// the batched output), bit-identical to the same row of
    /// [`Self::forward_batch_in_place`]: one sequential fused chain per
    /// element that skips `±0` weights (and padding taps), so a pruned row
    /// costs its nonzeros only, then the bias. A layer without weights
    /// leaves `out` untouched.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range or the shapes disagree.
    pub(crate) fn output_row_into(&self, o: usize, x: &Batch, out: &mut [f32]) {
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
                let g = conv_geometry(x.sample_shape(), *in_ch, *kh, *kw, *stride, *pad);
                let k = weight.shape()[1];
                conv_row_into(
                    out,
                    &weight.data()[o * k..(o + 1) * k],
                    x.data(),
                    &g,
                    x.len(),
                );
                add_bias(out, &bias[o..=o]);
            }
            Layer::Linear { weight, bias, .. } => {
                let k = weight.shape()[1];
                let row = &weight.data()[o * k..(o + 1) * k];
                gemm_row_into(out, row, x.data(), k, x.len());
                add_bias(out, &bias[o..=o]);
            }
            _ => {}
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

    /// Number of stored weights (excluding biases) — what the paper
    /// counts as DNN "parameters" for storage.
    pub fn weight_count(&self) -> usize {
        self.weight_bias().map_or(0, |(w, _)| w.len())
    }
}

/// The `(c, h, w)` of a `[c, h, w]` sample shape.
///
/// # Panics
///
/// Panics if the shape has another rank.
fn chw(shape: &[usize], what: &str) -> (usize, usize, usize) {
    assert_eq!(shape.len(), 3, "{what} input must be [c,h,w]");
    (shape[0], shape[1], shape[2])
}

/// A conv layer's geometry on samples of `shape`.
///
/// # Panics
///
/// Panics if `shape` is not `[in_ch, h, w]`.
pub(crate) fn conv_geometry(
    shape: &[usize],
    in_ch: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> ConvGeometry {
    let (c, h, w) = chw(shape, "conv");
    assert_eq!(c, in_ch, "conv input channels");
    ConvGeometry {
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
    }
}

/// Adds `bias[o]` to every element of output row `o` of `out` (rows of
/// equal length, one per bias): `v + b`, after the GEMM's chain.
fn add_bias(out: &mut [f32], bias: &[f32]) {
    let len = out.len() / bias.len().max(1);
    for (row, b) in out.chunks_exact_mut(len.max(1)).zip(bias) {
        for v in row {
            *v += b;
        }
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
    fn flatten_reshapes() {
        let x = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(Layer::Flatten.forward(&x).shape(), &[24]);
    }

    #[test]
    #[should_panic(expected = "even dims")]
    fn maxpool_rejects_odd_dims() {
        Layer::MaxPool2.forward(&Tensor::zeros(&[1, 3, 4]));
    }
}
