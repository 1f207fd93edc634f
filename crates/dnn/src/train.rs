//! SGD training with softmax cross-entropy for the substrate's networks
//! (stacks of conv / linear / ReLU / max-pool / flatten, every one of which
//! has a backward pass).
//!
//! The paper's iso-training-noise (ITN) bound (§3.1.1) comes from training
//! the same topology repeatedly with identical hyper-parameters and using
//! the run-to-run accuracy spread as the tolerance for any model
//! alteration. [`itn_bound`] reproduces that procedure on the substrate's
//! trainable models.

use crate::gemm::{gemm_into, GemmScratch};
use crate::layer::{conv_geometry, Activation, Layer};
use crate::network::Network;
use crate::tensor::{col2im_into, Tensor};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// RNG seed for shuffling and (re)initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            lr: 0.05,
            momentum: 0.9,
            seed: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy loss over the final epoch.
    pub final_loss: f32,
    /// Training-set error rate after the final epoch.
    pub train_error: f64,
}

/// Why a training run produced no usable network.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// SGD diverged: the final epoch's loss is not finite, or the trained
    /// network classifies its own training set no better than chance
    /// (`1 - 1/classes`).
    Diverged {
        /// Mean cross-entropy loss over the final epoch.
        final_loss: f32,
        /// Training-set error rate after the final epoch.
        train_error: f64,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Diverged {
                final_loss,
                train_error,
            } => write!(
                f,
                "training diverged: final loss {final_loss}, train error {:.2}% \
                 (no better than chance)",
                train_error * 100.0
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// Initializes conv/linear weights with He-style scaled Gaussians, layer
/// by layer in order.
pub fn he_init(net: &mut Network, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    net.for_each_weight_tensor_mut(|_, weight| {
        let fan_in = weight.shape()[1] as f32;
        let std = (2.0 / fan_in).sqrt();
        for v in weight.data_mut() {
            // Box–Muller on f32.
            let u1: f32 = 1.0 - rng.gen::<f32>();
            let u2: f32 = rng.gen();
            *v = std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        }
    });
}

/// One layer's buffers in a [`TrainStep`].
#[derive(Debug, Default)]
struct LayerBufs {
    /// The layer's output on the current sample (and a conv layer's
    /// im2col of its input).
    act: Activation,
    /// Weight-bearing layers: the current sample's weight and bias
    /// gradients, and their momentum buffers.
    dw: Vec<f32>,
    db: Vec<f32>,
    vw: Vec<f32>,
    vb: Vec<f32>,
}

/// The scratch of one SGD step — forward, backward and update on one
/// sample. One instance serves every sample of an [`sgd_train`] call, so
/// the step allocates nothing once its buffers have grown.
///
/// Every floating-point operation that reaches the weights is the one a
/// plain per-sample backprop does, on the same operands in the same
/// order, so the trained bits do not depend on how the work is arranged.
/// The step saves only work that feeds nothing: the forward's conv im2col
/// is kept for the weight gradient instead of being rebuilt, transposed
/// GEMM operands go into reused buffers (see [`TransposedGemm`]), and no
/// input gradient is computed below the first weight-bearing layer.
#[derive(Debug, Default)]
struct TrainStep {
    layers: Vec<LayerBufs>,
    /// Gradient w.r.t. the current layer's output, and w.r.t. its input.
    grad: Vec<f32>,
    grad_in: Vec<f32>,
    /// A conv layer's input gradient in im2col form, before the fold.
    dcols: Vec<f32>,
    mm: TransposedGemm,
}

impl TrainStep {
    fn new(net: &Network) -> Self {
        let layers = net
            .layers()
            .iter()
            .map(|l| {
                let mut bufs = LayerBufs::default();
                if let Some((weight, bias)) = l.weight_bias() {
                    bufs.vw = vec![0.0; weight.len()];
                    bufs.vb = vec![0.0; bias.len()];
                }
                bufs
            })
            .collect();
        Self {
            layers,
            ..Self::default()
        }
    }

    /// Forward + backward for one sample: returns the loss and leaves each
    /// weight-bearing layer's gradients in its `dw`/`db`.
    fn forward_backward(&mut self, net: &Network, x: &Tensor, label: usize) -> f32 {
        for (li, l) in net.layers().iter().enumerate() {
            let (below, rest) = self.layers.split_at_mut(li);
            let (input, shape) = below.last().map_or((x.data(), x.shape()), |b| {
                (&b.act.data[..], &b.act.shape[..])
            });
            l.forward_into(input, shape, &mut rest[0].act, &mut self.mm.gemm);
        }
        let logits = self.layers.last().map_or(x.data(), |b| &b.act.data[..]);
        let loss = softmax_ce(logits, label, &mut self.grad);
        self.backward(net, x);
        loss
    }

    /// Backpropagates `self.grad` (w.r.t. the logits) down to the first
    /// weight-bearing layer, filling every such layer's `dw`/`db`.
    fn backward(&mut self, net: &Network, x: &Tensor) {
        let Some(first) = net.layers().iter().position(|l| l.weight_bias().is_some()) else {
            return;
        };
        for (li, l) in net.layers().iter().enumerate().skip(first).rev() {
            let (below, rest) = self.layers.split_at_mut(li);
            let (input, shape) = below.last().map_or((x.data(), x.shape()), |b| {
                (&b.act.data[..], &b.act.shape[..])
            });
            let bufs = &mut rest[0];
            // The input gradient of the first weight-bearing layer feeds
            // only parameter-free layers: skip it.
            let want_dx = li > first;
            match l {
                Layer::Linear { weight, .. } => {
                    let inp = weight.shape()[1];
                    bufs.dw.resize(weight.len(), 0.0);
                    bufs.db.clear();
                    bufs.db.extend_from_slice(&self.grad);
                    if want_dx {
                        self.grad_in.clear();
                        self.grad_in.resize(inp, 0.0);
                    }
                    let rows = bufs
                        .dw
                        .chunks_exact_mut(inp)
                        .zip(weight.data().chunks_exact(inp));
                    for ((dw_row, w_row), &g) in rows.zip(&self.grad) {
                        for (d, &v) in dw_row.iter_mut().zip(input) {
                            *d = g * v;
                        }
                        if want_dx {
                            // `g·w` rounded, then added: a fused GEMM
                            // chain here would change the trained bits.
                            for (d, &w) in self.grad_in.iter_mut().zip(w_row) {
                                *d += g * w;
                            }
                        }
                    }
                }
                Layer::Conv2d {
                    weight,
                    in_ch,
                    kh,
                    kw,
                    stride,
                    pad,
                    ..
                } => {
                    let (out_ch, k) = (weight.shape()[0], weight.shape()[1]);
                    let p = self.grad.len() / out_ch;
                    // dW = g · colsᵀ: [out_ch, p] · [p, k].
                    let (g, cols) = ((&self.grad[..], false), (&bufs.act.cols[..], true));
                    self.mm.multiply(&mut bufs.dw, g, cols, [out_ch, p, k]);
                    bufs.db.clear();
                    bufs.db
                        .extend(self.grad.chunks_exact(p).map(|g| g.iter().sum::<f32>()));
                    if want_dx {
                        // dX = col2im(Wᵀ · g): [k, out_ch] · [out_ch, p],
                        // folded onto the input image.
                        let (w_t, g) = ((weight.data(), true), (&self.grad[..], false));
                        self.mm.multiply(&mut self.dcols, w_t, g, [k, out_ch, p]);
                        let g = conv_geometry(shape, *in_ch, *kh, *kw, *stride, *pad);
                        self.grad_in.resize(g.c * g.h * g.w, 0.0);
                        col2im_into(&self.dcols, &g, &mut self.grad_in);
                    }
                }
                Layer::ReLU => {
                    // Branch-free select, in place.
                    for (g, &v) in self.grad.iter_mut().zip(input) {
                        *g = if v > 0.0 { *g } else { 0.0 };
                    }
                    continue;
                }
                Layer::MaxPool2 => maxpool_backward(input, shape, &self.grad, &mut self.grad_in),
                // Same values, new shape.
                Layer::Flatten => continue,
            }
            std::mem::swap(&mut self.grad, &mut self.grad_in);
        }
    }

    /// Applies momentum SGD to every weight-bearing layer from the
    /// gradients [`Self::forward_backward`] left behind.
    fn update(&mut self, net: &mut Network, cfg: &TrainConfig) {
        for (l, bufs) in net.layers_mut().iter_mut().zip(&mut self.layers) {
            if let Layer::Conv2d { weight, bias, .. } | Layer::Linear { weight, bias, .. } = l {
                momentum_step(weight.data_mut(), &mut bufs.vw, &bufs.dw, cfg);
                momentum_step(bias, &mut bufs.vb, &bufs.db, cfg);
            }
        }
    }
}

/// `v = momentum·v − lr·g`, then `param += v`, element by element.
fn momentum_step(param: &mut [f32], vel: &mut [f32], grad: &[f32], cfg: &TrainConfig) {
    for ((w, v), &g) in param.iter_mut().zip(vel).zip(grad) {
        *v = cfg.momentum * *v - cfg.lr * g;
        *w += *v;
    }
}

/// Softmax cross-entropy loss of `logits` against `label`; writes the
/// gradient w.r.t. the logits into `grad`.
fn softmax_ce(logits: &[f32], label: usize, grad: &mut Vec<f32>) -> f32 {
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    grad.clear();
    grad.extend(logits.iter().map(|&v| (v - max).exp()));
    let sum: f32 = grad.iter().sum();
    for p in grad.iter_mut() {
        *p /= sum;
    }
    let loss = -(grad[label].max(1e-12)).ln();
    grad[label] -= 1.0;
    loss
}

/// Routes each output gradient of a 2×2 max-pool to the first maximum of
/// its window.
// Indices are the pool's own (ci*h+y)*w+x flattening over dims destructured
// from the [c,h,w] input shape the forward pass validated, and dx is sized
// c*h*w first.
fn maxpool_backward(input: &[f32], shape: &[usize], grad: &[f32], dx: &mut Vec<f32>) {
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = (h / 2, w / 2);
    dx.clear();
    dx.resize(c * h * w, 0.0);
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let (mut best, mut by, mut bx) = (f32::NEG_INFINITY, 0, 0);
                for dy in 0..2 {
                    for dx_ in 0..2 {
                        let v = input[(ci * h + oy * 2 + dy) * w + ox * 2 + dx_];
                        if v > best {
                            best = v;
                            by = dy;
                            bx = dx_;
                        }
                    }
                }
                dx[(ci * h + oy * 2 + by) * w + ox * 2 + bx] += grad[(ci * oh + oy) * ow + ox];
            }
        }
    }
}

/// Matrix products with transposed operands, in reused buffers.
#[derive(Debug, Default)]
struct TransposedGemm {
    /// Materialized transposes of the left and right operands.
    a: Vec<f32>,
    b: Vec<f32>,
    /// The transposed product, on the flipped route.
    c: Vec<f32>,
    gemm: GemmScratch,
}

impl TransposedGemm {
    /// `c = A · B` (`[m, k] · [k, n]`), each operand given as `(data,
    /// transposed)`: `A` is `data` (`m`×`k`) or, when transposed, the
    /// transpose of the `k`×`m` matrix `data`; likewise `B`.
    ///
    /// Bit-identical to [`gemm_into`] on materialized operands. Every
    /// element is the same ascending fused chain `Σ_t A[i,t]·B[t,j]`, and
    /// computing `cᵀ = Bᵀ·Aᵀ` instead only swaps the two factors of each
    /// `fma`, which is exact. So this multiplies whichever of `c` and `cᵀ`
    /// has no more rows than columns — every tier's register tile is at
    /// least as wide as it is tall — transposing what that route needs.
    fn multiply(
        &mut self,
        c: &mut Vec<f32>,
        (a, ta): (&[f32], bool),
        (b, tb): (&[f32], bool),
        [m, k, n]: [usize; 3],
    ) {
        c.resize(m * n, 0.0);
        if m <= n {
            let a = if ta {
                transpose_into(a, k, m, &mut self.a)
            } else {
                a
            };
            let b = if tb {
                transpose_into(b, n, k, &mut self.b)
            } else {
                b
            };
            gemm_into(c, a, b, m, k, n, &mut self.gemm);
        } else {
            let a_t = if ta {
                a
            } else {
                transpose_into(a, m, k, &mut self.a)
            };
            let b_t = if tb {
                b
            } else {
                transpose_into(b, k, n, &mut self.b)
            };
            self.c.resize(n * m, 0.0);
            gemm_into(&mut self.c, b_t, a_t, n, k, m, &mut self.gemm);
            transpose_into(&self.c, n, m, c);
        }
    }
}

/// Writes the transpose of the row-major `rows`×`cols` matrix `src`
/// into `dst` and returns it.
fn transpose_into<'a>(src: &[f32], rows: usize, cols: usize, dst: &'a mut Vec<f32>) -> &'a [f32] {
    dst.resize(rows * cols, 0.0);
    for (j, dst_row) in dst.chunks_exact_mut(rows).enumerate() {
        for (d, &v) in dst_row.iter_mut().zip(src[j..].iter().step_by(cols)) {
            *d = v;
        }
    }
    dst
}

/// Trains `net` in place with SGD + momentum, one sample per step.
///
/// # Errors
///
/// Returns [`TrainError::Diverged`] if at least one epoch ran and the
/// final loss is not finite or the training-set error is no better than
/// chance. A collapsed run's loss stays finite (near
/// `ln(classes)`, or at the per-sample cap `-ln(1e-12)`), so the error
/// check is the one that catches it.
pub fn sgd_train(
    net: &mut Network,
    samples: &[(Tensor, usize)],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut step = TrainStep::new(net);
    let mut final_loss = 0.0f32;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        for &si in &order {
            let (x, y) = &samples[si];
            epoch_loss += step.forward_backward(net, x, *y);
            step.update(net, cfg);
        }
        final_loss = epoch_loss / samples.len().max(1) as f32;
    }
    let train_error = net.error_rate(samples);
    // Chance is `1 - 1/classes`; compare in whole samples so float
    // rounding of either fraction cannot decide (2/3 vs 1 - 1/3).
    let diverged = match samples.first() {
        Some((x, _)) if cfg.epochs > 0 => {
            let classes = net.forward(x).data().len();
            let n = samples.len();
            let wrong = (train_error * n as f64).round() as usize;
            !final_loss.is_finite() || wrong * classes >= classes.saturating_sub(1) * n
        }
        _ => false,
    };
    if diverged {
        return Err(TrainError::Diverged {
            final_loss,
            train_error,
        });
    }
    Ok(TrainReport {
        final_loss,
        train_error,
    })
}

/// Reproduces the paper's iso-training-noise procedure (§3.1.1): trains the
/// topology `runs` times from different seeds and returns
/// `(mean_error, bound)` where the bound is the peak-to-peak spread of the
/// test error across runs.
///
/// # Errors
///
/// Returns the [`TrainError`] of the first run that diverges.
pub fn itn_bound<F>(
    make_net: F,
    train: &[(Tensor, usize)],
    test: &[(Tensor, usize)],
    cfg: &TrainConfig,
    runs: usize,
) -> Result<(f64, f64), TrainError>
where
    F: Fn(u64) -> Network,
{
    assert!(runs >= 2, "need at least two runs for a spread");
    let mut errors = Vec::with_capacity(runs);
    for r in 0..runs {
        let mut net = make_net(cfg.seed + r as u64 * 1000 + 1);
        let cfg_r = TrainConfig {
            seed: cfg.seed + r as u64 * 7919 + 13,
            ..cfg.clone()
        };
        sgd_train(&mut net, train, &cfg_r)?;
        errors.push(net.error_rate(test));
    }
    let mean = errors.iter().sum::<f64>() / runs as f64;
    let min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = errors.iter().cloned().fold(0.0f64, f64::max);
    Ok((mean, (max - min).max(0.005)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_clusters;

    fn mlp(seed: u64) -> Network {
        let mut net = Network::new(
            "mlp",
            vec![
                Layer::linear("fc1", 16, 8),
                Layer::ReLU,
                Layer::linear("fc2", 3, 16),
            ],
        );
        he_init(&mut net, seed);
        net
    }

    #[test]
    fn mlp_learns_gaussian_clusters() {
        let data = gaussian_clusters(8, 3, 300, 1.8, 99);
        let mut net = mlp(1);
        let before = net.error_rate(&data);
        let cfg = TrainConfig {
            epochs: 20,
            lr: 0.02,
            momentum: 0.9,
            seed: 6,
        };
        let report = sgd_train(&mut net, &data, &cfg).unwrap();
        assert!(
            report.train_error < 0.1,
            "train error {} (before {before})",
            report.train_error
        );
        assert!(report.final_loss < 0.5);
    }

    #[test]
    fn cnn_learns_simple_patterns() {
        // Classify which quadrant of an 8x8 image contains a bright blob.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut samples = Vec::new();
        for _ in 0..240 {
            let label = rng.gen_range(0..4usize);
            let (cy, cx) = ((label / 2) * 4 + 2, (label % 2) * 4 + 2);
            let mut img = vec![0.0f32; 64];
            for dy in 0..2 {
                for dx in 0..2 {
                    img[(cy + dy - 1) * 8 + (cx + dx - 1)] = 1.0 + rng.gen::<f32>() * 0.2;
                }
            }
            for v in &mut img {
                *v += (rng.gen::<f32>() - 0.5) * 0.1;
            }
            samples.push((Tensor::from_vec(&[1, 8, 8], img), label));
        }
        let mut net = Network::new(
            "quadrant",
            vec![
                Layer::conv2d("c1", 4, 1, 3, 1, 1),
                Layer::ReLU,
                Layer::MaxPool2,
                Layer::Flatten,
                Layer::linear("fc", 4, 4 * 4 * 4),
            ],
        );
        he_init(&mut net, 3);
        let cfg = TrainConfig {
            epochs: 10,
            lr: 0.02,
            momentum: 0.9,
            seed: 4,
        };
        let report = sgd_train(&mut net, &samples, &cfg).unwrap();
        assert!(report.train_error < 0.15, "error {}", report.train_error);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // A pad-1 stride-2 conv after a pool (so the first weight layer
        // is not layer 0), a second conv and a linear: every weight
        // layer's analytic gradient against central differences.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut net = Network::new(
            "gradcheck",
            vec![
                Layer::MaxPool2,
                Layer::conv2d("c1", 3, 2, 3, 2, 1),
                Layer::ReLU,
                Layer::conv2d("c2", 2, 3, 3, 1, 0),
                Layer::Flatten,
                Layer::linear("fc", 3, 2 * 2 * 2),
            ],
        );
        he_init(&mut net, 8);
        let x = Tensor::from_vec(&[2, 16, 16], (0..512).map(|_| rng.gen::<f32>()).collect());
        let mut step = TrainStep::new(&net);
        step.forward_backward(&net, &x, 1);
        for li in [1, 3, 5] {
            let analytic = step.layers[li].dw.clone();
            for wi in [0usize, 5, 7] {
                let eps = 1e-3f32;
                let loss_at = |v: f32| {
                    let mut net = net.clone();
                    if let Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } =
                        &mut net.layers_mut()[li]
                    {
                        weight.data_mut()[wi] = v;
                    }
                    TrainStep::new(&net).forward_backward(&net, &x, 1)
                };
                let orig = net.layers()[li]
                    .weight_bias()
                    .expect("weight layer")
                    .0
                    .data()[wi];
                let numeric = (loss_at(orig + eps) - loss_at(orig - eps)) / (2.0 * eps);
                assert!(
                    (numeric - analytic[wi]).abs() < 2e-2_f32.max(0.2 * numeric.abs()),
                    "layer {li} w[{wi}]: numeric {numeric} vs analytic {}",
                    analytic[wi]
                );
            }
        }
    }

    #[test]
    fn runaway_learning_rate_is_a_typed_divergence() {
        // The run collapses to one class: error exactly 2/3 on balanced
        // 3-class data, which float rounding puts a hair below 1 - 1/3.
        let data = gaussian_clusters(8, 3, 300, 1.8, 99);
        let mut net = mlp(1);
        let cfg = TrainConfig {
            epochs: 2,
            lr: 1e4,
            momentum: 0.9,
            seed: 6,
        };
        match sgd_train(&mut net, &data, &cfg) {
            Err(TrainError::Diverged { .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn chance_level_training_is_a_typed_divergence() {
        // Zero weights and lr 0: the loss stays a finite ln(3), but every
        // prediction is the last class, so the error is 100% on labels 0.
        let mut net = mlp(1);
        for l in net.layers_mut() {
            if let Layer::Linear { weight, .. } = l {
                weight.data_mut().fill(0.0);
            }
        }
        let data: Vec<(Tensor, usize)> = (0..12)
            .map(|i| (Tensor::from_vec(&[8], vec![i as f32; 8]), 0))
            .collect();
        let cfg = TrainConfig {
            epochs: 1,
            lr: 0.0,
            momentum: 0.9,
            seed: 0,
        };
        let TrainError::Diverged {
            final_loss,
            train_error,
        } = sgd_train(&mut net, &data, &cfg).expect_err("chance-level run");
        assert!(final_loss.is_finite(), "{final_loss}");
        assert_eq!(train_error, 1.0);
        // Zero epochs train nothing, so nothing can have diverged.
        let cfg = TrainConfig { epochs: 0, ..cfg };
        sgd_train(&mut net, &data, &cfg).expect("no epochs, no divergence");
    }

    #[test]
    fn itn_bound_is_positive_and_small() {
        // Train and test splits must come from the *same* generated task
        // (same cluster centers), so draw one dataset and split it.
        let all = gaussian_clusters(8, 3, 450, 2.2, 10);
        let (train, test) = all.split_at(300);
        let cfg = TrainConfig {
            epochs: 15,
            lr: 0.02,
            momentum: 0.9,
            seed: 1,
        };
        let (mean, bound) = itn_bound(mlp, train, test, &cfg, 3).expect("trainable topology");
        assert!(mean < 0.2, "mean error {mean}");
        assert!((0.005..0.2).contains(&bound), "bound {bound}");
    }
}
