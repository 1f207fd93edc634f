//! SGD training with softmax cross-entropy for the substrate's trainable
//! architectures (stacks of conv / linear / ReLU / max-pool / flatten).
//!
//! The paper's iso-training-noise (ITN) bound (§3.1.1) comes from training
//! the same topology repeatedly with identical hyper-parameters and using
//! the run-to-run accuracy spread as the tolerance for any model
//! alteration. [`itn_bound`] reproduces that procedure on the substrate's
//! trainable models.

use crate::gemm::{gemm_into, GemmScratch};
use crate::layer::Layer;
use crate::network::Network;
use crate::tensor::{col2im, im2col, Tensor};
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
    /// The network contains layers without backprop support.
    UnsupportedBackprop(String),
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
            Self::UnsupportedBackprop(name) => write!(
                f,
                "network '{name}' contains layers without backprop support"
            ),
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

/// Per-layer parameter gradients (only weight-bearing layers have entries).
struct ParamGrad {
    weight: Tensor,
    bias: Vec<f32>,
}

/// Initializes conv/linear weights with He-style scaled Gaussians.
pub fn he_init(net: &mut Network, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    fn init_layers<R: Rng>(layers: &mut [Layer], rng: &mut R) {
        for l in layers {
            match l {
                Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => {
                    let fan_in = weight.shape()[1] as f32;
                    let std = (2.0 / fan_in).sqrt();
                    for v in weight.data_mut() {
                        // Box–Muller on f32.
                        let u1: f32 = 1.0 - rng.gen::<f32>();
                        let u2: f32 = rng.gen();
                        *v =
                            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                    }
                }
                Layer::Residual { body, shortcut } => {
                    init_layers(body, rng);
                    init_layers(shortcut, rng);
                }
                _ => {}
            }
        }
    }
    init_layers(net.layers_mut(), &mut rng);
}

/// Softmax cross-entropy loss and gradient w.r.t. the logits.
fn softmax_ce(logits: &Tensor, label: usize) -> (f32, Tensor) {
    let max = logits
        .data()
        .iter()
        .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = logits.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
    let loss = -(probs[label].max(1e-12)).ln();
    let grad = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| if i == label { p - 1.0 } else { p })
        .collect();
    (loss, Tensor::from_vec(logits.shape(), grad))
}

/// Forward + backward for one sample. Returns the loss and per-layer
/// parameter gradients (None for parameter-free layers), or
/// [`TrainError::UnsupportedBackprop`] when a layer has no backward pass.
// maxnvm-lint: allow(R1/index-arith): mirrors the forward pass's indexing: all products are over dims destructured from the validated layer shapes, and the maxpool argmax re-reads taps it just probed.
fn forward_backward(
    net: &Network,
    x: &Tensor,
    label: usize,
) -> Result<(f32, Vec<Option<ParamGrad>>), TrainError> {
    // Forward, caching each layer's input.
    let mut inputs: Vec<Tensor> = Vec::with_capacity(net.layers().len());
    let mut cur = x.clone();
    for l in net.layers() {
        inputs.push(cur.clone());
        cur = l.forward(&cur);
    }
    let (loss, mut grad) = softmax_ce(&cur, label);

    let mut grads: Vec<Option<ParamGrad>> = (0..net.layers().len()).map(|_| None).collect();
    for (li, l) in net.layers().iter().enumerate().rev() {
        let input = &inputs[li];
        match l {
            Layer::Linear { weight, .. } => {
                let (out, inp) = (weight.shape()[0], weight.shape()[1]);
                let mut dw = Tensor::zeros(&[out, inp]);
                let mut db = vec![0.0f32; out];
                let mut dx = vec![0.0f32; inp];
                #[allow(clippy::needless_range_loop)]
                for o in 0..out {
                    let g = grad.data()[o];
                    db[o] = g;
                    let wrow = &weight.data()[o * inp..(o + 1) * inp];
                    let dwrow = &mut dw.data_mut()[o * inp..(o + 1) * inp];
                    for i in 0..inp {
                        dwrow[i] = g * input.data()[i];
                        dx[i] += g * wrow[i];
                    }
                }
                grads[li] = Some(ParamGrad {
                    weight: dw,
                    bias: db,
                });
                grad = Tensor::from_vec(&[inp], dx);
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
                let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
                debug_assert_eq!(c, *in_ch);
                let (cols, oh, ow) = im2col(input, *kh, *kw, *stride, *pad);
                let out_ch = weight.shape()[0];
                let fan_in = weight.shape()[1];
                let p = oh * ow;
                // grad is [out_ch, oh, ow] -> matrix [out_ch, oh*ow]
                let gmat = grad.clone().reshape(&[out_ch, p]);
                let mut gs = GemmScratch::default();
                // dW = gmat · cols^T  ([out_ch, p] · [p, fan_in])
                let colst = cols.transpose();
                let mut dw_data = vec![0.0f32; out_ch * fan_in];
                gemm_into(
                    &mut dw_data,
                    gmat.data(),
                    colst.data(),
                    out_ch,
                    p,
                    fan_in,
                    &mut gs,
                );
                let dw = Tensor::from_vec(&[out_ch, fan_in], dw_data);
                let db: Vec<f32> = (0..out_ch)
                    .map(|o| gmat.data()[o * p..(o + 1) * p].iter().sum())
                    .collect();
                // dX_cols = W^T · gmat ([fan_in, out_ch] · [out_ch, p]),
                // then fold back.
                let wt = weight.transpose();
                let mut dcols_data = vec![0.0f32; fan_in * p];
                gemm_into(
                    &mut dcols_data,
                    wt.data(),
                    gmat.data(),
                    fan_in,
                    out_ch,
                    p,
                    &mut gs,
                );
                let dcols = Tensor::from_vec(&[fan_in, p], dcols_data);
                let dx = col2im(&dcols, c, h, w, *kh, *kw, *stride, *pad);
                grads[li] = Some(ParamGrad {
                    weight: dw,
                    bias: db,
                });
                grad = dx;
            }
            Layer::ReLU => {
                let data = grad
                    .data()
                    .iter()
                    .zip(input.data())
                    .map(|(&g, &v)| if v > 0.0 { g } else { 0.0 })
                    .collect();
                grad = Tensor::from_vec(input.shape(), data);
            }
            Layer::MaxPool2 => {
                let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
                let (oh, ow) = (h / 2, w / 2);
                let mut dx = vec![0.0f32; c * h * w];
                for ci in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            // Recompute the argmax.
                            let (mut best, mut by, mut bx) = (f32::NEG_INFINITY, 0, 0);
                            for dy in 0..2 {
                                for dx_ in 0..2 {
                                    let v = input.data()[(ci * h + oy * 2 + dy) * w + ox * 2 + dx_];
                                    if v > best {
                                        best = v;
                                        by = dy;
                                        bx = dx_;
                                    }
                                }
                            }
                            dx[(ci * h + oy * 2 + by) * w + ox * 2 + bx] +=
                                grad.data()[(ci * oh + oy) * ow + ox];
                        }
                    }
                }
                grad = Tensor::from_vec(&[c, h, w], dx);
            }
            Layer::Flatten => {
                grad = grad.clone().reshape(input.shape());
            }
            other => {
                return Err(TrainError::UnsupportedBackprop(format!(
                    "{} (layer {other:?})",
                    net.name
                )));
            }
        }
    }
    Ok((loss, grads))
}

/// Trains `net` in place with SGD + momentum.
///
/// # Errors
///
/// Returns [`TrainError::UnsupportedBackprop`] if the network contains
/// layers without backprop support (residual blocks, batch norm, global
/// average pooling), and [`TrainError::Diverged`] if at least one epoch
/// ran and the final loss is not finite or the training-set error is no
/// better than chance. A collapsed run's loss stays finite (near
/// `ln(classes)`, or at the per-sample cap `-ln(1e-12)`), so the error
/// check is the one that catches it.
pub fn sgd_train(
    net: &mut Network,
    samples: &[(Tensor, usize)],
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    if !net.supports_backprop() {
        return Err(TrainError::UnsupportedBackprop(net.name.clone()));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    // Momentum buffers per weight-bearing layer.
    let mut vel: Vec<Option<(Tensor, Vec<f32>)>> = net
        .layers()
        .iter()
        .map(|l| match l {
            Layer::Conv2d { weight, bias, .. } | Layer::Linear { weight, bias, .. } => {
                Some((Tensor::zeros(weight.shape()), vec![0.0; bias.len()]))
            }
            _ => None,
        })
        .collect();

    let mut final_loss = 0.0f32;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        for &si in &order {
            let (x, y) = &samples[si];
            let (loss, grads) = forward_backward(net, x, *y)?;
            epoch_loss += loss;
            for (li, g) in grads.into_iter().enumerate() {
                let Some(g) = g else { continue };
                // Gradients and velocity buffers are built from the same
                // layer list, so a Some gradient implies a Some buffer.
                let Some((vw, vb)) = vel[li].as_mut() else {
                    continue;
                };
                for (v, dg) in vw.data_mut().iter_mut().zip(g.weight.data()) {
                    *v = cfg.momentum * *v - cfg.lr * dg;
                }
                for (v, dg) in vb.iter_mut().zip(&g.bias) {
                    *v = cfg.momentum * *v - cfg.lr * dg;
                }
                match &mut net.layers_mut()[li] {
                    Layer::Conv2d { weight, bias, .. } | Layer::Linear { weight, bias, .. } => {
                        for (w, v) in weight.data_mut().iter_mut().zip(vw.data()) {
                            *w += v;
                        }
                        for (b, v) in bias.iter_mut().zip(vb.iter()) {
                            *b += v;
                        }
                    }
                    _ => {}
                }
            }
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
/// Returns the [`TrainError`] of the first run that cannot be trained or
/// diverges.
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
    fn conv_gradient_matches_finite_difference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut net = Network::new(
            "gradcheck",
            vec![
                Layer::conv2d("c", 2, 1, 3, 1, 0),
                Layer::Flatten,
                Layer::linear("fc", 2, 2 * 4 * 4),
            ],
        );
        he_init(&mut net, 8);
        let x = Tensor::from_vec(&[1, 6, 6], (0..36).map(|_| rng.gen::<f32>()).collect());
        let (_, grads) = forward_backward(&net, &x, 1).expect("backprop-capable net");
        let g = grads[0].as_ref().unwrap();
        // Check a few weight entries against central differences.
        for &wi in &[0usize, 5, 11] {
            let eps = 1e-3f32;
            let orig = match &net.layers()[0] {
                Layer::Conv2d { weight, .. } => weight.data()[wi],
                _ => unreachable!(),
            };
            let loss_at = |net: &mut Network, v: f32| {
                if let Layer::Conv2d { weight, .. } = &mut net.layers_mut()[0] {
                    weight.data_mut()[wi] = v;
                }
                let (l, _) = forward_backward(net, &x, 1).expect("backprop-capable net");
                l
            };
            let mut net2 = net.clone();
            let lp = loss_at(&mut net2, orig + eps);
            let lm = loss_at(&mut net2, orig - eps);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = g.weight.data()[wi];
            assert!(
                (numeric - analytic).abs() < 2e-2_f32.max(0.2 * numeric.abs()),
                "w[{wi}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_rejects_residual_networks() {
        let mut net = Network::new(
            "res",
            vec![Layer::Residual {
                body: vec![Layer::ReLU],
                shortcut: vec![],
            }],
        );
        let err = sgd_train(&mut net, &[], &TrainConfig::default());
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("res"));
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
        let err = sgd_train(&mut net, &data, &cfg).expect_err("chance-level run");
        match err {
            TrainError::Diverged {
                final_loss,
                train_error,
            } => {
                assert!(final_loss.is_finite(), "{final_loss}");
                assert_eq!(train_error, 1.0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
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
