//! A trainable Elman recurrent network — the runnable counterpart of the
//! `zoo::keyword_lstm` spec, so the recurrent low-reuse story (§5.2) can
//! be exercised end-to-end: train → prune/cluster → store in eNVM →
//! inject faults → measure sequence-classification accuracy.
//!
//! The cell is the classic `h_t = tanh(Wx·x_t + Wh·h_{t-1} + b)` with a
//! linear read-out from the final hidden state; training is truncated
//! back-propagation through time over the full (short) sequence.

use crate::gemm::{gemm_into, GemmScratch};
use crate::network::LayerMatrix;
use crate::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A single-layer Elman RNN sequence classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct ElmanRnn {
    /// Model name.
    pub name: String,
    input: usize,
    hidden: usize,
    classes: usize,
    wx: Tensor, // [hidden, input]
    wh: Tensor, // [hidden, hidden]
    b: Vec<f32>,
    wo: Tensor, // [classes, hidden]
    bo: Vec<f32>,
}

/// A labelled sequence: `inputs[t]` is the `input`-dimensional frame at
/// step `t`.
pub type Sequence = (Vec<Vec<f32>>, usize);

impl ElmanRnn {
    /// Creates an RNN with He-style random initialization.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(input: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        assert!(input > 0 && hidden > 0 && classes > 0, "degenerate shape");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut init = |rows: usize, cols: usize, scale: f32| -> Tensor {
            let std = scale / (cols as f32).sqrt();
            Tensor::from_vec(
                &[rows, cols],
                (0..rows * cols)
                    .map(|_| {
                        let u1: f32 = 1.0 - rng.gen::<f32>();
                        let u2: f32 = rng.gen();
                        std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                    })
                    .collect(),
            )
        };
        Self {
            name: "elman-rnn".into(),
            input,
            hidden,
            classes,
            wx: init(hidden, input, 1.0),
            wh: init(hidden, hidden, 0.7),
            b: vec![0.0; hidden],
            wo: init(classes, hidden, 1.0),
            bo: vec![0.0; classes],
        }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the recurrence, returning every hidden state (`T` entries).
    ///
    /// The input contribution `Wx·x_t` for *all* timesteps is computed as
    /// one blocked GEMM (frames stacked as the columns of `[input, T]`);
    /// only the sequential `Wh·h_{t-1}` part remains per-step.
    // x/wxx are allocated input*t_len and hidden*t_len in this fn; k, i and
    // t come from enumerates over those same extents.
    fn run(&self, seq: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let t_len = seq.len();
        if t_len == 0 {
            return Vec::new();
        }
        let mut x = vec![0.0f32; self.input * t_len];
        for (t, frame) in seq.iter().enumerate() {
            assert_eq!(frame.len(), self.input, "frame size");
            for (k, &v) in frame.iter().enumerate() {
                x[k * t_len + t] = v;
            }
        }
        let mut wxx = vec![0.0f32; self.hidden * t_len];
        gemm_into(
            &mut wxx,
            self.wx.data(),
            &x,
            self.hidden,
            self.input,
            t_len,
            &mut GemmScratch::default(),
        );
        let mut h = vec![0.0f32; self.hidden];
        let mut states = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let mut next = vec![0.0f32; self.hidden];
            for (i, n) in next.iter_mut().enumerate() {
                let wh_row = &self.wh.data()[i * self.hidden..(i + 1) * self.hidden];
                let mut acc = self.b[i] + wxx[i * t_len + t];
                for (w, v) in wh_row.iter().zip(&h) {
                    acc += w * v;
                }
                *n = acc.tanh();
            }
            h.copy_from_slice(&next);
            states.push(next);
        }
        states
    }

    /// Read-out logits for a hidden state: `wo · h + bo` via the blocked
    /// kernel (an `n = 1` GEMM).
    fn readout(&self, h: &[f32]) -> Vec<f32> {
        let mut logits = vec![0.0f32; self.classes];
        gemm_into(
            &mut logits,
            self.wo.data(),
            h,
            self.classes,
            self.hidden,
            1,
            &mut GemmScratch::default(),
        );
        for (l, &b) in logits.iter_mut().zip(&self.bo) {
            *l += b;
        }
        logits
    }

    /// Logits from the final hidden state.
    pub fn forward(&self, seq: &[Vec<f32>]) -> Vec<f32> {
        let states = self.run(seq);
        let h = states
            .last()
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.hidden]);
        self.readout(&h)
    }

    /// Predicted class.
    pub fn predict(&self, seq: &[Vec<f32>]) -> usize {
        self.forward(seq)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }

    /// Classification error rate over labelled sequences.
    pub fn error_rate(&self, samples: &[Sequence]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let wrong = samples
            .iter()
            .filter(|(s, y)| self.predict(s) != *y)
            .count();
        wrong as f64 / samples.len() as f64
    }

    /// One BPTT step on a single sequence; returns the loss.
    // Every row slice is i*hidden or c*input with the index drawn from an
    // enumerate over a vector of exactly the matching dimension.
    fn step(&mut self, seq: &[Vec<f32>], label: usize, lr: f32) -> f32 {
        let states = self.run(seq);
        let t_len = seq.len();
        let Some(h_last) = states.last() else {
            return 0.0; // empty sequence: nothing to learn from
        };

        // Softmax cross-entropy on the read-out.
        let logits: Vec<f32> = self.readout(h_last);
        let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        let probs: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
        let loss = -(probs[label].max(1e-12)).ln();
        let dlogits: Vec<f32> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| if i == label { p - 1.0 } else { p })
            .collect();

        // Read-out gradients + gradient into the last hidden state.
        let mut dh = vec![0.0f32; self.hidden];
        for (c, &g) in dlogits.iter().enumerate() {
            self.bo[c] -= lr * g;
            let row = &mut self.wo.data_mut()[c * self.hidden..(c + 1) * self.hidden];
            for (j, w) in row.iter_mut().enumerate() {
                dh[j] += g * *w;
                *w -= lr * g * h_last[j];
            }
        }

        // BPTT: walk backwards through time, applying updates immediately
        // (stochastic, no momentum — sufficient for the short sequences
        // the stand-in uses).
        for t in (0..t_len).rev() {
            let h_t = &states[t];
            let h_prev: Vec<f32> = if t == 0 {
                vec![0.0; self.hidden]
            } else {
                states[t - 1].clone()
            };
            // d(pre-activation) = dh * (1 - tanh^2)
            let dz: Vec<f32> = dh
                .iter()
                .zip(h_t)
                .map(|(&g, &h)| g * (1.0 - h * h))
                .collect();
            let mut dh_next = vec![0.0f32; self.hidden];
            for (i, &g) in dz.iter().enumerate() {
                self.b[i] -= lr * g;
                let wx_row = &mut self.wx.data_mut()[i * self.input..(i + 1) * self.input];
                for (w, &x) in wx_row.iter_mut().zip(&seq[t]) {
                    *w -= lr * g * x;
                }
                let wh_row = &mut self.wh.data_mut()[i * self.hidden..(i + 1) * self.hidden];
                for (j, w) in wh_row.iter_mut().enumerate() {
                    dh_next[j] += g * *w;
                    *w -= lr * g * h_prev[j];
                }
            }
            dh = dh_next;
        }
        loss
    }

    /// Trains with plain SGD over `epochs` shuffled passes.
    pub fn train(&mut self, samples: &[Sequence], epochs: usize, lr: f32, seed: u64) -> f32 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last = 0.0;
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0;
            for &i in &order {
                let (seq, y) = &samples[i];
                total += self.step(seq, *y, lr);
            }
            last = total / samples.len().max(1) as f32;
        }
        last
    }

    /// The three weight matrices in storage order (`wx`, `wh`, `wo`) —
    /// same contract as `Network::weight_matrices`.
    pub fn weight_matrices(&self) -> Vec<LayerMatrix> {
        vec![
            LayerMatrix::new("wx", self.hidden, self.input, self.wx.data().to_vec()),
            LayerMatrix::new("wh", self.hidden, self.hidden, self.wh.data().to_vec()),
            LayerMatrix::new("wo", self.classes, self.hidden, self.wo.data().to_vec()),
        ]
    }

    /// Writes weight matrices back (after an encode/decode round trip).
    ///
    /// # Panics
    ///
    /// Panics on count or shape mismatch.
    pub fn set_weight_matrices(&mut self, mats: &[LayerMatrix]) {
        assert_eq!(mats.len(), 3, "wx, wh, wo");
        assert_eq!((mats[0].rows, mats[0].cols), (self.hidden, self.input));
        assert_eq!((mats[1].rows, mats[1].cols), (self.hidden, self.hidden));
        assert_eq!((mats[2].rows, mats[2].cols), (self.classes, self.hidden));
        self.wx.data_mut().copy_from_slice(&mats[0].data);
        self.wh.data_mut().copy_from_slice(&mats[1].data);
        self.wo.data_mut().copy_from_slice(&mats[2].data);
    }
}

/// Synthetic sequence task: classify which of `classes` frequencies a
/// noisy multi-channel sinusoid carries — a keyword-spotting stand-in.
pub fn synthetic_sequences(
    n: usize,
    steps: usize,
    input: usize,
    classes: usize,
    seed: u64,
) -> Vec<Sequence> {
    assert!(classes >= 2 && steps >= 4 && input >= 1, "degenerate task");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let class = i % classes;
            let freq = 0.3 + class as f32 * (2.0 / classes as f32);
            let phase = rng.gen::<f32>() * std::f32::consts::TAU;
            let seq: Vec<Vec<f32>> = (0..steps)
                .map(|t| {
                    (0..input)
                        .map(|ch| {
                            (freq * t as f32 + phase + ch as f32 * 0.7).sin()
                                + (rng.gen::<f32>() - 0.5) * 0.3
                        })
                        .collect()
                })
                .collect();
            (seq, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rnn_learns_frequency_classification() {
        let train = synthetic_sequences(300, 12, 4, 3, 1);
        let test = synthetic_sequences(90, 12, 4, 3, 2);
        let mut rnn = ElmanRnn::new(4, 24, 3, 7);
        let before = rnn.error_rate(&test);
        let loss = rnn.train(&train, 12, 0.01, 3);
        let after = rnn.error_rate(&test);
        assert!(loss.is_finite());
        assert!(
            after < 0.15 && after < before,
            "test error {after} (before {before})"
        );
    }

    #[test]
    fn weight_matrix_round_trip() {
        let rnn = ElmanRnn::new(4, 8, 3, 1);
        let mut copy = rnn.clone();
        let mut mats = rnn.weight_matrices();
        assert_eq!(mats.len(), 3);
        mats[1].data[5] = 42.0;
        copy.set_weight_matrices(&mats);
        assert_eq!(copy.weight_matrices()[1].data[5], 42.0);
        assert_ne!(copy, rnn);
    }

    #[test]
    fn hidden_state_carries_information() {
        // The same final frame with different histories must be able to
        // produce different predictions (i.e., the recurrence matters).
        let mut rnn = ElmanRnn::new(2, 16, 2, 3);
        let train: Vec<Sequence> = (0..200)
            .map(|i| {
                // Class = whether the FIRST frame was positive; last frames
                // are identical noise.
                let class = i % 2;
                let first = if class == 0 {
                    vec![1.0, 1.0]
                } else {
                    vec![-1.0, -1.0]
                };
                let mut seq = vec![first];
                for t in 0..6 {
                    seq.push(vec![0.1 * (t as f32), 0.0]);
                }
                (seq, class)
            })
            .collect();
        rnn.train(&train, 30, 0.02, 4);
        assert!(rnn.error_rate(&train) < 0.1, "{}", rnn.error_rate(&train));
    }

    #[test]
    fn deterministic_construction() {
        let a = ElmanRnn::new(3, 5, 2, 9);
        let b = ElmanRnn::new(3, 5, 2, 9);
        assert_eq!(a, b);
        let c = ElmanRnn::new(3, 5, 2, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "frame size")]
    fn rejects_wrong_frame_width() {
        let rnn = ElmanRnn::new(3, 5, 2, 1);
        rnn.forward(&[vec![1.0, 2.0]]);
    }
}
