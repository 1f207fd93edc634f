//! A runnable network: an ordered list of layers with weight-matrix
//! extraction for the storage pipeline.
//!
//! Forward passes are reproducible to the bit across hosts and runs: all
//! weight-layer arithmetic funnels into [`crate::gemm`], whose dispatch
//! tiers (scalar / AVX2 / AVX-512 / NEON) compute the identical
//! fused-multiply-add chains and are selected once per process from CPU
//! features alone, never from the data (DESIGN.md §14). The same logits
//! come back on the detected tier or pinned to the scalar tier via
//! `MAXNVM_FORCE_SCALAR`.

use crate::layer::{ForwardScratch, Layer};
use crate::tensor::{Batch, Tensor};

/// One faulty weight cell relative to the clean decode: `slot` indexes the
/// flattened row-major weight matrix, `value` is the decoded faulty value.
/// A trial's effect on a layer is a (usually tiny) slot-sorted list of
/// these, which the fault-delta forward applies and reverts in O(deltas).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightDelta {
    /// Flattened row-major index into the weight matrix.
    pub slot: u32,
    /// The faulty decoded value now stored at `slot`.
    pub value: f32,
}

/// A 2-D-mapped weight matrix extracted from (or written back to) a layer —
/// the unit of storage the paper's encodings operate on (§3.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMatrix {
    /// Originating layer name.
    pub name: String,
    /// Matrix rows (output channels / neurons).
    pub rows: usize,
    /// Matrix columns (fan-in).
    pub cols: usize,
    /// Row-major values, `rows * cols` long.
    pub data: Vec<f32>,
}

impl LayerMatrix {
    /// Creates a matrix, validating dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(name: &str, rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length");
        Self {
            name: name.to_string(),
            rows,
            cols,
            data,
        }
    }

    /// Fraction of zero-valued entries.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|&&v| v == 0.0).count() as f64 / self.data.len() as f64
    }

    /// Number of non-zero entries.
    pub fn nonzeros(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }
}

/// Most samples one batched evaluation runs at once:
/// [`Network::error_rate`], [`Network::predict_batch`] and each chunk of
/// a clean-prefix cache ([`crate::prefix`]) take a set in batches of this
/// size. A batch's activations and GEMM operands grow with its size, and
/// a 64-sample batch's mostly stay in cache, so larger sets run faster in
/// such batches than in one (DESIGN.md §9). Per-sample logits do not
/// depend on the batch they run in (the summation-order contract of
/// [`crate::gemm`]), so the size changes no result.
pub const EVAL_BATCH: usize = 64;

/// An ordered stack of layers forming a classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Model name.
    pub name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from layers.
    pub fn new(name: &str, layers: Vec<Layer>) -> Self {
        Self {
            name: name.to_string(),
            layers,
        }
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Runs a single sample through the network, returning the logits.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for l in &self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    /// Runs a batch of same-shaped samples through the network, each
    /// weight layer one matrix multiply over the batch (see
    /// [`Layer::forward_batch_in_place`]). Per-sample results equal
    /// [`Network::forward`].
    pub fn forward_batch(&self, xs: &[Tensor]) -> Vec<Tensor> {
        let mut x = Batch::from_samples(xs);
        self.forward_suffix(0, &mut x, &mut ForwardScratch::default());
        x.to_samples()
    }

    /// Runs only layers `start..` on `x`, the batch entering layer
    /// `start`, leaving the output in `x`; `scratch` holds the staging
    /// buffers, so the fault-simulation trial loop does not allocate. The
    /// clean-prefix fault path resumes here after patching the first
    /// fault-touched layer's cached outputs.
    ///
    /// # Panics
    ///
    /// Panics if `start` exceeds the layer count.
    pub fn forward_suffix(&self, start: usize, x: &mut Batch, scratch: &mut ForwardScratch) {
        for l in &self.layers[start..] {
            l.forward_batch_in_place(x, scratch);
        }
    }

    /// Predicted class (argmax of logits).
    pub fn predict(&self, x: &Tensor) -> usize {
        argmax(&self.forward(x))
    }

    /// Predicted classes for a set of samples (batched forward in batches
    /// of [`EVAL_BATCH`], same tie-breaking as [`Network::predict`]).
    pub fn predict_batch(&self, xs: &[Tensor]) -> Vec<usize> {
        let mut scratch = ForwardScratch::default();
        let mut classes = Vec::with_capacity(xs.len());
        for batch in xs.chunks(EVAL_BATCH) {
            let mut x = Batch::from_samples(batch);
            self.forward_suffix(0, &mut x, &mut scratch);
            classes.extend((0..x.len()).map(|s| argmax_of(x.values(s))));
        }
        classes
    }

    /// Classification error rate (fraction wrong) on labelled samples.
    /// Runs the set in batches of [`EVAL_BATCH`] samples — one matmul per
    /// weight layer per batch — so its working memory stays bounded
    /// however large the set.
    pub fn error_rate(&self, samples: &[(Tensor, usize)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut scratch = ForwardScratch::default();
        let mut wrong = 0;
        for batch in samples.chunks(EVAL_BATCH) {
            let mut x = Batch::from_samples(batch.iter().map(|(x, _)| x));
            self.forward_suffix(0, &mut x, &mut scratch);
            wrong += misclassified(&x, batch);
        }
        wrong as f64 / samples.len() as f64
    }

    /// Total stored weight count (conv + linear weights; the paper's
    /// "parameters" for storage purposes).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(Layer::weight_count).sum()
    }

    /// Extracts every weight-bearing layer as a 2-D matrix, in order.
    pub fn weight_matrices(&self) -> Vec<LayerMatrix> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Layer::Conv2d { name, weight, .. } | Layer::Linear { name, weight, .. } => {
                    Some(LayerMatrix::new(
                        name,
                        weight.shape()[0],
                        weight.shape()[1],
                        weight.data().to_vec(),
                    ))
                }
                _ => None,
            })
            .collect()
    }

    /// Writes weight matrices back into the network (e.g. after an
    /// encode → store → fault → decode round trip).
    ///
    /// # Panics
    ///
    /// Panics if the count or shapes do not match
    /// [`Network::weight_matrices`].
    pub fn set_weight_matrices(&mut self, mats: &[LayerMatrix]) {
        let mut count = 0;
        self.for_each_weight_tensor_mut(|idx, weight| {
            assert!(idx < mats.len(), "matrix count mismatch");
            let m = &mats[idx];
            assert_eq!(
                weight.shape(),
                &[m.rows, m.cols],
                "matrix shape mismatch at index {idx}"
            );
            weight.data_mut().copy_from_slice(&m.data);
            count += 1;
        });
        assert_eq!(count, mats.len(), "matrix count mismatch");
    }

    /// Visits every weight-bearing layer's tensor mutably, in
    /// [`Network::weight_matrices`] order.
    pub fn for_each_weight_tensor_mut(&mut self, mut f: impl FnMut(usize, &mut Tensor)) {
        let weights = self.layers.iter_mut().filter_map(|l| match l {
            Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => Some(weight),
            _ => None,
        });
        for (idx, weight) in weights.enumerate() {
            f(idx, weight);
        }
    }

    /// Overwrites the listed weight slots with their faulty values,
    /// recording `(matrix index, slot, previous value)` into `undo` so
    /// [`Network::revert_weight_deltas`] can restore the clean weights in
    /// O(deltas). `deltas[i]` addresses weight matrix `i` in
    /// [`Network::weight_matrices`] order; missing trailing entries mean
    /// "no faults in that layer".
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range for its matrix.
    pub fn apply_weight_deltas(
        &mut self,
        deltas: &[Vec<WeightDelta>],
        undo: &mut Vec<(usize, u32, f32)>,
    ) {
        undo.clear();
        self.for_each_weight_tensor_mut(|i, w| {
            let Some(ds) = deltas.get(i) else {
                return;
            };
            for d in ds {
                let slot = d.slot as usize;
                undo.push((i, d.slot, w.data()[slot]));
                w.data_mut()[slot] = d.value;
            }
        });
    }

    /// Restores weights overwritten by [`Network::apply_weight_deltas`].
    /// Entries are replayed in reverse so repeated slots unwind correctly.
    pub fn revert_weight_deltas(&mut self, undo: &[(usize, u32, f32)]) {
        self.for_each_weight_tensor_mut(|i, w| {
            for &(mi, slot, old) in undo.iter().rev() {
                if mi == i {
                    w.data_mut()[slot as usize] = old;
                }
            }
        });
    }
}

/// How many of `samples` the batch of their `logits` misclassifies
/// (argmax against the label) — the count behind
/// [`Network::error_rate`].
pub fn misclassified(logits: &Batch, samples: &[(Tensor, usize)]) -> usize {
    samples
        .iter()
        .enumerate()
        .filter(|(s, (_, y))| argmax_of(logits.values(*s)) != *y)
        .count()
}

/// Argmax over logits; on ties the *last* maximum wins, matching the
/// historical `Iterator::max_by` behaviour every accuracy result was
/// produced with.
pub fn argmax(logits: &Tensor) -> usize {
    argmax_of(logits.data().iter().copied())
}

/// [`argmax`] over one sample's logits, in order.
fn argmax_of(logits: impl Iterator<Item = f32>) -> usize {
    logits
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        let mut fc1 = Layer::linear("fc1", 4, 3);
        if let Layer::Linear { weight, .. } = &mut fc1 {
            for (i, v) in weight.data_mut().iter_mut().enumerate() {
                *v = (i as f32 - 5.0) * 0.1;
            }
        }
        let fc2 = Layer::linear("fc2", 2, 4);
        Network::new("tiny", vec![fc1, Layer::ReLU, fc2])
    }

    #[test]
    fn forward_produces_logits() {
        let net = tiny_net();
        let y = net.forward(&Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]));
        assert_eq!(y.shape(), &[2]);
    }

    #[test]
    fn predict_is_argmax() {
        let mut net = tiny_net();
        if let Layer::Linear { bias, .. } = &mut net.layers_mut()[2] {
            bias[1] = 100.0;
        }
        assert_eq!(net.predict(&Tensor::from_vec(&[3], vec![0.0, 0.0, 0.0])), 1);
    }

    #[test]
    fn error_rate_counts_mistakes() {
        let mut net = tiny_net();
        if let Layer::Linear { bias, .. } = &mut net.layers_mut()[2] {
            bias[0] = 100.0;
        }
        let samples = vec![
            (Tensor::from_vec(&[3], vec![0.0; 3]), 0),
            (Tensor::from_vec(&[3], vec![0.0; 3]), 1),
        ];
        assert!((net.error_rate(&samples) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weight_matrix_round_trip() {
        let mut net = tiny_net();
        let mut mats = net.weight_matrices();
        assert_eq!(mats.len(), 2);
        assert_eq!(mats[0].rows, 4);
        assert_eq!(mats[0].cols, 3);
        mats[0].data[0] = 42.0;
        net.set_weight_matrices(&mats);
        assert_eq!(net.weight_matrices()[0].data[0], 42.0);
    }

    #[test]
    fn weight_count_sums_layers() {
        let net = tiny_net();
        assert_eq!(net.weight_count(), 4 * 3 + 2 * 4);
    }

    #[test]
    fn layer_matrix_sparsity() {
        let m = LayerMatrix::new("x", 1, 4, vec![0.0, 1.0, 0.0, 2.0]);
        assert!((m.sparsity() - 0.5).abs() < 1e-12);
        assert_eq!(m.nonzeros(), 2);
    }

    #[test]
    #[should_panic(expected = "matrix count mismatch")]
    fn set_matrices_validates_count() {
        let mut net = tiny_net();
        net.set_weight_matrices(&[]);
    }

    fn conv_net() -> Network {
        let mut conv = Layer::conv2d("c1", 3, 1, 3, 1, 1);
        if let Layer::Conv2d { weight, bias, .. } = &mut conv {
            for (i, v) in weight.data_mut().iter_mut().enumerate() {
                *v = ((i % 7) as f32 - 3.0) * 0.21;
            }
            bias[1] = 0.3;
        }
        let mut fc = Layer::linear("fc", 4, 3 * 4 * 4);
        if let Layer::Linear { weight, .. } = &mut fc {
            for (i, v) in weight.data_mut().iter_mut().enumerate() {
                *v = ((i % 11) as f32 - 5.0) * 0.07;
            }
        }
        Network::new(
            "convnet",
            vec![conv, Layer::ReLU, Layer::MaxPool2, Layer::Flatten, fc],
        )
    }

    #[test]
    fn batched_forward_matches_per_sample() {
        let net = conv_net();
        let xs: Vec<Tensor> = (0..5)
            .map(|s| {
                let data = (0..64)
                    .map(|i| ((i * (s + 2)) % 9) as f32 * 0.11 - 0.4)
                    .collect();
                Tensor::from_vec(&[1, 8, 8], data)
            })
            .collect();
        let batched = net.forward_batch(&xs);
        for (x, b) in xs.iter().zip(&batched) {
            let single = net.forward(x);
            assert_eq!(single.shape(), b.shape());
            assert_eq!(single.data(), b.data(), "batched conv+linear must be exact");
        }
        let preds = net.predict_batch(&xs);
        for (x, p) in xs.iter().zip(&preds) {
            assert_eq!(net.predict(x), *p);
        }
        // A set spanning several batches counts the same mistakes, and
        // predicts the same classes, as per-sample prediction.
        let samples: Vec<(Tensor, usize)> = (0..2 * EVAL_BATCH + 3)
            .map(|i| (xs[i % xs.len()].clone(), i % 3))
            .collect();
        let wrong = samples.iter().filter(|(x, y)| net.predict(x) != *y).count();
        assert!(wrong > 0 && wrong < samples.len());
        assert_eq!(
            net.error_rate(&samples),
            wrong as f64 / samples.len() as f64
        );
        let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
        let per_sample: Vec<usize> = inputs.iter().map(|x| net.predict(x)).collect();
        assert_eq!(net.predict_batch(&inputs), per_sample);
    }

    #[test]
    fn batched_forward_handles_empty_batch() {
        assert!(conv_net().forward_batch(&[]).is_empty());
        assert_eq!(conv_net().error_rate(&[]), 0.0);
    }
}
