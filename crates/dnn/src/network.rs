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
use crate::tensor::Tensor;

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
/// size. A batch's im2col matrices and activations grow with its size (a
/// single batch of 1500 LeNet images holds about 40 MB at once), and a
/// 64-sample batch's mostly stay in cache, so larger sets run faster in
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

    /// Runs a batch of same-shaped samples through the network, batching
    /// each weight layer into a single matrix multiply (see
    /// [`Layer::forward_batch`]). Per-sample results equal
    /// [`Network::forward`].
    pub fn forward_batch(&self, xs: &[Tensor]) -> Vec<Tensor> {
        self.forward_batch_scratch(xs, &mut ForwardScratch::default())
    }

    /// [`Network::forward_batch`] with caller-owned staging buffers — the
    /// allocation-free path the fault-simulation trial loop uses.
    pub fn forward_batch_scratch(
        &self,
        xs: &[Tensor],
        scratch: &mut ForwardScratch,
    ) -> Vec<Tensor> {
        self.forward_suffix(0, xs.to_vec(), scratch)
    }

    /// Runs only layers `start..` on already-computed activations `xs`
    /// (the batch entering layer `start`). The clean-prefix fault path
    /// resumes here after patching the first fault-touched layer's cached
    /// outputs.
    ///
    /// # Panics
    ///
    /// Panics if `start` exceeds the layer count.
    pub fn forward_suffix(
        &self,
        start: usize,
        xs: Vec<Tensor>,
        scratch: &mut ForwardScratch,
    ) -> Vec<Tensor> {
        let mut cur = xs;
        for l in &self.layers[start..] {
            cur = l.forward_batch_scratch(&cur, scratch);
        }
        cur
    }

    /// Predicted class (argmax of logits).
    pub fn predict(&self, x: &Tensor) -> usize {
        argmax(&self.forward(x))
    }

    /// Predicted classes for a set of samples (batched forward in batches
    /// of [`EVAL_BATCH`], same tie-breaking as [`Network::predict`]).
    pub fn predict_batch(&self, xs: &[Tensor]) -> Vec<usize> {
        let mut scratch = ForwardScratch::default();
        xs.chunks(EVAL_BATCH)
            .flat_map(|batch| self.forward_batch_scratch(batch, &mut scratch))
            .map(|logits| argmax(&logits))
            .collect()
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
            let xs = batch.iter().map(|(x, _)| x.clone()).collect();
            wrong += misclassified(&self.forward_suffix(0, xs, &mut scratch), batch);
        }
        wrong as f64 / samples.len() as f64
    }

    /// Total stored weight count (conv + linear weights; the paper's
    /// "parameters" for storage purposes).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(Layer::weight_count).sum()
    }

    /// Whether every layer supports the substrate's backprop (true for the
    /// small trainable models, false e.g. for residual networks).
    pub fn supports_backprop(&self) -> bool {
        self.layers.iter().all(Layer::supports_backprop)
    }

    /// Extracts every weight-bearing layer as a 2-D matrix, in order.
    pub fn weight_matrices(&self) -> Vec<LayerMatrix> {
        fn collect(layers: &[Layer], out: &mut Vec<LayerMatrix>) {
            for l in layers {
                match l {
                    Layer::Conv2d { name, weight, .. } | Layer::Linear { name, weight, .. } => {
                        out.push(LayerMatrix::new(
                            name,
                            weight.shape()[0],
                            weight.shape()[1],
                            weight.data().to_vec(),
                        ));
                    }
                    Layer::Residual { body, shortcut } => {
                        collect(body, out);
                        collect(shortcut, out);
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.layers, &mut out);
        out
    }

    /// Writes weight matrices back into the network (e.g. after an
    /// encode → store → fault → decode round trip).
    ///
    /// # Panics
    ///
    /// Panics if the count or shapes do not match
    /// [`Network::weight_matrices`].
    pub fn set_weight_matrices(&mut self, mats: &[LayerMatrix]) {
        fn apply(layers: &mut [Layer], mats: &[LayerMatrix], idx: &mut usize) {
            for l in layers {
                match l {
                    Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => {
                        assert!(*idx < mats.len(), "matrix count mismatch");
                        let m = &mats[*idx];
                        assert_eq!(
                            weight.shape(),
                            &[m.rows, m.cols],
                            "matrix shape mismatch at index {}",
                            *idx
                        );
                        weight.data_mut().copy_from_slice(&m.data);
                        *idx += 1;
                    }
                    Layer::Residual { body, shortcut } => {
                        apply(body, mats, idx);
                        apply(shortcut, mats, idx);
                    }
                    _ => {}
                }
            }
        }
        let mut idx = 0;
        apply(&mut self.layers, mats, &mut idx);
        assert_eq!(idx, mats.len(), "matrix count mismatch");
    }

    /// Visits every weight-bearing layer's tensor mutably, in
    /// [`Network::weight_matrices`] order (residual bodies before
    /// shortcuts).
    pub fn for_each_weight_tensor_mut(&mut self, mut f: impl FnMut(usize, &mut Tensor)) {
        fn walk<F: FnMut(usize, &mut Tensor)>(layers: &mut [Layer], idx: &mut usize, f: &mut F) {
            for l in layers {
                match l {
                    Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => {
                        f(*idx, weight);
                        *idx += 1;
                    }
                    Layer::Residual { body, shortcut } => {
                        walk(body, idx, f);
                        walk(shortcut, idx, f);
                    }
                    _ => {}
                }
            }
        }
        let mut idx = 0;
        walk(&mut self.layers, &mut idx, &mut f);
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

/// How many of `samples` the per-sample `logits` misclassify (argmax
/// against the label) — the count behind [`Network::error_rate`].
pub fn misclassified(logits: &[Tensor], samples: &[(Tensor, usize)]) -> usize {
    logits
        .iter()
        .zip(samples)
        .filter(|(l, (_, y))| argmax(l) != *y)
        .count()
}

/// Argmax over logits; on ties the *last* maximum wins, matching the
/// historical `Iterator::max_by` behaviour every accuracy result was
/// produced with.
pub fn argmax(logits: &Tensor) -> usize {
    logits
        .data()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
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
    fn residual_matrices_are_collected() {
        let net = Network::new(
            "res",
            vec![Layer::Residual {
                body: vec![Layer::conv2d("c", 2, 2, 3, 1, 1)],
                shortcut: vec![Layer::conv2d("s", 2, 2, 1, 1, 0)],
            }],
        );
        let mats = net.weight_matrices();
        assert_eq!(mats.len(), 2);
        assert_eq!(mats[0].name, "c");
        assert_eq!(mats[1].name, "s");
        assert!(!net.supports_backprop());
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
