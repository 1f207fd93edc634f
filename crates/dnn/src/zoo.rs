//! The paper's four evaluation models (Table 2) plus small *trainable*
//! stand-ins.
//!
//! The big four are expressed as [`ModelSpec`]s — per-layer 2-D weight
//! matrix shapes (the NVDLA-compatible mapping of §3.2.1) together with
//! per-layer MAC counts and activation sizes for the performance model.
//! Topologies follow the standard definitions; parameter counts match the
//! paper's Table 2 within a fraction of a percent (exact deltas recorded in
//! `EXPERIMENTS.md`):
//!
//! | model    | ours        | paper       |
//! |----------|-------------|-------------|
//! | LeNet5   |     600,579 |     600,810 |
//! | VGG12    |   7,898,826 |   7,899,840 |
//! | VGG16    | 138,357,544 | 138,084,352 |
//! | ResNet50 |  ~25.6M     |  24,585,472 |
//!
//! Because the ImageNet-scale models cannot be trained in this substrate,
//! their weights are *synthesized* per layer with realistic statistics
//! (Gaussian magnitudes, magnitude-pruned to Table 2's sparsity); the
//! trainable stand-ins ([`lenet_mini`], [`mlp_mini`]) provide end-to-end
//! accuracy measurements for the fault-injection experiments.

use crate::layer::Layer;
use crate::network::{LayerMatrix, Network};
use crate::train::he_init;
use rand::{Rng, SeedableRng};

/// What kind of computation a spec layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution with square kernel size `k`.
    Conv {
        /// Kernel side length.
        k: usize,
    },
    /// Fully connected layer.
    FullyConnected,
}

/// One weight-bearing layer of a [`ModelSpec`], in the 2-D mapping the
/// sparse encodings consume.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer name.
    pub name: String,
    /// Computation kind.
    pub kind: LayerKind,
    /// Matrix rows (output channels / neurons).
    pub rows: usize,
    /// Matrix columns (fan-in: `in_ch*k*k` for conv, `in` for FC).
    pub cols: usize,
    /// Multiply-accumulates to execute this layer once.
    pub macs: u64,
    /// Input activation element count.
    pub in_elems: u64,
    /// Output activation element count.
    pub out_elems: u64,
    /// How many times the layer's weights are streamed per inference.
    /// 1 for CNN layers (fetched once, reused across the feature map);
    /// the timestep count for recurrent layers, whose weights are
    /// re-fetched every step — the low-reuse regime §5.2 says benefits
    /// most from on-chip eNVM.
    pub fetch_passes: u32,
}

impl LayerSpec {
    /// Number of weights in this layer.
    pub fn weights(&self) -> u64 {
        (self.rows * self.cols) as u64
    }

    /// Bias parameters (one per row).
    pub fn biases(&self) -> u64 {
        self.rows as u64
    }

    /// Synthesizes a representative weight matrix for this layer:
    /// Gaussian values, magnitude-pruned to `sparsity`, deterministic per
    /// `seed`. Dimensions are capped at `max_rows`/`max_cols` (aspect
    /// preserved against the true shape) so ImageNet-scale layers never
    /// materialize hundreds of megabytes.
    pub fn sample_matrix(
        &self,
        sparsity: f64,
        seed: u64,
        max_rows: usize,
        max_cols: usize,
    ) -> LayerMatrix {
        assert!((0.0..1.0).contains(&sparsity), "sparsity out of range");
        let rows = self.rows.min(max_rows);
        let cols = self.cols.min(max_cols);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let std = (2.0 / self.cols as f32).sqrt();
        let mut data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                let u1: f32 = 1.0 - rng.gen::<f32>();
                let u2: f32 = rng.gen();
                std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        prune_to_sparsity(&mut data, sparsity);
        LayerMatrix::new(&self.name, rows, cols, data)
    }
}

/// Magnitude-prunes `data` in place so that (approximately) `sparsity` of
/// the entries become exactly zero — the paper's §3.1.2 pruning, without
/// the retraining loop.
// The k == 0 and empty-data early returns above guarantee k >= 1 and mags
// non-empty, so (k-1).min(mags.len()-1) is in range.
pub fn prune_to_sparsity(data: &mut [f32], sparsity: f64) {
    assert!((0.0..1.0).contains(&sparsity), "sparsity out of range");
    if data.is_empty() {
        return;
    }
    let k = ((data.len() as f64) * sparsity).round() as usize;
    if k == 0 {
        return;
    }
    let mut mags: Vec<f32> = data.iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| a.total_cmp(b));
    let threshold = mags[(k - 1).min(mags.len() - 1)];
    for v in data.iter_mut() {
        if v.abs() <= threshold {
            *v = 0.0;
        }
    }
}

/// Table 2 facts reported by the paper, carried alongside each spec for
/// comparison printing and as pipeline inputs (sparsity and index bits are
/// used as optimization targets).
#[derive(Debug, Clone, PartialEq)]
pub struct PaperModelInfo {
    /// Parameter count as printed in Table 2.
    pub reported_params: u64,
    /// Baseline classification error (fraction, not percent).
    pub classification_error: f64,
    /// Iso-training-noise error bound (fraction).
    pub itn_bound: f64,
    /// Cluster index bits (k-means codebook of `2^bits` values).
    pub cluster_index_bits: u8,
    /// Fraction of zero-valued weights after pruning.
    pub sparsity: f64,
}

/// A model described at the storage/performance level.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name as used in the paper ("LeNet5", "VGG16", ...).
    pub name: String,
    /// Dataset label ("MNIST", "CiFar10", "ImageNet").
    pub dataset: String,
    /// Weight-bearing layers in execution order.
    pub layers: Vec<LayerSpec>,
    /// Paper-reported facts (Table 2).
    pub paper: PaperModelInfo,
}

impl ModelSpec {
    /// Total parameters (weights + biases).
    pub fn params(&self) -> u64 {
        self.layers.iter().map(|l| l.weights() + l.biases()).sum()
    }

    /// Total weights (excluding biases).
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(LayerSpec::weights).sum()
    }

    /// Total multiply-accumulates per inference.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Model size in bytes at 16-bit weights (Table 2's "16b Size").
    pub fn size_16b_bytes(&self) -> u64 {
        self.params() * 2
    }

    /// The four models of Table 2, in paper order.
    pub fn paper_models() -> Vec<ModelSpec> {
        vec![lenet5(), vgg12(), vgg16(), resnet50()]
    }
}

/// Helper: build a conv `LayerSpec` given spatial geometry.
#[expect(clippy::too_many_arguments, reason = "one per conv geometry field")]
fn conv(
    name: &str,
    out_ch: usize,
    in_ch: usize,
    k: usize,
    in_h: usize,
    in_w: usize,
    out_h: usize,
    out_w: usize,
) -> LayerSpec {
    LayerSpec {
        name: name.to_string(),
        kind: LayerKind::Conv { k },
        rows: out_ch,
        cols: in_ch * k * k,
        macs: (out_ch * in_ch * k * k * out_h * out_w) as u64,
        in_elems: (in_ch * in_h * in_w) as u64,
        out_elems: (out_ch * out_h * out_w) as u64,
        fetch_passes: 1,
    }
}

/// Helper: build a fully connected `LayerSpec`.
fn fc(name: &str, out: usize, inp: usize) -> LayerSpec {
    LayerSpec {
        name: name.to_string(),
        kind: LayerKind::FullyConnected,
        rows: out,
        cols: inp,
        macs: (out * inp) as u64,
        in_elems: inp as u64,
        out_elems: out as u64,
        fetch_passes: 1,
    }
}

/// Helper: a recurrent layer — an FC weight matrix streamed once per
/// timestep (`steps` fetch passes, `steps ×` the MACs and activations).
fn recurrent(name: &str, out: usize, inp: usize, steps: u32) -> LayerSpec {
    LayerSpec {
        name: name.to_string(),
        kind: LayerKind::FullyConnected,
        rows: out,
        cols: inp,
        macs: (out * inp) as u64 * steps as u64,
        in_elems: inp as u64 * steps as u64,
        out_elems: out as u64 * steps as u64,
        fetch_passes: steps,
    }
}

/// A two-layer LSTM keyword spotter (16 timesteps) — the recurrent,
/// low-reuse workload §5.2 argues benefits most from on-chip weights.
/// Each LSTM layer's matrix is the stacked 4-gate weight block.
pub fn keyword_lstm() -> ModelSpec {
    let steps = 16u32;
    let (input, hidden) = (256usize, 512usize);
    ModelSpec {
        name: "KeywordLSTM".into(),
        dataset: "Speech (synthetic)".into(),
        layers: vec![
            recurrent("lstm1", 4 * hidden, input + hidden, steps),
            recurrent("lstm2", 4 * hidden, 2 * hidden, steps),
            fc("fc", 12, hidden),
        ],
        paper: PaperModelInfo {
            reported_params: 0, // not a paper model: an extension workload
            classification_error: 0.05,
            itn_bound: 0.005,
            cluster_index_bits: 5,
            sparsity: 0.7,
        },
    }
}

/// LeNet5 for MNIST (paper variant; 600,579 params vs 600,810 reported).
pub fn lenet5() -> ModelSpec {
    ModelSpec {
        name: "LeNet5".into(),
        dataset: "MNIST".into(),
        layers: vec![
            conv("conv1", 20, 1, 5, 28, 28, 24, 24),
            conv("conv2", 50, 20, 5, 12, 12, 8, 8),
            fc("fc1", 709, 800),
            fc("fc2", 10, 709),
        ],
        paper: PaperModelInfo {
            reported_params: 600_810,
            classification_error: 0.0083,
            itn_bound: 0.0005,
            cluster_index_bits: 4,
            sparsity: 0.899,
        },
    }
}

/// VGG12 for CiFar10 (7,898,826 params vs 7,899,840 reported).
pub fn vgg12() -> ModelSpec {
    let cfg: [(usize, usize, usize); 10] = [
        // (out_ch, in_ch, spatial after this conv's pool boundary handled below)
        (64, 3, 32),
        (64, 64, 32),
        (128, 64, 16),
        (128, 128, 16),
        (256, 128, 8),
        (256, 256, 8),
        (256, 256, 8),
        (512, 256, 4),
        (512, 512, 4),
        (512, 512, 4),
    ];
    let mut layers = Vec::new();
    let mut in_side = 32;
    for (i, &(out_ch, in_ch, side)) in cfg.iter().enumerate() {
        layers.push(conv(
            &format!("conv{}", i + 1),
            out_ch,
            in_ch,
            3,
            in_side,
            in_side,
            side,
            side,
        ));
        in_side = side;
    }
    layers.push(fc("fc1", 128, 512 * 2 * 2));
    layers.push(fc("fc2", 10, 128));
    ModelSpec {
        name: "VGG12".into(),
        dataset: "CiFar10".into(),
        layers,
        paper: PaperModelInfo {
            reported_params: 7_899_840,
            classification_error: 0.1038,
            itn_bound: 0.0040,
            cluster_index_bits: 4,
            sparsity: 0.409,
        },
    }
}

/// Standard VGG16 for ImageNet (138,357,544 params vs 138,084,352
/// reported).
pub fn vgg16() -> ModelSpec {
    // (out_ch, spatial side of the conv's output)
    let cfg: [(usize, usize); 13] = [
        (64, 224),
        (64, 224),
        (128, 112),
        (128, 112),
        (256, 56),
        (256, 56),
        (256, 56),
        (512, 28),
        (512, 28),
        (512, 28),
        (512, 14),
        (512, 14),
        (512, 14),
    ];
    let mut layers = Vec::new();
    let mut in_ch = 3;
    let mut in_side = 224;
    for (i, &(out_ch, side)) in cfg.iter().enumerate() {
        layers.push(conv(
            &format!("conv{}", i + 1),
            out_ch,
            in_ch,
            3,
            in_side,
            in_side,
            side,
            side,
        ));
        in_ch = out_ch;
        in_side = side;
    }
    layers.push(fc("fc6", 4096, 512 * 7 * 7));
    layers.push(fc("fc7", 4096, 4096));
    layers.push(fc("fc8", 1000, 4096));
    ModelSpec {
        name: "VGG16".into(),
        dataset: "ImageNet".into(),
        layers,
        paper: PaperModelInfo {
            reported_params: 138_084_352,
            classification_error: 0.3507,
            itn_bound: 0.0057,
            cluster_index_bits: 6,
            sparsity: 0.811,
        },
    }
}

/// Standard ResNet50 for ImageNet (54 weight layers; ~25.6M params vs
/// 24,585,472 reported — the paper excludes batch-norm parameters, which
/// this spec does not model).
pub fn resnet50() -> ModelSpec {
    let mut layers = Vec::new();
    layers.push(conv("conv1", 64, 3, 7, 224, 224, 112, 112));
    let stage_blocks = [3usize, 4, 6, 3];
    let stage_width = [64usize, 128, 256, 512];
    let stage_side = [56usize, 28, 14, 7];
    let mut in_ch = 64;
    for (s, (&blocks, (&w, &side))) in stage_blocks
        .iter()
        .zip(stage_width.iter().zip(stage_side.iter()))
        .enumerate()
    {
        for b in 0..blocks {
            let tag = format!("s{}b{}", s + 1, b);
            // Bottleneck: 1x1 reduce, 3x3, 1x1 expand (x4).
            layers.push(conv(
                &format!("{tag}_c1"),
                w,
                in_ch,
                1,
                side,
                side,
                side,
                side,
            ));
            layers.push(conv(&format!("{tag}_c2"), w, w, 3, side, side, side, side));
            layers.push(conv(
                &format!("{tag}_c3"),
                w * 4,
                w,
                1,
                side,
                side,
                side,
                side,
            ));
            if b == 0 {
                layers.push(conv(
                    &format!("{tag}_down"),
                    w * 4,
                    in_ch,
                    1,
                    side,
                    side,
                    side,
                    side,
                ));
            }
            in_ch = w * 4;
        }
    }
    layers.push(fc("fc", 1000, 2048));
    ModelSpec {
        name: "ResNet50".into(),
        dataset: "ImageNet".into(),
        layers,
        paper: PaperModelInfo {
            reported_params: 24_585_472,
            classification_error: 0.3115,
            itn_bound: 0.0102,
            cluster_index_bits: 7,
            sparsity: 0.6484,
        },
    }
}

/// A small trainable CNN for the 16×16 synthetic digits — the runnable
/// stand-in for LeNet5 in the fault-injection experiments (Fig. 5).
pub fn lenet_mini(seed: u64) -> Network {
    let mut net = Network::new(
        "lenet-mini",
        vec![
            Layer::conv2d("conv1", 8, 1, 5, 1, 0), // 16 -> 12
            Layer::ReLU,
            Layer::MaxPool2,                        // -> 6
            Layer::conv2d("conv2", 16, 8, 3, 1, 0), // -> 4
            Layer::ReLU,
            Layer::MaxPool2, // -> 2
            Layer::Flatten,
            Layer::linear("fc1", 32, 16 * 2 * 2),
            Layer::ReLU,
            Layer::linear("fc2", 10, 32),
        ],
    );
    he_init(&mut net, seed);
    net
}

/// A small trainable MLP for Gaussian-cluster features.
pub fn mlp_mini(inputs: usize, classes: usize, hidden: usize, seed: u64) -> Network {
    let mut net = Network::new(
        "mlp-mini",
        vec![
            Layer::linear("fc1", hidden, inputs),
            Layer::ReLU,
            Layer::linear("fc2", classes, hidden),
        ],
    );
    he_init(&mut net, seed);
    net
}

/// Converts a trainable [`Network`]'s weights into a [`ModelSpec`]-style
/// description, so the same pipeline APIs work on both.
pub fn spec_from_network(net: &Network, dataset: &str, paper: PaperModelInfo) -> ModelSpec {
    let layers = net
        .weight_matrices()
        .into_iter()
        .map(|m| LayerSpec {
            name: m.name.clone(),
            kind: LayerKind::FullyConnected,
            rows: m.rows,
            cols: m.cols,
            macs: (m.rows * m.cols) as u64,
            in_elems: m.cols as u64,
            out_elems: m.rows as u64,
            fetch_passes: 1,
        })
        .collect();
    ModelSpec {
        name: net.name.clone(),
        dataset: dataset.to_string(),
        layers,
        paper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet5_params_match_paper_within_tolerance() {
        let m = lenet5();
        let delta = (m.params() as f64 - m.paper.reported_params as f64).abs()
            / m.paper.reported_params as f64;
        assert!(
            delta < 0.005,
            "LeNet5 params {} vs paper {}",
            m.params(),
            m.paper.reported_params
        );
        assert_eq!(m.layers.len(), 4, "paper: 4 layers");
    }

    #[test]
    fn vgg12_params_match_paper_within_tolerance() {
        let m = vgg12();
        let delta = (m.params() as f64 - m.paper.reported_params as f64).abs()
            / m.paper.reported_params as f64;
        assert!(
            delta < 0.005,
            "VGG12 params {} vs paper {}",
            m.params(),
            m.paper.reported_params
        );
        assert_eq!(m.layers.len(), 12, "paper: 12 layers");
    }

    #[test]
    fn vgg16_params_match_paper_within_tolerance() {
        let m = vgg16();
        let delta = (m.params() as f64 - m.paper.reported_params as f64).abs()
            / m.paper.reported_params as f64;
        assert!(
            delta < 0.01,
            "VGG16 params {} vs paper {}",
            m.params(),
            m.paper.reported_params
        );
        assert_eq!(m.layers.len(), 16, "paper: 16 layers");
    }

    #[test]
    fn resnet50_matches_paper_shape() {
        let m = resnet50();
        assert_eq!(m.layers.len(), 54, "paper: 54 layers");
        let delta = (m.params() as f64 - m.paper.reported_params as f64).abs()
            / m.paper.reported_params as f64;
        assert!(
            delta < 0.06,
            "ResNet50 params {} vs paper {}",
            m.params(),
            m.paper.reported_params
        );
    }

    #[test]
    fn sixteen_bit_sizes_match_table2_shape() {
        // Table 2 reports 1.26MB / 15.4MB / 270MB / 70MB. Our params×2B
        // gives 1.20 / 15.8 / 277 / ~51 decimal MB — LeNet/VGG12/VGG16
        // land within a few percent; the paper's 70MB ResNet50 row is
        // internally inconsistent with its own 24.6M-parameter count
        // (24.6M × 2B = 49MB), so we only assert the ordering there.
        let mb = |b: u64| b as f64 / 1e6;
        assert!((mb(lenet5().size_16b_bytes()) - 1.26).abs() < 0.15);
        assert!((mb(vgg12().size_16b_bytes()) - 15.4).abs() < 0.8);
        assert!((mb(vgg16().size_16b_bytes()) - 270.0).abs() < 10.0);
        let r = mb(resnet50().size_16b_bytes());
        assert!(r > mb(vgg12().size_16b_bytes()) && r < mb(vgg16().size_16b_bytes()));
    }

    #[test]
    fn macs_are_plausible() {
        // VGG16 ≈ 15.5 GMACs, ResNet50 ≈ 4.1 GMACs.
        let v = vgg16().total_macs() as f64 / 1e9;
        assert!(v > 14.0 && v < 17.0, "VGG16 GMACs {v}");
        let r = resnet50().total_macs() as f64 / 1e9;
        assert!(r > 3.0 && r < 5.0, "ResNet50 GMACs {r}");
    }

    #[test]
    fn prune_hits_target_sparsity() {
        let mut data: Vec<f32> = (1..=1000).map(|i| i as f32 / 1000.0).collect();
        prune_to_sparsity(&mut data, 0.8);
        let zeros = data.iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f64 / 1000.0 - 0.8).abs() < 0.01, "zeros {zeros}");
    }

    #[test]
    fn prune_keeps_largest_magnitudes() {
        let mut data = vec![-5.0, 0.1, 3.0, -0.2, 4.0];
        prune_to_sparsity(&mut data, 0.4);
        assert_eq!(data, vec![-5.0, 0.0, 3.0, 0.0, 4.0]);
    }

    #[test]
    fn sample_matrix_caps_dimensions_and_hits_sparsity() {
        let spec = vgg16();
        let fc6 = spec.layers.iter().find(|l| l.name == "fc6").unwrap();
        let m = fc6.sample_matrix(0.811, 42, 256, 2048);
        assert_eq!(m.rows, 256);
        assert_eq!(m.cols, 2048);
        assert!(
            (m.sparsity() - 0.811).abs() < 0.01,
            "sparsity {}",
            m.sparsity()
        );
    }

    #[test]
    fn sample_matrix_is_deterministic() {
        let spec = lenet5();
        let a = spec.layers[0].sample_matrix(0.5, 7, 64, 64);
        let b = spec.layers[0].sample_matrix(0.5, 7, 64, 64);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn keyword_lstm_is_fetch_heavy() {
        let m = keyword_lstm();
        assert_eq!(m.layers.len(), 3);
        // Recurrent layers stream weights every timestep.
        assert_eq!(m.layers[0].fetch_passes, 16);
        assert_eq!(m.layers[2].fetch_passes, 1);
        // MACs scale with the timestep count.
        assert_eq!(
            m.layers[0].macs,
            (m.layers[0].rows * m.layers[0].cols) as u64 * 16
        );
        assert!(m.total_weights() > 3_000_000);
    }

    #[test]
    fn lenet_mini_is_trainable_topology() {
        let net = lenet_mini(3);
        assert!(net.supports_backprop());
        assert!(net.weight_count() > 1000);
    }

    #[test]
    fn spec_from_network_round_trips_shapes() {
        let net = mlp_mini(8, 3, 16, 1);
        let spec = spec_from_network(
            &net,
            "synthetic",
            PaperModelInfo {
                reported_params: 0,
                classification_error: 0.0,
                itn_bound: 0.01,
                cluster_index_bits: 4,
                sparsity: 0.5,
            },
        );
        assert_eq!(spec.layers.len(), 2);
        assert_eq!(spec.total_weights() as usize, net.weight_count());
    }
}
