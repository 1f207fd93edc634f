//! Per-layer roofline and whole-model system evaluation (§3.5, §5.2).
//!
//! Each layer runs at the slowest of three rates: MAC throughput,
//! weight-fetch bandwidth (DRAM or eNVM), and activation traffic through
//! the SRAM (spilling to DRAM when the working set does not fit). Energy
//! sums MAC switching (folded into datapath power × time), weight-fetch
//! energy per source, activation movement, and background power of every
//! powered interface.

use crate::config::{NvdlaConfig, DRAM_ENERGY_PJ_PER_BYTE, SRAM_ENERGY_PJ_PER_BYTE};
use crate::source::WeightSource;
use maxnvm_dnn::zoo::ModelSpec;
use maxnvm_encoding::estimate::{encoded_bits, LayerGeometry};
use maxnvm_encoding::EncodingKind;

/// Cycle breakdown for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPerf {
    /// Cycles the MAC array needs.
    pub compute_cycles: u64,
    /// Cycles to stream the (encoded) weights.
    pub weight_cycles: u64,
    /// Cycles to move activations in/out.
    pub activation_cycles: u64,
    /// The layer's execution time: the bottleneck of the three.
    pub cycles: u64,
}

impl LayerPerf {
    /// Whether the layer is weight-fetch bound.
    pub fn is_weight_bound(&self) -> bool {
        self.weight_cycles >= self.compute_cycles && self.weight_cycles >= self.activation_cycles
    }
}

/// System-level evaluation result (the quantities of Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Configuration name.
    pub config: String,
    /// Cycles per inference.
    pub cycles_per_inference: u64,
    /// Frames (inferences) per second at full tilt.
    pub fps: f64,
    /// Energy per inference (mJ).
    pub energy_per_inference_mj: f64,
    /// Average power while running back-to-back inferences (mW).
    pub avg_power_mw: f64,
    /// Weight-fetch energy share (mJ).
    pub weight_energy_mj: f64,
    /// Activation-movement energy share (mJ).
    pub activation_energy_mj: f64,
    /// Datapath energy share (mJ).
    pub datapath_energy_mj: f64,
    /// Background (DRAM interface + eNVM leakage) energy share (mJ).
    pub background_energy_mj: f64,
}

/// Computes one layer's cycle breakdown.
///
/// `weight_cycles` is the (source-dependent) time to stream the layer's
/// *encoded* weights — the accelerator reads the compressed format and
/// decodes on the fly (§3.2.2); `act_spill_bytes` is any activation
/// traffic that overflows SRAM to DRAM.
pub fn layer_perf(
    layer_macs: u64,
    weight_cycles: u64,
    in_elems: u64,
    out_elems: u64,
    act_spill_bytes: u64,
    cfg: &NvdlaConfig,
) -> LayerPerf {
    let compute_cycles = (layer_macs as f64 / cfg.effective_macs_per_cycle()).ceil() as u64;
    // 8-bit activations through SRAM; spills traverse DRAM at its
    // bandwidth (shared with weights, modeled as serialized worst case).
    let sram_traffic = in_elems + out_elems;
    let act_cycles_sram = (sram_traffic as f64 / cfg.bytes_per_cycle(cfg.sram_bw_gbps)).ceil();
    let act_cycles_dram = (act_spill_bytes as f64 / cfg.bytes_per_cycle(cfg.dram_bw_gbps)).ceil();
    let activation_cycles = (act_cycles_sram + act_cycles_dram) as u64;
    let cycles = compute_cycles.max(weight_cycles).max(activation_cycles);
    LayerPerf {
        compute_cycles,
        weight_cycles,
        activation_cycles,
        cycles,
    }
}

/// Activation bytes that do not fit on-chip and must round-trip DRAM for a
/// layer with the given activation footprint (8-bit activations).
pub fn activation_spill_bytes(in_elems: u64, out_elems: u64, sram_bytes: u64) -> u64 {
    (in_elems + out_elems).saturating_sub(sram_bytes)
}

/// Evaluates a model on a configuration with a weight source.
///
/// `weight_bytes` gives each layer's encoded weight footprint, in layer
/// order (use `maxnvm_encoding::estimate` to size an encoding).
///
/// # Panics
///
/// Panics if `weight_bytes.len() != model.layers.len()`.
pub fn evaluate(
    model: &ModelSpec,
    cfg: &NvdlaConfig,
    source: &WeightSource,
    weight_bytes: &[u64],
) -> SystemReport {
    assert_eq!(
        weight_bytes.len(),
        model.layers.len(),
        "one weight footprint per layer"
    );
    let sram_bytes = cfg.sram_kb as u64 * 1024;
    let mut total_cycles = 0u64;
    let mut weight_energy_pj = 0.0f64;
    let mut act_energy_pj = 0.0f64;
    for (idx, (layer, &wbytes)) in model.layers.iter().zip(weight_bytes).enumerate() {
        let spill = activation_spill_bytes(layer.in_elems, layer.out_elems, sram_bytes);
        // Off-chip weight traffic and activation spills share the single
        // DRAM interface (Fig. 7): serialize them on its bandwidth. The
        // on-chip eNVM stream is an independent port.
        let f = source.on_chip_fraction(idx);
        // Recurrent layers stream their weights once per timestep.
        let passes = layer.fetch_passes.max(1) as u64;
        let on_bytes = (wbytes as f64 * f).round() as u64 * passes;
        let off_bytes = (wbytes - (wbytes as f64 * f).round() as u64) * passes;
        let compute_cycles = (layer.macs as f64 / cfg.effective_macs_per_cycle()).ceil() as u64;
        let envm_cycles = if on_bytes > 0 {
            // weight_cycles() with a fully-on-chip request yields the eNVM
            // stream time for the on-chip share.
            source.weight_cycles(idx, wbytes, cfg).min(
                (on_bytes as f64
                    / cfg.bytes_per_cycle(match source {
                        WeightSource::Dram => cfg.dram_bw_gbps,
                        WeightSource::Envm(d) | WeightSource::Hybrid { envm: d, .. } => {
                            d.read_bandwidth_gbps
                        }
                    }))
                .ceil() as u64,
            )
        } else {
            0
        };
        let dram_cycles =
            ((off_bytes + spill) as f64 / cfg.bytes_per_cycle(cfg.dram_bw_gbps)).ceil() as u64;
        let sram_cycles = ((layer.in_elems + layer.out_elems) as f64
            / cfg.bytes_per_cycle(cfg.sram_bw_gbps))
        .ceil() as u64;
        let cycles = compute_cycles
            .max(envm_cycles)
            .max(dram_cycles)
            .max(sram_cycles);
        total_cycles += cycles;
        weight_energy_pj += source.fetch_energy_pj(idx, wbytes) * passes as f64;
        act_energy_pj += (layer.in_elems + layer.out_elems) as f64 * SRAM_ENERGY_PJ_PER_BYTE
            + spill as f64 * DRAM_ENERGY_PJ_PER_BYTE;
    }
    let time_s = total_cycles as f64 / (cfg.freq_ghz * 1e9);
    let fps = 1.0 / time_s;
    let datapath_energy_pj = cfg.datapath_power_mw * 1e9 * time_s; // mW·s = 1e9 pJ
    let background_mw = if source.needs_dram() {
        cfg.dram_power_mw
    } else {
        0.0
    } + source.store_leakage_mw();
    let background_energy_pj = background_mw * 1e9 * time_s;
    let total_pj = weight_energy_pj + act_energy_pj + datapath_energy_pj + background_energy_pj;
    SystemReport {
        config: cfg.name.clone(),
        cycles_per_inference: total_cycles,
        fps,
        energy_per_inference_mj: total_pj * 1e-9,
        avg_power_mw: total_pj * 1e-9 / time_s * 1e-3 * 1e3, // mJ / s = mW
        weight_energy_mj: weight_energy_pj * 1e-9,
        activation_energy_mj: act_energy_pj * 1e-9,
        datapath_energy_mj: datapath_energy_pj * 1e-9,
        background_energy_mj: background_energy_pj * 1e-9,
    }
}

/// What limits a layer's execution rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// MAC-array throughput.
    Compute,
    /// On-chip eNVM weight streaming.
    EnvmWeights,
    /// The shared DRAM interface (off-chip weights + activation spills).
    Dram,
    /// SRAM activation traffic.
    Sram,
}

/// Per-layer diagnosis: where the cycles go (the evidence behind the §6
/// greedy placement).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Execution cycles (the max of the four streams).
    pub cycles: u64,
    /// The limiting stream.
    pub bottleneck: Bottleneck,
    /// Cycle demand per stream: compute, eNVM, DRAM, SRAM.
    pub demands: [u64; 4],
}

/// Produces the per-layer bottleneck breakdown for a model on a
/// configuration and weight source.
///
/// # Panics
///
/// Panics if `weight_bytes.len() != model.layers.len()`.
pub fn per_layer_report(
    model: &ModelSpec,
    cfg: &NvdlaConfig,
    source: &WeightSource,
    weight_bytes: &[u64],
) -> Vec<LayerReport> {
    assert_eq!(
        weight_bytes.len(),
        model.layers.len(),
        "one entry per layer"
    );
    let sram_bytes = cfg.sram_kb as u64 * 1024;
    model
        .layers
        .iter()
        .zip(weight_bytes)
        .enumerate()
        .map(|(idx, (layer, &wbytes))| {
            let spill = activation_spill_bytes(layer.in_elems, layer.out_elems, sram_bytes);
            let f = source.on_chip_fraction(idx);
            let passes = layer.fetch_passes.max(1) as u64;
            let on_bytes = (wbytes as f64 * f).round() as u64 * passes;
            let off_bytes = (wbytes - (wbytes as f64 * f).round() as u64) * passes;
            let compute = (layer.macs as f64 / cfg.effective_macs_per_cycle()).ceil() as u64;
            let envm = if on_bytes > 0 {
                let bw = match source {
                    WeightSource::Dram => cfg.dram_bw_gbps,
                    WeightSource::Envm(d) | WeightSource::Hybrid { envm: d, .. } => {
                        d.read_bandwidth_gbps
                    }
                };
                (on_bytes as f64 / cfg.bytes_per_cycle(bw)).ceil() as u64
            } else {
                0
            };
            let dram =
                ((off_bytes + spill) as f64 / cfg.bytes_per_cycle(cfg.dram_bw_gbps)).ceil() as u64;
            let sram = ((layer.in_elems + layer.out_elems) as f64
                / cfg.bytes_per_cycle(cfg.sram_bw_gbps))
            .ceil() as u64;
            let demands = [compute, envm, dram, sram];
            // Four fixed demands; `max_by_key` keeps the *last* maximum,
            // so fold with `>=` to preserve the historical tie-break.
            let (winner, cycles) =
                demands
                    .iter()
                    .copied()
                    .enumerate()
                    .fold(
                        (0, compute),
                        |best, (i, c)| {
                            if c >= best.1 {
                                (i, c)
                            } else {
                                best
                            }
                        },
                    );
            let bottleneck = [
                Bottleneck::Compute,
                Bottleneck::EnvmWeights,
                Bottleneck::Dram,
                Bottleneck::Sram,
            ][winner];
            LayerReport {
                name: layer.name.clone(),
                cycles,
                bottleneck,
                demands,
            }
        })
        .collect()
}

/// Encoded weight footprints (bytes per layer) for a model under an
/// encoding, from the analytic size estimators.
pub fn encoded_weight_bytes(model: &ModelSpec, encoding: EncodingKind, idx_sync: bool) -> Vec<u64> {
    model
        .layers
        .iter()
        .map(|l| {
            let geom =
                LayerGeometry::from_sparsity(l.rows as u64, l.cols as u64, model.paper.sparsity);
            encoded_bits(geom, model.paper.cluster_index_bits, encoding, idx_sync)
                .total_bits()
                .div_ceil(8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_dnn::zoo;
    use maxnvm_envm::CellTechnology;
    use maxnvm_nvsim::{characterize, ArrayRequest, OptTarget};

    fn resnet_bytes() -> Vec<u64> {
        encoded_weight_bytes(&zoo::resnet50(), EncodingKind::BitMask, true)
    }

    fn ctt_source() -> WeightSource {
        WeightSource::Envm(
            characterize(
                &ArrayRequest::new(CellTechnology::MlcCtt, 50_000_000, 2),
                OptTarget::ReadEdp,
            )
            .expect("feasible organization"),
        )
    }

    #[test]
    fn resnet50_is_compute_bound_on_1024_macs() {
        // ~4.1 GMACs on ~1638 effective int8 MACs/cycle -> ~2.5M cycles
        // -> hundreds of FPS (paper Table 4: ~220 on its arrays).
        let model = zoo::resnet50();
        let report = evaluate(
            &model,
            &NvdlaConfig::nvdla_1024(),
            &WeightSource::Dram,
            &resnet_bytes(),
        );
        assert!(
            (150.0..600.0).contains(&report.fps),
            "baseline FPS {}",
            report.fps
        );
    }

    #[test]
    fn nvdla_64_is_an_order_slower() {
        let model = zoo::resnet50();
        let big = evaluate(
            &model,
            &NvdlaConfig::nvdla_1024(),
            &WeightSource::Dram,
            &resnet_bytes(),
        );
        let small = evaluate(
            &model,
            &NvdlaConfig::nvdla_64(),
            &WeightSource::Dram,
            &resnet_bytes(),
        );
        assert!(big.fps > 8.0 * small.fps, "{} vs {}", big.fps, small.fps);
    }

    #[test]
    fn ctt_envm_cuts_power_3x_on_nvdla64() {
        // §5.2: overall average system power reduction of 3.2x (NVDLA-64).
        let model = zoo::resnet50();
        let bytes = resnet_bytes();
        let cfg = NvdlaConfig::nvdla_64();
        let base = evaluate(&model, &cfg, &WeightSource::Dram, &bytes);
        let envm = evaluate(&model, &cfg, &ctt_source(), &bytes);
        let ratio = base.avg_power_mw / envm.avg_power_mw;
        assert!(
            (2.2..4.5).contains(&ratio),
            "power ratio {ratio} (paper 3.2x): base {} envm {}",
            base.avg_power_mw,
            envm.avg_power_mw
        );
    }

    #[test]
    fn ctt_envm_cuts_energy_per_inference() {
        // §1/§9: up to 3.5x lower energy per inference at max frame rate.
        let model = zoo::resnet50();
        let bytes = resnet_bytes();
        let cfg = NvdlaConfig::nvdla_64();
        let base = evaluate(&model, &cfg, &WeightSource::Dram, &bytes);
        let envm = evaluate(&model, &cfg, &ctt_source(), &bytes);
        let ratio = base.energy_per_inference_mj / envm.energy_per_inference_mj;
        assert!((2.2..4.5).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn envm_keeps_performance_competitive() {
        // §5.1: CTT maintains performance within ~10% of the baseline.
        let model = zoo::resnet50();
        let bytes = resnet_bytes();
        let cfg = NvdlaConfig::nvdla_1024();
        let base = evaluate(&model, &cfg, &WeightSource::Dram, &bytes);
        let envm = evaluate(&model, &cfg, &ctt_source(), &bytes);
        assert!(
            envm.fps > 0.7 * base.fps,
            "envm {} vs base {}",
            envm.fps,
            base.fps
        );
    }

    #[test]
    fn weight_bound_detection() {
        let cfg = NvdlaConfig::nvdla_64();
        // Tiny compute, huge weight stream: weight bound.
        let p = layer_perf(1_000, 10_000_000, 100, 100, 0, &cfg);
        assert!(p.is_weight_bound());
        // Huge compute, trivial weights: compute bound.
        let p = layer_perf(1_000_000_000, 10, 100, 100, 0, &cfg);
        assert!(!p.is_weight_bound());
        assert_eq!(p.cycles, p.compute_cycles);
    }

    #[test]
    fn spill_accounting() {
        assert_eq!(activation_spill_bytes(1000, 1000, 1500), 500);
        assert_eq!(activation_spill_bytes(100, 100, 1500), 0);
    }

    #[test]
    fn recurrent_workloads_benefit_more_from_envm() {
        // §5.2: "energy reduction due to memory fetches would be
        // increasingly beneficial in contexts that exhibit less re-use of
        // fetched parameters (e.g., recurrent neural networks)".
        let cfg = NvdlaConfig::nvdla_64();
        let eval_ratio = |model: &maxnvm_dnn::zoo::ModelSpec| {
            let bytes = encoded_weight_bytes(model, EncodingKind::BitMask, true);
            let cells: u64 = bytes.iter().map(|b| b * 8 / 2).sum();
            let envm = WeightSource::Envm(
                characterize(
                    &ArrayRequest::new(CellTechnology::MlcCtt, cells.max(1_000_000), 2),
                    OptTarget::ReadEdp,
                )
                .expect("feasible organization"),
            );
            let base = evaluate(model, &cfg, &WeightSource::Dram, &bytes);
            let ours = evaluate(model, &cfg, &envm, &bytes);
            base.weight_energy_mj / ours.weight_energy_mj.max(1e-12)
        };
        let cnn = eval_ratio(&zoo::resnet50());
        let rnn = eval_ratio(&zoo::keyword_lstm());
        // Per-inference *weight-fetch* energy saving is similar per byte,
        // but the RNN refetches 16x, so its absolute saving per inference
        // dominates its energy budget.
        let rnn_model = zoo::keyword_lstm();
        let bytes = encoded_weight_bytes(&rnn_model, EncodingKind::BitMask, true);
        let base_rnn = evaluate(&rnn_model, &cfg, &WeightSource::Dram, &bytes);
        let cnn_model = zoo::resnet50();
        let bytes_c = encoded_weight_bytes(&cnn_model, EncodingKind::BitMask, true);
        let base_cnn = evaluate(&cnn_model, &cfg, &WeightSource::Dram, &bytes_c);
        let rnn_share = base_rnn.weight_energy_mj / base_rnn.energy_per_inference_mj;
        let cnn_share = base_cnn.weight_energy_mj / base_cnn.energy_per_inference_mj;
        assert!(
            rnn_share > 2.0 * cnn_share,
            "weight-fetch share: RNN {rnn_share:.3} vs CNN {cnn_share:.3}"
        );
        let _ = (cnn, rnn);
    }

    #[test]
    fn fetch_passes_multiply_weight_traffic() {
        let mut model = zoo::resnet50();
        let bytes = encoded_weight_bytes(&model, EncodingKind::BitMask, false);
        let cfg = NvdlaConfig::nvdla_64();
        let once = evaluate(&model, &cfg, &WeightSource::Dram, &bytes);
        for l in &mut model.layers {
            l.fetch_passes = 4;
        }
        let four = evaluate(&model, &cfg, &WeightSource::Dram, &bytes);
        let ratio = four.weight_energy_mj / once.weight_energy_mj;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn per_layer_report_finds_vgg16s_fc_bottleneck() {
        // The §6 motivation: VGG16's fat FC layers are DRAM-bound on the
        // baseline while early convs are compute/SRAM-bound.
        let model = zoo::vgg16();
        let bytes = encoded_weight_bytes(&model, EncodingKind::Csr, false);
        let reports = per_layer_report(
            &model,
            &NvdlaConfig::nvdla_1024(),
            &WeightSource::Dram,
            &bytes,
        );
        assert_eq!(reports.len(), model.layers.len());
        let fc6 = reports.iter().find(|r| r.name == "fc6").unwrap();
        assert_eq!(fc6.bottleneck, Bottleneck::Dram, "{fc6:?}");
        let conv3 = reports.iter().find(|r| r.name == "conv3").unwrap();
        assert_ne!(conv3.bottleneck, Bottleneck::Dram, "{conv3:?}");
        // Report cycles equal the evaluate() totals.
        let total: u64 = reports.iter().map(|r| r.cycles).sum();
        let sys = evaluate(
            &model,
            &NvdlaConfig::nvdla_1024(),
            &WeightSource::Dram,
            &bytes,
        );
        assert_eq!(total, sys.cycles_per_inference);
    }

    #[test]
    fn energy_shares_sum_to_total() {
        let model = zoo::vgg16();
        let bytes = encoded_weight_bytes(&model, EncodingKind::Csr, false);
        let r = evaluate(
            &model,
            &NvdlaConfig::nvdla_1024(),
            &WeightSource::Dram,
            &bytes,
        );
        let sum = r.weight_energy_mj
            + r.activation_energy_mj
            + r.datapath_energy_mj
            + r.background_energy_mj;
        assert!((sum / r.energy_per_inference_mj - 1.0).abs() < 1e-9);
    }
}
