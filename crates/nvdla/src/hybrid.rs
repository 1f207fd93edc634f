//! The §6 hybrid memory solution (Fig. 7c, Fig. 11): a fixed on-chip area
//! budget split between activation SRAM and weight eNVM, with DRAM taking
//! the overflow of both.
//!
//! The eNVM is *not* a cache: on-chip eNVM and DRAM hold mutually
//! exclusive weight sets, both feeding the datapath directly. Layers are
//! placed greedily, most-DRAM-bottlenecked first.

use crate::config::NvdlaConfig;
use crate::perf::{evaluate, layer_perf, SystemReport};
use crate::source::WeightSource;
use maxnvm_dnn::zoo::ModelSpec;
use maxnvm_envm::CellTechnology;
use maxnvm_nvsim::sram::SramMacro;
use maxnvm_nvsim::{characterize, ArrayDesign, ArrayRequest, NvsimError, OptTarget};

/// One point of the Fig. 11 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridPoint {
    /// Fraction of the on-chip area budget given to eNVM.
    pub envm_fraction: f64,
    /// Resulting eNVM capacity (bits).
    pub envm_capacity_bits: u64,
    /// Layers whose weights were placed on-chip.
    pub layers_on_chip: usize,
    /// Full system evaluation at this split.
    pub report: SystemReport,
    /// FPS relative to the all-SRAM (fraction 0) baseline.
    pub relative_performance: f64,
    /// Energy per inference relative to the all-SRAM baseline.
    pub relative_energy: f64,
}

/// Largest eNVM macro (in cells) fitting within `area_mm2`, by scaling a
/// reference characterization and refining once (area is near-linear in
/// cells for fixed organization).
///
/// # Errors
///
/// Propagates [`NvsimError`] if the reference array cannot be
/// characterized.
pub fn capacity_cells_for_area(
    tech: CellTechnology,
    bits_per_cell: u8,
    area_mm2: f64,
) -> Result<u64, NvsimError> {
    assert!(area_mm2 > 0.0, "empty area budget");
    let ref_cells = 10_000_000u64;
    let reference = characterize(
        &ArrayRequest::new(tech, ref_cells, bits_per_cell),
        OptTarget::ReadEdp,
    )?;
    let mut cells = (ref_cells as f64 * area_mm2 / reference.area_mm2) as u64;
    // One refinement step against the actual (discrete) characterization.
    if cells > 0 {
        let d = characterize(
            &ArrayRequest::new(tech, cells, bits_per_cell),
            OptTarget::ReadEdp,
        )?;
        cells = (cells as f64 * area_mm2 / d.area_mm2) as u64;
    }
    Ok(cells)
}

/// Greedy placement: layers sorted by how badly they are DRAM-bottlenecked
/// (weight-fetch cycles minus their other bottleneck), filled while eNVM
/// capacity remains; the layer that exhausts the capacity is split across
/// eNVM and DRAM (§6: "selectively read certain weights from eNVM").
/// Returns the per-layer on-chip fraction.
pub fn greedy_placement(
    model: &ModelSpec,
    cfg: &NvdlaConfig,
    weight_bytes: &[u64],
    capacity_bits: u64,
) -> Vec<f64> {
    let sram_bytes = cfg.sram_kb as u64 * 1024;
    let mut severity: Vec<(usize, i64)> = model
        .layers
        .iter()
        .zip(weight_bytes)
        .enumerate()
        .map(|(i, (l, &wb))| {
            let spill = crate::perf::activation_spill_bytes(l.in_elems, l.out_elems, sram_bytes);
            let wc = (wb as f64 / cfg.bytes_per_cycle(cfg.dram_bw_gbps)).ceil() as u64;
            let p = layer_perf(l.macs, wc, l.in_elems, l.out_elems, spill, cfg);
            let other = p.compute_cycles.max(p.activation_cycles);
            (i, p.weight_cycles as i64 - other as i64)
        })
        .collect();
    severity.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    let mut fractions = vec![0.0f64; model.layers.len()];
    let mut remaining = capacity_bits;
    for (i, _) in severity {
        if remaining == 0 {
            break;
        }
        let need = weight_bytes[i] * 8;
        if need == 0 {
            fractions[i] = 1.0;
            continue;
        }
        let take = need.min(remaining);
        fractions[i] = take as f64 / need as f64;
        remaining -= take;
    }
    fractions
}

/// Sweeps the on-chip area split for a model (Fig. 11).
///
/// `fractions` are the eNVM shares of `area_budget_mm2` to evaluate;
/// fraction 0 (the all-SRAM baseline) is always evaluated first as the
/// normalization point.
/// # Errors
///
/// Propagates [`NvsimError`] if the eNVM macro at any split cannot be
/// characterized.
pub fn sweep_hybrid(
    model: &ModelSpec,
    base_cfg: &NvdlaConfig,
    tech: CellTechnology,
    bits_per_cell: u8,
    area_budget_mm2: f64,
    weight_bytes: &[u64],
    fractions: &[f64],
) -> Result<Vec<HybridPoint>, NvsimError> {
    let eval_at = |fraction: f64| -> Result<(u64, usize, SystemReport), NvsimError> {
        let sram_area = area_budget_mm2 * (1.0 - fraction);
        let sram = SramMacro::fit_in_area(sram_area).unwrap_or_else(|| SramMacro::new(64 * 1024));
        let mut cfg = base_cfg.clone();
        cfg.sram_kb = (sram.bytes / 1024) as u32;
        cfg.sram_bw_gbps = sram.bandwidth_gbps;
        if fraction <= 0.0 {
            let report = evaluate(model, &cfg, &WeightSource::Dram, weight_bytes);
            return Ok((0, 0, report));
        }
        let cells = capacity_cells_for_area(tech, bits_per_cell, area_budget_mm2 * fraction)?;
        let envm: ArrayDesign = characterize(
            &ArrayRequest::new(tech, cells.max(1), bits_per_cell),
            OptTarget::ReadEdp,
        )?;
        let capacity_bits = envm.request.capacity_bits();
        let fractions = greedy_placement(model, &cfg, weight_bytes, capacity_bits);
        let on_chip = fractions.iter().filter(|&&f| f > 0.0).count();
        let source = WeightSource::Hybrid { envm, fractions };
        let report = evaluate(model, &cfg, &source, weight_bytes);
        Ok((capacity_bits, on_chip, report))
    };

    let (_, _, baseline) = eval_at(0.0)?;
    fractions
        .iter()
        .map(|&fraction| {
            let (envm_capacity_bits, layers_on_chip, report) = eval_at(fraction)?;
            Ok(HybridPoint {
                envm_fraction: fraction,
                envm_capacity_bits,
                layers_on_chip,
                relative_performance: report.fps / baseline.fps,
                relative_energy: report.energy_per_inference_mj / baseline.energy_per_inference_mj,
                report,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::encoded_weight_bytes;
    use maxnvm_dnn::zoo;
    use maxnvm_encoding::EncodingKind;

    fn vgg16_sweep() -> Vec<HybridPoint> {
        let model = zoo::vgg16();
        let bytes = encoded_weight_bytes(&model, EncodingKind::Csr, false);
        sweep_hybrid(
            &model,
            &NvdlaConfig::nvdla_1024(),
            CellTechnology::MlcCtt,
            3,
            1.0,
            &bytes,
            &[0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9],
        )
        .expect("feasible hybrid sweep")
    }

    #[test]
    fn capacity_scales_with_area() {
        let half = capacity_cells_for_area(CellTechnology::MlcCtt, 3, 0.5).expect("feasible");
        let one = capacity_cells_for_area(CellTechnology::MlcCtt, 3, 1.0).expect("feasible");
        let ratio = one as f64 / half as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn greedy_prefers_weight_bound_layers() {
        let model = zoo::vgg16();
        let bytes = encoded_weight_bytes(&model, EncodingKind::Csr, false);
        let cfg = NvdlaConfig::nvdla_1024();
        // Capacity for roughly the fully connected layers (the most
        // DRAM-bottlenecked in VGG16).
        let placed = greedy_placement(&model, &cfg, &bytes, 20 * 8 * 1024 * 1024);
        let fc6_idx = model.layers.iter().position(|l| l.name == "fc6").unwrap();
        assert!(
            placed[fc6_idx] > 0.0,
            "fc6 (most weight-bound) must be placed first"
        );
        assert!(
            placed.iter().any(|&f| f < 1.0),
            "capacity should not fit everything"
        );
    }

    #[test]
    fn some_envm_beats_none() {
        // Fig. 11: there is initial benefit from alleviating the weight
        // DRAM bottleneck — some interior split must beat the all-SRAM
        // baseline on both performance and energy.
        let points = vgg16_sweep();
        let best_perf = points
            .iter()
            .filter(|p| p.envm_fraction > 0.0)
            .map(|p| p.relative_performance)
            .fold(0.0f64, f64::max);
        assert!(
            best_perf > 1.0,
            "no split outperforms all-SRAM: best {best_perf}"
        );
        let best_energy = points
            .iter()
            .filter(|p| p.envm_fraction > 0.0)
            .map(|p| p.relative_energy)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_energy < 1.0,
            "no split cuts energy: best {best_energy}"
        );
    }

    #[test]
    fn too_much_envm_starves_the_sram() {
        // Fig. 11: performance sharply degrades when SRAM can no longer
        // hold the intermediate working set.
        let points = vgg16_sweep();
        let mid = points.iter().find(|p| p.envm_fraction == 0.45).unwrap();
        let extreme = points.iter().find(|p| p.envm_fraction == 0.9).unwrap();
        assert!(
            extreme.relative_performance < mid.relative_performance,
            "90% eNVM {} should be worse than 45% {}",
            extreme.relative_performance,
            mid.relative_performance
        );
    }

    #[test]
    fn energy_optimum_sits_mid_sweep() {
        // §6: lowest energy per inference around ~45% eNVM.
        let points = vgg16_sweep();
        let best = points
            .iter()
            .min_by(|a, b| a.relative_energy.partial_cmp(&b.relative_energy).unwrap())
            .unwrap();
        assert!(
            (0.1..0.8).contains(&best.envm_fraction),
            "energy optimum at {}",
            best.envm_fraction
        );
    }

    #[test]
    fn placement_respects_capacity() {
        let model = zoo::vgg16();
        let bytes = encoded_weight_bytes(&model, EncodingKind::Csr, false);
        let cfg = NvdlaConfig::nvdla_1024();
        let cap = 4 * 8 * 1024 * 1024u64;
        let placed = greedy_placement(&model, &cfg, &bytes, cap);
        let used: f64 = placed
            .iter()
            .zip(&bytes)
            .map(|(&f, &b)| f * (b * 8) as f64)
            .sum();
        assert!(used <= cap as f64 + 8.0);
        assert!(used > 0.0);
    }
}
