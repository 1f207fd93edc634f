//! The §5.3 non-volatility study (Fig. 10): average energy per inference
//! as a function of frame rate, comparing eNVM (retains weights when
//! powered off) against a DRAM baseline that either stays powered between
//! frames or reloads all weights on every wake-up.

use crate::config::{NvdlaConfig, DRAM_RELOAD_PJ_PER_BYTE};
use crate::perf::SystemReport;

/// How the DRAM-based baseline bridges the gaps between inferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdlePolicy {
    /// DRAM stays powered to retain weights ("DRAM always on").
    AlwaysOn,
    /// The system powers down and reloads all weights from main memory
    /// before each inference ("DRAM wake up").
    WakeUp,
    /// eNVM: weights are retained with zero standby power.
    Envm,
}

/// Average energy per inference (mJ) at a requested frame rate.
///
/// `report` must come from [`crate::perf::evaluate`] with the matching
/// source; `total_weight_bytes` is the full (encoded) model footprint
/// reloaded on wake-up.
///
/// # Panics
///
/// Panics if `fps` exceeds the system's maximum achievable rate or is not
/// positive.
pub fn average_energy_per_inference_mj(
    report: &SystemReport,
    cfg: &NvdlaConfig,
    policy: IdlePolicy,
    fps: f64,
    total_weight_bytes: u64,
) -> f64 {
    assert!(fps > 0.0, "frame rate must be positive");
    assert!(
        fps <= report.fps * 1.0001,
        "requested {fps} FPS exceeds achievable {}",
        report.fps
    );
    let period_s = 1.0 / fps;
    let exec_s = 1.0 / report.fps;
    let idle_s = (period_s - exec_s).max(0.0);
    match policy {
        IdlePolicy::AlwaysOn => {
            // Keep the DRAM interface powered through the idle gap.
            report.energy_per_inference_mj + cfg.dram_power_mw * idle_s
        }
        IdlePolicy::WakeUp => {
            // Power down between frames; reload every weight on wake.
            report.energy_per_inference_mj
                + total_weight_bytes as f64 * DRAM_RELOAD_PJ_PER_BYTE * 1e-9
        }
        IdlePolicy::Envm => {
            // Non-volatile store: nothing to retain, nothing to reload.
            report.energy_per_inference_mj
        }
    }
}

/// The frame rate below which waking up beats staying on (the §5.3
/// crossover, ~22 FPS for ResNet50): where idle retention energy equals
/// the reload energy.
pub fn always_on_crossover_fps(cfg: &NvdlaConfig, total_weight_bytes: u64) -> f64 {
    let reload_mj = total_weight_bytes as f64 * DRAM_RELOAD_PJ_PER_BYTE * 1e-9;
    // dram_power_mw * (1/fps) ≈ reload_mj  (idle ≈ period at low fps)
    cfg.dram_power_mw / reload_mj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{encoded_weight_bytes, evaluate};
    use crate::source::WeightSource;
    use maxnvm_dnn::zoo;
    use maxnvm_encoding::EncodingKind;
    use maxnvm_envm::CellTechnology;
    use maxnvm_nvsim::{characterize, ArrayRequest, OptTarget};

    fn setup() -> (SystemReport, SystemReport, NvdlaConfig, u64) {
        let model = zoo::resnet50();
        let bytes = encoded_weight_bytes(&model, EncodingKind::BitMask, true);
        let total: u64 = bytes.iter().sum();
        let cfg = NvdlaConfig::nvdla_1024();
        let base = evaluate(&model, &cfg, &WeightSource::Dram, &bytes);
        let envm = evaluate(
            &model,
            &cfg,
            &WeightSource::Envm(
                characterize(
                    &ArrayRequest::new(CellTechnology::MlcCtt, 50_000_000, 2),
                    OptTarget::ReadEdp,
                )
                .expect("feasible organization"),
            ),
            &bytes,
        );
        (base, envm, cfg, total)
    }

    #[test]
    fn envm_wins_big_at_low_frame_rates() {
        // §5.3: 5.3x–7.5x lower energy per inference at <22 FPS.
        let (base, envm, cfg, total) = setup();
        let fps = 10.0;
        let on = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, fps, total);
        let wake = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, fps, total);
        let nv = average_energy_per_inference_mj(&envm, &cfg, IdlePolicy::Envm, fps, total);
        let best_baseline = on.min(wake);
        let ratio = best_baseline / nv;
        assert!(
            (3.0..10.0).contains(&ratio),
            "low-fps advantage {ratio} (paper 5.3–7.5x): on {on} wake {wake} envm {nv}"
        );
    }

    #[test]
    fn envm_still_wins_at_vr_frame_rates() {
        // §5.3: 1.7x–2.5x lower energy even at 90 FPS.
        let (base, envm, cfg, total) = setup();
        let fps = 90.0;
        let on = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, fps, total);
        let wake = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, fps, total);
        let nv = average_energy_per_inference_mj(&envm, &cfg, IdlePolicy::Envm, fps, total);
        let ratio = on.min(wake) / nv;
        assert!((1.3..4.0).contains(&ratio), "90fps advantage {ratio}");
    }

    #[test]
    fn crossover_sits_at_tens_of_fps() {
        // §5.3: below ~22 FPS waking up per inference beats staying on.
        let (_, _, cfg, total) = setup();
        let cross = always_on_crossover_fps(&cfg, total);
        assert!(
            (5.0..80.0).contains(&cross),
            "crossover {cross} FPS (paper ~22)"
        );
        // Verify the crossover is real: wake-up wins below, loses above.
        let (base, _, _, _) = setup();
        let below = cross * 0.5;
        let above = (cross * 2.0).min(base.fps);
        let on_b = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, below, total);
        let wk_b = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, below, total);
        assert!(wk_b < on_b, "below crossover: wake {wk_b} vs on {on_b}");
        let on_a = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, above, total);
        let wk_a = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, above, total);
        assert!(wk_a > on_a, "above crossover: wake {wk_a} vs on {on_a}");
    }

    #[test]
    fn always_on_energy_decreases_with_frame_rate() {
        let (base, _, cfg, total) = setup();
        let lo = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, 5.0, total);
        let hi = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, 60.0, total);
        assert!(lo > hi);
        // Wake-up energy is flat in fps.
        let w1 = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, 5.0, total);
        let w2 = average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, 60.0, total);
        assert!((w1 - w2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds achievable")]
    fn rejects_impossible_frame_rates() {
        let (base, _, cfg, total) = setup();
        average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, base.fps * 2.0, total);
    }
}
