//! Regenerates paper Fig. 9: NVDLA energy per ResNet50 inference, average
//! power, and frames per second for NVDLA-64 and NVDLA-1024, comparing
//! the LPDDR4-DRAM baseline with the four eNVM proposals.

use maxnvm::{baseline_design, optimal_design, CellTechnology, NvdlaConfig};
use maxnvm_bench::println;
use maxnvm_dnn::zoo;

fn main() {
    let model = zoo::resnet50();
    println!("Fig. 9: ResNet50 inference on NVDLA\n");
    for cfg in [NvdlaConfig::nvdla_64(), NvdlaConfig::nvdla_1024()] {
        println!("== {} ==", cfg.name);
        println!(
            "{:<18} {:>14} {:>12} {:>10}",
            "Weight store", "Energy(mJ/inf)", "Power(mW)", "FPS"
        );
        let base = baseline_design(&model, &cfg);
        println!(
            "{:<18} {:>14.3} {:>12.1} {:>10.1}",
            "LPDDR4 DRAM", base.energy_per_inference_mj, base.avg_power_mw, base.fps
        );
        for tech in CellTechnology::ALL {
            let d = optimal_design(&model, tech).expect("design");
            let r = if cfg.macs == 64 {
                &d.system_64
            } else {
                &d.system_1024
            };
            println!(
                "{:<18} {:>14.3} {:>12.1} {:>10.1}",
                tech.name(),
                r.energy_per_inference_mj,
                r.avg_power_mw,
                r.fps
            );
        }
        // Headline ratios for this configuration.
        let ctt = optimal_design(&model, CellTechnology::MlcCtt).expect("design");
        let r = if cfg.macs == 64 {
            &ctt.system_64
        } else {
            &ctt.system_1024
        };
        println!(
            "-> MLC-CTT vs DRAM: {:.1}x energy, {:.1}x power (paper: 3.5x / 3.2x at NVDLA-64; ~1.6x power at NVDLA-1024)",
            base.energy_per_inference_mj / r.energy_per_inference_mj,
            base.avg_power_mw / r.avg_power_mw
        );
        println!();
    }
}
