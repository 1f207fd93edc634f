//! Regenerates paper Fig. 10: average energy per ResNet50 inference as a
//! function of frame rate — on-chip MLC eNVM vs "DRAM always on" vs
//! "DRAM wake up".

use maxnvm::{baseline_design, optimal_design, CellTechnology, NvdlaConfig};
use maxnvm_bench::println;
use maxnvm_dnn::zoo;
use maxnvm_encoding::EncodingKind;
use maxnvm_nvdla::nonvolatility::{
    always_on_crossover_fps, average_energy_per_inference_mj, IdlePolicy,
};
use maxnvm_nvdla::perf::encoded_weight_bytes;

fn main() {
    let model = zoo::resnet50();
    let cfg = NvdlaConfig::nvdla_1024();
    let base = baseline_design(&model, &cfg);
    let ctt = optimal_design(&model, CellTechnology::MlcCtt).expect("design");
    let rram = optimal_design(&model, CellTechnology::MlcRram).expect("design");
    let total_bytes: u64 = encoded_weight_bytes(&model, EncodingKind::BitMask, false)
        .iter()
        .sum();

    println!("Fig. 10: average energy per ResNet50 inference vs frame rate (NVDLA-1024)\n");
    println!(
        "{:>5} {:>16} {:>16} {:>14} {:>14} {:>10}",
        "FPS", "DRAM always-on", "DRAM wake-up", "MLC-CTT", "MLC-RRAM", "CTT gain"
    );
    for fps in [1.0, 5.0, 10.0, 22.0, 30.0, 60.0, 90.0, 120.0] {
        if fps > base.fps {
            break;
        }
        let on =
            average_energy_per_inference_mj(&base, &cfg, IdlePolicy::AlwaysOn, fps, total_bytes);
        let wake =
            average_energy_per_inference_mj(&base, &cfg, IdlePolicy::WakeUp, fps, total_bytes);
        let e_ctt = average_energy_per_inference_mj(
            &ctt.system_1024,
            &cfg,
            IdlePolicy::Envm,
            fps.min(ctt.system_1024.fps),
            total_bytes,
        );
        let e_rram = average_energy_per_inference_mj(
            &rram.system_1024,
            &cfg,
            IdlePolicy::Envm,
            fps.min(rram.system_1024.fps),
            total_bytes,
        );
        println!(
            "{:>5.0} {:>14.2}mJ {:>14.2}mJ {:>12.2}mJ {:>12.2}mJ {:>9.1}x",
            fps,
            on,
            wake,
            e_ctt,
            e_rram,
            on.min(wake) / e_ctt
        );
    }
    println!(
        "\nAlways-on vs wake-up crossover: {:.1} FPS (paper: ~22 FPS)",
        always_on_crossover_fps(&cfg, total_bytes)
    );
    println!("Shape checks (paper): 5.3-7.5x eNVM advantage at low frame rates,");
    println!("1.7-2.5x at 90 FPS (VR); wake-up beats always-on below the crossover.");
}
