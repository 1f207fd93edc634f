//! Regenerates paper Fig. 11: relative VGG16 performance when a fixed
//! 1mm² of on-chip memory is split between activation SRAM and weight
//! eNVM (DRAM takes the overflow of both).

use maxnvm_bench::println;
use maxnvm_dnn::zoo;
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::CellTechnology;
use maxnvm_nvdla::hybrid::sweep_hybrid;
use maxnvm_nvdla::perf::encoded_weight_bytes;
use maxnvm_nvdla::NvdlaConfig;

fn main() {
    let model = zoo::vgg16();
    let bytes = encoded_weight_bytes(&model, EncodingKind::Csr, false);
    let fractions: Vec<f64> = (0..=18).map(|i| i as f64 * 0.05).collect();
    println!("Fig. 11: VGG16 with 1mm2 on-chip memory split SRAM / eNVM (NVDLA-1024)\n");
    for tech in [CellTechnology::MlcCtt, CellTechnology::OptMlcRram] {
        println!("== {} ==", tech.name());
        println!(
            "{:>7} {:>10} {:>8} {:>9} {:>9} {:>10}",
            "eNVM%", "cap(MB)", "layers", "rel perf", "rel E", "FPS"
        );
        let points = sweep_hybrid(
            &model,
            &NvdlaConfig::nvdla_1024(),
            tech,
            3,
            1.0,
            &bytes,
            &fractions,
        )
        .expect("feasible hybrid sweep");
        let mut best_e = (0.0, f64::INFINITY);
        for p in &points {
            if p.relative_energy < best_e.1 {
                best_e = (p.envm_fraction, p.relative_energy);
            }
            println!(
                "{:>6.0}% {:>10.1} {:>8} {:>9.3} {:>9.3} {:>10.1}",
                p.envm_fraction * 100.0,
                p.envm_capacity_bits as f64 / 8.0 / 1024.0 / 1024.0,
                p.layers_on_chip,
                p.relative_performance,
                p.relative_energy,
                p.report.fps
            );
        }
        println!(
            "-> lowest energy at {:.0}% eNVM (paper: ~45%)\n",
            best_e.0 * 100.0
        );
    }
    println!("Shape checks (paper): initial benefit from relieving the weight DRAM");
    println!("bottleneck, then sharp degradation once SRAM can no longer hold the");
    println!("intermediate working set.");
}
