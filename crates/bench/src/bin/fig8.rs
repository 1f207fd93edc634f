//! Regenerates paper Fig. 8: optimal area and dynamic read energy of the
//! memories characterized to hold each model's weights on-chip, for all
//! four eNVM proposals.

use maxnvm::{optimal_design, CellTechnology};
use maxnvm_bench::println;
use maxnvm_dnn::zoo;

fn main() {
    println!("Fig. 8: read-EDP-optimal on-chip weight memories per model\n");
    for spec in [zoo::vgg12(), zoo::vgg16(), zoo::resnet50()] {
        println!("== {} ==", spec.name);
        println!(
            "{:<16} {:<18} {:>4} {:>9} {:>11} {:>10} {:>12} {:>9}",
            "Technology",
            "Encoding",
            "BPC",
            "Cap(MB)",
            "Area(mm2)",
            "Read(ns)",
            "Energy(pJ)",
            "BW(GB/s)"
        );
        for tech in CellTechnology::ALL {
            let d = optimal_design(&spec, tech).expect("design");
            println!(
                "{:<16} {:<18} {:>4} {:>9.1} {:>11.2} {:>10.2} {:>12.2} {:>9.1}",
                tech.name(),
                d.scheme_label,
                d.max_bits_per_cell,
                d.capacity_mb,
                d.array.area_mm2,
                d.array.read_latency_ns,
                d.array.read_energy_pj,
                d.array.read_bandwidth_gbps
            );
        }
        println!();
    }
    println!("Shape checks (paper): Opt MLC-RRAM smallest area, then MLC-CTT,");
    println!("MLC-RRAM, SLC-RRAM (CTT ~9.6x denser than SLC on average); MLC-CTT");
    println!("read energy >4x below Opt MLC-RRAM.");
}
