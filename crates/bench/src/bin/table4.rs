//! Regenerates paper Table 4: summary of optimal storage per eNVM
//! proposal, characterized per DNN.

use maxnvm::{optimal_design, CellTechnology};
use maxnvm_bench::println;
use maxnvm_dnn::zoo;

fn main() {
    println!("Table 4: optimal storage per eNVM proposal (ours vs paper in parens)\n");
    // Paper rows: (model, tech, encoding, bpc, MB, area, read ns, fps)
    type PaperRow = (
        &'static str,
        &'static str,
        &'static str,
        u8,
        f64,
        f64,
        f64,
        f64,
    );
    let paper: &[PaperRow] = &[
        (
            "VGG12",
            "Opt MLC-RRAM",
            "BitM+IdxSync",
            3,
            4.0,
            0.12,
            5.1,
            132.0,
        ),
        ("VGG12", "MLC-CTT", "BitMask", 2, 4.0, 0.35, 1.6, 2286.0),
        ("VGG12", "MLC-RRAM", "BitM+IdxSync", 3, 4.0, 1.3, 4.9, 633.0),
        ("VGG12", "SLC-RRAM", "BitMask", 1, 4.0, 3.4, 1.7, 2967.0),
        ("VGG16", "Opt MLC-RRAM", "CSR+ECC", 3, 32.0, 1.3, 4.2, 102.0),
        ("VGG16", "MLC-CTT", "CSR+ECC", 3, 32.0, 2.0, 2.0, 142.0),
        ("VGG16", "MLC-RRAM", "CSR+ECC", 3, 32.0, 5.7, 3.2, 131.0),
        ("VGG16", "SLC-RRAM", "CSR", 1, 32.0, 19.2, 5.2, 147.0),
        (
            "ResNet50",
            "Opt MLC-RRAM",
            "BitM+IdxSync",
            2,
            12.0,
            0.6,
            2.1,
            147.0,
        ),
        (
            "ResNet50",
            "MLC-CTT",
            "BitM+IdxSync",
            2,
            12.0,
            1.0,
            1.9,
            215.0,
        ),
        (
            "ResNet50",
            "MLC-RRAM",
            "BitM+IdxSync",
            2,
            12.0,
            2.8,
            1.4,
            203.0,
        ),
        ("ResNet50", "SLC-RRAM", "BitMask", 1, 12.0, 9.6, 2.5, 219.0),
    ];
    println!(
        "{:<9} {:<14} {:<26} {:>9} {:>13} {:>15} {:>14} {:>16}",
        "Model", "Memory Tech", "Encoding", "BPC", "[MB]", "Area[mm2]", "Read[ns]", "FPS (1024)"
    );
    for spec in [zoo::vgg12(), zoo::vgg16(), zoo::resnet50()] {
        for tech in CellTechnology::ALL {
            let d = optimal_design(&spec, tech).expect("design");
            let p = paper
                .iter()
                .find(|(m, t, ..)| *m == spec.name && *t == tech.name())
                .expect("paper row");
            println!(
                "{:<9} {:<14} {:<26} {:>9} {:>13} {:>15} {:>14} {:>16}",
                spec.name,
                tech.name(),
                format!("{} ({})", d.scheme_label, p.2),
                format!("{} ({})", d.max_bits_per_cell, p.3),
                format!("{:.1} ({:.0})", d.capacity_mb, p.4),
                format!("{:.2} ({:.2})", d.array.area_mm2, p.5),
                format!("{:.1} ({:.1})", d.array.read_latency_ns, p.6),
                format!("{:.0} ({:.0})", d.system_1024.fps, p.7),
            );
        }
        println!();
    }
}
