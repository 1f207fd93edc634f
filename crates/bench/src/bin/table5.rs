//! Regenerates paper Table 5: optimistic total time to write all DNN
//! weights per model and eNVM proposal.

use maxnvm::{optimal_design, CellTechnology};
use maxnvm_bench::println;
use maxnvm_dnn::zoo;
use maxnvm_envm::WriteModel;

fn main() {
    println!("Table 5: optimistic total time to write all DNN weights\n");
    let paper: &[(&str, &str, &str)] = &[
        ("VGG12", "Opt MLC-RRAM", "13ms"),
        ("VGG12", "MLC-CTT", "2.6 minutes"),
        ("VGG12", "MLC-RRAM", "33ms"),
        ("VGG12", "SLC-RRAM", "3ms"),
        ("ResNet50", "Opt MLC-RRAM", "117ms"),
        ("ResNet50", "MLC-CTT", "15.7 minutes"),
        ("ResNet50", "MLC-RRAM", "94ms"),
        ("ResNet50", "SLC-RRAM", "4.7ms"),
        ("VGG16", "Opt MLC-RRAM", "254ms"),
        ("VGG16", "MLC-CTT", "12.2 minutes"),
        ("VGG16", "MLC-RRAM", "636ms"),
        ("VGG16", "SLC-RRAM", "23ms"),
    ];
    println!(
        "{:<10} {:<16} {:>18} {:>16}",
        "Model", "Technology", "Write time (ours)", "(paper)"
    );
    for spec in [zoo::vgg12(), zoo::resnet50(), zoo::vgg16()] {
        for tech in CellTechnology::ALL {
            let d = optimal_design(&spec, tech).expect("design");
            let p = paper
                .iter()
                .find(|(m, t, _)| *m == spec.name && *t == tech.name())
                .expect("paper row");
            println!(
                "{:<10} {:<16} {:>18} {:>16}",
                spec.name,
                tech.name(),
                WriteModel::format_duration(d.write_time_s),
                p.2
            );
        }
        println!();
    }
    println!("Shape check (paper): CTT rewrites take minutes; RRAM variants");
    println!("milliseconds — orders of magnitude apart.");
}
