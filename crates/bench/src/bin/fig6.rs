//! Regenerates paper Fig. 6: minimal number of eNVM cells per DNN and per
//! encoding strategy such that classification accuracy is preserved, for
//! MLC-CTT, MLC-RRAM, and the SLC baseline — the result of the exhaustive
//! bits-per-cell / protection design-space exploration.

use maxnvm_bench::println;
use maxnvm_dnn::zoo::ModelSpec;
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, SenseAmp};
use maxnvm_faultsim::dse::{
    explore_spec, explore_spec_per_layer, minimal_cells, minimal_cells_for_encoding,
};

fn main() {
    let sa = SenseAmp::paper_default();
    println!("Fig. 6: minimal eNVM cells (millions) per DNN x encoding x technology\n");
    for spec in ModelSpec::paper_models() {
        println!(
            "== {} ({}, sparsity {:.1}%, {}b indices, ITN {:.2}%) ==",
            spec.name,
            spec.dataset,
            spec.paper.sparsity * 100.0,
            spec.paper.cluster_index_bits,
            spec.paper.itn_bound * 100.0
        );
        println!(
            "{:<18} {:>12} {:>12} {:>12}",
            "encoding", "MLC-CTT", "MLC-RRAM", "SLC-RRAM"
        );
        let techs = [
            CellTechnology::MlcCtt,
            CellTechnology::MlcRram,
            CellTechnology::SlcRram,
        ];
        let points: Vec<_> = techs
            .iter()
            .map(|&t| explore_spec(&spec, t, &sa, spec.paper.itn_bound))
            .collect();
        let bars: [(&str, EncodingKind, Option<bool>); 4] = [
            ("P+C", EncodingKind::DenseClustered, None),
            ("CSR", EncodingKind::Csr, None),
            ("BitMask", EncodingKind::BitMask, Some(false)),
            ("BitM+IdxSync", EncodingKind::BitMask, Some(true)),
        ];
        for (label, enc, sync) in bars {
            let mut row = format!("{label:<18}");
            for pts in &points {
                let cells = minimal_cells_for_encoding(pts, enc, sync)
                    .map(|p| format!("{:.1}", p.cells as f64 / 1e6))
                    .unwrap_or_else(|| "fail".into());
                row += &format!(" {cells:>12}");
            }
            println!("{row}");
        }
        for (t, pts) in techs.iter().zip(&points) {
            if let Some(best) = minimal_cells(pts) {
                println!(
                    "  optimal on {}: {} with {:.1}M cells (max {} bits/cell)",
                    t.name(),
                    best.scheme.label(),
                    best.cells as f64 / 1e6,
                    best.scheme.max_bpc().bits()
                );
            }
        }
        // Extension: per-layer mixed encodings ("CSR applied per layer
        // where worthwhile", §3.2.1).
        let (mixed, mixed_cells) =
            explore_spec_per_layer(&spec, CellTechnology::MlcCtt, &sa, spec.paper.itn_bound)
                .expect("SLC always passes");
        let distinct: std::collections::BTreeSet<String> =
            mixed.iter().map(|s| s.label()).collect();
        println!(
            "  per-layer mix on MLC-CTT: {:.1}M cells using {{{}}}",
            mixed_cells as f64 / 1e6,
            distinct.into_iter().collect::<Vec<_>>().join(", ")
        );
        println!();
    }
    println!("Shape checks (paper): savings come from sparse encodings AND from");
    println!("packing more bits per cell under protection; BitM+IdxSync beats plain");
    println!("BitMask (e.g. -22% cells for VGG16); fewest stored bits is not always");
    println!("fewest cells.");
}
