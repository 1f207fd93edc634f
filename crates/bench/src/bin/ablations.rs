//! Ablation studies for the design choices this reproduction makes —
//! each knob the paper fixes (or leaves implicit) swept in isolation.
//!
//! ```sh
//! cargo run --release -p maxnvm-bench --bin ablations
//! ```

use maxnvm_bench::println;
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_ecc::{BlockCodec, SecDed};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::csr::CsrLayer;
use maxnvm_encoding::estimate::LayerGeometry;
use maxnvm_encoding::quantize::{min_bits_for_mse, FixedPoint};
use maxnvm_encoding::storage::StorageScheme;
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::level::{CellModel, LevelDistribution};
use maxnvm_envm::retention::{years_to_rate, RetentionParams};
use maxnvm_envm::{CellTechnology, EnduranceModel, MlcConfig, SenseAmp, WriteModel};
use maxnvm_faultsim::analytic::layer_damage;
use rand::{Rng, SeedableRng};

fn main() {
    guard_gap();
    sense_amp_sizing();
    ecc_codeword_size();
    idxsync_block_size();
    csr_index_modes();
    clustering_vs_fixed_point();
    endurance();
    retention();
}

/// §2.2.1: "we separate the unprogrammed and first programmed state to
/// minimize read errors" — what happens without the guard gap?
fn guard_gap() {
    println!("== Ablation 1: CTT guard gap ==");
    let with_gap = CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3);
    // Same sigmas, but evenly spaced levels (no extra separation).
    let s0 = with_gap.levels()[0].sigma;
    let sp = with_gap.levels()[1].sigma;
    let no_gap = CellModel::new(
        (0..8)
            .map(|i| LevelDistribution::new(i as f64 / 7.0, if i == 0 { s0 } else { sp }))
            .collect(),
    );
    let a = with_gap.fault_map();
    let b = no_gap.fault_map();
    println!(
        "  unprogrammed-pair misread:  with gap {:.2e}   without {:.2e}  ({:.0}x worse)",
        a.p_up(0),
        b.p_up(0),
        b.p_up(0) / a.p_up(0)
    );
    println!(
        "  worst adjacent rate:        with gap {:.2e}   without {:.2e}\n",
        a.worst_adjacent_rate(),
        b.worst_adjacent_rate()
    );
}

/// §2.3: the sense-amp sizing study — offset vs area vs fault inflation.
fn sense_amp_sizing() {
    println!("== Ablation 2: sense-amp input-pair sizing (Pelgrom) ==");
    println!(
        "  {:>6} {:>12} {:>10} {:>16}",
        "size", "offset σ", "rel area", "MLC3 inflation"
    );
    let cell = CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3);
    let base = cell.fault_map().worst_adjacent_rate();
    for size in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let sa = SenseAmp::with_size_factor(size);
        let with = cell.with_sense_amp(&sa).fault_map().worst_adjacent_rate();
        println!(
            "  {size:>5}x {:>12.4} {:>10.2} {:>15.2}x",
            sa.input_referred_offset_sigma(),
            sa.relative_area(),
            with / base
        );
    }
    println!("  (the paper-default 1.0x keeps inflation < 2x at <1% overhead)\n");
}

/// ECC codeword size: overhead vs expected uncorrectable events at
/// VGG16's column-index scale.
fn ecc_codeword_size() {
    println!("== Ablation 3: SEC-DED codeword size (VGG16 column indexes) ==");
    println!(
        "  {:>10} {:>10} {:>20}",
        "codeword", "overhead", "E[uncorrectable]/model"
    );
    let geom = LayerGeometry::from_sparsity(4096, 25088, 0.811); // fc6 as proxy
    let sa = SenseAmp::paper_default();
    for (label, data_bits) in [
        ("64B", 64usize * 8),
        ("512B (ours)", 512 * 8),
        ("4KB (paper)", 4096 * 8),
    ] {
        let code = SecDed::new(data_bits);
        let mut scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3).with_ecc();
        scheme.ecc_code = code;
        let d = layer_damage(geom, 6, &scheme, CellTechnology::MlcCtt, &sa);
        println!(
            "  {label:>10} {:>9.2}% {:>20.3}",
            code.overhead() * 100.0,
            // corrupted weights per layer ~ residual events x row/2.
            d.corrupted_weight_fraction * (geom.rows * geom.cols) as f64
                / (geom.nnz as f64 / geom.rows as f64)
        );
    }
    println!("  (smaller codewords trade overhead for residual-risk margin)\n");
}

/// IdxSync block size: counter overhead vs damage confinement.
fn idxsync_block_size() {
    println!("== Ablation 4: IdxSync block size (VGG16 fc6) ==");
    println!(
        "  {:>10} {:>14} {:>18}",
        "block", "counter bits", "E[m_rel] at MLC3"
    );
    let geom = LayerGeometry::from_sparsity(4096, 25088, 0.811);
    let sa = SenseAmp::paper_default();
    for block in [256usize, 1024, 4096, 16384] {
        let mut scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3)
            .with_idx_sync()
            .with_sync_block_bits(block);
        // Counters in SLC: isolate the confinement effect of the block
        // size from counter vulnerability.
        scheme.bpc.sync_counter = MlcConfig::SLC;
        let d = layer_damage(geom, 6, &scheme, CellTechnology::MlcCtt, &sa);
        let counters = (geom.rows * geom.cols).div_ceil(block as u64)
            * maxnvm_encoding::bitmask::sync_counter_bits_for(block) as u64;
        println!("  {block:>9}b {:>14} {:>18.3e}", counters, d.relative_mse);
    }
    println!("  (smaller blocks confine damage better but cost more counter bits)\n");
}

/// §4.2: relative vs absolute column indexes vs relative+ECC.
fn csr_index_modes() {
    println!("== Ablation 5: CSR column-index mode (16x1024 layer, 80% sparse) ==");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let data: Vec<f32> = (0..16 * 1024)
        .map(|_| {
            if rng.gen::<f64>() < 0.8 {
                0.0
            } else {
                rng.gen::<f32>() - 0.5
            }
        })
        .collect();
    let c = ClusteredLayer::from_matrix(&LayerMatrix::new("l", 16, 1024, data), 6, 1);
    let rel = CsrLayer::encode(&c);
    let abs = CsrLayer::encode_absolute(&c);
    let ecc_bits =
        BlockCodec::new(SecDed::default_512b()).overhead_bits(rel.total_bits() as usize) as u64;
    println!(
        "  relative:        {:>8} bits ({}-bit fields, blast radius: rest of row)",
        rel.total_bits(),
        rel.col_idx_bits
    );
    println!(
        "  relative + ECC:  {:>8} bits (faults corrected)",
        rel.total_bits() + ecc_bits
    );
    println!(
        "  absolute:        {:>8} bits ({}-bit fields, blast radius: one weight)",
        abs.total_bits(),
        abs.col_idx_bits
    );
    println!("  -> absolute costs strictly more than relative+ECC (§4.2)\n");
}

/// §3.1.2: clustering vs fixed-point bits at iso-MSE.
fn clustering_vs_fixed_point() {
    println!("== Ablation 6: clustering vs fixed-point (iso-MSE bits/weight) ==");
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let data: Vec<f32> = (0..128 * 128)
        .map(|_| {
            if rng.gen::<f64>() < 0.6 {
                0.0
            } else {
                (rng.gen::<f32>() - 0.5) + (rng.gen::<f32>() - 0.5)
            }
        })
        .collect();
    let m = LayerMatrix::new("l", 128, 128, data);
    println!(
        "  {:>13} {:>12} {:>16}",
        "cluster bits", "k-means MSE", "fixed-pt bits"
    );
    for bits in [3u8, 4, 5, 6] {
        let c = ClusteredLayer::from_matrix(&m, bits, 3);
        let mse = c.quantization_mse(&m);
        let fp = min_bits_for_mse(&m, mse)
            .map(|b| b.to_string())
            .unwrap_or_else(|| ">16".into());
        println!("  {bits:>13} {mse:>12.3e} {fp:>16}");
    }
    let f8 = FixedPoint::for_range(8, 1.0);
    println!(
        "  (an 8-bit fixed-point format here reaches MSE {:.2e})\n",
        f8.mse(&m)
    );
}

/// §7.1: endurance-limited rewrite schedules.
fn endurance() {
    println!("== Ablation 7: rewrite schedules vs endurance (VGG16-scale, 90M cells) ==");
    println!(
        "  {:>14} {:>12} {:>16} {:>22}",
        "technology", "write time", "10y min interval", "daily-update lifetime"
    );
    for tech in CellTechnology::ALL {
        let w = WriteModel::for_tech(tech).total_write_time_s(90_000_000);
        let e = EnduranceModel::for_tech(tech);
        println!(
            "  {:>14} {:>12} {:>15.0}s {:>21.0}y",
            tech.name(),
            WriteModel::format_duration(w),
            e.min_rewrite_interval_s(10.0),
            e.lifetime_years(24.0 * 3600.0)
        );
    }
    println!("  (CTT: fine for daily updates, hopeless for activation buffering — §6/§7.1)\n");
}

/// Retention: MLC3 fault rates as stored levels age.
fn retention() {
    println!("== Ablation 8: retention drift (MLC3, worst adjacent rate) ==");
    println!(
        "  {:>14} {:>12} {:>12} {:>12} {:>16}",
        "technology", "fresh", "1 year", "10 years", "years to 1e-3"
    );
    for tech in [
        CellTechnology::MlcCtt,
        CellTechnology::MlcRram,
        CellTechnology::OptMlcRram,
    ] {
        let cell = tech.cell_model(MlcConfig::MLC3);
        let p = RetentionParams::for_tech(tech);
        let fresh = cell.fault_map().worst_adjacent_rate();
        let y1 = p.age(&cell, 1.0).fault_map().worst_adjacent_rate();
        let y10 = p.age(&cell, 10.0).fault_map().worst_adjacent_rate();
        let horizon = years_to_rate(tech, &cell, 1e-3);
        println!(
            "  {:>14} {:>12.2e} {:>12.2e} {:>12.2e} {:>15.1}y",
            tech.name(),
            fresh,
            y1,
            y10,
            horizon
        );
    }
    println!("  (CTT's gate-stack storage out-retains the RRAM filaments — [46])");
}
