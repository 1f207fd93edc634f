//! Closed-form expected-corruption model for layers too large to inject
//! concretely (the ImageNet-scale specs of Table 2).
//!
//! For each structure the expected number of cell faults is
//! `λ = cells × mean_fault_rate(bpc)`; ECC reduces this to the expected
//! *uncorrectable* events. Each structure's faults then translate into
//! corrupted weights according to its §4.2 propagation behaviour:
//!
//! | structure      | damage per fault                                  |
//! |----------------|---------------------------------------------------|
//! | values         | 1 weight, decorrelated                            |
//! | column index   | half the remaining row                            |
//! | row counter    | half the remaining layer (all later rows shift)   |
//! | mask (plain)   | everything after the fault                        |
//! | mask (IdxSync) | half the remaining block (Fig. 4)                 |
//! | sync counter   | half the remaining layer (later blocks shift)     |
//!
//! Decorrelated weights contribute `2·E[w²]` of squared error each, so the
//! aggregate relative weight-MSE is `2 × corrupted_fraction`. The model is
//! validated against the Monte-Carlo path in this module's tests.

use maxnvm_encoding::estimate::{encoded_bits_with_block, LayerGeometry};
use maxnvm_encoding::storage::StorageScheme;
use maxnvm_encoding::StructureKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};

/// Expected corruption of one stored layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamageReport {
    /// Expected injected cell faults across all structures.
    pub expected_cell_faults: f64,
    /// Expected fraction of weights decoding to the wrong value.
    pub corrupted_weight_fraction: f64,
    /// Expected relative weight-MSE (`2 ×` the corrupted fraction, since a
    /// decorrelated replacement doubles the per-weight energy error).
    pub relative_mse: f64,
}

/// Mean per-cell fault rate for a technology at a bits-per-cell setting,
/// including the sense-amp offset.
pub fn mean_rate(tech: CellTechnology, bpc: MlcConfig, sa: &SenseAmp) -> f64 {
    if bpc.bits() > tech.max_bits_per_cell() {
        return f64::INFINITY; // unusable configuration
    }
    tech.cell_model(bpc)
        .with_sense_amp(sa)
        .fault_map()
        .mean_fault_rate()
}

/// Expected uncorrectable fault events after SEC-DED, given raw expected
/// faults `lambda` spread over `cells` cells protected in codewords of
/// `cells_per_cw` cells (Poisson approximation: a codeword with ≥2 faults
/// escapes correction, contributing ~2 residual faults).
fn ecc_residual(lambda: f64, cells: f64, cells_per_cw: f64) -> f64 {
    if cells == 0.0 || lambda == 0.0 {
        return 0.0;
    }
    let ncw = (cells / cells_per_cw).max(1.0);
    let lcw = lambda / ncw;
    let p_ge2 = 1.0 - (-lcw).exp() * (1.0 + lcw);
    2.0 * ncw * p_ge2
}

/// Computes the expected damage for one layer under a scheme.
pub fn layer_damage(
    geom: LayerGeometry,
    index_bits: u8,
    scheme: &StorageScheme,
    tech: CellTechnology,
    sa: &SenseAmp,
) -> DamageReport {
    let breakdown = encoded_bits_with_block(
        geom,
        index_bits,
        scheme.encoding,
        scheme.idx_sync,
        scheme.sync_block_bits,
    );
    let nnz = geom.nnz.max(1) as f64;
    let total = (geom.rows * geom.cols).max(1) as f64;
    let rows = geom.rows.max(1) as f64;
    let blocks = ((geom.rows * geom.cols) as f64 / scheme.sync_block_bits as f64).max(1.0);

    let mut expected_cell_faults = 0.0;
    // Corrupted weights, in units of weights (then normalized).
    let mut corrupted = 0.0f64;
    for &(kind, bits) in &breakdown.per_structure {
        if kind == StructureKind::Centroids || bits == 0 {
            continue; // SLC LUT: fault rates below 1e-10, ignored
        }
        let bpc = scheme.bpc.for_kind(kind);
        let rate = mean_rate(tech, bpc, sa);
        let cells = (bits as f64 / bpc.bits() as f64).ceil();
        let raw_lambda = cells * rate;
        expected_cell_faults += raw_lambda;
        let lambda = if scheme.ecc.covers(kind) {
            let cw_cells = (scheme.ecc_code.data_bits() as f64 / bpc.bits() as f64).max(1.0);
            ecc_residual(raw_lambda, cells, cw_cells)
        } else {
            raw_lambda
        };
        if lambda == 0.0 {
            continue;
        }
        corrupted += match kind {
            StructureKind::Values => lambda,
            StructureKind::ColIndex => lambda * (nnz / rows) / 2.0,
            StructureKind::RowCounter | StructureKind::SyncCounter => {
                // All subsequent rows/blocks shift: half the layer per
                // fault, saturating at the whole layer.
                (1.0 - (-lambda).exp()) * nnz / 2.0
            }
            StructureKind::Mask => {
                if scheme.idx_sync {
                    // Confined to the faulted block's remainder (Fig. 4).
                    lambda * (nnz / blocks) / 2.0
                } else if lambda < 1e-6 {
                    // Taylor guard: 1 - (1-e^-λ)/λ → λ/2 as λ → 0, but the
                    // direct form catastrophically cancels below ~1e-15.
                    lambda / 2.0 * nnz
                } else {
                    // Everything after the first fault: expected surviving
                    // prefix is (1 - e^-λ)/λ of the stream.
                    (1.0 - (1.0 - (-lambda).exp()) / lambda) * nnz
                }
            }
            StructureKind::Centroids => 0.0,
        };
    }
    let corrupted_weight_fraction = (corrupted / total).min(1.0);
    DamageReport {
        expected_cell_faults,
        corrupted_weight_fraction,
        // Relative to the energy of the *non-zero* weights (the reference
        // energy is carried by the nnz entries).
        relative_mse: (2.0 * corrupted / nnz).min(2.0),
    }
}

/// Aggregates per-layer damage into a model-level relative MSE (weighted
/// by non-zero count, i.e. by each layer's share of the weight energy).
pub fn aggregate_mse(layers: &[(LayerGeometry, DamageReport)]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (geom, dmg) in layers {
        let w = geom.nnz as f64;
        num += dmg.relative_mse * w;
        den += w;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::fault_maps;
    use crate::evaluate::ProxyEval;
    use maxnvm_dnn::network::LayerMatrix;
    use maxnvm_encoding::cluster::ClusteredLayer;
    use maxnvm_encoding::EncodingKind;
    use rand::{Rng, SeedableRng};

    fn geom() -> LayerGeometry {
        LayerGeometry::from_sparsity(4096, 8192, 0.8)
    }

    #[test]
    fn slc_everything_is_essentially_fault_free() {
        let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::SLC);
        let d = layer_damage(
            geom(),
            6,
            &scheme,
            CellTechnology::SlcRram,
            &SenseAmp::default(),
        );
        assert!(d.relative_mse < 1e-9, "{d:?}");
    }

    #[test]
    fn plain_mask_at_mlc3_is_catastrophic_idxsync_tames_it() {
        let plain = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3);
        let mut synced = plain.clone().with_idx_sync();
        // The tiny counter structure is itself alignment-critical; store it
        // in SLC (costs <1% of cells), as the DSE-optimal points do.
        synced.bpc.sync_counter = MlcConfig::SLC;
        let sa = SenseAmp::default();
        let d_plain = layer_damage(geom(), 6, &plain, CellTechnology::MlcCtt, &sa);
        let d_sync = layer_damage(geom(), 6, &synced, CellTechnology::MlcCtt, &sa);
        // ~11M mask cells/3 at ~5e-6 => tens of faults: plain mask loses
        // most of the layer, IdxSync confines damage to a handful of blocks.
        assert!(
            d_plain.relative_mse > 100.0 * d_sync.relative_mse,
            "plain {} vs sync {}",
            d_plain.relative_mse,
            d_sync.relative_mse
        );
    }

    #[test]
    fn ecc_slashes_csr_metadata_damage() {
        let plain = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3);
        let ecc = plain.clone().with_ecc();
        let sa = SenseAmp::default();
        let d_plain = layer_damage(geom(), 6, &plain, CellTechnology::MlcCtt, &sa);
        let d_ecc = layer_damage(geom(), 6, &ecc, CellTechnology::MlcCtt, &sa);
        assert!(
            d_ecc.relative_mse < d_plain.relative_mse / 20.0,
            "ecc {} vs plain {}",
            d_ecc.relative_mse,
            d_plain.relative_mse
        );
    }

    #[test]
    fn vulnerability_ordering_matches_fig5() {
        // Isolate each structure at MLC3: mask (unprotected) is the most
        // vulnerable, then CSR metadata, then plain values — §4.2's story.
        let sa = SenseAmp::default();
        let tech = CellTechnology::MlcCtt;
        let g = geom();
        let values_only = {
            let mut s = StorageScheme::uniform(EncodingKind::DenseClustered, MlcConfig::SLC);
            s.bpc.values = MlcConfig::MLC3;
            layer_damage(g, 6, &s, tech, &sa).relative_mse
        };
        let mask_only = {
            let mut s = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::SLC);
            s.bpc.mask = MlcConfig::MLC3;
            layer_damage(g, 6, &s, tech, &sa).relative_mse
        };
        let counter_only = {
            let mut s = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::SLC);
            s.bpc.row_counter = MlcConfig::MLC3;
            layer_damage(g, 6, &s, tech, &sa).relative_mse
        };
        assert!(
            values_only < counter_only && counter_only < mask_only,
            "values {values_only}, counter {counter_only}, mask {mask_only}"
        );
    }

    #[test]
    fn analytic_matches_monte_carlo_on_small_layer() {
        // Compare the analytic expected relative MSE against a Monte-Carlo
        // campaign on a concrete layer, with exaggerated fault rates so
        // the Monte-Carlo mean is stable over few trials.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let data: Vec<f32> = (0..128 * 256)
            .map(|_| {
                if rng.gen::<f64>() < 0.5 {
                    0.0
                } else {
                    rng.gen::<f32>() + 0.1
                }
            })
            .collect();
        let m = LayerMatrix::new("l", 128, 256, data);
        let c = ClusteredLayer::from_matrix(&m, 4, 1);
        let scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3);
        let stored = maxnvm_encoding::storage::StoredLayer::store(&c, &scheme);

        let tech = CellTechnology::MlcRram;
        let sa = SenseAmp::new(0.0);
        let scale = 200.0;
        let base_for = fault_maps(tech, &sa);
        let fault_for = move |bpc: MlcConfig| std::sync::Arc::new(base_for(bpc).scaled(scale));
        let proxy = ProxyEval::new(vec![c.reconstruct()], 0.0, 1.0);
        let trials = 60;
        let mut mc_mse = 0.0;
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..trials {
            let (mat, _) = stored.decode_with_faults(&fault_for, &mut rng2);
            mc_mse += proxy.relative_mse(std::slice::from_ref(&mat));
        }
        mc_mse /= trials as f64;

        // Analytic with the same scaled rate: patch via a manual compute.
        let geom = LayerGeometry {
            rows: 128,
            cols: 256,
            nnz: c.nonzeros() as u64,
        };
        let d = {
            // mean_rate uses the unscaled model; emulate scaling by scaling
            // the resulting expected damage linearly is wrong for the
            // saturating terms, so recompute with the scaled rate inline.
            let rate = tech
                .cell_model(MlcConfig::MLC3)
                .fault_map()
                .scaled(scale)
                .mean_fault_rate();
            let bd = encoded_bits_with_block(geom, 4, EncodingKind::Csr, false, 1024);
            let nnz = geom.nnz as f64;
            let rows = geom.rows as f64;
            let mut corrupted = 0.0;
            for &(kind, bits) in &bd.per_structure {
                if kind == StructureKind::Centroids {
                    continue;
                }
                let lambda = (bits as f64 / 3.0).ceil() * rate;
                corrupted += match kind {
                    StructureKind::Values => lambda,
                    StructureKind::ColIndex => lambda * (nnz / rows) / 2.0,
                    StructureKind::RowCounter => (1.0 - (-lambda).exp()) * nnz / 2.0,
                    _ => 0.0,
                };
            }
            (2.0 * corrupted / nnz).min(2.0)
        };
        let ratio = mc_mse / d;
        assert!(
            (0.3..3.0).contains(&ratio),
            "Monte-Carlo {mc_mse} vs analytic {d} (ratio {ratio})"
        );
    }

    #[test]
    fn aggregate_weights_by_layer_size() {
        let g1 = LayerGeometry {
            rows: 1,
            cols: 10,
            nnz: 10,
        };
        let g2 = LayerGeometry {
            rows: 1,
            cols: 10,
            nnz: 90,
        };
        let d = |m| DamageReport {
            expected_cell_faults: 0.0,
            corrupted_weight_fraction: 0.0,
            relative_mse: m,
        };
        let agg = aggregate_mse(&[(g1, d(1.0)), (g2, d(0.0))]);
        assert!((agg - 0.1).abs() < 1e-12);
    }

    #[test]
    fn infeasible_bpc_is_marked_unusable() {
        assert!(mean_rate(
            CellTechnology::SlcRram,
            MlcConfig::MLC3,
            &SenseAmp::default()
        )
        .is_infinite());
    }
}
