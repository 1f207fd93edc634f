//! Cross-crate consistency checks: the analytic estimators used for
//! ImageNet-scale models must agree with the concrete encoders and the
//! Monte-Carlo injection path they stand in for.

use maxnvm_dnn::network::LayerMatrix;
use maxnvm_dnn::zoo::{self, ModelSpec};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::estimate::{encoded_bits, estimate_cells, LayerGeometry};
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::analytic::layer_damage;
use maxnvm_faultsim::campaign::fault_maps;
use maxnvm_faultsim::evaluate::ProxyEval;
use rand::{Rng, SeedableRng};

fn random_layer(rows: usize, cols: usize, sparsity: f64, seed: u64) -> ClusteredLayer {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f64>() < sparsity {
                0.0
            } else {
                rng.gen::<f32>() + 0.05
            }
        })
        .collect();
    ClusteredLayer::from_matrix(&LayerMatrix::new("x", rows, cols, data), 4, seed)
}

#[test]
fn cell_estimates_track_concrete_storage_across_shapes() {
    for (rows, cols, sparsity) in [(16, 64, 0.3), (64, 256, 0.8), (8, 1000, 0.95)] {
        let c = random_layer(rows, cols, sparsity, 7);
        let geom = LayerGeometry {
            rows: rows as u64,
            cols: cols as u64,
            nnz: c.nonzeros() as u64,
        };
        for enc in EncodingKind::ALL {
            let scheme = StorageScheme::uniform(enc, MlcConfig::MLC3).with_idx_sync();
            let concrete = StoredLayer::store(&c, &scheme).total_cells();
            let est = estimate_cells(geom, 4, &scheme);
            let rel = (est as f64 - concrete as f64).abs() / concrete as f64;
            // Centroid-table occupancy and CSR padding are estimated;
            // everything else is exact.
            assert!(
                rel < 0.02,
                "{enc} {rows}x{cols}@{sparsity}: est {est} vs concrete {concrete}"
            );
        }
    }
}

#[test]
fn nvdla_weight_bytes_agree_with_encoding_estimates() {
    // The NVDLA perf model sizes encoded weights through the same
    // estimator the storage DSE uses.
    for spec in ModelSpec::paper_models() {
        for (enc, idx_sync) in [
            (EncodingKind::DenseClustered, false),
            (EncodingKind::Csr, false),
            (EncodingKind::BitMask, true),
        ] {
            let from_nvdla: u64 = maxnvm_nvdla::perf::encoded_weight_bytes(&spec, enc, idx_sync)
                .iter()
                .sum();
            let from_encoding: u64 = spec
                .layers
                .iter()
                .map(|l| {
                    let g = LayerGeometry::from_sparsity(
                        l.rows as u64,
                        l.cols as u64,
                        spec.paper.sparsity,
                    );
                    encoded_bits(g, spec.paper.cluster_index_bits, enc, idx_sync)
                        .total_bits()
                        .div_ceil(8)
                })
                .sum();
            assert_eq!(from_nvdla, from_encoding, "{} {enc}", spec.name);
        }
    }
}

/// Zero-mean weights, as real DNN layers have — the analytic damage model
/// assumes `E[(w'-w)^2] = 2 E[w^2]` for decorrelated replacements, which
/// only holds for (near-)zero-mean weight distributions.
fn symmetric_layer(rows: usize, cols: usize, sparsity: f64, seed: u64) -> ClusteredLayer {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f64>() < sparsity {
                0.0
            } else {
                (rng.gen::<f32>() - 0.5) * 2.0
            }
        })
        .collect();
    ClusteredLayer::from_matrix(&LayerMatrix::new("x", rows, cols, data), 4, seed)
}

#[test]
fn analytic_damage_tracks_monte_carlo_at_layer_scale() {
    // The analytic model must predict the Monte-Carlo relative MSE within
    // a small factor for a BitMask layer with exaggerated rates.
    let c = symmetric_layer(96, 512, 0.6, 21);
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let stored = StoredLayer::store(&c, &scheme);
    let tech = CellTechnology::MlcRram;
    let sa = SenseAmp::new(0.0);
    // Modest exaggeration: keeps expected faults per IdxSync block well
    // below one, where the analytic model's linear-in-rate regime (the
    // regime real deployments live in) is valid.
    let scale = 40.0;
    let base = fault_maps(tech, &sa);
    let fault_for = move |cfg: MlcConfig| std::sync::Arc::new(base(cfg).scaled(scale));
    let proxy = ProxyEval::new(vec![c.reconstruct()], 0.0, 1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let trials = 150;
    let mc: f64 = (0..trials)
        .map(|_| {
            let (m, _) = stored.decode_with_faults(&fault_for, &mut rng);
            proxy.relative_mse(std::slice::from_ref(&m))
        })
        .sum::<f64>()
        / trials as f64;

    // Analytic with the same scaling: recompute via a scaled closed form.
    let geom = LayerGeometry {
        rows: 96,
        cols: 512,
        nnz: c.nonzeros() as u64,
    };
    // layer_damage uses unscaled rates; multiply its (linear-regime)
    // output by the same factor for comparison.
    let d = layer_damage(geom, 4, &scheme, tech, &sa);
    let analytic = d.relative_mse * scale;
    let ratio = mc / analytic;
    assert!(
        (0.25..4.0).contains(&ratio),
        "Monte-Carlo {mc} vs analytic {analytic} (ratio {ratio})"
    );
}

#[test]
fn spec_sample_matrices_reproduce_declared_sparsity() {
    // The spec-level synthesis path must deliver the Table 2 sparsity the
    // analytic pipeline assumes.
    for spec in [zoo::vgg16(), zoo::resnet50()] {
        for layer in spec.layers.iter().step_by(7) {
            let m = layer.sample_matrix(spec.paper.sparsity, 11, 128, 512);
            assert!(
                (m.sparsity() - spec.paper.sparsity).abs() < 0.03,
                "{}/{}: sparsity {}",
                spec.name,
                layer.name,
                m.sparsity()
            );
        }
    }
}

#[test]
fn analytic_dse_rejects_plain_mlc3_bitmask_and_accepts_idx_sync_at_vgg16() {
    // The analytic DSE (`explore_spec`) alone, at VGG16 scale: an
    // unprotected MLC3 bitmask (MLC3 mask and values, no IdxSync, no ECC)
    // fails the ITN bound, while some IdxSync bitmask with an MLC3 mask
    // passes. No Monte-Carlo sweep runs here.
    let spec = zoo::vgg16();
    let sa = SenseAmp::paper_default();
    let points = maxnvm_faultsim::dse::explore_spec(
        &spec,
        CellTechnology::MlcCtt,
        &sa,
        spec.paper.itn_bound,
    );
    let plain = points
        .iter()
        .find(|p| {
            p.scheme.encoding == EncodingKind::BitMask
                && !p.scheme.idx_sync
                && p.scheme.bpc.mask == MlcConfig::MLC3
                && p.scheme.bpc.values == MlcConfig::MLC3
                && p.scheme.ecc == maxnvm_encoding::storage::EccScope::None
        })
        .expect("plain point");
    assert!(!plain.passes);
    let protected = points
        .iter()
        .filter(|p| {
            p.scheme.encoding == EncodingKind::BitMask
                && p.scheme.idx_sync
                && p.scheme.bpc.mask == MlcConfig::MLC3
                && p.passes
        })
        .count();
    assert!(
        protected > 0,
        "no protected MLC3 bitmask configuration passes"
    );
}
