//! Exhaustive design-space exploration (§4.4, Fig. 6): sweep every
//! combination of encoding, per-structure bits-per-cell, and protection,
//! and keep the minimal-cell configuration that preserves accuracy within
//! the iso-training-noise bound. Spec-level models use the analytic
//! damage model ([`explore_spec`]); trainable stand-ins run the concrete
//! Monte-Carlo sweep on the engine
//! ([`crate::engine::EvalContext::run_dse_controlled`]).

use crate::analytic::{aggregate_mse, layer_damage};
use crate::campaign::Campaign;
use crate::engine::EngineError;
use crate::evaluate::ProxyEval;
use maxnvm_dnn::zoo::ModelSpec;
use maxnvm_encoding::estimate::{estimate_cells, LayerGeometry};
use maxnvm_encoding::storage::{StorageScheme, StructureBpc};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};

/// One evaluated point of the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// The storage configuration.
    pub scheme: StorageScheme,
    /// Total memory cells for the whole model under this scheme.
    pub cells: u64,
    /// Mean classification error across trials (or the analytic estimate).
    pub mean_error: f64,
    /// Whether the error stays within the ITN bound.
    pub passes: bool,
    /// Monte-Carlo trials actually evaluated for this point: the full
    /// campaign budget on a fixed-budget sweep, fewer when adaptive
    /// early stopping decided the scheme sooner, and `0` for analytic
    /// (spec-level) exploration, which runs no trials at all.
    pub trials_run: usize,
    /// Non-zero weights per layer (clean decode; spec-level exploration
    /// reports the geometry's nnz estimate).
    pub layer_nnz: Vec<u64>,
    /// Achieved model density: total non-zeros over total weights
    /// (`0.0` when unreported).
    pub density: f64,
}

/// DSE configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseConfig {
    /// Monte-Carlo campaign settings (concrete exploration only).
    pub campaign: Campaign,
    /// Iso-training-noise bound (absolute error headroom over baseline).
    pub itn_bound: f64,
}

/// Enumerates every candidate scheme for a technology: encodings × a full
/// cross-product of per-structure bits-per-cell × protection options.
pub fn candidate_schemes(tech: CellTechnology) -> Vec<StorageScheme> {
    let bpcs = tech.available_configs();
    let mut out = Vec::new();
    // Dense P+C: only the values structure exists.
    for &v in &bpcs {
        out.push(StorageScheme::uniform(EncodingKind::DenseClustered, v));
    }
    // CSR: values × column index × row counter, with and without ECC.
    for &v in &bpcs {
        for &ci in &bpcs {
            for &rc in &bpcs {
                for ecc in [false, true] {
                    let mut s = StorageScheme::uniform(EncodingKind::Csr, v);
                    s.bpc = StructureBpc {
                        values: v,
                        col_index: ci,
                        row_counter: rc,
                        mask: v,
                        sync_counter: v,
                    };
                    if ecc {
                        s = s.with_ecc();
                    }
                    out.push(s);
                }
            }
        }
    }
    // BitMask: values × mask, with and without IdxSync / ECC. When IdxSync
    // is on, the per-block counters get their own setting (SLC or the mask
    // density): a misread counter shifts every subsequent block, so storing
    // the tiny counter structure safely is a distinct — and often optimal —
    // design point.
    for &v in &bpcs {
        for &m in &bpcs {
            for idx_sync in [false, true] {
                let sync_opts: Vec<MlcConfig> = if idx_sync && m != MlcConfig::SLC {
                    vec![MlcConfig::SLC, m]
                } else {
                    vec![m]
                };
                for &sc in &sync_opts {
                    for ecc in [false, true] {
                        let mut s = StorageScheme::uniform(EncodingKind::BitMask, v);
                        s.bpc = StructureBpc {
                            values: v,
                            col_index: v,
                            row_counter: v,
                            mask: m,
                            sync_counter: sc,
                        };
                        if idx_sync {
                            s = s.with_idx_sync();
                        }
                        if ecc {
                            s = s.with_ecc();
                        }
                        out.push(s);
                    }
                }
            }
        }
    }
    out
}

/// Analytic exploration for spec-level models: cells from the exact size
/// estimators, error from the expected-damage model mapped through the
/// sensitivity curve (see `evaluate::PROXY_M0`).
pub fn explore_spec(
    spec: &ModelSpec,
    tech: CellTechnology,
    sa: &SenseAmp,
    itn_bound: f64,
) -> Vec<DsePoint> {
    let baseline = spec.paper.classification_error;
    let proxy = ProxyEval::new(Vec::new(), baseline, 0.999);
    let geoms: Vec<LayerGeometry> = spec
        .layers
        .iter()
        .map(|l| LayerGeometry::from_sparsity(l.rows as u64, l.cols as u64, spec.paper.sparsity))
        .collect();
    let layer_nnz: Vec<u64> = geoms.iter().map(|g| g.nnz).collect();
    let total: u64 = geoms.iter().map(|g| g.rows * g.cols).sum();
    let density = if total == 0 {
        0.0
    } else {
        layer_nnz.iter().sum::<u64>() as f64 / total as f64
    };
    candidate_schemes(tech)
        .into_iter()
        .map(|scheme| {
            let cells = geoms
                .iter()
                .map(|&g| estimate_cells(g, spec.paper.cluster_index_bits, &scheme))
                .sum();
            let damages: Vec<_> = geoms
                .iter()
                .map(|&g| {
                    (
                        g,
                        layer_damage(g, spec.paper.cluster_index_bits, &scheme, tech, sa),
                    )
                })
                .collect();
            let mean_error = proxy.error_from_mse(aggregate_mse(&damages));
            DsePoint {
                scheme,
                cells,
                mean_error,
                passes: mean_error <= baseline + itn_bound,
                trials_run: 0,
                layer_nnz: layer_nnz.clone(),
                density,
            }
        })
        .collect()
}

/// The minimal-cell passing point (Fig. 6's per-bar answer); ties broken
/// by lower error. Returns `None` if nothing passes.
pub fn minimal_cells(points: &[DsePoint]) -> Option<&DsePoint> {
    points.iter().filter(|p| p.passes).min_by(|a, b| {
        a.cells
            .cmp(&b.cells)
            .then(a.mean_error.total_cmp(&b.mean_error))
    })
}

/// Per-layer mixed-encoding exploration: the paper applies CSR "on a
/// per-layer basis where worthwhile" (§3.2.1). For each layer, pick the
/// minimal-cell scheme whose *layer-local* relative MSE fits the whole
/// model's damage budget — conservative, since the model-level error
/// weights each layer by its share of the non-zeros. Returns the
/// per-layer winning schemes and the total cells, or
/// [`EngineError::NoPassingScheme`] if some layer has no scheme within
/// budget (cannot happen for supported technologies: SLC always passes).
pub fn explore_spec_per_layer(
    spec: &ModelSpec,
    tech: CellTechnology,
    sa: &SenseAmp,
    itn_bound: f64,
) -> Result<(Vec<StorageScheme>, u64), EngineError> {
    // Invert the sensitivity curve for the model-level m_rel budget.
    let headroom = itn_bound / (0.999 - spec.paper.classification_error);
    let m_budget = -crate::evaluate::PROXY_M0 * (1.0 - headroom).ln();
    let bits = spec.paper.cluster_index_bits;
    let schemes = candidate_schemes(tech);
    let mut chosen = Vec::with_capacity(spec.layers.len());
    let mut total_cells = 0u64;
    for l in &spec.layers {
        let geom = LayerGeometry::from_sparsity(l.rows as u64, l.cols as u64, spec.paper.sparsity);
        let (cells, best) = schemes
            .iter()
            .filter(|s| layer_damage(geom, bits, s, tech, sa).relative_mse <= m_budget)
            .map(|s| (estimate_cells(geom, bits, s), s))
            .min_by_key(|&(cells, _)| cells)
            .ok_or(EngineError::NoPassingScheme)?;
        total_cells += cells;
        chosen.push(best.clone());
    }
    Ok((chosen, total_cells))
}

/// The minimal-cell passing point for a specific encoding (one bar of
/// Fig. 6).
pub fn minimal_cells_for_encoding(
    points: &[DsePoint],
    encoding: EncodingKind,
    idx_sync: Option<bool>,
) -> Option<&DsePoint> {
    points
        .iter()
        .filter(|p| p.scheme.encoding == encoding)
        .filter(|p| idx_sync.is_none_or(|s| p.scheme.idx_sync == s))
        .filter(|p| p.passes)
        .min_by(|a, b| {
            a.cells
                .cmp(&b.cells)
                .then(a.mean_error.total_cmp(&b.mean_error))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_dnn::zoo;

    #[test]
    fn candidate_count_covers_the_space() {
        // 3 bpc choices: 3 dense + 27*2 CSR + BitMask (9 plain*2 ecc +
        // (3 masks -> 2+2+1 sync options)*3 values*2 ecc = 48) = 105.
        assert_eq!(candidate_schemes(CellTechnology::MlcCtt).len(), 105);
        // SLC-only technology: 1 + 2 + 4 = 7.
        assert_eq!(candidate_schemes(CellTechnology::SlcRram).len(), 7);
    }

    #[test]
    fn spec_exploration_finds_passing_points_for_vgg16() {
        let spec = zoo::vgg16();
        let points = explore_spec(
            &spec,
            CellTechnology::MlcCtt,
            &SenseAmp::default(),
            spec.paper.itn_bound,
        );
        let best = minimal_cells(&points).expect("some scheme must pass");
        // The optimum must use MLCs and a sparse encoding — a pure-SLC
        // dense layout can never be minimal (§4.4).
        assert!(best.scheme.max_bpc() > MlcConfig::SLC);
        assert_ne!(best.scheme.encoding, EncodingKind::DenseClustered);
        // And the plain-SLC CSR point passes trivially (no faults).
        let slc = points
            .iter()
            .find(|p| {
                p.scheme.encoding == EncodingKind::Csr
                    && p.scheme.max_bpc() == MlcConfig::SLC
                    && p.scheme.ecc == maxnvm_encoding::storage::EccScope::None
            })
            .unwrap();
        assert!(slc.passes);
        assert!(best.cells < slc.cells);
    }

    #[test]
    fn unprotected_mlc3_bitmask_fails_for_vgg16() {
        // §4.2: the bitmask cannot safely be stored in MLCs without a
        // protective technique.
        let spec = zoo::vgg16();
        let points = explore_spec(
            &spec,
            CellTechnology::MlcCtt,
            &SenseAmp::default(),
            spec.paper.itn_bound,
        );
        let plain_mlc3_mask = points
            .iter()
            .find(|p| {
                p.scheme.encoding == EncodingKind::BitMask
                    && !p.scheme.idx_sync
                    && p.scheme.ecc == maxnvm_encoding::storage::EccScope::None
                    && p.scheme.bpc.mask == MlcConfig::MLC3
                    && p.scheme.bpc.values == MlcConfig::MLC3
            })
            .unwrap();
        assert!(
            !plain_mlc3_mask.passes,
            "error {}",
            plain_mlc3_mask.mean_error
        );
    }

    #[test]
    fn idxsync_reduces_minimal_cells_for_vgg16_bitmask() {
        // §4.4: BitM+IdxSync for VGG16 needs fewer cells than BitMask
        // without mitigation (paper: 22% fewer).
        let spec = zoo::vgg16();
        let points = explore_spec(
            &spec,
            CellTechnology::MlcCtt,
            &SenseAmp::default(),
            spec.paper.itn_bound,
        );
        let plain = minimal_cells_for_encoding(&points, EncodingKind::BitMask, Some(false))
            .expect("plain bitmask must have a passing point");
        let synced = minimal_cells_for_encoding(&points, EncodingKind::BitMask, Some(true))
            .expect("idxsync bitmask must have a passing point");
        assert!(
            synced.cells < plain.cells,
            "idxsync {} !< plain {}",
            synced.cells,
            plain.cells
        );
        let saving = 1.0 - synced.cells as f64 / plain.cells as f64;
        assert!(
            (0.05..0.40).contains(&saving),
            "saving {saving} out of the paper's ballpark (~22%)"
        );
    }

    #[test]
    fn per_layer_mixing_never_loses_to_uniform() {
        // Choosing encodings per layer can only reduce (or match) the
        // cells of the best single-encoding configuration.
        for spec in [zoo::vgg16(), zoo::resnet50()] {
            let sa = SenseAmp::default();
            let uniform = explore_spec(&spec, CellTechnology::MlcCtt, &sa, spec.paper.itn_bound);
            let best_uniform = minimal_cells(&uniform).unwrap().cells;
            let (schemes, mixed_cells) =
                explore_spec_per_layer(&spec, CellTechnology::MlcCtt, &sa, spec.paper.itn_bound)
                    .expect("SLC always passes");
            assert_eq!(schemes.len(), spec.layers.len());
            // The per-layer budget is conservative (every layer must fit
            // the whole model budget individually, which is stricter than
            // the nnz-weighted aggregate), so allow a sliver of regression.
            assert!(
                (mixed_cells as f64) <= best_uniform as f64 * 1.01,
                "{}: mixed {mixed_cells} vs uniform {best_uniform}",
                spec.name
            );
        }
    }

    #[test]
    fn per_layer_mixing_places_a_layer_with_no_estimated_nonzeros() {
        // 2 weights at LeNet5's 89.9% sparsity estimate 0.2 -> 0 non-zeros.
        // Such a layer takes no share of the damage budget, yet SLC must
        // still pass for it.
        let mut spec = zoo::lenet5();
        let mut tiny = spec.layers[3].clone();
        tiny.rows = 1;
        tiny.cols = 2;
        assert_eq!(
            LayerGeometry::from_sparsity(1, 2, spec.paper.sparsity).nnz,
            0
        );
        spec.layers.push(tiny);
        let (schemes, cells) = explore_spec_per_layer(
            &spec,
            CellTechnology::MlcCtt,
            &SenseAmp::default(),
            spec.paper.itn_bound,
        )
        .expect("SLC always passes");
        assert_eq!(schemes.len(), spec.layers.len());
        assert!(cells > 0);
    }

    #[test]
    fn per_layer_mixing_uses_multiple_encodings_where_worthwhile() {
        // §3.2.1: "CSR is applied on a per-layer basis where worthwhile" —
        // VGG16's fat FC layers and thin early convs want different formats.
        let spec = zoo::vgg16();
        let (schemes, _) = explore_spec_per_layer(
            &spec,
            CellTechnology::MlcCtt,
            &SenseAmp::default(),
            spec.paper.itn_bound,
        )
        .expect("SLC always passes");
        let distinct: std::collections::BTreeSet<String> =
            schemes.iter().map(|s| s.label()).collect();
        assert!(
            !distinct.is_empty(),
            "per-layer exploration must produce schemes"
        );
    }

    #[test]
    fn concrete_exploration_runs_on_a_real_layer() {
        use crate::engine::{EvalContext, RunControl};
        use crate::evaluate::ProxyEval;
        use maxnvm_dnn::network::LayerMatrix;
        use maxnvm_encoding::cluster::ClusteredLayer;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let data: Vec<f32> = (0..32 * 128)
            .map(|_| {
                if rng.gen::<f64>() < 0.6 {
                    0.0
                } else {
                    (rng.gen::<f32>() - 0.5) * 2.0
                }
            })
            .collect();
        let layer = ClusteredLayer::from_matrix(&LayerMatrix::new("l", 32, 128, data), 4, 1);
        let eval = ProxyEval::new(vec![layer.reconstruct()], 0.05, 0.9);
        let cfg = DseConfig {
            campaign: Campaign {
                trials: 3,
                seed: 1,
                rate_scale: 1.0,
            },
            itn_bound: 0.01,
        };
        let points = EvalContext::new(CellTechnology::MlcCtt, &SenseAmp::default(), 1.0)
            .and_then(|ctx| ctx.run_dse_controlled(&[layer], &eval, &cfg, &RunControl::default()))
            .expect("dse");
        assert_eq!(
            points.len(),
            candidate_schemes(CellTechnology::MlcCtt).len()
        );
        // At physical rates on a tiny layer, essentially everything passes
        // and the minimal point uses MLC3.
        let best = minimal_cells(&points).expect("passing point");
        assert_eq!(best.scheme.max_bpc(), MlcConfig::MLC3);
        // Cells recorded are consistent with concrete storage.
        assert!(best.cells > 0);
    }

    #[test]
    fn minimal_cells_prefers_fewer_cells_then_lower_error() {
        let mk = |cells, err, passes| DsePoint {
            scheme: StorageScheme::uniform(EncodingKind::Csr, MlcConfig::SLC),
            cells,
            mean_error: err,
            passes,
            trials_run: 0,
            layer_nnz: Vec::new(),
            density: 0.0,
        };
        let pts = vec![mk(100, 0.1, true), mk(50, 0.2, true), mk(10, 0.1, false)];
        let best = minimal_cells(&pts).unwrap();
        assert_eq!(best.cells, 50);
        assert!(minimal_cells(&[mk(1, 0.0, false)]).is_none());
    }
}
