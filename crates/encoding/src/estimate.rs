//! Analytic size/cell estimators mirroring the concrete encoders, so
//! ImageNet-scale models (Table 2, Fig. 6, Fig. 8) can be sized without
//! materializing hundreds of megabytes of weights.
//!
//! The estimators are exact for matrices whose column count fits the
//! relative-index width (no CSR padding entries) — verified against the
//! concrete encoders in tests.

use crate::bitmask::sync_counter_bits_for;
use crate::csr::{bit_width, col_idx_bits_for};
use crate::storage::StorageScheme;
use crate::{EncodingKind, StructureKind, IDXSYNC_BLOCK_BITS};
use maxnvm_dnn::zoo::ModelSpec;
use maxnvm_ecc::BlockCodec;

/// The shape facts the estimators need about one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerGeometry {
    /// Matrix rows.
    pub rows: u64,
    /// Matrix columns.
    pub cols: u64,
    /// Non-zero weights after pruning.
    pub nnz: u64,
}

impl LayerGeometry {
    /// Geometry from a layer size and an overall sparsity target.
    pub fn from_sparsity(rows: u64, cols: u64, sparsity: f64) -> Self {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity out of range");
        let total = rows * cols;
        Self {
            rows,
            cols,
            nnz: ((total as f64) * (1.0 - sparsity)).round() as u64,
        }
    }
}

/// Bits per structure for one encoded layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeBreakdown {
    /// `(structure, bits)` pairs, including the centroid LUT.
    pub per_structure: Vec<(StructureKind, u64)>,
}

impl SizeBreakdown {
    /// Total bits across all structures.
    pub fn total_bits(&self) -> u64 {
        self.per_structure.iter().map(|(_, b)| b).sum()
    }
}

/// Raw encoded bits for a layer under an encoding strategy (§3.2),
/// excluding ECC overhead (that is applied per scheme in
/// [`estimate_cells`]).
pub fn encoded_bits(
    geom: LayerGeometry,
    index_bits: u8,
    encoding: EncodingKind,
    idx_sync: bool,
) -> SizeBreakdown {
    encoded_bits_with_block(geom, index_bits, encoding, idx_sync, IDXSYNC_BLOCK_BITS)
}

/// [`encoded_bits`] with an explicit IdxSync block size.
pub fn encoded_bits_with_block(
    geom: LayerGeometry,
    index_bits: u8,
    encoding: EncodingKind,
    idx_sync: bool,
    block_bits: usize,
) -> SizeBreakdown {
    let ib = index_bits as u64;
    let centroid_bits = (1u64 << index_bits) * 16;
    let mut per_structure = match encoding {
        EncodingKind::DenseClustered => {
            vec![(StructureKind::Values, geom.rows * geom.cols * ib)]
        }
        EncodingKind::Csr => {
            let density = geom.nnz as f64 / (geom.rows * geom.cols).max(1) as f64;
            let w = col_idx_bits_for(geom.cols.max(1), density);
            // Expected padding entries for geometric gaps: a gap of g
            // zeros inserts floor(g / 2^w) pad entries; summing the tail
            // probabilities gives q/(1-q) extra entries per non-zero with
            // q = (1-d)^(2^w).
            let q = (1.0 - density).powi(1 << w);
            let entries = (geom.nnz as f64 * (1.0 + q / (1.0 - q).max(1e-12))).round() as u64;
            vec![
                (StructureKind::Values, entries * ib),
                (StructureKind::ColIndex, entries * w as u64),
                (
                    StructureKind::RowCounter,
                    geom.rows * bit_width(geom.cols) as u64,
                ),
            ]
        }
        EncodingKind::BitMask => {
            let mut v = vec![
                (StructureKind::Mask, geom.rows * geom.cols),
                (StructureKind::Values, geom.nnz * ib),
            ];
            if idx_sync {
                let blocks = (geom.rows * geom.cols).div_ceil(block_bits as u64);
                v.push((
                    StructureKind::SyncCounter,
                    blocks * sync_counter_bits_for(block_bits) as u64,
                ));
            }
            v
        }
    };
    per_structure.push((StructureKind::Centroids, centroid_bits));
    SizeBreakdown { per_structure }
}

/// Memory cells needed to store a layer under a full scheme, including ECC
/// expansion and per-structure bits-per-cell (matches
/// `StoredLayer::total_cells` exactly when no CSR padding occurs and the
/// centroid table is full).
pub fn estimate_cells(geom: LayerGeometry, index_bits: u8, scheme: &StorageScheme) -> u64 {
    let breakdown = encoded_bits_with_block(
        geom,
        index_bits,
        scheme.encoding,
        scheme.idx_sync,
        scheme.sync_block_bits,
    );
    breakdown
        .per_structure
        .iter()
        .map(|&(kind, bits)| {
            if kind == StructureKind::Centroids {
                return bits; // SLC, 1 bit per cell
            }
            let stored = if scheme.ecc.covers(kind) && bits > 0 {
                BlockCodec::new(scheme.ecc_code).encoded_len(bits as usize) as u64
            } else {
                bits
            };
            stored.div_ceil(scheme.bpc.for_kind(kind).bits() as u64)
        })
        .sum()
}

/// Total encoded bits for a whole model spec (Table 2's size columns):
/// applies the model's Table 2 sparsity uniformly across layers.
pub fn model_bits(spec: &ModelSpec, encoding: EncodingKind, idx_sync: bool) -> u64 {
    spec.layers
        .iter()
        .map(|l| {
            let geom =
                LayerGeometry::from_sparsity(l.rows as u64, l.cols as u64, spec.paper.sparsity);
            encoded_bits(geom, spec.paper.cluster_index_bits, encoding, idx_sync).total_bits()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusteredLayer;
    use crate::storage::{EccScope, StoredLayer};
    use maxnvm_dnn::network::LayerMatrix;
    use maxnvm_dnn::zoo;
    use maxnvm_envm::MlcConfig;
    use rand::{Rng, SeedableRng};

    /// A clustered layer whose centroid table is full (all 2^bits values
    /// used) so the estimator's centroid accounting matches exactly.
    fn full_clustered(
        rows: usize,
        cols: usize,
        sparsity: f64,
        bits: u8,
        seed: u64,
    ) -> ClusteredLayer {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = (1usize << bits) - 1;
        let data = (0..rows * cols)
            .map(|i| {
                if i >= rows * cols - k {
                    // guarantee every cluster value appears
                    (i as f32) * 10.0 + 1.0
                } else if rng.gen::<f64>() < sparsity {
                    0.0
                } else {
                    rng.gen_range(1..=k) as f32 * 10.0
                }
            })
            .collect();
        ClusteredLayer::from_matrix(&LayerMatrix::new("t", rows, cols, data), bits, seed)
    }

    #[test]
    fn estimator_matches_concrete_encoder() {
        // Dense and BitMask estimates are exact; CSR uses an expected-
        // padding model, so it must agree within a fraction of a percent.
        for seed in 0..3u64 {
            let c = full_clustered(24, 200, 0.7, 4, seed);
            let geom = LayerGeometry {
                rows: 24,
                cols: 200,
                nnz: c.nonzeros() as u64,
            };
            for enc in EncodingKind::ALL {
                for bpc in MlcConfig::ALL {
                    for idx_sync in [false, true] {
                        for ecc in [EccScope::None, EccScope::Metadata] {
                            let mut scheme = StorageScheme::uniform(enc, bpc);
                            scheme.idx_sync = idx_sync;
                            scheme.ecc = ecc;
                            let concrete = StoredLayer::store(&c, &scheme).total_cells();
                            let est = estimate_cells(geom, 4, &scheme);
                            if enc == EncodingKind::Csr {
                                let rel = (est as f64 - concrete as f64).abs() / concrete as f64;
                                assert!(
                                    rel < 0.01,
                                    "{enc} {bpc} ecc={ecc:?} seed={seed}: est {est} vs {concrete}"
                                );
                            } else {
                                assert_eq!(
                                    est, concrete,
                                    "{enc} {bpc} sync={idx_sync} ecc={ecc:?} seed={seed}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn table2_sizes_reproduce_paper_shape() {
        // Table 2 (MB): LeNet5 P+C 316KB / CSR 84KB / BitM 107KB;
        // VGG16 P+C 101MB / CSR 30.2MB / BitM 35.5MB;
        // ResNet50 P+C 30.6MB / CSR 25.1MB / BitM 11.2MB.
        let mb = |bits: u64| bits as f64 / 8.0 / 1024.0 / 1024.0;

        let lenet = zoo::lenet5();
        let pc = mb(model_bits(&lenet, EncodingKind::DenseClustered, false));
        let csr = mb(model_bits(&lenet, EncodingKind::Csr, false));
        let bm = mb(model_bits(&lenet, EncodingKind::BitMask, false));
        // LeNet5: CSR smallest, P+C largest.
        assert!(csr < bm && bm < pc, "LeNet5: {csr} {bm} {pc}");
        assert!(
            (pc - 316.0 / 1024.0).abs() / (316.0 / 1024.0) < 0.15,
            "P+C {pc}MB"
        );

        let vgg16 = zoo::vgg16();
        let pc = mb(model_bits(&vgg16, EncodingKind::DenseClustered, false));
        let csr = mb(model_bits(&vgg16, EncodingKind::Csr, false));
        let bm = mb(model_bits(&vgg16, EncodingKind::BitMask, false));
        assert!((pc - 101.0).abs() < 8.0, "VGG16 P+C {pc}MB vs 101MB");
        assert!((csr - 30.2).abs() < 16.0, "VGG16 CSR {csr}MB vs 30.2MB");
        assert!((bm - 35.5).abs() < 5.0, "VGG16 BitM {bm}MB vs 35.5MB");

        let resnet = zoo::resnet50();
        let pc = mb(model_bits(&resnet, EncodingKind::DenseClustered, false));
        let csr = mb(model_bits(&resnet, EncodingKind::Csr, false));
        let bm = mb(model_bits(&resnet, EncodingKind::BitMask, false));
        // ResNet50: BitMask clearly smallest (Table 2: 11.2 vs 25.1/30.6).
        assert!(bm < csr && bm < pc, "ResNet50: {bm} {csr} {pc}");
    }

    #[test]
    fn idxsync_overhead_is_small() {
        let geom = LayerGeometry::from_sparsity(4096, 4096, 0.8);
        let with = encoded_bits(geom, 6, EncodingKind::BitMask, true).total_bits();
        let without = encoded_bits(geom, 6, EncodingKind::BitMask, false).total_bits();
        let overhead = with as f64 / without as f64 - 1.0;
        assert!(
            overhead > 0.0 && overhead < 0.01,
            "IdxSync overhead {overhead}"
        );
    }

    #[test]
    fn from_sparsity_rounds_counts() {
        let g = LayerGeometry::from_sparsity(10, 10, 0.25);
        assert_eq!(g.nnz, 75);
    }

    #[test]
    fn csr_beats_dense_only_when_sparse_enough() {
        // The relative overhead of CSR varies with sparsity (§3.2.1): at
        // low sparsity dense P+C is smaller, at high sparsity CSR wins.
        let dense_geom = LayerGeometry::from_sparsity(256, 256, 0.2);
        let sparse_geom = LayerGeometry::from_sparsity(256, 256, 0.9);
        let csr_low = encoded_bits(dense_geom, 6, EncodingKind::Csr, false).total_bits();
        let pc_low = encoded_bits(dense_geom, 6, EncodingKind::DenseClustered, false).total_bits();
        assert!(
            csr_low > pc_low,
            "low sparsity: CSR {csr_low} vs P+C {pc_low}"
        );
        let csr_high = encoded_bits(sparse_geom, 6, EncodingKind::Csr, false).total_bits();
        let pc_high =
            encoded_bits(sparse_geom, 6, EncodingKind::DenseClustered, false).total_bits();
        assert!(
            csr_high < pc_high,
            "high sparsity: CSR {csr_high} vs P+C {pc_high}"
        );
    }
}
