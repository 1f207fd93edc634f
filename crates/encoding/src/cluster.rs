//! Magnitude pruning and per-layer k-means weight clustering (§3.1.2).
//!
//! All weight values within a layer are represented by `2^index_bits`
//! unique clustered values; each weight is stored as its cluster index
//! with a small per-layer lookup table mapping indexes back to values.
//! Index 0 is reserved for the exact zero produced by pruning, so the
//! sparsity structure survives clustering.

use maxnvm_dnn::network::LayerMatrix;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// 1-D k-means with k-means++ seeding.
///
/// Returns the `k` centroids (sorted ascending). Runs at most `iters`
/// Lloyd iterations or until assignment converges.
///
/// # Panics
///
/// Panics if `values` is empty or `k == 0`.
pub fn kmeans_1d(values: &[f32], k: usize, iters: usize, seed: u64) -> Vec<f32> {
    assert!(!values.is_empty(), "kmeans on empty values");
    assert!(k > 0, "k must be positive");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Subsample very large layers for speed; 64k points pin down 1-D
    // centroids far beyond the precision clustering needs.
    let sample: Vec<f32> = if values.len() > 65_536 {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.shuffle(&mut rng);
        idx[..65_536].iter().map(|&i| values[i]).collect()
    } else {
        values.to_vec()
    };

    // k-means++ init on the (sorted) sample.
    let mut sorted = sample.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let k = k.min(sorted.len());
    let mut centroids: Vec<f32> = Vec::with_capacity(k);
    centroids.push(sorted[sorted.len() / 2]);
    while centroids.len() < k {
        // Pick the point farthest from its nearest centroid (deterministic
        // farthest-point variant of k-means++; robust in 1-D).
        // `sorted` is non-empty here: the first centroid above needs
        // at least one sample, so `max_by` finds a point.
        let Some(far) = sorted.iter().copied().max_by(|&a, &b| {
            let da = centroids
                .iter()
                .map(|&c| (a - c).abs())
                .fold(f32::MAX, f32::min);
            let db = centroids
                .iter()
                .map(|&c| (b - c).abs())
                .fold(f32::MAX, f32::min);
            da.total_cmp(&db)
        }) else {
            break;
        };
        if centroids.contains(&far) {
            break; // fewer distinct values than k
        }
        centroids.push(far);
    }
    centroids.sort_by(|a, b| a.total_cmp(b));

    // Lloyd iterations.
    for _ in 0..iters {
        let mut sums = vec![0.0f64; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for &v in &sample {
            let c = nearest(&centroids, v);
            sums[c] += v as f64;
            counts[c] += 1;
        }
        let mut moved = false;
        for (i, c) in centroids.iter_mut().enumerate() {
            if counts[i] > 0 {
                let m = (sums[i] / counts[i] as f64) as f32;
                if (m - *c).abs() > 1e-7 {
                    *c = m;
                    moved = true;
                }
            }
        }
        centroids.sort_by(|a, b| a.total_cmp(b));
        if !moved {
            break;
        }
    }
    centroids
}

/// Index of the centroid nearest to `v`.
fn nearest(centroids: &[f32], v: f32) -> usize {
    let mut best = 0;
    let mut bd = f32::MAX;
    for (i, &c) in centroids.iter().enumerate() {
        let d = (v - c).abs();
        if d < bd {
            bd = d;
            best = i;
        }
    }
    best
}

/// A layer whose weights have been pruned and clustered: every weight is a
/// `index_bits`-bit cluster index into a per-layer centroid table.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredLayer {
    /// Layer name.
    pub name: String,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Bits per cluster index (paper: 4–7).
    pub index_bits: u8,
    /// Cluster values; `centroids[0] == 0.0` always.
    pub centroids: Vec<f32>,
    /// Row-major cluster index per weight, `rows * cols` long.
    pub indices: Vec<u16>,
}

impl ClusteredLayer {
    /// Prunes nothing (the matrix is assumed already pruned — zeros map to
    /// index 0) and clusters the non-zero weights into `2^index_bits - 1`
    /// clusters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or > 8.
    pub fn from_matrix(matrix: &LayerMatrix, index_bits: u8, seed: u64) -> Self {
        assert!((1..=8).contains(&index_bits), "index bits out of range");
        let nonzeros: Vec<f32> = matrix.data.iter().copied().filter(|&v| v != 0.0).collect();
        let k = (1usize << index_bits) - 1;
        let mut centroids = vec![0.0f32];
        if !nonzeros.is_empty() {
            let cs = kmeans_1d(&nonzeros, k, 25, seed);
            // Guard: a k-means centroid that landed exactly on 0 would
            // alias the reserved zero index.
            centroids.extend(cs.into_iter().map(|c| if c == 0.0 { 1e-12 } else { c }));
        }
        let indices = matrix
            .data
            .iter()
            .map(|&v| {
                if v == 0.0 {
                    0u16
                } else {
                    // Nearest non-zero centroid (indices 1..).
                    let mut best = 1usize;
                    let mut bd = f32::MAX;
                    for (i, &c) in centroids.iter().enumerate().skip(1) {
                        let d = (v - c).abs();
                        if d < bd {
                            bd = d;
                            best = i;
                        }
                    }
                    best as u16
                }
            })
            .collect();
        Self {
            name: matrix.name.clone(),
            rows: matrix.rows,
            cols: matrix.cols,
            index_bits,
            centroids,
            indices,
        }
    }

    /// Number of non-zero (index != 0) weights.
    pub fn nonzeros(&self) -> usize {
        self.indices.iter().filter(|&&i| i != 0).count()
    }

    /// Fraction of zero weights.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nonzeros() as f64 / self.indices.len().max(1) as f64
    }

    /// Maps indices back to weight values.
    pub fn reconstruct(&self) -> LayerMatrix {
        self.reconstruct_from(&self.indices)
    }

    /// Maps an arbitrary (possibly fault-corrupted) index matrix back to
    /// values using this layer's centroid table. Out-of-range indices are
    /// clamped to the top centroid — mirroring what a hardware LUT read
    /// with a wild index would return.
    pub fn reconstruct_from(&self, indices: &[u16]) -> LayerMatrix {
        assert_eq!(indices.len(), self.rows * self.cols, "index matrix shape");
        let top = (self.centroids.len() - 1) as u16;
        let data = indices
            .iter()
            .map(|&i| self.centroids[i.min(top) as usize])
            .collect();
        LayerMatrix::new(&self.name, self.rows, self.cols, data)
    }

    /// Mean squared quantization error of clustering (against `matrix`).
    pub fn quantization_mse(&self, matrix: &LayerMatrix) -> f64 {
        let rec = self.reconstruct();
        rec.data
            .iter()
            .zip(&matrix.data)
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / matrix.data.len().max(1) as f64
    }
}

/// Per-layer index-bit selection (§3.1.2): "all the weight values within
/// a given layer can be represented by 16 to 128 unique clustered values
/// at no loss of accuracy" — i.e., the paper picks, per layer, the fewest
/// cluster bits whose quantization error is negligible. This returns the
/// smallest `bits` in `min_bits..=max_bits` whose relative quantization
/// MSE (vs the layer's weight energy) is at or below `target_rel_mse`,
/// falling back to `max_bits`.
pub fn min_index_bits(
    matrix: &LayerMatrix,
    min_bits: u8,
    max_bits: u8,
    target_rel_mse: f64,
    seed: u64,
) -> u8 {
    assert!(
        (1..=8).contains(&min_bits) && min_bits <= max_bits && max_bits <= 8,
        "bit range out of order"
    );
    let energy: f64 = matrix.data.iter().map(|&v| (v as f64).powi(2)).sum();
    if energy == 0.0 {
        return min_bits;
    }
    for bits in min_bits..=max_bits {
        let c = ClusteredLayer::from_matrix(matrix, bits, seed);
        let rel = c.quantization_mse(matrix) * matrix.data.len() as f64 / energy;
        if rel <= target_rel_mse {
            return bits;
        }
    }
    max_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    fn sample_matrix(rows: usize, cols: usize, sparsity: f64, seed: u64) -> LayerMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen::<f64>() < sparsity {
                    0.0
                } else {
                    rng.gen::<f32>() * 2.0 - 1.0
                }
            })
            .collect();
        LayerMatrix::new("t", rows, cols, data)
    }

    #[test]
    fn kmeans_recovers_well_separated_clusters() {
        let mut vals = Vec::new();
        for &c in &[-3.0f32, 0.5, 4.0] {
            for i in 0..50 {
                vals.push(c + (i as f32 - 25.0) * 0.002);
            }
        }
        let cs = kmeans_1d(&vals, 3, 30, 1);
        assert_eq!(cs.len(), 3);
        assert!((cs[0] + 3.0).abs() < 0.1, "{cs:?}");
        assert!((cs[1] - 0.5).abs() < 0.1, "{cs:?}");
        assert!((cs[2] - 4.0).abs() < 0.1, "{cs:?}");
    }

    #[test]
    fn kmeans_handles_fewer_distinct_values_than_k() {
        let vals = vec![1.0f32, 1.0, 2.0, 2.0];
        let cs = kmeans_1d(&vals, 8, 10, 2);
        assert!(cs.len() <= 8);
        assert!(cs.contains(&1.0) && cs.contains(&2.0));
    }

    #[test]
    fn centroid_zero_is_reserved() {
        let m = sample_matrix(8, 8, 0.5, 3);
        let c = ClusteredLayer::from_matrix(&m, 4, 1);
        assert_eq!(c.centroids[0], 0.0);
        // All zero weights map to index 0, all non-zero to other indices.
        for (v, &i) in m.data.iter().zip(&c.indices) {
            if *v == 0.0 {
                assert_eq!(i, 0);
            } else {
                assert_ne!(i, 0);
            }
        }
    }

    #[test]
    fn sparsity_survives_clustering() {
        let m = sample_matrix(16, 16, 0.7, 4);
        let c = ClusteredLayer::from_matrix(&m, 4, 1);
        assert!((c.sparsity() - m.sparsity()).abs() < 1e-9);
        let rec = c.reconstruct();
        assert!((rec.sparsity() - m.sparsity()).abs() < 1e-9);
    }

    #[test]
    fn reconstruction_error_shrinks_with_more_clusters() {
        let m = sample_matrix(32, 32, 0.3, 5);
        let e2 = ClusteredLayer::from_matrix(&m, 2, 1).quantization_mse(&m);
        let e4 = ClusteredLayer::from_matrix(&m, 4, 1).quantization_mse(&m);
        let e6 = ClusteredLayer::from_matrix(&m, 6, 1).quantization_mse(&m);
        assert!(e4 < e2, "{e4} !< {e2}");
        assert!(e6 < e4, "{e6} !< {e4}");
        assert!(e6 < 1e-4, "6-bit clustering should be near-lossless: {e6}");
    }

    #[test]
    fn reconstruct_from_clamps_wild_indices() {
        let m = sample_matrix(4, 4, 0.5, 6);
        let c = ClusteredLayer::from_matrix(&m, 2, 1);
        let wild = vec![u16::MAX; 16];
        let rec = c.reconstruct_from(&wild);
        let top = *c.centroids.last().unwrap();
        assert!(rec.data.iter().all(|&v| v == top));
    }

    #[test]
    fn all_zero_matrix_clusters_cleanly() {
        let m = LayerMatrix::new("z", 2, 3, vec![0.0; 6]);
        let c = ClusteredLayer::from_matrix(&m, 4, 1);
        assert_eq!(c.nonzeros(), 0);
        assert_eq!(c.centroids, vec![0.0]);
        assert_eq!(c.reconstruct().data, vec![0.0; 6]);
    }

    #[test]
    fn min_index_bits_tracks_weight_complexity() {
        // A two-valued layer needs few bits; a rich continuum needs more.
        let simple = LayerMatrix::new(
            "s",
            4,
            64,
            (0..256)
                .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
                .collect(),
        );
        assert_eq!(min_index_bits(&simple, 2, 7, 1e-3, 1), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let rich = LayerMatrix::new(
            "r",
            16,
            64,
            (0..1024).map(|_| rng.gen::<f32>() - 0.5).collect(),
        );
        let bits = min_index_bits(&rich, 2, 7, 1e-3, 1);
        assert!(bits >= 5, "continuum needs many clusters: {bits}");
    }

    #[test]
    fn min_index_bits_paper_band() {
        // §3.1.2: 16–128 clusters (4–7 bits) suffice for realistic
        // pruned-Gaussian layers at tight error targets.
        let m = sample_matrix(64, 64, 0.7, 9);
        let bits = min_index_bits(&m, 1, 8, 1e-3, 2);
        assert!((4..=7).contains(&bits), "bits {bits}");
    }

    #[test]
    fn all_zero_layer_needs_min_bits() {
        let m = LayerMatrix::new("z", 2, 2, vec![0.0; 4]);
        assert_eq!(min_index_bits(&m, 3, 7, 1e-3, 1), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_round_trip_indices_in_range(
            rows in 1usize..12, cols in 1usize..12, seed in any::<u64>(), bits in 2u8..6
        ) {
            let m = sample_matrix(rows, cols, 0.5, seed);
            let c = ClusteredLayer::from_matrix(&m, bits, seed);
            prop_assert!(c.centroids.len() <= 1 << bits);
            for &i in &c.indices {
                prop_assert!((i as usize) < c.centroids.len());
            }
            let rec = c.reconstruct();
            prop_assert_eq!(rec.rows, rows);
            prop_assert_eq!(rec.cols, cols);
        }
    }
}
