//! Fixed-point quantization (§3.1.2) — the alternative bit-reduction
//! technique the paper compares k-means clustering against.
//!
//! "Depending on the dynamic range of the DNN weight values, the number
//! of integer and fractional bits can be drastically reduced [...] We
//! find clustering uses strictly fewer bits per weight than fixed-point
//! quantization without significant re-training for all DNNs." This
//! module provides the fixed-point side of that comparison, plus the
//! bits-at-iso-error search the claim rests on.

use maxnvm_dnn::network::LayerMatrix;

/// A signed fixed-point format: one sign bit, `int_bits` integer bits,
/// `frac_bits` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FixedPoint {
    /// Integer bits (excluding sign).
    pub int_bits: u8,
    /// Fractional bits.
    pub frac_bits: u8,
}

impl FixedPoint {
    /// Creates a format.
    ///
    /// # Panics
    ///
    /// Panics if the total width (with sign) exceeds 16 bits or is zero.
    pub fn new(int_bits: u8, frac_bits: u8) -> Self {
        let total = 1 + int_bits as u32 + frac_bits as u32;
        assert!((2..=16).contains(&total), "width {total} out of range");
        Self {
            int_bits,
            frac_bits,
        }
    }

    /// Total bits per weight, including the sign bit.
    pub fn total_bits(&self) -> u8 {
        1 + self.int_bits + self.frac_bits
    }

    /// The largest representable magnitude.
    pub fn max_value(&self) -> f32 {
        let scale = (1u32 << self.frac_bits) as f32;
        let max_q = (1i32 << (self.int_bits + self.frac_bits)) - 1;
        max_q as f32 / scale
    }

    /// Quantizes one value (round-to-nearest, saturating).
    pub fn quantize(&self, v: f32) -> f32 {
        let scale = (1u32 << self.frac_bits) as f32;
        let max_q = (1i32 << (self.int_bits + self.frac_bits)) - 1;
        let q = (v * scale)
            .round()
            .clamp(-(max_q as f32) - 1.0, max_q as f32);
        q / scale
    }

    /// Quantizes a whole matrix, preserving exact zeros (pruned weights
    /// stay pruned).
    pub fn quantize_matrix(&self, m: &LayerMatrix) -> LayerMatrix {
        let data = m
            .data
            .iter()
            .map(|&v| if v == 0.0 { 0.0 } else { self.quantize(v) })
            .collect();
        LayerMatrix::new(&m.name, m.rows, m.cols, data)
    }

    /// Mean squared quantization error over a matrix.
    pub fn mse(&self, m: &LayerMatrix) -> f64 {
        if m.data.is_empty() {
            return 0.0;
        }
        m.data
            .iter()
            .map(|&v| {
                let q = if v == 0.0 { 0.0 } else { self.quantize(v) };
                ((v - q) as f64).powi(2)
            })
            .sum::<f64>()
            / m.data.len() as f64
    }

    /// The narrowest format of `total_bits` width for a weight range:
    /// integer bits to cover `max_abs`, the rest fractional.
    pub fn for_range(total_bits: u8, max_abs: f32) -> Self {
        assert!((2..=16).contains(&total_bits), "width out of range");
        let mut int_bits = 0u8;
        while int_bits < total_bits - 1 && (1i32 << int_bits) as f32 <= max_abs {
            int_bits += 1;
        }
        Self::new(int_bits, total_bits - 1 - int_bits)
    }
}

/// The fewest total bits at which fixed-point quantization reaches a mean
/// squared error at or below `target_mse` for `matrix` — the fixed-point
/// side of the paper's "clustering uses strictly fewer bits" comparison.
///
/// Returns `None` if even 16 bits cannot reach the target.
pub fn min_bits_for_mse(matrix: &LayerMatrix, target_mse: f64) -> Option<u8> {
    let max_abs = matrix.data.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    (2..=16u8).find(|&bits| FixedPoint::for_range(bits, max_abs).mse(matrix) <= target_mse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusteredLayer;
    use rand::{Rng, SeedableRng};

    fn weights(seed: u64) -> LayerMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Gaussian-ish DNN weights in (-1, 1) with 50% pruned zeros.
        let data = (0..64 * 64)
            .map(|_| {
                if rng.gen::<f64>() < 0.5 {
                    0.0
                } else {
                    (rng.gen::<f32>() - 0.5) + (rng.gen::<f32>() - 0.5) + (rng.gen::<f32>() - 0.5)
                }
            })
            .collect();
        LayerMatrix::new("w", 64, 64, data)
    }

    #[test]
    fn quantize_is_idempotent() {
        let f = FixedPoint::new(1, 6);
        for v in [-1.3f32, 0.0, 0.01, 0.5, 1.99] {
            let q = f.quantize(v);
            assert_eq!(f.quantize(q), q, "v = {v}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let f = FixedPoint::new(1, 2);
        assert_eq!(f.quantize(100.0), f.max_value());
        assert!(f.quantize(-100.0) <= -f.max_value());
    }

    #[test]
    fn more_frac_bits_reduce_error() {
        let m = weights(1);
        let coarse = FixedPoint::new(1, 2).mse(&m);
        let fine = FixedPoint::new(1, 8).mse(&m);
        assert!(fine < coarse / 10.0, "{fine} vs {coarse}");
    }

    #[test]
    fn zeros_survive_quantization() {
        // Pruned zeros stay exactly zero (a small non-zero may also round
        // to zero — that's quantization, not corruption).
        let m = weights(2);
        let q = FixedPoint::new(1, 4).quantize_matrix(&m);
        for (a, b) in m.data.iter().zip(&q.data) {
            if *a == 0.0 {
                assert_eq!(*b, 0.0);
            }
        }
        assert!(q.sparsity() >= m.sparsity());
    }

    #[test]
    fn for_range_covers_the_range() {
        let f = FixedPoint::for_range(8, 3.2);
        assert!(f.max_value() >= 3.2);
        assert_eq!(f.total_bits(), 8);
        let g = FixedPoint::for_range(8, 0.4);
        assert_eq!(g.int_bits, 0, "small range needs no integer bits");
    }

    #[test]
    fn clustering_beats_fixed_point_at_iso_error() {
        // §3.1.2: clustering uses strictly fewer bits per weight than
        // fixed-point at the same representational fidelity.
        let m = weights(3);
        for cluster_bits in [4u8, 5, 6] {
            let clustered = ClusteredLayer::from_matrix(&m, cluster_bits, 7);
            let target = clustered.quantization_mse(&m);
            let fp_bits =
                min_bits_for_mse(&m, target).expect("16 bits must reach any k-means MSE here");
            assert!(
                fp_bits > cluster_bits,
                "{cluster_bits}-bit clustering (mse {target:.2e}) matched by only {fp_bits} fixed-point bits"
            );
        }
    }

    #[test]
    fn min_bits_is_monotone_in_target() {
        let m = weights(4);
        let loose = min_bits_for_mse(&m, 1e-3).unwrap();
        let tight = min_bits_for_mse(&m, 1e-6).unwrap();
        assert!(tight >= loose);
    }
}
