//! The nonzero count of a decoded weight matrix.
//!
//! MaxNVM stores weights sparse-encoded in eNVM (CSR, BitMask+IdxSync,
//! §3.2); those are storage formats. Inference computes on the dense
//! decode — the row patch of the fault path skips pruned zero weights
//! (see [`crate::gemm`]) — and what per-layer nonzero and density
//! counters read of a clean decode is its shape and nonzero count.
//!
//! [`SparseMatrix::from_dense`] counts exact-`±0.0` values as zero, so
//! `nnz` is the true nonzero count.

use crate::network::LayerMatrix;

/// The shape and nonzero count of a matrix of f32 weights.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Entries that are not exactly `±0.0`.
    nnz: usize,
}

impl SparseMatrix {
    /// Counts the nonzeros of a dense [`LayerMatrix`], exact-zero entries
    /// (both signs) excluded.
    ///
    /// # Panics
    ///
    /// Panics if `m.data.len() != m.rows * m.cols`.
    pub fn from_dense(m: &LayerMatrix) -> Self {
        assert_eq!(m.data.len(), m.rows * m.cols, "dense data shape mismatch");
        Self {
            rows: m.rows,
            cols: m.cols,
            nnz: m.nonzeros(),
        }
    }

    /// Matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzero entry count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnz_skips_zeros_of_both_signs() {
        let data = vec![
            0.0, 1.5, 0.0, -2.0, 0.0, //
            0.0, 0.0, 0.0, 0.0, 0.0, //
            3.0, 0.0, -0.0, 0.25, 7.0,
        ];
        let s = SparseMatrix::from_dense(&LayerMatrix::new("w", 3, 5, data));
        assert_eq!((s.rows(), s.cols()), (3, 5));
        assert_eq!(s.nnz(), 5, "-0.0 must count as zero too");
    }

    #[test]
    fn empty_shapes_are_total() {
        for (r, c) in [(0, 0), (0, 4), (4, 0)] {
            let s = SparseMatrix::from_dense(&LayerMatrix::new("e", r, c, vec![0.0; r * c]));
            assert_eq!((s.rows(), s.cols(), s.nnz()), (r, c, 0));
        }
    }

    #[test]
    fn all_zero_matrix_has_no_nonzeros() {
        let data = [0.0, -0.0].repeat(12);
        let s = SparseMatrix::from_dense(&LayerMatrix::new("z", 4, 6, data));
        assert_eq!(s.nnz(), 0);
    }
}
