//! The compressed (CSR) view of a decoded weight matrix.
//!
//! MaxNVM stores weights sparse-encoded in eNVM (CSR, BitMask+IdxSync,
//! §3.2); those are storage formats. Inference computes on the dense
//! decode — the row patch of the fault path skips pruned zero weights
//! (see [`crate::gemm`]) — and this row-major CSR matrix of a clean
//! decode's nonzeros is what per-layer nonzero and density counters
//! read.
//!
//! Stored entries are always nonzero: [`SparseMatrix::from_dense`] drops
//! exact-`±0.0` values, so `nnz` is the true nonzero count.

use crate::network::LayerMatrix;

/// A row-major CSR matrix of f32 weights: for each row, ascending column
/// indices and their (nonzero) values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` entry offsets into `col_idx` / `values`.
    row_starts: Vec<u32>,
    /// Column index per stored entry, ascending within each row.
    col_idx: Vec<u32>,
    /// Stored entry values, never exactly `±0.0`.
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from a dense [`LayerMatrix`], dropping exact-zero entries
    /// (both signs).
    ///
    /// # Panics
    ///
    /// Panics if `m.data.len() != m.rows * m.cols`.
    pub fn from_dense(m: &LayerMatrix) -> Self {
        assert_eq!(m.data.len(), m.rows * m.cols, "dense data shape mismatch");
        let mut row_starts = Vec::with_capacity(m.rows + 1);
        row_starts.push(0u32);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for row in m.data.chunks(m.cols.max(1)) {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_starts.push(col_idx.len() as u32);
        }
        // A zero-column matrix has no chunks: all of its rows are empty.
        row_starts.resize(m.rows + 1, 0);
        Self {
            rows: m.rows,
            cols: m.cols,
            row_starts,
            col_idx,
            values,
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

    /// Stored (nonzero) entry count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_case() -> LayerMatrix {
        let data = vec![
            0.0, 1.5, 0.0, -2.0, 0.0, //
            0.0, 0.0, 0.0, 0.0, 0.0, //
            3.0, 0.0, -0.0, 0.25, 7.0,
        ];
        LayerMatrix::new("w", 3, 5, data)
    }

    /// Row `r`'s stored entries: ascending column indices and values.
    fn row(s: &SparseMatrix, r: usize) -> (&[u32], &[f32]) {
        let (a, b) = (s.row_starts[r] as usize, s.row_starts[r + 1] as usize);
        (&s.col_idx[a..b], &s.values[a..b])
    }

    /// The dense row-major matrix `s` stores (zeros filled in).
    fn to_dense(s: &SparseMatrix) -> Vec<f32> {
        let mut out = vec![0.0; s.rows * s.cols];
        for (r, chunk) in out.chunks_mut(s.cols.max(1)).enumerate() {
            let (cols, vals) = row(s, r);
            for (&c, &v) in cols.iter().zip(vals) {
                chunk[c as usize] = v;
            }
        }
        out
    }

    #[test]
    fn round_trips_and_skips_zeros_of_both_signs() {
        let m = dense_case();
        let s = SparseMatrix::from_dense(&m);
        assert_eq!(s.nnz(), 5, "-0.0 must be dropped too");
        // -0.0 round-trips as +0.0: `nnz` must mean "nonzero".
        let back = to_dense(&s);
        for (i, (&a, &b)) in back.iter().zip(&m.data).enumerate() {
            if b == 0.0 {
                assert_eq!(a.to_bits(), 0.0f32.to_bits(), "slot {i}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {i}");
            }
        }
    }

    #[test]
    fn row_access_is_ascending() {
        let s = SparseMatrix::from_dense(&dense_case());
        assert_eq!(row(&s, 0), (&[1u32, 3][..], &[1.5f32, -2.0][..]));
        assert_eq!(row(&s, 1).0, &[] as &[u32]);
        assert_eq!(row(&s, 2), (&[0u32, 3, 4][..], &[3.0f32, 0.25, 7.0][..]));
    }

    #[test]
    fn empty_shapes_are_total() {
        for (r, c) in [(0, 0), (0, 4), (4, 0)] {
            let s = SparseMatrix::from_dense(&LayerMatrix::new("e", r, c, vec![0.0; r * c]));
            assert_eq!(s.nnz(), 0);
            assert_eq!(to_dense(&s).len(), r * c);
            for i in 0..r {
                assert!(row(&s, i).0.is_empty());
            }
        }
    }

    #[test]
    fn all_zero_matrix_round_trips() {
        let s = SparseMatrix::from_dense(&LayerMatrix::new("z", 4, 6, vec![0.0; 24]));
        assert_eq!(s.nnz(), 0);
        assert_eq!(to_dense(&s), vec![0.0; 24]);
        for r in 0..4 {
            assert!(row(&s, r).0.is_empty());
        }
    }
}
