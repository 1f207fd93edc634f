//! A minimal row-major `f32` tensor with the handful of operations the
//! substrate needs: matmul, transpose, im2col/col2im for convolutions.
//!
//! Matrix products are delegated to the blocked kernel in [`crate::gemm`],
//! which fixes the per-element summation order (determinism contract D1).

use crate::gemm::{gemm_into, GemmScratch};
use std::fmt;

/// Shape errors from checked tensor operations (determinism contract D2:
/// library code reports malformed shapes instead of panicking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An operand of a matrix operation was not 2-D.
    NotAMatrix {
        /// Which operand (`"lhs"` or `"rhs"`).
        role: &'static str,
        /// The operand's actual rank.
        dims: usize,
    },
    /// The inner dimensions of a matrix product disagree.
    InnerDimMismatch {
        /// Columns of the left operand.
        lhs: usize,
        /// Rows of the right operand.
        rhs: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotAMatrix { role, dims } => {
                write!(f, "{role} is not a matrix (rank {dims})")
            }
            Self::InnerDimMismatch { lhs, rhs } => {
                write!(f, "inner dimension mismatch: {lhs} vs {rhs}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A dense row-major tensor of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, len={})", self.shape, self.data.len())
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        assert!(!shape.is_empty(), "empty shape");
        assert!(shape.iter().all(|&d| d > 0), "zero dimension in {shape:?}");
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length vs shape {shape:?}");
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape to {shape:?}");
        self.shape = shape.to_vec();
        self
    }

    /// 2-D element access for matrices.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of bounds.
    // maxnvm-lint: allow(R1/index-arith): shape is asserted 2-D and data.len() == rows*cols, so r*shape[1]+c cannot wrap before the documented out-of-range panic fires.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 on non-matrix");
        self.data[r * self.shape[1] + c]
    }

    /// Checked matrix multiply: `self (m×k) · rhs (k×n) = (m×n)`, computed
    /// by the blocked kernel in [`crate::gemm`] (fixed ascending-k
    /// summation order per element).
    ///
    /// Allocates a fresh packing scratch per call; hot paths that reuse
    /// buffers call [`gemm_into`] directly instead.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if either operand is not 2-D or the inner
    /// dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape.len() != 2 {
            return Err(TensorError::NotAMatrix {
                role: "lhs",
                dims: self.shape.len(),
            });
        }
        if rhs.shape.len() != 2 {
            return Err(TensorError::NotAMatrix {
                role: "rhs",
                dims: rhs.shape.len(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        if k != k2 {
            return Err(TensorError::InnerDimMismatch { lhs: k, rhs: k2 });
        }
        let mut out = vec![0.0f32; m * n];
        gemm_into(
            &mut out,
            &self.data,
            &rhs.data,
            m,
            k,
            n,
            &mut GemmScratch::default(),
        );
        Ok(Tensor::from_vec(&[m, n], out))
    }

    /// Matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    // maxnvm-lint: allow(R1/index-arith): r < rows and c < cols from the iteration, and c*rows+r indexes the freshly allocated rows*cols buffer.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose on non-matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }
}

/// Output spatial dimensions of a convolution over an `h`×`w` image with
/// a `kh`×`kw` kernel, the given stride, and symmetric zero padding.
pub fn conv_out_dims(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    (
        (h + 2 * pad - kh) / stride + 1,
        (w + 2 * pad - kw) / stride + 1,
    )
}

/// Visits every in-bounds (patch-matrix position, image position) index
/// pair of the im2col unfolding: `f(row, col, img_idx)` where `row` spans
/// `c*kh*kw`, `col` spans `out_h*out_w`, and `img_idx` indexes the `[c,h,w]`
/// image. Padded taps (image coordinates outside the input) are skipped.
/// im2col scatters image→patch along these pairs; col2im (its adjoint)
/// accumulates patch→image along the same pairs.
#[allow(clippy::too_many_arguments)]
fn for_each_patch_index(
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    mut f: impl FnMut(usize, usize, usize),
) {
    let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oy in 0..out_h {
                    let iy = (oy * stride + ki) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * stride + kj) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        f(
                            row,
                            oy * out_w + ox,
                            (ci * h + iy as usize) * w + ix as usize,
                        );
                    }
                }
            }
        }
    }
}

/// Unfolds one `[c, h, w]` image (given as a flat slice) into a caller-owned
/// im2col destination. The patch matrix has `c*kh*kw` rows; row `r` of the
/// patch is written to `dst[r * dst_cols + col_offset ..]`, so a batch of
/// images can be unfolded side by side into one wide matrix (`dst_cols` =
/// patch columns × batch). Only in-bounds taps are written — the caller
/// must pre-zero `dst` so padded taps read as zero.
///
/// # Panics
///
/// Panics if `data` does not match `[c, h, w]` or the destination region
/// `col_offset .. col_offset + out_h*out_w` overflows `dst_cols`.
#[allow(clippy::too_many_arguments)]
// maxnvm-lint: allow(R1/index-arith): tap coordinates are bounded by the entry shape asserts and the padding guards that skip out-of-image taps before indexing.
pub fn im2col_into(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    dst: &mut [f32],
    dst_cols: usize,
    col_offset: usize,
) {
    assert_eq!(data.len(), c * h * w, "image length vs [{c},{h},{w}]");
    let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
    assert!(out_h > 0 && out_w > 0, "empty convolution output");
    assert!(
        col_offset + out_h * out_w <= dst_cols,
        "im2col destination columns overflow"
    );
    assert_eq!(dst.len(), c * kh * kw * dst_cols, "im2col destination size");
    for_each_patch_index(c, h, w, kh, kw, stride, pad, |row, col, img| {
        dst[row * dst_cols + col_offset + col] = data[img];
    });
}

/// Unfolds an input image `[c, h, w]` into the im2col matrix
/// `[c*kh*kw, out_h*out_w]` for a convolution with the given kernel,
/// stride and zero padding.
///
/// # Panics
///
/// Panics if the input is not 3-D or the output would be empty.
pub fn im2col(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> (Tensor, usize, usize) {
    assert_eq!(input.shape().len(), 3, "im2col expects [c,h,w]");
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
    assert!(out_h > 0 && out_w > 0, "empty convolution output");
    let rows = c * kh * kw;
    let cols = out_h * out_w;
    let mut out = vec![0.0f32; rows * cols];
    im2col_into(
        input.data(),
        c,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        &mut out,
        cols,
        0,
    );
    (Tensor::from_vec(&[rows, cols], out), out_h, out_w)
}

/// Folds an im2col-shaped gradient back onto the input image — the adjoint
/// of [`im2col`], used by convolution backprop.
///
/// # Panics
///
/// Panics if `cols`' shape is inconsistent with the geometry.
#[allow(clippy::too_many_arguments)]
// maxnvm-lint: allow(R1/index-arith): loop indices are bounded by the out_h/out_w/fan_in extents that sized the output buffer at the top of the fn.
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
    assert_eq!(cols.shape(), &[c * kh * kw, out_h * out_w], "col2im shape");
    let mut out = vec![0.0f32; c * h * w];
    let data = cols.data();
    let ncols = out_h * out_w;
    for_each_patch_index(c, h, w, kh, kw, stride, pad, |row, col, img| {
        out[img] += data[row * ncols + col];
    });
    Tensor::from_vec(&[c, h, w], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_known_result() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).expect("valid shapes");
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).expect("valid shapes"), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert_eq!(
            a.matmul(&b),
            Err(TensorError::InnerDimMismatch { lhs: 3, rhs: 2 })
        );
        let v = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(
            v.matmul(&a),
            Err(TensorError::NotAMatrix {
                role: "lhs",
                dims: 3
            })
        );
        assert_eq!(
            a.matmul(&v),
            Err(TensorError::NotAMatrix {
                role: "rhs",
                dims: 3
            })
        );
        assert_eq!(
            a.matmul(&b).unwrap_err().to_string(),
            "inner dimension mismatch: 3 vs 2"
        );
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at2(2, 1), 6.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0; 6]);
        let b = a.clone().reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let (cols, oh, ow) = im2col(&input, 1, 1, 1, 0);
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(cols.shape(), &[1, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_3x3_geometry() {
        let input = Tensor::zeros(&[3, 8, 8]);
        let (cols, oh, ow) = im2col(&input, 3, 3, 1, 1);
        assert_eq!((oh, ow), (8, 8));
        assert_eq!(cols.shape(), &[3 * 9, 64]);
    }

    #[test]
    fn im2col_convolution_matches_direct() {
        // Convolve a 1x3x3 input with a single 2x2 kernel by both im2col
        // matmul and direct summation.
        let input = Tensor::from_vec(
            &[1, 3, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        let kernel = Tensor::from_vec(&[1, 4], vec![1.0, 0.5, -1.0, 2.0]);
        let (cols, oh, ow) = im2col(&input, 2, 2, 1, 0);
        let out = kernel.matmul(&cols).expect("valid shapes");
        assert_eq!((oh, ow), (2, 2));
        // Direct: out[0,0] = 1*1 + 2*0.5 + 4*(-1) + 5*2 = 8
        assert!((out.data()[0] - 8.0).abs() < 1e-6);
        // out[1,1] (oy=1,ox=1) = 5*1 + 6*0.5 + 8*(-1) + 9*2 = 18
        assert!((out.data()[3] - 18.0).abs() < 1e-6);
    }

    #[test]
    fn im2col_into_batch_offset_matches_single() {
        // Two images unfolded side by side into one wide matrix must
        // reproduce each image's standalone im2col in its column band.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let (c, h, w, kh, kw, stride, pad) = (2, 5, 4, 3, 2, 1, 1);
        let imgs: Vec<Tensor> = (0..2)
            .map(|_| {
                Tensor::from_vec(
                    &[c, h, w],
                    (0..c * h * w).map(|_| rng.gen::<f32>() - 0.5).collect(),
                )
            })
            .collect();
        let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
        let p = out_h * out_w;
        let rows = c * kh * kw;
        let mut wide = vec![0.0f32; rows * 2 * p];
        for (s, img) in imgs.iter().enumerate() {
            im2col_into(
                img.data(),
                c,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                &mut wide,
                2 * p,
                s * p,
            );
        }
        for (s, img) in imgs.iter().enumerate() {
            let (cols, ..) = im2col(img, kh, kw, stride, pad);
            for r in 0..rows {
                assert_eq!(
                    &wide[r * 2 * p + s * p..r * 2 * p + (s + 1) * p],
                    &cols.data()[r * p..(r + 1) * p],
                    "sample {s} row {r}"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (c, h, w, kh, kw, stride, pad) = (2, 5, 5, 3, 3, 2, 1);
        let x = Tensor::from_vec(
            &[c, h, w],
            (0..c * h * w).map(|_| rng.gen::<f32>() - 0.5).collect(),
        );
        let (cols, oh, ow) = im2col(&x, kh, kw, stride, pad);
        let y = Tensor::from_vec(
            cols.shape(),
            (0..cols.len()).map(|_| rng.gen::<f32>() - 0.5).collect(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let xt = col2im(&y, c, h, w, kh, kw, stride, pad);
        let rhs: f32 = x.data().iter().zip(xt.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
        let _ = (oh, ow);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matmul_distributes_over_addition(
            m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in any::<u64>()
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut gen = |r: usize, c: usize| {
                Tensor::from_vec(&[r, c], (0..r * c).map(|_| rng.gen::<f32>() - 0.5).collect())
            };
            let a = gen(m, k);
            let b1 = gen(k, n);
            let b2 = gen(k, n);
            let sum = Tensor::from_vec(
                &[k, n],
                b1.data().iter().zip(b2.data()).map(|(x, y)| x + y).collect(),
            );
            let lhs = a.matmul(&sum).expect("valid shapes");
            let r1 = a.matmul(&b1).expect("valid shapes");
            let r2 = a.matmul(&b2).expect("valid shapes");
            for i in 0..lhs.len() {
                prop_assert!((lhs.data()[i] - (r1.data()[i] + r2.data()[i])).abs() < 1e-4);
            }
        }
    }
}
