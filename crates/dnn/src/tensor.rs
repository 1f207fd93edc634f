//! A minimal row-major `f32` tensor, plus the im2col/col2im unfolding
//! that turns a convolution into a matrix product (computed by
//! [`crate::gemm`], which fixes the per-element summation order).

use std::fmt;
use std::ops::Range;

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
        Self::from_parts(shape.to_vec(), data)
    }

    /// Wraps an existing shape and data, copying neither.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub(crate) fn from_parts(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length vs shape {shape:?}");
        Self { shape, data }
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

/// One patch-matrix row of the im2col unfolding, as runs of in-bounds
/// taps: output row `oy.start + i` reads columns `ox` from the image at
/// `img + i·stride·w`, then every `stride`-th element. The row's other
/// positions are padded taps; both ranges are empty when the row has no
/// tap inside the image.
struct PatchRow {
    row: usize,
    oy: Range<usize>,
    ox: Range<usize>,
    img: usize,
}

/// Visits the `c*kh*kw` rows of the im2col unfolding in order. im2col
/// copies image→patch along their runs; col2im (its adjoint) adds
/// patch→image along the same runs, in the same order.
#[expect(clippy::too_many_arguments, reason = "one per convolution dimension")]
fn for_each_patch_row(
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    mut f: impl FnMut(PatchRow),
) {
    let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
    // The outputs `o < out` whose tap `o·stride + k − pad` lies in `0..len`
    // (no division on the common stride-1 path).
    let taps = |k: usize, len: usize, out: usize| {
        let (lo, hi) = (pad.saturating_sub(k), (len + pad).saturating_sub(k));
        if stride == 1 {
            lo.min(out)..hi.min(out)
        } else {
            lo.div_ceil(stride).min(out)..hi.div_ceil(stride).min(out)
        }
    };
    for ci in 0..c {
        for ki in 0..kh {
            let oy = taps(ki, h, out_h);
            for kj in 0..kw {
                let ox = taps(kj, w, out_w);
                let row = (ci * kh + ki) * kw + kj;
                f(if oy.is_empty() || ox.is_empty() {
                    PatchRow {
                        row,
                        oy: 0..0,
                        ox: 0..0,
                        img: 0,
                    }
                } else {
                    // `oy.start·stride + ki ≥ pad` and likewise for `ox`,
                    // by the bounds of `taps`.
                    PatchRow {
                        row,
                        oy: oy.clone(),
                        ox: ox.clone(),
                        img: (ci * h + oy.start * stride + ki - pad) * w + ox.start * stride + kj
                            - pad,
                    }
                });
            }
        }
    }
}

/// Unfolds one `[c, h, w]` image (given as a flat slice) into a caller-owned
/// im2col destination. The patch matrix has `c*kh*kw` rows; row `r` of the
/// patch is written to `dst[r * dst_cols + col_offset ..]`, so a batch of
/// images can be unfolded side by side into one wide matrix (`dst_cols` =
/// patch columns × batch). Only in-bounds taps are written, a whole run
/// at a time — the caller must pre-zero `dst` so padded taps read as
/// zero.
///
/// # Panics
///
/// Panics if `data` does not match `[c, h, w]` or the destination region
/// `col_offset .. col_offset + out_h*out_w` overflows `dst_cols`.
#[expect(clippy::too_many_arguments, reason = "one per convolution dimension")]
// The entry asserts pin data to c*h*w and dst to rows*dst_cols with
// col_offset+out_h*out_w <= dst_cols; each run stays inside its output row
// and, by for_each_patch_row's ranges, inside the image.
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
    let p = out_h * out_w;
    assert!(p > 0, "empty convolution output");
    assert!(
        col_offset + p <= dst_cols,
        "im2col destination columns overflow"
    );
    assert_eq!(dst.len(), c * kh * kw * dst_cols, "im2col destination size");
    for_each_patch_row(c, h, w, kh, kw, stride, pad, |r| {
        let band = &mut dst[r.row * dst_cols + col_offset..][..p];
        let len = r.ox.len();
        for (i, oy) in r.oy.enumerate() {
            let src = &data[r.img + i * stride * w..];
            let run = &mut band[oy * out_w + r.ox.start..][..len];
            if stride == 1 {
                run.copy_from_slice(&src[..len]);
            } else {
                for (o, &v) in run.iter_mut().zip(src.iter().step_by(stride)) {
                    *o = v;
                }
            }
        }
    });
}

/// Folds an im2col-shaped gradient `cols` (`[c*kh*kw, out_h*out_w]`, row
/// major) back onto a `[c, h, w]` image — the adjoint of
/// [`im2col_into`], used by convolution backprop. `out` is overwritten.
/// Each image element sums its taps in patch-row, then output-position
/// order, whole runs at a time.
///
/// # Panics
///
/// Panics if `cols` or `out` is inconsistent with the geometry.
#[expect(clippy::too_many_arguments, reason = "one per convolution dimension")]
// The entry asserts pin cols to rows*out_h*out_w and out to c*h*w; each run
// stays inside its output row and, by for_each_patch_row's ranges, inside
// the image.
pub fn col2im_into(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
    let p = out_h * out_w;
    assert_eq!(cols.len(), c * kh * kw * p, "col2im source size");
    assert_eq!(out.len(), c * h * w, "col2im image length vs [{c},{h},{w}]");
    out.fill(0.0);
    for_each_patch_row(c, h, w, kh, kw, stride, pad, |r| {
        let band = &cols[r.row * p..][..p];
        let len = r.ox.len();
        for (i, oy) in r.oy.enumerate() {
            let run = &band[oy * out_w + r.ox.start..][..len];
            let dst = &mut out[r.img + i * stride * w..];
            if stride == 1 {
                for (o, &v) in dst[..len].iter_mut().zip(run) {
                    *o += v;
                }
            } else {
                for (o, &v) in dst.iter_mut().step_by(stride).zip(run) {
                    *o += v;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The per-element reference walk: every in-bounds (patch row, patch
    /// column, image index) triple in patch-row, then output-position
    /// order. The run-copy unfold must reproduce it bit for bit.
    #[expect(clippy::too_many_arguments, reason = "one per convolution dimension")]
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

    /// One image's `[c*kh*kw, out_h*out_w]` patch matrix.
    fn im2col(data: &[f32], geom: [usize; 7]) -> Vec<f32> {
        let [c, h, w, kh, kw, stride, pad] = geom;
        let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
        let p = out_h * out_w;
        let mut cols = vec![0.0; c * kh * kw * p];
        im2col_into(data, c, h, w, kh, kw, stride, pad, &mut cols, p, 0);
        cols
    }

    fn random(len: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..len).map(|_| rng.gen::<f32>() - 0.5).collect()
    }

    #[test]
    fn zeros_and_len() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
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
        let input = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(im2col(&input, [1, 2, 2, 1, 1, 1, 0]), input);
    }

    #[test]
    fn im2col_convolution_matches_direct() {
        // Convolve a 1x3x3 input with a single 2x2 kernel by both im2col
        // and direct summation.
        let input = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let kernel = [1.0, 0.5, -1.0, 2.0];
        let cols = im2col(&input, [1, 3, 3, 2, 2, 1, 0]);
        let out: Vec<f32> = (0..4)
            .map(|j| (0..4).map(|r| kernel[r] * cols[r * 4 + j]).sum())
            .collect();
        // Direct: out[0,0] = 1*1 + 2*0.5 + 4*(-1) + 5*2 = 8
        assert!((out[0] - 8.0).abs() < 1e-6);
        // out[1,1] (oy=1,ox=1) = 5*1 + 6*0.5 + 8*(-1) + 9*2 = 18
        assert!((out[3] - 18.0).abs() < 1e-6);
    }

    #[test]
    fn im2col_into_batch_offset_matches_single() {
        // Two images unfolded side by side into one wide matrix must
        // reproduce each image's standalone im2col in its column band.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let geom = [2, 5, 4, 3, 2, 1, 1];
        let [c, h, w, kh, kw, stride, pad] = geom;
        let imgs: Vec<Vec<f32>> = (0..2).map(|_| random(c * h * w, &mut rng)).collect();
        let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
        let p = out_h * out_w;
        let rows = c * kh * kw;
        let mut wide = vec![0.0; rows * 2 * p];
        for (s, img) in imgs.iter().enumerate() {
            im2col_into(img, c, h, w, kh, kw, stride, pad, &mut wide, 2 * p, s * p);
        }
        for (s, img) in imgs.iter().enumerate() {
            let cols = im2col(img, geom);
            for r in 0..rows {
                assert_eq!(
                    &wide[r * 2 * p + s * p..r * 2 * p + (s + 1) * p],
                    &cols[r * p..(r + 1) * p],
                    "sample {s} row {r}"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let geom = [2, 5, 5, 3, 3, 2, 1];
        let [c, h, w, kh, kw, stride, pad] = geom;
        let x = random(c * h * w, &mut rng);
        let cols = im2col(&x, geom);
        let y = random(cols.len(), &mut rng);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut xt = vec![f32::NAN; x.len()];
        col2im_into(&y, c, h, w, kh, kw, stride, pad, &mut xt);
        let rhs: f32 = x.iter().zip(&xt).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The run-copy unfold and fold equal the per-element walk bit
        /// for bit: every cell, every accumulation order. Pads reach past
        /// the kernel (whole padded tap rows and columns), outputs down to
        /// one column, strides up to 3.
        #[test]
        fn prop_runs_match_the_per_element_walk(
            c in 1usize..4, h in 1usize..9, w in 1usize..9, kh in 1usize..5,
            kw in 1usize..5, stride in 1usize..4, pad in 0usize..6, seed in any::<u64>()
        ) {
            // The kernel fits the padded image.
            let (kh, kw) = (kh.min(h + 2 * pad), kw.min(w + 2 * pad));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (out_h, out_w) = conv_out_dims(h, w, kh, kw, stride, pad);
            let p = out_h * out_w;
            let x = random(c * h * w, &mut rng);
            let mut want = vec![0.0f32; c * kh * kw * p];
            for_each_patch_index(c, h, w, kh, kw, stride, pad, |row, col, img| {
                want[row * p + col] = x[img];
            });
            let got = im2col(&x, [c, h, w, kh, kw, stride, pad]);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );

            let g = random(want.len(), &mut rng);
            let mut want = vec![0.0f32; x.len()];
            for_each_patch_index(c, h, w, kh, kw, stride, pad, |row, col, img| {
                want[img] += g[row * p + col];
            });
            let mut got = vec![f32::NAN; x.len()];
            col2im_into(&g, c, h, w, kh, kw, stride, pad, &mut got);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
