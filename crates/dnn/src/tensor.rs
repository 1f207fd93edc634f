//! A minimal row-major `f32` tensor, a sample-innermost [`Batch`] of
//! them, and the unfolding that turns a convolution into a matrix
//! product (computed by [`crate::gemm`], which fixes the per-element
//! summation order): im2col/col2im for a single sample in training, and
//! for a batch a packing step that gathers the product's operand straight
//! from the activations.

use crate::gemm::{active_tier, axpy, PackRhs};
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
    oy: Range<usize>,
    ox: Range<usize>,
    img: usize,
}

/// One convolution's geometry: a `[c, h, w]` input, a `kh`×`kw` kernel,
/// the stride and the zero padding on every side.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeometry {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
}

impl ConvGeometry {
    /// Output spatial dimensions (see [`conv_out_dims`]).
    pub(crate) fn out_dims(&self) -> (usize, usize) {
        conv_out_dims(self.h, self.w, self.kh, self.kw, self.stride, self.pad)
    }

    /// Rows of the patch matrix: one per kernel tap, `c·kh·kw`.
    pub(crate) fn rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Patch-matrix row `row`, that is tap `(ci, ki, kj)` with
    /// `row = (ci·kh + ki)·kw + kj`, as its runs of in-bounds taps.
    fn patch_row(&self, row: usize) -> PatchRow {
        let Self {
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            ..
        } = *self;
        let (ci, ki, kj) = (row / (kh * kw), row / kw % kh, row % kw);
        let (out_h, out_w) = self.out_dims();
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
        let (oy, ox) = (taps(ki, h, out_h), taps(kj, w, out_w));
        if oy.is_empty() || ox.is_empty() {
            return PatchRow {
                oy: 0..0,
                ox: 0..0,
                img: 0,
            };
        }
        // `oy.start·stride + ki ≥ pad` and likewise for `ox`, by the bounds
        // of `taps`.
        let img = (ci * h + oy.start * stride + ki - pad) * w + ox.start * stride + kj - pad;
        PatchRow { oy, ox, img }
    }
}

/// Unfolds one `[c, h, w]` image (given as a flat slice) into its
/// `[c·kh·kw, out_h·out_w]` im2col matrix `dst`. Only in-bounds taps are
/// written, a whole run at a time — the caller must pre-zero `dst` so
/// padded taps read as zero. Training's single-sample forward keeps this
/// matrix for the weight gradient; batched inference never builds one
/// (see [`Batch`]).
///
/// # Panics
///
/// Panics if `data` or `dst` does not match the geometry.
// The entry asserts pin data to c*h*w and dst to rows*out_h*out_w; each
// run stays inside its output row and, by patch_row's ranges, inside the
// image.
pub(crate) fn im2col_into(data: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    let (out_h, out_w) = g.out_dims();
    let p = out_h * out_w;
    assert!(p > 0, "empty convolution output");
    assert_eq!(data.len(), g.c * g.h * g.w, "im2col image length");
    assert_eq!(dst.len(), g.rows() * p, "im2col destination size");
    for (row, band) in dst.chunks_exact_mut(p).enumerate() {
        let r = g.patch_row(row);
        let len = r.ox.len();
        for (i, oy) in r.oy.enumerate() {
            let src = &data[r.img + i * g.stride * g.w..];
            let run = &mut band[oy * out_w + r.ox.start..][..len];
            if g.stride == 1 {
                run.copy_from_slice(&src[..len]);
            } else {
                for (o, &v) in run.iter_mut().zip(src.iter().step_by(g.stride)) {
                    *o = v;
                }
            }
        }
    }
}

/// Folds an im2col-shaped gradient `cols` (`[c·kh·kw, out_h·out_w]`, row
/// major) back onto a `[c, h, w]` image — the adjoint of
/// [`im2col_into`], used by convolution backprop. `out` is overwritten.
/// Each image element sums its taps in patch-row, then output-position
/// order, whole runs at a time.
///
/// # Panics
///
/// Panics if `cols` or `out` is inconsistent with the geometry.
// The entry asserts pin cols to rows*out_h*out_w and out to c*h*w; each run
// stays inside its output row and, by patch_row's ranges, inside the
// image.
pub(crate) fn col2im_into(cols: &[f32], g: &ConvGeometry, out: &mut [f32]) {
    let (out_h, out_w) = g.out_dims();
    let p = out_h * out_w;
    assert_eq!(cols.len(), g.rows() * p, "col2im source size");
    assert_eq!(out.len(), g.c * g.h * g.w, "col2im image length");
    out.fill(0.0);
    for (row, band) in cols.chunks_exact(p).enumerate() {
        let r = g.patch_row(row);
        let len = r.ox.len();
        for (i, oy) in r.oy.enumerate() {
            let run = &band[oy * out_w + r.ox.start..][..len];
            let dst = &mut out[r.img + i * g.stride * g.w..];
            if g.stride == 1 {
                for (o, &v) in dst[..len].iter_mut().zip(run) {
                    *o += v;
                }
            } else {
                for (o, &v) in dst.iter_mut().step_by(g.stride).zip(run) {
                    *o += v;
                }
            }
        }
    }
}

/// A batch of same-shaped samples in one buffer, sample innermost:
/// element `i` of sample `s` sits at `data[i·n + s]`. A conv layer's
/// `[c][h][w][n]` output is then its GEMM's output as it stands (columns
/// run pixel-major, the `n` samples of a pixel side by side), Flatten only
/// relabels it, and a linear layer multiplies it as its `[k, n]`
/// right-hand matrix — the layout batched inference runs on
/// ([`crate::layer`]).
#[derive(Default, PartialEq)]
pub struct Batch {
    /// Shape of one sample.
    shape: Vec<usize>,
    /// Number of samples.
    n: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Batch(shape={:?}, n={})", self.shape, self.n)
    }
}

impl Clone for Batch {
    fn clone(&self) -> Self {
        Self {
            shape: self.shape.clone(),
            n: self.n,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s buffers: a trial copies a cached clean batch into
    /// the same staging batch every time.
    fn clone_from(&mut self, source: &Self) {
        self.shape.clone_from(&source.shape);
        self.n = source.n;
        self.data.clone_from(&source.data);
    }
}

impl Batch {
    /// Lays same-shaped samples out sample-innermost.
    ///
    /// # Panics
    ///
    /// Panics if the samples disagree in shape.
    // data is sized len*n from the first sample, and every sample is
    // asserted to have its shape, so i*n+s < len*n.
    pub fn from_samples<'a, I>(xs: I) -> Self
    where
        I: IntoIterator<Item = &'a Tensor>,
        I::IntoIter: ExactSizeIterator,
    {
        let xs = xs.into_iter();
        let mut batch = Self {
            n: xs.len(),
            ..Self::default()
        };
        for (s, x) in xs.enumerate() {
            if s == 0 {
                batch.shape = x.shape().to_vec();
                batch.data = vec![0.0; x.len() * batch.n];
            }
            assert_eq!(x.shape(), &batch.shape[..], "batch shapes must agree");
            for (i, &v) in x.data().iter().enumerate() {
                batch.data[i * batch.n + s] = v;
            }
        }
        batch
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the batch holds no sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Shape of one sample.
    pub(crate) fn sample_shape(&self) -> &[usize] {
        &self.shape
    }

    /// The buffer, `[shape..][n]`.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Sample `s`'s values, in its row-major order.
    pub(crate) fn values(&self, s: usize) -> impl Iterator<Item = f32> + '_ {
        self.data.iter().skip(s).step_by(self.n.max(1)).copied()
    }

    /// The samples as tensors, in order.
    pub fn to_samples(&self) -> Vec<Tensor> {
        (0..self.n)
            .map(|s| Tensor::from_parts(self.shape.clone(), self.values(s).collect()))
            .collect()
    }

    /// Mutable view of the buffer.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes to `n` samples of `shape` and returns the buffer, whose
    /// contents the caller overwrites.
    pub(crate) fn reset(&mut self, shape: &[usize], n: usize) -> &mut [f32] {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.n = n;
        self.data.resize(shape.iter().product::<usize>() * n, 0.0);
        &mut self.data
    }

    /// Frees the buffer's spare capacity: a batch that has been reused
    /// for a larger layer keeps that layer's allocation otherwise.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// The buffer's allocated length, in elements.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Relabels every sample with `shape`, of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub(crate) fn set_shape(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>() * self.n,
            self.data.len(),
            "reshape to {shape:?}"
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }
}

/// The im2col matrix of a `[c][h][w][n]` batch, `[c·kh·kw, out_h·out_w·n]`
/// with columns pixel-major, as the right-hand operand of the blocked
/// GEMM — never built: the packing step gathers each strip straight from
/// the batch, where the `n` samples of one tap at one output pixel are
/// contiguous, and packs zeros for padding taps.
pub(crate) struct BatchPatches<'a> {
    /// The batch, `[c][h][w][n]`.
    pub(crate) x: &'a [f32],
    pub(crate) g: ConvGeometry,
    /// Samples in the batch.
    pub(crate) n: usize,
}

impl PackRhs for BatchPatches<'_> {
    // The walk covers columns jc..jc+nc (inside the out_h*out_w*n columns
    // by the GEMM's blocking) in pieces inside one pixel's samples and one
    // strip, so each destination lies in its strip row and each source run
    // of `len` samples at an in-bounds tap inside the c*h*w*n batch.
    fn pack(&self, packed: &mut [f32], pc: usize, kc: usize, jc: usize, nc: usize, nr: usize) {
        let (n, (_, out_w)) = (self.n, self.g.out_dims());
        let step = self.g.stride;
        for kk in 0..kc {
            let r = self.g.patch_row(pc + kk);
            let (pixel, mut s0) = (jc / n, jc % n);
            let (mut oy, mut ox) = (pixel / out_w, pixel % out_w);
            let (mut strip, mut lane, mut left) = (0, 0, nc);
            while left > 0 {
                let len = (n - s0).min(nr - lane).min(left);
                let dst = &mut packed[(strip * kc + kk) * nr + lane..][..len];
                if r.oy.contains(&oy) && r.ox.contains(&ox) {
                    let tap =
                        r.img + (oy - r.oy.start) * step * self.g.w + (ox - r.ox.start) * step;
                    dst.copy_from_slice(&self.x[tap * n + s0..][..len]);
                } else {
                    dst.fill(0.0);
                }
                (s0, lane, left) = (s0 + len, lane + len, left - len);
                if s0 == n {
                    s0 = 0;
                    ox += 1;
                    if ox == out_w {
                        (oy, ox) = (oy + 1, 0);
                    }
                }
                if lane == nr {
                    (strip, lane) = (strip + 1, 0);
                }
            }
            if lane > 0 {
                packed[(strip * kc + kk) * nr + lane..(strip * kc + kk + 1) * nr].fill(0.0);
            }
        }
    }
}

/// One output channel of a convolution over a `[c][h][w][n]` batch `x`,
/// straight from the batch: `out[p·n + s]` is output pixel `p` of sample
/// `s` under the kernel row `row`, without the bias. Each element is the
/// blocked product's chain over [`BatchPatches`] (ascending k, one fused
/// rounding per term, starting at `0.0`) with the `±0` weights and the
/// padding taps left out, which is bit-identical (see [`crate::gemm`]),
/// on the tier axpy [`crate::gemm::gemm_row_into`] uses. So a pruned row
/// costs its nonzeros only.
///
/// # Panics
///
/// Asserts that the slice lengths match the geometry.
// The asserts pin row, x and out to the geometry; every run lies inside
// its output row and, by patch_row's ranges, inside the image.
pub(crate) fn conv_row_into(out: &mut [f32], row: &[f32], x: &[f32], g: &ConvGeometry, n: usize) {
    let (out_h, out_w) = g.out_dims();
    assert_eq!(row.len(), g.rows(), "kernel row length");
    assert_eq!(x.len(), g.c * g.h * g.w * n, "batch length vs geometry");
    assert_eq!(out.len(), out_h * out_w * n, "output channel length");
    out.fill(0.0);
    let tier = active_tier();
    for (kk, &a) in row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let r = g.patch_row(kk);
        let len = r.ox.len();
        for (i, oy) in r.oy.enumerate() {
            let src = r.img + i * g.stride * g.w;
            let dst = oy * out_w + r.ox.start;
            if g.stride == 1 {
                axpy(
                    tier,
                    &mut out[dst * n..(dst + len) * n],
                    &x[src * n..(src + len) * n],
                    a,
                );
            } else {
                for j in 0..len {
                    let tap = (src + j * g.stride) * n;
                    axpy(tier, &mut out[(dst + j) * n..][..n], &x[tap..tap + n], a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The geometry `[c, h, w, kh, kw, stride, pad]`.
    fn geometry([c, h, w, kh, kw, stride, pad]: [usize; 7]) -> ConvGeometry {
        ConvGeometry {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
        }
    }

    /// The per-element reference walk: every in-bounds (patch row, patch
    /// column, image index) triple in patch-row, then output-position
    /// order. The run-copy unfold must reproduce it bit for bit.
    fn for_each_patch_index(g: &ConvGeometry, mut f: impl FnMut(usize, usize, usize)) {
        let ConvGeometry {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
        } = *g;
        let (out_h, out_w) = g.out_dims();
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
    fn im2col(data: &[f32], g: &ConvGeometry) -> Vec<f32> {
        let (out_h, out_w) = g.out_dims();
        let mut cols = vec![0.0; g.rows() * out_h * out_w];
        im2col_into(data, g, &mut cols);
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
        assert_eq!(im2col(&input, &geometry([1, 2, 2, 1, 1, 1, 0])), input);
    }

    #[test]
    fn im2col_convolution_matches_direct() {
        // Convolve a 1x3x3 input with a single 2x2 kernel by both im2col
        // and direct summation.
        let input = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let kernel = [1.0, 0.5, -1.0, 2.0];
        let cols = im2col(&input, &geometry([1, 3, 3, 2, 2, 1, 0]));
        let out: Vec<f32> = (0..4)
            .map(|j| (0..4).map(|r| kernel[r] * cols[r * 4 + j]).sum())
            .collect();
        // Direct: out[0,0] = 1*1 + 2*0.5 + 4*(-1) + 5*2 = 8
        assert!((out[0] - 8.0).abs() < 1e-6);
        // out[1,1] (oy=1,ox=1) = 5*1 + 6*0.5 + 8*(-1) + 9*2 = 18
        assert!((out[3] - 18.0).abs() < 1e-6);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = geometry([2, 5, 5, 3, 3, 2, 1]);
        let x = random(g.c * g.h * g.w, &mut rng);
        let cols = im2col(&x, &g);
        let y = random(cols.len(), &mut rng);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let mut xt = vec![f32::NAN; x.len()];
        col2im_into(&y, &g, &mut xt);
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
            let geom = geometry([c, h, w, kh, kw, stride, pad]);
            let (out_h, out_w) = geom.out_dims();
            let p = out_h * out_w;
            let x = random(c * h * w, &mut rng);
            let mut want = vec![0.0f32; geom.rows() * p];
            for_each_patch_index(&geom, |row, col, img| {
                want[row * p + col] = x[img];
            });
            let got = im2col(&x, &geom);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );

            let g = random(want.len(), &mut rng);
            let mut want = vec![0.0f32; x.len()];
            for_each_patch_index(&geom, |row, col, img| {
                want[img] += g[row * p + col];
            });
            let mut got = vec![f32::NAN; x.len()];
            col2im_into(&g, &geom, &mut got);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
