//! x86-64 SIMD micro-kernels (AVX2+FMA and AVX-512F tiers).
//!
//! Every function here computes the exact per-element operation chain
//! documented in the `gemm` module: one single-rounding fused
//! multiply-add per `(k, element)` term, ascending k. `_mm*_fmadd_ps`
//! lanes and `f32::mul_add` are both IEEE-754 correctly-rounded fused
//! operations, so the vector bodies, their scalar tails, and the
//! portable fallbacks all produce identical bits — these kernels are
//! pure speedups, never a semantics change.
//!
//! All functions are `#[target_feature]`-gated and therefore `unsafe`
//! to call: the dispatch layer (`gemm::dispatch`) only routes here
//! after `is_x86_feature_detected!` has confirmed the feature set, and
//! callers are responsible for the pointer contracts spelled out on
//! each function.

use core::arch::x86_64::*;

/// AVX2+FMA micro-kernel: one full 6×16 tile, two 256-bit accumulator
/// lanes per row.
///
/// # Safety
///
/// Requires AVX2 and FMA (guaranteed by dispatch). `cp` must point at
/// the tile's top-left element of a row-major buffer with row stride
/// `stride` such that all `6*stride`-spaced rows of 16 elements are in
/// bounds and unaliased by other concurrent writers; `pa`/`pb` must
/// hold at least `kc*6` / `kc*16` packed floats.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn micro_6x16_avx2(
    cp: *mut f32,
    stride: usize,
    pa: *const f32,
    pb: *const f32,
    kc: usize,
) {
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    for (i, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(cp.add(i * stride));
        row[1] = _mm256_loadu_ps(cp.add(i * stride + 8));
    }
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(kk * 16));
        let b1 = _mm256_loadu_ps(pb.add(kk * 16 + 8));
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = _mm256_set1_ps(*pa.add(kk * 6 + i));
            row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
            row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(cp.add(i * stride), row[0]);
        _mm256_storeu_ps(cp.add(i * stride + 8), row[1]);
    }
}

/// AVX-512F micro-kernel: one full 8×32 tile, two 512-bit accumulator
/// lanes per row.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by dispatch). Same pointer contract as
/// [`micro_6x16_avx2`] with an 8×32 tile: rows of 32 elements at
/// `stride` spacing in bounds and unaliased; `pa`/`pb` hold `kc*8` /
/// `kc*32` floats.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn micro_8x32_avx512(
    cp: *mut f32,
    stride: usize,
    pa: *const f32,
    pb: *const f32,
    kc: usize,
) {
    let mut acc = [[_mm512_setzero_ps(); 2]; 8];
    for (i, row) in acc.iter_mut().enumerate() {
        row[0] = _mm512_loadu_ps(cp.add(i * stride));
        row[1] = _mm512_loadu_ps(cp.add(i * stride + 16));
    }
    for kk in 0..kc {
        let b0 = _mm512_loadu_ps(pb.add(kk * 32));
        let b1 = _mm512_loadu_ps(pb.add(kk * 32 + 16));
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = _mm512_set1_ps(*pa.add(kk * 8 + i));
            row[0] = _mm512_fmadd_ps(ai, b0, row[0]);
            row[1] = _mm512_fmadd_ps(ai, b1, row[1]);
        }
    }
    for (i, row) in acc.iter().enumerate() {
        _mm512_storeu_ps(cp.add(i * stride), row[0]);
        _mm512_storeu_ps(cp.add(i * stride + 16), row[1]);
    }
}

/// The scalar tier's 4×8 tile compiled with FMA enabled: identical
/// source (and hence identical per-lane fused semantics) to
/// `micro_tile_mul_add::<4, 8>`, but `f32::mul_add` lowers to a
/// hardware `vfmadd` instead of a libm call, and the independent lanes
/// vectorize.
///
/// # Safety
///
/// Requires FMA (guaranteed by dispatch). Same pointer contract as
/// `micro_tile_mul_add::<4, 8>`.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "fma")]
pub(super) unsafe fn micro_4x8_fma(
    cp: *mut f32,
    stride: usize,
    pa: *const f32,
    pb: *const f32,
    kc: usize,
) {
    // SAFETY: forwarded caller contract; #[inline(always)] body compiles
    // with this function's FMA target feature.
    unsafe { super::micro_tile_mul_add::<4, 8>(cp, stride, pa, pb, kc) }
}

/// AVX2+FMA `dst[j] = fma(a, src[j], dst[j])`: 8-lane vector body,
/// `f32::mul_add` tail — one fused rounding per element either way.
///
/// # Safety
///
/// Requires AVX2 and FMA (guaranteed by dispatch). `dst` and `src` must
/// be the same length.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], a: f32) {
    let n = dst.len().min(src.len());
    let av = _mm256_set1_ps(a);
    let mut j = 0;
    while j + 8 <= n {
        let d = _mm256_loadu_ps(dst.as_ptr().add(j));
        let s = _mm256_loadu_ps(src.as_ptr().add(j));
        _mm256_storeu_ps(dst.as_mut_ptr().add(j), _mm256_fmadd_ps(av, s, d));
        j += 8;
    }
    while j < n {
        dst[j] = a.mul_add(src[j], dst[j]);
        j += 1;
    }
}

/// AVX-512F `dst[j] = fma(a, src[j], dst[j])`: 16-lane vector body,
/// `f32::mul_add` tail.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by dispatch). `dst` and `src` must be
/// the same length.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn axpy_avx512(dst: &mut [f32], src: &[f32], a: f32) {
    let n = dst.len().min(src.len());
    let av = _mm512_set1_ps(a);
    let mut j = 0;
    while j + 16 <= n {
        let d = _mm512_loadu_ps(dst.as_ptr().add(j));
        let s = _mm512_loadu_ps(src.as_ptr().add(j));
        _mm512_storeu_ps(dst.as_mut_ptr().add(j), _mm512_fmadd_ps(av, s, d));
        j += 16;
    }
    while j < n {
        dst[j] = a.mul_add(src[j], dst[j]);
        j += 1;
    }
}

/// The scalar tier's axpy compiled with FMA enabled (same fused
/// per-element chain as the portable loop, hardware instruction).
///
/// # Safety
///
/// Requires FMA (guaranteed by dispatch). `dst` and `src` must be the
/// same length.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "fma")]
pub(super) unsafe fn axpy_fma(dst: &mut [f32], src: &[f32], a: f32) {
    super::axpy_portable(dst, src, a);
}

/// Scalar fused dot product compiled with hardware FMA: the portable
/// body's sequential chain, one `vfmadd` per term.
///
/// # Safety
///
/// Requires FMA (guaranteed by dispatch). `a` and `b` must be the same
/// length.
// SAFETY: `unsafe fn` — caller contract in the doc `# Safety` section
// above; dispatch verifies the target features before routing here.
#[target_feature(enable = "fma")]
pub(super) unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
    super::dot_portable(a, b)
}
