//! Cache-blocked f32 GEMM with a fixed, input-independent summation
//! order and runtime-dispatched SIMD micro-kernels.
//!
//! The naive i-k-j matmul this replaces re-reads the whole right-hand
//! matrix from memory for every output row; at LeNet5 batch sizes the
//! trial loop spends most of its time there. This kernel uses the
//! classic three-level blocking (GotoBLAS / BLIS structure): the right
//! operand is packed into `nr`-wide column panels, the left operand
//! into `mr`-tall row panels, and an `mr`×`nr` register-tile
//! micro-kernel runs over [`KC`]-deep slices. The tile shape is chosen
//! per instruction set by [`active_tier`] — a 4×8 portable tile
//! ([`SimdTier::Scalar`]), a 6×16 AVX2/FMA tile, an 8×32 AVX-512 tile,
//! or an 8×8 NEON tile — detected **once per process** from CPU
//! features (plus the `MAXNVM_FORCE_SCALAR` escape hatch), never from
//! the data being multiplied.
//!
//! # Summation order (determinism contract D1)
//!
//! Every output element `c[i, j]` is accumulated in **pure ascending-k
//! order** as a chain of IEEE-754 *fused* multiply-adds, one single
//! rounding per term: `fma(a[i,k], b[k,j], … fma(a[i,1], b[1,j],
//! fma(a[i,0], b[0,j], 0.0)) …)`. The micro-kernel keeps exactly one
//! accumulator per output element, loads the current `c` tile into it,
//! adds the panel's `kc` terms in k order, and stores the tile back, so
//! splitting `k` into `KC`-deep panels does not reorder or re-associate
//! any element's chain.
//!
//! Crucially, the chain is **tier-independent**: `f32::mul_add`, an
//! x86 `vfmadd` lane, and a NEON `vfma` lane are all the same
//! correctly-rounded fused operation, so every tier (and every
//! architecture) produces identical bits. SIMD dispatch is therefore a
//! pure performance knob; [`gemm_row_into`] (a sequential fused dot,
//! one `mul_add` per term) reproduces any row of [`gemm_into`] bit for
//! bit on any machine. That property is what lets the fault-delta
//! forward pass recompute only the rows a fault touched (see
//! `network`/`prefix`), and what makes campaign results byte-identical
//! between scalar-forced and SIMD runs.
//!
//! [`gemm_into`] does not branch on zero-valued `a` entries —
//! data-dependent branches defeat vectorization — but skipping a term
//! whose `a` entry is exactly `±0.0` *is* a bitwise no-op under fused
//! arithmetic too: `fma(±0.0, b, acc)` rounds `±0.0·b + acc = acc`
//! exactly for any finite `b`, and an accumulator that starts at `+0.0`
//! can never become `-0.0` (under round-to-nearest `+0.0 + ±0.0 = +0.0`
//! and exact cancellation of nonzero terms yields `+0.0`; a fused term
//! behaves the same because its product's sign only matters when the
//! sum is exactly zero). So [`gemm_row_into`], which recomputes the
//! magnitude-pruned weight rows a fault touched, skips those terms and
//! pays only for a row's nonzeros while still reproducing the blocked
//! kernel's row bit for bit. The one caveat is non-finite activations
//! (`0.0 · inf = NaN` on the blocked path only), which cannot arise
//! from the finite inputs this crate feeds the kernels (see
//! `DESIGN.md` §13).
//!
mod dispatch;
#[cfg(target_arch = "aarch64")]
mod kernel_neon;
#[cfg(target_arch = "x86_64")]
mod kernel_x86;

pub use dispatch::{
    active_tier, env_force_scalar, force_tier_for_tests, parse_force_scalar, supported_tiers,
    InvalidForceScalar, SimdTier, FORCE_SCALAR_ENV,
};

/// Depth of one packed panel (L1-resident slice of the k dimension);
/// shared by every tier.
pub const KC: usize = 256;
/// Column-block width (L3-resident slab of the packed right operand);
/// shared by every tier and divisible by every tier's `nr`.
pub const NC: usize = 1024;

/// Largest `mr`×`nr` register tile across tiers (the AVX-512 8×32);
/// sizes the edge-tile staging buffer.
const MAX_TILE: usize = 8 * 32;

/// Reusable packing buffers for [`gemm_into`]. Holding one per worker
/// (inside the evaluation scratch) keeps the trial loop allocation-free:
/// the buffers grow once and are reused by every subsequent multiply.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    packed_a: Vec<f32>,
    packed_b: Vec<f32>,
}

/// `c = a · b` for row-major `a` (`m`×`k`), `b` (`k`×`n`), `c` (`m`×`n`).
///
/// `c` is overwritten (zeroed first). The classic jc/pc/ic loop nest runs
/// with the active tier's packing shapes; see the module docs for the
/// summation-order guarantee.
///
/// # Panics
///
/// Asserts that the slice lengths match the given dimensions.
pub fn gemm_into(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "lhs length vs {m}x{k}");
    assert_eq!(b.len(), k * n, "rhs length vs {k}x{n}");
    assert_eq!(c.len(), m * n, "out length vs {m}x{n}");
    c.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let tier = active_tier();
    let (mr, nr, mc_blk) = (tier.mr(), tier.nr(), tier.mc());
    let GemmScratch { packed_a, packed_b } = scratch;
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(packed_b, b, n, pc, kc, jc, nc, nr);
            let mut ic = 0;
            while ic < m {
                let mc = mc_blk.min(m - ic);
                pack_a(packed_a, a, k, ic, mc, pc, kc, mr);
                macro_kernel(tier, c, packed_a, packed_b, n, ic, mc, kc, jc, nc);
                ic += mc_blk;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// One output row by a sequential fused dot: `out[j] = fma(row[k-1],
/// b[k-1,j], … fma(row[0], b[0,j], 0.0))` in ascending-k order —
/// bit-identical to the same row of [`gemm_into`] on every tier (see
/// the module docs). Terms whose `row` entry is exactly `±0.0` are
/// skipped, a bitwise no-op by the same argument, so a pruned row costs
/// its nonzeros only. Used by the clean-prefix fault path to recompute
/// only the weight rows a fault touched.
///
/// # Panics
///
/// Asserts that the slice lengths match the given dimensions.
// Entry asserts pin row/b/out to k, k*n, n, so the kk*n..(kk+1)*n panel is
// in range for every kk < k.
pub fn gemm_row_into(out: &mut [f32], row: &[f32], b: &[f32], k: usize, n: usize) {
    assert_eq!(row.len(), k, "row length vs k={k}");
    assert_eq!(b.len(), k * n, "rhs length vs {k}x{n}");
    assert_eq!(out.len(), n, "out length vs n={n}");
    out.fill(0.0);
    let tier = active_tier();
    for (kk, &av) in row.iter().enumerate() {
        if av != 0.0 {
            axpy(tier, out, &b[kk * n..(kk + 1) * n], av);
        }
    }
}

/// Sequential fused dot product — the scalar form of the kernels'
/// per-element chain: `fma(a[k-1], b[k-1], … fma(a[0], b[0], 0.0))`.
/// Bit-identical to one element of [`gemm_into`] (`n = 1` column) on
/// every tier; used wherever a single output needs the same bits as
/// the batched kernels (e.g. the single-sample linear layer). Runs an
/// FMA-compiled clone where the CPU has hardware FMA, like the scalar
/// tier's axpy, instead of one libm `fmaf` call per term.
///
/// # Panics
///
/// Asserts that the slices have equal length.
pub fn fused_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operand lengths");
    #[cfg(target_arch = "x86_64")]
    if dispatch::scalar_fma_available() {
        // SAFETY: hardware FMA detected; the clone computes the same
        // sequential chain as the portable body.
        return unsafe { kernel_x86::dot_fma(a, b) };
    }
    dot_portable(a, b)
}

/// Portable fused dot body: one `f32::mul_add` per term, ascending —
/// the reference semantics of [`fused_dot`]. `#[inline(always)]` so the
/// `#[target_feature]` clone compiles it with hardware FMA.
#[inline(always)]
fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// Packs `a[ic.., pc..]` (`mc`×`kc`) into `mr`-tall strips:
/// `packed[(strip·kc + kk)·mr + i] = a[ic + strip·mr + i, pc + kk]`,
/// zero-padded past `mc` so the micro-kernel never branches on edges.
#[expect(clippy::too_many_arguments, reason = "one scalar per block coordinate")]
// packed is resized to exactly strips*kc*MR before the copy loops; every
// index is a (strip, row, lane) triple inside those extents.
fn pack_a(
    packed: &mut Vec<f32>,
    a: &[f32],
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr: usize,
) {
    let strips = mc.div_ceil(mr);
    packed.clear();
    packed.resize(strips * kc * mr, 0.0);
    for s in 0..strips {
        let base = s * kc * mr;
        for i in 0..mr {
            let row = s * mr + i;
            if row >= mc {
                continue; // padding stays zero
            }
            let src = &a[(ic + row) * k + pc..(ic + row) * k + pc + kc];
            for (kk, &v) in src.iter().enumerate() {
                packed[base + kk * mr + i] = v;
            }
        }
    }
}

/// Packs `b[pc.., jc..]` (`kc`×`nc`) into `nr`-wide strips:
/// `packed[(strip·kc + kk)·nr + j] = b[pc + kk, jc + strip·nr + j]`,
/// zero-padded past `nc`.
#[expect(clippy::too_many_arguments, reason = "one scalar per block coordinate")]
// packed is resized to exactly strips*kc*NR before the copy loops; every
// index is a (strip, row, lane) triple inside those extents.
fn pack_b(
    packed: &mut Vec<f32>,
    b: &[f32],
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
) {
    let strips = nc.div_ceil(nr);
    packed.clear();
    packed.resize(strips * kc * nr, 0.0);
    for s in 0..strips {
        let base = s * kc * nr;
        let col = jc + s * nr;
        let width = nr.min(nc - s * nr);
        for kk in 0..kc {
            let src = &b[(pc + kk) * n + col..(pc + kk) * n + col + width];
            let dst = &mut packed[base + kk * nr..base + kk * nr + width];
            dst.copy_from_slice(src);
        }
    }
}

/// Runs the tier's `mr`×`nr` micro-kernel over every strip pair of one
/// (`mc`×`kc`)·(`kc`×`nc`) block, accumulating into `c`. Full tiles run
/// in place; edge tiles bounce through a zero-padded staging tile —
/// the live lanes' chains are identical either way, and padded lanes
/// multiply packed zeros (a bitwise no-op never stored back).
#[expect(clippy::too_many_arguments, reason = "one scalar per block coordinate")]
// Indexes the packed panels with the same strip/kc/lane extents
// pack_a/pack_b allocated, and `c` at tile rows and columns inside the
// ic..ic+mc × jc..jc+nc block; every range is bounds-checked slicing.
fn macro_kernel(
    tier: SimdTier,
    c: &mut [f32],
    packed_a: &[f32],
    packed_b: &[f32],
    n: usize,
    ic: usize,
    mc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let (mr, nr) = (tier.mr(), tier.nr());
    let mut stage = [0.0f32; MAX_TILE];
    for bs in 0..nc.div_ceil(nr) {
        let pb = &packed_b[bs * kc * nr..(bs + 1) * kc * nr];
        let cols = nr.min(nc - bs * nr);
        for asx in 0..mc.div_ceil(mr) {
            let pa = &packed_a[asx * kc * mr..(asx + 1) * kc * mr];
            let rows = mr.min(mc - asx * mr);
            let off = (ic + asx * mr) * n + jc + bs * nr;
            if rows == mr && cols == nr {
                let tile = &mut c[off..off + (mr - 1) * n + nr];
                // SAFETY: `tile` is a live exclusive slice spanning all
                // `mr` rows of `nr` elements at stride `n` (its length is
                // exactly `(mr - 1)·n + nr`); `pa`/`pb` hold kc·mr / kc·nr
                // floats.
                unsafe { micro_tile(tier, tile.as_mut_ptr(), n, pa, pb, kc) };
            } else {
                for (i, srow) in stage.chunks_mut(nr).enumerate().take(rows) {
                    let row = off + i * n;
                    srow[..cols].copy_from_slice(&c[row..row + cols]);
                }
                // SAFETY: `stage` holds mr·nr ≤ MAX_TILE floats at
                // stride nr; `pa`/`pb` hold kc·mr / kc·nr floats.
                unsafe { micro_tile(tier, stage.as_mut_ptr(), nr, pa, pb, kc) };
                for (i, srow) in stage.chunks(nr).enumerate().take(rows) {
                    let row = off + i * n;
                    c[row..row + cols].copy_from_slice(&srow[..cols]);
                }
            }
        }
    }
}

/// Dispatches one full `mr`×`nr` tile to the active tier's kernel.
///
/// # Safety
///
/// `cp` must point at the tile's top-left element of a buffer where all
/// `mr` rows of `nr` elements at `stride` spacing are in bounds and not
/// otherwise accessed during the call; `pa`/`pb` must hold `kc·mr` /
/// `kc·nr` floats.
// SAFETY: `unsafe fn` — the pointer contract above is forwarded
// verbatim to the tier kernels; tier values other than Scalar are only
// produced by dispatch after feature detection, which is exactly the
// precondition the `#[target_feature]` kernels need.
unsafe fn micro_tile(
    tier: SimdTier,
    cp: *mut f32,
    stride: usize,
    pa: &[f32],
    pb: &[f32],
    kc: usize,
) {
    debug_assert!(pa.len() >= kc * tier.mr() && pb.len() >= kc * tier.nr());
    match tier {
        SimdTier::Scalar => {
            #[cfg(target_arch = "x86_64")]
            if dispatch::scalar_fma_available() {
                // SAFETY: hardware FMA detected; same pointer contract,
                // same per-element fused chain as the portable body.
                unsafe { kernel_x86::micro_4x8_fma(cp, stride, pa.as_ptr(), pb.as_ptr(), kc) };
                return;
            }
            // SAFETY: caller contract (4×8 tile in bounds).
            unsafe { micro_tile_mul_add::<4, 8>(cp, stride, pa.as_ptr(), pb.as_ptr(), kc) };
        }
        SimdTier::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch yields Avx2 only after detecting
            // avx2+fma; caller contract covers the 6×16 tile.
            unsafe {
                kernel_x86::micro_6x16_avx2(cp, stride, pa.as_ptr(), pb.as_ptr(), kc)
            };
            #[cfg(not(target_arch = "x86_64"))]
            // SAFETY: caller contract; dispatch never yields Avx2 off
            // x86-64, but the portable body keeps this arm total (and
            // bit-identical).
            unsafe {
                micro_tile_mul_add::<6, 16>(cp, stride, pa.as_ptr(), pb.as_ptr(), kc)
            };
        }
        SimdTier::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch yields Avx512 only after detecting
            // avx512f; caller contract covers the 8×32 tile.
            unsafe {
                kernel_x86::micro_8x32_avx512(cp, stride, pa.as_ptr(), pb.as_ptr(), kc)
            };
            #[cfg(not(target_arch = "x86_64"))]
            // SAFETY: caller contract; unreachable off x86-64 in
            // practice, portable body keeps this arm total.
            unsafe {
                micro_tile_mul_add::<8, 32>(cp, stride, pa.as_ptr(), pb.as_ptr(), kc)
            };
        }
        SimdTier::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64; caller contract
            // covers the 8×8 tile.
            unsafe {
                kernel_neon::micro_8x8_neon(cp, stride, pa.as_ptr(), pb.as_ptr(), kc)
            };
            #[cfg(not(target_arch = "aarch64"))]
            // SAFETY: caller contract; dispatch never yields Neon off
            // aarch64, portable body keeps this arm total.
            unsafe {
                micro_tile_mul_add::<8, 8>(cp, stride, pa.as_ptr(), pb.as_ptr(), kc)
            };
        }
    }
}

/// Portable register-tile body: one accumulator per output element,
/// `f32::mul_add` per term, ascending k — the reference semantics every
/// SIMD kernel must (and does) match bit for bit. `#[inline(always)]`
/// so `#[target_feature]` clones (e.g. `micro_4x8_fma`) compile it with
/// hardware FMA without changing semantics.
///
/// # Safety
///
/// Same pointer contract as [`micro_tile`] with `mr = TMR`, `nr = TNR`.
// SAFETY: `unsafe fn` — pointer contract documented above, discharged
// at each call site.
#[inline(always)]
unsafe fn micro_tile_mul_add<const TMR: usize, const TNR: usize>(
    cp: *mut f32,
    stride: usize,
    pa: *const f32,
    pb: *const f32,
    kc: usize,
) {
    // SAFETY: caller guarantees `pa`/`pb` hold kc·TMR / kc·TNR floats.
    let (pa, pb) = unsafe {
        (
            core::slice::from_raw_parts(pa, kc * TMR),
            core::slice::from_raw_parts(pb, kc * TNR),
        )
    };
    let mut acc = [[0.0f32; TNR]; TMR];
    for (i, arow) in acc.iter_mut().enumerate() {
        // SAFETY: caller guarantees row i of the tile is in bounds.
        let crow = unsafe { core::slice::from_raw_parts(cp.add(i * stride), TNR) };
        arow.copy_from_slice(crow);
    }
    for kk in 0..kc {
        let av = &pa[kk * TMR..kk * TMR + TMR];
        let bv = &pb[kk * TNR..kk * TNR + TNR];
        for (i, arow) in acc.iter_mut().enumerate() {
            let ai = av[i];
            for (cell, &bvj) in arow.iter_mut().zip(bv) {
                *cell = ai.mul_add(bvj, *cell);
            }
        }
    }
    for (i, arow) in acc.iter().enumerate() {
        // SAFETY: caller guarantees row i is in bounds and unaliased;
        // each row slice is dropped at the end of its iteration.
        let crow = unsafe { core::slice::from_raw_parts_mut(cp.add(i * stride), TNR) };
        crow.copy_from_slice(arow);
    }
}

/// `dst[j] = fma(a, src[j], dst[j])` on the active tier — the building
/// block of the row kernel. One fused rounding per element on every
/// tier, so all routes are bit-identical.
fn axpy(tier: SimdTier, dst: &mut [f32], src: &[f32], a: f32) {
    debug_assert_eq!(dst.len(), src.len());
    match tier {
        SimdTier::Scalar => {
            #[cfg(target_arch = "x86_64")]
            if dispatch::scalar_fma_available() {
                // SAFETY: hardware FMA detected; equal lengths checked
                // by the kernel itself.
                unsafe { kernel_x86::axpy_fma(dst, src, a) };
                return;
            }
            axpy_portable(dst, src, a);
        }
        SimdTier::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch yields Avx2 only after detecting
            // avx2+fma.
            unsafe {
                kernel_x86::axpy_avx2(dst, src, a)
            };
            #[cfg(not(target_arch = "x86_64"))]
            axpy_portable(dst, src, a);
        }
        SimdTier::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch yields Avx512 only after detecting
            // avx512f.
            unsafe {
                kernel_x86::axpy_avx512(dst, src, a)
            };
            #[cfg(not(target_arch = "x86_64"))]
            axpy_portable(dst, src, a);
        }
        SimdTier::Neon => {
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            unsafe {
                kernel_neon::axpy_neon(dst, src, a)
            };
            #[cfg(not(target_arch = "aarch64"))]
            axpy_portable(dst, src, a);
        }
    }
}

/// Portable axpy body: one `f32::mul_add` per element — the reference
/// semantics for every tier's vector axpy and its tail.
fn axpy_portable(dst: &mut [f32], src: &[f32], a: f32) {
    for (o, &s) in dst.iter_mut().zip(src) {
        *o = a.mul_add(s, *o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The reference: textbook triple loop, no blocking, ascending-k
    /// fused accumulation per element (the chain the kernels promise).
    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
    }

    fn run_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, a, b, m, k, n, &mut GemmScratch::default());
        c
    }

    #[test]
    fn known_2x3_3x2() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(run_gemm(&a, &b, 2, 3, 2), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matches_naive_bitwise_on_small_shapes() {
        // The kernel's per-element summation order equals the naive
        // ascending-k fused chain, so results are bit-identical, not
        // just close — the property the fault-delta forward relies on.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 17), (16, 16, 16)] {
            let a = random(m * k, 1 + (m * 100 + k * 10 + n) as u64);
            let b = random(k * n, 2 + (m * 100 + k * 10 + n) as u64);
            assert_eq!(
                run_gemm(&a, &b, m, k, n),
                naive(&a, &b, m, k, n),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matches_naive_across_tile_and_panel_boundaries() {
        // Shapes straddling every blocking constant of the *widest*
        // tier (mr/nr edges smaller than the tile, the KC panel split
        // where the C-tile reload must not reorder additions, and
        // mc/NC block edges), plus the scalar tier's narrow tile.
        let tier = active_tier();
        let (mr, nr, mc) = (tier.mr(), tier.nr(), tier.mc());
        let dims = [
            (mr - 1, KC - 1, nr - 1),
            (mr + 1, KC, nr + 1),
            (mc + 3, KC + 1, nr * 2 + 5),
            (2, 2 * KC + 3, 71),
            (3, 5, 33),
        ];
        for (m, k, n) in dims {
            let a = random(m * k, 77);
            let b = random(k * n, 78);
            assert_eq!(
                run_gemm(&a, &b, m, k, n),
                naive(&a, &b, m, k, n),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn run_to_run_determinism() {
        let (m, k, n) = (37, 300, 53);
        let a = random(m * k, 5);
        let b = random(k * n, 6);
        let first = run_gemm(&a, &b, m, k, n);
        for _ in 0..3 {
            assert_eq!(run_gemm(&a, &b, m, k, n), first);
        }
        // A reused scratch (stale packing contents) must not leak.
        let mut scratch = GemmScratch::default();
        let mut junk = vec![0.0f32; 13 * 11];
        gemm_into(
            &mut junk,
            &random(13 * 7, 91),
            &random(7 * 11, 92),
            13,
            7,
            11,
            &mut scratch,
        );
        let mut c = vec![0.0f32; m * n];
        gemm_into(&mut c, &a, &b, m, k, n, &mut scratch);
        assert_eq!(c, first);
    }

    #[test]
    fn row_recompute_is_bit_identical_to_full_gemm() {
        let (m, k, n) = (9, KC + 5, 21);
        let mut a = random(m * k, 9);
        // Pruned rows, which the row kernel skips term by term: all
        // `+0.0`, all `-0.0`, and nonzeros interleaved with zeros of
        // both signs.
        for kk in 0..k {
            a[kk] = 0.0;
            a[k + kk] = -0.0;
            match kk % 3 {
                0 => a[2 * k + kk] = 0.0,
                1 => a[2 * k + kk] = -0.0,
                _ => {}
            }
        }
        let b = random(k * n, 10);
        let full = run_gemm(&a, &b, m, k, n);
        let mut row = vec![0.0f32; n];
        for i in 0..m {
            gemm_row_into(&mut row, &a[i * k..(i + 1) * k], &b, k, n);
            assert_bitwise_eq(&row, &full[i * n..(i + 1) * n], &format!("row {i}"));
        }
    }

    #[test]
    fn fused_dot_matches_single_column_gemm() {
        let k = 2 * KC + 7;
        let a = random(k, 15);
        let b = random(k, 16);
        let mut c = [0.0f32];
        gemm_into(&mut c, &a, &b, 1, k, 1, &mut GemmScratch::default());
        assert_eq!(fused_dot(&a, &b).to_bits(), c[0].to_bits());
    }

    #[test]
    fn zero_dimensions_yield_zero_output() {
        // k = 0: the product is all zeros (and must not read the inputs).
        let mut c = vec![1.0f32; 6];
        gemm_into(&mut c, &[], &[], 2, 0, 3, &mut GemmScratch::default());
        assert_eq!(c, vec![0.0; 6]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn scalar_fma_clone_matches_portable_body() {
        // The scalar tier's FMA-compiled clone is the same source as
        // the portable body; on a host with FMA both must produce the
        // same bits (hardware vfmadd vs libm fmaf — both one rounding).
        if !std::arch::is_x86_feature_detected!("fma") {
            return;
        }
        let kc = KC + 3;
        let pa = random(kc * 4, 61);
        let pb = random(kc * 8, 62);
        let init = random(4 * 8, 63);
        let mut hw = init.clone();
        let mut portable = init.clone();
        // SAFETY: FMA detected above; both buffers hold a full 4×8 tile
        // at stride 8, and pa/pb hold kc·4 / kc·8 floats.
        unsafe {
            kernel_x86::micro_4x8_fma(hw.as_mut_ptr(), 8, pa.as_ptr(), pb.as_ptr(), kc);
            micro_tile_mul_add::<4, 8>(portable.as_mut_ptr(), 8, pa.as_ptr(), pb.as_ptr(), kc);
        }
        for (h, p) in hw.iter().zip(&portable) {
            assert_eq!(h.to_bits(), p.to_bits());
        }
        let src = random(37, 64);
        let mut d_hw = random(37, 65);
        let mut d_po = d_hw.clone();
        // SAFETY: FMA detected above; equal slice lengths.
        unsafe { kernel_x86::axpy_fma(&mut d_hw, &src, 0.37) };
        axpy_portable(&mut d_po, &src, 0.37);
        for (h, p) in d_hw.iter().zip(&d_po) {
            assert_eq!(h.to_bits(), p.to_bits());
        }
        let other = random(37, 66);
        // SAFETY: FMA detected above; equal slice lengths.
        let dot_hw = unsafe { kernel_x86::dot_fma(&src, &other) };
        assert_eq!(dot_hw.to_bits(), dot_portable(&src, &other).to_bits());
    }

    fn assert_bitwise_eq(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i} {g} vs {w}");
        }
    }

    #[test]
    fn all_zero_rows_and_columns_round_trip_both_paths() {
        // 100%-pruned regression: an all-zero layer, plus a mixed layer
        // with one all-zero row and one all-zero column, must produce
        // finite (all-zero / matching) outputs from the blocked and the
        // zero-skipping row kernel — no NaN, no sign-of-zero divergence.
        let (m, k, n) = (6, 10, 9);
        let zeros = vec![0.0f32; m * k];
        let b = random(k * n, 41);
        let dense = run_gemm(&zeros, &b, m, k, n);
        assert!(dense.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));

        let mut mixed = random(m * k, 42);
        for kk in 0..k {
            mixed[2 * k + kk] = 0.0; // all-zero output row
        }
        for row in 0..m {
            mixed[row * k + 4] = 0.0; // all-zero input column
        }
        let d = run_gemm(&mixed, &b, m, k, n);
        assert!(d.iter().all(|v| v.is_finite()));
        assert!(d[2 * n..3 * n]
            .iter()
            .all(|v| v.to_bits() == 0.0f32.to_bits()));
        let mut row = vec![0.0f32; n];
        for (a, full) in [(&zeros, &dense), (&mixed, &d)] {
            for i in 0..m {
                gemm_row_into(&mut row, &a[i * k..(i + 1) * k], &b, k, n);
                assert_bitwise_eq(&row, &full[i * n..(i + 1) * n], &format!("row {i}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// GEMM equals the naive reference on odd shapes around the
        /// tile sizes (1..34 covers every tier's mr±1 and nr±1; the
        /// explicit tests above cover KC±1).
        #[test]
        fn prop_matches_naive(
            m in 1usize..11, k in 1usize..17, n in 1usize..34, seed in any::<u64>()
        ) {
            let a = random(m * k, seed);
            let b = random(k * n, seed.wrapping_add(1));
            let got = run_gemm(&a, &b, m, k, n);
            let want = naive(&a, &b, m, k, n);
            prop_assert_eq!(got, want);
        }

        /// Every row of the blocked product is reproduced bit-exactly
        /// by the sequential row kernel.
        #[test]
        fn prop_row_kernel_matches(
            m in 1usize..9, k in 1usize..33, n in 1usize..34, seed in any::<u64>()
        ) {
            let a = random(m * k, seed);
            let b = random(k * n, seed.wrapping_add(2));
            let full = run_gemm(&a, &b, m, k, n);
            let mut row = vec![0.0f32; n];
            for i in 0..m {
                gemm_row_into(&mut row, &a[i * k..(i + 1) * k], &b, k, n);
                prop_assert_eq!(&row, &full[i * n..(i + 1) * n]);
            }
        }
    }
}
