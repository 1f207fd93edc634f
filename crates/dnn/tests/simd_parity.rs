//! Cross-tier differential tests: every SIMD tier this host supports
//! must produce bit-identical results to the scalar tier on the blocked
//! and row kernels — the uniform fused-multiply-add semantics
//! the `gemm` module documents. Tier pinning mutates process-global
//! dispatch state, so every test serializes on [`tier_lock`] and
//! restores detection before releasing it.

use maxnvm_dnn::gemm::{self, force_tier_for_tests, supported_tiers, SimdTier};
use maxnvm_dnn::{gemm_into, gemm_row_into, GemmScratch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that pin the dispatch tier (process-global state).
fn tier_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Clears the tier pin even if the test body panics. The held lock is
/// never read — it serializes the test for the guard's lifetime.
struct TierGuard {
    _lock: MutexGuard<'static, ()>,
}
impl TierGuard {
    fn new() -> Self {
        Self { _lock: tier_lock() }
    }
}
impl Drop for TierGuard {
    fn drop(&mut self) {
        force_tier_for_tests(None);
    }
}

fn random(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

/// Random matrix with roughly `sparsity` of the slots forced to zero.
fn random_sparse(len: usize, seed: u64, sparsity: f64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen::<f64>() < sparsity {
                0.0
            } else {
                rng.gen::<f32>() * 2.0 - 1.0
            }
        })
        .collect()
}

fn gemm_on_tier(tier: SimdTier, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    force_tier_for_tests(Some(tier));
    let mut c = vec![0.0f32; m * n];
    gemm_into(&mut c, a, b, m, k, n, &mut GemmScratch::default());
    c
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

/// Shapes with M/N/K remainders smaller than every tier's tile (the
/// widest is 8×32), straddling the KC panel split, plus exact-tile
/// shapes for each tier.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (7, 13, 31), // below every tile dimension
        (3, gemm::KC + 1, 5),
        (9, 2 * gemm::KC + 3, 33),
        (17, 40, 70),
    ];
    for t in supported_tiers() {
        shapes.push((t.mr(), 19, t.nr()));
        shapes.push((t.mr() + 1, gemm::KC, t.nr() + 1));
        shapes.push((t.mr() - 1, 9, t.nr() * 2 + 3));
        shapes.push((t.mc() + 1, 11, t.nr()));
    }
    shapes
}

#[test]
fn dense_kernel_is_bit_identical_across_tiers() {
    let _guard = TierGuard::new();
    let tiers = supported_tiers();
    for (m, k, n) in edge_shapes() {
        let a = random(m * k, 1000 + (m * 31 + k * 7 + n) as u64);
        let b = random(k * n, 2000 + (m * 31 + k * 7 + n) as u64);
        let reference = gemm_on_tier(SimdTier::Scalar, &a, &b, m, k, n);
        for &tier in &tiers[1..] {
            assert_bits_eq(
                &gemm_on_tier(tier, &a, &b, m, k, n),
                &reference,
                &format!("{m}x{k}x{n} on {}", tier.name()),
            );
        }
    }
}

#[test]
fn row_kernels_are_bit_identical_across_tiers() {
    let _guard = TierGuard::new();
    let (m, k, n) = (6, gemm::KC + 5, 45);
    let mut a = random_sparse(m * k, 91, 0.6);
    // Pruned rows the row kernel skips term by term: all `+0.0`, all
    // `-0.0`, and zeros of both signs between nonzeros.
    for kk in 0..k {
        a[kk] = 0.0;
        a[k + kk] = -0.0;
        if kk % 2 == 0 {
            a[2 * k + kk] = -0.0;
        }
    }
    let b = random(k * n, 92);
    let reference = gemm_on_tier(SimdTier::Scalar, &a, &b, m, k, n);
    for tier in supported_tiers() {
        force_tier_for_tests(Some(tier));
        let mut row = vec![0.0f32; n];
        for i in 0..m {
            gemm_row_into(&mut row, &a[i * k..(i + 1) * k], &b, k, n);
            assert_bits_eq(
                &row,
                &reference[i * n..(i + 1) * n],
                &format!("row {i} on {}", tier.name()),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes and sparsities: all supported tiers agree bitwise
    /// with the scalar tier on the blocked kernel.
    #[test]
    fn prop_tiers_agree_bitwise(
        m in 1usize..12, k in 1usize..40, n in 1usize..40,
        sparsity in 0.0f64..1.0, seed in any::<u64>()
    ) {
        let _guard = TierGuard::new();
        let a = random_sparse(m * k, seed, sparsity);
        let b = random(k * n, seed.wrapping_add(1));
        let reference = gemm_on_tier(SimdTier::Scalar, &a, &b, m, k, n);
        for tier in supported_tiers() {
            let dense = gemm_on_tier(tier, &a, &b, m, k, n);
            for (g, w) in dense.iter().zip(&reference) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
