//! Criterion benchmark of the blocked f32 GEMM (`maxnvm_dnn::gemm_into`)
//! on every SIMD tier this host supports: one square 256×256×256
//! multiply per iteration. The throughput counts two FLOPs per
//! multiply-add, so the reported `elem/s` is FLOP/s. Every tier computes
//! identical bits (DESIGN.md §14); this records what each one costs.
//!
//! Run with `cargo bench -p maxnvm-bench --bench gemm_tiers`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use maxnvm_dnn::gemm::{force_tier_for_tests, gemm_into, supported_tiers, GemmScratch};

const N: usize = 256;

fn bench_gemm_tiers(c: &mut Criterion) {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
    let mut out = vec![0.0f32; N * N];
    let mut group = c.benchmark_group("gemm_256");
    group.throughput(Throughput::Elements(2 * (N as u64).pow(3)));
    for tier in supported_tiers() {
        force_tier_for_tests(Some(tier));
        let mut scratch = GemmScratch::default();
        group.bench_function(BenchmarkId::from_parameter(tier.name()), |bench| {
            bench.iter(|| gemm_into(&mut out, &a, &b, N, N, N, &mut scratch))
        });
    }
    force_tier_for_tests(None);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm_tiers
}
criterion_main!(benches);
