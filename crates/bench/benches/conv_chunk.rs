//! Criterion benchmark of batched conv inference on every SIMD tier this
//! host supports, for `lenet_mini` and the small conv net of the golden
//! `train/conv-geometry` row (a pad-1 conv, a pad-1 stride-2 conv, a
//! pool and two linears):
//!
//! - `forward`: one `EVAL_BATCH`-sample chunk through the whole network
//!   (`Network::forward_suffix` from layer 0), the work of one chunk of a
//!   clean-prefix build;
//! - `fault_trial`: one trial on that chunk with a single faulted output
//!   channel in the first conv layer (`PrefixCache::patched_output`, then
//!   the suffix), the costliest place a fault can land.
//!
//! Every tier computes identical bits (DESIGN.md §14); this records what
//! each costs, so a conv or packing change can be A/B-tested in seconds
//! before perfbench confirms it end to end.
//!
//! Run with `cargo bench -p maxnvm-bench --bench conv_chunk`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxnvm_dnn::gemm::{force_tier_for_tests, supported_tiers};
use maxnvm_dnn::network::EVAL_BATCH;
use maxnvm_dnn::train::he_init;
use maxnvm_dnn::{zoo, Batch, ForwardScratch, Layer, Network, PrefixCache, Tensor};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The conv net of the golden `train/conv-geometry` row, on 3×16×16.
fn golden_conv_net() -> Network {
    let mut net = Network::new(
        "golden-conv",
        vec![
            Layer::conv2d("conv1", 4, 3, 3, 1, 1),
            Layer::ReLU,
            Layer::conv2d("conv2", 8, 4, 3, 2, 1),
            Layer::ReLU,
            Layer::MaxPool2,
            Layer::Flatten,
            Layer::linear("fc1", 16, 8 * 4 * 4),
            Layer::ReLU,
            Layer::linear("fc2", 4, 16),
        ],
    );
    he_init(&mut net, 5);
    net
}

fn chunk(shape: &[usize], seed: u64) -> Batch {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    let xs: Vec<Tensor> = (0..EVAL_BATCH)
        .map(|_| Tensor::from_vec(shape, (0..len).map(|_| rng.gen::<f32>()).collect()))
        .collect();
    Batch::from_samples(&xs)
}

fn bench_conv_chunk(c: &mut Criterion) {
    let nets = [
        (zoo::lenet_mini(7), [1, 16, 16]),
        (golden_conv_net(), [3, 16, 16]),
    ];
    let mut group = c.benchmark_group("conv_chunk");
    for (net, shape) in &nets {
        let input = chunk(shape, 11);
        // One faulted weight in output channel 0 of the first conv.
        let mut faulty = net.clone();
        let mut undo = Vec::new();
        let mut deltas = vec![Vec::new(); net.weight_matrices().len()];
        deltas[0].push(maxnvm_dnn::WeightDelta {
            slot: 1,
            value: 0.75,
        });
        faulty.apply_weight_deltas(&deltas, &mut undo);
        for tier in supported_tiers() {
            force_tier_for_tests(Some(tier));
            let mut scratch = ForwardScratch::default();
            let mut act = Batch::default();
            let id = |what: &str| BenchmarkId::new(format!("{}/{what}", net.name), tier.name());
            group.bench_function(id("forward"), |bench| {
                bench.iter(|| {
                    act.clone_from(&input);
                    net.forward_suffix(0, black_box(&mut act), &mut scratch);
                })
            });
            let cache = PrefixCache::build(net, input.clone(), &mut scratch);
            let pos = cache.site_layer(0);
            group.bench_function(id("fault_trial"), |bench| {
                bench.iter(|| {
                    cache.patched_output(0, &faulty.layers()[pos], &[0], &mut act);
                    faulty.forward_suffix(pos + 1, black_box(&mut act), &mut scratch);
                })
            });
        }
    }
    force_tier_for_tests(None);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv_chunk
}
criterion_main!(benches);
