//! Clean-prefix activation cache for fault-delta inference.
//!
//! A Monte-Carlo fault trial perturbs a handful of weight slots and asks
//! for the network's predictions. Layers *before* the earliest perturbed
//! layer see exactly the clean inputs, so their activations can be
//! computed once and reused by every trial. This cache stores, for one
//! fixed evaluation batch, what a trial reads back: each weight layer's
//! clean input and output batches, and the final logits. The outputs of
//! the layers without weights (ReLU, pooling, Flatten) are computed while
//! building but not kept: a trial resumes right after a weight layer,
//! never after one of those.
//!
//! A trial then only (1) recomputes the *dirty rows* of the first
//! perturbed layer's output — each faulted output channel straight from
//! the cached input batch ([`Layer::forward_batch_in_place`]'s chain for
//! that row: ascending k, `±0` weights and padding taps skipped, so a
//! pruned row costs its nonzeros only) — in a copy of that layer's
//! cached clean output, and (2) runs the remaining suffix layers
//! normally. The result is bit-identical to a full faulty forward pass:
//! the row chain reproduces any row of the blocked kernel bit for bit
//! (see [`crate::gemm`]), untouched rows are byte-copies of the clean
//! output, and the suffix runs the very same code either way. This holds
//! on every SIMD dispatch tier: the row kernels route through the same
//! tier table as the blocked GEMM, and all tiers compute the identical
//! fused-multiply-add chains (DESIGN.md §14), so a cache built while one
//! tier is active replays bit-identically under any other. A sample's
//! logits do not depend on the other samples of its batch, so a large
//! set can be cached as several batches (chunks of
//! [`crate::network::EVAL_BATCH`] samples) with the same result.

use crate::layer::{ForwardScratch, Layer};
use crate::network::Network;
use crate::tensor::Batch;

/// One weight layer's cached state: where it sits in the network, and
/// its clean input and output batches.
#[derive(Debug)]
struct Site {
    /// Index of the weight layer in `Network::layers`.
    layer_pos: usize,
    /// The clean batch entering the layer.
    input: Batch,
    /// The layer's clean batch output.
    out: Batch,
}

/// Cached clean forward pass of one fixed batch — see the module docs.
/// Sites are indexed like [`Network::weight_matrices`]: one per weight
/// layer, in execution order.
#[derive(Debug)]
pub struct PrefixCache {
    sites: Vec<Site>,
    /// The final layer's batch output.
    logits: Batch,
}

impl PrefixCache {
    /// Runs one clean batched forward pass over `inputs`, recording each
    /// weight layer's input and output and the logits.
    pub fn build(net: &Network, inputs: Batch, scratch: &mut ForwardScratch) -> Self {
        let mut sites = Vec::new();
        let mut cur = inputs;
        for (pos, l) in net.layers().iter().enumerate() {
            match l {
                Layer::Conv2d { .. } | Layer::Linear { .. } => {
                    let mut out = Batch::default();
                    l.forward_batch_into(&cur, &mut out, &mut scratch.gemm);
                    // The layers after this one run in place on a copy.
                    let mut input = std::mem::replace(&mut cur, out.clone());
                    // After a pool, `cur` is the scratch's spare buffer,
                    // sized for an earlier and larger layer.
                    input.shrink_to_fit();
                    sites.push(Site {
                        layer_pos: pos,
                        input,
                        out,
                    });
                }
                _ => l.forward_batch_in_place(&mut cur, scratch),
            }
        }
        Self { sites, logits: cur }
    }

    /// The network-layer index of weight layer `site`.
    pub fn site_layer(&self, site: usize) -> usize {
        self.sites[site].layer_pos
    }

    /// The cached clean logits (output of the final layer).
    pub fn clean_logits(&self) -> &Batch {
        &self.logits
    }

    /// Writes into `out` weight layer `site`'s batch output under the
    /// faulty `layer` (the site's layer with its faulty weights and bias):
    /// a copy of the cached clean output whose `dirty_rows` (ascending,
    /// deduped) are recomputed from the cached input batch, each
    /// bit-identical to the same row of a full batched forward.
    ///
    /// # Panics
    ///
    /// Panics if `layer` does not match the site's geometry or a row is
    /// out of range.
    pub fn patched_output(
        &self,
        site: usize,
        layer: &Layer,
        dirty_rows: &[usize],
        out: &mut Batch,
    ) {
        let s = &self.sites[site];
        out.clone_from(&s.out);
        let rows = layer.weight_bias().map_or(0, |(w, _)| w.shape()[0]);
        let len = s.out.sample_shape().iter().product::<usize>() / rows.max(1) * s.out.len();
        assert_eq!(rows * len, out.data().len(), "layer vs site geometry");
        for &o in dirty_rows {
            layer.output_row_into(o, &s.input, &mut out.data_mut()[o * len..(o + 1) * len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::WeightDelta;
    use crate::tensor::Tensor;
    use crate::train::he_init;
    use crate::zoo::lenet_mini;
    use rand::{Rng, SeedableRng};

    fn batch(seed: u64, n: usize) -> Vec<Tensor> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::from_vec(&[1, 16, 16], (0..256).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    /// A pad-1 stride-2 conv, a pad-1 conv, a pool and two linears on the
    /// same 1×16×16 inputs as `lenet_mini`, whose convs have no padding.
    fn strided_net(seed: u64) -> Network {
        let mut net = Network::new(
            "strided",
            vec![
                Layer::conv2d("conv1", 6, 1, 3, 2, 1), // 16 -> 8
                Layer::ReLU,
                Layer::conv2d("conv2", 9, 6, 3, 1, 1), // 8 -> 8
                Layer::ReLU,
                Layer::MaxPool2, // -> 4
                Layer::Flatten,
                Layer::linear("fc1", 12, 9 * 4 * 4),
                Layer::ReLU,
                Layer::linear("fc2", 10, 12),
            ],
        );
        he_init(&mut net, seed);
        net
    }

    /// Full faulty forward vs the prefix-patched path must agree bit for
    /// bit, for faults in the first, middle, last, and multiple layers —
    /// on dense networks and on pruned ones, whose zero weights (of both
    /// signs) the row kernels skip; on unpadded stride-1 convs and on
    /// padded stride-2 ones, whose padding taps the conv row kernel skips;
    /// and on a batch of 55, no multiple of any tier's `nr`.
    #[test]
    fn patched_forward_is_bit_exact_with_full_faulty_forward() {
        let nets = [
            lenet_mini(7),
            pruned(lenet_mini(7), 0.7),
            strided_net(7),
            pruned(strided_net(7), 0.7),
        ];
        let bits = |ts: &[Tensor]| {
            ts.iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        for net in nets {
            let mats = net.weight_matrices();
            // Delta sets keyed by weight-matrix index: first conv, middle
            // conv, last fc, and a multi-layer combination.
            let d = |slot: u32, value: f32| WeightDelta { slot, value };
            let cases: Vec<Vec<(usize, Vec<WeightDelta>)>> = vec![
                vec![(0, vec![d(3, 2.5)])],
                vec![(1, vec![d(11, -1.75), d(95, 0.5)])],
                vec![(mats.len() - 1, vec![d(1, 9.0)])],
                vec![
                    (1, vec![d(40, -3.0)]),
                    (2, vec![d(7, 1.25)]),
                    (mats.len() - 1, vec![d(0, -0.5)]),
                ],
            ];
            for n in [6, 55] {
                let xs = batch(3, n);
                let mut scratch = ForwardScratch::default();
                let cache = PrefixCache::build(&net, Batch::from_samples(&xs), &mut scratch);
                assert_eq!(cache.sites.len(), mats.len());
                let clean = bits(&net.forward_batch(&xs));
                let mut moved = false;
                let mut act = Batch::default();
                for case in &cases {
                    let mut deltas: Vec<Vec<WeightDelta>> = vec![Vec::new(); mats.len()];
                    for (i, ds) in case {
                        deltas[*i] = ds.clone();
                    }
                    let mut faulty = net.clone();
                    let mut undo = Vec::new();
                    faulty.apply_weight_deltas(&deltas, &mut undo);

                    let full = bits(&faulty.forward_batch(&xs));
                    moved |= full != clean;

                    let first = deltas
                        .iter()
                        .position(|d| !d.is_empty())
                        .expect("has deltas");
                    let pos = cache.site_layer(first);
                    let mut rows: Vec<usize> = deltas[first]
                        .iter()
                        .map(|d| d.slot as usize / mats[first].cols)
                        .collect();
                    rows.sort_unstable();
                    rows.dedup();
                    cache.patched_output(first, &faulty.layers()[pos], &rows, &mut act);
                    // The patched layer output itself, which a later ReLU
                    // could hide from the logits.
                    let mut site = Batch::from_samples(&xs);
                    for l in &faulty.layers()[..=pos] {
                        l.forward_batch_in_place(&mut site, &mut scratch);
                    }
                    let ctx = format!("{}, {n} samples, site {first}", net.name);
                    same_bits(&bits(&act.to_samples()), &bits(&site.to_samples()), &ctx);
                    faulty.forward_suffix(pos + 1, &mut act, &mut scratch);
                    same_bits(&bits(&act.to_samples()), &full, &format!("{ctx}: logits"));
                }
                assert!(moved, "{}: no fault changes a logit", net.name);
            }
        }
    }

    fn same_bits(got: &[u32], want: &[u32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        let first = got.iter().zip(want).position(|(g, w)| g != w);
        assert!(first.is_none(), "{ctx}: first differing element {first:?}");
    }

    /// Prunes ~the given fraction of each weight matrix to exact zero
    /// (smallest magnitudes first), alternating `+0.0` and `-0.0`.
    fn pruned(mut net: Network, sparsity: f64) -> Network {
        let mut mats = net.weight_matrices();
        for m in &mut mats {
            let mut mags: Vec<f32> = m.data.iter().map(|v| v.abs()).collect();
            mags.sort_by(f32::total_cmp);
            let cut = mags[((mags.len() - 1) as f64 * sparsity) as usize];
            for (i, v) in m.data.iter_mut().enumerate() {
                if v.abs() <= cut {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        net.set_weight_matrices(&mats);
        net
    }

    #[test]
    fn clean_logits_match_forward_batch() {
        // lenet_mini ends in a weight layer; the second net ends in one
        // without weights, whose output the cache keeps as the logits.
        let mut layers = lenet_mini(9).layers().to_vec();
        layers.push(Layer::ReLU);
        for net in [lenet_mini(9), Network::new("relu-last", layers)] {
            let xs = batch(5, 4);
            let mut scratch = ForwardScratch::default();
            let cache = PrefixCache::build(&net, Batch::from_samples(&xs), &mut scratch);
            assert_eq!(cache.clean_logits().to_samples(), net.forward_batch(&xs));
            assert_eq!(cache.logits.len(), 4);
        }
    }

    /// A site keeps no more memory than its batches hold, also when the
    /// build ran on a scratch a larger network's pass had grown: in
    /// `lenet_mini`, fc1's input comes out of a pool, into the spare
    /// buffer conv1's output had sized.
    #[test]
    fn site_batches_hold_no_spare_capacity() {
        let mut scratch = ForwardScratch::default();
        for net in [lenet_mini(9), strided_net(9)] {
            let xs = batch(5, 8);
            let cache = PrefixCache::build(&net, Batch::from_samples(&xs), &mut scratch);
            for s in &cache.sites {
                for b in [&s.input, &s.out] {
                    let ctx = format!("{}, layer {}", net.name, s.layer_pos);
                    assert_eq!(b.capacity(), b.data().len(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn apply_and_revert_deltas_round_trip() {
        let mut net = lenet_mini(4);
        let before = net.weight_matrices();
        let deltas = vec![
            vec![WeightDelta {
                slot: 2,
                value: 7.0,
            }],
            vec![],
            vec![
                WeightDelta {
                    slot: 5,
                    value: -7.0,
                },
                WeightDelta {
                    slot: 5,
                    value: 1.0,
                },
            ],
        ];
        let mut undo = Vec::new();
        net.apply_weight_deltas(&deltas, &mut undo);
        let mid = net.weight_matrices();
        assert_eq!(mid[0].data[2], 7.0);
        assert_eq!(mid[2].data[5], 1.0, "later delta wins");
        net.revert_weight_deltas(&undo);
        assert_eq!(net.weight_matrices(), before);
    }
}
