//! Clean-prefix activation cache for fault-delta inference.
//!
//! A Monte-Carlo fault trial perturbs a handful of weight slots and asks
//! for the network's predictions. Layers *before* the earliest perturbed
//! layer see exactly the clean inputs, so their activations can be
//! computed once and reused by every trial. This cache stores, for one
//! fixed evaluation batch:
//!
//! - the clean batch activations entering every layer (and the final
//!   logits), and
//! - for each weight layer, the packed `[k, n·p]` right-hand matrix its
//!   GEMM consumes (a pure function of the clean activations).
//!
//! A trial then only (1) recomputes the *dirty rows* of the first
//! perturbed layer's output — one [`gemm_row_into`] per touched weight
//! row, O(row nonzeros·batch) instead of a full GEMM, since the row
//! kernel skips pruned zero weights — starting from a clone of that
//! layer's cached clean output, and (2) runs the remaining suffix layers
//! normally. The result is bit-identical to a full faulty forward
//! pass: [`gemm_row_into`] reproduces any row of the blocked kernel bit
//! for bit (see [`crate::gemm`]), untouched rows are byte-copies of the
//! clean output, and the suffix runs the very same code either way.
//! This holds on every SIMD dispatch tier: the row kernels route through
//! the same tier table as the blocked GEMM, and all tiers compute the
//! identical fused-multiply-add chains (DESIGN.md §14), so a cache built
//! while one tier is active replays bit-identically under any other —
//! including under the within-trial GEMM fan-out, whose fixed N-panel
//! ownership never changes per-element operation order.
//!
//! Only "flat" networks (no [`Layer::Residual`]) are supported —
//! [`PrefixCache::build`] returns `None` otherwise and callers fall back
//! to a full forward pass.

use crate::gemm::gemm_row_into;
use crate::layer::{ForwardScratch, Layer, RhsMeta};
use crate::network::Network;
use crate::tensor::Tensor;

/// One weight layer's cached geometry: where it sits in the network and
/// the packed right-hand matrix its GEMM consumes.
#[derive(Debug, Clone)]
struct Site {
    /// Index of the weight layer in `Network::layers`.
    layer_pos: usize,
    /// Packed `[k, n·per_cols]` input matrix (im2col patches / stacked
    /// vectors) built from the clean activations entering the layer.
    rhs: Vec<f32>,
    /// Geometry of `rhs` and the layer's output.
    meta: RhsMeta,
}

/// Cached clean forward pass of one fixed batch — see the module docs.
/// Sites are indexed like [`Network::weight_matrices`] (valid because
/// residual networks are rejected at build time, so every weight layer is
/// top-level and in execution order).
#[derive(Debug, Clone)]
pub struct PrefixCache {
    /// `acts[i]` = batch activations entering layer `i`; `acts[layers]` =
    /// final logits.
    acts: Vec<Vec<Tensor>>,
    sites: Vec<Site>,
}

impl PrefixCache {
    /// Runs one clean batched forward pass, recording every intermediate
    /// activation and each weight layer's packed right-hand matrix (which
    /// that layer's multiply then reads, so the batch is packed once).
    /// Returns `None` for networks containing residual blocks (their
    /// weight layers are nested, which the row-patching path does not
    /// model) — callers fall back to full forward passes.
    pub fn build(net: &Network, inputs: &[Tensor], scratch: &mut ForwardScratch) -> Option<Self> {
        let layers = net.layers();
        let mut acts: Vec<Vec<Tensor>> = Vec::with_capacity(layers.len() + 1);
        acts.push(inputs.to_vec());
        let mut sites: Vec<Site> = Vec::new();
        for (pos, l) in layers.iter().enumerate() {
            if matches!(l, Layer::Residual { .. }) {
                return None;
            }
            let cur = &acts[pos];
            let mut rhs = Vec::new();
            let next = match l.weight_rhs_into(cur, &mut rhs) {
                Some(meta) => {
                    let next = l.forward_from_rhs(
                        &rhs,
                        &meta,
                        cur.len(),
                        &mut scratch.out,
                        &mut scratch.gemm,
                    );
                    sites.push(Site {
                        layer_pos: pos,
                        rhs,
                        meta,
                    });
                    next
                }
                None => l.forward_batch_scratch(cur, scratch),
            };
            acts.push(next);
        }
        Some(Self { acts, sites })
    }

    /// Number of weight layers (== the network's weight-matrix count).
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// The network-layer index of weight layer `site`.
    pub fn site_layer(&self, site: usize) -> usize {
        self.sites[site].layer_pos
    }

    /// The cached clean logits (output of the final layer).
    // maxnvm-lint: allow(R1/index-arith): the constructor always records at least the input activation, so acts.len()-1 cannot wrap.
    pub fn clean_logits(&self) -> &[Tensor] {
        &self.acts[self.acts.len() - 1]
    }

    /// The input batch the cache was built from.
    pub fn input_batch(&self) -> &[Tensor] {
        &self.acts[0]
    }

    /// Batch size the cache was built for.
    pub fn batch_len(&self) -> usize {
        self.acts[0].len()
    }

    /// Recomputes weight layer `site`'s batch outputs under a faulty
    /// `weight`/`bias` for the given `dirty_rows` (ascending, deduped),
    /// starting from a clone of the cached clean outputs. Each dirty row
    /// is one sequential dot against the cached right-hand matrix over
    /// the row's nonzero weights — bit-identical to the same row of a
    /// full batched forward. `row_buf` is reusable staging for one output
    /// row across the batch.
    ///
    /// # Panics
    ///
    /// Panics if `weight` does not match the site's geometry or a row is
    /// out of range.
    // maxnvm-lint: allow(R1/index-arith): row_buf is resized to n*p here and dirty rows are < rows per the weight-shape assert above, so o*p and sx*p slices are in range.
    pub fn patched_outputs(
        &self,
        site: usize,
        weight: &Tensor,
        bias: &[f32],
        dirty_rows: &[usize],
        row_buf: &mut Vec<f32>,
    ) -> Vec<Tensor> {
        let s = &self.sites[site];
        assert_eq!(
            weight.shape(),
            &[s.meta.rows, s.meta.k],
            "weight shape vs site geometry"
        );
        let mut outs = self.acts[s.layer_pos + 1].clone();
        let n = outs.len();
        let p = s.meta.per_cols;
        let total = n * p;
        row_buf.clear();
        row_buf.resize(total, 0.0);
        for &o in dirty_rows {
            gemm_row_into(
                row_buf,
                &weight.data()[o * s.meta.k..(o + 1) * s.meta.k],
                &s.rhs,
                s.meta.k,
                total,
            );
            for v in row_buf.iter_mut() {
                *v += bias[o];
            }
            for (sx, t) in outs.iter_mut().enumerate() {
                t.data_mut()[o * p..(o + 1) * p].copy_from_slice(&row_buf[sx * p..(sx + 1) * p]);
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::WeightDelta;
    use crate::zoo::lenet_mini;
    use rand::{Rng, SeedableRng};

    fn batch(seed: u64, n: usize) -> Vec<Tensor> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tensor::from_vec(&[1, 16, 16], (0..256).map(|_| rng.gen::<f32>()).collect()))
            .collect()
    }

    /// Full faulty forward vs the prefix-patched path must agree bit for
    /// bit, for faults in the first, middle, last, and multiple layers —
    /// on a dense network and on a pruned one, whose zero weights (of
    /// both signs) the row kernel skips.
    #[test]
    fn patched_forward_is_bit_exact_with_full_faulty_forward() {
        for net in [lenet_mini(7), pruned_net(7, 0.7)] {
            let xs = batch(3, 6);
            let mut scratch = ForwardScratch::default();
            let cache = PrefixCache::build(&net, &xs, &mut scratch).expect("flat network");
            assert_eq!(cache.num_sites(), net.weight_matrices().len());

            let mats = net.weight_matrices();
            // Delta sets keyed by weight-matrix index: first conv, middle
            // conv, last fc, and a multi-layer combination.
            let cases: Vec<Vec<(usize, Vec<WeightDelta>)>> = vec![
                vec![(
                    0,
                    vec![WeightDelta {
                        slot: 3,
                        value: 2.5,
                    }],
                )],
                vec![(
                    1,
                    vec![
                        WeightDelta {
                            slot: 11,
                            value: -1.75,
                        },
                        WeightDelta {
                            slot: 95,
                            value: 0.5,
                        },
                    ],
                )],
                vec![(
                    mats.len() - 1,
                    vec![WeightDelta {
                        slot: 1,
                        value: 9.0,
                    }],
                )],
                vec![
                    (
                        1,
                        vec![WeightDelta {
                            slot: 40,
                            value: -3.0,
                        }],
                    ),
                    (
                        2,
                        vec![WeightDelta {
                            slot: 7,
                            value: 1.25,
                        }],
                    ),
                    (
                        mats.len() - 1,
                        vec![WeightDelta {
                            slot: 0,
                            value: -0.5,
                        }],
                    ),
                ],
            ];
            let mut row_buf = Vec::new();
            for case in &cases {
                let mut deltas: Vec<Vec<WeightDelta>> = vec![Vec::new(); mats.len()];
                for (i, ds) in case {
                    deltas[*i] = ds.clone();
                }
                let mut faulty = net.clone();
                let mut undo = Vec::new();
                faulty.apply_weight_deltas(&deltas, &mut undo);

                let full: Vec<Tensor> = faulty.forward_batch_scratch(&xs, &mut scratch);

                let first = deltas
                    .iter()
                    .position(|d| !d.is_empty())
                    .expect("has deltas");
                let pos = cache.site_layer(first);
                let (w, b) = faulty.layers()[pos].weight_bias().expect("weight layer");
                let mut rows: Vec<usize> = deltas[first]
                    .iter()
                    .map(|d| d.slot as usize / mats[first].cols)
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                let patched = cache.patched_outputs(first, w, b, &rows, &mut row_buf);
                let logits = faulty.forward_suffix(pos + 1, patched, &mut scratch);

                assert_eq!(full.len(), logits.len());
                for (a, b) in full.iter().zip(&logits) {
                    let bits =
                        |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "prefix path must be bit-exact");
                }
            }
        }
    }

    /// Prunes ~the given fraction of each weight matrix to exact zero
    /// (smallest magnitudes first), alternating `+0.0` and `-0.0`.
    fn pruned_net(seed: u64, sparsity: f64) -> Network {
        let mut net = lenet_mini(seed);
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
        let net = lenet_mini(9);
        let xs = batch(5, 4);
        let mut scratch = ForwardScratch::default();
        let cache = PrefixCache::build(&net, &xs, &mut scratch).expect("flat network");
        let direct = net.forward_batch(&xs);
        for (a, b) in cache.clean_logits().iter().zip(&direct) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(cache.batch_len(), 4);
    }

    #[test]
    fn residual_networks_are_rejected() {
        let net = Network::new(
            "res",
            vec![Layer::Residual {
                body: vec![Layer::ReLU],
                shortcut: vec![],
            }],
        );
        let xs = vec![Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0])];
        assert!(PrefixCache::build(&net, &xs, &mut ForwardScratch::default()).is_none());
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
