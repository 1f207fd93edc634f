//! Full-chain campaign bit-equality across SIMD tiers and worker
//! counts: a fault-injection campaign over a conv network large enough
//! that its second convolution crosses the within-trial GEMM fan-out
//! gate must produce byte-identical error vectors whether the kernels
//! run on the scalar tier or the host's best SIMD tier, and at 1, 2,
//! or 4 pool workers with the GEMM fan-out enabled — the acceptance
//! lock for the runtime-dispatched microkernel work. The same campaign
//! also bounds the trials in flight: a GEMM fan-out waiting inside one
//! trial must not start another trial on its thread.
//!
//! Tier pinning is process-global dispatch state, so only the first test
//! pins tiers; the second's errors are tier-invariant by what the first
//! locks, so running beside it cannot disturb them.

use maxnvm_dnn::gemm::{self, force_tier_for_tests, supported_tiers, SimdTier};
use maxnvm_dnn::layer::Layer;
use maxnvm_dnn::network::{LayerMatrix, Network, WeightDelta};
use maxnvm_dnn::tensor::Tensor;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::engine::EvalContext;
use maxnvm_faultsim::evaluate::{AccuracyEval, EvalScratch, NetworkEval, SparseModel};
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A conv net whose second convolution (32×216 weights, 24×24 output
/// map) clears both fan-out gates: n = 576 ≥ 2·PAR_MIN_COLS and
/// work = 32·216·576 ≈ 3.98 M ≥ PAR_MIN_WORK.
fn conv_net(seed: u64) -> Network {
    let mut net = Network::new(
        "simd-campaign-conv",
        vec![
            Layer::conv2d("conv1", 24, 1, 5, 1, 0), // 28 -> 24
            Layer::ReLU,
            Layer::conv2d("conv2", 32, 24, 3, 1, 1), // 24 -> 24
            Layer::ReLU,
            Layer::AvgPoolGlobal,
            Layer::linear("fc", 4, 32),
        ],
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    net.for_each_weight_tensor_mut(|_, w| {
        let fan_in = w.shape()[w.shape().len() - 1] as f32;
        let scale = (2.0 / fan_in).sqrt();
        for v in w.data_mut() {
            *v = (rng.gen::<f32>() * 2.0 - 1.0) * scale;
        }
    });
    net
}

/// The evaluator over six random images and the net's weights pruned
/// 60% per layer and stored as CSR MLC3, mirroring the engine's own
/// worker-invariance lock.
fn fixture() -> (NetworkEval, Vec<StoredLayer>) {
    let net = conv_net(11);
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let test: Vec<(Tensor, usize)> = (0..6)
        .map(|_| {
            let pixels: Vec<f32> = (0..28 * 28).map(|_| rng.gen::<f32>()).collect();
            (Tensor::from_vec(&[1, 28, 28], pixels), rng.gen_range(0..4))
        })
        .collect();
    let eval = NetworkEval::new(net.clone(), test);
    let stored: Vec<StoredLayer> = net
        .weight_matrices()
        .iter()
        .map(|m| {
            let mut pruned = m.clone();
            let mut mags: Vec<f32> = pruned.data.iter().map(|v| v.abs()).collect();
            mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let t = mags[((mags.len() - 1) as f64 * 0.6) as usize];
            for v in &mut pruned.data {
                if v.abs() <= t {
                    *v = 0.0;
                }
            }
            let clustered = ClusteredLayer::from_matrix(&pruned, 4, 9);
            StoredLayer::store(
                &clustered,
                &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
            )
        })
        .collect();
    (eval, stored)
}

#[test]
fn campaign_is_byte_identical_across_tiers_and_workers() {
    let (eval, stored) = fixture();
    let sa = SenseAmp::paper_default();
    let (trials, seed, scale) = (8usize, 5u64, 2000.0);
    let run = |tier: SimdTier, workers: usize| {
        force_tier_for_tests(Some(tier));
        let result = EvalContext::with_workers(CellTechnology::MlcCtt, &sa, scale, workers)
            .unwrap()
            .run_campaign(trials, seed, &stored, &eval)
            .unwrap();
        force_tier_for_tests(None);
        result.errors
    };

    // The conv2 multiply must actually cross the fan-out gate,
    // otherwise this test would not exercise parallel GEMM at all.
    let (m, k, n) = (32usize, 24 * 3 * 3, 24 * 24);
    assert!(m * k * n >= gemm::PAR_MIN_WORK && n >= 2 * gemm::PAR_MIN_COLS);

    let reference = run(SimdTier::Scalar, 1);
    assert_eq!(reference.len(), trials);
    assert!(reference.iter().all(|e| e.is_finite()));

    let best = *supported_tiers().last().unwrap();
    for tier in [SimdTier::Scalar, best] {
        for workers in [1, 2, 4] {
            let errors = run(tier, workers);
            for (t, (got, want)) in errors.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "trial {t} drifted on tier {} with {workers} workers",
                    tier.name()
                );
            }
        }
    }
}

/// Forwards to a [`NetworkEval`], counting `eval_deltas_sparse` calls in
/// flight. Each call is one trial on one pooled scratch, so the peak is
/// how many clean prefixes the run holds at once.
struct InFlight<'a> {
    inner: &'a NetworkEval,
    active: AtomicUsize,
    peak: AtomicUsize,
}

impl AccuracyEval for InFlight<'_> {
    fn baseline_error(&self) -> f64 {
        self.inner.baseline_error()
    }

    fn eval(&self, mats: &[LayerMatrix]) -> f64 {
        self.inner.eval(mats)
    }

    fn eval_deltas_sparse(
        &self,
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
        scratch: &mut EvalScratch,
    ) -> f64 {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        let error = self.inner.eval_deltas_sparse(key, clean, deltas, scratch);
        self.active.fetch_sub(1, Ordering::SeqCst);
        error
    }
}

#[test]
fn trials_in_flight_never_exceed_workers_plus_one() {
    // Every trial's first evaluation builds the clean prefix, whose conv2
    // multiply fans out over the pool. The trial's thread waits in that
    // fan-out; if it picked up queued trials meanwhile, each would check
    // out a scratch and build a prefix of its own, without bound.
    let (eval, stored) = fixture();
    let sa = SenseAmp::paper_default();
    let (trials, seed, scale) = (16usize, 7u64, 2000.0);
    let run = |eval: &(dyn AccuracyEval + Sync), workers: usize| {
        EvalContext::with_workers(CellTechnology::MlcCtt, &sa, scale, workers)
            .unwrap()
            .run_campaign(trials, seed, &stored, eval)
            .unwrap()
            .errors
    };
    let reference = run(&eval, 1);
    assert_eq!(reference.len(), trials);
    for workers in [1, 2, 4] {
        let counted = InFlight {
            inner: &eval,
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        };
        let errors = run(&counted, workers);
        let bits = |e: &[f64]| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&errors), bits(&reference), "workers={workers}");
        let peak = counted.peak.load(Ordering::SeqCst);
        assert!(
            peak <= workers + 1,
            "{peak} trials in flight on {workers} workers"
        );
    }
}
