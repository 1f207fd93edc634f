//! Full-chain campaign bit-equality across SIMD tiers and worker
//! counts: a fault-injection campaign over a conv network whose second
//! convolution spans many register tiles must produce byte-identical error
//! vectors whether the kernels run on the scalar tier or the host's best
//! SIMD tier, and at 1, 2, or 4 compute threads — the acceptance lock
//! for the runtime-dispatched microkernel work. The same campaign also
//! bounds the threads and scratches a run uses: one scratch per trial in
//! flight, at most one trial per compute thread, and at most as many
//! threads as the context was given.
//!
//! Tier pinning is process-global dispatch state, so only the first test
//! pins tiers; the second's errors are tier-invariant by what the first
//! locks, so running beside it cannot disturb them.

use maxnvm_dnn::gemm::{force_tier_for_tests, supported_tiers, SimdTier};
use maxnvm_dnn::layer::Layer;
use maxnvm_dnn::network::{LayerMatrix, Network, WeightDelta};
use maxnvm_dnn::tensor::Tensor;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::engine::{EvalContext, RunControl};
use maxnvm_faultsim::evaluate::{AccuracyEval, EvalScratch, NetworkEval, SparseModel};
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// A conv net whose second convolution (32×216 weights, 24×24 output
/// map) is a 32×216×576 GEMM: many register tiles on every tier.
fn conv_net(seed: u64) -> Network {
    let mut net = Network::new(
        "simd-campaign-conv",
        vec![
            Layer::conv2d("conv1", 24, 1, 5, 1, 0), // 28 -> 24
            Layer::ReLU,
            Layer::conv2d("conv2", 32, 24, 3, 1, 1), // 24 -> 24
            Layer::ReLU,
            Layer::MaxPool2, // -> 12
            Layer::Flatten,
            Layer::linear("fc", 4, 32 * 12 * 12),
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
            .run_campaign(trials, seed, &stored, &eval, &RunControl::default())
            .unwrap();
        force_tier_for_tests(None);
        result.errors
    };

    let reference = run(SimdTier::Scalar, 1);
    assert_eq!(reference.len(), trials);
    assert!(reference.iter().all(|e| e.is_finite()));
    assert!(
        reference.iter().any(|&e| e != eval.baseline_error()),
        "no trial changed a prediction: the lock is vacuous"
    );

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
/// flight and recording the distinct threads they run on (`ThreadId` has
/// no `Ord`, and D1 bans hash sets here). Each call is one trial
/// on one pooled scratch, so the peak is how many scratches the run
/// needs, and bounds how many clean prefixes it holds at once.
struct InFlight<'a> {
    inner: &'a NetworkEval,
    active: AtomicUsize,
    peak: AtomicUsize,
    threads: Mutex<Vec<ThreadId>>,
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
        let id = thread::current().id();
        let mut threads = self.threads.lock().unwrap();
        if !threads.contains(&id) {
            threads.push(id);
        }
        drop(threads);
        let error = self.inner.eval_deltas_sparse(key, clean, deltas, scratch);
        self.active.fetch_sub(1, Ordering::SeqCst);
        error
    }
}

#[test]
fn trials_in_flight_never_exceed_threads() {
    // Each trial in flight checks out a scratch, and a scratch holds at
    // most one clean prefix (shared with the run's other scratches).
    // Trials run one per compute thread, the caller included, so a run
    // on `threads` threads holds at most `threads` scratches and
    // prefixes, whatever its trial count, and one thread means the
    // caller's alone.
    let (eval, stored) = fixture();
    let sa = SenseAmp::paper_default();
    let (trials, seed, scale) = (16usize, 7u64, 2000.0);
    let run = |eval: &(dyn AccuracyEval + Sync), threads: usize| {
        EvalContext::with_workers(CellTechnology::MlcCtt, &sa, scale, threads)
            .unwrap()
            .run_campaign(trials, seed, &stored, eval, &RunControl::default())
            .unwrap()
            .errors
    };
    let reference = run(&eval, 1);
    assert_eq!(reference.len(), trials);
    for threads in [1, 2, 4] {
        let counted = InFlight {
            inner: &eval,
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            threads: Mutex::new(Vec::new()),
        };
        let errors = run(&counted, threads);
        let bits = |e: &[f64]| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&errors), bits(&reference), "threads={threads}");
        let peak = counted.peak.load(Ordering::SeqCst);
        assert!(
            peak <= threads,
            "{peak} trials in flight on {threads} threads"
        );
        let used = counted.threads.into_inner().unwrap();
        assert!(
            used.len() <= threads,
            "trials ran on {} threads with {threads} allowed",
            used.len()
        );
        if threads == 1 {
            assert!(used.contains(&thread::current().id()), "threads=1");
        }
    }
}
