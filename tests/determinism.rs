//! Determinism guarantees: every stochastic stage is seeded, so the whole
//! pipeline — training, clustering, storage, injection, DSE, system
//! evaluation — must be bit-reproducible run to run. This is what makes
//! the regression locks and `EXPERIMENTS.md` meaningful.

use maxnvm::{optimal_design, CellTechnology};
use maxnvm_dnn::data::SyntheticDigits;
use maxnvm_dnn::train::{sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{self, lenet_mini};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::{EncodingKind, StructureKind};
use maxnvm_envm::{MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::Campaign;
use maxnvm_faultsim::engine::{EvalContext, RunControl};
use maxnvm_faultsim::evaluate::{NetworkEval, ProxyEval};

#[test]
fn training_is_deterministic() {
    let data = SyntheticDigits::generate(300, 42);
    let run = || {
        let mut net = lenet_mini(7);
        sgd_train(
            &mut net,
            &data.train,
            &TrainConfig {
                epochs: 2,
                lr: 0.005,
                momentum: 0.9,
                seed: 1,
            },
        )
        .unwrap();
        net
    };
    assert_eq!(run(), run());
}

#[test]
fn clustering_and_storage_are_deterministic() {
    let spec = zoo::vgg12();
    let m = spec.layers[3].sample_matrix(spec.paper.sparsity, 9, 64, 256);
    let run = || {
        let c = ClusteredLayer::from_matrix(&m, 4, 5);
        StoredLayer::store(
            &c,
            &StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn campaigns_are_deterministic_across_thread_schedules() {
    // Trials are seeded per trial id and assembled in trial order, so
    // every campaign entry point must return the identical result on 1,
    // 2 or every core's worth of threads.
    let spec = zoo::vgg12();
    let m = spec.layers[5].sample_matrix(spec.paper.sparsity, 11, 64, 256);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let stored = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
    );
    let stored = std::slice::from_ref(&stored);
    let eval = ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9);
    let (trials, seed, rate_scale) = (16, 3, 100.0);
    let sa = SenseAmp::paper_default();
    let ctx = |rate_scale, workers| {
        EvalContext::with_workers(CellTechnology::MlcCtt, &sa, rate_scale, workers)
            .expect("context")
    };
    let control = RunControl::default();
    let run = |workers| {
        let scaled = ctx(rate_scale, workers);
        // Chip programming outcomes are only defined at physical rates.
        let physical = ctx(1.0, workers);
        [
            scaled.run_campaign(trials, seed, stored, &eval, &control),
            scaled.run_isolated(
                trials,
                seed,
                StructureKind::ColIndex,
                stored,
                &eval,
                &control,
            ),
            physical.run_chips(trials, seed, stored, &eval),
        ]
        .map(|r| r.expect("campaign"))
    };
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let one = run(1);
    for (name, r) in ["campaign", "isolated", "chips"].iter().zip(&one) {
        assert!(r.mean_cell_faults > 0.0, "{name}: no faults landed");
    }
    for workers in [2, max] {
        assert_eq!(run(workers), one, "{workers} workers");
    }
}

#[test]
fn network_campaigns_are_identical_at_any_thread_count() {
    // 135 self-labelled images: three 64-sample clean-prefix chunks, the
    // last one partial. The threads of a run build one shared prefix
    // between them, chunk by chunk, and every trial adds up its
    // misclassifications chunk by chunk, so neither may depend on how
    // many threads ran.
    let mut net = lenet_mini(3);
    let mut mats = net.weight_matrices();
    for m in &mut mats {
        zoo::prune_to_sparsity(&mut m.data, 0.6);
    }
    let layers: Vec<ClusteredLayer> = mats
        .iter()
        .map(|m| ClusteredLayer::from_matrix(m, 4, 5))
        .collect();
    net.set_weight_matrices(
        &layers
            .iter()
            .map(ClusteredLayer::reconstruct)
            .collect::<Vec<_>>(),
    );
    let images: Vec<_> = SyntheticDigits::generate(540, 8)
        .test
        .into_iter()
        .map(|(x, _)| x)
        .collect();
    assert!(images.len() >= 130, "{} images", images.len());
    let labels = net.predict_batch(&images);
    let eval = NetworkEval::new(net, images.into_iter().zip(labels).collect());
    let scheme = StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync();
    let stored: Vec<StoredLayer> = layers
        .iter()
        .map(|l| StoredLayer::store(l, &scheme))
        .collect();
    let sa = SenseAmp::paper_default();
    let run = |workers| {
        let campaign = EvalContext::with_workers(CellTechnology::MlcCtt, &sa, 150.0, workers)
            .expect("context")
            .run_campaign(24, 5, &stored, &eval, &RunControl::default())
            .expect("campaign");
        // Chip programming outcomes are only defined at physical rates;
        // MLC RRAM's are high enough for faults to land.
        let chips = EvalContext::with_workers(CellTechnology::MlcRram, &sa, 1.0, workers)
            .expect("context")
            .run_chips(128, 29, &stored, &eval)
            .expect("chips");
        (campaign, chips)
    };
    let one = run(1);
    for (name, r) in [("campaign", &one.0), ("chips", &one.1)] {
        assert!(r.mean_cell_faults > 0.0, "{name}: no faults landed");
    }
    assert!(
        one.0.errors.iter().any(|&e| e > 0.0),
        "no campaign trial misclassified anything: the comparison is vacuous"
    );
    for workers in [2, 3] {
        assert_eq!(run(workers), one, "{workers} threads");
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = optimal_design(&zoo::resnet50(), CellTechnology::MlcCtt).expect("design");
    let b = optimal_design(&zoo::resnet50(), CellTechnology::MlcCtt).expect("design");
    assert_eq!(a, b);
}

/// A small but non-trivial DSE setup: one sparse layer, a handful of
/// trials, exaggerated rates so faults actually land.
fn dse_fixture() -> (Vec<ClusteredLayer>, ProxyEval, maxnvm_faultsim::DseConfig) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 160);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let eval = ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9);
    let cfg = maxnvm_faultsim::DseConfig {
        campaign: Campaign {
            trials: 4,
            seed: 13,
            rate_scale: 120.0,
        },
        itn_bound: 0.02,
    };
    (vec![c], eval, cfg)
}

#[test]
fn engine_dse_is_identical_at_any_worker_count() {
    // The engine seeds per (scheme, trial) and assembles results by
    // index, so the point vector must be byte-identical whether one
    // worker or every core runs the sweep.
    let (layers, eval, cfg) = dse_fixture();
    let sa = SenseAmp::paper_default();
    let run = |workers| {
        EvalContext::with_workers(
            CellTechnology::MlcCtt,
            &sa,
            cfg.campaign.rate_scale,
            workers,
        )
        .expect("context")
        .run_dse_controlled(&layers, &eval, &cfg, &RunControl::default())
        .expect("dse")
    };
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let one = run(1);
    assert_eq!(one, run(2));
    assert_eq!(one, run(max));
}

#[test]
fn engine_dse_agrees_with_the_reference_sweep() {
    // The reference is a serial oracle with no helper threads, no encode
    // cache and no delta path: every candidate scheme stores the layers
    // afresh, and trial `t` decodes them with the fault sampler seeded
    // `seed + t` and evaluates the materialized matrices. The engine must
    // reproduce it exactly: cell counts, and every point's mean error to
    // the bit.
    use maxnvm_encoding::storage::PreparedLayer;
    use maxnvm_faultsim::campaign::fault_maps;
    use maxnvm_faultsim::dse::candidate_schemes;
    use maxnvm_faultsim::evaluate::AccuracyEval;
    use rand::SeedableRng;
    use std::sync::Arc;
    let (layers, eval, mut cfg) = dse_fixture();
    cfg.campaign.trials = 24;
    let Campaign {
        trials,
        seed,
        rate_scale,
    } = cfg.campaign;
    let tech = CellTechnology::MlcCtt;
    let sa = SenseAmp::paper_default();
    let engine = EvalContext::new(tech, &sa, rate_scale)
        .expect("context")
        .run_dse_controlled(&layers, &eval, &cfg, &RunControl::default())
        .expect("dse");
    let base = fault_maps(tech, &sa);
    let fault_for = |bpc: MlcConfig| Arc::new(base(bpc).scaled(rate_scale));
    let schemes = candidate_schemes(tech);
    assert_eq!(engine.len(), schemes.len());
    for (point, scheme) in engine.iter().zip(&schemes) {
        let label = scheme.label();
        assert_eq!(&point.scheme, scheme);
        let stored: Vec<StoredLayer> = layers
            .iter()
            .map(|l| StoredLayer::store(l, scheme))
            .collect();
        let cells: u64 = stored.iter().map(StoredLayer::total_cells).sum();
        assert_eq!(point.cells, cells, "{label}");
        let prepared: Vec<PreparedLayer> = stored.iter().map(PreparedLayer::prepare).collect();
        let errors: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                let mats: Vec<_> = prepared
                    .iter()
                    .map(|p| p.decode_with_faults(&fault_for, &mut rng).0)
                    .collect();
                eval.eval(&mats)
            })
            .collect();
        let mean = errors.iter().sum::<f64>() / trials as f64;
        assert_eq!(point.trials_run, trials, "{label}");
        assert_eq!(point.mean_error.to_bits(), mean.to_bits(), "{label}");
    }
    // Faults must move some points, or the bitwise match is vacuous.
    let baseline = eval.baseline_error();
    assert!(engine.iter().any(|p| p.mean_error != baseline));
}
