//! End-to-end fault-tolerance integration tests: a *real trained network*
//! through prune → cluster → encode → MLC cells → injected faults →
//! decode → inference, asserting the paper's §4 vulnerability findings.

use maxnvm_dnn::data::SyntheticDigits;
use maxnvm_dnn::train::{sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{lenet_mini, prune_to_sparsity};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer, StructureBpc};
use maxnvm_encoding::{EncodingKind, StructureKind};
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::Campaign;
use maxnvm_faultsim::engine::{EvalContext, RunControl};
use maxnvm_faultsim::evaluate::{AccuracyEval, NetworkEval};

/// Trains, prunes (with retraining) and clusters the stand-in model once.
fn trained_setup() -> (NetworkEval, Vec<ClusteredLayer>) {
    let data = SyntheticDigits::generate(1200, 42);
    let mut net = lenet_mini(17);
    let cfg = TrainConfig {
        epochs: 5,
        lr: 0.005,
        momentum: 0.9,
        seed: 5,
    };
    sgd_train(&mut net, &data.train, &cfg).expect("trainable");
    let mut mats = net.weight_matrices();
    for m in &mut mats {
        prune_to_sparsity(&mut m.data, 0.6);
    }
    net.set_weight_matrices(&mats);
    sgd_train(
        &mut net,
        &data.train,
        &TrainConfig {
            epochs: 2,
            lr: 0.002,
            momentum: 0.9,
            seed: 6,
        },
    )
    .expect("trainable");
    let mut mats = net.weight_matrices();
    for m in &mut mats {
        prune_to_sparsity(&mut m.data, 0.6);
    }
    net.set_weight_matrices(&mats);
    let clustered = mats
        .iter()
        .map(|m| ClusteredLayer::from_matrix(m, 4, 5))
        .collect();
    (NetworkEval::new(net, data.test), clustered)
}

fn campaign() -> Campaign {
    Campaign {
        trials: 20,
        seed: 9,
        // Stand-in scale: expected fault counts matched to a full-size
        // LeNet5 (~160x more cells).
        rate_scale: 160.0,
    }
}

fn isolated_error(
    eval: &NetworkEval,
    clustered: &[ClusteredLayer],
    encoding: EncodingKind,
    target: StructureKind,
    bpc: MlcConfig,
    idx_sync: bool,
    ecc: bool,
) -> f64 {
    let mut b = StructureBpc::uniform(MlcConfig::SLC);
    match target {
        StructureKind::Values => b.values = bpc,
        StructureKind::ColIndex => b.col_index = bpc,
        StructureKind::RowCounter => b.row_counter = bpc,
        StructureKind::Mask => b.mask = bpc,
        StructureKind::SyncCounter => b.sync_counter = bpc,
        StructureKind::Centroids => {}
    }
    let mut scheme = StorageScheme::uniform(encoding, MlcConfig::SLC).with_bpc(b);
    if idx_sync {
        scheme = scheme.with_idx_sync().with_sync_block_bits(64);
    }
    if ecc {
        scheme = scheme.with_ecc();
    }
    let stored: Vec<StoredLayer> = clustered
        .iter()
        .map(|c| StoredLayer::store(c, &scheme))
        .collect();
    let c = campaign();
    EvalContext::new(
        CellTechnology::MlcCtt,
        &SenseAmp::paper_default(),
        c.rate_scale,
    )
    .and_then(|ctx| {
        ctx.run_isolated(
            c.trials,
            c.seed,
            target,
            &stored,
            eval,
            &RunControl::default(),
        )
    })
    .expect("campaign")
    .mean_error
}

/// Error of the clustered (but fault-free) model — the reference every
/// fault campaign is compared against (clustering itself costs a little
/// accuracy, which is ITN-budgeted, not fault damage).
fn clustered_baseline(eval: &NetworkEval, clustered: &[ClusteredLayer]) -> f64 {
    eval.eval(
        &clustered
            .iter()
            .map(ClusteredLayer::reconstruct)
            .collect::<Vec<_>>(),
    )
}

#[test]
fn fig5_vulnerability_ordering_end_to_end() {
    let (eval, clustered) = trained_setup();
    assert!(eval.baseline_error() < 0.1, "stand-in failed to train");
    let base = clustered_baseline(&eval, &clustered);
    assert!(base < 0.15, "clustering destroyed the stand-in: {base}");

    // SLC storage is harmless for every structure.
    let slc_mask = isolated_error(
        &eval,
        &clustered,
        EncodingKind::BitMask,
        StructureKind::Mask,
        MlcConfig::SLC,
        false,
        false,
    );
    assert!(
        (slc_mask - base).abs() < 0.01,
        "SLC mask {slc_mask} vs {base}"
    );

    // MLC3: values are resilient, metadata is not, the mask is worst.
    let values = isolated_error(
        &eval,
        &clustered,
        EncodingKind::Csr,
        StructureKind::Values,
        MlcConfig::MLC3,
        false,
        false,
    );
    let counter = isolated_error(
        &eval,
        &clustered,
        EncodingKind::Csr,
        StructureKind::RowCounter,
        MlcConfig::MLC3,
        false,
        false,
    );
    let mask = isolated_error(
        &eval,
        &clustered,
        EncodingKind::BitMask,
        StructureKind::Mask,
        MlcConfig::MLC3,
        false,
        false,
    );
    assert!(
        values < counter && counter < mask,
        "vulnerability ordering: values {values}, counter {counter}, mask {mask}"
    );
    assert!(
        mask > base + 0.05,
        "unprotected MLC3 mask must visibly degrade: {mask} vs {base}"
    );
}

#[test]
fn fig5_protection_rescues_mlc3_end_to_end() {
    let (eval, clustered) = trained_setup();
    let base = clustered_baseline(&eval, &clustered);

    let mask_plain = isolated_error(
        &eval,
        &clustered,
        EncodingKind::BitMask,
        StructureKind::Mask,
        MlcConfig::MLC3,
        false,
        false,
    );
    let mask_sync = isolated_error(
        &eval,
        &clustered,
        EncodingKind::BitMask,
        StructureKind::Mask,
        MlcConfig::MLC3,
        true,
        false,
    );
    let mask_ecc = isolated_error(
        &eval,
        &clustered,
        EncodingKind::BitMask,
        StructureKind::Mask,
        MlcConfig::MLC3,
        false,
        true,
    );
    assert!(
        mask_sync < mask_plain && mask_ecc < mask_plain,
        "plain {mask_plain}, sync {mask_sync}, ecc {mask_ecc}"
    );
    assert!(
        mask_sync < base + 0.05,
        "IdxSync should bring MLC3 near baseline: {mask_sync} vs {base}"
    );

    let rc_plain = isolated_error(
        &eval,
        &clustered,
        EncodingKind::Csr,
        StructureKind::RowCounter,
        MlcConfig::MLC3,
        false,
        false,
    );
    let rc_ecc = isolated_error(
        &eval,
        &clustered,
        EncodingKind::Csr,
        StructureKind::RowCounter,
        MlcConfig::MLC3,
        false,
        true,
    );
    assert!(
        rc_ecc < rc_plain,
        "ECC must help row counters: {rc_ecc} vs {rc_plain}"
    );
    assert!(
        rc_ecc < base + 0.02,
        "ECC'd counters near baseline: {rc_ecc}"
    );
}

#[test]
fn full_storage_round_trip_is_lossless_without_faults() {
    let (eval, clustered) = trained_setup();
    for encoding in EncodingKind::ALL {
        let scheme = StorageScheme::uniform(encoding, MlcConfig::MLC3)
            .with_idx_sync()
            .with_ecc();
        let stored: Vec<StoredLayer> = clustered
            .iter()
            .map(|c| StoredLayer::store(c, &scheme))
            .collect();
        let mats: Vec<_> = stored.iter().map(|s| s.decode_clean().0).collect();
        let err = eval.eval(&mats);
        // Clustering itself costs a little accuracy; storage must add none.
        let clustered_err = eval.eval(
            &clustered
                .iter()
                .map(ClusteredLayer::reconstruct)
                .collect::<Vec<_>>(),
        );
        assert_eq!(err, clustered_err, "{encoding} round trip changed weights");
    }
}

/// Lint rule R1: integer overflow panics in every build profile,
/// `--release` included (`[profile.release] overflow-checks = true`).
/// A wrapped index would read a plausible wrong weight — a silent error
/// indistinguishable from the storage faults these tests inject.
#[test]
fn integer_overflow_panics_in_every_profile() {
    let sum =
        std::panic::catch_unwind(|| std::hint::black_box(usize::MAX) + std::hint::black_box(1));
    assert!(sum.is_err(), "usize::MAX + 1 wrapped to {sum:?}");
}
