//! Deeply-embedded inference end to end: train a small CNN on synthetic
//! digits, prune + cluster its weights, commit them to simulated MLC-CTT
//! cells, and measure classification error through injected faults — the
//! paper's §4 methodology on a real, runnable network.
//!
//! ```sh
//! cargo run --example embedded_inference
//! ```

use maxnvm_dnn::data::SyntheticDigits;
use maxnvm_dnn::train::{sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{lenet_mini, prune_to_sparsity};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::Campaign;
use maxnvm_faultsim::engine::{EvalContext, RunControl};
use maxnvm_faultsim::evaluate::{AccuracyEval, NetworkEval};

fn main() {
    // Train the embedded model.
    println!("Training a LeNet-style CNN on 16x16 synthetic digits...");
    let data = SyntheticDigits::generate(1500, 42);
    let mut net = lenet_mini(7);
    let report = sgd_train(
        &mut net,
        &data.train,
        &TrainConfig {
            epochs: 6,
            // 0.005 sits right on this config's divergence edge: under
            // the §14 fused-multiply-add semantics this seed's
            // trajectory tips into a loss spike at epoch 2 and never
            // recovers. 0.004 trains to 0% with margin.
            lr: 0.004,
            momentum: 0.9,
            seed: 1,
        },
    )
    .expect("trainable topology");
    println!("  final train error {:.2}%", report.train_error * 100.0);

    // Prune (magnitude), retrain briefly (the paper prunes *with*
    // retraining, §3.1.2), re-prune to restore the zeros, then cluster.
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
            seed: 2,
        },
    )
    .expect("trainable topology");
    let mut mats = net.weight_matrices();
    for m in &mut mats {
        prune_to_sparsity(&mut m.data, 0.6);
    }
    net.set_weight_matrices(&mats);
    let eval = NetworkEval::new(net, data.test);
    println!(
        "  pruned test error {:.2}% ({} weights)",
        eval.baseline_error() * 100.0,
        mats.iter().map(|m| m.data.len()).sum::<usize>()
    );
    let clustered: Vec<ClusteredLayer> = mats
        .iter()
        .map(|m| ClusteredLayer::from_matrix(m, 4, 5))
        .collect();

    // Commit to MLC-CTT under two storage schemes and inject faults.
    let tech = CellTechnology::MlcCtt;
    let sa = SenseAmp::paper_default();
    // Scale fault rates so expected fault counts match a full-size
    // LeNet5 deployment (the stand-in has ~160x fewer cells).
    let campaign = Campaign {
        trials: 25,
        seed: 3,
        rate_scale: 160.0,
    };
    let ctx = EvalContext::new(tech, &sa, campaign.rate_scale).expect("evaluation context");
    println!(
        "\nFault-injection campaigns on {} ({} trials):",
        tech.name(),
        campaign.trials
    );
    println!(
        "{:<34} {:>10} {:>12} {:>12}",
        "scheme", "cells", "mean error", "worst trial"
    );
    for (label, scheme) in [
        (
            "BitMask, all SLC",
            StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::SLC),
        ),
        (
            "BitMask, all MLC3 (unprotected)",
            StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3),
        ),
        (
            "BitM+IdxSync+ECC, MLC3",
            StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3)
                .with_idx_sync()
                .with_ecc(),
        ),
        (
            "CSR+ECC, MLC3",
            StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3).with_ecc(),
        ),
    ] {
        let stored: Vec<StoredLayer> = clustered
            .iter()
            .map(|c| StoredLayer::store(c, &scheme))
            .collect();
        let cells: u64 = stored.iter().map(StoredLayer::total_cells).sum();
        let result = ctx
            .run_campaign(
                campaign.trials,
                campaign.seed,
                &stored,
                &eval,
                &RunControl::default(),
            )
            .expect("campaign");
        println!(
            "{:<34} {:>10} {:>11.2}% {:>11.2}%",
            label,
            cells,
            result.mean_error * 100.0,
            result.max_error * 100.0
        );
    }
    println!("\nMLC3 cuts the cell count ~3x. Unprotected, the bitmask's misalignment");
    println!("cascades destroy accuracy; IdxSync/ECC confine the damage, leaving only");
    println!("the (unprotected) weight values' small residual at this exaggerated rate.");
}
