//! Golden output digests: the determinism contracts, checked on what the
//! code produces rather than on how its source reads (DESIGN.md §16).
//!
//! [`GOLDEN`] holds one FNV-1a digest per canonical fixed-seed output,
//! keyed by the `TRIAL_SEMANTICS_VERSION` it was taken at:
//!
//! - `trial/…` — trial values: a full-injection campaign per encoding ×
//!   bits-per-cell on a small pruned, clustered conv net, a chip
//!   campaign, an early-stopping DSE, and a reduced Fig. 5 study on the
//!   `fig5` stand-in;
//! - `train/…` — trained weights and `TrainReport`s: the `fig5`
//!   stand-in's two training passes, and a brief run of a small net with
//!   the conv geometries the stand-in lacks (pad 1, stride 2);
//! - `table4/…` — the analytic co-design answer for each of Table 4's
//!   (model, technology) pairs;
//! - `format/…` — the on-disk text of a checkpoint snapshot, and a
//!   `ShardSpec::owns` table.
//!
//! CI's thread-matrix and forced-scalar jobs run this file too, so
//! worker-count and SIMD-tier invariance are checked on outputs.
//!
//! On a mismatch the test prints the full replacement table; paste it
//! over [`GOLDEN`] once the change is understood. Checkpoints store trial
//! values, so a changed `trial/` digest must ride a
//! `TRIAL_SEMANTICS_VERSION` bump: at an unchanged version the test only
//! asks for the bump. The table keeps the previous version's `trial/`
//! digests, and a bump under which none of them changes fails. The
//! checkpoint text folds the version in, so it stays out of that
//! comparison. Changing a canonical fixture itself is not a semantics
//! change: delete its rows first, and the test offers the replacement at
//! the same version.
//!
//! The digests are pinned on x86_64 Linux: training and the fault models
//! call the platform's `exp`/`ln`/`cos`, whose last bits may differ on
//! other targets.

use maxnvm::optimal_design;
use maxnvm_bench::{fig5_stand_in, fig5_study};
use maxnvm_dnn::data::{synthetic_textures, SyntheticDigits};
use maxnvm_dnn::train::{he_init, sgd_train, TrainConfig, TrainReport};
use maxnvm_dnn::zoo::{self, prune_to_sparsity};
use maxnvm_dnn::{Layer, Network, Tensor};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::checkpoint::TRIAL_SEMANTICS_VERSION;
use maxnvm_faultsim::{
    AccuracyEval, Campaign, CampaignResult, CheckpointConfig, DseConfig, EarlyStop, EvalContext,
    Fingerprint, NetworkEval, RunControl, ShardSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The digest table: `digests` were taken at `TRIAL_SEMANTICS_VERSION`
/// `version`; `previous` holds the `trial/` digests of the version
/// before it.
struct Golden {
    version: u32,
    digests: &'static [(&'static str, u64)],
    previous: &'static [(&'static str, u64)],
}

const GOLDEN: Golden = Golden {
    version: 4,
    digests: &[
        ("trial/campaign/P+C/SLC", 0xe2e5caaf699127e2),
        ("trial/campaign/P+C/MLC2", 0xce77336dbc8c40ae),
        ("trial/campaign/P+C/MLC3", 0x1c288b715b4ad5c3),
        ("trial/campaign/CSR/SLC", 0x851a64f9e152b89d),
        ("trial/campaign/CSR/MLC2", 0xbab5cd15b780502c),
        ("trial/campaign/CSR/MLC3", 0xb5d64a6ee57e4841),
        ("trial/campaign/BitMask/SLC", 0x74bc1aef1ed0e4c0),
        ("trial/campaign/BitMask/MLC2", 0x57962f13b5b6df12),
        ("trial/campaign/BitMask/MLC3", 0x35dad1e1ab03ce42),
        ("trial/chips", 0x03558418a86fd87d),
        ("trial/dse", 0xc22f73e70e142762),
        ("trial/fig5", 0xf3418201f1bd1852),
        ("train/fig5", 0x0dfcef48e5e2a0cf),
        ("train/conv-geometry", 0xae4ad6e03d12d182),
        ("table4/VGG12/Opt MLC-RRAM", 0x871339c2cdf05cf1),
        ("table4/VGG12/MLC-CTT", 0x8af82370fdb037ac),
        ("table4/VGG12/MLC-RRAM", 0x71f1fd5175e14612),
        ("table4/VGG12/SLC-RRAM", 0x4c520ad9f29ef0b9),
        ("table4/VGG16/Opt MLC-RRAM", 0x55101e5db74baceb),
        ("table4/VGG16/MLC-CTT", 0xcfe5a3644224cb5e),
        ("table4/VGG16/MLC-RRAM", 0xc483bd630b26e234),
        ("table4/VGG16/SLC-RRAM", 0xf245a00d22115f7f),
        ("table4/ResNet50/Opt MLC-RRAM", 0x8021a9c77b94b960),
        ("table4/ResNet50/MLC-CTT", 0x7cb6f3fe3e286c93),
        ("table4/ResNet50/MLC-RRAM", 0xf980240b8622e9a1),
        ("table4/ResNet50/SLC-RRAM", 0x21499ba2a0d265e4),
        ("format/checkpoint", 0x12d81ae26760a1a7),
        ("format/shard-owns", 0x197824e82ec4a286),
    ],
    // None recorded: the table was first taken at version 4.
    previous: &[],
};

const TECH: CellTechnology = CellTechnology::MlcCtt;
const RATE_SCALE: f64 = 150.0;

/// FNV-1a from its offset basis, without the version fold of
/// `Fingerprint::new`: a digest moves only when its output does.
fn digest() -> Fingerprint {
    Fingerprint::resume(0xcbf2_9ce4_8422_2325)
}

fn store(layers: &[ClusteredLayer], scheme: &StorageScheme) -> Vec<StoredLayer> {
    layers
        .iter()
        .map(|l| StoredLayer::store(l, scheme))
        .collect()
}

fn chip_scheme() -> StorageScheme {
    StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync()
}

/// A small conv net on 3×16×16 textures, pruned to 60% and clustered to
/// 4-bit indices. Its test images are labelled with its own clean
/// predictions, so every error a campaign reports is a fault effect.
fn conv_fixture() -> (Vec<ClusteredLayer>, NetworkEval) {
    let mut net = Network::new(
        "golden-conv",
        vec![
            Layer::conv2d("conv1", 8, 3, 3, 1, 1),
            Layer::ReLU,
            Layer::MaxPool2,
            Layer::conv2d("conv2", 16, 8, 3, 1, 1),
            Layer::ReLU,
            Layer::MaxPool2,
            Layer::Flatten,
            Layer::linear("fc", 10, 16 * 4 * 4),
        ],
    );
    he_init(&mut net, 3);
    let mut mats = net.weight_matrices();
    for m in &mut mats {
        prune_to_sparsity(&mut m.data, 0.6);
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
    let images: Vec<Tensor> = synthetic_textures(24, 10, 11)
        .into_iter()
        .map(|(x, _)| x)
        .collect();
    let labels = net.predict_batch(&images);
    let eval = NetworkEval::new(net, images.into_iter().zip(labels).collect());
    (layers, eval)
}

fn campaign_digest(r: &CampaignResult) -> u64 {
    let mut f = digest();
    f.push_u64(r.completed_trials as u64)
        .push_u64(r.failed_trials.len() as u64)
        .push_f64(r.mean_cell_faults)
        .push_f64(r.expected_cell_faults)
        .push_f64(r.mean_ecc_corrected)
        .push_f64(r.mean_ecc_uncorrectable);
    for &e in &r.errors {
        f.push_f64(e);
    }
    f.finish()
}

/// Campaigns, chips, DSE and Fig. 5: the values checkpoints store.
fn trial_outputs(fig5: &(NetworkEval, Vec<ClusteredLayer>), out: &mut Vec<(String, u64)>) {
    let (layers, eval) = conv_fixture();
    let sa = SenseAmp::paper_default();
    let ctx = EvalContext::new(TECH, &sa, RATE_SCALE).expect("context");
    for encoding in EncodingKind::ALL {
        for bpc in MlcConfig::ALL {
            let stored = store(&layers, &StorageScheme::uniform(encoding, bpc));
            let r = ctx
                .run_campaign(8, 21, &stored, &eval, &RunControl::default())
                .expect("campaign");
            out.push((
                format!("trial/campaign/{encoding}/{bpc}"),
                campaign_digest(&r),
            ));
        }
    }

    // Chip programming outcomes are only defined at physical rates.
    let chips = EvalContext::new(TECH, &sa, 1.0)
        .expect("context")
        .run_chips(8, 23, &store(&layers, &chip_scheme()), &eval)
        .expect("chips");
    out.push(("trial/chips".into(), campaign_digest(&chips)));

    let cfg = DseConfig {
        campaign: Campaign {
            trials: 8,
            seed: 25,
            rate_scale: RATE_SCALE,
        },
        itn_bound: 0.02,
    };
    let control = RunControl {
        early_stop: Some(EarlyStop {
            min_trials: 4,
            batch: 4,
            ..EarlyStop::new(eval.baseline_error(), cfg.itn_bound)
        }),
        ..RunControl::default()
    };
    let points = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &control)
        .expect("dse");
    assert!(
        points.iter().any(|p| p.trials_run < cfg.campaign.trials),
        "early stopping decided no scheme"
    );
    let mut f = digest();
    for p in &points {
        f.push_str(&p.scheme.label())
            .push_u64(p.cells)
            .push_u64(p.trials_run as u64)
            .push_u64(p.passes as u64)
            .push_f64(p.mean_error);
    }
    out.push(("trial/dse".into(), f.finish()));

    let (eval, clustered) = fig5;
    let rows = fig5_study(6).run_fig5(clustered, eval).expect("fig5");
    let mut f = digest();
    f.push_f64(eval.baseline_error());
    for r in &rows {
        f.push_str(&r.label()).push_str(r.encoding.name());
        for (mean, max) in r.mean_error.iter().zip(&r.max_error) {
            f.push_f64(*mean).push_f64(*max);
        }
    }
    out.push(("trial/fig5".into(), f.finish()));
}

/// Every weight and bias of `net`, bit-exact, in layer order.
fn push_params(f: &mut Fingerprint, net: &Network) {
    for (w, b) in net.layers().iter().filter_map(Layer::weight_bias) {
        for &v in w.data().iter().chain(b) {
            f.push_u64(u64::from(v.to_bits()));
        }
    }
}

fn push_report(f: &mut Fingerprint, r: &TrainReport) {
    f.push_f64(f64::from(r.final_loss)).push_f64(r.train_error);
}

/// Training: what `sgd_train` leaves behind, weights and reports.
fn train_outputs(fig5_net: &Network, out: &mut Vec<(String, u64)>) {
    // The recipe of `maxnvm_bench::fig5_stand_in`, replayed to see each
    // pass's report and its weights before pruning.
    let data = SyntheticDigits::generate(1500, 42);
    let mut net = zoo::lenet_mini(7);
    let mut f = digest();
    for (epochs, lr, seed) in [(6, 0.004, 1), (2, 0.002, 2)] {
        let cfg = TrainConfig {
            epochs,
            lr,
            momentum: 0.9,
            seed,
        };
        let report = sgd_train(&mut net, &data.train, &cfg).expect("the fig5 recipe trains");
        push_report(&mut f, &report);
        push_params(&mut f, &net);
        let mut mats = net.weight_matrices();
        for m in &mut mats {
            prune_to_sparsity(&mut m.data, 0.6);
        }
        net.set_weight_matrices(&mats);
    }
    assert_eq!(
        net.layers(),
        fig5_net.layers(),
        "the replay no longer matches fig5_stand_in"
    );
    out.push(("train/fig5".into(), f.finish()));

    // A pad-1 conv, a stride-2 conv, a max-pool and two linears.
    let mut net = Network::new(
        "golden-train",
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
    let data = synthetic_textures(96, 4, 13);
    let cfg = TrainConfig {
        epochs: 3,
        lr: 0.01,
        momentum: 0.9,
        seed: 17,
    };
    let report = sgd_train(&mut net, &data, &cfg).expect("the small conv net trains");
    let mut f = digest();
    push_report(&mut f, &report);
    push_params(&mut f, &net);
    out.push(("train/conv-geometry".into(), f.finish()));
}

/// The co-design answer for Table 4's 12 (model, technology) pairs.
fn table4_outputs(out: &mut Vec<(String, u64)>) {
    for spec in [zoo::vgg12(), zoo::vgg16(), zoo::resnet50()] {
        for tech in CellTechnology::ALL {
            let d = optimal_design(&spec, tech).expect("design");
            let mut f = digest();
            f.push_str(&d.scheme_label)
                .push_u64(d.max_bits_per_cell as u64)
                .push_u64(d.cells)
                .push_f64(d.mean_error)
                .push_f64(d.array.area_mm2)
                .push_f64(d.array.read_latency_ns)
                .push_f64(d.array.read_energy_pj)
                .push_f64(d.array.leakage_mw)
                .push_f64(d.system_64.fps)
                .push_f64(d.system_64.energy_per_inference_mj)
                .push_f64(d.system_1024.fps)
                .push_f64(d.system_1024.energy_per_inference_mj)
                .push_f64(d.write_time_s);
            out.push((format!("table4/{}/{}", spec.name, tech.name()), f.finish()));
        }
    }
}

/// The persisted formats: checkpoint text, and which shard owns which
/// trial.
fn format_outputs(out: &mut Vec<(String, u64)>) {
    let dir = std::env::temp_dir().join(format!("maxnvm-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (layers, eval) = conv_fixture();

    let ckpt = dir.join("campaign.ckpt");
    let control = RunControl {
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
        ..RunControl::default()
    };
    EvalContext::new(TECH, &SenseAmp::paper_default(), RATE_SCALE)
        .expect("context")
        .run_campaign(4, 27, &store(&layers, &chip_scheme()), &eval, &control)
        .expect("checkpointed campaign");
    let text = std::fs::read_to_string(&ckpt).expect("snapshot");
    out.push((
        "format/checkpoint".into(),
        digest().push_str(&text).finish(),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut f = digest();
    for count in [2usize, 3, 8] {
        for group in 0..4 {
            for trial in 0..64 {
                let owner =
                    (0..count).find(|&i| ShardSpec::of(i, count).owns(0x5eed, group, trial));
                f.push_u64(owner.map_or(u64::MAX, |i| i as u64));
            }
        }
    }
    out.push(("format/shard-owns".into(), f.finish()));
}

fn is_trial(name: &str) -> bool {
    name.starts_with("trial/")
}

/// Renders a table in [`GOLDEN`]'s source form.
fn render(version: u32, digests: &[(String, u64)], previous: &[(&str, u64)]) -> String {
    let mut s = format!("const GOLDEN: Golden = Golden {{\n    version: {version},\n");
    let digests: Vec<(&str, u64)> = digests.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    for (field, rows) in [("digests", &digests[..]), ("previous", previous)] {
        if rows.is_empty() {
            let _ = writeln!(s, "    {field}: &[],");
            continue;
        }
        let _ = writeln!(s, "    {field}: &[");
        for (name, d) in rows {
            let _ = writeln!(s, "        ({name:?}, {d:#018x}),");
        }
        let _ = writeln!(s, "    ],");
    }
    s.push_str("};\n");
    s
}

/// Compares `got`, taken at `TRIAL_SEMANTICS_VERSION` `tsv`, against
/// `golden`. The error is the report to print; it carries the
/// replacement table wherever pasting it is the fix.
fn verdict(golden: &Golden, tsv: u32, got: &[(String, u64)]) -> Result<(), String> {
    let want: BTreeMap<&str, u64> = golden.digests.iter().copied().collect();
    let have: BTreeMap<&str, u64> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    // Every `trial/` digest of `table` reproduces: a bump across it
    // changed no trial value.
    let unchanged_since = |table: &[(&str, u64)]| {
        let mut trial = table.iter().filter(|(n, _)| is_trial(n)).peekable();
        trial.peek().is_some() && trial.all(|(n, d)| have.get(n) == Some(d))
    };
    let changed: Vec<&str> = want
        .keys()
        .chain(have.keys())
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter(|n| want.get(n) != have.get(n))
        .collect();
    let list = changed.join(", ");
    if tsv != golden.version {
        if unchanged_since(golden.digests) {
            return Err(format!(
                "bump without change: TRIAL_SEMANTICS_VERSION moved {} -> {tsv}, but every \
                 trial/ digest is unchanged; revert the bump",
                golden.version
            ));
        }
        let previous: Vec<(&str, u64)> = golden
            .digests
            .iter()
            .copied()
            .filter(|(n, _)| is_trial(n))
            .collect();
        return Err(format!(
            "TRIAL_SEMANTICS_VERSION moved {} -> {tsv}; changed: {list}\n\
             Replace GOLDEN in tests/golden.rs with:\n\n{}",
            golden.version,
            render(tsv, got, &previous)
        ));
    }
    if unchanged_since(golden.previous) {
        return Err(format!(
            "bump without change: the trial/ digests at TRIAL_SEMANTICS_VERSION {tsv} equal \
             the previous version's"
        ));
    }
    if changed.is_empty() {
        return Ok(());
    }
    let drift: Vec<&str> = changed
        .iter()
        .copied()
        .filter(|n| is_trial(n) && want.contains_key(n) && have.contains_key(n))
        .collect();
    if !drift.is_empty() {
        return Err(format!(
            "trial values changed at TRIAL_SEMANTICS_VERSION {tsv}: {}\n\
             Checkpoints store trial values, so bump TRIAL_SEMANTICS_VERSION in \
             crates/faultsim/src/checkpoint.rs, then rerun this test for the replacement table.",
            drift.join(", ")
        ));
    }
    Err(format!(
        "outputs changed: {list}\nIf intended, replace GOLDEN in tests/golden.rs with:\n\n{}",
        render(tsv, got, golden.previous)
    ))
}

#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux")),
    ignore = "the golden digests are pinned on x86_64 Linux"
)]
#[test]
fn outputs_match_the_golden_digests() {
    let fig5 = fig5_stand_in().expect("the fig5 stand-in trains");
    let mut got = Vec::new();
    trial_outputs(&fig5, &mut got);
    train_outputs(fig5.0.network(), &mut got);
    table4_outputs(&mut got);
    format_outputs(&mut got);
    if let Err(report) = verdict(&GOLDEN, TRIAL_SEMANTICS_VERSION, &got) {
        panic!("{report}");
    }
}

#[test]
fn the_table_rules_hold() {
    const T: Golden = Golden {
        version: 4,
        digests: &[("trial/a", 1), ("format/b", 2)],
        previous: &[("trial/a", 9)],
    };
    let got = |a: u64, b: u64| vec![("trial/a".to_string(), a), ("format/b".to_string(), b)];
    verdict(&T, 4, &got(1, 2)).expect("matching outputs pass");

    // A trial value moved without a bump: ask for the bump, offer no table.
    let report = verdict(&T, 4, &got(3, 2)).expect_err("drift");
    assert!(report.contains("bump TRIAL_SEMANTICS_VERSION"), "{report}");
    assert!(!report.contains("const GOLDEN"), "{report}");

    // Only a format moved: the replacement keeps the version.
    let report = verdict(&T, 4, &got(1, 5)).expect_err("format change");
    assert!(report.contains("version: 4,"), "{report}");
    assert!(
        report.contains("(\"format/b\", 0x0000000000000005)"),
        "{report}"
    );

    // A bump with a trial change: keyed to the new version, the old
    // trial digests become `previous`.
    let report = verdict(&T, 5, &got(3, 2)).expect_err("bump");
    assert!(report.contains("version: 5,"), "{report}");
    assert!(
        report.contains("previous: &[\n        (\"trial/a\", 0x0000000000000001),\n    ],"),
        "{report}"
    );

    // A bump that changes no trial value fails, before and after the
    // table is replaced.
    let report = verdict(&T, 5, &got(1, 5)).expect_err("bump without change");
    assert!(report.contains("bump without change"), "{report}");
    let report = verdict(&T, 4, &got(9, 2)).expect_err("equal to previous");
    assert!(report.contains("bump without change"), "{report}");
}
