//! The three workloads: how their inputs are generated from the workload
//! seed (set-up), what one study is, and the checks and digest over its
//! simulated outputs.

use crate::probe::{Digest, Tracer};
use maxnvm::design_from_scheme;
use maxnvm_dnn::data::{synthetic_textures, SyntheticDigits};
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_dnn::train::{he_init, sgd_train, TrainConfig};
use maxnvm_dnn::zoo::{
    lenet_mini, prune_to_sparsity, spec_from_network, ModelSpec, PaperModelInfo,
};
use maxnvm_dnn::{Layer, Network, Tensor};
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::{EncodingKind, StructureKind};
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::campaign::{Campaign, CampaignResult};
use maxnvm_faultsim::dse::{minimal_cells, DseConfig, DsePoint};
use maxnvm_faultsim::evaluate::{AccuracyEval, NetworkEval};
use maxnvm_faultsim::vulnerability::{VulnerabilityRow, VulnerabilityStudy};
use maxnvm_faultsim::{EarlyStop, EvalContext, RunControl};

pub const TECH: CellTechnology = CellTechnology::MlcCtt;
/// Fig. 5 and DSE fault-rate multiplier for the small stand-in.
pub const RATE_SCALE: f64 = 150.0;
pub const FIG5_TRIALS: usize = 30;
pub const FIG5_SYNC_BLOCK_BITS: usize = 64;
pub const DSE_TRIALS: usize = 64;
/// Test samples the DSE evaluates on. 80 or more crosses the GEMM
/// fan-out gate inside `run_dse` trials and aborts the process (see
/// README.md); `--dse-samples` overrides it for the repro.
pub const DSE_SAMPLES: usize = 64;
/// Iso-training-noise headroom of the DSE acceptance test.
pub const DSE_ITN_BOUND: f64 = 0.02;
pub const CHIP_TRIALS: usize = 48;
pub const CHIP_TEST_IMAGES: usize = 256;
/// VGG12's pruned sparsity (Table 2).
pub const VGG12_SPARSITY: f64 = 0.409;
/// Seed of the networks' weights and of the LeNet training set. The
/// workload seed varies the test images and the trial seeds; the model
/// stays fixed, so a study's amount of work does not swing with the seed.
pub const MODEL_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig5,
    Dse,
    Chips,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fig5_lenet" => Some(Kind::Fig5),
            "dse_lenet" => Some(Kind::Dse),
            "chips_vgg12" => Some(Kind::Chips),
            _ => None,
        }
    }
}

/// Everything a study needs, generated from the workload seed.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// The network with its clean clustered weights in place.
    pub net: Network,
    pub clustered: Vec<ClusteredLayer>,
    pub eval: NetworkEval,
    /// The evaluator's test images, in order.
    pub images: Vec<Tensor>,
    pub ctx: EvalContext,
    pub sense_amp: SenseAmp,
    /// The DSE design step's model description (`dse_lenet` only).
    pub spec: Option<ModelSpec>,
    /// Correctness failures found during set-up.
    pub failures: Vec<String>,
}

impl Inputs {
    /// Base seed of the study's trials (trial `t` draws `seed + t`).
    pub fn trial_seed(&self) -> u64 {
        self.seed.wrapping_add(9)
    }
}

fn cluster(mats: &[LayerMatrix]) -> Vec<ClusteredLayer> {
    mats.iter()
        .map(|m| ClusteredLayer::from_matrix(m, 4, 5))
        .collect()
}

fn prune(net: &mut Network, sparsity: f64) -> Vec<LayerMatrix> {
    let mut mats = net.weight_matrices();
    for m in &mut mats {
        prune_to_sparsity(&mut m.data, sparsity);
    }
    net.set_weight_matrices(&mats);
    mats
}

/// Generates a workload's inputs: data, training, pruning, clustering,
/// network, evaluator and `EvalContext`.
pub fn setup(kind: Kind, seed: u64, dse_samples: usize, tr: &mut Tracer) -> Result<Inputs, String> {
    match kind {
        Kind::Fig5 | Kind::Dse => setup_lenet(kind, seed, dse_samples, tr),
        Kind::Chips => setup_vgg(seed, tr),
    }
}

/// The trained LeNet stand-in: Fig. 5's recipe at lr 0.004 (0.005
/// diverges since the FMA kernels), pruned to 60% with retraining.
fn setup_lenet(
    kind: Kind,
    seed: u64,
    dse_samples: usize,
    tr: &mut Tracer,
) -> Result<Inputs, String> {
    let (train, test) = tr.span("setup.data", |_| {
        (
            SyntheticDigits::generate(1500, MODEL_SEED).train,
            SyntheticDigits::generate(1500, seed).test,
        )
    });
    let mut net = lenet_mini(MODEL_SEED.wrapping_add(7));
    let passes = [(6, 0.004, 1u64), (2, 0.002, 2u64)];
    let mut mats = Vec::new();
    for (epochs, lr, s) in passes {
        let cfg = TrainConfig {
            epochs,
            lr,
            momentum: 0.9,
            seed: MODEL_SEED.wrapping_add(s),
        };
        tr.span("dnn.train", |_| sgd_train(&mut net, &train, &cfg))
            .map_err(|e| format!("training: {e}"))?;
        mats = tr.span("setup.prune", |_| prune(&mut net, 0.6));
    }
    let clustered = tr.span("setup.cluster", |_| cluster(&mats));
    let test = match kind {
        Kind::Dse => test.into_iter().take(dse_samples).collect(),
        _ => test,
    };
    let images = test.iter().map(|(x, _)| x.clone()).collect();
    let eval = tr.span("setup.evaluator", |_| NetworkEval::new(net.clone(), test));
    let mut failures = Vec::new();
    let baseline = eval.baseline_error();
    if baseline.is_nan() || baseline >= 0.05 {
        failures.push(format!(
            "stand-in baseline error {:.2}% is not below 5% (training diverged?)",
            baseline * 100.0
        ));
    }
    let spec = (kind == Kind::Dse).then(|| {
        spec_from_network(
            &net,
            "synthetic-digits",
            PaperModelInfo {
                reported_params: net.weight_count() as u64,
                classification_error: baseline,
                itn_bound: DSE_ITN_BOUND,
                cluster_index_bits: 4,
                sparsity: 0.6,
            },
        )
    });
    let sense_amp = SenseAmp::paper_default();
    let ctx = tr
        .span("setup.context", |_| {
            EvalContext::new(TECH, &sense_amp, RATE_SCALE)
        })
        .map_err(|e| format!("EvalContext: {e}"))?;
    net.set_weight_matrices(
        &clustered
            .iter()
            .map(ClusteredLayer::reconstruct)
            .collect::<Vec<_>>(),
    );
    Ok(Inputs {
        kind,
        seed,
        net,
        clustered,
        eval,
        images,
        ctx,
        sense_amp,
        spec,
        failures,
    })
}

/// A conv net with VGG12's layer sequence at channel width 8: ten 3×3
/// pad-1 convolutions, 2×2 pools after conv2, conv4, conv7 and conv10,
/// then fc1 and fc2, on 3×16×16 inputs.
pub fn vgg12_w8(seed: u64) -> Network {
    let widths = [8, 8, 16, 16, 32, 32, 32, 64, 64, 64];
    let mut layers = Vec::new();
    let mut in_ch = 3;
    for (i, &out) in widths.iter().enumerate() {
        let n = i + 1;
        layers.push(Layer::conv2d(&format!("conv{n}"), out, in_ch, 3, 1, 1));
        layers.push(Layer::ReLU);
        if matches!(n, 2 | 4 | 7 | 10) {
            layers.push(Layer::MaxPool2);
        }
        in_ch = out;
    }
    layers.push(Layer::Flatten);
    layers.push(Layer::linear("fc1", 128, in_ch));
    layers.push(Layer::ReLU);
    layers.push(Layer::linear("fc2", 10, 128));
    let mut net = Network::new("vgg12-w8", layers);
    he_init(&mut net, seed);
    net
}

/// The VGG12-topology net, pruned to VGG12's sparsity and clustered;
/// its test images are labelled with the clean clustered network's own
/// predictions, so every error it shows under faults is a fault effect.
fn setup_vgg(seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let images = tr.span("setup.data", |_| {
        synthetic_textures(CHIP_TEST_IMAGES, 10, seed)
            .into_iter()
            .map(|(x, _)| x)
            .collect::<Vec<_>>()
    });
    let mut net = vgg12_w8(MODEL_SEED.wrapping_add(3));
    let mats = tr.span("setup.prune", |_| prune(&mut net, VGG12_SPARSITY));
    let clustered = tr.span("setup.cluster", |_| cluster(&mats));
    net.set_weight_matrices(
        &clustered
            .iter()
            .map(ClusteredLayer::reconstruct)
            .collect::<Vec<_>>(),
    );
    let eval = tr.span("setup.evaluator", |_| {
        let labels = net.predict_batch(&images);
        NetworkEval::new(net.clone(), images.iter().cloned().zip(labels).collect())
    });
    let mut failures = Vec::new();
    if eval.baseline_error() != 0.0 {
        failures.push(format!(
            "self-labelled clean error is {} (expected 0)",
            eval.baseline_error()
        ));
    }
    let sense_amp = SenseAmp::paper_default();
    let ctx = tr
        .span("setup.context", |_| EvalContext::new(TECH, &sense_amp, 1.0))
        .map_err(|e| format!("EvalContext: {e}"))?;
    Ok(Inputs {
        kind: Kind::Chips,
        seed,
        net,
        clustered,
        eval,
        images,
        ctx,
        sense_amp,
        spec: None,
        failures,
    })
}

pub fn fig5_study(inp: &Inputs) -> VulnerabilityStudy {
    VulnerabilityStudy {
        campaign: Campaign {
            trials: FIG5_TRIALS,
            seed: inp.trial_seed(),
            rate_scale: RATE_SCALE,
        },
        tech: TECH,
        sense_amp: inp.sense_amp,
        sync_block_bits: FIG5_SYNC_BLOCK_BITS,
    }
}

pub fn dse_config(inp: &Inputs) -> DseConfig {
    DseConfig {
        campaign: Campaign {
            trials: DSE_TRIALS,
            seed: inp.trial_seed(),
            rate_scale: RATE_SCALE,
        },
        itn_bound: DSE_ITN_BOUND,
    }
}

pub fn chip_scheme() -> StorageScheme {
    StorageScheme::uniform(EncodingKind::BitMask, MlcConfig::MLC3).with_idx_sync()
}

/// The simulated outputs of one study.
pub enum Outputs {
    Fig5(Vec<VulnerabilityRow>),
    Dse {
        points: Vec<DsePoint>,
        winner: usize,
        design_cells: u64,
    },
    Chips(CampaignResult),
}

pub struct StudyOut {
    pub trials: usize,
    pub failed: usize,
    /// Engine entry-point calls the study made.
    pub calls: usize,
    pub digest: String,
    pub failures: Vec<String>,
    pub outputs: Outputs,
}

/// Runs one study through the public engine entry points, with spans
/// around each call (recorded only when the tracer is enabled).
pub fn run_study(inp: &Inputs, tr: &mut Tracer) -> Result<StudyOut, String> {
    let mut failures = Vec::new();
    let mut d = Digest::new();
    let out = match inp.kind {
        Kind::Fig5 => {
            let study = fig5_study(inp);
            let rows = tr
                .span("faultsim.run_fig5", |_| {
                    study.run_fig5(&inp.clustered, &inp.eval)
                })
                .map_err(|e| format!("run_fig5: {e}"))?;
            for r in &rows {
                d.str(&r.label()).str(r.encoding.name());
                for i in 0..3 {
                    d.f64(r.mean_error[i]).f64(r.max_error[i]);
                }
            }
            check_fig5(&rows, &mut failures);
            StudyOut {
                trials: rows.len() * 3 * FIG5_TRIALS,
                failed: 0,
                calls: rows.len() * 3,
                digest: String::new(),
                failures: Vec::new(),
                outputs: Outputs::Fig5(rows),
            }
        }
        Kind::Dse => {
            let cfg = dse_config(inp);
            let control = RunControl {
                early_stop: Some(EarlyStop::new(inp.eval.baseline_error(), cfg.itn_bound)),
                ..RunControl::default()
            };
            let points = tr
                .span("faultsim.run_dse_controlled", |_| {
                    inp.ctx
                        .run_dse_controlled(&inp.clustered, &inp.eval, &cfg, &control)
                })
                .map_err(|e| format!("run_dse_controlled: {e}"))?;
            for p in &points {
                d.str(&p.scheme.label())
                    .u64(p.cells)
                    .u64(p.trials_run as u64)
                    .f64(p.mean_error);
            }
            let best = minimal_cells(&points).ok_or("no DSE scheme passes")?;
            let winner = points
                .iter()
                .position(|p| std::ptr::eq(p, best))
                .unwrap_or(0);
            let spec = inp.spec.as_ref().ok_or("DSE without a model spec")?;
            let design = tr
                .span("core.design_from_scheme", |_| {
                    design_from_scheme(spec, TECH, best.scheme.clone(), best.cells, best.mean_error)
                })
                .map_err(|e| format!("design_from_scheme: {e}"))?;
            d.u64(winner as u64)
                .str(&design.scheme_label)
                .f64(design.array.area_mm2);
            if points.len() != 105 {
                failures.push(format!("{} DSE points (expected 105)", points.len()));
            }
            if !best.passes || design.cells != best.cells {
                failures.push("DSE winner does not pass or design step disagrees".into());
            }
            StudyOut {
                trials: points.iter().map(|p| p.trials_run).sum(),
                failed: 0,
                calls: 1,
                digest: String::new(),
                failures: Vec::new(),
                outputs: Outputs::Dse {
                    points,
                    winner,
                    design_cells: design.cells,
                },
            }
        }
        Kind::Chips => {
            let scheme = chip_scheme();
            let stored: Vec<StoredLayer> = tr.span("study.store", |_| {
                inp.clustered
                    .iter()
                    .map(|l| StoredLayer::store(l, &scheme))
                    .collect()
            });
            let result = tr
                .span("faultsim.run_chips", |_| {
                    inp.ctx
                        .run_chips(CHIP_TRIALS, inp.trial_seed(), &stored, &inp.eval)
                })
                .map_err(|e| format!("run_chips: {e}"))?;
            for e in &result.errors {
                d.f64(*e);
            }
            d.f64(result.mean_error).f64(result.mean_cell_faults);
            if result.completed_trials + result.failed_trials.len() != CHIP_TRIALS {
                failures.push(format!(
                    "{} of {CHIP_TRIALS} chip trials accounted for",
                    result.completed_trials + result.failed_trials.len()
                ));
            }
            StudyOut {
                trials: CHIP_TRIALS,
                failed: result.failed_trials.len(),
                calls: 1,
                digest: String::new(),
                failures: Vec::new(),
                outputs: Outputs::Chips(result),
            }
        }
    };
    Ok(StudyOut {
        digest: d.hex(),
        failures,
        ..out
    })
}

/// The paper's Fig. 5 shape (EXPERIMENTS.md): the unprotected bitmask at
/// MLC3 is worse than both the ECC- and the IdxSync-protected bitmask.
fn check_fig5(rows: &[VulnerabilityRow], failures: &mut Vec<String>) {
    if rows.len() != 8 {
        failures.push(format!("{} Fig. 5 rows (expected 8)", rows.len()));
        return;
    }
    let mlc3 = |sync: bool, ecc: bool| {
        rows.iter()
            .find(|r| r.structure == StructureKind::Mask && r.idx_sync == sync && r.ecc == ecc)
            .map(|r| r.mean_error[2])
    };
    match (mlc3(false, false), mlc3(false, true), mlc3(true, false)) {
        (Some(plain), Some(ecc), Some(sync)) if plain > ecc && plain > sync => {}
        other => failures.push(format!(
            "Fig. 5 ordering broken: bitmask/+ECC/+IdxSync MLC3 = {other:?}"
        )),
    }
}
