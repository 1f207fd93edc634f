//! The traced run's serial replay: a study's trials re-executed one by one
//! through the public stage functions (store, prepare, prefix build,
//! fault sampling / chip programming, delta extraction, evaluation), with a
//! span per stage, using the engine's seeds and keys. The replayed mean
//! errors must equal the engine's bit for bit, which proves the per-stage
//! numbers describe the same work. Also: per-DNN-layer forward timing.

use crate::probe::{median, Tracer};
use crate::workloads::{
    chip_scheme, Inputs, Outputs, StudyOut, FIG5_SYNC_BLOCK_BITS, FIG5_TRIALS, TECH,
};
use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_dnn::{Layer, Network, SparseMatrix, Tensor};
use maxnvm_encoding::storage::{
    DecodeStats, PreparedLayer, StorageScheme, StoredLayer, StructureBpc,
};
use maxnvm_encoding::StructureKind;
use maxnvm_envm::{CellModel, MlcConfig};
use maxnvm_faultsim::dse::candidate_schemes;
use maxnvm_faultsim::evaluate::{AccuracyEval, EvalScratch, SparseModel};
use maxnvm_nvdla::perf::{encoded_weight_bytes, evaluate};
use maxnvm_nvdla::{NvdlaConfig, WeightSource};
use maxnvm_nvsim::{characterize_min_width, ArrayRequest, OptTarget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Per weight layer: matrix rows and columns, and MACs of one sample's
/// forward pass through it.
struct Geometry {
    rows: Vec<usize>,
    cols: Vec<usize>,
    macs: Vec<f64>,
}

fn geometry(net: &Network, sample: &Tensor) -> Geometry {
    let mut g = Geometry {
        rows: Vec::new(),
        cols: Vec::new(),
        macs: Vec::new(),
    };
    let mut x = sample.clone();
    for layer in net.layers() {
        let y = layer.forward(&x);
        if let Some((w, _)) = layer.weight_bias() {
            g.rows.push(w.shape()[0]);
            g.cols.push(w.shape()[1]);
            g.macs.push((y.len() * w.shape()[1]) as f64);
        }
        x = y;
    }
    g
}

/// Deterministic counts accumulated over the replayed trials.
#[derive(Default)]
pub struct Counts {
    pub trials: usize,
    pub deltas: usize,
    pub stats: DecodeStats,
    /// Weight layers before the first delta, summed over trials (a trial
    /// without deltas skips every layer).
    pub skipped_layers: f64,
    pub layers: f64,
    /// MACs the prefix-cached evaluation recomputes (dirty rows of the
    /// first faulted layer plus the whole suffix) and a full forward's.
    pub recomputed_macs: f64,
    pub full_macs: f64,
    /// Cells of the configuration that sets the workload's density figure.
    pub cells: u64,
    pub mismatches: Vec<String>,
}

impl Counts {
    fn account(&mut self, deltas: &[Vec<WeightDelta>], stats: DecodeStats, g: &Geometry) {
        self.trials += 1;
        self.deltas += deltas.iter().map(Vec::len).sum::<usize>();
        self.stats.absorb(stats);
        let n = g.rows.len();
        self.layers += n as f64;
        self.full_macs += g.macs.iter().sum::<f64>();
        match deltas.iter().position(|d| !d.is_empty()) {
            None => self.skipped_layers += n as f64,
            Some(f) => {
                self.skipped_layers += f as f64;
                let mut rows: Vec<usize> = deltas[f]
                    .iter()
                    .map(|d| d.slot as usize / g.cols[f])
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                self.recomputed_macs += g.macs[f] * rows.len() as f64 / g.rows[f] as f64
                    + g.macs[f + 1..].iter().sum::<f64>();
            }
        }
    }

    fn check(&mut self, what: &str, replayed: &[f64], engine_mean: f64) {
        let mean = replayed.iter().sum::<f64>() / replayed.len().max(1) as f64;
        if mean.to_bits() != engine_mean.to_bits() {
            self.mismatches.push(format!(
                "{what}: replay mean {mean:?} != engine {engine_mean:?}"
            ));
        }
    }
}

fn store_all(
    layers: &[maxnvm_encoding::cluster::ClusteredLayer],
    scheme: &StorageScheme,
    tr: &mut Tracer,
) -> Vec<StoredLayer> {
    layers
        .iter()
        .map(|l| tr.span("encoding.store", |_| StoredLayer::store(l, scheme)))
        .collect()
}

fn prepare_all<'a>(stored: &'a [StoredLayer], tr: &mut Tracer) -> Vec<PreparedLayer<'a>> {
    stored
        .iter()
        .map(|s| tr.span("encoding.prepare", |_| PreparedLayer::prepare(s)))
        .collect()
}

/// Replays one campaign's first `trials` trials serially. `sample` turns
/// one prepared layer and the trial's RNG into its deltas (recording its
/// own stage spans); the engine draws layers in order from one RNG per
/// trial seeded `seed + t`.
#[allow(clippy::too_many_arguments)]
fn replay_campaign<'a>(
    inp: &Inputs,
    prepared: &[PreparedLayer<'a>],
    key: u64,
    seed: u64,
    trials: usize,
    scratch: &mut EvalScratch,
    g: &Geometry,
    counts: &mut Counts,
    tr: &mut Tracer,
    mut sample: impl FnMut(
        &PreparedLayer<'a>,
        &mut StdRng,
        &mut Tracer,
    ) -> (Vec<WeightDelta>, DecodeStats),
) -> Vec<f64> {
    let clean: Vec<LayerMatrix> = prepared.iter().map(|p| p.clean().matrix.clone()).collect();
    let sparse: Vec<Arc<SparseMatrix>> = prepared
        .iter()
        .map(|p| Arc::new(p.clean().sparse.clone()))
        .collect();
    let model = SparseModel {
        dense: &clean,
        sparse: &sparse,
    };
    tr.span("dnn.prefix_build", |_| {
        inp.eval.eval_deltas_sparse(key, &model, &[], scratch)
    });
    (0..trials)
        .map(|t| {
            tr.span("replay.trial", |tr| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                let mut stats = DecodeStats::default();
                let deltas: Vec<Vec<WeightDelta>> = prepared
                    .iter()
                    .map(|p| {
                        let (d, s) = sample(p, &mut rng, tr);
                        stats.absorb(s);
                        d
                    })
                    .collect();
                counts.account(&deltas, stats, g);
                tr.span("dnn.eval", |_| {
                    inp.eval.eval_deltas_sparse(key, &model, &deltas, scratch)
                })
            })
        })
        .collect()
}

/// Replays `out` (a study already run by the engine on `inp`) serially.
pub fn replay(inp: &Inputs, out: &StudyOut, tr: &mut Tracer) -> Counts {
    let g = geometry(&inp.net, &inp.images[0]);
    let mut counts = Counts::default();
    let fault_for = inp.ctx.fault_for();
    let seed = inp.trial_seed();
    match &out.outputs {
        Outputs::Fig5(rows) => {
            for row in rows {
                for (i, bpc) in MlcConfig::ALL.iter().enumerate() {
                    // The configuration `VulnerabilityStudy::run_row` stores.
                    let mut b = StructureBpc::uniform(MlcConfig::SLC);
                    match row.structure {
                        StructureKind::Values => b.values = *bpc,
                        StructureKind::ColIndex => b.col_index = *bpc,
                        StructureKind::RowCounter => b.row_counter = *bpc,
                        StructureKind::Mask => b.mask = *bpc,
                        StructureKind::SyncCounter => b.sync_counter = *bpc,
                        StructureKind::Centroids => {}
                    }
                    let mut scheme =
                        StorageScheme::uniform(row.encoding, MlcConfig::SLC).with_bpc(b);
                    if row.idx_sync {
                        scheme = scheme
                            .with_idx_sync()
                            .with_sync_block_bits(FIG5_SYNC_BLOCK_BITS);
                    }
                    if row.ecc {
                        scheme = scheme.with_ecc();
                    }
                    let stored = store_all(&inp.clustered, &scheme, tr);
                    if row.structure == StructureKind::Mask
                        && row.idx_sync
                        && *bpc == MlcConfig::MLC3
                    {
                        counts.cells = stored.iter().map(StoredLayer::total_cells).sum();
                    }
                    let prepared = prepare_all(&stored, tr);
                    // Each isolated campaign checks out fresh scratch state.
                    let mut scratch = EvalScratch::default();
                    let errors = replay_campaign(
                        inp,
                        &prepared,
                        0,
                        seed,
                        FIG5_TRIALS,
                        &mut scratch,
                        &g,
                        &mut counts,
                        tr,
                        |p, rng, tr| {
                            tr.span("encoding.deltas", |_| {
                                p.deltas_with_isolated_faults(row.structure, &fault_for, rng)
                            })
                        },
                    );
                    counts.check(
                        &format!("{} {}", row.label(), bpc.bits()),
                        &errors,
                        row.mean_error[i],
                    );
                }
            }
        }
        Outputs::Dse {
            points,
            winner,
            design_cells,
        } => {
            let schemes = candidate_schemes(TECH);
            // One scratch across the sweep, keyed by scheme index, as the
            // engine's pooled scratches are.
            let mut scratch = EvalScratch::default();
            for (s, (p, scheme)) in points.iter().zip(&schemes).enumerate() {
                if p.scheme.label() != scheme.label() {
                    counts.mismatches.push(format!(
                        "scheme {s}: {} != {}",
                        p.scheme.label(),
                        scheme.label()
                    ));
                    continue;
                }
                let stored = store_all(&inp.clustered, scheme, tr);
                let prepared = prepare_all(&stored, tr);
                let errors = replay_campaign(
                    inp,
                    &prepared,
                    s as u64,
                    seed,
                    p.trials_run,
                    &mut scratch,
                    &g,
                    &mut counts,
                    tr,
                    |p, rng, tr| {
                        tr.span("encoding.deltas", |_| p.deltas_with_faults(&fault_for, rng))
                    },
                );
                counts.check(&scheme.label(), &errors, p.mean_error);
            }
            counts.cells = *design_cells;
            // The design step's two layers, called as `design_from_scheme`
            // calls them.
            if let (Some(best), Some(spec)) = (points.get(*winner), inp.spec.as_ref()) {
                let bpc = best.scheme.max_bpc().bits();
                let array = tr.span("nvsim.characterize", |_| {
                    characterize_min_width(
                        &ArrayRequest::new(TECH, best.cells, bpc),
                        OptTarget::ReadEdp,
                        96,
                    )
                });
                match array {
                    Ok(array) => {
                        let bytes =
                            encoded_weight_bytes(spec, best.scheme.encoding, best.scheme.idx_sync);
                        let source = WeightSource::Envm(array);
                        for cfg in [NvdlaConfig::nvdla_64(), NvdlaConfig::nvdla_1024()] {
                            tr.span("nvdla.evaluate", |_| evaluate(spec, &cfg, &source, &bytes));
                        }
                    }
                    Err(e) => counts
                        .mismatches
                        .push(format!("characterize_min_width: {e}")),
                }
            }
        }
        Outputs::Chips(result) => {
            let sa = &inp.sense_amp;
            // The engine's per-bits-per-cell cell models at physical rates.
            let cells: Vec<CellModel> = MlcConfig::ALL
                .iter()
                .map(|&cfg| {
                    let cfg = if cfg.bits() <= TECH.max_bits_per_cell() {
                        cfg
                    } else {
                        MlcConfig::SLC
                    };
                    TECH.cell_model(cfg).with_sense_amp(sa)
                })
                .collect();
            let cell_for = |cfg: MlcConfig| cells[(cfg.bits() - 1) as usize].clone();
            let stored = store_all(&inp.clustered, &chip_scheme(), tr);
            counts.cells = stored.iter().map(StoredLayer::total_cells).sum();
            let prepared = prepare_all(&stored, tr);
            let mut scratch = EvalScratch::default();
            let errors = replay_campaign(
                inp,
                &prepared,
                0,
                seed,
                result.requested_trials,
                &mut scratch,
                &g,
                &mut counts,
                tr,
                |p, rng, tr| {
                    let flips = tr.span("envm.chip_program", |_| {
                        p.stored().sample_chip_flips(&cell_for, rng)
                    });
                    tr.span("encoding.deltas", |_| p.deltas_flips(&flips))
                },
            );
            if result.failed_trials.is_empty() && errors != result.errors {
                counts
                    .mismatches
                    .push("chip trial errors differ from the engine's".into());
            }
            counts.check("chips", &errors, result.mean_error);
        }
    }
    counts
}

/// One weight layer's forward timing on its clean input batch.
pub struct LayerProfile {
    pub name: String,
    pub forward_ms: f64,
    pub gflops: f64,
    pub density: f64,
}

/// Times `Layer::forward_batch` of every weight layer on the clean
/// activations that reach it from `images` (median of `repeats`).
pub fn profile_layers(
    net: &Network,
    images: &[Tensor],
    repeats: usize,
    tr: &mut Tracer,
) -> Vec<LayerProfile> {
    let mut xs = images.to_vec();
    let mut out = Vec::new();
    for layer in net.layers() {
        let name = match layer {
            Layer::Conv2d { name, .. } | Layer::Linear { name, .. } => name.clone(),
            _ => {
                xs = layer.forward_batch(&xs);
                continue;
            }
        };
        let span = format!("dnn.layer.{name}.forward");
        let mut times = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..repeats.max(1) {
            let before = tr.spans().len();
            ys = tr.span(&span, |_| layer.forward_batch(&xs));
            times.push(tr.spans()[before].ms());
        }
        let (w, _) = layer.weight_bias().expect("weight layer");
        let macs = (ys.first().map_or(0, Tensor::len) * w.shape()[1] * xs.len()) as f64;
        let forward_ms = median(&times);
        out.push(LayerProfile {
            name,
            forward_ms,
            gflops: 2.0 * macs / (forward_ms * 1e6),
            density: w.data().iter().filter(|v| **v != 0.0).count() as f64 / w.len() as f64,
        });
        xs = ys;
    }
    out
}
