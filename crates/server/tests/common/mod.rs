//! Shared fixture for the supervisor integration tests: one small
//! sparse layer with exaggerated fault rates (so faults land in every
//! trial), proxy evaluation, and per-stream campaigns distinguished by
//! seed so byte-identity checks are meaningful stream by stream.
#![allow(dead_code)]

use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::evaluate::{AccuracyEval, EvalScratch, SparseModel};
use maxnvm_faultsim::{Campaign, CampaignResult, ProxyEval};
use maxnvm_server::CampaignJob;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub const TECH: CellTechnology = CellTechnology::MlcCtt;
pub const RATE_SCALE: f64 = 120.0;

/// The shared single-layer model: deterministic in every process (all
/// stages seeded), which the cross-process kill-and-resume test relies
/// on.
pub fn fixture() -> (Vec<StoredLayer>, Arc<ProxyEval>) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 96);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let stored = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
    );
    let eval = Arc::new(ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9));
    (vec![stored], eval)
}

/// The per-stream campaign: small enough that dozens run in seconds on
/// one core, seeded per stream.
pub fn campaign(seed: u64) -> Campaign {
    Campaign {
        trials: 12,
        seed,
        rate_scale: RATE_SCALE,
    }
}

/// A ready-to-submit job around the shared fixture.
pub fn job(seed: u64) -> CampaignJob {
    let (stored, eval) = fixture();
    CampaignJob {
        campaign: campaign(seed),
        stored,
        tech: TECH,
        sa: SenseAmp::paper_default(),
        eval,
    }
}

/// The uninterrupted ground truth for `seed`: a plain engine run with
/// the same evaluator — what every supervised/resumed/fault-injected
/// stream must reproduce byte for byte (contract D1).
pub fn direct(seed: u64) -> CampaignResult {
    let (stored, eval) = fixture();
    campaign(seed)
        .run(&stored, TECH, &SenseAmp::paper_default(), &*eval)
        .expect("direct run")
}

/// A unique fresh spool directory under the system temp dir.
pub fn temp_spool(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("maxnvm-server-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("spool dir");
    dir
}

/// Wraps the proxy evaluator with a fixed per-trial sleep without
/// changing any value — keeps streams running long enough to cancel,
/// quarantine, or SIGKILL mid-flight. Values stay byte-identical to the
/// plain evaluator's.
#[derive(Debug)]
pub struct SlowEval {
    inner: Arc<ProxyEval>,
    delay: Duration,
}

impl SlowEval {
    pub fn new(inner: Arc<ProxyEval>, delay: Duration) -> Self {
        Self { inner, delay }
    }
}

impl AccuracyEval for SlowEval {
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
        std::thread::sleep(self.delay);
        self.inner.eval_deltas_sparse(key, clean, deltas, scratch)
    }
}

/// The same job with the evaluator slowed down by `delay` per
/// evaluation.
pub fn slow_job(seed: u64, delay: Duration) -> CampaignJob {
    let (stored, eval) = fixture();
    CampaignJob {
        campaign: campaign(seed),
        stored,
        tech: TECH,
        sa: SenseAmp::paper_default(),
        eval: Arc::new(SlowEval::new(eval, delay)),
    }
}
