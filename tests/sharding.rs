//! Deterministic sharded sweeps, end to end: disjoint shard
//! partitioning, per-shard checkpoints, and the merge operation —
//! which must reproduce the unsharded single-process run byte for byte
//! (same trial outcomes, same early-stopping decisions, same
//! `failed_trials` replay seeds), including after a shard worker is
//! SIGKILLed mid-run and resumed.

use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::evaluate::{EvalScratch, SparseModel};
use maxnvm_faultsim::{
    AccuracyEval, Campaign, CampaignResult, CheckpointConfig, CheckpointStore, DseConfig,
    EarlyStop, EngineError, EvalContext, FsStore, ProxyEval, RunControl, ShardSpec,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TECH: CellTechnology = CellTechnology::MlcCtt;
const RATE_SCALE: f64 = 120.0;

/// The deterministic stand-in campaign shared with the resilience
/// suite: one sparse VGG12-scale layer, proxy evaluation, exaggerated
/// rates. Identical in every process — the multi-process tests rely on
/// each process reconstructing the same fixture.
fn fixture() -> (StoredLayer, ProxyEval) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 160);
    let c = ClusteredLayer::from_matrix(&m, 4, 5);
    let stored = StoredLayer::store(
        &c,
        &StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3),
    );
    let eval = ProxyEval::new(vec![c.reconstruct()], 0.1, 0.9);
    (stored, eval)
}

fn campaign() -> Campaign {
    Campaign {
        trials: 24,
        seed: 7,
        rate_scale: RATE_SCALE,
    }
}

fn sa() -> SenseAmp {
    SenseAmp::paper_default()
}

/// Runs campaign `c` over `stored` under `control` on the default
/// thread count.
fn run(
    c: &Campaign,
    stored: &StoredLayer,
    eval: &(dyn AccuracyEval + Sync),
    control: &RunControl,
) -> Result<CampaignResult, EngineError> {
    EvalContext::new(TECH, &sa(), c.rate_scale)?.run_campaign(
        c.trials,
        c.seed,
        std::slice::from_ref(stored),
        eval,
        control,
    )
}

/// Merges shard checkpoints: an unsharded run of `c` under `base`,
/// preseeded with every snapshot in `sources`.
fn merge_shards(
    c: &Campaign,
    sources: &[PathBuf],
    stored: &StoredLayer,
    eval: &ProxyEval,
    base: &RunControl,
) -> Result<CampaignResult, EngineError> {
    let control = RunControl {
        merge_sources: sources.to_vec(),
        ..base.clone()
    };
    run(c, stored, eval, &control)
}

/// A unique directory per test; avoids collisions when the suite runs
/// multi-threaded.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maxnvm-sharding-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs every shard of an N-way layout sequentially in this process
/// (shard workers are plain `run_campaign` calls — process isolation
/// is exercised separately below) and returns the checkpoint paths.
fn run_shards(
    c: &Campaign,
    stored: &StoredLayer,
    eval: &ProxyEval,
    count: usize,
    dir: &Path,
    base: &RunControl,
) -> Vec<PathBuf> {
    (0..count)
        .map(|index| {
            let ckpt = dir.join(format!("shard-{index}-of-{count}.ckpt"));
            let control = RunControl {
                shard: ShardSpec::of(index, count),
                checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
                ..base.clone()
            };
            run(c, stored, eval, &control).expect("shard run");
            ckpt
        })
        .collect()
}

#[test]
fn invalid_shard_layouts_are_rejected_with_a_typed_error() {
    let (stored, eval) = fixture();
    for (index, count) in [(0, 0), (2, 2), (5, 3)] {
        let control = RunControl {
            shard: ShardSpec::of(index, count),
            ..RunControl::default()
        };
        let err = run(&campaign(), &stored, &eval, &control)
            .expect_err("degenerate layout must be rejected");
        assert_eq!(err, EngineError::InvalidShardConfig { index, count });
    }
}

#[test]
fn merge_of_n_shards_is_byte_identical_fixed_budget() {
    let (stored, eval) = fixture();
    let c = campaign();
    let baseline = run(&c, &stored, &eval, &RunControl::default()).expect("unsharded run");
    for count in [2usize, 3, 8] {
        let dir = temp_dir(&format!("fixed-{count}"));
        let sources = run_shards(&c, &stored, &eval, count, &dir, &RunControl::default());
        let merged =
            merge_shards(&c, &sources, &stored, &eval, &RunControl::default()).expect("merge");
        assert_eq!(merged, baseline, "{count}-shard merge must be identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn merge_replays_early_stopping_decisions() {
    let (stored, eval) = fixture();
    let c = Campaign {
        trials: 40,
        ..campaign()
    };
    // A loose bound the scheme decisively passes: the Wilson interval
    // decides well before the full 40-trial budget.
    let base = RunControl {
        early_stop: Some(EarlyStop::new(eval.baseline_error(), 0.5)),
        ..RunControl::default()
    };
    let baseline = run(&c, &stored, &eval, &base).expect("unsharded run");
    assert!(
        baseline.stopped_early && baseline.completed_trials < c.trials,
        "fixture must actually stop early (ran {} of {})",
        baseline.completed_trials,
        c.trials
    );
    for count in [2usize, 3] {
        let dir = temp_dir(&format!("earlystop-{count}"));
        // Shard workers see the same early-stop rule (it is part of the
        // configuration fingerprint) but never stop early themselves —
        // a shard holds only a subset of each group's trials.
        let sources = run_shards(&c, &stored, &eval, count, &dir, &base);
        let merged = merge_shards(&c, &sources, &stored, &eval, &base).expect("merge");
        assert_eq!(
            merged, baseline,
            "{count}-shard merge must replay the early-stopping decision"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn merge_preserves_failed_trials_and_replay_seeds() {
    let (stored, eval) = fixture();
    let c = campaign();
    let base = RunControl {
        panic_trials: vec![2, 9],
        ..RunControl::default()
    };
    let baseline = run(&c, &stored, &eval, &base).expect("unsharded run");
    assert_eq!(baseline.failed_trials.len(), 2, "both hooks must fire");
    let dir = temp_dir("failed");
    let sources = run_shards(&c, &stored, &eval, 3, &dir, &base);
    let merged = merge_shards(&c, &sources, &stored, &eval, &base).expect("merge");
    assert_eq!(merged, baseline);
    assert_eq!(
        merged
            .failed_trials
            .iter()
            .map(|f| (f.trial, f.seed))
            .collect::<Vec<_>>(),
        baseline
            .failed_trials
            .iter()
            .map(|f| (f.trial, f.seed))
            .collect::<Vec<_>>(),
        "replay seeds survive the round trip through shard checkpoints"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dse_merge_matches_the_unsharded_sweep() {
    // SLC RRAM has a compact 7-scheme candidate space — a full DSE
    // merge test at integration-suite cost.
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 160);
    let layer = ClusteredLayer::from_matrix(&m, 4, 5);
    let eval = ProxyEval::new(vec![layer.reconstruct()], 0.1, 0.9);
    let cfg = DseConfig {
        campaign: Campaign {
            trials: 8,
            seed: 13,
            rate_scale: RATE_SCALE,
        },
        itn_bound: 0.02,
    };
    let ctx = EvalContext::new(CellTechnology::SlcRram, &sa(), RATE_SCALE).expect("context");
    let layers = vec![layer];
    let baseline = ctx
        .run_dse_controlled(&layers, &eval, &cfg, &RunControl::default())
        .expect("unsharded sweep");
    let dir = temp_dir("dse");
    let count = 2usize;
    let sources: Vec<PathBuf> = (0..count)
        .map(|index| {
            let ckpt = dir.join(format!("shard-{index}-of-{count}.ckpt"));
            let control = RunControl {
                shard: ShardSpec::of(index, count),
                checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
                ..RunControl::default()
            };
            ctx.run_dse_controlled(&layers, &eval, &cfg, &control)
                .expect("shard sweep");
            ckpt
        })
        .collect();
    let merged = ctx
        .run_dse_controlled(
            &layers,
            &eval,
            &cfg,
            &RunControl {
                merge_sources: sources,
                ..RunControl::default()
            },
        )
        .expect("merge");
    assert_eq!(merged, baseline, "DSE merge must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_shard_layouts_refuse_to_resume() {
    let (stored, eval) = fixture();
    let c = campaign();
    let dir = temp_dir("mismatch");
    let ckpt = dir.join("shard-0-of-2.ckpt");
    let control = RunControl {
        shard: ShardSpec::of(0, 2),
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
        ..RunControl::default()
    };
    run(&c, &stored, &eval, &control).expect("shard 0 run");
    // Resuming the same snapshot under a different layout — or
    // unsharded — must fail typed, not silently run the wrong slice.
    for wrong in [ShardSpec::of(1, 2), ShardSpec::unsharded()] {
        let control = RunControl {
            shard: wrong,
            checkpoint: Some(CheckpointConfig::new(&ckpt).keep_on_success()),
            ..RunControl::default()
        };
        let err = run(&c, &stored, &eval, &control).expect_err("layout mismatch must be rejected");
        assert!(
            matches!(err, EngineError::CheckpointMismatch { .. }),
            "got {err:?}"
        );
    }
    // Merging it under the snapshot's own recorded layout is fine.
    let half = merge_shards(&c, &[ckpt], &stored, &eval, &RunControl::default())
        .expect("merge of one shard completes the rest");
    let baseline = run(&c, &stored, &eval, &RunControl::default()).expect("unsharded run");
    assert_eq!(half, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_or_missing_merge_source_is_a_typed_error_naming_that_file() {
    let (stored, eval) = fixture();
    let c = campaign();
    let dir = temp_dir("corrupt-source");
    let sources = run_shards(&c, &stored, &eval, 2, &dir, &RunControl::default());
    // The first source is intact; only the second is garbage.
    std::fs::write(&sources[1], "\u{0}\u{1}not a checkpoint").expect("overwrite shard 1");
    let err = merge_shards(&c, &sources, &stored, &eval, &RunControl::default())
        .expect_err("a garbage source must be rejected");
    match &err {
        EngineError::CheckpointParse { path, .. } => {
            assert_eq!(*path, sources[1].display().to_string())
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert!(err.to_string().contains("shard-1-of-2.ckpt"), "{err}");
    // A source that does not exist fails to load: an I/O error naming
    // it, never a result merged from the sources that do.
    let missing = dir.join("shard-1-never-written.ckpt");
    let sources = [sources[0].clone(), missing.clone()];
    let err = merge_shards(&c, &sources, &stored, &eval, &RunControl::default())
        .expect_err("a missing source must be rejected");
    match &err {
        EngineError::CheckpointIo { path, .. } => {
            assert_eq!(*path, missing.display().to_string())
        }
        other => panic!("expected an I/O error, got {other:?}"),
    }
    assert!(
        err.to_string().contains("shard-1-never-written.ckpt"),
        "{err}"
    );
    // With a checkpoint configured, sources load through its store and
    // retry policy; a missing one still fails on its first read.
    let store = Arc::new(CountingStore::default());
    let checkpointed = RunControl {
        checkpoint: Some(CheckpointConfig::new(dir.join("merge.ckpt")).with_store(store.clone())),
        ..RunControl::default()
    };
    let err = merge_shards(&c, &sources, &stored, &eval, &checkpointed)
        .expect_err("a missing source must be rejected");
    match &err {
        EngineError::CheckpointIo { path, .. } => {
            assert_eq!(*path, missing.display().to_string())
        }
        other => panic!("expected an I/O error, got {other:?}"),
    }
    let reads = store.reads.lock().unwrap().clone();
    assert_eq!(reads.iter().filter(|p| **p == missing).count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The filesystem store, recording the path of every read.
#[derive(Debug, Default)]
struct CountingStore {
    reads: Mutex<Vec<PathBuf>>,
}

impl CheckpointStore for CountingStore {
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), EngineError> {
        FsStore.write_atomic(path, text)
    }

    fn read(&self, path: &Path) -> Result<String, EngineError> {
        self.reads.lock().unwrap().push(path.to_path_buf());
        FsStore.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        FsStore.exists(path)
    }

    fn remove(&self, path: &Path) -> Result<(), EngineError> {
        FsStore.remove(path)
    }
}

// ---------------------------------------------------------------------
// Multi-process: a real shard worker SIGKILLed mid-run, resumed, and
// merged — the sharded pipeline's answer to the resilience suite's
// kill-and-resume test.
// ---------------------------------------------------------------------

const CHILD_ENV: &str = "MAXNVM_SHARDING_CHILD_CHECKPOINT";

/// Slows every trial evaluation so the parent can SIGKILL the worker
/// mid-campaign; values are unchanged.
struct SlowEval<'a> {
    inner: &'a ProxyEval,
    delay: Duration,
}

impl AccuracyEval for SlowEval<'_> {
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

/// Child half: runs shard 0 of 2 slowly enough to be killed mid-run.
/// Ignored unless re-executed by the parent test with the checkpoint
/// path in the environment.
#[test]
#[ignore = "child process entry point for the sharded kill-and-resume test"]
fn child_shard_worker() {
    let Ok(ckpt) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (stored, eval) = fixture();
    let slow = SlowEval {
        inner: &eval,
        delay: Duration::from_millis(25),
    };
    let control = RunControl {
        shard: ShardSpec::of(0, 2),
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
        ..RunControl::default()
    };
    run(&campaign(), &stored, &slow, &control).expect("child shard run");
}

#[test]
fn sigkilled_shard_worker_resumes_and_merge_stays_byte_identical() {
    let (stored, eval) = fixture();
    let c = campaign();
    let baseline = run(&c, &stored, &eval, &RunControl::default()).expect("unsharded run");
    let dir = temp_dir("sigkill");
    let ckpt0 = dir.join("shard-0-of-2.ckpt");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["child_shard_worker", "--exact", "--ignored", "--nocapture"])
        .env(CHILD_ENV, &ckpt0)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn shard worker");
    // Wait until the worker has durably completed at least one trial,
    // then kill it without warning (SIGKILL on unix).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !ckpt0.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never wrote a checkpoint"
        );
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("worker exited before writing a checkpoint: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill worker");
    let _ = child.wait();
    // Resume shard 0 in this process (same layout, full speed): the
    // snapshot's shard line and folded fingerprint admit exactly this.
    let control = RunControl {
        shard: ShardSpec::of(0, 2),
        checkpoint: Some(CheckpointConfig::new(&ckpt0).every(1).keep_on_success()),
        ..RunControl::default()
    };
    run(&c, &stored, &eval, &control).expect("resume shard 0 after SIGKILL");
    // Run the other shard, then merge.
    let ckpt1 = dir.join("shard-1-of-2.ckpt");
    let control = RunControl {
        shard: ShardSpec::of(1, 2),
        checkpoint: Some(CheckpointConfig::new(&ckpt1).every(1).keep_on_success()),
        ..RunControl::default()
    };
    run(&c, &stored, &eval, &control).expect("shard 1 run");
    let merged =
        merge_shards(&c, &[ckpt0, ckpt1], &stored, &eval, &RunControl::default()).expect("merge");
    assert_eq!(merged, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
