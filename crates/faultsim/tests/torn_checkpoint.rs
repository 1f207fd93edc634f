//! Torn-checkpoint robustness: a snapshot truncated at *every* byte
//! boundary (simulating a tear that beat the atomic rename — a crashed
//! foreign writer, a corrupted disk) must either parse back whole or
//! fail with a typed `CheckpointParse`/`CheckpointIo` — never a panic,
//! and never a silently-wrong trial count surviving into a resumed
//! result.

use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::{
    Campaign, CampaignCheckpoint, CampaignResult, CheckpointConfig, EngineError, EvalContext,
    ProxyEval, RunControl,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const TECH: CellTechnology = CellTechnology::MlcCtt;

fn fixture() -> (StoredLayer, ProxyEval) {
    let spec = zoo::vgg12();
    let m = spec.layers[4].sample_matrix(spec.paper.sparsity, 17, 48, 96);
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
        trials: 10,
        seed: 31,
        rate_scale: 120.0,
    }
}

/// Runs the fixture campaign under `control` on the default thread count.
fn run(control: &RunControl) -> Result<CampaignResult, EngineError> {
    let (stored, eval) = fixture();
    let c = campaign();
    EvalContext::new(TECH, &SenseAmp::paper_default(), c.rate_scale)?.run_campaign(
        c.trials,
        c.seed,
        std::slice::from_ref(&stored),
        &eval,
        control,
    )
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("maxnvm-torn-checkpoint-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}

/// A complete, verified snapshot of the fixture campaign, as text.
///
/// Built once per process: the tests run in parallel, and each building
/// its own snapshot at the shared `source-<pid>` path let one test's
/// cleanup delete another's file mid-read.
fn complete_snapshot_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let ckpt = temp_path("source");
        let _ = std::fs::remove_file(&ckpt);
        let control = RunControl {
            checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
            ..RunControl::default()
        };
        run(&control).expect("checkpointed run");
        let text = std::fs::read_to_string(&ckpt).expect("read snapshot");
        let _ = std::fs::remove_file(&ckpt);
        text
    })
}

#[test]
fn every_byte_boundary_truncation_parses_typed_or_whole() {
    let text = complete_snapshot_text();
    assert!(text.is_ascii(), "byte boundaries must be char boundaries");
    assert!(text.len() > 100, "fixture snapshot suspiciously small");
    let path = Path::new("snapshot.ckpt");
    let full = CampaignCheckpoint::from_text(text, path).expect("the whole snapshot parses");
    let recorded = full.entries.len();
    assert_eq!(recorded, campaign().trials, "fixture records every trial");
    for cut in 0..=text.len() {
        match CampaignCheckpoint::from_text(&text[..cut], path) {
            // A prefix that parses must carry an internally consistent
            // trial set — the `end <count>` trailer guards exactly this.
            Ok(snapshot) => assert_eq!(
                snapshot.entries.len(),
                recorded,
                "cut at byte {cut} of {} parsed with a wrong trial count",
                text.len()
            ),
            Err(EngineError::CheckpointParse { .. }) => {}
            Err(other) => panic!("cut at byte {cut}: unexpected error {other}"),
        }
    }
}

#[test]
fn resuming_any_truncation_is_typed_or_byte_identical() {
    // Through the engine's actual resume path: every truncation either
    // resumes to the uninterrupted bytes (only a whole file can) or is
    // a typed checkpoint error — sampled at every 37th boundary plus
    // both ends to keep the end-to-end arm fast.
    let truth = run(&RunControl::default()).expect("uninterrupted run");
    let text = complete_snapshot_text();
    let ckpt = temp_path("resume");
    let cuts = (0..=text.len())
        .step_by(37)
        .chain([text.len() - 1, text.len()]);
    for cut in cuts {
        std::fs::write(&ckpt, &text.as_bytes()[..cut]).expect("write truncated");
        let outcome = run(&RunControl {
            checkpoint: Some(CheckpointConfig::new(&ckpt)),
            ..RunControl::default()
        });
        match outcome {
            Ok(resumed) => assert_eq!(resumed, truth, "cut at byte {cut}"),
            Err(EngineError::CheckpointParse { .. }) | Err(EngineError::CheckpointIo { .. }) => {}
            Err(other) => panic!("cut at byte {cut}: unexpected error {other}"),
        }
    }
    let _ = std::fs::remove_file(&ckpt);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary tears — a truncation, optionally followed by trailing
    /// garbage bytes (a torn write over a longer stale file) — never
    /// panic the parser and never produce a wrong trial count.
    #[test]
    fn random_tears_and_garbage_tails_stay_typed(
        cut_frac in 0.0f64..1.0,
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let text = complete_snapshot_text();
        let cut = ((text.len() as f64) * cut_frac) as usize;
        let mut bytes = text.as_bytes()[..cut.min(text.len())].to_vec();
        bytes.extend_from_slice(&garbage);
        let torn = String::from_utf8_lossy(&bytes).into_owned();
        match CampaignCheckpoint::from_text(&torn, Path::new("torn.ckpt")) {
            Ok(snapshot) => prop_assert_eq!(snapshot.entries.len(), campaign().trials),
            Err(EngineError::CheckpointParse { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {}", other),
        }
    }
}
