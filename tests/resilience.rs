//! The faultsim resilience layer, end to end: checkpoint/resume
//! (including a real SIGKILL mid-campaign), cooperative cancellation,
//! per-trial panic isolation, and adaptive early stopping — all while
//! preserving the engine's byte-identical determinism at any worker
//! count.

use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_dnn::zoo;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
use maxnvm_encoding::EncodingKind;
use maxnvm_envm::{CellTechnology, MlcConfig, SenseAmp};
use maxnvm_faultsim::evaluate::{AccuracyEval, EvalScratch, SparseModel};
use maxnvm_faultsim::{
    Campaign, CancelToken, CheckpointConfig, EarlyStop, EngineError, EvalContext, ProxyEval,
    RunControl,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const TECH: CellTechnology = CellTechnology::MlcCtt;
const RATE_SCALE: f64 = 120.0;

/// A deterministic stand-in campaign: one sparse layer, exaggerated
/// rates so faults land, proxy evaluation. Identical in every process
/// (all stages seeded), which the cross-process resume test relies on.
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

/// A unique path under the target-relative temp dir; avoids collisions
/// when the suite runs multi-threaded.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("maxnvm-resilience-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}

/// Wraps an evaluator with side effects per trial evaluation — a sleep
/// (to keep a child process killable mid-campaign) and/or firing a
/// cancel token after a fixed number of evals — without changing any
/// value.
struct InstrumentedEval<'a> {
    inner: &'a ProxyEval,
    delay: Duration,
    cancel_after: Option<(usize, CancelToken)>,
    evals: AtomicUsize,
}

impl<'a> InstrumentedEval<'a> {
    fn slow(inner: &'a ProxyEval, delay: Duration) -> Self {
        Self {
            inner,
            delay,
            cancel_after: None,
            evals: AtomicUsize::new(0),
        }
    }

    fn cancelling(inner: &'a ProxyEval, after: usize, token: CancelToken) -> Self {
        Self {
            inner,
            delay: Duration::ZERO,
            cancel_after: Some((after, token)),
            evals: AtomicUsize::new(0),
        }
    }

    fn tick(&self) {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let n = self.evals.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some((after, token)) = &self.cancel_after {
            if n >= *after {
                token.cancel();
            }
        }
    }
}

impl AccuracyEval for InstrumentedEval<'_> {
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
        self.tick();
        self.inner.eval_deltas_sparse(key, clean, deltas, scratch)
    }
}

#[test]
fn default_control_matches_plain_run() {
    let (stored, eval) = fixture();
    let plain = campaign()
        .run(std::slice::from_ref(&stored), TECH, &sa(), &eval)
        .expect("plain");
    let controlled = campaign()
        .run_controlled(
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect("controlled");
    assert_eq!(plain, controlled);
    assert!(!controlled.cancelled);
    assert!(!controlled.stopped_early);
    assert_eq!(controlled.completed_trials, controlled.requested_trials);
}

#[test]
fn panicking_trial_is_isolated_and_reported() {
    let (stored, eval) = fixture();
    let plain = campaign()
        .run(std::slice::from_ref(&stored), TECH, &sa(), &eval)
        .expect("plain");
    let control = RunControl {
        panic_trials: vec![2],
        ..RunControl::default()
    };
    let result = campaign()
        .run_controlled(std::slice::from_ref(&stored), TECH, &sa(), &eval, &control)
        .expect("campaign must survive a panicking trial");
    assert_eq!(result.requested_trials, campaign().trials);
    assert_eq!(result.completed_trials, campaign().trials - 1);
    assert_eq!(result.failed_trials.len(), 1);
    let failure = &result.failed_trials[0];
    assert_eq!(failure.trial, 2);
    assert_eq!(failure.seed, campaign().seed.wrapping_add(2));
    assert!(
        failure.message.contains("injected panic"),
        "payload lost: {}",
        failure.message
    );
    // Every other trial is untouched: the surviving errors are exactly
    // the plain run's with trial 2 removed (per-trial seeding isolates
    // RNG streams).
    let mut expected = plain.errors.clone();
    expected.remove(2);
    assert_eq!(result.errors, expected);
    // The confidence interval reflects the reduced sample.
    assert_eq!(
        result.error_ci,
        maxnvm_faultsim::wilson_interval(result.mean_error, campaign().trials - 1, 1.96)
    );
}

#[test]
fn pre_cancelled_token_yields_empty_result() {
    let (stored, eval) = fixture();
    let token = CancelToken::new();
    token.cancel();
    let result = campaign()
        .run_controlled(
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::with_cancel(token),
        )
        .expect("cancelled run still returns cleanly");
    assert!(result.cancelled);
    assert_eq!(result.completed_trials, 0);
    assert_eq!(result.requested_trials, campaign().trials);
}

#[test]
fn expired_deadline_cancels_like_a_fired_token() {
    let (stored, eval) = fixture();
    let token = CancelToken::with_timeout(Duration::ZERO);
    let result = campaign()
        .run_controlled(
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::with_cancel(token),
        )
        .expect("deadline run still returns cleanly");
    assert!(result.cancelled);
    assert_eq!(result.completed_trials, 0);
}

#[test]
fn mid_run_cancellation_yields_clean_partial_result() {
    let (stored, eval) = fixture();
    let c = campaign();
    let token = CancelToken::new();
    let cancelling = InstrumentedEval::cancelling(&eval, 5, token.clone());
    // The token fires during the fifth evaluation, so at least five
    // trials complete; the scope caller helps the single pool worker run
    // jobs, so one more trial may already be in flight when the token
    // lands — the completed set is a contiguous trial prefix either way.
    let ctx = EvalContext::with_workers(TECH, &sa(), RATE_SCALE, 1).expect("ctx");
    let result = ctx
        .run_campaign_controlled(
            c.trials,
            c.seed,
            std::slice::from_ref(&stored),
            &cancelling,
            &RunControl::with_cancel(token),
        )
        .expect("cancelled run returns partial result");
    assert!(result.cancelled);
    assert!(
        result.completed_trials >= 5 && result.completed_trials < c.trials,
        "cut landed at {} of {}",
        result.completed_trials,
        c.trials
    );
    assert_eq!(result.requested_trials, c.trials);
    // The completed prefix keeps its per-trial streams: it matches the
    // uninterrupted run's leading trials exactly.
    let plain = c
        .run(std::slice::from_ref(&stored), TECH, &sa(), &eval)
        .expect("plain");
    assert_eq!(result.errors, plain.errors[..result.completed_trials]);
}

#[test]
fn interrupted_run_resumes_byte_identical_across_worker_counts() {
    let (stored, eval) = fixture();
    let c = campaign();
    let ckpt = temp_path("in-process-resume");
    let _ = std::fs::remove_file(&ckpt);
    // Uninterrupted truth, single worker.
    let ctx1 = EvalContext::with_workers(TECH, &sa(), RATE_SCALE, 1).expect("ctx");
    let uninterrupted = ctx1
        .run_campaign(c.trials, c.seed, std::slice::from_ref(&stored), &eval)
        .expect("uninterrupted run");
    // Interrupt a checkpointed run partway (cancel after 6 evals).
    let token = CancelToken::new();
    let cancelling = InstrumentedEval::cancelling(&eval, 6, token.clone());
    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let ctx_many = EvalContext::with_workers(TECH, &sa(), RATE_SCALE, max_workers).expect("ctx");
    let control = RunControl {
        cancel: token,
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(1)),
        ..RunControl::default()
    };
    let partial = ctx_many
        .run_campaign_controlled(
            c.trials,
            c.seed,
            std::slice::from_ref(&stored),
            &cancelling,
            &control,
        )
        .expect("partial run");
    assert!(partial.cancelled);
    assert!(partial.completed_trials < c.trials);
    assert!(ckpt.exists(), "cancelled run must leave its checkpoint");
    // Resume at a different worker count; the final result must be
    // byte-identical to the uninterrupted single-worker run.
    let resume_control = RunControl {
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(4)),
        ..RunControl::default()
    };
    let resumed = ctx_many
        .run_campaign_controlled(
            c.trials,
            c.seed,
            std::slice::from_ref(&stored),
            &eval,
            &resume_control,
        )
        .expect("resumed run");
    assert_eq!(resumed, uninterrupted);
    assert!(
        !ckpt.exists(),
        "completed run must remove its checkpoint (keep_on_success off)"
    );
}

#[test]
fn checkpoint_from_a_different_configuration_is_rejected() {
    let (stored, eval) = fixture();
    let ckpt = temp_path("mismatch");
    let _ = std::fs::remove_file(&ckpt);
    let mut c = campaign();
    let keep = RunControl {
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(8).keep_on_success()),
        ..RunControl::default()
    };
    c.run_controlled(std::slice::from_ref(&stored), TECH, &sa(), &eval, &keep)
        .expect("first run");
    assert!(ckpt.exists());
    // Same path, different seed: the fingerprint must not match.
    c.seed += 1;
    let err = c
        .resume_from(
            &ckpt,
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect_err("a foreign checkpoint must be rejected");
    assert!(
        matches!(err, EngineError::CheckpointMismatch { .. }),
        "{err}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_without_a_checkpoint_is_a_typed_error() {
    let (stored, eval) = fixture();
    let err = campaign()
        .resume_from(
            temp_path("never-written"),
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect_err("nothing to resume");
    assert!(matches!(err, EngineError::CheckpointIo { .. }), "{err}");
}

#[test]
fn garbage_checkpoint_is_a_typed_parse_error() {
    // Regression: a corrupted snapshot (disk damage, partial write by a
    // foreign tool) must surface as a typed error through
    // `Campaign::resume_from`, never a panic in the parser.
    let (stored, eval) = fixture();
    let ckpt = temp_path("garbage");
    std::fs::write(&ckpt, "maxnvm-checkpoint/v1\nfingerprint zzzz\n").expect("write garbage");
    let err = campaign()
        .resume_from(
            &ckpt,
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect_err("garbage checkpoint must be rejected");
    assert!(matches!(err, EngineError::CheckpointParse { .. }), "{err}");

    // Bytes that are not even the right format at all.
    std::fs::write(&ckpt, "\u{0}\u{1}not a checkpoint").expect("write noise");
    let err = campaign()
        .resume_from(
            &ckpt,
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect_err("noise must be rejected");
    assert!(matches!(err, EngineError::CheckpointParse { .. }), "{err}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn truncated_checkpoint_is_a_typed_parse_error() {
    // A checkpoint cut off mid-file (simulating a crash that beat the
    // atomic rename) must be rejected with a parse error, not resumed
    // from a silently shortened trial set.
    let (stored, eval) = fixture();
    let ckpt = temp_path("truncate");
    let _ = std::fs::remove_file(&ckpt);
    let c = campaign();
    let keep = RunControl {
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(8).keep_on_success()),
        ..RunControl::default()
    };
    c.run_controlled(std::slice::from_ref(&stored), TECH, &sa(), &eval, &keep)
        .expect("first run");
    let text = std::fs::read_to_string(&ckpt).expect("read checkpoint");
    assert!(text.ends_with('\n') && text.contains("\nend "));
    // Cut the file in half: lands mid-entry, and the `end <count>`
    // trailer is gone either way.
    std::fs::write(&ckpt, &text[..text.len() / 2]).expect("truncate");
    let err = c
        .resume_from(
            &ckpt,
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect_err("truncated checkpoint must be rejected");
    assert!(matches!(err, EngineError::CheckpointParse { .. }), "{err}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn deadline_expiring_between_trials_yields_well_formed_partial_result() {
    // An armed deadline that expires while trials run (not before the
    // campaign starts): wherever the cut lands, the partial result must
    // stay internally consistent — cancelled flagged, statistics over
    // exactly the completed prefix, and that prefix byte-identical to
    // the uninterrupted run's.
    let (stored, eval) = fixture();
    let c = campaign();
    // 24 trials at >=10 ms each against a 40 ms budget: the deadline is
    // guaranteed to fire mid-campaign, at a timing-dependent trial.
    let token = CancelToken::with_timeout(Duration::from_millis(40));
    let slow = InstrumentedEval::slow(&eval, Duration::from_millis(10));
    let ctx = EvalContext::with_workers(TECH, &sa(), RATE_SCALE, 1).expect("ctx");
    let result = ctx
        .run_campaign_controlled(
            c.trials,
            c.seed,
            std::slice::from_ref(&stored),
            &slow,
            &RunControl::with_cancel(token),
        )
        .expect("deadline run returns a partial result");
    assert!(result.cancelled);
    assert!(result.completed_trials < c.trials);
    assert_eq!(result.requested_trials, c.trials);
    assert_eq!(result.errors.len(), result.completed_trials);
    if result.completed_trials > 0 {
        assert!(result.mean_error.is_finite());
        assert!(result.max_error.is_finite());
        // The completed prefix keeps its per-trial seed streams.
        let plain = c
            .run(std::slice::from_ref(&stored), TECH, &sa(), &eval)
            .expect("plain");
        assert_eq!(result.errors, plain.errors[..result.completed_trials]);
    }
}

#[test]
fn early_stopping_halts_a_decisive_campaign_deterministically() {
    let (stored, eval) = fixture();
    let c = Campaign {
        trials: 200,
        seed: 7,
        // Saturating rates push every trial's error toward the proxy
        // ceiling (0.9), far above baseline + bound — the Wilson
        // interval decides "fail" at the first batch boundary.
        rate_scale: 5000.0,
    };
    let control = RunControl {
        early_stop: Some(EarlyStop::new(eval.baseline_error(), 0.05)),
        ..RunControl::default()
    };
    let run = |workers: usize| {
        EvalContext::with_workers(TECH, &sa(), c.rate_scale, workers)
            .expect("ctx")
            .run_campaign_controlled(
                c.trials,
                c.seed,
                std::slice::from_ref(&stored),
                &eval,
                &control,
            )
            .expect("early-stopped run")
    };
    let result = run(1);
    assert!(
        result.mean_error > eval.baseline_error() + 0.05,
        "fixture not decisive: mean {}",
        result.mean_error
    );
    assert!(result.stopped_early);
    assert!(
        result.completed_trials < c.trials,
        "stopped early but ran the full {} budget",
        c.trials
    );
    // The stopping decision is part of the deterministic contract.
    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    assert_eq!(result, run(max_workers));
    // Early stopping stays opt-in: the same campaign without the rule
    // runs its full budget.
    let full = EvalContext::with_workers(TECH, &sa(), c.rate_scale, 2)
        .expect("ctx")
        .run_campaign(c.trials, c.seed, std::slice::from_ref(&stored), &eval)
        .expect("full run");
    assert_eq!(full.completed_trials, c.trials);
    assert!(!full.stopped_early);
}

// ---------------------------------------------------------------------
// Kill-and-resume: a real SIGKILL mid-campaign, then a byte-identical
// resume in a fresh process (this one).
// ---------------------------------------------------------------------

const CHILD_ENV: &str = "MAXNVM_RESILIENCE_CHILD_CHECKPOINT";

fn kill_resume_campaign() -> Campaign {
    Campaign {
        trials: 40,
        seed: 11,
        rate_scale: RATE_SCALE,
    }
}

/// Child half of the kill-and-resume test: runs a checkpointed campaign
/// slowly enough for the parent to SIGKILL it mid-run. Ignored unless
/// re-executed by `sigkilled_campaign_resumes_byte_identical` with the
/// checkpoint path in the environment.
#[test]
#[ignore = "child process entry point for the kill-and-resume test"]
fn child_campaign_runner() {
    let Ok(ckpt) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (stored, eval) = fixture();
    let slow = InstrumentedEval::slow(&eval, Duration::from_millis(25));
    let c = kill_resume_campaign();
    let control = RunControl {
        // Flush after every trial and keep the file even if the child
        // outruns the parent's kill — resume must work either way.
        checkpoint: Some(CheckpointConfig::new(&ckpt).every(1).keep_on_success()),
        ..RunControl::default()
    };
    c.run_controlled(std::slice::from_ref(&stored), TECH, &sa(), &slow, &control)
        .expect("child campaign");
}

#[test]
fn sigkilled_campaign_resumes_byte_identical() {
    let (stored, eval) = fixture();
    let c = kill_resume_campaign();
    let uninterrupted = c
        .run(std::slice::from_ref(&stored), TECH, &sa(), &eval)
        .expect("uninterrupted run");
    let ckpt = temp_path("sigkill");
    let _ = std::fs::remove_file(&ckpt);
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args([
            "child_campaign_runner",
            "--exact",
            "--ignored",
            "--nocapture",
        ])
        .env(CHILD_ENV, &ckpt)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child");
    // Wait until the child has durably completed at least one trial,
    // then kill it without warning (SIGKILL on unix).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "child never wrote a checkpoint"
        );
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("child exited before writing a checkpoint: {status}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill child");
    let _ = child.wait();
    // Resume in this process and compare against the uninterrupted run.
    let resumed = c
        .resume_from(
            &ckpt,
            std::slice::from_ref(&stored),
            TECH,
            &sa(),
            &eval,
            &RunControl::default(),
        )
        .expect("resume after SIGKILL");
    assert_eq!(resumed, uninterrupted);
    let _ = std::fs::remove_file(&ckpt);
}
