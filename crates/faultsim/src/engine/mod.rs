//! The evaluation engine: shared precomputed fault state plus scoped
//! compute threads behind every campaign and design-space sweep.
//!
//! A Monte-Carlo evaluation repeats three kinds of work: deriving fault
//! maps from the cell models (identical for every trial of a
//! technology), sparse-encoding the layers (identical for every scheme
//! that only differs in protection), and the per-trial inject → decode
//! → evaluate loop (embarrassingly parallel). [`EvalContext`] hoists
//! the first out of the trial loop — one pre-scaled [`FaultMap`] per
//! bits-per-cell, shared by `Arc` — and runs the third on the context's
//! compute threads, which each run spawns for itself and joins before
//! it returns; [`EvalContext::run_dse_controlled`]
//! additionally shares raw encodes *and clean decodes* across candidate
//! schemes through an [`EncodeCache`].
//!
//! Each job has one entry point: [`EvalContext::run_campaign`] (every
//! structure injected), [`EvalContext::run_isolated`] (one structure
//! kind, Fig. 5's methodology), [`EvalContext::run_chips`] (programmed
//! chip instances) and [`EvalContext::run_dse_controlled`] (the concrete
//! design-space sweep); [`crate::VulnerabilityStudy::run_fig5`] runs
//! Fig. 5's grid. All of them drive the same trial loop.
//!
//! The trial loop itself is O(expected faults + dirty suffix), not
//! O(cells × test set): each stored layer is wrapped in a
//! [`PreparedLayer`] (clean decode cached once, faults sampled sparsely
//! with geometric skips, each trial reduced to a sparse
//! [`WeightDelta`] list against the shared clean decode), and the
//! evaluators consume those deltas through their one trial entry point,
//! [`AccuracyEval::eval_deltas_sparse`], on per-thread [`EvalScratch`]
//! state — [`crate::evaluate::NetworkEval`] patches only the dirty rows
//! of the first fault-touched layer atop a clean-prefix forward pass
//! that the run builds once per clean decode, in parallel chunks, and
//! every scratch of the run then reads;
//! [`crate::evaluate::ProxyEval`] adjusts a cached MSE numerator —
//! both bit-identical to materializing the faulty matrices. The clean
//! model travels as a [`SparseModel`]: the dense decode the evaluators
//! compute on, plus its nonzeros for the density counters on results.
//! Chip campaigns ([`EvalContext::run_chips`]) are the exception: §4.1
//! draws every cell's analog read, so each trial still draws two
//! uniforms per cell (`StoredLayer::sample_chip_flips`, RNG-identical to
//! programming the full chip). Only the transcendental work, and
//! everything after it, is proportional to the cells that could flip:
//! `CellModel::sample_read` runs Box–Muller's `ln`/`sqrt`/`cos` only
//! for draws near a threshold, and the few mis-programmed cells reduce
//! to the same sparse deltas.
//!
//! On top of that sits the **resilience layer**, configured by the
//! [`RunControl`] the entry points take (`RunControl::default()` is the
//! plain fixed-budget run):
//!
//! - every trial runs under `catch_unwind`, so a panicking trial
//!   becomes a [`TrialOutcome::Failed`] recorded (with its seed) on the
//!   [`CampaignResult`] instead of unwinding the whole sweep;
//! - a [`CancelToken`] — flag or wall-clock deadline — is checked
//!   between trials, turning Ctrl-C or a time budget into a clean
//!   partial result;
//! - a [`CheckpointConfig`] makes the run write atomic
//!   [`CampaignCheckpoint`] snapshots, and an existing snapshot (with a
//!   matching configuration fingerprint) resumes exactly where a killed
//!   process stopped — byte-identical to an uninterrupted run;
//! - `merge_sources` preseeds a run with shard checkpoints: an
//!   unsharded run over every snapshot of a sharded sweep is the merge,
//!   byte-identical to the 1-shard run;
//! - an [`EarlyStop`] rule halts a scheme's trials once the Wilson
//!   interval on its error estimate is decisively inside or outside
//!   the iso-training-noise budget (opt-in: fixed budgets stay
//!   byte-identical by default).
//!
//! Determinism is preserved at any thread count: trial `t` always draws
//! from `StdRng::seed_from_u64(seed.wrapping_add(t))` regardless of
//! which thread runs it, results are assembled in trial order, and
//! early-stop decisions are evaluated only at fixed batch boundaries
//! over that ordered prefix — so the engine reproduces its own
//! single-thread run bit for bit.
//!
//! [`EvalContext::new`] runs on `std::thread::available_parallelism`
//! compute threads, the calling thread included; the `MAXNVM_THREADS`
//! environment variable overrides the count (`1` spawns no thread), and
//! a malformed or zero override is a typed
//! [`EngineError::InvalidWorkerConfig`].

mod error;
mod shard;
mod threads;

pub use error::EngineError;
pub use shard::ShardSpec;

use crate::campaign::{wilson_interval, CampaignResult, TrialOutcome};
use crate::cancel::CancelToken;
use crate::checkpoint::{CampaignCheckpoint, CheckpointConfig, Fingerprint, RetryPolicy};
use crate::dse::{candidate_schemes, DseConfig, DsePoint};
use crate::evaluate::{AccuracyEval, EvalScratch, PrefixRegistry, SparseModel};
use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_dnn::sparse::SparseMatrix;
use maxnvm_encoding::cluster::ClusteredLayer;
use maxnvm_encoding::storage::{DecodeStats, EncodeCache, PreparedLayer, StoredLayer};
use maxnvm_encoding::StructureKind;
use maxnvm_envm::{CellModel, CellTechnology, FaultMap, MlcConfig, SenseAmp};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use threads::{map_indexed, run_indexed};

/// A checkout pool of reusable [`EvalScratch`] values for one run: each
/// in-flight evaluation pops one (or starts a fresh one on the run's
/// prefix registry) and pushes it back. A trial runs start to finish on
/// one compute thread, so at most `threads` trials are in flight and as
/// many scratch networks exist per run, independent of the trial count.
/// The clean prefixes are not per scratch: every scratch of the pool
/// shares one registry, so a key's prefix is built once per run, its
/// chunks spread over the threads that first need it, and at most one
/// prefix per scratch is alive at a time.
#[derive(Default)]
struct ScratchPool {
    prefixes: Arc<PrefixRegistry>,
    scratches: Mutex<Vec<EvalScratch>>,
}

impl ScratchPool {
    /// [`AccuracyEval::eval_deltas_sparse`] on a pooled scratch: one
    /// trial. `key` identifies which clean decode the deltas are against
    /// ([`clean_keys`]), so a scratch checked out by a trial of a
    /// differently-decoding group switches to that key's shared prefix
    /// (building it if no scratch holds it) instead of mixing state, and
    /// one of an equally decoding group reuses the one it holds.
    fn eval_deltas_sparse(
        &self,
        eval: &(dyn AccuracyEval + Sync),
        key: u64,
        clean: &SparseModel,
        deltas: &[Vec<WeightDelta>],
    ) -> f64 {
        let popped = self.scratches.lock().pop();
        let mut scratch = popped.unwrap_or_else(|| EvalScratch::sharing(&self.prefixes));
        let error = eval.eval_deltas_sparse(key, clean, deltas, &mut scratch);
        self.scratches.lock().push(scratch);
        error
    }
}

/// Parses a `MAXNVM_THREADS` override: any value that is not a positive
/// integer (after trimming whitespace) is a typed error, never a silent
/// default.
fn parse_workers(raw: &str) -> Result<usize, EngineError> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(EngineError::InvalidWorkerConfig {
            value: raw.to_string(),
        }),
    }
}

/// The compute threads [`EvalContext::new`] runs on: `MAXNVM_THREADS`
/// when set, otherwise `std::thread::available_parallelism()`, and
/// [`EngineError::InvalidWorkerConfig`] when the override is malformed.
fn env_threads() -> Result<usize, EngineError> {
    match std::env::var("MAXNVM_THREADS") {
        Ok(raw) => parse_workers(&raw),
        Err(_) => Ok(std::thread::available_parallelism().map_or(4, |n| n.get())),
    }
}

/// Stringifies a caught panic payload for [`TrialOutcome::Failed`].
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Adaptive early stopping: end a scheme's trials once the Wilson
/// interval on its mean classification error is *decisively* inside or
/// outside the iso-training-noise acceptance threshold
/// `baseline + itn_bound`.
///
/// The rule is sequential but deterministic: it is evaluated only at
/// multiples of `batch` completed trials, over the trial-ordered prefix
/// of results, so a run stops at the same trial count at any worker
/// count and across checkpoint/resume cycles. It is opt-in — with no
/// `EarlyStop` configured, fixed-budget runs remain byte-identical to
/// the pre-resilience engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyStop {
    /// The model's clean classification error.
    pub baseline: f64,
    /// Iso-training-noise bound (absolute headroom over baseline).
    pub itn_bound: f64,
    /// Critical value for the Wilson interval (default 2.576 ≈ 99%,
    /// deliberately conservative for a repeatedly-peeked sequential
    /// test).
    pub z: f64,
    /// Never decide before this many trials have completed.
    pub min_trials: usize,
    /// Evaluate the rule every `batch` trials (also the scheduling
    /// granularity of an early-stopping run).
    pub batch: usize,
}

impl EarlyStop {
    /// A rule for the given acceptance test with conservative defaults
    /// (`z = 2.576`, `min_trials = 8`, `batch = 8`).
    pub fn new(baseline: f64, itn_bound: f64) -> Self {
        Self {
            baseline,
            itn_bound,
            z: 2.576,
            min_trials: 8,
            batch: 8,
        }
    }

    /// Whether `n` completed trials with mean error `mean` decide the
    /// acceptance test either way.
    pub fn decided(&self, mean: f64, n: usize) -> bool {
        if n < self.min_trials.max(1) {
            return false;
        }
        let (lo, hi) = wilson_interval(mean, n, self.z);
        let threshold = self.baseline + self.itn_bound;
        hi <= threshold || lo > threshold
    }
}

/// How a run behaves beyond the plain trial budget: cooperative
/// cancellation, checkpoint/resume, sharding and merging, and adaptive
/// early stopping. `RunControl::default()` is the plain fixed-budget run.
///
/// Resuming is a run whose `checkpoint` names an existing snapshot;
/// with no snapshot there, the run starts fresh and ends byte-identical
/// to an uninterrupted one. Merging is an unsharded run whose
/// `merge_sources` name the shards' snapshots.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Checked between trials; firing it (or passing its deadline)
    /// yields a partial result with `cancelled = true`.
    pub cancel: CancelToken,
    /// When set, the run writes atomic snapshots at the configured
    /// cadence and resumes from an existing snapshot whose fingerprint
    /// matches (a mismatch is [`EngineError::CheckpointMismatch`]).
    pub checkpoint: Option<CheckpointConfig>,
    /// When set, trials run in `batch`-sized rounds and stop once the
    /// Wilson interval decides the acceptance test.
    pub early_stop: Option<EarlyStop>,
    /// Fault-injection hook for testing the resilience layer itself:
    /// these trial indices panic instead of evaluating. Folded into the
    /// checkpoint fingerprint so hooked and unhooked runs never mix.
    pub panic_trials: Vec<usize>,
    /// Which slice of the sweep this process runs. The default is the
    /// unsharded layout (everything); shard workers set `index` of
    /// `count` and execute only the (group, trial) pairs the pure
    /// assignment function gives them — with RNG streams identical to
    /// the unsharded run's, so shard outputs merge byte-identically.
    /// The layout is folded into the checkpoint fingerprint, so
    /// resuming a snapshot under a different layout is a typed
    /// [`EngineError::CheckpointMismatch`].
    pub shard: ShardSpec,
    /// Shard checkpoints to preseed this run with before executing
    /// anything: each is loaded, verified against this sweep's base
    /// fingerprint folded with the *snapshot's own* recorded shard
    /// layout, and its completed trials absorbed. Running an unsharded
    /// layout over the sources of a complete N-shard sweep is the merge
    /// operation — no trials re-run, early stopping replays its
    /// decisions over the merged prefix, and the output is
    /// byte-identical to the 1-shard run.
    pub merge_sources: Vec<PathBuf>,
}

impl RunControl {
    /// A control that only carries a cancellation token.
    pub fn with_cancel(cancel: CancelToken) -> Self {
        Self {
            cancel,
            ..Self::default()
        }
    }
}

/// Per-trial outcomes of one driven run, plus how the run ended.
struct DrivenTrials {
    outcomes: Vec<(usize, TrialOutcome)>,
    stopped_early: bool,
    cancelled: bool,
}

/// The generic resilient trial driver behind every entry point: runs
/// `group_trials` trials per group (campaigns have one group; a DSE has
/// one per scheme) on `threads` compute threads, isolating per-trial
/// panics, honouring `control.cancel`, checkpointing at the configured
/// cadence, and applying the early-stop rule per group at fixed batch
/// boundaries.
/// `trial_fn(group, trial)` must be a pure function of its arguments.
///
/// `fingerprint` is the shard-independent base digest of the run
/// configuration: trial assignment hashes against it, and the
/// checkpoint fingerprint is it with `control.shard` folded on top.
#[expect(clippy::too_many_arguments, reason = "independent run inputs")]
fn drive_trials(
    threads: usize,
    groups: usize,
    group_trials: usize,
    seed: u64,
    control: &RunControl,
    fingerprint: u64,
    label: &str,
    trial_fn: impl Fn(usize, usize) -> (f64, DecodeStats) + Sync,
) -> Result<Vec<DrivenTrials>, EngineError> {
    control.shard.validate()?;
    let shard = control.shard;
    let ckpt_fingerprint = shard.fold_fingerprint(fingerprint);
    // Completed outcomes per group, keyed by trial index so prefix
    // statistics (for the early-stop rule) are well-defined.
    let mut done: Vec<BTreeMap<usize, TrialOutcome>> = vec![BTreeMap::new(); groups];
    if let Some(cp) = &control.checkpoint {
        if cp.store.exists(&cp.path) {
            let snapshot = cp.load_snapshot()?;
            snapshot.verify(ckpt_fingerprint)?;
            for (group, trial, outcome) in snapshot.entries {
                if group < groups && trial < group_trials {
                    done[group].insert(trial, outcome);
                }
            }
        }
    }
    // Preseed with completed shard snapshots: each source is verified
    // against the base fingerprint folded with *its own* recorded
    // layout, so a snapshot from a different configuration — or a
    // mangled shard header — is a typed mismatch, never silently-wrong
    // trials. Duplicate (group, trial) pairs across sources are
    // harmless: trials are pure functions of their index, so any
    // overwrite is byte-identical.
    for source in &control.merge_sources {
        let snapshot = match &control.checkpoint {
            Some(cp) => {
                let mut src = cp.clone();
                src.path = source.clone();
                // Retrying cannot make a missing source appear: its one
                // read fails with the store's error naming the file.
                if !cp.store.exists(source) {
                    src.retry = RetryPolicy::none();
                }
                src.load_snapshot()?
            }
            None => CampaignCheckpoint::load(source)?,
        };
        let src_shard = ShardSpec::of(snapshot.shard_index, snapshot.shard_count);
        src_shard.validate()?;
        snapshot.verify(src_shard.fold_fingerprint(fingerprint))?;
        for (group, trial, outcome) in snapshot.entries {
            if group < groups && trial < group_trials {
                done[group].insert(trial, outcome);
            }
        }
    }
    let batch = match &control.early_stop {
        Some(es) => es.batch.max(1),
        None => match &control.checkpoint {
            Some(cp) => cp.every.max(1),
            None => group_trials,
        },
    };
    #[expect(
        clippy::panic,
        reason = "RunControl::panic_trials is a test hook for per-trial panic isolation; \
                  the catch_unwind around it catches the panic"
    )]
    let outcome_fn = |group: usize, trial: usize| -> TrialOutcome {
        let panic_hook = control.panic_trials.contains(&trial);
        match panic::catch_unwind(AssertUnwindSafe(|| {
            if panic_hook {
                panic!("injected panic (RunControl::panic_trials test hook) in trial {trial}");
            }
            trial_fn(group, trial)
        })) {
            Ok((error, stats)) => TrialOutcome::Ok { error, stats },
            Err(payload) => TrialOutcome::Failed {
                seed: seed.wrapping_add(trial as u64),
                message: panic_message(payload),
            },
        }
    };
    // Per-group scheduling state: the next batch boundary and whether
    // the early-stop rule has decided the group.
    let mut cursor = vec![0usize; groups];
    let mut group_stopped = vec![false; groups];
    let mut cancelled = false;
    let mut dirty = false; // outcomes not yet flushed to the checkpoint
    let mut since_flush = 0usize;
    loop {
        if control.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        // Apply the early-stop rule at each group's current boundary,
        // over the trial-ordered prefix below it. Shard workers
        // (count > 1) never decide: their prefix is missing the other
        // shards' trials, so any decision would diverge from the
        // unsharded run's. The merge run — unsharded over the preseeded
        // union — replays the rule over complete prefixes and stops at
        // exactly the trial counts the 1-shard run would have.
        if shard.count == 1 {
            if let Some(es) = &control.early_stop {
                for g in 0..groups {
                    if group_stopped[g] || cursor[g] == 0 {
                        continue;
                    }
                    let (mut sum, mut n) = (0.0f64, 0usize);
                    for (_, outcome) in done[g].range(..cursor[g]) {
                        if let TrialOutcome::Ok { error, .. } = outcome {
                            sum += error;
                            n += 1;
                        }
                    }
                    if n > 0 && es.decided(sum / n as f64, n) {
                        group_stopped[g] = true;
                    }
                }
            }
        }
        // Next round: one batch per still-active group, minus trials a
        // checkpoint already covers and pairs other shards own.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for g in 0..groups {
            if group_stopped[g] || cursor[g] >= group_trials {
                continue;
            }
            let end = (cursor[g] + batch).min(group_trials);
            jobs.extend(
                (cursor[g]..end)
                    .filter(|t| !done[g].contains_key(t) && shard.owns(fingerprint, g, *t))
                    .map(|t| (g, t)),
            );
            cursor[g] = end;
        }
        if jobs.is_empty() {
            if (0..groups).all(|g| group_stopped[g] || cursor[g] >= group_trials) {
                break;
            }
            continue; // checkpoint covered the whole round; advance
        }
        let round = run_indexed(threads, jobs.len(), &control.cancel, |j| {
            let (g, t) = jobs[j];
            outcome_fn(g, t)
        });
        let mut ran = 0usize;
        for (j, slot) in round.into_iter().enumerate() {
            match slot {
                Some(outcome) => {
                    let (g, t) = jobs[j];
                    done[g].insert(t, outcome);
                    ran += 1;
                }
                None => cancelled = true,
            }
        }
        dirty |= ran > 0;
        since_flush += ran;
        if let Some(cp) = &control.checkpoint {
            if dirty && (since_flush >= cp.every || cancelled) {
                save_checkpoint(
                    cp,
                    ckpt_fingerprint,
                    label,
                    groups,
                    group_trials,
                    seed,
                    shard,
                    &done,
                )?;
                dirty = false;
                since_flush = 0;
            }
        }
        if cancelled {
            break;
        }
    }
    if !cancelled {
        // An early-stopped group keeps only the trials below its stop
        // boundary: preseeded sources (a merge, or a resumed snapshot
        // that outran the decision point before being killed) may hold
        // outcomes past it, and an uninterrupted run would never have
        // executed those.
        for g in 0..groups {
            if group_stopped[g] {
                let keep = cursor[g];
                done[g].retain(|t, _| *t < keep);
            }
        }
    }
    if let Some(cp) = &control.checkpoint {
        if cancelled {
            if dirty {
                save_checkpoint(
                    cp,
                    ckpt_fingerprint,
                    label,
                    groups,
                    group_trials,
                    seed,
                    shard,
                    &done,
                )?;
            }
        } else if cp.keep_on_success {
            // Leave a complete snapshot behind: resuming it reproduces
            // the finished result without rerunning anything.
            save_checkpoint(
                cp,
                ckpt_fingerprint,
                label,
                groups,
                group_trials,
                seed,
                shard,
                &done,
            )?;
        } else {
            // A finished campaign must not be accidentally "resumed".
            let _ = cp.store.remove(&cp.path);
        }
    }
    Ok((0..groups)
        .map(|g| DrivenTrials {
            outcomes: std::mem::take(&mut done[g]).into_iter().collect(),
            stopped_early: group_stopped[g],
            cancelled,
        })
        .collect())
}

#[expect(clippy::too_many_arguments, reason = "one per snapshot header field")]
fn save_checkpoint(
    cp: &CheckpointConfig,
    fingerprint: u64,
    label: &str,
    groups: usize,
    trials: usize,
    seed: u64,
    shard: ShardSpec,
    done: &[BTreeMap<usize, TrialOutcome>],
) -> Result<(), EngineError> {
    let mut snapshot = CampaignCheckpoint::new(fingerprint, label, groups, trials, seed)
        .with_shard(shard.index, shard.count);
    for (g, group) in done.iter().enumerate() {
        for (t, outcome) in group {
            snapshot.record(g, *t, outcome.clone());
        }
    }
    cp.save_snapshot(&snapshot)
}

/// Shared evaluation state for one (technology, sense-amp, rate-scale)
/// configuration: the per-bits-per-cell fault maps (pre-scaled, behind
/// `Arc` so trials share them without copying), the cell models for
/// chip-instance campaigns, and how many compute threads its runs use.
pub struct EvalContext {
    tech: CellTechnology,
    rate_scale: f64,
    fault_maps: Vec<Arc<FaultMap>>,
    cell_models: Vec<CellModel>,
    threads: usize,
}

impl EvalContext {
    /// A context running on `MAXNVM_THREADS` compute threads, or on
    /// `std::thread::available_parallelism()` when the variable is unset.
    ///
    /// Errors with [`EngineError::InvalidWorkerConfig`] if
    /// `MAXNVM_THREADS` is set but not a positive integer, and with
    /// [`EngineError::InvalidSimdConfig`] if `MAXNVM_FORCE_SCALAR` is
    /// set but not a recognized boolean — bare-library kernel dispatch
    /// would fall back with a one-time warning, but the engine boundary
    /// surfaces the typo as a typed error instead.
    pub fn new(tech: CellTechnology, sa: &SenseAmp, rate_scale: f64) -> Result<Self, EngineError> {
        let threads = env_threads()?;
        maxnvm_dnn::env_force_scalar()
            .map_err(|e| EngineError::InvalidSimdConfig { value: e.value })?;
        Self::with_workers(tech, sa, rate_scale, threads)
    }

    /// A context whose runs use exactly `workers` compute threads, the
    /// calling thread included (`1` spawns no thread) — mostly for
    /// determinism tests pinning the thread count.
    pub fn with_workers(
        tech: CellTechnology,
        sa: &SenseAmp,
        rate_scale: f64,
        workers: usize,
    ) -> Result<Self, EngineError> {
        if workers == 0 {
            return Err(EngineError::NoWorkers);
        }
        if !rate_scale.is_finite() || rate_scale <= 0.0 {
            return Err(EngineError::InvalidRateScale(rate_scale));
        }
        let mut fault_maps = Vec::with_capacity(3);
        let mut cell_models = Vec::with_capacity(3);
        for cfg in MlcConfig::ALL {
            let b = cfg.bits();
            if b <= tech.max_bits_per_cell() {
                let cell = tech.cell_model(cfg).with_sense_amp(sa);
                fault_maps.push(Arc::new(cell.fault_map().scaled(rate_scale)));
                cell_models.push(cell);
            } else {
                // Storage is validated against the technology, so these
                // entries are never exercised; they keep indexing total.
                fault_maps.push(Arc::new(FaultMap::perfect(cfg.levels())));
                cell_models.push(tech.cell_model(MlcConfig::SLC).with_sense_amp(sa));
            }
        }
        Ok(Self {
            tech,
            rate_scale,
            fault_maps,
            cell_models,
            threads: workers,
        })
    }

    /// Compute threads this context's runs use, the calling thread
    /// included.
    pub fn workers(&self) -> usize {
        self.threads
    }

    /// The per-bits-per-cell fault-map provider (already rate-scaled).
    // fault_maps is built over MlcConfig::ALL in bits order, so (bits()-1)
    // indexes the matching slot and bits() >= 1 by construction.
    pub fn fault_for(&self) -> impl Fn(MlcConfig) -> Arc<FaultMap> + '_ {
        move |cfg: MlcConfig| Arc::clone(&self.fault_maps[(cfg.bits() - 1) as usize])
    }

    /// Configuration fingerprint for a run on this context: covers the
    /// run kind, technology, rate scale, trial budget, base seed, and per
    /// group the injection target, the evaluator's baseline error and
    /// every stored layer's scheme and cell count; and — because they
    /// change what a resumed trial would produce or when a run stops —
    /// the early-stop parameters and the panic-injection test hook. The
    /// trial-semantics version is folded in by [`Fingerprint::new`]. A
    /// one-group run hashes exactly what a single campaign always did.
    fn run_fingerprint(
        &self,
        kind: &str,
        trials: usize,
        seed: u64,
        groups: &[TrialGroup<'_>],
        baseline: f64,
        control: &RunControl,
    ) -> u64 {
        let mut f = Fingerprint::new();
        f.push_str(kind)
            .push_str(self.tech.name())
            .push_f64(self.rate_scale)
            .push_u64(trials as u64)
            .push_u64(seed);
        for (stored, target) in groups {
            f.push_str(target.map_or("all", |k| k.name()))
                .push_f64(baseline)
                .push_u64(stored.len() as u64);
            for layer in stored.iter() {
                f.push_str(&layer.scheme.label());
                f.push_u64(layer.total_cells());
            }
        }
        push_control(&mut f, control);
        f.finish()
    }

    /// Runs a full-injection campaign: `trials` seeded trials, each
    /// injecting every structure of every layer, in parallel on the
    /// context's threads, under `control` (per-trial panic isolation,
    /// cooperative cancellation, checkpoint/resume, sharding and merging,
    /// optional early stopping). Trial `t` seeds `seed.wrapping_add(t)`;
    /// results are in trial order, identical at any thread count.
    ///
    /// # Errors
    ///
    /// Under `RunControl::default()` it never fails today; the `Result`
    /// keeps the engine surface panic-free (lint rule D2). The control's
    /// checkpoint, shard layout and merge sources add the typed
    /// `Checkpoint*` and [`EngineError::InvalidShardConfig`] errors.
    pub fn run_campaign(
        &self,
        trials: usize,
        seed: u64,
        stored: &[StoredLayer],
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
    ) -> Result<CampaignResult, EngineError> {
        single(self.run_trials(trials, seed, &[(stored, None)], None, eval, control)?)
    }

    /// Runs a campaign injecting faults only into structures of
    /// `target` kind — Fig. 5's isolation methodology — under `control`,
    /// with the errors of [`Self::run_campaign`].
    pub fn run_isolated(
        &self,
        trials: usize,
        seed: u64,
        target: StructureKind,
        stored: &[StoredLayer],
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
    ) -> Result<CampaignResult, EngineError> {
        single(self.run_trials(trials, seed, &[(stored, Some(target))], None, eval, control)?)
    }

    /// Runs `trials` seeded trials of every group — a set of stored
    /// layers and the structure kind its faults are injected into (`None`
    /// injects every structure) — as one grid, returning one result per
    /// group in group order. A campaign is the one-group case; Fig. 5
    /// runs its 24 configurations as one grid, so the threads stay busy
    /// across configurations and the run builds one clean prefix, which
    /// every scratch shares, for all groups that decode to the same
    /// weights.
    ///
    /// A `cache` shares one clean decode between groups whose schemes
    /// differ only in bits-per-cell or protection. It keys on layer
    /// position, so every group must then store the same layers in the
    /// same order, as Fig. 5's grid does.
    pub(crate) fn run_trials(
        &self,
        trials: usize,
        seed: u64,
        groups: &[TrialGroup<'_>],
        cache: Option<&EncodeCache>,
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
    ) -> Result<Vec<CampaignResult>, EngineError> {
        let fault_for = self.fault_for();
        // Clean decodes and level partitions are trial-invariant: prepare
        // them once so every trial costs O(expected faults), not O(cells).
        let layers: Vec<(usize, &StoredLayer)> = groups
            .iter()
            .flat_map(|(s, _)| s.iter().enumerate())
            .collect();
        let mut flat = map_indexed(self.threads, layers.len(), |j| {
            let (i, layer) = layers[j];
            match cache {
                Some(cache) => PreparedLayer::new(layer, cache.clean_decode(i, layer)),
                None => PreparedLayer::prepare(layer),
            }
        })
        .into_iter();
        let prepared: Vec<Vec<PreparedLayer>> = groups
            .iter()
            .map(|(s, _)| flat.by_ref().take(s.len()).collect())
            .collect();
        let kind = if groups.iter().any(|(_, target)| target.is_some()) {
            "isolated"
        } else {
            "campaign"
        };
        let fingerprint =
            self.run_fingerprint(kind, trials, seed, groups, eval.baseline_error(), control);
        let results = self.drive_groups(
            &prepared,
            trials,
            seed,
            eval,
            control,
            fingerprint,
            &first_label(groups.first().map_or(&[], |(s, _)| *s)),
            |g, layer, rng| match groups[g].1 {
                Some(kind) => layer.deltas_with_isolated_faults(kind, &fault_for, rng),
                None => layer.deltas_with_faults(&fault_for, rng),
            },
        )?;
        Ok(results
            .into_iter()
            .zip(groups.iter().zip(&prepared))
            .map(|(result, ((_, target), ps))| {
                let expected = ps.iter().map(|p| p.expected_faults(*target, &fault_for));
                result.with_expected_faults(expected.sum())
            })
            .collect())
    }

    /// The one trial loop behind every entry point: `trials` seeded
    /// trials of each group of prepared layers, driven by
    /// [`drive_trials`]. Trial `t` of group `g` draws its deltas layer by
    /// layer from `StdRng::seed_from_u64(seed + t)` through
    /// `sample(g, layer, rng)` and evaluates them on a pooled scratch
    /// under the group's clean-decode key ([`clean_keys`]). Results carry
    /// how the run ended and the clean model's density; callers attach
    /// expected faults.
    #[expect(clippy::too_many_arguments, reason = "independent run inputs")]
    fn drive_groups(
        &self,
        prepared: &[Vec<PreparedLayer<'_>>],
        trials: usize,
        seed: u64,
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
        fingerprint: u64,
        label: &str,
        sample: impl Fn(usize, &PreparedLayer<'_>, &mut StdRng) -> (Vec<WeightDelta>, DecodeStats)
            + Sync,
    ) -> Result<Vec<CampaignResult>, EngineError> {
        let views: Vec<Vec<&LayerMatrix>> = prepared
            .iter()
            .map(|ps| ps.iter().map(|p| &p.clean().matrix).collect())
            .collect();
        let keys = clean_keys(&views);
        // Trials never materialize faulty matrices: each samples sparse
        // deltas against the shared clean decodes and evaluates them
        // through the evaluator's O(deltas) path. One clean model copy
        // (with its nonzero counts, for the density counters) per key.
        let models: Vec<(Vec<LayerMatrix>, Vec<Arc<SparseMatrix>>)> = prepared
            .iter()
            .enumerate()
            .map(|(g, ps)| {
                if keys[g] != g {
                    return (Vec::new(), Vec::new());
                }
                let dense = ps.iter().map(|p| p.clean().matrix.clone()).collect();
                let sparse = ps.iter().map(|p| Arc::new(p.clean().sparse.clone()));
                (dense, sparse.collect())
            })
            .collect();
        let model = |g: usize| {
            let (dense, sparse) = &models[keys[g]];
            SparseModel { dense, sparse }
        };
        let scratch = ScratchPool::default();
        let driven = drive_trials(
            self.threads,
            prepared.len(),
            trials,
            seed,
            control,
            fingerprint,
            label,
            |g, trial| {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(trial as u64));
                let mut stats = DecodeStats::default();
                let deltas: Vec<Vec<WeightDelta>> = prepared[g]
                    .iter()
                    .map(|layer| {
                        let (d, s) = sample(g, layer, &mut rng);
                        stats.absorb(s);
                        d
                    })
                    .collect();
                let error = scratch.eval_deltas_sparse(eval, keys[g] as u64, &model(g), &deltas);
                (error, stats)
            },
        )?;
        Ok(driven
            .into_iter()
            .enumerate()
            .map(|(g, group)| {
                let model = model(g);
                CampaignResult::from_outcomes(trials, group.outcomes)
                    .with_termination(group.stopped_early, group.cancelled)
                    .with_density(model.layer_nnz(), model.density())
            })
            .collect())
    }

    /// Runs a campaign with the paper's exact chip semantics: each
    /// trial programs a chip instance (every cell's analog outcome
    /// drawn once, §4.1) and decodes it deterministically. Statistically
    /// this matches [`Self::run_campaign`] for single decodes, but it
    /// also produces the rare non-adjacent misreads and models faults
    /// as permanent. Errors with [`EngineError::ChipRateScale`] unless
    /// the context uses physical rates (`rate_scale == 1.0`), since
    /// analog programming outcomes cannot be rate-scaled; use the
    /// fault-map path for scaled studies. It takes no [`RunControl`]:
    /// the trials run as the plain fixed-budget run.
    ///
    /// Trials never materialize the chip: only the mis-programmed cells
    /// are recorded (`StoredLayer::sample_chip_flips`, drawing the RNG
    /// exactly as programming the full chip would), reduced to sparse
    /// [`WeightDelta`]s, and evaluated through the delta trial path —
    /// bit-identical to programming, decoding, and evaluating every cell.
    /// A trial costs two uniform draws per stored cell plus the
    /// transcendentals of the few draws that could cross a threshold
    /// (`CellModel::sample_read`); the decode and evaluation that follow
    /// scale with the flips.
    // cell_models is built over MlcConfig::ALL in bits order, so (bits()-1)
    // indexes the matching slot and bits() >= 1 by construction.
    pub fn run_chips(
        &self,
        trials: usize,
        seed: u64,
        stored: &[StoredLayer],
        eval: &(dyn AccuracyEval + Sync),
    ) -> Result<CampaignResult, EngineError> {
        let control = &RunControl::default();
        if (self.rate_scale - 1.0).abs() > 1e-12 {
            return Err(EngineError::ChipRateScale(self.rate_scale));
        }
        let cell_for = |cfg: MlcConfig| self.cell_models[(cfg.bits() - 1) as usize].clone();
        let fault_for = self.fault_for();
        let expected: f64 = stored
            .iter()
            .map(|l| l.expected_faults_in(None, &fault_for))
            .sum();
        let prepared: Vec<PreparedLayer> = map_indexed(self.threads, stored.len(), |i| {
            PreparedLayer::prepare(&stored[i])
        });
        let fingerprint = self.run_fingerprint(
            "chips",
            trials,
            seed,
            &[(stored, None)],
            eval.baseline_error(),
            control,
        );
        let results = self.drive_groups(
            &[prepared],
            trials,
            seed,
            eval,
            control,
            fingerprint,
            &first_label(stored),
            |_, layer, rng| {
                let flips = layer.stored().sample_chip_flips(&cell_for, rng);
                layer.deltas_flips(&flips)
            },
        )?;
        Ok(single(results)?.with_expected_faults(expected))
    }

    /// Concrete design-space exploration on the engine: every candidate
    /// scheme of the context's technology is stored (raw encodes and
    /// clean decodes shared through an [`EncodeCache`]) and evaluated
    /// with a Monte-Carlo campaign over [`PreparedLayer`]s. The work is
    /// flattened to (scheme, trial) granularity so the threads
    /// load-balance across the whole sweep rather than one scheme at a
    /// time.
    ///
    /// `control` adds per-trial panic isolation, cooperative
    /// cancellation, whole-sweep checkpoint/resume (one checkpoint group
    /// per candidate scheme), sharding and merging, and optional
    /// per-scheme adaptive early stopping — each scheme's campaign halts
    /// as soon as its Wilson interval decides the ITN acceptance test, so
    /// decisively-passing and decisively-failing schemes stop paying
    /// trials the moment the data suffices.
    ///
    /// Seeding is per-(scheme, trial) — trial `t` of every scheme uses
    /// `seed.wrapping_add(t)` — so the returned points are identical at
    /// any worker count, and each point's `mean_error` equals, to the
    /// bit, the in-order mean of freshly stored layers decoded with
    /// [`PreparedLayer::decode_with_faults`] under those seeds and
    /// evaluated with [`AccuracyEval::eval`].
    ///
    /// Errors with [`EngineError::RateScaleMismatch`] if
    /// `cfg.campaign.rate_scale` differs from this context's.
    pub fn run_dse_controlled(
        &self,
        layers: &[ClusteredLayer],
        eval: &(dyn AccuracyEval + Sync),
        cfg: &DseConfig,
        control: &RunControl,
    ) -> Result<Vec<DsePoint>, EngineError> {
        if (cfg.campaign.rate_scale - self.rate_scale).abs() > 1e-12 {
            return Err(EngineError::RateScaleMismatch {
                campaign: cfg.campaign.rate_scale,
                context: self.rate_scale,
            });
        }
        let schemes = candidate_schemes(self.tech);
        let cache = EncodeCache::new();
        let stored: Vec<(Vec<StoredLayer>, u64)> = map_indexed(self.threads, schemes.len(), |s| {
            let layers: Vec<StoredLayer> = layers
                .iter()
                .enumerate()
                .map(|(i, l)| cache.store_layer(i, l, &schemes[s]))
                .collect();
            let cells = layers.iter().map(StoredLayer::total_cells).sum();
            (layers, cells)
        });
        let trials = cfg.campaign.trials;
        let seed = cfg.campaign.seed;
        let baseline = eval.baseline_error();
        let fault_for = self.fault_for();
        // Clean decodes depend only on the raw encoded streams, so the
        // cache shares one CleanLayerDecode across every scheme that
        // differs only in bits-per-cell or protection.
        let prepared: Vec<Vec<PreparedLayer>> = map_indexed(self.threads, schemes.len(), |s| {
            stored[s]
                .0
                .iter()
                .enumerate()
                .map(|(i, l)| PreparedLayer::new(l, cache.clean_decode(i, l)))
                .collect()
        });
        // Fingerprint the whole sweep: every scheme's identity and cell
        // count participates, so adding/removing candidates invalidates
        // old checkpoints.
        let fingerprint = {
            let mut f = Fingerprint::new();
            f.push_str("dse")
                .push_str(self.tech.name())
                .push_f64(self.rate_scale)
                .push_u64(trials as u64)
                .push_u64(seed)
                .push_f64(baseline)
                .push_f64(cfg.itn_bound)
                .push_u64(schemes.len() as u64);
            for (s, scheme) in schemes.iter().enumerate() {
                f.push_str(&scheme.label());
                f.push_u64(stored[s].1);
            }
            push_control(&mut f, control);
            f.finish()
        };
        let results = self.drive_groups(
            &prepared,
            trials,
            seed,
            eval,
            control,
            fingerprint,
            "dse-sweep",
            |_, layer, rng| layer.deltas_with_faults(&fault_for, rng),
        )?;
        Ok(schemes
            .into_iter()
            .zip(results)
            .zip(&stored)
            .map(|((scheme, result), (_, cells))| DsePoint {
                scheme,
                cells: *cells,
                mean_error: result.mean_error,
                passes: result.within_itn(baseline, cfg.itn_bound),
                trials_run: result.completed_trials,
                layer_nnz: result.layer_nnz,
                density: result.density,
            })
            .collect())
    }
}

/// One group of a trial grid: stored layers and the structure kind its
/// trials inject faults into (`None`: every structure).
pub(crate) type TrialGroup<'a> = (&'a [StoredLayer], Option<StructureKind>);

/// Folds what a [`RunControl`] changes about a run's trials into its
/// fingerprint: the early-stop parameters (or `"fixed-budget"`) and the
/// panic-injection test hook.
fn push_control(f: &mut Fingerprint, control: &RunControl) {
    match &control.early_stop {
        Some(es) => {
            f.push_str("early-stop")
                .push_f64(es.baseline)
                .push_f64(es.itn_bound)
                .push_f64(es.z)
                .push_u64(es.min_trials as u64)
                .push_u64(es.batch as u64);
        }
        None => {
            f.push_str("fixed-budget");
        }
    }
    f.push_u64(control.panic_trials.len() as u64);
    for &t in &control.panic_trials {
        f.push_u64(t as u64);
    }
}

/// The checkpoint label of a run: its first layer's scheme.
fn first_label(stored: &[StoredLayer]) -> String {
    stored
        .first()
        .map(|l| l.scheme.label())
        .unwrap_or_else(|| "empty".to_string())
}

/// The result of a one-group run.
fn single(results: Vec<CampaignResult>) -> Result<CampaignResult, EngineError> {
    results
        .into_iter()
        .next()
        .ok_or_else(|| EngineError::Internal {
            detail: "drive_trials returned no trial group".into(),
        })
}

/// The clean-decode key of every group of a trial grid: the index of the
/// first group whose clean matrices are bitwise equal to its own
/// (compared with `f32::to_bits`, so `+0.0` and `-0.0` differ, as they do
/// for the evaluators' caches). It is the group's
/// [`AccuracyEval::eval_deltas_sparse`] key, so a run builds one clean
/// prefix, shared by all its scratches, for every configuration that
/// decodes to the same weights — every protection and bits-per-cell
/// variant of an encoding, and in practice every encoding of the same
/// clustered layers.
fn clean_keys(groups: &[Vec<&LayerMatrix>]) -> Vec<usize> {
    let same_matrix = |a: &LayerMatrix, b: &LayerMatrix| {
        std::ptr::eq(a, b)
            || (a.rows == b.rows
                && a.cols == b.cols
                && a.data.len() == b.data.len()
                && a.data
                    .iter()
                    .zip(&b.data)
                    .all(|(x, y)| x.to_bits() == y.to_bits()))
    };
    let same = |a: &[&LayerMatrix], b: &[&LayerMatrix]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_matrix(x, y))
    };
    let mut firsts: Vec<usize> = Vec::new();
    groups
        .iter()
        .enumerate()
        .map(
            |(g, mats)| match firsts.iter().find(|&&f| same(&groups[f], mats)) {
                Some(&f) => f,
                None => {
                    firsts.push(g);
                    g
                }
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rate_scales() {
        let sa = SenseAmp::paper_default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = EvalContext::new(CellTechnology::MlcCtt, &sa, bad)
                .err()
                .expect("must reject");
            assert!(matches!(err, EngineError::InvalidRateScale(_)));
        }
    }

    #[test]
    fn rejects_zero_workers() {
        let sa = SenseAmp::paper_default();
        let err = EvalContext::with_workers(CellTechnology::MlcCtt, &sa, 1.0, 0)
            .err()
            .expect("must reject");
        assert_eq!(err, EngineError::NoWorkers);
    }

    #[test]
    fn fault_maps_are_shared_not_cloned() {
        let sa = SenseAmp::paper_default();
        let ctx = EvalContext::with_workers(CellTechnology::MlcCtt, &sa, 1.0, 1).unwrap();
        let fault_for = ctx.fault_for();
        let a = fault_for(MlcConfig::MLC3);
        let b = fault_for(MlcConfig::MLC3);
        assert!(Arc::ptr_eq(&a, &b), "providers must hand out the same map");
    }

    #[test]
    fn new_runs_on_at_least_one_thread() {
        let sa = SenseAmp::paper_default();
        let ctx = EvalContext::new(CellTechnology::MlcCtt, &sa, 1.0).unwrap();
        assert!(ctx.workers() >= 1);
    }

    #[test]
    fn worker_overrides_parse_strictly() {
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers("  16 "), Ok(16));
        for bad in ["0", "-2", "", "  ", "four", "1.5", "8x"] {
            let err = parse_workers(bad).expect_err(bad);
            assert_eq!(
                err,
                EngineError::InvalidWorkerConfig {
                    value: bad.to_string()
                },
                "{bad:?}"
            );
        }
    }

    #[test]
    fn sparse_campaign_is_bit_exact_and_worker_invariant() {
        // Full-chain lock on the delta trial path: a network campaign
        // over encoded pruned layers must reproduce the materializing
        // reference (decode every trial's faulty matrices in full,
        // evaluate end to end) bit for bit, at any worker count —
        // including trials whose faults span multiple layers.
        use crate::evaluate::NetworkEval;
        use maxnvm_dnn::data::gaussian_clusters;
        use maxnvm_dnn::zoo::mlp_mini;
        use maxnvm_encoding::storage::StorageScheme;
        use maxnvm_encoding::EncodingKind;
        let net = mlp_mini(8, 3, 16, 1);
        let test = gaussian_clusters(8, 3, 60, 2.5, 7);
        let eval = NetworkEval::new(net.clone(), test);
        let clustered: Vec<ClusteredLayer> = net
            .weight_matrices()
            .iter()
            .map(|m| {
                let mut pruned = m.clone();
                let mut mags: Vec<f32> = pruned.data.iter().map(|v| v.abs()).collect();
                mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let t = mags[((mags.len() - 1) as f64 * 0.6) as usize];
                for v in &mut pruned.data {
                    if v.abs() <= t {
                        *v = 0.0;
                    }
                }
                ClusteredLayer::from_matrix(&pruned, 4, 9)
            })
            .collect();
        let scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::MLC3);
        let stored: Vec<StoredLayer> = clustered
            .iter()
            .map(|c| StoredLayer::store(c, &scheme))
            .collect();
        let sa = SenseAmp::paper_default();
        let (trials, seed, scale) = (24usize, 5u64, 3000.0);
        let run = |workers| {
            EvalContext::with_workers(CellTechnology::MlcCtt, &sa, scale, workers)
                .unwrap()
                .run_campaign(trials, seed, &stored, &eval, &RunControl::default())
                .unwrap()
        };
        let w1 = run(1);
        // Materializing reference over the identical RNG stream (the
        // sparse sampler and the full decoder consume it identically).
        let ctx = EvalContext::with_workers(CellTechnology::MlcCtt, &sa, scale, 1).unwrap();
        let fault_for = ctx.fault_for();
        let prepared: Vec<PreparedLayer> = stored.iter().map(PreparedLayer::prepare).collect();
        let mut multi_layer_trials = 0usize;
        let ref_errors: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                let mats: Vec<LayerMatrix> = prepared
                    .iter()
                    .map(|p| p.decode_with_faults(&fault_for, &mut rng).0)
                    .collect();
                let mut replay = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                let faulted = prepared
                    .iter()
                    .filter(|p| !p.deltas_with_faults(&fault_for, &mut replay).0.is_empty())
                    .count();
                if faulted >= 2 {
                    multi_layer_trials += 1;
                }
                eval.eval(&mats)
            })
            .collect();
        assert!(
            multi_layer_trials > 0,
            "no multi-layer fault trials: raise the rate scale"
        );
        assert_eq!(w1.errors, ref_errors, "sparse campaign drifted");
        assert_eq!(w1.layer_nnz.len(), stored.len());
        assert!(w1.density > 0.0 && w1.density < 0.7, "{}", w1.density);
        for workers in [2, 4] {
            assert_eq!(run(workers).errors, w1.errors, "workers={workers}");
        }
    }

    #[test]
    fn clean_keys_compare_bits_not_values() {
        // Configurations 0 and 2 decode to the same weights; 1 differs
        // from 0 only by the sign of one zero. `-0.0 == 0.0`, so keying
        // by `==` would hand 1 the prefix cached for 0, breaking the
        // same-key-same-bits contract of `eval_deltas_sparse`.
        let m = |v: f32| LayerMatrix::new("w", 2, 2, vec![1.5, 0.0, v, -2.0]);
        let (pos, neg, other) = (m(0.0), m(-0.0), LayerMatrix::new("w", 1, 1, vec![1.0]));
        assert_eq!(pos.data, neg.data, "the two differ only in the zero's sign");
        let keys = clean_keys(&[
            vec![&pos, &other],
            vec![&neg, &other],
            vec![&pos.clone(), &other],
            vec![&neg],
        ]);
        assert_eq!(keys, vec![0, 1, 0, 3]);
    }

    #[test]
    fn early_stop_decides_only_decisive_intervals() {
        let es = EarlyStop::new(0.05, 0.01);
        // Too few trials: never decide.
        assert!(!es.decided(0.0, 4));
        // Mean far below the threshold with a large sample: decisively
        // inside.
        assert!(es.decided(0.05, 4000));
        // Mean far above: decisively outside.
        assert!(es.decided(0.5, 200));
        // Mean near the threshold at a modest sample: undecided.
        assert!(!es.decided(0.06, 16));
    }
}
