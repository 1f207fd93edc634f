//! Monte-Carlo injection campaigns: repeat (inject → decode → evaluate)
//! over many seeded trials and aggregate, exactly the Ares flow of §4.1.
//!
//! The heavy lifting lives in [`crate::engine`]: `Campaign` is the
//! serializable configuration, and its `run*` methods build a transient
//! [`EvalContext`] on the process-wide worker pool. The pre-engine
//! scoped-thread implementation is retained as
//! [`Campaign::run_reference`] for parity tests and benchmarks.

use crate::checkpoint::CheckpointConfig;
use crate::engine::{EngineError, EvalContext, RunControl};
use crate::evaluate::AccuracyEval;
use maxnvm_encoding::storage::{DecodeStats, StoredLayer};
use maxnvm_encoding::StructureKind;
use maxnvm_envm::{CellTechnology, FaultMap, MlcConfig, SenseAmp};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Number of independent trials (unique fault maps, §4.1).
    pub trials: usize,
    /// Base RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Multiplier on every per-cell fault rate. Leave at 1.0 for faithful
    /// rates; small stand-in models use >1 so their *expected fault
    /// counts per structure* match a full-size deployment (the stand-ins
    /// have 100-1000x fewer cells than the paper's models).
    pub rate_scale: f64,
}

impl Default for Campaign {
    fn default() -> Self {
        Self {
            trials: 20,
            seed: 0,
            rate_scale: 1.0,
        }
    }
}

/// What one Monte-Carlo trial produced: its evaluation, or — when the
/// trial panicked and was isolated by the engine's per-trial
/// `catch_unwind` — the panic, recorded with the trial's seed so the
/// failure reproduces deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrialOutcome {
    /// The trial ran to completion.
    Ok {
        /// Classification error measured by the evaluator.
        error: f64,
        /// Injection/decode statistics.
        stats: DecodeStats,
    },
    /// The trial panicked; the campaign continued without it.
    Failed {
        /// The trial's RNG seed (`campaign.seed.wrapping_add(trial)`) —
        /// rerunning with this seed reproduces the panic.
        seed: u64,
        /// The panic payload, stringified.
        message: String,
    },
}

/// A trial that panicked, as reported on [`CampaignResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedTrial {
    /// Trial index within the campaign.
    pub trial: usize,
    /// The trial's RNG seed, for offline reproduction.
    pub seed: u64,
    /// The panic payload, stringified.
    pub message: String,
}

/// Wilson score interval for a proportion `p_hat` observed over `n`
/// samples at critical value `z` (e.g. 1.96 for 95%).
///
/// Per-trial classification errors live in `[0, 1]`; among all such
/// variables with a given mean, the Bernoulli maximizes variance, so
/// treating the mean trial error as a binomial proportion over the
/// completed trials gives a conservative interval. Returns `(0, 1)`
/// when `n == 0`.
pub fn wilson_interval(p_hat: f64, n: usize, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let n = n as f64;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p_hat + z2 / (2.0 * n)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Aggregated campaign outcome.
///
/// All statistics aggregate over the *completed* trials: a cancelled
/// run reports what it finished (`cancelled = true`), and trials that
/// panicked are listed in `failed_trials` rather than silently dropped
/// or allowed to unwind the sweep. `error_ci` quantifies what the
/// reduced sample supports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-trial classification error (completed trials, trial order).
    pub errors: Vec<f64>,
    /// Mean classification error over completed trials.
    pub mean_error: f64,
    /// Worst completed trial.
    pub max_error: f64,
    /// 95% Wilson confidence interval on the mean classification error
    /// (see [`wilson_interval`] for the conservativeness argument).
    pub error_ci: (f64, f64),
    /// Trials the caller asked for.
    pub requested_trials: usize,
    /// Trials that ran to completion (`errors.len()`).
    pub completed_trials: usize,
    /// Trials that panicked and were isolated, with seeds for
    /// reproduction.
    pub failed_trials: Vec<FailedTrial>,
    /// Whether adaptive early stopping ended the campaign before the
    /// full budget.
    pub stopped_early: bool,
    /// Whether a [`crate::cancel::CancelToken`] (or its deadline) ended
    /// the campaign before the full budget.
    pub cancelled: bool,
    /// Mean injected cell faults per trial.
    pub mean_cell_faults: f64,
    /// Exact expected cell faults per trial (sum of per-cell fault
    /// probabilities over every stored structure's level histogram).
    /// Engine-run campaigns report it; the pre-engine reference arm
    /// leaves it at `0.0`.
    pub expected_cell_faults: f64,
    /// Mean ECC-corrected codewords per trial.
    pub mean_ecc_corrected: f64,
    /// Mean uncorrectable codewords per trial.
    pub mean_ecc_uncorrectable: f64,
    /// Non-zero weights per stored layer (clean decode). Engine-run
    /// campaigns report it; older serialized results and the pre-engine
    /// reference arm leave it empty.
    #[serde(default)]
    pub layer_nnz: Vec<u64>,
    /// Achieved model density: total non-zeros over total weights
    /// (`0.0` when unreported).
    #[serde(default)]
    pub density: f64,
    /// Disk-layer counters of the run's shared encode cache (all zero
    /// when the run had none; serde-defaulted so older serialized
    /// results still load).
    #[serde(default)]
    pub encode_cache: maxnvm_encoding::storage::EncodeCacheStats,
}

impl CampaignResult {
    pub(crate) fn from_trials(trials: Vec<(f64, DecodeStats)>) -> Self {
        let requested = trials.len();
        let outcomes: Vec<(usize, TrialOutcome)> = trials
            .into_iter()
            .enumerate()
            .map(|(t, (error, stats))| (t, TrialOutcome::Ok { error, stats }))
            .collect();
        Self::from_outcomes(requested, outcomes)
    }

    /// Builds a result from per-trial outcomes (`(trial index, outcome)`;
    /// indices need not be contiguous — trials missing entirely were
    /// cancelled before running). Statistics aggregate over the `Ok`
    /// outcomes; failures are carried on `failed_trials`.
    pub(crate) fn from_outcomes(
        requested: usize,
        mut outcomes: Vec<(usize, TrialOutcome)>,
    ) -> Self {
        outcomes.sort_by_key(|(t, _)| *t);
        let mut errors = Vec::with_capacity(outcomes.len());
        let mut failed_trials = Vec::new();
        let mut stats_sum = DecodeStats::default();
        for (trial, outcome) in outcomes {
            match outcome {
                TrialOutcome::Ok { error, stats } => {
                    errors.push(error);
                    stats_sum.absorb(stats);
                }
                TrialOutcome::Failed { seed, message } => failed_trials.push(FailedTrial {
                    trial,
                    seed,
                    message,
                }),
            }
        }
        let completed = errors.len();
        let n = completed.max(1) as f64;
        let mean_error = errors.iter().sum::<f64>() / n;
        let max_error = errors.iter().cloned().fold(0.0, f64::max);
        Self {
            mean_error,
            max_error,
            error_ci: wilson_interval(mean_error, completed, 1.96),
            requested_trials: requested,
            completed_trials: completed,
            failed_trials,
            stopped_early: false,
            cancelled: false,
            mean_cell_faults: stats_sum.cell_faults as f64 / n,
            expected_cell_faults: 0.0,
            mean_ecc_corrected: stats_sum.ecc_corrected as f64 / n,
            mean_ecc_uncorrectable: stats_sum.ecc_uncorrectable as f64 / n,
            layer_nnz: Vec::new(),
            density: 0.0,
            encode_cache: maxnvm_encoding::storage::EncodeCacheStats::default(),
            errors,
        }
    }

    /// Attaches the run's encode-cache disk counters.
    pub(crate) fn with_encode_cache(
        mut self,
        stats: maxnvm_encoding::storage::EncodeCacheStats,
    ) -> Self {
        self.encode_cache = stats;
        self
    }

    /// Attaches the clean model's per-layer non-zero counts and achieved
    /// density (see [`crate::evaluate::SparseModel`]).
    pub(crate) fn with_density(mut self, layer_nnz: Vec<u64>, density: f64) -> Self {
        self.layer_nnz = layer_nnz;
        self.density = density;
        self
    }

    /// Attaches the analytically exact expected fault count per trial
    /// (from [`maxnvm_envm::FaultInjector::expected_faults_exact`]).
    pub(crate) fn with_expected_faults(mut self, expected: f64) -> Self {
        self.expected_cell_faults = expected;
        self
    }

    /// Marks how the run ended (early-stopped and/or cancelled).
    pub(crate) fn with_termination(mut self, stopped_early: bool, cancelled: bool) -> Self {
        self.stopped_early = stopped_early;
        self.cancelled = cancelled;
        self
    }

    /// Whether the mean error stays within `bound` of `baseline` — the
    /// paper's iso-training-noise acceptance test (§3.1.1).
    pub fn within_itn(&self, baseline: f64, bound: f64) -> bool {
        self.mean_error <= baseline + bound
    }

    /// Wilson interval on the mean error at critical value `z`, over
    /// the completed trials (the stored `error_ci` uses `z = 1.96`).
    pub fn wilson_ci(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.mean_error, self.completed_trials, z)
    }
}

/// Builds the per-bits-per-cell fault maps for a technology (including the
/// sense-amp offset, §2.3). The maps are built once and handed out by
/// `Arc`, so a hot per-cell lookup loop never copies probability tables.
// maxnvm-lint: allow(R1/index-arith): maps is built over MlcConfig::ALL in bits order, so (bits()-1) indexes the matching slot and bits() >= 1 by construction.
pub fn fault_maps(tech: CellTechnology, sa: &SenseAmp) -> impl Fn(MlcConfig) -> Arc<FaultMap> + '_ {
    let maps: Vec<Arc<FaultMap>> = MlcConfig::ALL
        .iter()
        .map(|&cfg| {
            Arc::new(if cfg.bits() <= tech.max_bits_per_cell() {
                tech.cell_model(cfg).with_sense_amp(sa).fault_map()
            } else {
                FaultMap::perfect(cfg.levels())
            })
        })
        .collect();
    move |cfg: MlcConfig| Arc::clone(&maps[(cfg.bits() - 1) as usize])
}

impl Campaign {
    /// Runs the full campaign: all structures of every layer are injected
    /// each trial. Trials run in parallel on the engine's worker pool;
    /// results are deterministic per seed at any worker count.
    ///
    /// Errors with [`EngineError::InvalidRateScale`] if `rate_scale` is
    /// not a positive finite number.
    pub fn run(
        &self,
        stored: &[StoredLayer],
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
    ) -> Result<CampaignResult, EngineError> {
        let ctx = EvalContext::new(tech, sa, self.rate_scale)?;
        ctx.run_campaign(self.trials, self.seed, stored, eval)
    }

    /// Runs a campaign injecting faults *only* into structures of `target`
    /// kind (others stored perfectly) — Fig. 5's isolation methodology.
    pub fn run_isolated(
        &self,
        stored: &[StoredLayer],
        target: StructureKind,
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
    ) -> Result<CampaignResult, EngineError> {
        let ctx = EvalContext::new(tech, sa, self.rate_scale)?;
        ctx.run_isolated(self.trials, self.seed, target, stored, eval)
    }

    /// [`Campaign::run`] under a [`RunControl`]: per-trial panic
    /// isolation, cooperative cancellation (flag or deadline),
    /// checkpointing at the configured cadence, and optional Wilson
    /// early stopping. With `RunControl::default()` this is exactly
    /// [`Campaign::run`].
    pub fn run_controlled(
        &self,
        stored: &[StoredLayer],
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
    ) -> Result<CampaignResult, EngineError> {
        let ctx = EvalContext::new(tech, sa, self.rate_scale)?;
        ctx.run_campaign_controlled(self.trials, self.seed, stored, eval, control)
    }

    /// Resumes a checkpointed campaign from `path`: trials the snapshot
    /// already covers are not rerun, the remainder executes under
    /// `control`, and the final result is byte-identical to an
    /// uninterrupted [`Campaign::run_controlled`] at any worker count.
    ///
    /// Errors with [`EngineError::CheckpointIo`] if no checkpoint exists
    /// at `path` (nothing to resume), and with
    /// [`EngineError::CheckpointMismatch`] if the snapshot was written
    /// by a different configuration (trials, seed, rate scale, schemes,
    /// evaluator baseline, early-stop rule, …).
    pub fn resume_from(
        &self,
        path: impl Into<std::path::PathBuf>,
        stored: &[StoredLayer],
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
    ) -> Result<CampaignResult, EngineError> {
        let path = path.into();
        if !path.exists() {
            return Err(EngineError::CheckpointIo {
                path: path.display().to_string(),
                detail: "no checkpoint to resume from".to_string(),
            });
        }
        let mut control = control.clone();
        control.checkpoint = Some(match control.checkpoint.take() {
            Some(mut cp) => {
                cp.path = path;
                cp
            }
            None => CheckpointConfig::new(path),
        });
        self.run_controlled(stored, tech, sa, eval, &control)
    }

    /// Merges the checkpoints of a sharded run: each `sources` path
    /// holds one shard's complete (or partial) snapshot, written by a
    /// worker running this same campaign under a
    /// [`crate::engine::ShardSpec`]. The merge preseeds an *unsharded*
    /// run with every source's trials — verified against this
    /// configuration's fingerprint folded with each snapshot's own
    /// recorded shard layout — then executes whatever is missing, so
    /// the output is byte-identical to the uninterrupted 1-shard
    /// [`Campaign::run_controlled`]: same trials, same early-stopping
    /// decisions, same `failed_trials` replay seeds, same Wilson CIs.
    /// Sources from killed shards merely leave more trials to run here.
    ///
    /// Errors with [`EngineError::CheckpointIo`] if a source is missing,
    /// and with [`EngineError::CheckpointMismatch`] if one was written
    /// by a different configuration or under a mangled shard layout.
    pub fn merge(
        &self,
        sources: &[std::path::PathBuf],
        stored: &[StoredLayer],
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
        control: &RunControl,
    ) -> Result<CampaignResult, EngineError> {
        for source in sources {
            if !source.exists() {
                return Err(EngineError::CheckpointIo {
                    path: source.display().to_string(),
                    detail: "no checkpoint to merge from".to_string(),
                });
            }
        }
        let mut control = control.clone();
        control.shard = crate::engine::ShardSpec::unsharded();
        control.merge_sources = sources.to_vec();
        self.run_controlled(stored, tech, sa, eval, &control)
    }

    /// Runs the campaign with the paper's exact chip semantics: each
    /// trial *programs a chip instance* (every cell's analog outcome drawn
    /// once from its level distribution, §4.1) and decodes it
    /// deterministically. Statistically this matches [`Campaign::run`] for
    /// single decodes, but it also produces the rare non-adjacent misreads
    /// and models faults as permanent.
    ///
    /// Errors with [`EngineError::ChipRateScale`] if `rate_scale != 1.0`
    /// — analog programming outcomes cannot be rate-scaled; use the
    /// fault-map path for scaled studies.
    pub fn run_chips(
        &self,
        stored: &[StoredLayer],
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
    ) -> Result<CampaignResult, EngineError> {
        if (self.rate_scale - 1.0).abs() > 1e-12 {
            return Err(EngineError::ChipRateScale(self.rate_scale));
        }
        let ctx = EvalContext::new(tech, sa, self.rate_scale)?;
        ctx.run_chips(self.trials, self.seed, stored, eval)
    }

    /// The pre-engine implementation: scoped threads spawned per call,
    /// hard-capped at eight, fault maps rebuilt (and re-scaled per
    /// lookup) on every thread, and every trial paying a full per-cell
    /// inject + decode pass. Retained unchanged as the reference arm for
    /// parity tests and the speedup benchmark. [`Campaign::run`] now
    /// samples faults sparsely (a different RNG stream with the same
    /// per-cell marginals), so the two arms agree statistically rather
    /// than bit for bit.
    pub fn run_reference(
        &self,
        stored: &[StoredLayer],
        tech: CellTechnology,
        sa: &SenseAmp,
        eval: &(dyn AccuracyEval + Sync),
    ) -> CampaignResult {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(self.trials.max(1))
            .min(8);
        let mut results: Vec<(f64, DecodeStats)> = Vec::with_capacity(self.trials);
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let trial_ids: Vec<usize> = (0..self.trials).filter(|i| i % threads == t).collect();
                let seed = self.seed;
                let rate_scale = self.rate_scale;
                handles.push(scope.spawn(move |_| {
                    let base_maps = fault_maps(tech, sa);
                    let fault_for =
                        move |cfg: MlcConfig| Arc::new(base_maps(cfg).scaled(rate_scale));
                    let mut out = Vec::with_capacity(trial_ids.len());
                    for trial in trial_ids {
                        let mut rng =
                            rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(trial as u64));
                        let mut stats = DecodeStats::default();
                        let mats: Vec<_> = stored
                            .iter()
                            .map(|layer| {
                                let (m, s) = layer.decode_with_faults(&fault_for, &mut rng);
                                stats.absorb(s);
                                m
                            })
                            .collect();
                        out.push((trial, eval.eval(&mats), stats));
                    }
                    out
                }));
            }
            let mut all: Vec<(usize, f64, DecodeStats)> = handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(v) => v,
                    // The reference arm has no per-trial isolation by
                    // design; propagate the worker's panic verbatim.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect();
            all.sort_by_key(|(t, _, _)| *t);
            results = all.into_iter().map(|(_, e, s)| (e, s)).collect();
        })
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        CampaignResult::from_trials(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::ProxyEval;
    use maxnvm_dnn::network::LayerMatrix;
    use maxnvm_encoding::cluster::ClusteredLayer;
    use maxnvm_encoding::storage::StorageScheme;
    use maxnvm_encoding::EncodingKind;
    use rand::Rng;

    fn stored_layer(scale: f64, bpc: MlcConfig) -> (ClusteredLayer, StoredLayer) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let data: Vec<f32> = (0..64 * 128)
            .map(|_| {
                if rng.gen::<f64>() < 0.5 {
                    0.0
                } else {
                    rng.gen::<f32>() + 0.1
                }
            })
            .collect();
        let m = LayerMatrix::new("l", 64, 128, data);
        let c = ClusteredLayer::from_matrix(&m, 4, 3);
        let stored = StoredLayer::store(&c, &StorageScheme::uniform(EncodingKind::BitMask, bpc));
        let _ = scale;
        (c, stored)
    }

    #[test]
    fn zero_fault_technology_reproduces_baseline() {
        let (c, stored) = stored_layer(1.0, MlcConfig::SLC);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        // SLC RRAM fault rates are below 1e-10: effectively no faults.
        let result = Campaign {
            trials: 5,
            seed: 1,
            rate_scale: 1.0,
        }
        .run(
            std::slice::from_ref(&stored),
            CellTechnology::SlcRram,
            &SenseAmp::paper_default(),
            &eval,
        )
        .expect("campaign");
        assert!((result.mean_error - 0.05).abs() < 1e-9);
        assert_eq!(result.mean_cell_faults, 0.0);
    }

    #[test]
    fn mlc3_bitmask_without_protection_raises_error() {
        // Mask faults propagate: a campaign on an unprotected MLC3 bitmask
        // layer must show error above baseline. RRAM MLC3 mean rate ~1e-5;
        // ~2700 mask cells -> use many trials and check the mean moved.
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let result = Campaign {
            trials: 60,
            seed: 2,
            rate_scale: 1.0,
        }
        .run(
            std::slice::from_ref(&stored),
            CellTechnology::MlcRram,
            &SenseAmp::paper_default(),
            &eval,
        )
        .expect("campaign");
        // With per-cell rates ~1e-5 and ~15k cells total, a fair share of
        // trials see at least one fault; the worst trial must degrade.
        assert!(result.mean_cell_faults > 0.0, "no faults injected");
        assert!(result.max_error > 0.05, "max {}", result.max_error);
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let run = |seed| {
            Campaign {
                trials: 8,
                seed,
                rate_scale: 1.0,
            }
            .run(
                std::slice::from_ref(&stored),
                CellTechnology::MlcRram,
                &SenseAmp::paper_default(),
                &eval,
            )
            .expect("campaign")
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.errors, b.errors);
    }

    #[test]
    fn engine_run_agrees_with_the_reference_implementation() {
        // The engine samples faults sparsely (geometric skips), drawing a
        // different RNG stream than the reference's per-cell injector, so
        // the arms agree statistically — same Binomial marginals — not
        // bitwise.
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let campaign = Campaign {
            trials: 200,
            seed: 21,
            rate_scale: 40.0,
        };
        let engine = campaign
            .run(
                std::slice::from_ref(&stored),
                CellTechnology::MlcRram,
                &SenseAmp::paper_default(),
                &eval,
            )
            .expect("campaign");
        let reference = campaign.run_reference(
            std::slice::from_ref(&stored),
            CellTechnology::MlcRram,
            &SenseAmp::paper_default(),
            &eval,
        );
        assert_eq!(engine.errors.len(), reference.errors.len());
        // The engine reports the analytically exact expectation, and both
        // arms' empirical fault means must sit near it.
        assert!(
            engine.expected_cell_faults > 0.5,
            "{}",
            engine.expected_cell_faults
        );
        for (arm, mean) in [
            ("engine", engine.mean_cell_faults),
            ("reference", reference.mean_cell_faults),
        ] {
            let rel = (mean / engine.expected_cell_faults - 1.0).abs();
            assert!(
                rel < 0.25,
                "{arm} mean {mean} vs expected {} (rel {rel})",
                engine.expected_cell_faults
            );
        }
        assert!(
            (engine.mean_error - reference.mean_error).abs() < 0.1,
            "engine {} vs reference {}",
            engine.mean_error,
            reference.mean_error
        );
    }

    #[test]
    fn invalid_rate_scale_is_a_typed_error() {
        let (c, stored) = stored_layer(1.0, MlcConfig::SLC);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let err = Campaign {
            trials: 1,
            seed: 0,
            rate_scale: -3.0,
        }
        .run(
            std::slice::from_ref(&stored),
            CellTechnology::SlcRram,
            &SenseAmp::paper_default(),
            &eval,
        )
        .expect_err("negative rate_scale must be rejected");
        assert_eq!(err, EngineError::InvalidRateScale(-3.0));
    }

    #[test]
    fn chip_campaign_matches_fault_map_campaign_statistically() {
        // On an SLC layer both paths see (essentially) zero faults and
        // agree exactly; on MLC3 their mean fault counts must agree.
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let campaign = Campaign {
            trials: 40,
            seed: 7,
            rate_scale: 1.0,
        };
        let maps = campaign
            .run(
                std::slice::from_ref(&stored),
                CellTechnology::MlcRram,
                &SenseAmp::paper_default(),
                &eval,
            )
            .expect("campaign");
        let chips = campaign
            .run_chips(
                std::slice::from_ref(&stored),
                CellTechnology::MlcRram,
                &SenseAmp::paper_default(),
                &eval,
            )
            .expect("chip campaign");
        // Expected faults per trial are fractions of a fault at these
        // rates; mean counts must be within a fault of each other.
        assert!(
            (maps.mean_cell_faults - chips.mean_cell_faults).abs() < 1.0,
            "maps {} vs chips {}",
            maps.mean_cell_faults,
            chips.mean_cell_faults
        );
    }

    #[test]
    fn chip_campaign_is_bit_exact_with_materialized_reference() {
        // The engine's chip path no longer materializes anything: it
        // samples only the mis-programmed cells and evaluates sparse
        // deltas through the delta trial path. It must reproduce
        // the old materializing semantics — program every cell, decode
        // the chip, evaluate the matrices — bit for bit, trial by trial.
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let (trials, seed) = (48usize, 13u64);
        let chips = Campaign {
            trials,
            seed,
            rate_scale: 1.0,
        }
        .run_chips(
            std::slice::from_ref(&stored),
            CellTechnology::MlcRram,
            &SenseAmp::paper_default(),
            &eval,
        )
        .expect("chip campaign");
        let sa = SenseAmp::paper_default();
        let cell_for = |cfg: MlcConfig| CellTechnology::MlcRram.cell_model(cfg).with_sense_amp(&sa);
        let mut ref_errors = Vec::with_capacity(trials);
        let mut total_faults = 0usize;
        for t in 0..trials {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(t as u64));
            let mut stats = DecodeStats::default();
            let chip = stored.program_chip(&cell_for, &mut rng);
            let (m, s) = chip.decode();
            stats.absorb(s);
            total_faults += stats.cell_faults;
            ref_errors.push(eval.eval(std::slice::from_ref(&m)));
        }
        assert!(total_faults > 0, "no chip faults: the lock is vacuous");
        assert_eq!(chips.errors, ref_errors, "chip trials drifted");
        assert!((chips.mean_cell_faults - total_faults as f64 / trials as f64).abs() < 1e-12);
        // The trial path also reports the clean model's density.
        assert_eq!(chips.layer_nnz, vec![c.nonzeros() as u64]);
        assert!(chips.density > 0.0 && chips.density < 1.0);
    }

    #[test]
    fn chip_campaign_rejects_rate_scaling() {
        let (c, stored) = stored_layer(1.0, MlcConfig::SLC);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let err = Campaign {
            trials: 1,
            seed: 0,
            rate_scale: 2.0,
        }
        .run_chips(
            std::slice::from_ref(&stored),
            CellTechnology::SlcRram,
            &SenseAmp::paper_default(),
            &eval,
        )
        .expect_err("scaled chip campaign must be rejected");
        assert_eq!(err, EngineError::ChipRateScale(2.0));
    }

    #[test]
    fn within_itn_uses_mean() {
        let r = CampaignResult::from_trials(vec![
            (0.1, DecodeStats::default()),
            (0.2, DecodeStats::default()),
        ]);
        assert!((r.mean_error - 0.15).abs() < 1e-12);
        assert!(r.within_itn(0.1, 0.06));
        assert!(!r.within_itn(0.1, 0.04));
    }

    #[test]
    fn wilson_interval_is_sane() {
        // n = 0: no information.
        assert_eq!(wilson_interval(0.5, 0, 1.96), (0.0, 1.0));
        // The interval brackets the point estimate and tightens with n.
        let (lo_s, hi_s) = wilson_interval(0.2, 10, 1.96);
        let (lo_l, hi_l) = wilson_interval(0.2, 1000, 1.96);
        assert!(lo_s < 0.2 && 0.2 < hi_s);
        assert!(lo_l < 0.2 && 0.2 < hi_l);
        assert!(hi_l - lo_l < hi_s - lo_s, "more trials must tighten the CI");
        // Extremes stay clamped to [0, 1] and never collapse to a point
        // at finite n.
        let (lo0, hi0) = wilson_interval(0.0, 20, 1.96);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 1.0);
        let (lo1, hi1) = wilson_interval(1.0, 20, 1.96);
        assert!(lo1 < 1.0 && lo1 > 0.0);
        assert_eq!(hi1, 1.0);
    }

    #[test]
    fn from_outcomes_reports_failures_and_reduced_sample() {
        let outcomes = vec![
            (
                0,
                TrialOutcome::Ok {
                    error: 0.1,
                    stats: DecodeStats::default(),
                },
            ),
            (
                1,
                TrialOutcome::Failed {
                    seed: 99,
                    message: "boom".into(),
                },
            ),
            (
                2,
                TrialOutcome::Ok {
                    error: 0.3,
                    stats: DecodeStats::default(),
                },
            ),
        ];
        let r = CampaignResult::from_outcomes(4, outcomes);
        assert_eq!(r.requested_trials, 4);
        assert_eq!(r.completed_trials, 2);
        assert_eq!(r.errors, vec![0.1, 0.3]);
        assert!((r.mean_error - 0.2).abs() < 1e-12);
        assert_eq!(r.failed_trials.len(), 1);
        assert_eq!(r.failed_trials[0].trial, 1);
        assert_eq!(r.failed_trials[0].seed, 99);
        assert_eq!(r.failed_trials[0].message, "boom");
        // The CI reflects the reduced sample (n = 2, very wide).
        assert_eq!(r.error_ci, wilson_interval(0.2, 2, 1.96));
        assert!(r.error_ci.1 - r.error_ci.0 > 0.5);
    }

    #[test]
    fn isolated_run_only_faults_target() {
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        // Isolate the (tiny) sync-counter structure of a non-IdxSync
        // layer: it does not exist, so no faults at all.
        let result = Campaign {
            trials: 4,
            seed: 5,
            rate_scale: 1.0,
        }
        .run_isolated(
            std::slice::from_ref(&stored),
            StructureKind::SyncCounter,
            CellTechnology::MlcRram,
            &SenseAmp::paper_default(),
            &eval,
        )
        .expect("campaign");
        assert_eq!(result.mean_cell_faults, 0.0);
        assert!((result.mean_error - 0.05).abs() < 1e-9);
    }
}
