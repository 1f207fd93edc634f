//! Monte-Carlo injection campaigns: repeat (inject → decode → evaluate)
//! over many seeded trials and aggregate, exactly the Ares flow of §4.1.
//!
//! This module holds the campaign's data: the [`Campaign`] settings that
//! [`crate::DseConfig`] and [`crate::VulnerabilityStudy`] embed, and the
//! per-trial outcomes and [`CampaignResult`] a run returns. Runs start
//! on [`crate::engine::EvalContext`] (`run_campaign`, `run_isolated`,
//! `run_chips`), whose [`crate::engine::RunControl`] also covers resuming
//! from a checkpoint and merging shard checkpoints.

use maxnvm_encoding::storage::DecodeStats;
use maxnvm_envm::{CellTechnology, FaultMap, MlcConfig, SenseAmp};
use std::sync::Arc;

/// Campaign settings: trial budget, base seed and fault-rate scale.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// What one Monte-Carlo trial produced: its evaluation, or — when the
/// trial panicked and was isolated by the engine's per-trial
/// `catch_unwind` — the panic, recorded with the trial's seed so the
/// failure reproduces deterministically.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// probabilities over every injected structure's level histogram).
    pub expected_cell_faults: f64,
    /// Mean ECC-corrected codewords per trial.
    pub mean_ecc_corrected: f64,
    /// Mean uncorrectable codewords per trial.
    pub mean_ecc_uncorrectable: f64,
    /// Non-zero weights per stored layer (clean decode).
    pub layer_nnz: Vec<u64>,
    /// Achieved model density: total non-zeros over total weights
    /// (`0.0` when unreported).
    pub density: f64,
}

impl CampaignResult {
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
            errors,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineError, EvalContext, RunControl};
    use crate::evaluate::{AccuracyEval, ProxyEval};
    use maxnvm_dnn::network::LayerMatrix;
    use maxnvm_encoding::cluster::ClusteredLayer;
    use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
    use maxnvm_encoding::{EncodingKind, StructureKind};
    use rand::{Rng, SeedableRng};

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

    /// A context for `tech` on the default thread count.
    fn ctx(tech: CellTechnology, rate_scale: f64) -> EvalContext {
        EvalContext::new(tech, &SenseAmp::paper_default(), rate_scale).expect("context")
    }

    #[test]
    fn zero_fault_technology_reproduces_baseline() {
        let (c, stored) = stored_layer(1.0, MlcConfig::SLC);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        // SLC RRAM fault rates are below 1e-10: effectively no faults.
        let result = ctx(CellTechnology::SlcRram, 1.0)
            .run_campaign(
                5,
                1,
                std::slice::from_ref(&stored),
                &eval,
                &RunControl::default(),
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
        let result = ctx(CellTechnology::MlcRram, 1.0)
            .run_campaign(
                60,
                2,
                std::slice::from_ref(&stored),
                &eval,
                &RunControl::default(),
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
            ctx(CellTechnology::MlcRram, 1.0)
                .run_campaign(
                    8,
                    seed,
                    std::slice::from_ref(&stored),
                    &eval,
                    &RunControl::default(),
                )
                .expect("campaign")
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.errors, b.errors);
    }

    #[test]
    fn engine_fault_counts_track_the_exact_expectation() {
        // The engine samples faults sparsely (geometric skips); its
        // empirical mean fault count must sit near the analytically exact
        // expectation it reports.
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let result = ctx(CellTechnology::MlcRram, 40.0)
            .run_campaign(
                200,
                21,
                std::slice::from_ref(&stored),
                &eval,
                &RunControl::default(),
            )
            .expect("campaign");
        assert_eq!(result.errors.len(), 200);
        let expected = result.expected_cell_faults;
        assert!(expected > 0.5, "{expected}");
        let rel = (result.mean_cell_faults / expected - 1.0).abs();
        assert!(
            rel < 0.25,
            "mean {} vs expected {expected} (rel {rel})",
            result.mean_cell_faults
        );
    }

    #[test]
    fn chip_campaign_matches_fault_map_campaign_statistically() {
        // On an SLC layer both paths see (essentially) zero faults and
        // agree exactly; on MLC3 their mean fault counts must agree.
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let ctx = ctx(CellTechnology::MlcRram, 1.0);
        let stored = std::slice::from_ref(&stored);
        let maps = ctx
            .run_campaign(40, 7, stored, &eval, &RunControl::default())
            .expect("campaign");
        let chips = ctx.run_chips(40, 7, stored, &eval).expect("chip campaign");
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
        // The engine's chip path does not materialize anything: it
        // samples only the mis-programmed cells and evaluates sparse
        // deltas through the delta trial path. It must reproduce the
        // materializing semantics — program every cell, decode the
        // chip, evaluate the matrices — bit for bit, trial by trial.
        // (Both sides share `sample_chip_flips`; the per-cell read is
        // locked against the verbatim formula in `maxnvm_envm::level`.)
        let (c, stored) = stored_layer(1.0, MlcConfig::MLC3);
        let eval = ProxyEval::new(vec![c.reconstruct()], 0.05, 0.9);
        let (trials, seed) = (48usize, 13u64);
        let chips = ctx(CellTechnology::MlcRram, 1.0)
            .run_chips(trials, seed, std::slice::from_ref(&stored), &eval)
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
        let err = ctx(CellTechnology::SlcRram, 2.0)
            .run_chips(1, 0, std::slice::from_ref(&stored), &eval)
            .expect_err("scaled chip campaign must be rejected");
        assert_eq!(err, EngineError::ChipRateScale(2.0));
    }

    #[test]
    fn within_itn_uses_mean() {
        let ok = |error| TrialOutcome::Ok {
            error,
            stats: DecodeStats::default(),
        };
        let r = CampaignResult::from_outcomes(2, vec![(0, ok(0.1)), (1, ok(0.2))]);
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
        let result = ctx(CellTechnology::MlcRram, 1.0)
            .run_isolated(
                4,
                5,
                StructureKind::SyncCounter,
                std::slice::from_ref(&stored),
                &eval,
                &RunControl::default(),
            )
            .expect("campaign");
        assert_eq!(result.mean_cell_faults, 0.0);
        assert!((result.mean_error - 0.05).abs() < 1e-9);
    }
}
