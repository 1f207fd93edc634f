//! Retention modeling: how stored levels drift over the deployment
//! lifetime.
//!
//! The paper's companion device study (Ma et al. \[46\], which Fig. 2 draws
//! from) demonstrates "reliable long-term retention" for CTT; RRAM
//! filaments relax more visibly. Retention loss appears as (a) a slow
//! drift of programmed level means toward the unprogrammed state and
//! (b) a widening of the level distributions — both of which grow the
//! adjacent-level overlap that sets the fault rates. This module applies
//! a log-time drift law to a [`CellModel`] so campaigns can be run "at
//! age T".

use crate::level::{CellModel, LevelDistribution};
use crate::tech::CellTechnology;

/// Per-technology retention parameters (log-time drift law:
/// `Δ = coefficient × log10(1 + t/t0)` with `t0` = 1 hour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionParams {
    /// Fractional mean drift toward the erased state per decade of time.
    pub mean_drift_per_decade: f64,
    /// Fractional sigma growth per decade of time.
    pub sigma_growth_per_decade: f64,
}

impl RetentionParams {
    /// Published-behaviour-shaped defaults per technology: CTT retains
    /// charge in the gate stack (very slow drift); RRAM filaments relax
    /// faster; the aggressively scaled cell faster still.
    pub fn for_tech(tech: CellTechnology) -> Self {
        match tech {
            CellTechnology::MlcCtt => Self {
                mean_drift_per_decade: 0.002,
                sigma_growth_per_decade: 0.01,
            },
            CellTechnology::MlcRram | CellTechnology::SlcRram => Self {
                mean_drift_per_decade: 0.004,
                sigma_growth_per_decade: 0.015,
            },
            CellTechnology::OptMlcRram => Self {
                mean_drift_per_decade: 0.005,
                sigma_growth_per_decade: 0.018,
            },
        }
    }

    /// Applies `years` of drift to a cell model: programmed means relax
    /// toward level 0's mean, sigmas widen. Thresholds are kept where the
    /// sense amps were trimmed at time zero — drift is exactly what the
    /// references do *not* track.
    ///
    /// # Panics
    ///
    /// Panics if `years < 0`.
    pub fn age(&self, cell: &CellModel, years: f64) -> CellModel {
        assert!(years >= 0.0, "negative age");
        if years == 0.0 {
            return cell.clone();
        }
        let hours = years * 365.25 * 24.0;
        let decades = (1.0 + hours).log10();
        let erased_mean = cell.levels()[0].mean;
        let levels: Vec<LevelDistribution> = cell
            .levels()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == 0 {
                    *l
                } else {
                    let drift = (l.mean - erased_mean) * self.mean_drift_per_decade * decades;
                    LevelDistribution::new(
                        l.mean - drift,
                        l.sigma * (1.0 + self.sigma_growth_per_decade * decades),
                    )
                }
            })
            .collect();
        CellModel::with_thresholds(levels, cell.thresholds().to_vec())
    }
}

/// Years until the worst adjacent-level misread rate of an aged cell
/// crosses `rate_limit` (bisection over a 0–50-year window; returns 50.0
/// if it never crosses).
pub fn years_to_rate(tech: CellTechnology, cell: &CellModel, rate_limit: f64) -> f64 {
    let params = RetentionParams::for_tech(tech);
    let rate_at = |y: f64| params.age(cell, y).fault_map().worst_adjacent_rate();
    if rate_at(50.0) <= rate_limit {
        return 50.0;
    }
    if rate_at(0.0) >= rate_limit {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 50.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if rate_at(mid) <= rate_limit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::MlcConfig;

    #[test]
    fn zero_age_is_identity() {
        let cell = CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3);
        let aged = RetentionParams::for_tech(CellTechnology::MlcCtt).age(&cell, 0.0);
        assert_eq!(aged, cell);
    }

    #[test]
    fn aging_monotonically_raises_fault_rates() {
        let cell = CellTechnology::MlcRram.cell_model(MlcConfig::MLC3);
        let p = RetentionParams::for_tech(CellTechnology::MlcRram);
        let mut last = cell.fault_map().worst_adjacent_rate();
        for years in [0.1, 1.0, 5.0, 10.0] {
            let rate = p.age(&cell, years).fault_map().worst_adjacent_rate();
            assert!(rate > last, "rate must grow with age: {rate} at {years}y");
            last = rate;
        }
    }

    #[test]
    fn ctt_retains_longer_than_rram() {
        // [46]: CTT's gate-stack charge storage retains markedly better
        // than RRAM filaments.
        let limit = 1e-3;
        let ctt = years_to_rate(
            CellTechnology::MlcCtt,
            &CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3),
            limit,
        );
        let opt = years_to_rate(
            CellTechnology::OptMlcRram,
            &CellTechnology::OptMlcRram.cell_model(MlcConfig::MLC3),
            limit,
        );
        assert!(ctt > opt, "CTT {ctt}y vs Opt RRAM {opt}y");
    }

    #[test]
    fn ten_year_retention_holds_for_all_mlc3_techs() {
        // The deployment story (§5.3: devices that sit powered off between
        // inferences) needs the levels to stay readable for years.
        for tech in [
            CellTechnology::MlcCtt,
            CellTechnology::MlcRram,
            CellTechnology::OptMlcRram,
        ] {
            let cell = tech.cell_model(MlcConfig::MLC3);
            let aged = RetentionParams::for_tech(tech).age(&cell, 10.0);
            let rate = aged.fault_map().worst_adjacent_rate();
            assert!(
                rate < 5e-3,
                "{tech}: 10-year MLC3 rate {rate} would break the DSE budget"
            );
        }
    }

    #[test]
    fn erased_level_does_not_drift() {
        let cell = CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3);
        let aged = RetentionParams::for_tech(CellTechnology::MlcCtt).age(&cell, 10.0);
        assert_eq!(aged.levels()[0], cell.levels()[0]);
        // Programmed levels moved toward erased.
        assert!(aged.levels()[7].mean < cell.levels()[7].mean);
    }
}
