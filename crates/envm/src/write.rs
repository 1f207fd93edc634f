//! Optimistic total-write-time model (§7.1, Table 5).
//!
//! eNVM writes alter the physical storage material and are orders of
//! magnitude slower than reads: CTT cells are programmed by iterative
//! hot-carrier-injection pulses taking ~100ms per program-verify sequence,
//! while RRAM uses µs-scale pulse trains. The paper's Table 5 reports the
//! *best-case* time to (re)write an entire model's weights, assuming all
//! cells sharing a program operation are written in parallel.

use crate::tech::CellTechnology;

/// Write-time model for one technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteModel {
    tech: CellTechnology,
    /// Seconds per program(-and-verify) operation.
    pulse_s: f64,
    /// Cells programmed in parallel by one operation (wordline-width
    /// parallelism across banks, best-case).
    parallelism: usize,
}

impl WriteModel {
    /// Best-case parallelism assumed for each technology (cells per program
    /// operation across all banks), calibrated against Table 5.
    pub fn for_tech(tech: CellTechnology) -> Self {
        let params = tech.device_params();
        let parallelism = match tech {
            // One 100ms HCI sequence programs a full wordline group.
            CellTechnology::MlcCtt => 12_288,
            // RRAM program current limits simultaneous cells per bank.
            CellTechnology::MlcRram => 1_024,
            CellTechnology::OptMlcRram => 1_024,
            CellTechnology::SlcRram => 1_024,
        };
        Self {
            tech,
            pulse_s: params.program_pulse_s,
            parallelism,
        }
    }

    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `pulse_s <= 0` or `parallelism == 0`.
    pub fn new(tech: CellTechnology, pulse_s: f64, parallelism: usize) -> Self {
        assert!(pulse_s > 0.0, "pulse time must be positive");
        assert!(parallelism > 0, "parallelism must be positive");
        Self {
            tech,
            pulse_s,
            parallelism,
        }
    }

    /// The technology this model describes.
    pub fn tech(&self) -> CellTechnology {
        self.tech
    }

    /// Optimistic total time (seconds) to program `cells` memory cells.
    pub fn total_write_time_s(&self, cells: u64) -> f64 {
        let ops = cells.div_ceil(self.parallelism as u64);
        ops as f64 * self.pulse_s
    }

    /// Effective write bandwidth in cells per second.
    pub fn cells_per_second(&self) -> f64 {
        self.parallelism as f64 / self.pulse_s
    }

    /// Pretty-prints a duration the way Table 5 does (ms / s / minutes).
    pub fn format_duration(seconds: f64) -> String {
        if seconds < 1.0 {
            format!("{:.0}ms", seconds * 1e3)
        } else if seconds < 90.0 {
            format!("{seconds:.1}s")
        } else {
            format!("{:.1} minutes", seconds / 60.0)
        }
    }
}

/// Endurance analysis (§7.1): "the desired frequency of rewriting weights
/// may also be constrained by the endurance of the memory cells."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    tech: CellTechnology,
    endurance_cycles: f64,
}

impl EnduranceModel {
    /// Model for a technology's published endurance.
    pub fn for_tech(tech: CellTechnology) -> Self {
        Self {
            tech,
            endurance_cycles: tech.device_params().endurance_cycles,
        }
    }

    /// The technology.
    pub fn tech(&self) -> CellTechnology {
        self.tech
    }

    /// Device lifetime in years if the full weight set is rewritten every
    /// `interval_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval_s <= 0`.
    pub fn lifetime_years(&self, interval_s: f64) -> f64 {
        assert!(interval_s > 0.0, "rewrite interval must be positive");
        self.endurance_cycles * interval_s / (365.25 * 24.0 * 3600.0)
    }

    /// The shortest rewrite interval (seconds) compatible with a target
    /// lifetime in years.
    pub fn min_rewrite_interval_s(&self, lifetime_years: f64) -> f64 {
        assert!(lifetime_years > 0.0, "lifetime must be positive");
        lifetime_years * 365.25 * 24.0 * 3600.0 / self.endurance_cycles
    }

    /// Whether a deployment that re-writes its weights every `interval_s`
    /// seconds is write-time feasible *and* survives `lifetime_years`:
    /// the §7.1 judgment call ("periodic down-time for synchronization
    /// and charging may be permissible").
    pub fn rewrite_feasible(&self, cells: u64, interval_s: f64, lifetime_years: f64) -> bool {
        let write = WriteModel::for_tech(self.tech).total_write_time_s(cells);
        write < interval_s && self.lifetime_years(interval_s) >= lifetime_years
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctt_writes_take_minutes_rram_milliseconds() {
        // Table 5 orders of magnitude: VGG16 (32MB at 3 bits/cell ≈ 89.5M
        // cells) takes minutes on CTT, sub-second on RRAM variants.
        let cells = 32 * 1024 * 1024 * 8 / 3;
        let ctt = WriteModel::for_tech(CellTechnology::MlcCtt).total_write_time_s(cells);
        let rram = WriteModel::for_tech(CellTechnology::MlcRram).total_write_time_s(cells);
        let slc_cells = 32 * 1024 * 1024 * 8;
        let slc = WriteModel::for_tech(CellTechnology::SlcRram).total_write_time_s(slc_cells);
        assert!(ctt > 300.0 && ctt < 1800.0, "CTT VGG16 write {ctt}s");
        assert!(rram > 0.05 && rram < 5.0, "RRAM VGG16 write {rram}s");
        assert!(slc < 0.2, "SLC VGG16 write {slc}s");
        assert!(ctt / rram > 100.0, "CTT must be orders of magnitude slower");
    }

    #[test]
    fn write_time_scales_with_cells() {
        let m = WriteModel::for_tech(CellTechnology::MlcRram);
        let t1 = m.total_write_time_s(1_000_000);
        let t2 = m.total_write_time_s(2_000_000);
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn ceil_division_counts_partial_op() {
        let m = WriteModel::new(CellTechnology::SlcRram, 1.0, 100);
        assert_eq!(m.total_write_time_s(1), 1.0);
        assert_eq!(m.total_write_time_s(100), 1.0);
        assert_eq!(m.total_write_time_s(101), 2.0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(WriteModel::format_duration(0.013), "13ms");
        assert_eq!(WriteModel::format_duration(4.7), "4.7s");
        assert_eq!(WriteModel::format_duration(732.0), "12.2 minutes");
    }

    #[test]
    fn ctt_endurance_limits_rewrite_frequency() {
        // CTT endures ~1e4 cycles: daily model updates give ~27 years,
        // per-minute updates wear it out within weeks.
        let e = EnduranceModel::for_tech(CellTechnology::MlcCtt);
        assert!(e.lifetime_years(24.0 * 3600.0) > 20.0);
        assert!(e.lifetime_years(60.0) < 0.1);
        // RRAM's 1e6 cycles tolerate much more frequent updates.
        let r = EnduranceModel::for_tech(CellTechnology::MlcRram);
        assert!(r.lifetime_years(60.0) > 1.0);
    }

    #[test]
    fn min_interval_inverts_lifetime() {
        let e = EnduranceModel::for_tech(CellTechnology::MlcRram);
        let interval = e.min_rewrite_interval_s(10.0);
        assert!((e.lifetime_years(interval) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rewrite_feasibility_couples_write_time_and_endurance() {
        let cells = 90_000_000u64; // VGG16-scale
        let ctt = EnduranceModel::for_tech(CellTechnology::MlcCtt);
        // Daily updates: write takes ~12 minutes, endurance fine.
        assert!(ctt.rewrite_feasible(cells, 24.0 * 3600.0, 10.0));
        // Updates every 5 minutes: the write itself doesn't fit.
        assert!(!ctt.rewrite_feasible(cells, 300.0, 1.0));
        // RRAM handles 5-minute updates easily.
        let rram = EnduranceModel::for_tech(CellTechnology::MlcRram);
        assert!(rram.rewrite_feasible(cells, 300.0, 5.0));
    }

    #[test]
    fn bandwidth_is_consistent() {
        let m = WriteModel::for_tech(CellTechnology::OptMlcRram);
        let cells = 10_240_000u64;
        let t = m.total_write_time_s(cells);
        let bw = m.cells_per_second();
        assert!(((cells as f64 / t) / bw - 1.0).abs() < 0.01);
    }
}
