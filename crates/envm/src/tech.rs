//! The four memory proposals evaluated in the paper (§2, §5) and their
//! calibrated device parameters.
//!
//! Level-distribution calibration targets (paper §2.3): MLC3 adjacent-level
//! fault rates in the `1e-3 .. 1e-5` band, non-adjacent misreads at or below
//! `1.5e-10`, and the CTT's hallmark *wide unprogrammed level* (intrinsic
//! Vth variation, Fig. 2b) separated from the first programmed state by an
//! extra guard gap.

use crate::level::{CellModel, LevelDistribution, MlcConfig};
use std::fmt;

/// One of the eNVM proposals characterized in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTechnology {
    /// Multi-level charge-trap transistor, measured 16nm FinFET test chip.
    MlcCtt,
    /// MLC extrapolation of published RRAM (28nm CMOS-access, Chang et al.).
    MlcRram,
    /// Optimistically scaled RRAM (10F² cell) probing the technology's
    /// maximum potential.
    OptMlcRram,
    /// Single-level-cell RRAM baseline (Lee et al.).
    SlcRram,
}

impl CellTechnology {
    /// All four proposals, in the order the paper's figures list them.
    pub const ALL: [CellTechnology; 4] = [
        CellTechnology::OptMlcRram,
        CellTechnology::MlcCtt,
        CellTechnology::MlcRram,
        CellTechnology::SlcRram,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            CellTechnology::MlcCtt => "MLC-CTT",
            CellTechnology::MlcRram => "MLC-RRAM",
            CellTechnology::OptMlcRram => "Opt MLC-RRAM",
            CellTechnology::SlcRram => "SLC-RRAM",
        }
    }

    /// Maximum bits per cell this proposal supports.
    pub fn max_bits_per_cell(self) -> u8 {
        match self {
            CellTechnology::SlcRram => 1,
            _ => 3,
        }
    }

    /// MLC configurations available for this technology.
    pub fn available_configs(self) -> Vec<MlcConfig> {
        MlcConfig::ALL
            .iter()
            .copied()
            .filter(|c| c.bits() <= self.max_bits_per_cell())
            .collect()
    }

    /// Device parameters used by the array model (`maxnvm-nvsim`) and the
    /// write-time model.
    pub fn device_params(self) -> DeviceParams {
        match self {
            // 16nm FinFET, bare-transistor cell: no access device, so the
            // cell is extremely small; programmed by iterative HCI with
            // ~100ms per program-verify sequence.
            CellTechnology::MlcCtt => DeviceParams {
                tech: self,
                node_nm: 16.0,
                cell_area_f2: 6.0,
                read_voltage: 0.8,
                cell_read_current_ua: 2.0,
                program_pulse_s: 0.1,
                program_pulses_per_bit: 1.0,
                endurance_cycles: 1e4,
            },
            // 28nm CMOS-access RRAM (Chang et al. [8]), MLC via pulse-train
            // programming (Zhao et al. [74]): ~7µs per cell program.
            CellTechnology::MlcRram => DeviceParams {
                tech: self,
                node_nm: 28.0,
                cell_area_f2: 39.0,
                read_voltage: 0.5,
                cell_read_current_ua: 10.0,
                program_pulse_s: 7.0e-6,
                program_pulses_per_bit: 1.0,
                endurance_cycles: 1e6,
            },
            // Optimistic 10F² cell scaled to 16nm.
            CellTechnology::OptMlcRram => DeviceParams {
                tech: self,
                node_nm: 16.0,
                cell_area_f2: 10.0,
                read_voltage: 0.5,
                cell_read_current_ua: 8.0,
                program_pulse_s: 2.5e-6,
                program_pulses_per_bit: 1.0,
                endurance_cycles: 1e6,
            },
            // SLC RRAM baseline: single fast write pulse (~100ns + verify).
            CellTechnology::SlcRram => DeviceParams {
                tech: self,
                node_nm: 28.0,
                cell_area_f2: 39.0,
                read_voltage: 0.5,
                cell_read_current_ua: 10.0,
                program_pulse_s: 1.0e-7,
                program_pulses_per_bit: 1.0,
                endurance_cycles: 1e6,
            },
        }
    }

    /// Builds the calibrated [`CellModel`] for this technology at the given
    /// bits-per-cell.
    ///
    /// # Panics
    ///
    /// Panics if `config` exceeds [`CellTechnology::max_bits_per_cell`].
    pub fn cell_model(self, config: MlcConfig) -> CellModel {
        assert!(
            config.bits() <= self.max_bits_per_cell(),
            "{} supports at most {} bits per cell",
            self.name(),
            self.max_bits_per_cell()
        );
        let n = config.levels();
        match self {
            CellTechnology::MlcCtt => {
                // Wide unprogrammed level (intrinsic Vth spread), tight
                // programmed levels (iterative write-and-check, Fig. 2b),
                // extra guard gap after level 0 (§2.2.1).
                let sigma_unprog = 0.0452;
                let sigma_prog = 0.01353;
                // `n` is 2, 4, or 8: MlcConfig is validated to 1..=3
                // bits. The last arm carries the densest calibration.
                let first_prog = match n {
                    2 => 1.0,
                    4 => 0.40,
                    _ => 0.25,
                };
                let mut levels = vec![LevelDistribution::new(0.0, sigma_unprog)];
                for i in 1..n {
                    let mean =
                        first_prog + (1.0 - first_prog) * (i - 1) as f64 / ((n - 2).max(1)) as f64;
                    levels.push(LevelDistribution::new(mean, sigma_prog));
                }
                CellModel::new(levels)
            }
            CellTechnology::MlcRram | CellTechnology::SlcRram => {
                // Pulse-train programmed filament: uniform spread per level
                // (Zhao et al.), evenly spaced across the resistance window.
                Self::evenly_spaced(n, 0.01657)
            }
            CellTechnology::OptMlcRram => {
                // Projected improved multi-level control (tighter spreads).
                Self::evenly_spaced(n, 0.01576)
            }
        }
    }

    fn evenly_spaced(n: usize, sigma: f64) -> CellModel {
        let levels = (0..n)
            .map(|i| LevelDistribution::new(i as f64 / (n - 1) as f64, sigma))
            .collect();
        CellModel::new(levels)
    }
}

impl fmt::Display for CellTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical device parameters consumed by the array and write-time models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Which technology these parameters describe.
    pub tech: CellTechnology,
    /// Process node in nanometres.
    pub node_nm: f64,
    /// Cell footprint in F² (feature-size-squared units).
    pub cell_area_f2: f64,
    /// Nominal wordline read voltage (V).
    pub read_voltage: f64,
    /// Typical per-cell read current (µA), sets bitline sensing energy.
    pub cell_read_current_ua: f64,
    /// Duration of one program(-and-verify) operation (seconds).
    pub program_pulse_s: f64,
    /// Scaling of program iterations with stored bits (1.0 = linear in
    /// levels handled by the pulse itself).
    pub program_pulses_per_bit: f64,
    /// Write endurance (program/erase cycles).
    pub endurance_cycles: f64,
}

impl DeviceParams {
    /// Physical cell area in mm² (`cell_area_f2 × F²`).
    pub fn cell_area_mm2(&self) -> f64 {
        let f_mm = self.node_nm * 1e-6;
        self.cell_area_f2 * f_mm * f_mm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense::SenseAmp;

    #[test]
    fn mlc3_fault_rates_land_in_paper_band() {
        // §2.3: "fault rates for MLC3 range from 1e-3 to 1e-5".
        for tech in [
            CellTechnology::MlcCtt,
            CellTechnology::MlcRram,
            CellTechnology::OptMlcRram,
        ] {
            let cell = tech.cell_model(MlcConfig::MLC3);
            let worst = cell.fault_map().worst_adjacent_rate();
            assert!(
                (1e-6..1e-2).contains(&worst),
                "{tech}: MLC3 worst adjacent rate {worst} outside band"
            );
        }
    }

    #[test]
    fn non_adjacent_misreads_below_paper_bound() {
        // Footnote 1: non-adjacent misread probability 1.5e-10 or below.
        for tech in CellTechnology::ALL {
            for cfg in tech.available_configs() {
                let cell = tech.cell_model(cfg);
                let bound = cell.non_adjacent_bound();
                assert!(bound <= 1.5e-10, "{tech} {cfg}: non-adjacent bound {bound}");
            }
        }
    }

    #[test]
    fn slc_and_mlc2_are_much_safer_than_mlc3() {
        for tech in [
            CellTechnology::MlcCtt,
            CellTechnology::MlcRram,
            CellTechnology::OptMlcRram,
        ] {
            let r1 = tech
                .cell_model(MlcConfig::SLC)
                .fault_map()
                .worst_adjacent_rate();
            let r2 = tech
                .cell_model(MlcConfig::MLC2)
                .fault_map()
                .worst_adjacent_rate();
            let r3 = tech
                .cell_model(MlcConfig::MLC3)
                .fault_map()
                .worst_adjacent_rate();
            assert!(r1 < r2 && r2 < r3, "{tech}: {r1} {r2} {r3}");
            assert!(r2 < 1e-6, "{tech}: MLC2 should be near-safe, got {r2}");
        }
    }

    #[test]
    fn ctt_unprogrammed_pair_dominates_but_guard_gap_bounds_it() {
        // Fig. 2b: the unprogrammed level is much wider than the tightly
        // write-verified programmed levels, so its boundary is the worst
        // fault pair — but the §2.2.1 guard gap keeps it within ~5x of the
        // programmed pairs rather than orders of magnitude above.
        let cell = CellTechnology::MlcCtt.cell_model(MlcConfig::MLC3);
        let fm = cell.fault_map();
        let unprog_pair = fm.p_up(0).max(fm.p_down(1));
        let worst_prog = (1..7).map(|l| fm.p_up(l)).fold(0.0f64, f64::max);
        assert!(unprog_pair > worst_prog, "unprogrammed should dominate");
        assert!(
            unprog_pair < 10.0 * worst_prog,
            "guard gap failed: {unprog_pair} vs {worst_prog}"
        );
        // The unprogrammed sigma really is the widest (Fig. 2b).
        let s0 = cell.levels()[0].sigma;
        assert!(cell.levels()[1..].iter().all(|l| l.sigma < s0));
    }

    #[test]
    fn opt_rram_beats_ctt_at_mlc3() {
        // The optimistic RRAM sustains 3 bits/cell where CTT cannot (§5.1):
        // its worst-case rate must be lower.
        let ctt = CellTechnology::MlcCtt
            .cell_model(MlcConfig::MLC3)
            .fault_map()
            .worst_adjacent_rate();
        let opt = CellTechnology::OptMlcRram
            .cell_model(MlcConfig::MLC3)
            .fault_map()
            .worst_adjacent_rate();
        assert!(opt < ctt, "opt {opt} vs ctt {ctt}");
    }

    #[test]
    fn sense_amp_keeps_rates_within_2x() {
        // §2.3 sizing criterion. It applies to the *relevant* (MLC3)
        // inter-level fault rates — deep-tail MLC2/SLC rates are
        // exponentially sensitive to any added offset but are so small
        // (<1e-10) that the inflation never matters downstream.
        let sa = SenseAmp::paper_default();
        for tech in [
            CellTechnology::MlcCtt,
            CellTechnology::MlcRram,
            CellTechnology::OptMlcRram,
        ] {
            let cell = tech.cell_model(MlcConfig::MLC3);
            let base = cell.fault_map().worst_adjacent_rate();
            let with = cell.with_sense_amp(&sa).fault_map().worst_adjacent_rate();
            assert!(
                with > base && with < 2.0 * base,
                "{tech}: SA inflates {base} -> {with}"
            );
        }
    }

    #[test]
    fn slc_rram_is_single_bit_only() {
        assert_eq!(CellTechnology::SlcRram.max_bits_per_cell(), 1);
        assert_eq!(CellTechnology::SlcRram.available_configs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "supports at most")]
    fn slc_rram_rejects_mlc() {
        CellTechnology::SlcRram.cell_model(MlcConfig::MLC2);
    }

    #[test]
    fn cell_areas_reflect_density_ordering() {
        // CTT (bare transistor) < optimistic RRAM < CMOS-access RRAM.
        let ctt = CellTechnology::MlcCtt.device_params().cell_area_mm2();
        let opt = CellTechnology::OptMlcRram.device_params().cell_area_mm2();
        let rram = CellTechnology::MlcRram.device_params().cell_area_mm2();
        assert!(ctt < opt && opt < rram, "{ctt} {opt} {rram}");
    }

    #[test]
    fn write_pulse_ordering_matches_paper() {
        // §1: CTT write latency is orders of magnitude above RRAM.
        let ctt = CellTechnology::MlcCtt.device_params().program_pulse_s;
        let rram = CellTechnology::MlcRram.device_params().program_pulse_s;
        let slc = CellTechnology::SlcRram.device_params().program_pulse_s;
        assert!(ctt / rram > 1e3);
        assert!(rram > slc);
    }
}
