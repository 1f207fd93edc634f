//! Weight sources: off-chip DRAM (baseline), on-chip eNVM (§5), or the §6
//! hybrid partition.

use crate::config::{NvdlaConfig, DRAM_ENERGY_PJ_PER_BYTE};
use maxnvm_nvsim::ArrayDesign;

/// Where a layer's weights are fetched from.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSource {
    /// Baseline: all weights stream from off-chip LPDDR4 (Fig. 7a).
    Dram,
    /// All weights live in a characterized on-chip eNVM macro (Fig. 7b).
    Envm(ArrayDesign),
    /// Fixed on-chip budget split between SRAM and eNVM; weights not
    /// assigned to eNVM stream from DRAM (Fig. 7c). `fractions[i]` is the
    /// share of layer `i`'s weights resident on-chip — the paper's greedy
    /// placement fills the most DRAM-bottlenecked layers first and may
    /// split a layer across both stores.
    Hybrid {
        /// The on-chip eNVM macro.
        envm: ArrayDesign,
        /// Per-layer on-chip weight fraction in `[0, 1]`.
        fractions: Vec<f64>,
    },
}

impl WeightSource {
    /// Fraction of layer `idx`'s weights resident on-chip.
    pub fn on_chip_fraction(&self, idx: usize) -> f64 {
        match self {
            WeightSource::Dram => 0.0,
            WeightSource::Envm(_) => 1.0,
            WeightSource::Hybrid { fractions, .. } => fractions.get(idx).copied().unwrap_or(0.0),
        }
    }

    /// Cycles to stream `bytes` of layer `idx`'s weights. The eNVM and
    /// DRAM interfaces are independent, so a split layer fetches from both
    /// in parallel and finishes with the slower stream.
    pub fn weight_cycles(&self, idx: usize, bytes: u64, cfg: &NvdlaConfig) -> u64 {
        let envm_bw = match self {
            WeightSource::Dram => 0.0,
            WeightSource::Envm(d) | WeightSource::Hybrid { envm: d, .. } => d.read_bandwidth_gbps,
        };
        let f = self.on_chip_fraction(idx);
        let on_bytes = (bytes as f64 * f).round();
        let off_bytes = bytes as f64 - on_bytes;
        let on_cycles = if on_bytes > 0.0 {
            on_bytes / cfg.bytes_per_cycle(envm_bw)
        } else {
            0.0
        };
        let off_cycles = if off_bytes > 0.0 {
            off_bytes / cfg.bytes_per_cycle(cfg.dram_bw_gbps)
        } else {
            0.0
        };
        on_cycles.max(off_cycles).ceil() as u64
    }

    /// Energy (pJ) to fetch `bytes` of layer `idx`'s weights.
    pub fn fetch_energy_pj(&self, idx: usize, bytes: u64) -> f64 {
        let f = self.on_chip_fraction(idx);
        let on_bytes = (bytes as f64 * f).round() as u64;
        let off_bytes = bytes - on_bytes;
        let envm_pj = match self {
            WeightSource::Dram => 0.0,
            WeightSource::Envm(d) | WeightSource::Hybrid { envm: d, .. } => {
                d.read_energy_for_bytes(on_bytes)
            }
        };
        envm_pj + off_bytes as f64 * DRAM_ENERGY_PJ_PER_BYTE
    }

    /// Whether the system still needs the DRAM interface powered for
    /// weight traffic.
    pub fn needs_dram(&self) -> bool {
        match self {
            WeightSource::Dram => true,
            WeightSource::Envm(_) => false,
            WeightSource::Hybrid { fractions, .. } => fractions.iter().any(|&f| f < 1.0),
        }
    }

    /// Background power of the weight store itself (mW): eNVM leakage, or
    /// 0 for DRAM (accounted separately as interface power).
    pub fn store_leakage_mw(&self) -> f64 {
        match self {
            WeightSource::Dram => 0.0,
            WeightSource::Envm(d) | WeightSource::Hybrid { envm: d, .. } => d.leakage_mw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_envm::CellTechnology;
    use maxnvm_nvsim::{characterize, ArrayRequest, OptTarget};

    fn ctt_array() -> ArrayDesign {
        characterize(
            &ArrayRequest::new(CellTechnology::MlcCtt, 50_000_000, 2),
            OptTarget::ReadEdp,
        )
        .expect("feasible organization")
    }

    #[test]
    fn dram_uses_table3_bandwidth() {
        let cfg = NvdlaConfig::nvdla_64();
        // 25 GB/s at 1 GHz = 25 B/cycle: 2500 bytes take 100 cycles.
        assert_eq!(WeightSource::Dram.weight_cycles(0, 2500, &cfg), 100);
        assert!(WeightSource::Dram.needs_dram());
    }

    #[test]
    fn envm_fetch_energy_is_orders_below_dram() {
        // §5.2: weight-fetch energy reduced by over 100x vs DRAM.
        let envm = WeightSource::Envm(ctt_array());
        let dram = WeightSource::Dram;
        let bytes = 1_000_000;
        assert!(
            dram.fetch_energy_pj(0, bytes) > 100.0 * envm.fetch_energy_pj(0, bytes),
            "dram {} vs envm {}",
            dram.fetch_energy_pj(0, bytes),
            envm.fetch_energy_pj(0, bytes)
        );
        assert!(!envm.needs_dram());
    }

    #[test]
    fn hybrid_routes_by_layer() {
        let h = WeightSource::Hybrid {
            envm: ctt_array(),
            fractions: vec![1.0, 0.0],
        };
        assert_eq!(h.on_chip_fraction(0), 1.0);
        assert_eq!(h.on_chip_fraction(1), 0.0);
        assert!(h.needs_dram());
        let all_on_chip = WeightSource::Hybrid {
            envm: ctt_array(),
            fractions: vec![1.0, 1.0],
        };
        assert!(!all_on_chip.needs_dram());
    }

    #[test]
    fn split_layer_fetches_in_parallel() {
        let cfg = NvdlaConfig::nvdla_64();
        let envm = ctt_array();
        let whole = WeightSource::Dram.weight_cycles(0, 1_000_000, &cfg);
        let half = WeightSource::Hybrid {
            envm,
            fractions: vec![0.5],
        }
        .weight_cycles(0, 1_000_000, &cfg);
        // Half the DRAM traffic -> at most ~half the DRAM-side time (the
        // eNVM side streams concurrently).
        assert!(half <= whole / 2 + envm_side_slack(&envm, 500_000, &cfg));
        fn envm_side_slack(d: &maxnvm_nvsim::ArrayDesign, bytes: u64, cfg: &NvdlaConfig) -> u64 {
            (bytes as f64 / cfg.bytes_per_cycle(d.read_bandwidth_gbps)).ceil() as u64
        }
    }
}
