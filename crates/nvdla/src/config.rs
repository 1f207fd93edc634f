//! NVDLA baseline configurations (paper Table 3).

/// A fixed NVDLA datapath + memory-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NvdlaConfig {
    /// Configuration name ("NVDLA-64", "NVDLA-1024").
    pub name: String,
    /// Number of MAC units.
    pub macs: u32,
    /// Convolutional buffer size (KB).
    pub conv_buffer_kb: u32,
    /// On-chip activation SRAM (KB).
    pub sram_kb: u32,
    /// Clock frequency (GHz).
    pub freq_ghz: f64,
    /// Datapath area (mm², Table 3).
    pub datapath_area_mm2: f64,
    /// Average datapath power while executing (mW) — MACs, buffer,
    /// control. Calibrated so the §5.2 power-reduction factors reproduce.
    pub datapath_power_mw: f64,
    /// SRAM bandwidth (GB/s, Table 3).
    pub sram_bw_gbps: f64,
    /// DRAM read bandwidth available for weights (GB/s, Table 3).
    pub dram_bw_gbps: f64,
    /// LPDDR4 interface/background power while powered (mW, Table 3).
    pub dram_power_mw: f64,
    /// MAC utilization achieved on convolutional layers (dimensionless).
    pub mac_utilization: f64,
}

impl NvdlaConfig {
    /// The resource-constrained NVDLA-64 baseline (Table 3).
    pub fn nvdla_64() -> Self {
        Self {
            name: "NVDLA-64".into(),
            macs: 64,
            conv_buffer_kb: 128,
            sram_kb: 512,
            freq_ghz: 1.0,
            datapath_area_mm2: 0.55,
            datapath_power_mw: 45.0,
            sram_bw_gbps: 6.0,
            dram_bw_gbps: 25.0,
            dram_power_mw: 100.0,
            mac_utilization: 0.8,
        }
    }

    /// The high-performance NVDLA-1024 configuration (Table 3).
    pub fn nvdla_1024() -> Self {
        Self {
            name: "NVDLA-1024".into(),
            macs: 1024,
            conv_buffer_kb: 256,
            sram_kb: 2048,
            freq_ghz: 1.0,
            datapath_area_mm2: 2.4,
            datapath_power_mw: 330.0,
            sram_bw_gbps: 25.0,
            dram_bw_gbps: 25.0,
            dram_power_mw: 200.0,
            mac_utilization: 0.8,
        }
    }

    /// MACs retired per cycle at the configured utilization. NVDLA's MAC
    /// cells each process two int8 multiply-accumulates per cycle in
    /// 8-bit inference mode (the mode the paper's clustered weights use),
    /// so the int8 throughput is twice the nominal MAC count — without
    /// this factor the paper's Table 4 frame rates are unreachable.
    pub fn effective_macs_per_cycle(&self) -> f64 {
        self.macs as f64 * 2.0 * self.mac_utilization
    }

    /// Bytes per cycle deliverable from a link of `gbps` at this clock.
    pub fn bytes_per_cycle(&self, gbps: f64) -> f64 {
        gbps / self.freq_ghz
    }
}

/// DRAM transfer energy (pJ per byte moved), LPDDR4-class.
pub const DRAM_ENERGY_PJ_PER_BYTE: f64 = 40.0;

/// Energy to reload one byte of weights into DRAM from backing storage on
/// wake-up (§5.3's conservative estimate: backing-flash read + DRAM write
/// + link and controller energy).
pub const DRAM_RELOAD_PJ_PER_BYTE: f64 = 600.0;

/// SRAM transfer energy (pJ per byte moved).
pub const SRAM_ENERGY_PJ_PER_BYTE: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters() {
        let small = NvdlaConfig::nvdla_64();
        assert_eq!(small.macs, 64);
        assert_eq!(small.conv_buffer_kb, 128);
        assert_eq!(small.sram_kb, 512);
        assert_eq!(small.dram_power_mw, 100.0);
        let big = NvdlaConfig::nvdla_1024();
        assert_eq!(big.macs, 1024);
        assert_eq!(big.sram_kb, 2048);
        assert_eq!(big.dram_power_mw, 200.0);
        assert!(big.datapath_power_mw > small.datapath_power_mw);
    }

    #[test]
    fn effective_throughput() {
        let c = NvdlaConfig::nvdla_1024();
        // 1024 MAC cells x 2 int8 ops x 0.8 utilization.
        assert!((c.effective_macs_per_cycle() - 1638.4).abs() < 1e-9);
        assert!((c.bytes_per_cycle(25.0) - 25.0).abs() < 1e-9);
    }
}
