//! SRAM macro model: NVDLA's convolution buffer and activation SRAM, and
//! the SRAM side of the hybrid-memory study (§6).
//!
//! The paper budgets "1mm², enough to accommodate about 1MB of SRAM" in a
//! modern node (§6); reads are ~1ns and cheap relative to DRAM.

/// SRAM density assumed by the hybrid study: bytes per mm².
pub const SRAM_BYTES_PER_MM2: f64 = 1024.0 * 1024.0;

/// A characterized on-chip SRAM macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Macro area (mm²).
    pub area_mm2: f64,
    /// Read latency (ns).
    pub read_latency_ns: f64,
    /// Energy per 128-bit access (pJ).
    pub access_energy_pj: f64,
    /// Leakage power (mW).
    pub leakage_mw: f64,
    /// Sustained bandwidth (GB/s).
    pub bandwidth_gbps: f64,
}

impl SramMacro {
    /// Builds a macro of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn new(bytes: u64) -> Self {
        assert!(bytes > 0, "empty SRAM");
        let mb = bytes as f64 / (1024.0 * 1024.0);
        Self {
            bytes,
            area_mm2: bytes as f64 / SRAM_BYTES_PER_MM2,
            // Bigger macros pay more H-tree levels.
            read_latency_ns: 0.7 + 0.15 * mb.max(0.062_5).log2().max(0.0),
            access_energy_pj: 1.2 + 0.4 * mb.max(0.062_5).log2().max(0.0),
            leakage_mw: 18.0 * mb,
            bandwidth_gbps: 6.0 + 9.5 * mb,
        }
    }

    /// The largest macro fitting in `area_mm2` of silicon, or `None` if the
    /// budget is below 64KB.
    pub fn fit_in_area(area_mm2: f64) -> Option<Self> {
        let bytes = (area_mm2 * SRAM_BYTES_PER_MM2) as u64;
        if bytes < 64 * 1024 {
            None
        } else {
            Some(Self::new(bytes))
        }
    }

    /// Energy to move `bytes` through the macro (pJ).
    pub fn energy_for_bytes(&self, bytes: u64) -> f64 {
        let accesses = (bytes * 8).div_ceil(128);
        accesses as f64 * self.access_energy_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_megabyte_is_about_a_square_millimetre() {
        let s = SramMacro::new(1024 * 1024);
        assert!((s.area_mm2 - 1.0).abs() < 0.05);
        assert!((0.5..2.0).contains(&s.read_latency_ns));
    }

    #[test]
    fn bigger_macros_are_slower_and_hungrier() {
        let small = SramMacro::new(256 * 1024);
        let big = SramMacro::new(4 * 1024 * 1024);
        assert!(big.read_latency_ns > small.read_latency_ns);
        assert!(big.access_energy_pj > small.access_energy_pj);
        assert!(big.leakage_mw > small.leakage_mw);
        assert!(big.bandwidth_gbps > small.bandwidth_gbps);
    }

    #[test]
    fn fit_in_area_honours_budget() {
        let s = SramMacro::fit_in_area(0.5).unwrap();
        assert!(s.area_mm2 <= 0.5 + 1e-9);
        assert!(SramMacro::fit_in_area(0.01).is_none());
    }

    #[test]
    fn sram_bandwidth_matches_table3_scale() {
        // Table 3: SRAM BW 6 GB/s (NVDLA-64, 512KB) to 25 GB/s (2MB).
        let small = SramMacro::new(512 * 1024);
        let big = SramMacro::new(2 * 1024 * 1024);
        assert!(
            (4.0..15.0).contains(&small.bandwidth_gbps),
            "{}",
            small.bandwidth_gbps
        );
        assert!(
            (15.0..40.0).contains(&big.bandwidth_gbps),
            "{}",
            big.bandwidth_gbps
        );
    }

    #[test]
    fn energy_scales_with_traffic() {
        let s = SramMacro::new(1024 * 1024);
        assert!((s.energy_for_bytes(2048) / s.energy_for_bytes(1024) - 2.0).abs() < 0.01);
    }
}
