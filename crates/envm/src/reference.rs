//! Published eNVM chips used to ground the models (paper Table 1).
//!
//! These are the fabricated reference points the paper extrapolates from;
//! `maxnvm-nvsim` calibrates its array model against their macro area and
//! read latency (Fig. 1 regenerates the comparison at a fixed 4MB).

/// The access-device style of a published memory macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessDevice {
    /// Conventional CMOS access transistor (1T1R-style array).
    Cmos,
    /// Diode-selected crossbar.
    Diode,
    /// PRAM diode stack (20nm PCM).
    PramDiode,
}

/// The base storage technology of a published chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvmKind {
    /// Resistive RAM.
    Rram,
    /// Phase-change memory.
    Pcm,
    /// Multi-level-cell phase-change memory.
    MlcPcm,
    /// Spin-transfer-torque MRAM.
    Stt,
}

/// One row of the paper's Table 1: a fabricated eNVM macro with published
/// characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceChip {
    /// Citation tag as printed in the paper (e.g. `"[8]"`).
    pub reference: &'static str,
    /// Storage technology.
    pub kind: EnvmKind,
    /// Process node in nanometres.
    pub node_nm: f64,
    /// Access device style.
    pub access: AccessDevice,
    /// Cell footprint in F², if published.
    pub cell_area_f2: Option<f64>,
    /// Macro capacity in bits.
    pub capacity_bits: u64,
    /// Published macro area in mm², if available.
    pub macro_area_mm2: Option<f64>,
    /// Published read latency in nanoseconds, if available.
    pub read_latency_ns: Option<f64>,
    /// Published write latency range in nanoseconds `(min, max)`.
    pub write_latency_ns: Option<(f64, f64)>,
}

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;
const GB: u64 = 1024 * MB;

/// All chips listed in Table 1, in row order.
pub fn table1_chips() -> Vec<ReferenceChip> {
    vec![
        ReferenceChip {
            reference: "[8]",
            kind: EnvmKind::Rram,
            node_nm: 28.0,
            access: AccessDevice::Cmos,
            cell_area_f2: Some(39.0),
            capacity_bits: MB,
            macro_area_mm2: Some(0.56),
            read_latency_ns: Some(6.8),
            write_latency_ns: Some((500.0, 100_000.0)),
        },
        ReferenceChip {
            reference: "[42]",
            kind: EnvmKind::Rram,
            node_nm: 40.0,
            access: AccessDevice::Cmos,
            cell_area_f2: Some(53.0),
            capacity_bits: 1_400 * KB,
            macro_area_mm2: Some(0.28),
            read_latency_ns: Some(10.0),
            write_latency_ns: None,
        },
        ReferenceChip {
            reference: "[45]",
            kind: EnvmKind::Rram,
            node_nm: 24.0,
            access: AccessDevice::Diode,
            cell_area_f2: Some(4.0),
            capacity_bits: 32 * GB,
            macro_area_mm2: Some(130.7),
            read_latency_ns: Some(40_000.0),
            write_latency_ns: Some((230_000.0, 230_000.0)),
        },
        ReferenceChip {
            reference: "[13]",
            kind: EnvmKind::MlcPcm,
            node_nm: 90.0,
            access: AccessDevice::Cmos,
            cell_area_f2: Some(25.0),
            capacity_bits: 256 * MB,
            macro_area_mm2: Some(120.0),
            read_latency_ns: Some(320.0),
            write_latency_ns: None,
        },
        ReferenceChip {
            reference: "[67]",
            kind: EnvmKind::Pcm,
            node_nm: 40.0,
            access: AccessDevice::Cmos,
            cell_area_f2: None,
            capacity_bits: MB,
            macro_area_mm2: None,
            read_latency_ns: None,
            write_latency_ns: Some((120.0, 120.0)),
        },
        ReferenceChip {
            reference: "[12]",
            kind: EnvmKind::Pcm,
            node_nm: 20.0,
            access: AccessDevice::PramDiode,
            cell_area_f2: Some(4.0),
            capacity_bits: 8 * GB,
            macro_area_mm2: Some(59.4),
            read_latency_ns: Some(120.0),
            write_latency_ns: Some((150.0, 100_000.0)),
        },
        ReferenceChip {
            reference: "[19]",
            kind: EnvmKind::Stt,
            node_nm: 28.0,
            access: AccessDevice::Cmos,
            cell_area_f2: Some(75.0),
            capacity_bits: MB,
            macro_area_mm2: Some(0.214),
            read_latency_ns: Some(2.8),
            write_latency_ns: Some((20.0, 20.0)),
        },
    ]
}

impl ReferenceChip {
    /// Bits of storage per mm² of macro area, if area is published.
    pub fn density_bits_per_mm2(&self) -> Option<f64> {
        self.macro_area_mm2.map(|a| self.capacity_bits as f64 / a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_rows() {
        assert_eq!(table1_chips().len(), 7);
    }

    #[test]
    fn crossbar_chips_are_densest_but_slowest() {
        // §2.1: crossbar (diode) arrays offer 4F² cells but much higher
        // access times than CMOS-access designs.
        let chips = table1_chips();
        let crossbar = chips
            .iter()
            .find(|c| c.access == AccessDevice::Diode)
            .unwrap();
        let cmos_rram = chips.iter().find(|c| c.reference == "[8]").unwrap();
        assert!(crossbar.cell_area_f2.unwrap() < cmos_rram.cell_area_f2.unwrap());
        assert!(crossbar.read_latency_ns.unwrap() > 100.0 * cmos_rram.read_latency_ns.unwrap());
    }

    #[test]
    fn stt_has_fastest_read() {
        let chips = table1_chips();
        let stt = chips.iter().find(|c| c.kind == EnvmKind::Stt).unwrap();
        let fastest = chips
            .iter()
            .filter_map(|c| c.read_latency_ns)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(stt.read_latency_ns.unwrap(), fastest);
    }

    #[test]
    fn density_computation() {
        let chips = table1_chips();
        let gigachip = chips.iter().find(|c| c.reference == "[45]").unwrap();
        let d = gigachip.density_bits_per_mm2().unwrap();
        // 32Gb / 130.7mm² ≈ 0.26 Gb/mm²
        assert!(d > 2.0e8 && d < 3.0e8, "density {d}");
        let no_area = chips.iter().find(|c| c.reference == "[67]").unwrap();
        assert!(no_area.density_bits_per_mm2().is_none());
    }
}
