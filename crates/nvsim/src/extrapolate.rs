//! Extrapolation of the published Table 1 chips to a common capacity —
//! how the paper builds Fig. 1 ("extrapolated and characterized for a
//! fixed capacity (4MB)").
//!
//! A published macro gives (capacity, area, read latency). Scaling to a
//! target capacity: cell-array area scales linearly with bits (same cell,
//! same node); periphery amortizes, captured with a sublinear exponent;
//! random-access latency grows with the decoder depth, i.e. with
//! `log2(capacity)`.

use maxnvm_envm::reference::ReferenceChip;

/// A published chip scaled to a target capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtrapolatedArray {
    /// Citation tag of the source chip.
    pub reference: &'static str,
    /// Target capacity in bits.
    pub capacity_bits: u64,
    /// Extrapolated macro area (mm²), if the source published an area.
    pub area_mm2: Option<f64>,
    /// Extrapolated random read latency (ns), if published.
    pub read_latency_ns: Option<f64>,
}

/// Periphery amortization: total area scales with `(ratio)^AREA_EXP`
/// (slightly sublinear — bigger macros amortize decoders and pads).
const AREA_EXP: f64 = 0.95;
/// Latency grows by this many ns per doubling of capacity (global
/// decode + H-tree depth), on top of the published access time.
const LATENCY_NS_PER_DOUBLING: f64 = 0.15;

/// Scales one published chip to `capacity_bits`.
pub fn extrapolate_reference(chip: &ReferenceChip, capacity_bits: u64) -> ExtrapolatedArray {
    assert!(capacity_bits > 0, "empty capacity");
    let ratio = capacity_bits as f64 / chip.capacity_bits as f64;
    let area_mm2 = chip.macro_area_mm2.map(|a| a * ratio.powf(AREA_EXP));
    let read_latency_ns = chip.read_latency_ns.map(|l| {
        let doublings = ratio.log2();
        (l + LATENCY_NS_PER_DOUBLING * doublings).max(l * 0.5)
    });
    ExtrapolatedArray {
        reference: chip.reference,
        capacity_bits,
        area_mm2,
        read_latency_ns,
    }
}

/// All Table 1 chips extrapolated to a capacity (the Fig. 1 scatter).
pub fn fig1_points(capacity_bits: u64) -> Vec<ExtrapolatedArray> {
    maxnvm_envm::reference::table1_chips()
        .iter()
        .map(|c| extrapolate_reference(c, capacity_bits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_envm::reference::table1_chips;

    const FOUR_MB: u64 = 4 * 1024 * 1024 * 8;

    #[test]
    fn identity_extrapolation_is_exact() {
        for chip in table1_chips() {
            let e = extrapolate_reference(&chip, chip.capacity_bits);
            if let (Some(a), Some(b)) = (e.area_mm2, chip.macro_area_mm2) {
                assert!((a - b).abs() < 1e-9, "{}", chip.reference);
            }
            assert_eq!(e.read_latency_ns, chip.read_latency_ns);
        }
    }

    #[test]
    fn scaling_up_grows_area_and_latency() {
        let chips = table1_chips();
        let small = &chips[0]; // 1Mb RRAM
        let e = extrapolate_reference(small, FOUR_MB);
        assert!(e.area_mm2.unwrap() > small.macro_area_mm2.unwrap() * 10.0);
        assert!(e.read_latency_ns.unwrap() > small.read_latency_ns.unwrap());
    }

    #[test]
    fn scaling_down_a_gigachip_shrinks_it() {
        let chips = table1_chips();
        let giga = chips.iter().find(|c| c.reference == "[45]").unwrap();
        let e = extrapolate_reference(giga, FOUR_MB);
        assert!(e.area_mm2.unwrap() < 1.0, "{:?}", e.area_mm2);
        // Crossbar latency stays dominated by the access mechanism.
        assert!(e.read_latency_ns.unwrap() > 10_000.0);
    }

    #[test]
    fn fig1_preserves_the_papers_groupings() {
        // At 4MB, CMOS-access RRAM/STT sit at ns latencies and sub-10mm²;
        // diode crossbars are orders slower.
        let pts = fig1_points(FOUR_MB);
        assert_eq!(pts.len(), 7);
        let stt = pts.iter().find(|p| p.reference == "[19]").unwrap();
        let rram = pts.iter().find(|p| p.reference == "[8]").unwrap();
        let xbar = pts.iter().find(|p| p.reference == "[45]").unwrap();
        assert!(stt.read_latency_ns.unwrap() < 5.0);
        assert!(rram.read_latency_ns.unwrap() < 10.0);
        assert!(xbar.read_latency_ns.unwrap() / rram.read_latency_ns.unwrap() > 1000.0);
    }
}
