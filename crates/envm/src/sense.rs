//! Sense-amplifier model (§2.3).
//!
//! The paper characterizes a current-mode latch sense amplifier whose
//! input-referred offset is set by the input differential pair; Monte-Carlo
//! SPICE sweeps over the input transistor width trade offset (smaller
//! devices → larger mismatch → higher misread rates) against area and
//! energy. The SA size is chosen so that (a) total SA overhead stays below
//! 1% of the array and (b) the inherent inter-level fault rates are altered
//! by less than 2x. We capture that with a Pelgrom-style `offset ∝
//! 1/sqrt(area)` law.

/// A sense amplifier with a Gaussian input-referred offset.
///
/// Offsets are expressed in the same normalized read-signal units as
/// [`LevelDistribution`](crate::LevelDistribution) (full window = 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmp {
    offset_sigma: f64,
}

impl SenseAmp {
    /// Relative area of one reference-size SA, as a fraction of a memory
    /// mat, used by the array model to bound SA overhead.
    pub const UNIT_AREA: f64 = 1.0;

    /// The SA size the paper settles on: offset small enough that fault
    /// rates shift by <2x and array overhead stays <1% (§2.3).
    pub fn paper_default() -> Self {
        Self::new(0.003)
    }

    /// Creates a sense amp with the given input-referred offset sigma.
    ///
    /// # Panics
    ///
    /// Panics if `offset_sigma` is negative or non-finite.
    pub fn new(offset_sigma: f64) -> Self {
        assert!(
            offset_sigma.is_finite() && offset_sigma >= 0.0,
            "invalid offset sigma {offset_sigma}"
        );
        Self { offset_sigma }
    }

    /// Derives the SA for a given input-pair sizing factor (`1.0` =
    /// reference size). Offset follows Pelgrom scaling: `sigma ∝ 1/sqrt(WL)`.
    ///
    /// # Panics
    ///
    /// Panics if `size_factor <= 0`.
    pub fn with_size_factor(size_factor: f64) -> Self {
        assert!(size_factor > 0.0, "size factor must be positive");
        let base = Self::paper_default().offset_sigma;
        Self::new(base / size_factor.sqrt())
    }

    /// The input-referred offset standard deviation.
    pub fn input_referred_offset_sigma(&self) -> f64 {
        self.offset_sigma
    }

    /// Relative area of this SA (Pelgrom: area ∝ 1/offset²).
    pub fn relative_area(&self) -> f64 {
        let base = Self::paper_default().offset_sigma;
        if self.offset_sigma == 0.0 {
            f64::INFINITY
        } else {
            (base / self.offset_sigma).powi(2)
        }
    }

    /// Number of sense amps needed per active bitline for an `levels`-level
    /// cell under the flash-ADC parallel sensing scheme (§2.3): `N - 1`
    /// comparators decode the stored value in one conversion step.
    pub fn amps_per_bitline(levels: usize) -> usize {
        assert!(levels >= 2, "need at least two levels");
        levels - 1
    }
}

impl Default for SenseAmp {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{CellModel, LevelDistribution};

    #[test]
    fn default_matches_paper_default() {
        assert_eq!(SenseAmp::default(), SenseAmp::paper_default());
    }

    #[test]
    fn pelgrom_scaling() {
        let big = SenseAmp::with_size_factor(4.0);
        let small = SenseAmp::with_size_factor(1.0);
        assert!(
            (big.input_referred_offset_sigma() * 2.0 - small.input_referred_offset_sigma()).abs()
                < 1e-12
        );
        assert!((big.relative_area() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn flash_adc_comparator_count() {
        assert_eq!(SenseAmp::amps_per_bitline(2), 1);
        assert_eq!(SenseAmp::amps_per_bitline(4), 3);
        assert_eq!(SenseAmp::amps_per_bitline(8), 7);
    }

    #[test]
    fn paper_default_alters_fault_rate_by_less_than_2x() {
        // §2.3: the chosen SA size changes inherent inter-level fault rates
        // by less than 2x. Check on a representative MLC3 cell.
        let levels = (0..8)
            .map(|i| LevelDistribution::new(i as f64 / 7.0, 0.017))
            .collect();
        let cell = CellModel::new(levels);
        let base = cell.fault_map().worst_adjacent_rate();
        let with = cell
            .with_sense_amp(&SenseAmp::paper_default())
            .fault_map()
            .worst_adjacent_rate();
        assert!(with > base, "offset must not reduce fault rate");
        assert!(with < 2.0 * base, "SA inflates rate {base} -> {with}, >=2x");
    }

    #[test]
    #[should_panic(expected = "invalid offset sigma")]
    fn rejects_negative_offset() {
        SenseAmp::new(-0.1);
    }
}
