//! Per-level Gaussian read distributions and sense thresholds (§2.2–2.3).
//!
//! A cell programmed to level *i* is read by comparing its (noisy) read
//! current against `N-1` reference thresholds. The probability of misreading
//! level *i* as the adjacent level follows from the Gaussian tail beyond the
//! neighbouring threshold — exactly the construction the paper uses on the
//! measured CTT current histograms (Fig. 2b) and published RRAM data.

use crate::fault::FaultMap;
use crate::math::{box_muller, box_muller_uniforms, normal_cdf, q_function};
use crate::sense::SenseAmp;
use rand::Rng;
use std::fmt;

/// Number of bits stored per cell (1 = SLC, 2 = MLC2, 3 = MLC3).
///
/// The paper evaluates up to 3 bits per cell, the densest configuration
/// demonstrated on the CTT test chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MlcConfig {
    bits: u8,
}

/// Error returned when constructing an out-of-range [`MlcConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidMlcConfig(pub u8);

impl fmt::Display for InvalidMlcConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bits per cell must be in 1..=3, got {}", self.0)
    }
}

impl std::error::Error for InvalidMlcConfig {}

impl MlcConfig {
    /// Single-level cell (1 bit).
    pub const SLC: MlcConfig = MlcConfig { bits: 1 };
    /// 2 bits per cell.
    pub const MLC2: MlcConfig = MlcConfig { bits: 2 };
    /// 3 bits per cell (8 levels).
    pub const MLC3: MlcConfig = MlcConfig { bits: 3 };

    /// All configurations the paper's design-space exploration sweeps.
    pub const ALL: [MlcConfig; 3] = [Self::SLC, Self::MLC2, Self::MLC3];

    /// Creates a configuration storing `bits` bits per cell.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMlcConfig`] unless `1 <= bits <= 3`.
    pub fn new(bits: u8) -> Result<Self, InvalidMlcConfig> {
        if (1..=3).contains(&bits) {
            Ok(Self { bits })
        } else {
            Err(InvalidMlcConfig(bits))
        }
    }

    /// Bits stored per cell.
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// Number of programmable levels, `2^bits`.
    pub fn levels(self) -> usize {
        1 << self.bits
    }
}

impl fmt::Display for MlcConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bits {
            1 => write!(f, "SLC"),
            b => write!(f, "MLC{b}"),
        }
    }
}

/// A single programmed level's read distribution, `N(mean, sigma^2)`, in
/// normalized read-signal units (the full signal window is `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelDistribution {
    /// Mean read signal.
    pub mean: f64,
    /// Standard deviation of the read signal.
    pub sigma: f64,
}

impl LevelDistribution {
    /// Creates a level distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0` or either value is non-finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite() && sigma.is_finite(), "non-finite level");
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        Self { mean, sigma }
    }
}

/// A fully specified multi-level cell: level distributions plus the sense
/// thresholds that separate them.
///
/// Thresholds default to sigma-weighted midpoints between adjacent level
/// means, which is how a flash-ADC style parallel sensing scheme (§2.3)
/// would place its references.
#[derive(Debug, Clone, PartialEq)]
pub struct CellModel {
    levels: Vec<LevelDistribution>,
    thresholds: Vec<f64>,
    /// Per level, the bound above which a Box–Muller `u1` cannot carry
    /// the read out of the level's window ([`Self::sample_read`]).
    no_flip: Vec<f64>,
}

impl CellModel {
    /// Builds a cell from level distributions, placing each threshold at the
    /// sigma-weighted midpoint between adjacent means (equalizes the two
    /// adjacent misread rates).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 levels are given, if the level count is not a
    /// power of two, or if means are not strictly increasing.
    pub fn new(levels: Vec<LevelDistribution>) -> Self {
        assert!(levels.len() >= 2, "need at least 2 levels");
        assert!(
            levels.len().is_power_of_two(),
            "level count {} must be a power of two",
            levels.len()
        );
        for pair in levels.windows(2) {
            assert!(
                pair[1].mean > pair[0].mean,
                "level means must be strictly increasing"
            );
        }
        let thresholds = levels
            .windows(2)
            .map(|p| {
                // Sigma-weighted midpoint: both neighbours sit the same
                // number of their own sigmas away from the threshold.
                (p[0].mean * p[1].sigma + p[1].mean * p[0].sigma) / (p[0].sigma + p[1].sigma)
            })
            .collect();
        Self::from_parts(levels, thresholds)
    }

    /// Builds a cell with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds.len() != levels.len() - 1`, or if the
    /// thresholds do not interleave the level means.
    // maxnvm-lint: allow(R1/index-arith): thresholds.len() is asserted == levels.len()-1, so levels[i+1] exists for every threshold index i.
    pub fn with_thresholds(levels: Vec<LevelDistribution>, thresholds: Vec<f64>) -> Self {
        assert_eq!(thresholds.len(), levels.len() - 1, "threshold count");
        for (i, &t) in thresholds.iter().enumerate() {
            assert!(
                levels[i].mean < t && t < levels[i + 1].mean,
                "threshold {i} = {t} does not separate levels"
            );
        }
        Self::from_parts(levels, thresholds)
    }

    /// Assembles a cell from validated parts and computes each level's
    /// no-flip bound `B`, as [`Self::sample_read`] defines it.
    fn from_parts(levels: Vec<LevelDistribution>, thresholds: Vec<f64>) -> Self {
        // Level i sits between thresholds i-1 and i; the end levels have
        // one neighbour, so the missing side is infinitely far.
        let below = std::iter::once(f64::NEG_INFINITY).chain(thresholds.iter().copied());
        let above = thresholds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY));
        let no_flip = levels
            .iter()
            .zip(below.zip(above))
            .map(|(l, (lo, hi))| {
                let d = (l.mean - lo).min(hi - l.mean);
                // Under ~2e-9 of its magnitude, rounding `mean + σz`
                // alone could cross a threshold: always run the formula.
                if 1e-7 * d <= f64::EPSILON * (l.mean.abs() + d) {
                    return f64::INFINITY;
                }
                let r = d / l.sigma * (1.0 - 1e-6);
                (-0.5 * r * r).exp() * (1.0 + 1e-6)
            })
            .collect();
        Self {
            levels,
            thresholds,
            no_flip,
        }
    }

    /// Number of programmable levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Bits stored per cell, `log2(levels)`.
    pub fn bits_per_cell(&self) -> u8 {
        self.levels.len().trailing_zeros() as u8
    }

    /// The level distributions.
    pub fn levels(&self) -> &[LevelDistribution] {
        &self.levels
    }

    /// The sense thresholds (length `num_levels() - 1`).
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Returns a copy whose level sigmas are inflated by the sense
    /// amplifier's input-referred offset (§2.3): the offset adds in
    /// quadrature with the intrinsic level spread.
    pub fn with_sense_amp(&self, sa: &SenseAmp) -> CellModel {
        let off = sa.input_referred_offset_sigma();
        let levels = self
            .levels
            .iter()
            .map(|l| LevelDistribution::new(l.mean, (l.sigma * l.sigma + off * off).sqrt()))
            .collect();
        Self::from_parts(levels, self.thresholds.clone())
    }

    /// Probability that a cell programmed to `stored` is read back as
    /// `read`: the Gaussian mass of level `stored` falling in `read`'s
    /// threshold window.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    // maxnvm-lint: allow(R1/index-arith): stored/read are asserted < num_levels and thresholds has n-1 entries, so thresholds[read-1] exists whenever read > 0.
    pub fn misread_probability(&self, stored: usize, read: usize) -> f64 {
        let n = self.num_levels();
        assert!(stored < n && read < n, "level index out of range");
        let l = self.levels[stored];
        let lo = if read == 0 {
            f64::NEG_INFINITY
        } else {
            self.thresholds[read - 1]
        };
        let hi = if read == n - 1 {
            f64::INFINITY
        } else {
            self.thresholds[read]
        };
        let cdf = |x: f64| -> f64 {
            if x == f64::NEG_INFINITY {
                0.0
            } else if x == f64::INFINITY {
                1.0
            } else {
                normal_cdf((x - l.mean) / l.sigma)
            }
        };
        cdf(hi) - cdf(lo)
    }

    /// Adjacent-level fault map: for each level, the probability of being
    /// misread one level up and one level down.
    // maxnvm-lint: allow(R1/index-arith): the i+1 < n guard precedes every thresholds[i]/levels[i+1] access, and i-1 is only read when i > 0.
    pub fn fault_map(&self) -> FaultMap {
        let n = self.num_levels();
        let mut p_up = vec![0.0; n];
        let mut p_down = vec![0.0; n];
        for i in 0..n {
            let l = self.levels[i];
            if i + 1 < n {
                p_up[i] = q_function((self.thresholds[i] - l.mean) / l.sigma);
            }
            if i > 0 {
                p_down[i] = normal_cdf((self.thresholds[i - 1] - l.mean) / l.sigma);
            }
        }
        FaultMap::new(p_up, p_down)
    }

    /// Samples the level read back for a cell programmed to `stored`, by
    /// the paper's §4.1 procedure: draw the analog read signal from the
    /// stored level's Gaussian and locate it among the sense thresholds.
    /// Unlike [`FaultMap::sample`](crate::FaultMap::sample), this path
    /// also produces the (astronomically rare) non-adjacent misreads.
    ///
    /// The result, and the RNG state after it, equal those of
    /// [`math::sample_normal`](crate::math::sample_normal) followed by
    /// `thresholds().partition_point(|&t| t < x)`, but the
    /// transcendentals run only for draws that could leave the level.
    /// Both uniforms are drawn as Box–Muller draws them; then, with `d`
    /// the distance from the level's mean to its nearest threshold,
    /// `r = (d/σ)·(1 − 1e-6)` and `B = exp(−r²/2)·(1 + 1e-6)` (fixed per
    /// level at construction), any `u1 > B` gives
    /// `|σ·sqrt(−2 ln u1)·cos(2π u2)| < σr < d` for every `u2`, so the
    /// read stays strictly inside the level's window and is `stored`.
    /// The 1e-6 margins exceed every rounding in the formula (a few
    /// `f64` epsilons) by about nine orders of magnitude, so the skip
    /// is exact, not approximate. (A level whose window is under ~2e-9
    /// of its magnitude, where that no longer holds, has `B = ∞`: its
    /// draws always run the formula.) Behind the paper's sense amplifier,
    /// the MLC3 levels of the three MLC technologies send 4e-5 to 1.8e-4
    /// of their draws down the verbatim path, and MLC2 and SLC levels
    /// fewer than 1e-9.
    ///
    /// # Panics
    ///
    /// Panics if `stored` is out of range.
    pub fn sample_read<R: Rng + ?Sized>(&self, stored: usize, rng: &mut R) -> usize {
        let (u1, u2) = box_muller_uniforms(rng);
        if u1 > self.no_flip[stored] {
            return stored;
        }
        let l = self.levels[stored];
        let x = l.mean + l.sigma * box_muller(u1, u2);
        // Thresholds are sorted; the read level is the bin x falls in.
        self.thresholds.partition_point(|&t| t < x)
    }

    /// Upper bound on the probability of a *non-adjacent* misread across
    /// all levels. The paper states this is `1.5e-10` or below for the
    /// technologies considered; the fault injector ignores such events.
    pub fn non_adjacent_bound(&self) -> f64 {
        let n = self.num_levels();
        let mut worst: f64 = 0.0;
        for stored in 0..n {
            for read in 0..n {
                if read.abs_diff(stored) >= 2 {
                    worst = worst.max(self.misread_probability(stored, read));
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evenly_spaced(n: usize, sigma: f64) -> CellModel {
        let levels = (0..n)
            .map(|i| LevelDistribution::new(i as f64 / (n - 1) as f64, sigma))
            .collect();
        CellModel::new(levels)
    }

    #[test]
    fn mlc_config_bounds() {
        assert!(MlcConfig::new(0).is_err());
        assert!(MlcConfig::new(4).is_err());
        assert_eq!(MlcConfig::new(2).unwrap().levels(), 4);
        assert_eq!(MlcConfig::MLC3.levels(), 8);
        assert_eq!(MlcConfig::SLC.to_string(), "SLC");
        assert_eq!(MlcConfig::MLC3.to_string(), "MLC3");
    }

    #[test]
    fn thresholds_interleave_means() {
        let c = evenly_spaced(8, 0.02);
        assert_eq!(c.thresholds().len(), 7);
        for (i, &t) in c.thresholds().iter().enumerate() {
            assert!(c.levels()[i].mean < t && t < c.levels()[i + 1].mean);
        }
        assert_eq!(c.bits_per_cell(), 3);
    }

    #[test]
    fn equal_sigma_thresholds_are_midpoints() {
        let c = evenly_spaced(4, 0.05);
        for (i, &t) in c.thresholds().iter().enumerate() {
            let mid = (c.levels()[i].mean + c.levels()[i + 1].mean) / 2.0;
            assert!((t - mid).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_threshold_balances_fault_rates() {
        // Unequal sigmas: the sigma-weighted threshold makes the up-fault of
        // the wide level equal the down-fault of the tight one.
        let levels = vec![
            LevelDistribution::new(0.0, 0.08),
            LevelDistribution::new(0.3, 0.02),
        ];
        let c = CellModel::new(levels);
        let fm = c.fault_map();
        let up0 = fm.p_up(0);
        let down1 = fm.p_down(1);
        assert!(
            ((up0 - down1) / up0).abs() < 1e-9,
            "up0 = {up0}, down1 = {down1}"
        );
    }

    #[test]
    fn misread_rows_sum_to_one() {
        let c = evenly_spaced(8, 0.03);
        for stored in 0..8 {
            let total: f64 = (0..8).map(|r| c.misread_probability(stored, r)).sum();
            assert!((total - 1.0).abs() < 1e-9, "row {stored} sums to {total}");
        }
    }

    #[test]
    fn tighter_sigma_means_fewer_faults() {
        let loose = evenly_spaced(8, 0.03).fault_map().worst_adjacent_rate();
        let tight = evenly_spaced(8, 0.015).fault_map().worst_adjacent_rate();
        assert!(tight < loose);
    }

    #[test]
    fn more_levels_means_more_faults() {
        let slc = evenly_spaced(2, 0.02).fault_map().worst_adjacent_rate();
        let mlc2 = evenly_spaced(4, 0.02).fault_map().worst_adjacent_rate();
        let mlc3 = evenly_spaced(8, 0.02).fault_map().worst_adjacent_rate();
        assert!(slc < mlc2 && mlc2 < mlc3, "{slc} {mlc2} {mlc3}");
    }

    #[test]
    fn non_adjacent_bound_is_tiny_for_realistic_cells() {
        let c = evenly_spaced(8, 0.018);
        // Adjacent faults are ~1e-4 but two-level jumps should be <= ~1e-10.
        assert!(c.non_adjacent_bound() < 1e-9);
    }

    #[test]
    fn sense_amp_inflates_sigma() {
        let c = evenly_spaced(8, 0.02);
        let sa = SenseAmp::new(0.02);
        let with = c.with_sense_amp(&sa);
        let base = c.fault_map().worst_adjacent_rate();
        let noisy = with.fault_map().worst_adjacent_rate();
        assert!(noisy > base);
        // §2.3: SA sized so fault rates are altered by less than 2x — that
        // is a property of the chosen size, checked in tech.rs tests.
    }

    #[test]
    fn analog_sampling_matches_fault_map_statistics() {
        use rand::SeedableRng;
        // The closed-form adjacent-fault probabilities and the verbatim
        // analog-sampling path must agree statistically.
        let c = evenly_spaced(4, 0.08); // exaggerated overlap for statistics
        let fm = c.fault_map();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let trials = 200_000;
        for stored in 0..4usize {
            let mut ups = 0usize;
            for _ in 0..trials {
                let read = c.sample_read(stored, &mut rng);
                if read == stored + 1 {
                    ups += 1;
                }
            }
            let observed = ups as f64 / trials as f64;
            let expected = fm.p_up(stored);
            if expected > 1e-4 {
                let rel = (observed - expected).abs() / expected;
                assert!(
                    rel < 0.15,
                    "level {stored}: observed {observed}, expected {expected}"
                );
            }
        }
    }

    /// The §4.1 read verbatim: a Box–Muller normal, binned by the sense
    /// thresholds.
    fn verbatim_read<R: Rng + ?Sized>(c: &CellModel, stored: usize, rng: &mut R) -> usize {
        let l = c.levels()[stored];
        let x = crate::math::sample_normal(rng, l.mean, l.sigma);
        c.thresholds().partition_point(|&t| t < x)
    }

    /// Every technology × bits-per-cell, bare and behind the paper's
    /// sense amplifier; evenly spaced cells with σ up to the full window,
    /// where flips and the verbatim path are common; and a two-level
    /// cell whose window is a few ulps wide at 1e9, where the rounding
    /// of `mean + σz` alone can cross a threshold.
    fn sampler_models() -> Vec<CellModel> {
        let sa = SenseAmp::paper_default();
        let mut models = Vec::new();
        for tech in crate::CellTechnology::ALL {
            for cfg in tech.available_configs() {
                let c = tech.cell_model(cfg);
                models.push(c.with_sense_amp(&sa));
                models.push(c);
            }
        }
        for sigma in [0.01, 0.03, 0.1, 0.3, 1.0] {
            for n in [2, 4, 8] {
                models.push(evenly_spaced(n, sigma));
            }
        }
        let ulp = 1e9f64.next_up() - 1e9;
        models.push(CellModel::new(vec![
            LevelDistribution::new(1e9, 1.5 * ulp),
            LevelDistribution::new(1e9 + 8.0 * ulp, 1.5 * ulp),
        ]));
        models
    }

    #[test]
    fn sample_read_matches_the_verbatim_formula_draw_by_draw() {
        use rand::SeedableRng;
        let (mut flips, mut verbatim_path) = (0usize, 0usize);
        for (m, c) in sampler_models().iter().enumerate() {
            let mut fast = rand::rngs::StdRng::seed_from_u64(40 + m as u64);
            let mut reference = fast.clone();
            for stored in 0..c.num_levels() {
                for draw in 0..20_000 {
                    let u1 = 1.0 - fast.clone().gen::<f64>();
                    verbatim_path += usize::from(u1 <= c.no_flip[stored]);
                    let got = c.sample_read(stored, &mut fast);
                    let want = verbatim_read(c, stored, &mut reference);
                    assert_eq!(got, want, "model {m}, level {stored}, draw {draw}");
                    assert_eq!(fast, reference, "model {m}: RNG streams diverged");
                    flips += usize::from(got != stored);
                }
            }
        }
        // Both paths and both outcomes must be exercised for the lock to
        // mean anything.
        assert!(flips > 100_000, "{flips} flips");
        assert!(verbatim_path > 200_000, "{verbatim_path} verbatim draws");
    }

    /// Replays scripted 64-bit outputs.
    struct Script(Vec<u64>);

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            assert!(!self.0.is_empty(), "script exhausted");
            self.0.remove(0)
        }
    }

    #[test]
    fn sample_read_agrees_one_ulp_either_side_of_each_bound() {
        // `gen::<f64>()` is `(x >> 11)·2^-53`, so `u1 = 1 - gen()` takes
        // exactly the values `j·2^-53` for `j` in `1..=2^53`. Put `u1` on
        // the nearest such values either side of each level's bound, and
        // `u2` at 0 and 0.5, where `cos(2π u2) = ±1` pushes the read
        // straight at the upper or lower threshold.
        const ONE: u64 = 1 << 53;
        let (mut above, mut at_or_below) = (0usize, 0usize);
        for (m, c) in sampler_models().iter().enumerate() {
            for (stored, &bound) in c.no_flip.iter().enumerate() {
                // Smallest j with j·2^-53 > bound (both products exact).
                let j_above = if bound < 1.0 {
                    (bound * ONE as f64).floor() as u64 + 1
                } else {
                    ONE + 1
                };
                for j in [j_above - 1, j_above] {
                    if j == 0 || j > ONE {
                        continue;
                    }
                    let u1 = j as f64 / ONE as f64;
                    assert_eq!(u1 > bound, j == j_above, "model {m}, level {stored}");
                    for u2_bits in [0u64, 1 << 63] {
                        let script = || Script(vec![(ONE - j) << 11, u2_bits, 7]);
                        let (mut a, mut b) = (script(), script());
                        let got = c.sample_read(stored, &mut a);
                        let want = verbatim_read(c, stored, &mut b);
                        assert_eq!(got, want, "model {m}, level {stored}, u1 {u1:e}");
                        assert_eq!(a.0, b.0, "model {m}: draws consumed differ");
                        assert_eq!(a.0.len(), 1, "model {m}: a read draws two uniforms");
                    }
                    if u1 > bound {
                        above += 1;
                    } else {
                        at_or_below += 1;
                    }
                }
            }
        }
        assert!(above > 100 && at_or_below > 100, "{above} / {at_or_below}");
    }

    #[test]
    fn analog_sampling_stays_in_range() {
        use rand::SeedableRng;
        let c = evenly_spaced(8, 0.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for stored in 0..8usize {
            for _ in 0..1000 {
                let read = c.sample_read(stored, &mut rng);
                assert!(read < 8);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_levels() {
        CellModel::new(vec![
            LevelDistribution::new(0.5, 0.01),
            LevelDistribution::new(0.1, 0.01),
        ]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let levels = (0..3)
            .map(|i| LevelDistribution::new(i as f64, 0.01))
            .collect();
        CellModel::new(levels);
    }
}
