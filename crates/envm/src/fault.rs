//! Monte-Carlo fault injection over arrays of programmed cell levels
//! (the eNVM half of the Ares-style framework, §4.1).

use crate::level::CellModel;
use rand::Rng;

/// Adjacent-level misread probabilities for every level of a cell.
///
/// `p_up[i]` is the probability that level `i` is read as `i+1`;
/// `p_down[i]` that it is read as `i-1`. Non-adjacent misreads are below
/// the paper's `1.5e-10` bound and are not modeled.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    p_up: Vec<f64>,
    p_down: Vec<f64>,
    /// Cached cumulative threshold `p_up[i] + p_down[i]` per level, so
    /// [`Self::sample`] compares against precomputed bounds instead of
    /// re-adding on every call.
    p_tot: Vec<f64>,
}

impl FaultMap {
    /// Creates a fault map.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, if any probability is outside
    /// `[0, 1]`, if the top level has `p_up > 0`, or the bottom `p_down > 0`.
    pub fn new(p_up: Vec<f64>, p_down: Vec<f64>) -> Self {
        assert_eq!(p_up.len(), p_down.len(), "length mismatch");
        assert!(!p_up.is_empty(), "empty fault map");
        for (&u, &d) in p_up.iter().zip(&p_down) {
            assert!((0.0..=1.0).contains(&u) && (0.0..=1.0).contains(&d));
            assert!(u + d <= 1.0, "combined fault probability exceeds 1");
        }
        assert_eq!(
            p_up.last().copied(),
            Some(0.0),
            "top level cannot fault upward"
        );
        assert_eq!(p_down[0], 0.0, "bottom level cannot fault downward");
        let p_tot = p_up.iter().zip(&p_down).map(|(u, d)| u + d).collect();
        Self {
            p_up,
            p_down,
            p_tot,
        }
    }

    /// A fault-free map for `levels` levels (useful as a control arm).
    pub fn perfect(levels: usize) -> Self {
        Self {
            p_up: vec![0.0; levels],
            p_down: vec![0.0; levels],
            p_tot: vec![0.0; levels],
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.p_up.len()
    }

    /// Probability of level `i` being read as `i+1`.
    pub fn p_up(&self, i: usize) -> f64 {
        self.p_up[i]
    }

    /// Probability of level `i` being read as `i-1`.
    pub fn p_down(&self, i: usize) -> f64 {
        self.p_down[i]
    }

    /// Total probability of level `i` being misread at all
    /// (`p_up(i) + p_down(i)`, precomputed).
    pub fn p_total(&self, i: usize) -> f64 {
        self.p_tot[i]
    }

    /// The largest adjacent misread probability across all levels.
    pub fn worst_adjacent_rate(&self) -> f64 {
        self.p_up
            .iter()
            .chain(&self.p_down)
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// The mean total fault probability per cell, averaged over levels
    /// (assumes uniformly distributed stored values).
    pub fn mean_fault_rate(&self) -> f64 {
        let n = self.num_levels() as f64;
        self.p_up
            .iter()
            .zip(&self.p_down)
            .map(|(u, d)| u + d)
            .sum::<f64>()
            / n
    }

    /// Returns a copy with every probability multiplied by `factor`
    /// (clamped to 1). Used for sensitivity studies.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "negative scale factor");
        let clamp = |p: f64| (p * factor).min(1.0);
        let p_up: Vec<f64> = self.p_up.iter().map(|&p| clamp(p)).collect();
        let p_down: Vec<f64> = self.p_down.iter().map(|&p| clamp(p)).collect();
        let p_tot = p_up.iter().zip(&p_down).map(|(u, d)| u + d).collect();
        Self {
            p_up,
            p_down,
            p_tot,
        }
    }

    /// Samples the level read back for a cell programmed to `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn sample<R: Rng + ?Sized>(&self, level: usize, rng: &mut R) -> usize {
        let tot = self.p_tot[level];
        if tot == 0.0 {
            return level;
        }
        let u: f64 = rng.gen();
        if u < self.p_up[level] {
            level + 1
        } else if u < tot {
            level - 1
        } else {
            level
        }
    }
}

impl From<&CellModel> for FaultMap {
    fn from(cell: &CellModel) -> Self {
        cell.fault_map()
    }
}

/// Applies a [`FaultMap`] to whole arrays of programmed levels.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    map: FaultMap,
}

impl FaultInjector {
    /// Creates an injector from a fault map.
    pub fn new(map: FaultMap) -> Self {
        Self { map }
    }

    /// Creates an injector directly from a cell model.
    pub fn from_cell(cell: &CellModel) -> Self {
        Self::new(cell.fault_map())
    }

    /// The underlying fault map.
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// Injects faults in place, returning the number of cells that flipped.
    ///
    /// # Panics
    ///
    /// Panics if any cell's level is out of range for the fault map.
    pub fn inject<R: Rng + ?Sized>(&self, cells: &mut [u8], rng: &mut R) -> usize {
        let n = self.map.num_levels();
        let mut faults = 0;
        for c in cells.iter_mut() {
            let level = *c as usize;
            assert!(level < n, "cell level {level} out of range ({n} levels)");
            let read = self.map.sample(level, rng);
            if read != level {
                *c = read as u8;
                faults += 1;
            }
        }
        faults
    }

    /// Expected number of faults for an array of `cells` uniformly
    /// distributed levels.
    ///
    /// Real programmed arrays are rarely uniform (sparse encodings skew
    /// heavily toward level 0); use [`Self::expected_faults_exact`] with
    /// the actual level histogram when it is available.
    pub fn expected_faults(&self, cells: usize) -> f64 {
        self.map.mean_fault_rate() * cells as f64
    }

    /// Exact expected number of faults given the actual level histogram
    /// (`histogram[l]` = number of cells programmed to level `l`):
    /// `Σ histogram[l] · (p_up[l] + p_down[l])`.
    ///
    /// # Panics
    ///
    /// Panics if the histogram has more entries than the map has levels.
    pub fn expected_faults_exact(&self, histogram: &[usize]) -> f64 {
        let n = self.map.num_levels();
        assert!(
            histogram.len() <= n,
            "histogram has {} levels, map has {n}",
            histogram.len()
        );
        histogram
            .iter()
            .enumerate()
            .map(|(level, &count)| count as f64 * self.map.p_total(level))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LevelDistribution;
    use rand::SeedableRng;

    fn map_1e2(levels: usize) -> FaultMap {
        let mut up = vec![0.01; levels];
        let mut down = vec![0.01; levels];
        *up.last_mut().unwrap() = 0.0;
        down[0] = 0.0;
        FaultMap::new(up, down)
    }

    #[test]
    fn perfect_map_never_faults() {
        let m = FaultMap::perfect(8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for lvl in 0..8 {
            assert_eq!(m.sample(lvl, &mut rng), lvl);
        }
        assert_eq!(m.worst_adjacent_rate(), 0.0);
    }

    #[test]
    fn sample_respects_bounds() {
        let m = map_1e2(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let s = m.sample(0, &mut rng);
            assert!(s <= 1, "level 0 can only stay or go up");
            let s = m.sample(3, &mut rng);
            assert!(s >= 2, "level 3 can only stay or go down");
        }
    }

    #[test]
    fn injection_rate_matches_probability() {
        let m = map_1e2(4);
        let inj = FaultInjector::new(m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut cells: Vec<u8> = (0..200_000u32).map(|i| (i % 4) as u8).collect();
        let faults = inj.inject(&mut cells, &mut rng);
        let expected = inj.expected_faults(200_000);
        let rel = (faults as f64 - expected).abs() / expected;
        assert!(rel < 0.1, "observed {faults}, expected {expected}");
    }

    #[test]
    fn faulted_cells_move_one_level() {
        let m = map_1e2(8);
        let inj = FaultInjector::new(m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let orig: Vec<u8> = (0..50_000u32).map(|i| (i % 8) as u8).collect();
        let mut cells = orig.clone();
        inj.inject(&mut cells, &mut rng);
        for (o, c) in orig.iter().zip(&cells) {
            assert!((*o as i16 - *c as i16).abs() <= 1, "non-adjacent fault");
        }
    }

    #[test]
    fn scaled_map_scales() {
        let m = map_1e2(4).scaled(0.5);
        assert!((m.p_up(0) - 0.005).abs() < 1e-12);
        let m2 = map_1e2(4).scaled(1000.0);
        assert!(m2.p_up(0) <= 1.0);
    }

    #[test]
    fn from_cell_model_matches_fault_map() {
        let levels = (0..4)
            .map(|i| LevelDistribution::new(i as f64 * 0.3, 0.04))
            .collect();
        let cell = CellModel::new(levels);
        let inj = FaultInjector::from_cell(&cell);
        assert_eq!(inj.map(), &cell.fault_map());
    }

    #[test]
    #[should_panic(expected = "top level cannot fault upward")]
    fn rejects_top_level_up_fault() {
        FaultMap::new(vec![0.0, 0.1], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_rejects_out_of_range_levels() {
        let inj = FaultInjector::new(map_1e2(4));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        inj.inject(&mut [7u8], &mut rng);
    }

    #[test]
    fn mean_fault_rate_averages() {
        let m = map_1e2(4);
        // levels: 0 -> 0.01, 1 -> 0.02, 2 -> 0.02, 3 -> 0.01; mean = 0.015
        assert!((m.mean_fault_rate() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn p_total_is_the_cached_sum() {
        let m = map_1e2(4);
        for l in 0..4 {
            assert_eq!(m.p_total(l), m.p_up(l) + m.p_down(l));
        }
        let s = m.scaled(0.5);
        for l in 0..4 {
            assert_eq!(s.p_total(l), s.p_up(l) + s.p_down(l));
        }
    }

    #[test]
    fn expected_faults_exact_uses_the_histogram() {
        let inj = FaultInjector::new(map_1e2(4));
        // All cells at level 0 (p_tot = 0.01): exact differs from uniform.
        let exact = inj.expected_faults_exact(&[1000, 0, 0, 0]);
        assert!((exact - 10.0).abs() < 1e-9, "exact {exact}");
        let uniform = inj.expected_faults(1000);
        assert!((uniform - 15.0).abs() < 1e-9, "uniform {uniform}");
        // A uniform histogram reproduces the uniform estimate.
        let even = inj.expected_faults_exact(&[250, 250, 250, 250]);
        assert!((even - uniform).abs() < 1e-9);
    }
}
