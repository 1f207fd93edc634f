//! O(expected faults) fault sampling.
//!
//! [`crate::FaultInjector::inject`] draws one uniform per cell, which is
//! O(array size) even at the paper's ~1e-5 mean fault rates where almost
//! every draw is a no-op. This module samples only the *faults*: cells
//! are partitioned by programmed level ([`LevelPartition`]), and for each
//! level the gaps between consecutive faulted cells are drawn from the
//! geometric distribution Geom(p) with `p = p_up + p_down`
//! ([`SparseFaultSampler`]). Each skip costs one uniform, so a trial
//! costs O(expected faults) uniforms instead of O(cells).
//!
//! The marginal distribution is exactly Binomial(n_level, p) faults per
//! level with independent uniform positions — the same law the per-cell
//! injector realizes — but the two samplers consume their RNG streams
//! differently, so equivalence is statistical, not bitwise. The per-cell
//! path is retained as the reference arm for the chi-square tests below.

use crate::fault::FaultMap;
use rand::Rng;

/// Cells of one storage structure partitioned by programmed level:
/// per-level ascending position lists plus the level histogram the
/// sampler (and exact expected-fault accounting) needs.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelPartition {
    /// `positions[l]` = ascending indices of the cells programmed to
    /// level `l`.
    positions: Vec<Vec<u32>>,
    num_cells: usize,
}

impl LevelPartition {
    /// Partitions `cells` by programmed level for a `levels`-level map.
    ///
    /// # Panics
    ///
    /// Panics if any cell's level is out of range, or if the array is too
    /// large for `u32` positions.
    pub fn new(cells: &[u8], levels: usize) -> Self {
        assert!(
            cells.len() <= u32::MAX as usize,
            "array too large for sparse sampling"
        );
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); levels];
        for (i, &c) in cells.iter().enumerate() {
            let level = c as usize;
            assert!(
                level < levels,
                "cell level {level} out of range ({levels} levels)"
            );
            positions[level].push(i as u32);
        }
        Self {
            positions,
            num_cells: cells.len(),
        }
    }

    /// Number of cells partitioned.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.positions.len()
    }

    /// Cells programmed to each level (`histogram()[l]` = count at `l`).
    pub fn histogram(&self) -> Vec<usize> {
        self.positions.iter().map(Vec::len).collect()
    }
}

/// Draws fault positions by geometric skips over a [`LevelPartition`].
///
/// It borrows its fault map, so a trial wraps a shared map without
/// copying it.
#[derive(Debug, Clone, Copy)]
pub struct SparseFaultSampler<'a> {
    map: &'a FaultMap,
}

impl<'a> SparseFaultSampler<'a> {
    /// Creates a sampler over a fault map.
    pub fn new(map: &'a FaultMap) -> Self {
        Self { map }
    }

    /// The underlying fault map.
    pub fn map(&self) -> &'a FaultMap {
        self.map
    }

    /// Samples one trial's faults: `(cell position, misread level)` pairs,
    /// sorted by position. Levels are visited in ascending order and
    /// positions within a level in ascending order, so the RNG stream —
    /// and therefore the output — is a pure function of (partition, rng
    /// state), independent of any scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the partition has more levels than the map.
    pub fn sample_faults<R: Rng + ?Sized>(
        &self,
        partition: &LevelPartition,
        rng: &mut R,
    ) -> Vec<(u32, u8)> {
        let levels = self.map.num_levels();
        assert!(
            partition.num_levels() <= levels,
            "partition has {} levels, map has {levels}",
            partition.num_levels()
        );
        let mut out = Vec::new();
        for (level, positions) in partition.positions.iter().enumerate() {
            let p = self.map.p_total(level);
            if p <= 0.0 || positions.is_empty() {
                continue;
            }
            let n = positions.len();
            if p >= 1.0 {
                // Degenerate (rate-scaled) case: every cell faults.
                for &pos in positions {
                    out.push((pos, self.direction(level, p, rng)));
                }
                continue;
            }
            // Geometric skips: P(skip = j) = (1-p)^j · p, so each cell is
            // independently faulted with probability p and the per-level
            // fault count is Binomial(n, p). ln_1p keeps the log finite
            // and negative even when p is far below f64 epsilon (real SLC
            // rates are ~1e-100, where `(1.0 - p).ln()` would round to 0
            // and turn every skip into 0).
            let ln_q = (-p).ln_1p();
            let mut i = 0usize;
            loop {
                let u: f64 = rng.gen();
                // u < 1 always, so the log is finite and non-positive; the
                // float-to-usize cast saturates on overflow.
                let skip = ((1.0 - u).ln() / ln_q) as usize;
                i = i.saturating_add(skip);
                if i >= n {
                    break;
                }
                out.push((positions[i], self.direction(level, p, rng)));
                i += 1;
            }
        }
        out.sort_unstable_by_key(|&(pos, _)| pos);
        out
    }

    /// Given that a cell at `level` faulted (total rate `p`), draws the
    /// direction: up with probability `p_up / p`, down otherwise.
    fn direction<R: Rng + ?Sized>(&self, level: usize, p: f64, rng: &mut R) -> u8 {
        let d: f64 = rng.gen();
        if d * p < self.map.p_up(level) {
            (level + 1) as u8
        } else {
            (level - 1) as u8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjector;
    use rand::SeedableRng;

    fn map(levels: usize, up: f64, down: f64) -> FaultMap {
        let mut u = vec![up; levels];
        let mut d = vec![down; levels];
        *u.last_mut().unwrap() = 0.0;
        d[0] = 0.0;
        FaultMap::new(u, d)
    }

    fn test_cells(n: usize, levels: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 7 + 3) % levels) as u8).collect()
    }

    #[test]
    fn partition_round_trips_positions() {
        let cells = test_cells(100, 4);
        let part = LevelPartition::new(&cells, 4);
        assert_eq!(part.num_cells(), 100);
        assert_eq!(part.histogram().iter().sum::<usize>(), 100);
        for (level, positions) in (0..4).map(|l| (l, &part.positions[l])) {
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "unsorted");
            for &pos in positions {
                assert_eq!(cells[pos as usize] as usize, level);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_out_of_range_levels() {
        LevelPartition::new(&[7u8], 4);
    }

    #[test]
    fn perfect_map_samples_no_faults() {
        let fmap = FaultMap::perfect(8);
        let sampler = SparseFaultSampler::new(&fmap);
        let part = LevelPartition::new(&test_cells(1000, 8), 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(sampler.sample_faults(&part, &mut rng).is_empty());
    }

    #[test]
    fn sub_epsilon_rates_sample_no_spurious_faults() {
        // Real SLC rates sit far below f64 epsilon; a naive `(1-p).ln()`
        // rounds to zero there and every skip collapses to 0.
        let fmap = map(2, 1e-100, 1e-100);
        let sampler = SparseFaultSampler::new(&fmap);
        let part = LevelPartition::new(&test_cells(4096, 2), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert!(sampler.sample_faults(&part, &mut rng).is_empty());
        }
    }

    #[test]
    fn faults_are_adjacent_sorted_and_unique() {
        let fmap = map(4, 0.05, 0.03);
        let sampler = SparseFaultSampler::new(&fmap);
        let cells = test_cells(5000, 4);
        let part = LevelPartition::new(&cells, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let faults = sampler.sample_faults(&part, &mut rng);
            assert!(faults.windows(2).all(|w| w[0].0 < w[1].0));
            for &(pos, new) in &faults {
                let old = cells[pos as usize] as i16;
                assert_eq!((old - new as i16).abs(), 1, "non-adjacent fault");
            }
        }
    }

    #[test]
    fn saturated_rate_faults_every_cell() {
        let fmap = map(2, 1.0, 1.0);
        let sampler = SparseFaultSampler::new(&fmap);
        let part = LevelPartition::new(&test_cells(64, 2), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(sampler.sample_faults(&part, &mut rng).len(), 64);
    }

    #[test]
    fn sampler_output_is_pinned_per_seed() {
        let fmap = map(4, 0.02, 0.01);
        let sampler = SparseFaultSampler::new(&fmap);
        let part = LevelPartition::new(&test_cells(2000, 4), 4);
        let draw = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            sampler.sample_faults(&part, &mut rng)
        };
        // Identical seed → identical faults; the stream is a pure function
        // of the seed, so any worker mapping trial → seed reproduces it.
        assert_eq!(draw(7), draw(7));
        assert_eq!(draw(8), draw(8));
        assert_ne!(draw(7), draw(8), "seeds must decorrelate trials");
    }

    /// Two-sample chi-square between the sparse sampler and the per-cell
    /// reference injector over per-(level, direction) fault totals.
    #[test]
    fn chi_square_matches_per_cell_reference() {
        const TRIALS: usize = 10_000;
        let levels = 4;
        let fmap = map(levels, 0.004, 0.002);
        let cells = test_cells(512, levels);
        let part = LevelPartition::new(&cells, levels);

        // Category index for a fault old → new: 2*old + (went up).
        let cat = |old: u8, new: u8| 2 * old as usize + usize::from(new > old);
        let mut sparse_counts = vec![0u64; 2 * levels];
        let mut ref_counts = vec![0u64; 2 * levels];

        let sampler = SparseFaultSampler::new(&fmap);
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        for _ in 0..TRIALS {
            for (pos, new) in sampler.sample_faults(&part, &mut rng) {
                sparse_counts[cat(cells[pos as usize], new)] += 1;
            }
        }

        let injector = FaultInjector::new(fmap.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(202);
        let mut scratch = cells.clone();
        for _ in 0..TRIALS {
            scratch.copy_from_slice(&cells);
            injector.inject(&mut scratch, &mut rng);
            for (&old, &new) in cells.iter().zip(&scratch) {
                if old != new {
                    ref_counts[cat(old, new)] += 1;
                }
            }
        }

        // 6 live categories (top level never goes up, bottom never down);
        // χ²(df=6) < 22.46 at p = 0.001.
        let mut chi2 = 0.0f64;
        let mut live = 0;
        for (&a, &b) in sparse_counts.iter().zip(&ref_counts) {
            if a + b == 0 {
                continue;
            }
            live += 1;
            let (a, b) = (a as f64, b as f64);
            chi2 += (a - b).powi(2) / (a + b);
        }
        assert_eq!(live, 6, "sparse {sparse_counts:?} vs ref {ref_counts:?}");
        assert!(
            chi2 < 22.46,
            "chi-square {chi2:.2} over {live} categories: sparse {sparse_counts:?} vs reference {ref_counts:?}"
        );

        // Totals agree within 2% as a direct rate check.
        let s: u64 = sparse_counts.iter().sum();
        let r: u64 = ref_counts.iter().sum();
        let rel = (s as f64 - r as f64).abs() / r as f64;
        assert!(rel < 0.02, "sparse total {s} vs reference total {r}");
    }
}
