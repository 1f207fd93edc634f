//! Deterministic sharding of a trial sweep across processes.
//!
//! A sharded run executes a subset of a sweep's (group, trial) pairs —
//! nothing else about trial semantics changes. Because trial `t` of a
//! group always seeds its RNG as `seed.wrapping_add(t)` regardless of
//! which worker (or process, or machine) runs it, a shard draws the
//! *identical* random stream the unsharded run would have used for
//! those trials, and merging shard outputs reproduces the 1-shard run
//! byte for byte.
//!
//! Assignment is a pure function of (base configuration fingerprint,
//! group, trial) reduced modulo the shard count: every pair belongs to
//! exactly one shard, every shard layout covers the whole sweep, and
//! the same configuration partitions the same way on every host. The
//! fingerprint salt keeps assignment from correlating across different
//! sweeps (shard 0 does not always get trial 0's cost profile), while
//! a fixed layout stays stable run over run.

use super::EngineError;
use crate::checkpoint::Fingerprint;

/// Which slice of a sweep this process runs: shard `index` of `count`.
///
/// The default (`index 0, count 1`) is the unsharded layout: it owns
/// every (group, trial) pair, so existing single-process runs are
/// unchanged — same assignment, same RNG streams, same results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard, in `0..count`.
    pub index: usize,
    /// Total number of shards the sweep is split into.
    pub count: usize,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::unsharded()
    }
}

impl ShardSpec {
    /// The layout that owns the whole sweep (index 0 of 1).
    pub fn unsharded() -> Self {
        Self { index: 0, count: 1 }
    }

    /// Shard `index` of `count`; validate with [`Self::validate`].
    pub fn of(index: usize, count: usize) -> Self {
        Self { index, count }
    }

    /// Errors with [`EngineError::InvalidShardConfig`] unless
    /// `count >= 1` and `index < count`.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.count == 0 || self.index >= self.count {
            Err(EngineError::InvalidShardConfig {
                index: self.index,
                count: self.count,
            })
        } else {
            Ok(())
        }
    }

    /// Whether this shard owns `(group, trial)` of the sweep whose base
    /// configuration fingerprint is `base_fp`: the pure assignment
    /// function. For any valid layout the shards partition the sweep —
    /// each pair belongs to exactly one shard — and `count == 1` owns
    /// everything.
    pub fn owns(&self, base_fp: u64, group: usize, trial: usize) -> bool {
        if self.count <= 1 {
            return true;
        }
        let mut f = Fingerprint::resume(base_fp);
        f.push_u64(group as u64).push_u64(trial as u64);
        (f.finish() % self.count as u64) == self.index as u64
    }

    /// Folds this shard layout on top of a base configuration
    /// fingerprint. Shard checkpoints carry the folded digest, so a
    /// resume under a different layout (or of an unsharded snapshot by
    /// a sharded run) fails as a typed `CheckpointMismatch` instead of
    /// silently executing the wrong slice. Applied uniformly — the
    /// unsharded layout folds `(0, 1)` — so sharded and unsharded
    /// snapshots can never be confused for one another by accident of
    /// a matching base digest.
    pub fn fold_fingerprint(&self, base: u64) -> u64 {
        let mut f = Fingerprint::resume(base);
        f.push_str("shard")
            .push_u64(self.index as u64)
            .push_u64(self.count as u64);
        f.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_layouts() {
        ShardSpec::unsharded().validate().expect("default is valid");
        ShardSpec::of(3, 4).validate().expect("last shard is valid");
        for (index, count) in [(0, 0), (1, 1), (4, 4), (7, 2)] {
            let err = ShardSpec::of(index, count)
                .validate()
                .expect_err("must reject");
            assert_eq!(err, EngineError::InvalidShardConfig { index, count });
        }
    }

    #[test]
    fn shards_partition_the_sweep_exactly() {
        let base = 0x1234_5678_9abc_def0u64;
        for count in [1usize, 2, 3, 8] {
            for group in 0..5 {
                for trial in 0..97 {
                    let owners: Vec<usize> = (0..count)
                        .filter(|&i| ShardSpec::of(i, count).owns(base, group, trial))
                        .collect();
                    assert_eq!(owners.len(), 1, "count {count} g {group} t {trial}");
                }
            }
        }
    }

    #[test]
    fn assignment_is_deterministic_and_salted_by_fingerprint() {
        let spec = ShardSpec::of(1, 4);
        let a: Vec<bool> = (0..64).map(|t| spec.owns(7, 0, t)).collect();
        let b: Vec<bool> = (0..64).map(|t| spec.owns(7, 0, t)).collect();
        assert_eq!(a, b, "pure function of its inputs");
        let other: Vec<bool> = (0..64).map(|t| spec.owns(8, 0, t)).collect();
        assert_ne!(a, other, "different sweeps partition differently");
        // Every shard of a 4-way layout gets some of 64 trials (the mix
        // spreads work rather than striping one shard empty).
        for i in 0..4 {
            assert!(
                (0..64).any(|t| ShardSpec::of(i, 4).owns(7, 0, t)),
                "shard {i} starved"
            );
        }
    }

    #[test]
    fn fingerprint_folding_distinguishes_layouts() {
        let base = 42u64;
        let folded: Vec<u64> = [(0, 1), (0, 2), (1, 2), (0, 3)]
            .iter()
            .map(|&(i, c)| ShardSpec::of(i, c).fold_fingerprint(base))
            .collect();
        for (i, a) in folded.iter().enumerate() {
            assert_ne!(*a, base, "folding is never the identity");
            for b in &folded[i + 1..] {
                assert_ne!(a, b, "distinct layouts, distinct digests");
            }
        }
    }
}
