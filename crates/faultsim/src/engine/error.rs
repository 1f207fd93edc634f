//! Structured errors for the evaluation engine.
//!
//! Public entry points of the campaign/DSE pipeline report invalid
//! configurations as typed [`EngineError`]s instead of panicking, so
//! callers (CLI binaries, benchmark harnesses) can surface the problem
//! without unwinding through worker threads.

use std::fmt;

/// Everything that can go wrong when configuring or running an
/// evaluation: invalid rate scaling, chip campaigns asked to scale
/// physical rates, mismatched context/campaign settings, a design
/// sweep where no candidate preserves accuracy, a malformed worker
/// override, or a checkpoint that does not belong to the run resuming
/// from it.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `rate_scale` must be a positive, finite multiplier.
    InvalidRateScale(f64),
    /// Chip-instance campaigns draw analog programming outcomes, which
    /// cannot be rate-scaled; only `rate_scale == 1.0` is meaningful.
    ChipRateScale(f64),
    /// A campaign configuration's `rate_scale` disagrees with the
    /// evaluation context whose fault maps it would run against.
    RateScaleMismatch {
        /// The campaign's requested multiplier.
        campaign: f64,
        /// The multiplier the context precomputed its fault maps with.
        context: f64,
    },
    /// An evaluation context was requested with zero workers.
    NoWorkers,
    /// A design sweep found no scheme within the iso-training-noise
    /// bound (cannot happen for supported technologies: SLC always
    /// passes).
    NoPassingScheme,
    /// The `MAXNVM_THREADS` environment variable is set but is not a
    /// positive integer.
    InvalidWorkerConfig {
        /// The rejected value, verbatim.
        value: String,
    },
    /// The `MAXNVM_FORCE_SCALAR` environment variable is set but is not
    /// a recognized boolean (`1`/`true`/`0`/`false`).
    InvalidSimdConfig {
        /// The rejected value, verbatim.
        value: String,
    },
    /// A shard layout that cannot partition anything: a sweep must be
    /// split into `count >= 1` shards and this process's `index` must
    /// name one of them (`index < count`).
    InvalidShardConfig {
        /// The rejected shard index.
        index: usize,
        /// The rejected shard count.
        count: usize,
    },
    /// A checkpoint's configuration fingerprint does not match the run
    /// trying to resume from it — resuming would silently mix trials
    /// from different configurations.
    CheckpointMismatch {
        /// Fingerprint of the resuming run's configuration.
        expected: u64,
        /// Fingerprint recorded in the checkpoint file.
        found: u64,
    },
    /// Reading or writing a checkpoint file failed (transient class:
    /// bounded retry with backoff is appropriate).
    CheckpointIo {
        /// The file involved.
        path: String,
        /// The underlying I/O error, as text.
        detail: String,
    },
    /// Writing a checkpoint failed because the device is out of space
    /// (`ErrorKind::StorageFull`/`WriteZero`). Distinct from
    /// [`EngineError::CheckpointIo`] because retrying cannot help: the
    /// run stops at once, and its previous snapshot stays resumable once
    /// space is freed.
    CheckpointDiskFull {
        /// The file that could not be written.
        path: String,
        /// The underlying I/O error, as text.
        detail: String,
    },
    /// A checkpoint file exists but cannot be parsed (truncated,
    /// corrupted, or from an unknown format version). A snapshot is
    /// recovery state, so the engine never discards one on its own:
    /// every later run over the file fails the same way until the caller
    /// removes it, which restarts the run that wrote it from scratch.
    CheckpointParse {
        /// The file that failed to parse.
        path: String,
        /// What was wrong, with the offending line where possible.
        detail: String,
    },
    /// An internal invariant failed. Surfaced as a typed error instead
    /// of a panic so callers never unwind through worker threads; seeing
    /// this is always a bug in the engine.
    Internal {
        /// Which invariant broke.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRateScale(s) => {
                write!(f, "rate_scale must be positive and finite, got {s}")
            }
            Self::ChipRateScale(s) => write!(
                f,
                "chip-instance campaigns use physical rates; rate_scale must be 1.0, got {s}"
            ),
            Self::RateScaleMismatch { campaign, context } => write!(
                f,
                "campaign rate_scale {campaign} does not match the evaluation \
                 context's precomputed {context}"
            ),
            Self::NoWorkers => {
                write!(f, "an evaluation context requires at least one worker")
            }
            Self::NoPassingScheme => write!(
                f,
                "no storage configuration stays within the iso-training-noise bound"
            ),
            Self::InvalidWorkerConfig { value } => write!(
                f,
                "MAXNVM_THREADS must be a positive integer, got {value:?}"
            ),
            Self::InvalidSimdConfig { value } => write!(
                f,
                "MAXNVM_FORCE_SCALAR must be 1/true or 0/false, got {value:?}"
            ),
            Self::InvalidShardConfig { index, count } => write!(
                f,
                "invalid shard layout: index {index} of count {count} \
                 (need count >= 1 and index < count)"
            ),
            Self::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:016x} does not match this run's \
                 configuration ({expected:016x}); refusing to mix trials from \
                 different configurations"
            ),
            Self::CheckpointIo { path, detail } => {
                write!(f, "checkpoint I/O failed for {path}: {detail}")
            }
            Self::CheckpointDiskFull { path, detail } => {
                write!(
                    f,
                    "checkpoint write to {path} failed: device out of space ({detail}); \
                     free space and rerun to resume from the last snapshot"
                )
            }
            Self::CheckpointParse { path, detail } => write!(
                f,
                "checkpoint {path} is corrupt or unreadable: {detail}; removing it \
                 restarts the run that wrote it from scratch"
            ),
            Self::Internal { detail } => {
                write!(
                    f,
                    "internal engine invariant violated (this is a bug): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::ChipRateScale(2.0);
        assert!(e.to_string().contains("rate_scale must be 1.0"));
        assert!(e.to_string().contains('2'));
        let m = EngineError::RateScaleMismatch {
            campaign: 2.0,
            context: 1.0,
        };
        assert!(m.to_string().contains("does not match"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(EngineError::NoPassingScheme);
        assert!(e.to_string().contains("iso-training-noise"));
    }

    #[test]
    fn resilience_errors_are_informative() {
        let w = EngineError::InvalidWorkerConfig { value: "-3".into() };
        assert!(w.to_string().contains("MAXNVM_THREADS"));
        assert!(w.to_string().contains("-3"));
        let s = EngineError::InvalidSimdConfig {
            value: "yes".into(),
        };
        assert!(s.to_string().contains("MAXNVM_FORCE_SCALAR"));
        assert!(s.to_string().contains("yes"));
        let c = EngineError::CheckpointMismatch {
            expected: 0xabc,
            found: 0xdef,
        };
        assert!(c.to_string().contains("0000000000000def"));
        assert!(c.to_string().contains("0000000000000abc"));
        let io = EngineError::CheckpointIo {
            path: "/tmp/x.ckpt".into(),
            detail: "permission denied".into(),
        };
        assert!(io.to_string().contains("/tmp/x.ckpt"));
        let sh = EngineError::InvalidShardConfig { index: 3, count: 3 };
        assert!(sh.to_string().contains("index 3"));
        assert!(sh.to_string().contains("count 3"));
        assert!(sh.to_string().contains("index < count"));
    }

    #[test]
    fn storage_errors_are_distinguishable_and_informative() {
        let full = EngineError::CheckpointDiskFull {
            path: "/spool/s1.ckpt".into(),
            detail: "No space left on device".into(),
        };
        assert!(full.to_string().contains("/spool/s1.ckpt"));
        assert!(full.to_string().contains("out of space"));
        assert_ne!(
            full,
            EngineError::CheckpointIo {
                path: "/spool/s1.ckpt".into(),
                detail: "No space left on device".into(),
            }
        );
        let parse = EngineError::CheckpointParse {
            path: "/spool/s0.ckpt".into(),
            detail: "missing end line".into(),
        };
        assert!(parse.to_string().contains("/spool/s0.ckpt"));
        assert!(parse.to_string().contains("missing end line"));
        assert!(parse.to_string().contains("removing it restarts the run"));
    }
}
