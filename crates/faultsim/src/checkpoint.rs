//! Campaign checkpointing: periodic, atomic snapshots of completed
//! trials so a killed process resumes exactly where it stopped.
//!
//! A [`CampaignCheckpoint`] records the run's identity (a config
//! fingerprint, the scheme label, trial budget and base seed) plus one
//! entry per finished trial — the trial index, its classification error
//! (bit-exact, stored as the hex of [`f64::to_bits`]), and its decode
//! statistics, or the panic message for a trial that failed. Because a
//! trial is a pure function of `seed + trial`, merging checkpointed
//! outcomes with freshly run ones reproduces the uninterrupted result
//! byte for byte at any worker count.
//!
//! Files are written atomically: the snapshot goes to a sibling
//! `<path>.tmp`, is fsynced, and is renamed over the target, so a
//! SIGKILL at any instant leaves either the previous snapshot or the
//! new one — never a torn file. Loading verifies a fingerprint computed
//! over the campaign configuration, the technology, and the stored
//! layers; a mismatch surfaces as
//! [`EngineError::CheckpointMismatch`] instead of silently mixing
//! trials from different configurations. The trial-semantics version
//! ([`TRIAL_SEMANTICS_VERSION`]) is folded into the fingerprint, so
//! checkpoints from an engine whose trial loop changed are rejected
//! the same way.

//!
//! All checkpoint I/O goes through a [`CheckpointStore`]: the real
//! [`FsStore`] keeps the tmp + fsync + rename discipline, while the
//! deterministic [`FaultyStore`] injects seeded I/O errors, torn
//! writes, and disk-full for testing the resilience layer itself.
//! Transient failures are absorbed by a bounded-retry [`RetryPolicy`]
//! with exponential backoff; disk-full surfaces as the distinct
//! [`EngineError::CheckpointDiskFull`] at once, since retrying cannot
//! free space. The previous snapshot stays intact, so the caller can
//! rerun once space is freed.

use crate::campaign::TrialOutcome;
use crate::engine::EngineError;
use maxnvm_encoding::storage::DecodeStats;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// On-disk format tag; bumped only when the file layout itself changes.
///
/// v2 added the `shard <index> <count>` line recording which slice of a
/// sharded sweep a snapshot holds. The format tag is folded into every
/// fingerprint, so v1 snapshots are rejected as
/// [`EngineError::CheckpointMismatch`] rather than misparsed.
pub const CHECKPOINT_FORMAT: &str = "maxnvm-campaign-checkpoint v2";

/// Version of the trial semantics (seeding, fault sampling, decode and
/// summation order). Folded into every fingerprint: resuming a
/// checkpoint across an engine whose trials mean something different
/// must fail loudly.
///
/// Version 3: inference runs on the blocked GEMM kernel with its fixed
/// input-independent summation order (the old naive matmul skipped
/// zero-valued multiplicands, so logits — and hence trial error rates —
/// can differ in the last bit), and trials evaluate sparse weight
/// deltas against the cached clean decode instead of materializing
/// faulty matrices.
///
/// Version 4: every kernel accumulates with single-rounding fused
/// multiply-adds (`fma`) instead of separate multiply + add, so the
/// SIMD tiers, the scalar tier, and per-row recomputation all produce
/// identical bits on every architecture; logits differ in the last bit
/// from version 3's unfused chains.
pub const TRIAL_SEMANTICS_VERSION: u32 = 4;

/// The checkpoint storage backend: text-level read/write of snapshot
/// files. The engine talks only to this trait, so the real filesystem
/// implementation ([`FsStore`]) and the deterministic fault-injecting
/// one ([`FaultyStore`]) are interchangeable — campaigns, sweeps, and
/// the retry layer behave identically against both.
///
/// `write_atomic` must be all-or-nothing with respect to process death
/// (the `FsStore` contract: tmp + fsync + rename), but is allowed to
/// *fail* having left either the previous content or — for an injected
/// torn write — a corrupted file; the parser's `end <count>` trailer
/// and the caller's typed-error handling cover that case.
pub trait CheckpointStore: std::fmt::Debug + Send + Sync {
    /// Writes `text` to `path` atomically (crash leaves old or new
    /// content, never a silent mix).
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), EngineError>;
    /// Reads the full text content of `path`.
    fn read(&self, path: &Path) -> Result<String, EngineError>;
    /// Whether a snapshot exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Removes the snapshot at `path` (missing file is not an error).
    fn remove(&self, path: &Path) -> Result<(), EngineError>;
}

/// Maps an I/O error to the typed engine error: out-of-space conditions
/// (`StorageFull`, `WriteZero`, raw `ENOSPC`) become the distinct
/// [`EngineError::CheckpointDiskFull`], which is never retried;
/// everything else is the transient [`EngineError::CheckpointIo`].
fn map_io_error(path: &Path, e: std::io::Error) -> EngineError {
    let disk_full = matches!(
        e.kind(),
        std::io::ErrorKind::StorageFull | std::io::ErrorKind::WriteZero
    ) || e.raw_os_error() == Some(28); // ENOSPC
    if disk_full {
        EngineError::CheckpointDiskFull {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    } else {
        EngineError::CheckpointIo {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

/// The real filesystem store: snapshots go to a sibling `<path>.tmp`,
/// are fsynced, and renamed over the target, so a SIGKILL at any
/// instant leaves either the previous snapshot or the new one.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStore;

impl CheckpointStore for FsStore {
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), EngineError> {
        let io = |e: std::io::Error| map_io_error(path, e);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp).map_err(io)?;
            file.write_all(text.as_bytes()).map_err(io)?;
            file.sync_all().map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)
    }

    fn read(&self, path: &Path) -> Result<String, EngineError> {
        std::fs::read_to_string(path).map_err(|e| map_io_error(path, e))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> Result<(), EngineError> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(map_io_error(path, e)),
        }
    }
}

/// What a [`FaultyStore`] injects, as independent per-operation
/// probabilities. All draws come from one seeded RNG, so a given
/// (seed, operation sequence) reproduces the identical fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability a write/read fails with a *transient*
    /// [`EngineError::CheckpointIo`] (nothing written; a retry may
    /// succeed).
    pub io_error: f64,
    /// Probability a write is torn: a strict prefix of the text lands
    /// at the final path (bypassing the atomic rename, as a dying disk
    /// or lying filesystem would) and the write reports failure.
    pub torn_write: f64,
    /// Probability a write fails with
    /// [`EngineError::CheckpointDiskFull`] (not retried; previous
    /// snapshot intact).
    pub disk_full: f64,
}

impl FaultPlan {
    /// A moderately hostile default: 20% transient errors, 5% torn
    /// writes, no disk-full.
    pub fn flaky() -> Self {
        Self {
            io_error: 0.2,
            torn_write: 0.05,
            disk_full: 0.0,
        }
    }
}

/// A deterministic fault-injecting [`CheckpointStore`] over the real
/// [`FsStore`]: per operation, it draws from a seeded RNG whether to
/// fail transiently, tear the write, or report disk-full. Used by the
/// resilience tests; the injected schedule is a pure function of the
/// seed and the operation sequence.
pub struct FaultyStore {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
}

impl std::fmt::Debug for FaultyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The vendored parking_lot Mutex has no Debug impl; the RNG
        // state is not informative anyway.
        f.debug_struct("FaultyStore")
            .field("plan", &self.plan)
            .finish()
    }
}

impl FaultyStore {
    /// A faulty store with the given RNG seed and fault plan.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        Self {
            plan,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl CheckpointStore for FaultyStore {
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), EngineError> {
        // Draw the whole schedule for this operation up front so the
        // RNG stream advances identically whichever branch fires.
        let (io_err, torn, full, cut) = {
            let mut rng = self.rng.lock();
            (
                rng.gen_bool(self.plan.io_error),
                rng.gen_bool(self.plan.torn_write),
                rng.gen_bool(self.plan.disk_full),
                rng.gen_range(0..text.len().max(1)),
            )
        };
        if full {
            return Err(EngineError::CheckpointDiskFull {
                path: path.display().to_string(),
                detail: "injected: no space left on device".to_string(),
            });
        }
        if torn {
            // Tear the file in place: a strict prefix lands at the
            // *final* path, as if the device died mid-write without the
            // rename discipline. The parser's end-marker must catch it.
            let _ = std::fs::write(path, &text.as_bytes()[..cut]);
            return Err(EngineError::CheckpointIo {
                path: path.display().to_string(),
                detail: format!("injected: torn write after {cut} bytes"),
            });
        }
        if io_err {
            return Err(EngineError::CheckpointIo {
                path: path.display().to_string(),
                detail: "injected: transient I/O error".to_string(),
            });
        }
        FsStore.write_atomic(path, text)
    }

    fn read(&self, path: &Path) -> Result<String, EngineError> {
        let io_err = self.rng.lock().gen_bool(self.plan.io_error);
        if io_err {
            return Err(EngineError::CheckpointIo {
                path: path.display().to_string(),
                detail: "injected: transient read error".to_string(),
            });
        }
        FsStore.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        FsStore.exists(path)
    }

    fn remove(&self, path: &Path) -> Result<(), EngineError> {
        FsStore.remove(path)
    }
}

/// The retry budget of [`RetryPolicy::default`] and
/// [`CheckpointConfig::new`].
pub const DEFAULT_CHECKPOINT_RETRIES: u32 = 3;

/// Base backoff delay; attempt `k` sleeps `base << k` before retrying.
pub const RETRY_BASE_DELAY: Duration = Duration::from_millis(10);

/// Bounded retry with exponential backoff for checkpoint I/O.
///
/// Only the transient [`EngineError::CheckpointIo`] class is retried;
/// [`EngineError::CheckpointDiskFull`] (retrying cannot help),
/// [`EngineError::CheckpointParse`], and
/// [`EngineError::CheckpointMismatch`] (retrying would return the same
/// bytes) propagate immediately. After the budget is exhausted the last
/// `CheckpointIo` is returned as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = single attempt).
    pub retries: u32,
    /// Backoff before retry `k` is `base_delay << k`.
    pub base_delay: Duration,
}

impl RetryPolicy {
    /// A policy with the given retry budget and the default base delay.
    pub fn new(retries: u32) -> Self {
        Self {
            retries,
            base_delay: RETRY_BASE_DELAY,
        }
    }

    /// No retries at all: one attempt, errors propagate immediately.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// Runs `op`, retrying transient [`EngineError::CheckpointIo`]
    /// failures up to the budget with exponential backoff. Any other
    /// error — and success — returns immediately.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T, EngineError>) -> Result<T, EngineError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(EngineError::CheckpointIo { path, detail }) if attempt < self.retries => {
                    // Exponential backoff, capped shifts so a huge
                    // budget cannot overflow the Duration multiply.
                    let delay = self.base_delay * (1u32 << attempt.min(10));
                    std::thread::sleep(delay);
                    attempt += 1;
                    let _ = (path, detail);
                }
                other => return other,
            }
        }
    }
}

impl Default for RetryPolicy {
    /// [`DEFAULT_CHECKPOINT_RETRIES`] retries.
    fn default() -> Self {
        Self::new(DEFAULT_CHECKPOINT_RETRIES)
    }
}

/// Where and how often to checkpoint a run, and through which store.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Snapshot file; a sibling `<path>.tmp` is used for atomic writes.
    pub path: PathBuf,
    /// Write a snapshot after every `every` newly completed trials
    /// (`0` acts as `1`).
    pub every: usize,
    /// Keep the file after a run completes (default: remove it, so a
    /// finished campaign cannot be accidentally "resumed").
    pub keep_on_success: bool,
    /// The storage backend all checkpoint I/O goes through (default:
    /// the real [`FsStore`]).
    pub store: Arc<dyn CheckpointStore>,
    /// Bounded retry with backoff applied to every load and save.
    pub retry: RetryPolicy,
}

// The trait object has no meaningful equality; two configs are equal
// when their observable policy (path, cadence, retention, retry) is.
impl PartialEq for CheckpointConfig {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
            && self.every == other.every
            && self.keep_on_success == other.keep_on_success
            && self.retry == other.retry
    }
}

impl Eq for CheckpointConfig {}

impl CheckpointConfig {
    /// Checkpoints to `path` every 64 trials, removing on success,
    /// through the real filesystem store with the default retry policy.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 64,
            keep_on_success: false,
            store: Arc::new(FsStore),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the flush cadence (in completed trials; clamped to ≥ 1).
    pub fn every(mut self, trials: usize) -> Self {
        self.every = trials.max(1);
        self
    }

    /// Keeps the snapshot after a successful run.
    pub fn keep_on_success(mut self) -> Self {
        self.keep_on_success = true;
        self
    }

    /// Routes all checkpoint I/O through `store` (e.g. a
    /// [`FaultyStore`] in the fault-injection suite).
    pub fn with_store(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.store = store;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Loads, parses, and — retrying transient I/O per the policy —
    /// returns the snapshot at this config's path.
    pub fn load_snapshot(&self) -> Result<CampaignCheckpoint, EngineError> {
        let text = self.retry.run(|| self.store.read(&self.path))?;
        CampaignCheckpoint::from_text(&text, &self.path)
    }

    /// Saves `snapshot` through the store, retrying transient I/O per
    /// the policy.
    pub fn save_snapshot(&self, snapshot: &CampaignCheckpoint) -> Result<(), EngineError> {
        let text = snapshot.to_text();
        self.retry
            .run(|| self.store.write_atomic(&self.path, &text))
    }
}

/// FNV-1a accumulator for configuration fingerprints. Stable across
/// platforms and runs (unlike `DefaultHasher`, which is seeded).
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint already bound to the checkpoint format and
    /// trial-semantics versions.
    pub fn new() -> Self {
        let mut f = Fingerprint(0xcbf2_9ce4_8422_2325);
        f.push_str(CHECKPOINT_FORMAT);
        f.push_u64(TRIAL_SEMANTICS_VERSION as u64);
        f
    }

    /// Continues a fingerprint from a previously finished digest, so a
    /// shard layout (or any later refinement) can be folded on top of a
    /// base configuration fingerprint without re-walking the inputs.
    pub fn resume(state: u64) -> Self {
        Fingerprint(state)
    }

    /// Folds raw bytes in.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    /// Folds an integer in (little-endian bytes).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Folds a float in, bit-exact.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Folds a string in (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes())
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// A resumable snapshot of a (possibly multi-scheme) campaign: which
/// trials finished and what each produced.
///
/// Plain campaigns use a single group (index 0); DSE sweeps use one
/// group per candidate scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Digest of the campaign configuration this snapshot belongs to.
    pub fingerprint: u64,
    /// Human-readable run label (scheme label or sweep name).
    pub label: String,
    /// Number of trial groups (1 for a campaign, schemes for a DSE).
    pub groups: usize,
    /// Requested trials per group.
    pub trials: usize,
    /// Base RNG seed; trial `t` uses `seed.wrapping_add(t)`.
    pub seed: u64,
    /// Which shard of the sweep this snapshot holds (0 when unsharded).
    pub shard_index: usize,
    /// Total shards in the layout this snapshot was produced under
    /// (1 when unsharded).
    pub shard_count: usize,
    /// Completed trials: `(group, trial, outcome)`.
    pub entries: Vec<(usize, usize, TrialOutcome)>,
}

impl CampaignCheckpoint {
    /// An empty snapshot for a fresh run.
    pub fn new(
        fingerprint: u64,
        label: impl Into<String>,
        groups: usize,
        trials: usize,
        seed: u64,
    ) -> Self {
        Self {
            fingerprint,
            label: label.into(),
            groups,
            trials,
            seed,
            shard_index: 0,
            shard_count: 1,
            entries: Vec::new(),
        }
    }

    /// Marks this snapshot as shard `index` of `count` (the fingerprint
    /// passed to [`Self::new`] should already have the shard layout
    /// folded in; these fields let a merge recover each source's layout
    /// without guessing).
    pub fn with_shard(mut self, index: usize, count: usize) -> Self {
        self.shard_index = index;
        self.shard_count = count;
        self
    }

    /// Records one finished trial.
    pub fn record(&mut self, group: usize, trial: usize, outcome: TrialOutcome) {
        self.entries.push((group, trial, outcome));
    }

    /// Errors with [`EngineError::CheckpointMismatch`] unless this
    /// snapshot's fingerprint matches `expected`.
    pub fn verify(&self, expected: u64) -> Result<(), EngineError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(EngineError::CheckpointMismatch {
                expected,
                found: self.fingerprint,
            })
        }
    }

    /// Serializes the snapshot to its line-based text format.
    pub fn to_text(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort_by_key(|(g, t, _)| (*g, *t));
        let mut out = String::with_capacity(64 + entries.len() * 48);
        out.push_str(CHECKPOINT_FORMAT);
        out.push('\n');
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("groups {}\n", self.groups));
        out.push_str(&format!("trials {}\n", self.trials));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!(
            "shard {} {}\n",
            self.shard_index, self.shard_count
        ));
        out.push_str(&format!("label {}\n", escape(&self.label)));
        for (group, trial, outcome) in &entries {
            match outcome {
                TrialOutcome::Ok { error, stats } => {
                    out.push_str(&format!(
                        "ok {group} {trial} {:016x} {} {} {}\n",
                        error.to_bits(),
                        stats.cell_faults,
                        stats.ecc_corrected,
                        stats.ecc_uncorrectable
                    ));
                }
                TrialOutcome::Failed { seed, message } => {
                    out.push_str(&format!(
                        "failed {group} {trial} {seed} {}\n",
                        escape(message)
                    ));
                }
            }
        }
        out.push_str(&format!("end {}\n", entries.len()));
        out
    }

    /// Parses the text format produced by [`Self::to_text`], as read
    /// from `path`; a [`EngineError::CheckpointParse`] names that file.
    pub fn from_text(text: &str, path: &Path) -> Result<Self, EngineError> {
        let parse = |detail: String| EngineError::CheckpointParse {
            path: path.display().to_string(),
            detail,
        };
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| parse("empty file".into()))?;
        if header != CHECKPOINT_FORMAT {
            return Err(parse(format!("unknown format header {header:?}")));
        }
        let mut field = |name: &str| -> Result<String, EngineError> {
            let line = lines
                .next()
                .ok_or_else(|| parse(format!("missing {name} line")))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| parse(format!("expected {name} line, got {line:?}")))
        };
        let fingerprint = u64::from_str_radix(&field("fingerprint")?, 16)
            .map_err(|e| parse(format!("bad fingerprint: {e}")))?;
        let groups = field("groups")?
            .parse()
            .map_err(|e| parse(format!("bad groups: {e}")))?;
        let trials = field("trials")?
            .parse()
            .map_err(|e| parse(format!("bad trials: {e}")))?;
        let seed = field("seed")?
            .parse()
            .map_err(|e| parse(format!("bad seed: {e}")))?;
        let shard_line = field("shard")?;
        let (shard_index, shard_count) = shard_line
            .split_once(' ')
            .and_then(|(i, c)| Some((i.parse().ok()?, c.parse().ok()?)))
            .ok_or_else(|| parse(format!("bad shard line: {shard_line:?}")))?;
        let label = unescape(&field("label")?);
        let mut entries = Vec::new();
        let mut ended = false;
        for line in lines {
            let (kind, rest) = line
                .split_once(' ')
                .ok_or_else(|| parse(format!("malformed line {line:?}")))?;
            match kind {
                "ok" => {
                    let mut it = rest.splitn(6, ' ');
                    let mut next = |what: &str| -> Result<&str, EngineError> {
                        it.next()
                            .ok_or_else(|| parse(format!("ok line missing {what}: {line:?}")))
                    };
                    let group = next("group")?
                        .parse()
                        .map_err(|e| parse(format!("bad group: {e}")))?;
                    let trial = next("trial")?
                        .parse()
                        .map_err(|e| parse(format!("bad trial: {e}")))?;
                    let error = f64::from_bits(
                        u64::from_str_radix(next("error")?, 16)
                            .map_err(|e| parse(format!("bad error bits: {e}")))?,
                    );
                    let cell_faults = next("cell_faults")?
                        .parse()
                        .map_err(|e| parse(format!("bad cell_faults: {e}")))?;
                    let ecc_corrected = next("ecc_corrected")?
                        .parse()
                        .map_err(|e| parse(format!("bad ecc_corrected: {e}")))?;
                    let ecc_uncorrectable = next("ecc_uncorrectable")?
                        .parse()
                        .map_err(|e| parse(format!("bad ecc_uncorrectable: {e}")))?;
                    entries.push((
                        group,
                        trial,
                        TrialOutcome::Ok {
                            error,
                            stats: DecodeStats {
                                cell_faults,
                                ecc_corrected,
                                ecc_uncorrectable,
                            },
                        },
                    ));
                }
                "failed" => {
                    let mut it = rest.splitn(4, ' ');
                    let mut next = |what: &str| -> Result<&str, EngineError> {
                        it.next()
                            .ok_or_else(|| parse(format!("failed line missing {what}: {line:?}")))
                    };
                    let group = next("group")?
                        .parse()
                        .map_err(|e| parse(format!("bad group: {e}")))?;
                    let trial = next("trial")?
                        .parse()
                        .map_err(|e| parse(format!("bad trial: {e}")))?;
                    let seed = next("seed")?
                        .parse()
                        .map_err(|e| parse(format!("bad seed: {e}")))?;
                    let message = unescape(it.next().unwrap_or(""));
                    entries.push((group, trial, TrialOutcome::Failed { seed, message }));
                }
                "end" => {
                    let count: usize = rest
                        .parse()
                        .map_err(|e| parse(format!("bad end count: {e}")))?;
                    if count != entries.len() {
                        return Err(parse(format!(
                            "truncated snapshot: end says {count}, found {}",
                            entries.len()
                        )));
                    }
                    ended = true;
                }
                other => return Err(parse(format!("unknown record kind {other:?}"))),
            }
        }
        if !ended {
            return Err(parse("truncated snapshot: missing end marker".into()));
        }
        Ok(Self {
            fingerprint,
            label,
            groups,
            trials,
            seed,
            shard_index,
            shard_count,
            entries,
        })
    }

    /// Atomically writes the snapshot through the real [`FsStore`]:
    /// serialize to `<path>.tmp`, fsync, rename over `path`. A crash
    /// mid-write leaves the previous snapshot intact.
    pub fn save(&self, path: &Path) -> Result<(), EngineError> {
        FsStore.write_atomic(path, &self.to_text())
    }

    /// Loads and parses a snapshot through the real [`FsStore`].
    pub fn load(path: &Path) -> Result<Self, EngineError> {
        Self::from_text(&FsStore.read(path)?, path)
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignCheckpoint {
        let mut cp = CampaignCheckpoint::new(0xdead_beef_1234_5678, "BitM+IdxSync", 2, 10, 42);
        cp.record(
            0,
            3,
            TrialOutcome::Ok {
                error: 0.12345678901234567,
                stats: DecodeStats {
                    cell_faults: 7,
                    ecc_corrected: 2,
                    ecc_uncorrectable: 0,
                },
            },
        );
        cp.record(
            1,
            0,
            TrialOutcome::Failed {
                seed: 42,
                message: "index out of bounds:\n the len is 3".into(),
            },
        );
        cp.record(
            0,
            0,
            TrialOutcome::Ok {
                error: f64::MIN_POSITIVE,
                stats: DecodeStats::default(),
            },
        );
        cp
    }

    #[test]
    fn text_round_trip_is_exact() {
        let cp = sample();
        let parsed = CampaignCheckpoint::from_text(&cp.to_text(), Path::new("cp")).expect("parse");
        // Serialization sorts entries by (group, trial).
        let mut want = cp.clone();
        want.entries.sort_by_key(|(g, t, _)| (*g, *t));
        assert_eq!(parsed, want);
    }

    #[test]
    fn file_round_trip_is_exact() {
        let dir = std::env::temp_dir().join(format!("maxnvm-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let cp = sample();
        cp.save(&path).expect("save");
        let loaded = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(loaded.fingerprint, cp.fingerprint);
        assert_eq!(loaded.entries.len(), cp.entries.len());
        // Error bits survive bit-exactly.
        let tiny = loaded
            .entries
            .iter()
            .find(|(g, t, _)| (*g, *t) == (0, 0))
            .unwrap();
        match &tiny.2 {
            TrialOutcome::Ok { error, .. } => {
                assert_eq!(error.to_bits(), f64::MIN_POSITIVE.to_bits())
            }
            other => panic!("wrong outcome {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let cp = sample();
        let text = cp.to_text();
        // Drop the end marker (simulated torn write without the rename
        // discipline).
        let torn: String = text.lines().take(7).map(|l| format!("{l}\n")).collect();
        let err = CampaignCheckpoint::from_text(&torn, Path::new("torn.ckpt")).expect_err("reject");
        assert!(
            matches!(&err, EngineError::CheckpointParse { path, .. } if path == "torn.ckpt"),
            "{err:?}"
        );
    }

    #[test]
    fn shard_layout_round_trips_and_defaults_to_unsharded() {
        let cp = sample();
        assert_eq!((cp.shard_index, cp.shard_count), (0, 1));
        let sharded = sample().with_shard(2, 5);
        let path = Path::new("shard.ckpt");
        let parsed = CampaignCheckpoint::from_text(&sharded.to_text(), path).expect("parse");
        assert_eq!((parsed.shard_index, parsed.shard_count), (2, 5));
        // A snapshot with a mangled shard line is rejected, not guessed.
        let bad = sharded.to_text().replace("shard 2 5", "shard 2");
        assert!(matches!(
            CampaignCheckpoint::from_text(&bad, path),
            Err(EngineError::CheckpointParse { .. })
        ));
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let cp = sample();
        cp.verify(cp.fingerprint).expect("same fingerprint passes");
        let err = cp.verify(1).expect_err("mismatch must fail");
        assert_eq!(
            err,
            EngineError::CheckpointMismatch {
                expected: 1,
                found: cp.fingerprint
            }
        );
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let digest = |f: &mut Fingerprint| f.finish();
        let mut a = Fingerprint::new();
        a.push_str("scheme").push_u64(20).push_f64(1.0);
        let mut b = Fingerprint::new();
        b.push_str("scheme").push_u64(20).push_f64(1.0);
        assert_eq!(digest(&mut a), digest(&mut b), "deterministic");
        let mut c = Fingerprint::new();
        c.push_str("scheme").push_u64(21).push_f64(1.0);
        assert_ne!(digest(&mut a), digest(&mut c), "sensitive to params");
        // Length prefixing: ("ab","c") vs ("a","bc") must differ.
        let mut d = Fingerprint::new();
        d.push_str("ab").push_str("c");
        let mut e = Fingerprint::new();
        e.push_str("a").push_str("bc");
        assert_ne!(digest(&mut d), digest(&mut e));
    }

    #[test]
    fn escape_round_trips_control_characters() {
        for s in ["plain", "with\nnewline", "back\\slash", "\r\n\\n mix \\"] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }

    #[test]
    fn disk_full_io_errors_map_to_the_distinct_variant() {
        let path = Path::new("/spool/s.ckpt");
        for kind in [
            std::io::ErrorKind::StorageFull,
            std::io::ErrorKind::WriteZero,
        ] {
            let err = map_io_error(path, std::io::Error::new(kind, "full"));
            assert!(
                matches!(err, EngineError::CheckpointDiskFull { ref path, .. } if path.contains("s.ckpt")),
                "{kind:?} -> {err:?}"
            );
        }
        let enospc = map_io_error(path, std::io::Error::from_raw_os_error(28));
        assert!(
            matches!(enospc, EngineError::CheckpointDiskFull { .. }),
            "{enospc:?}"
        );
        let other = map_io_error(
            path,
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        );
        assert!(
            matches!(other, EngineError::CheckpointIo { .. }),
            "{other:?}"
        );
    }

    #[test]
    fn retry_policy_retries_only_transient_io() {
        let policy = RetryPolicy {
            retries: 3,
            base_delay: Duration::ZERO,
        };
        // Transient errors are retried until the budget runs out...
        let mut calls = 0;
        let err = policy
            .run(|| -> Result<(), EngineError> {
                calls += 1;
                Err(EngineError::CheckpointIo {
                    path: "p".into(),
                    detail: "flaky".into(),
                })
            })
            .expect_err("exhausted budget must surface the error");
        assert_eq!(calls, 4, "1 attempt + 3 retries");
        assert!(matches!(err, EngineError::CheckpointIo { .. }));
        // ...and success within the budget wins.
        let mut calls = 0;
        policy
            .run(|| {
                calls += 1;
                if calls < 3 {
                    Err(EngineError::CheckpointIo {
                        path: "p".into(),
                        detail: "flaky".into(),
                    })
                } else {
                    Ok(())
                }
            })
            .expect("third attempt succeeds");
        assert_eq!(calls, 3);
        // Disk-full and parse errors are never retried.
        for err in [
            EngineError::CheckpointDiskFull {
                path: "p".into(),
                detail: "full".into(),
            },
            EngineError::CheckpointParse {
                path: "p".into(),
                detail: "torn".into(),
            },
        ] {
            let mut calls = 0;
            let got = policy
                .run(|| -> Result<(), EngineError> {
                    calls += 1;
                    Err(err.clone())
                })
                .expect_err("must propagate");
            assert_eq!(calls, 1, "{err:?} must not be retried");
            assert_eq!(got, err);
        }
    }

    #[test]
    fn faulty_store_is_deterministic_per_seed_and_tears_real_prefixes() {
        let dir = std::env::temp_dir().join(format!("maxnvm-faulty-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ckpt");
        let text = sample().to_text();
        let schedule = |seed: u64| -> Vec<bool> {
            let _ = std::fs::remove_file(&path);
            let store = FaultyStore::new(
                seed,
                FaultPlan {
                    io_error: 0.4,
                    torn_write: 0.3,
                    disk_full: 0.1,
                },
            );
            (0..32)
                .map(|_| store.write_atomic(&path, &text).is_ok())
                .collect()
        };
        assert_eq!(schedule(9), schedule(9), "same seed, same fault schedule");
        assert_ne!(schedule(9), schedule(10), "different seeds must differ");
        // A torn write leaves a strict prefix at the final path that the
        // parser rejects with a typed error.
        let _ = std::fs::remove_file(&path);
        let torn_only = FaultyStore::new(
            0,
            FaultPlan {
                io_error: 0.0,
                torn_write: 1.0,
                disk_full: 0.0,
            },
        );
        let err = torn_only.write_atomic(&path, &text).expect_err("torn");
        assert!(matches!(err, EngineError::CheckpointIo { .. }));
        if path.exists() {
            let left = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with(&left), "must be a prefix");
            assert!(left.len() < text.len(), "must be strict");
            assert!(CampaignCheckpoint::from_text(&left, &path).is_err());
        }
        // Disk-full injection surfaces the distinct variant.
        let full_only = FaultyStore::new(
            0,
            FaultPlan {
                io_error: 0.0,
                torn_write: 0.0,
                disk_full: 1.0,
            },
        );
        let err = full_only.write_atomic(&path, &text).expect_err("full");
        assert!(matches!(err, EngineError::CheckpointDiskFull { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_config_equality_ignores_the_store() {
        let a = CheckpointConfig::new("/tmp/a.ckpt").every(8);
        let b = CheckpointConfig::new("/tmp/a.ckpt")
            .every(8)
            .with_store(Arc::new(FaultyStore::new(1, FaultPlan::flaky())));
        assert_eq!(a, b, "store backend is not part of the config identity");
        let c = CheckpointConfig::new("/tmp/a.ckpt")
            .every(8)
            .with_retry(RetryPolicy::none());
        assert_ne!(a, c, "retry policy is part of the config identity");
    }
}
