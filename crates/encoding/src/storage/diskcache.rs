//! Cross-process persistence for the [`super::EncodeCache`]: encode
//! artifacts written to a content-addressed on-disk store so N worker
//! processes sweeping the same design space pay the dominant encode
//! cost once instead of N times.
//!
//! Two artifact kinds are cached, mirroring the in-memory cache's two
//! maps: the raw [`EncodedStreams`] of a (layer, encoding, IdxSync)
//! triple, and the [`CleanLayerDecode`] they round-trip to. Both are
//! pure functions of the clustered layer content and the
//! encoding-relevant scheme components, so files are keyed by an FNV-1a
//! digest over exactly those inputs — any process that computes the
//! same key computes the same bytes, making concurrent writes
//! idempotent (last rename wins, contents identical).
//!
//! Files are text, written atomically (tmp + fsync + rename, the same
//! discipline as campaign checkpoints) through an [`ArtifactStore`] so
//! the fault-injection test suite can interpose a flaky backend. The
//! cache is strictly best-effort: an unreadable, torn, or corrupt entry
//! is treated as a miss and recomputed (and rewritten, self-healing);
//! a failed write is dropped. Trial results therefore never depend on
//! cache health — only wall-clock time does.
//!
//! Eviction is manual and always safe: entries are content-addressed
//! and self-contained, so deleting any or all files (or the whole
//! directory, via [`EncodeDiskCache::clear`]) can only cause misses.

use super::layer::EncodedStreams;
use super::prepared::CleanLayerDecode;
use super::scheme::StorageScheme;
use crate::cluster::ClusteredLayer;
use crate::{EncodingKind, StructureKind};
use maxnvm_bits::BitBuffer;
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_dnn::sparse::SparseMatrix;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// On-disk format tag; bumped when the file layout changes (old entries
/// then simply miss and are rewritten).
pub const ENCODE_CACHE_FORMAT: &str = "maxnvm-encode-cache v1";

/// Counters of the disk layer's activity, surfaced on campaign and DSE
/// results so cross-process cache effectiveness is observable.
///
/// Only *disk* operations count: a run without a disk-backed cache
/// reports all zeros, and the purely in-memory sharing of the
/// [`super::EncodeCache`] is not tallied (it is unconditionally on).
/// Totals are deterministic for a single-worker context; with parallel
/// workers two concurrent misses on one key may both recompute (each
/// counted), so equality comparisons across runs should zero these
/// fields first.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EncodeCacheStats {
    /// Artifacts served from disk.
    pub disk_hits: u64,
    /// Artifacts recomputed because no (readable) entry existed.
    pub disk_misses: u64,
    /// Bytes of artifact text read from disk.
    pub bytes_read: u64,
    /// Bytes of artifact text written to disk.
    pub bytes_written: u64,
}

impl EncodeCacheStats {
    /// Disk hits over total disk lookups, or 0.0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.disk_hits + self.disk_misses;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }
}

/// Storage backend for cache artifacts: the same read/write-atomic
/// shape as the checkpoint store, but expressed over `std::io::Error`
/// so the encoding crate stays independent of the fault-sim engine.
/// `maxnvm-faultsim` adapts its `CheckpointStore` (including the
/// fault-injecting one) onto this trait.
pub trait ArtifactStore: std::fmt::Debug + Send + Sync {
    /// Writes `text` to `path` atomically (crash leaves old or new
    /// content, never a silent mix).
    fn write_atomic(&self, path: &Path, text: &str) -> std::io::Result<()>;
    /// Reads the full text content of `path`.
    fn read(&self, path: &Path) -> std::io::Result<String>;
    /// Whether an artifact exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Removes the artifact at `path` (missing file is not an error).
    fn remove(&self, path: &Path) -> std::io::Result<()>;
}

/// The real filesystem store: tmp + fsync + rename, exactly the
/// checkpoint discipline, so a SIGKILL mid-write never leaves a torn
/// entry at the final path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsArtifactStore;

impl ArtifactStore for FsArtifactStore {
    fn write_atomic(&self, path: &Path, text: &str) -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    fn read(&self, path: &Path) -> std::io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// FNV-1a/64 accumulator for content keys (same constants as the
/// checkpoint fingerprint; kept local so `maxnvm-encoding` stays
/// dependency-free of the engine).
struct ContentKey(u64);

impl ContentKey {
    fn new() -> Self {
        let mut k = ContentKey(0xcbf2_9ce4_8422_2325);
        k.push_str(ENCODE_CACHE_FORMAT);
        k
    }

    fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes())
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stable integer tag for each structure kind in the stream file format
/// (display names contain spaces, so they cannot delimit fields).
fn kind_tag(kind: StructureKind) -> u64 {
    match kind {
        StructureKind::Values => 0,
        StructureKind::ColIndex => 1,
        StructureKind::RowCounter => 2,
        StructureKind::Mask => 3,
        StructureKind::SyncCounter => 4,
        StructureKind::Centroids => 5,
    }
}

fn kind_from_tag(tag: u64) -> Option<StructureKind> {
    Some(match tag {
        0 => StructureKind::Values,
        1 => StructureKind::ColIndex,
        2 => StructureKind::RowCounter,
        3 => StructureKind::Mask,
        4 => StructureKind::SyncCounter,
        5 => StructureKind::Centroids,
        _ => return None,
    })
}

fn encoding_tag(kind: EncodingKind) -> u64 {
    match kind {
        EncodingKind::DenseClustered => 0,
        EncodingKind::Csr => 1,
        EncodingKind::BitMask => 2,
    }
}

/// The cross-process disk layer of the encode cache: a directory of
/// content-addressed text artifacts behind an [`ArtifactStore`].
///
/// Like the in-memory cache, one instance must only ever be used with
/// one list of layers (layer identity is the caller's index, memoized
/// into a content digest on first use).
pub struct EncodeDiskCache {
    dir: PathBuf,
    store: Arc<dyn ArtifactStore>,
    /// Memoized content digest per layer index.
    layer_keys: Mutex<BTreeMap<usize, u64>>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl std::fmt::Debug for EncodeDiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The vendored parking_lot Mutex has no Debug impl; the memo
        // table is not informative anyway.
        f.debug_struct("EncodeDiskCache")
            .field("dir", &self.dir)
            .field("store", &self.store)
            .finish()
    }
}

impl EncodeDiskCache {
    /// A disk cache rooted at `dir` (created on first write) over the
    /// real filesystem store.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            store: Arc::new(FsArtifactStore),
            layer_keys: Mutex::new(BTreeMap::new()),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// Routes all artifact I/O through `store` (e.g. a fault-injecting
    /// backend in the resilience test suite).
    pub fn with_store(mut self, store: Arc<dyn ArtifactStore>) -> Self {
        self.store = store;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the disk-layer counters.
    pub fn stats(&self) -> EncodeCacheStats {
        EncodeCacheStats {
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Evicts every cache entry (`*.mnvc` under the cache directory).
    /// Always safe: entries are content-addressed, so deletion can only
    /// cause future misses, never wrong artifacts.
    pub fn clear(&self) -> std::io::Result<()> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.extension().is_some_and(|e| e == "mnvc") {
                self.store.remove(&p)?;
            }
        }
        Ok(())
    }

    /// Content digest of `layer`, memoized under the caller's index.
    fn layer_key(&self, layer_idx: usize, layer: &ClusteredLayer) -> u64 {
        if let Some(&k) = self.layer_keys.lock().get(&layer_idx) {
            return k;
        }
        let mut k = ContentKey::new();
        k.push_str(&layer.name)
            .push_u64(layer.rows as u64)
            .push_u64(layer.cols as u64)
            .push_u64(layer.index_bits as u64)
            .push_u64(layer.centroids.len() as u64);
        for &c in &layer.centroids {
            k.push_u64(c.to_bits() as u64);
        }
        k.push_u64(layer.indices.len() as u64);
        for &i in &layer.indices {
            k.push_u64(i as u64);
        }
        let key = k.finish();
        self.layer_keys.lock().entry(layer_idx).or_insert(key);
        key
    }

    /// The content key shared by the streams and decode artifacts of
    /// (`layer`, encode-relevant scheme components): both are pure
    /// functions of exactly these inputs.
    fn artifact_key(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
    ) -> u64 {
        let idx_sync = scheme.encoding == EncodingKind::BitMask && scheme.idx_sync;
        let mut k = ContentKey::new();
        k.push_u64(self.layer_key(layer_idx, layer))
            .push_u64(encoding_tag(scheme.encoding))
            .push_u64(idx_sync as u64)
            .push_u64(if idx_sync {
                scheme.sync_block_bits as u64
            } else {
                0
            });
        k.finish()
    }

    fn path_for(&self, prefix: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{prefix}-{key:016x}.mnvc"))
    }

    /// Reads and parses an artifact, counting a hit on success and a
    /// miss otherwise (missing, unreadable, torn, or corrupt entries
    /// all land on the recompute path).
    fn load<T>(&self, path: &Path, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let parsed = self.store.read(path).ok().and_then(|text| {
            self.bytes_read
                .fetch_add(text.len() as u64, Ordering::Relaxed);
            parse(&text)
        });
        match parsed {
            Some(v) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Best-effort atomic write; failures are dropped (the cache may
    /// not impede the sweep) but the byte count records the attempt's
    /// successful completion only.
    fn save(&self, path: &Path, text: &str) {
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        if self.store.write_atomic(path, text).is_ok() {
            self.bytes_written
                .fetch_add(text.len() as u64, Ordering::Relaxed);
        }
    }

    /// The cached [`EncodedStreams`] for (`layer`, `scheme`), or `None`
    /// on a miss.
    pub(super) fn load_streams(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
    ) -> Option<EncodedStreams> {
        let key = self.artifact_key(layer_idx, layer, scheme);
        self.load(&self.path_for("s", key), parse_streams)
    }

    /// Persists freshly encoded streams.
    pub(super) fn store_streams(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
        encoded: &EncodedStreams,
    ) {
        let key = self.artifact_key(layer_idx, layer, scheme);
        self.save(&self.path_for("s", key), &render_streams(encoded));
    }

    /// The cached [`CleanLayerDecode`] for (`layer`, `scheme`), or
    /// `None` on a miss.
    pub(super) fn load_decode(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
    ) -> Option<CleanLayerDecode> {
        let key = self.artifact_key(layer_idx, layer, scheme);
        self.load(&self.path_for("d", key), parse_decode)
    }

    /// Persists a freshly computed clean decode.
    pub(super) fn store_decode(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
        decode: &CleanLayerDecode,
    ) {
        let key = self.artifact_key(layer_idx, layer, scheme);
        self.save(&self.path_for("d", key), &render_decode(decode));
    }
}

/// Serializes a bit buffer as `<bitlen> <hexword>*` (LSB-first 64-bit
/// words, exactly the internal layout, so the round trip is bitwise).
fn render_bits(out: &mut String, bits: &BitBuffer) {
    let _ = write!(out, "{}", bits.len());
    let mut start = 0usize;
    while start < bits.len() {
        let take = (bits.len() - start).min(64);
        let word = bits.read_at(start, take).unwrap_or(0);
        let _ = write!(out, " {word:x}");
        start += take;
    }
}

/// Parses the output of [`render_bits`] from a whitespace token stream.
fn parse_bits<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Option<BitBuffer> {
    let len: usize = tokens.next()?.parse().ok()?;
    let mut bits = BitBuffer::with_capacity(len);
    let mut start = 0usize;
    while start < len {
        let take = (len - start).min(64);
        let word = u64::from_str_radix(tokens.next()?, 16).ok()?;
        // Mask to the declared width so a corrupt token cannot trip the
        // bit-buffer's width assertion — the end marker still rejects
        // short files, and a wrong-but-well-formed word only yields a
        // cache entry that fails the caller's use, never a panic.
        let masked = if take == 64 {
            word
        } else {
            word & ((1u64 << take) - 1)
        };
        bits.push_bits(masked, take);
        start += take;
    }
    Some(bits)
}

fn render_streams(encoded: &EncodedStreams) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{ENCODE_CACHE_FORMAT} streams");
    let _ = writeln!(out, "entries {}", encoded.entries);
    let _ = writeln!(out, "col_idx_bits {}", encoded.col_idx_bits);
    let _ = writeln!(out, "counter_bits {}", encoded.counter_bits);
    for (kind, bits) in &encoded.streams {
        let _ = write!(out, "stream {} ", kind_tag(*kind));
        render_bits(&mut out, bits);
        out.push('\n');
    }
    let _ = writeln!(out, "end {}", encoded.streams.len());
    out
}

fn parse_streams(text: &str) -> Option<EncodedStreams> {
    let mut lines = text.lines();
    if lines.next()? != format!("{ENCODE_CACHE_FORMAT} streams") {
        return None;
    }
    let field = |line: Option<&str>, name: &str| -> Option<u64> {
        line?.strip_prefix(name)?.strip_prefix(' ')?.parse().ok()
    };
    let entries = field(lines.next(), "entries")? as usize;
    let col_idx_bits = u8::try_from(field(lines.next(), "col_idx_bits")?).ok()?;
    let counter_bits = u8::try_from(field(lines.next(), "counter_bits")?).ok()?;
    let mut streams = Vec::new();
    let mut ended = false;
    for line in lines {
        if let Some(rest) = line.strip_prefix("stream ") {
            let mut tokens = rest.split_ascii_whitespace();
            let kind = kind_from_tag(tokens.next()?.parse().ok()?)?;
            let bits = parse_bits(&mut tokens)?;
            if tokens.next().is_some() {
                return None; // trailing garbage
            }
            streams.push((kind, bits));
        } else if let Some(rest) = line.strip_prefix("end ") {
            if rest.parse::<usize>().ok()? != streams.len() {
                return None;
            }
            ended = true;
        } else {
            return None;
        }
    }
    ended.then_some(EncodedStreams {
        streams,
        entries,
        col_idx_bits,
        counter_bits,
    })
}

fn render_decode(decode: &CleanLayerDecode) -> String {
    let m = &decode.matrix;
    let mut out = String::new();
    let _ = writeln!(out, "{ENCODE_CACHE_FORMAT} decode");
    // The name is the last field on its line, so arbitrary characters
    // short of a newline survive; a newline-bearing name (never
    // produced by the model zoo) simply fails the round-trip test
    // below and the entry self-heals as a miss.
    let _ = writeln!(out, "name {}", m.name);
    let _ = writeln!(out, "rows {}", m.rows);
    let _ = writeln!(out, "cols {}", m.cols);
    let _ = write!(out, "matrix {}", m.data.len());
    for v in &m.data {
        let _ = write!(out, " {:x}", v.to_bits());
    }
    out.push('\n');
    let _ = write!(out, "slots {}", decode.value_slots.len());
    for s in &decode.value_slots {
        let _ = write!(out, " {s:x}");
    }
    out.push('\n');
    let _ = writeln!(out, "end 1");
    out
}

fn parse_decode(text: &str) -> Option<CleanLayerDecode> {
    let mut lines = text.lines();
    if lines.next()? != format!("{ENCODE_CACHE_FORMAT} decode") {
        return None;
    }
    let name = lines.next()?.strip_prefix("name ")?.to_string();
    let rows: usize = lines.next()?.strip_prefix("rows ")?.parse().ok()?;
    let cols: usize = lines.next()?.strip_prefix("cols ")?.parse().ok()?;
    let mut mat_tokens = lines
        .next()?
        .strip_prefix("matrix ")?
        .split_ascii_whitespace();
    let n: usize = mat_tokens.next()?.parse().ok()?;
    if n != rows.checked_mul(cols)? {
        return None;
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(f32::from_bits(
            u32::from_str_radix(mat_tokens.next()?, 16).ok()?,
        ));
    }
    if mat_tokens.next().is_some() {
        return None;
    }
    let mut slot_tokens = lines
        .next()?
        .strip_prefix("slots ")?
        .split_ascii_whitespace();
    let n_slots: usize = slot_tokens.next()?.parse().ok()?;
    let mut value_slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        value_slots.push(u32::from_str_radix(slot_tokens.next()?, 16).ok()?);
    }
    if slot_tokens.next().is_some() || lines.next()? != "end 1" || lines.next().is_some() {
        return None;
    }
    let matrix = LayerMatrix::new(&name, rows, cols, data);
    // `CleanLayerDecode::sparse` is `from_dense` of the clean matrix, so
    // rebuilding it here reproduces the in-memory value without storing
    // it.
    let sparse = SparseMatrix::from_dense(&matrix);
    Some(CleanLayerDecode {
        matrix,
        value_slots,
        sparse,
    })
}
