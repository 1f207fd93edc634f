//! O(expected faults) trial decoding.
//!
//! A Monte-Carlo campaign decodes the same [`StoredLayer`] thousands of
//! times, and at the paper's ~1e-5 fault rates almost every trial differs
//! from the clean decode in a handful of cells. [`PreparedLayer`] caches
//! the clean decode once ([`CleanLayerDecode`]) and, per trial, samples
//! only the faulted cells (via [`SparseFaultSampler`]) and re-decodes only
//! the regions they can reach:
//!
//! - **Values** faults are entry-local while the metadata is clean: the
//!   flipped cell's ECC words (or raw bits) are re-decoded, and only the
//!   touched entries are re-mapped through the centroid LUT into their
//!   cached output slots.
//! - **CSR column-gap** faults shift alignment within one row only; the
//!   dirty rows are re-walked from the patched gap stream.
//! - **BitMask mask** faults under IdxSync are confined to their sync
//!   block (Fig. 4); the dirty blocks are re-walked from the patched mask.
//! - **RowCounter / SyncCounter** faults (and mask faults without
//!   IdxSync) shift global alignment, so those rare trials fall back to a
//!   full re-parse — still from cached payload streams, skipping the
//!   per-cell unpack of every clean structure.
//!
//! Equivalence with [`StoredLayer::decode_with_codec`] under identical
//! flips is locked by the tests in `storage::tests`; only the fault
//! *sampling* differs from the per-cell reference path (statistically, not
//! bitwise — see `maxnvm_envm::sparse`).

use super::layer::StoredLayer;
use super::structure::DecodeStats;
use crate::{EncodingKind, StructureKind};
use maxnvm_bits::BitBuffer;
use maxnvm_dnn::network::{LayerMatrix, WeightDelta};
use maxnvm_dnn::sparse::SparseMatrix;
use maxnvm_ecc::{BlockCodec, Correction};
use maxnvm_envm::{FaultInjector, FaultMap, LevelPartition, MlcConfig, SparseFaultSampler};
use rand::Rng;
use std::sync::Arc;

/// The fault-free decode of a stored layer, computed once and shared by
/// every trial (and, via [`super::EncodeCache`], by every scheme that
/// differs only in bits-per-cell or protection — a clean decode is a
/// lossless round trip, so it depends only on the raw encoded streams).
#[derive(Debug)]
pub struct CleanLayerDecode {
    /// The clean weight matrix.
    pub matrix: LayerMatrix,
    /// Output slot each stored value entry writes under clean metadata
    /// (`u32::MAX` when an entry lands outside the matrix).
    pub value_slots: Vec<u32>,
    /// The nonzeros of `matrix` (`SparseMatrix::from_dense`), which the
    /// per-layer nonzero and density counters on results read.
    pub sparse: SparseMatrix,
}

impl CleanLayerDecode {
    /// Decodes `stored` with no faults and records the entry → slot map.
    pub fn of(stored: &StoredLayer) -> Self {
        let streams: Vec<(StructureKind, BitBuffer)> = stored
            .structures
            .iter()
            .map(|s| (s.kind, s.unpack_cells(&s.cells).0))
            .collect();
        let enc = stored.parse_streams(&streams);
        let indices = enc.reconstruct_indices();
        let matrix = stored.matrix_from_indices(&indices);
        let value_slots = enc.entry_slots();
        let sparse = SparseMatrix::from_dense(&matrix);
        Self {
            matrix,
            value_slots,
            sparse,
        }
    }
}

/// A stored layer prepared for O(faults) Monte-Carlo trials: the clean
/// decode, per-structure level partitions for sparse fault sampling, and
/// the cached clean payload/stored bit streams dirty regions patch into.
#[derive(Debug, Clone)]
pub struct PreparedLayer<'a> {
    stored: &'a StoredLayer,
    clean: Arc<CleanLayerDecode>,
    /// Per structure: cells partitioned by programmed level.
    partitions: Vec<LevelPartition>,
    /// Per structure: the clean post-ECC payload stream.
    clean_payload: Vec<BitBuffer>,
    /// Per ECC-protected structure: the clean pre-ECC stored stream.
    clean_stored: Vec<Option<BitBuffer>>,
    /// CSR: entry index where each row's run starts (`rows + 1` long).
    row_starts: Option<Vec<usize>>,
    /// CSR: clean per-row entry counts.
    row_counts: Option<Vec<usize>>,
    /// BitMask + IdxSync: clean value-pointer base per sync block.
    block_bases: Option<Vec<usize>>,
}

impl<'a> PreparedLayer<'a> {
    /// Prepares `stored` around a (possibly cache-shared) clean decode.
    pub fn new(stored: &'a StoredLayer, clean: Arc<CleanLayerDecode>) -> Self {
        let partitions = stored
            .structures
            .iter()
            .map(|s| LevelPartition::new(&s.cells, s.bpc.levels()))
            .collect();
        let clean_payload: Vec<BitBuffer> = stored
            .structures
            .iter()
            .map(|s| s.unpack_cells(&s.cells).0)
            .collect();
        let clean_stored = stored
            .structures
            .iter()
            .map(|s| s.ecc.map(|_| s.unpack_stored_bits(&s.cells)))
            .collect();
        let find = |kind| stored.structures.iter().position(|s| s.kind == kind);
        // CSR always stores row counters, so `find` succeeds; if the
        // stream were ever absent the layer simply loses the patch fast
        // path and decodes via the full pass.
        let csr_counters = (stored.scheme.encoding == EncodingKind::Csr)
            .then(|| find(StructureKind::RowCounter))
            .flatten();
        let (row_starts, row_counts) = if let Some(ci) = csr_counters {
            let cb = stored.counter_bits as usize;
            let buf = &clean_payload[ci];
            let counts: Vec<usize> = (0..stored.rows)
                .map(|r| buf.read_at(r * cb, cb).unwrap_or(0) as usize)
                .collect();
            let mut starts = Vec::with_capacity(stored.rows + 1);
            let mut acc = 0usize;
            starts.push(0);
            for &c in &counts {
                acc += c;
                starts.push(acc);
            }
            (Some(starts), Some(counts))
        } else {
            (None, None)
        };
        // Same shape for IdxSync: a missing counter stream (impossible
        // by construction) just disables mask patching.
        let block_bases = (stored.scheme.encoding == EncodingKind::BitMask
            && stored.scheme.idx_sync)
            .then(|| find(StructureKind::SyncCounter))
            .flatten()
            .map(|si| {
                let cb =
                    crate::bitmask::sync_counter_bits_for(stored.scheme.sync_block_bits) as usize;
                let nblocks = (stored.rows * stored.cols).div_ceil(stored.scheme.sync_block_bits);
                let buf = &clean_payload[si];
                let mut bases = Vec::with_capacity(nblocks + 1);
                let mut acc = 0usize;
                bases.push(0);
                for b in 0..nblocks {
                    acc += buf.read_at(b * cb, cb).unwrap_or(0) as usize;
                    bases.push(acc);
                }
                bases
            });
        Self {
            stored,
            clean,
            partitions,
            clean_payload,
            clean_stored,
            row_starts,
            row_counts,
            block_bases,
        }
    }

    /// Prepares `stored` without a shared cache (computes its own clean
    /// decode).
    pub fn prepare(stored: &'a StoredLayer) -> Self {
        Self::new(stored, Arc::new(CleanLayerDecode::of(stored)))
    }

    /// The underlying stored layer.
    pub fn stored(&self) -> &StoredLayer {
        self.stored
    }

    /// The shared clean decode.
    pub fn clean(&self) -> &CleanLayerDecode {
        &self.clean
    }

    /// Exact expected faulted cells per trial (all structures, or only
    /// `target`), from the cached per-structure level histograms.
    pub fn expected_faults(
        &self,
        target: Option<StructureKind>,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
    ) -> f64 {
        self.stored
            .structures
            .iter()
            .zip(&self.partitions)
            .filter(|(s, _)| target.is_none_or(|t| t == s.kind))
            .map(|(s, part)| {
                FaultInjector::new((*fault_for(s.bpc)).clone())
                    .expected_faults_exact(&part.histogram())
            })
            .sum()
    }

    /// Sparse-sampled equivalent of [`StoredLayer::decode_with_faults`].
    pub fn decode_with_faults<R: Rng + ?Sized>(
        &self,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (LayerMatrix, DecodeStats) {
        self.decode_targeted(None, fault_for, rng)
    }

    /// Sparse-sampled equivalent of
    /// [`StoredLayer::decode_with_isolated_faults`] (Fig. 5 isolation).
    pub fn decode_with_isolated_faults<R: Rng + ?Sized>(
        &self,
        target: StructureKind,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (LayerMatrix, DecodeStats) {
        self.decode_targeted(Some(target), fault_for, rng)
    }

    fn decode_targeted<R: Rng + ?Sized>(
        &self,
        target: Option<StructureKind>,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (LayerMatrix, DecodeStats) {
        let flips = self.sample_flips(target, fault_for, rng);
        self.decode_flips(&flips)
    }

    /// Samples one trial's per-structure flip lists. Structures are
    /// sampled in storage order, so the RNG stream — and therefore the
    /// trial — is a pure function of the seed; the matrix- and
    /// delta-producing paths share this sampler and thus see *identical*
    /// faults for the same RNG state.
    fn sample_flips<R: Rng + ?Sized>(
        &self,
        target: Option<StructureKind>,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> Vec<Vec<(u32, u8)>> {
        self.stored
            .structures
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if target.is_some_and(|t| t != s.kind) {
                    return Vec::new();
                }
                let sampler = SparseFaultSampler::new((*fault_for(s.bpc)).clone());
                sampler.sample_faults(&self.partitions[i], rng)
            })
            .collect()
    }

    /// Sparse-sampled trial decoded to a *sparse weight delta* instead of
    /// a materialized matrix: the slot-sorted list of weight cells whose
    /// decoded value differs bitwise from the clean decode. Consumes the
    /// RNG exactly like [`PreparedLayer::decode_with_faults`], and
    /// applying the deltas onto the clean matrix reproduces its result
    /// bit for bit (locked by the storage equivalence tests).
    pub fn deltas_with_faults<R: Rng + ?Sized>(
        &self,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (Vec<WeightDelta>, DecodeStats) {
        let flips = self.sample_flips(None, fault_for, rng);
        self.deltas_flips(&flips)
    }

    /// Delta form of [`PreparedLayer::decode_with_isolated_faults`].
    pub fn deltas_with_isolated_faults<R: Rng + ?Sized>(
        &self,
        target: StructureKind,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (Vec<WeightDelta>, DecodeStats) {
        let flips = self.sample_flips(Some(target), fault_for, rng);
        self.deltas_flips(&flips)
    }

    /// Delta form of [`PreparedLayer::decode_flips`]: the same flips, but
    /// reported as the slot-sorted set of weight cells that end up
    /// differing bitwise from the clean matrix (possibly empty — e.g. an
    /// ECC-corrected flip or one that re-decodes to the clean centroid).
    pub fn deltas_flips(&self, flips: &[Vec<(u32, u8)>]) -> (Vec<WeightDelta>, DecodeStats) {
        let stats = DecodeStats {
            cell_faults: flips.iter().map(Vec::len).sum(),
            ..DecodeStats::default()
        };
        if stats.cell_faults == 0 {
            return (Vec::new(), stats);
        }
        if self.patchable(flips) {
            self.deltas_patch(flips, stats)
        } else {
            let (m, stats) = self.decode_full(flips, stats);
            (diff_deltas(&self.clean.matrix.data, &m.data), stats)
        }
    }

    /// Decodes under an explicit per-structure flip list (`(cell, new
    /// level)` pairs) — the seam the equivalence tests drive with the same
    /// flips applied to the full per-cell decoder.
    pub fn decode_flips(&self, flips: &[Vec<(u32, u8)>]) -> (LayerMatrix, DecodeStats) {
        let stats = DecodeStats {
            cell_faults: flips.iter().map(Vec::len).sum(),
            ..DecodeStats::default()
        };
        if stats.cell_faults == 0 {
            return (self.clean.matrix.clone(), stats);
        }
        if self.patchable(flips) {
            self.decode_patch(flips, stats)
        } else {
            self.decode_full(flips, stats)
        }
    }

    /// A dirty structure admits an incremental re-decode when its fault
    /// blast radius is bounded: Values entries are slot-local, CSR gaps
    /// row-local, IdxSync mask bits block-local. Counter faults (and
    /// mask faults without IdxSync) shift global alignment → full pass.
    fn patchable(&self, flips: &[Vec<(u32, u8)>]) -> bool {
        self.stored.structures.iter().zip(flips).all(|(s, f)| {
            f.is_empty()
                || match s.kind {
                    StructureKind::Values => true,
                    StructureKind::ColIndex => {
                        self.row_starts.is_some() && self.row_counts.is_some()
                    }
                    StructureKind::Mask => self.block_bases.is_some(),
                    _ => false,
                }
        })
    }

    /// Splices `flips` into structure `i`'s streams, re-decoding only the
    /// ECC words a flipped cell touches. Returns the patched payload and
    /// the payload bit ranges that may differ from clean.
    fn patched_payload(
        &self,
        i: usize,
        flips: &[(u32, u8)],
        stats: &mut DecodeStats,
    ) -> (BitBuffer, Vec<(usize, usize)>) {
        let s = &self.stored.structures[i];
        let mut ranges = Vec::new();
        match &s.ecc {
            None => {
                let mut payload = self.clean_payload[i].clone();
                for &(c, new) in flips {
                    let (start, end) = s.cell_bit_range(c as usize);
                    let v = s.cell_bits(new);
                    for b in 0..(end - start) {
                        payload.set(start + b, (v >> b) & 1 == 1);
                    }
                    ranges.push((start, end));
                }
                (payload, ranges)
            }
            Some(code) => {
                let codec = BlockCodec::new(*code);
                // ECC streams are cached at prepare time; recomputing on
                // a (impossible) miss keeps this path total.
                let mut bits = match &self.clean_stored[i] {
                    Some(b) => b.clone(),
                    None => s.unpack_stored_bits(&s.cells),
                };
                let mut words: Vec<usize> = Vec::new();
                for &(c, new) in flips {
                    let (start, end) = s.cell_bit_range(c as usize);
                    let v = s.cell_bits(new);
                    for b in 0..(end - start) {
                        bits.set(start + b, (v >> b) & 1 == 1);
                        words.push(codec.word_of_encoded_bit(start + b, s.payload_bits));
                    }
                }
                words.sort_unstable();
                words.dedup();
                let mut payload = self.clean_payload[i].clone();
                for &w in &words {
                    // Clean words decode Clean, so counting only dirty
                    // words reproduces the full decoder's statistics.
                    let dec = codec.decode_word(&bits, w, s.payload_bits);
                    match dec.correction {
                        Correction::Clean => {}
                        Correction::CorrectedSingle(_) => stats.ecc_corrected += 1,
                        Correction::DetectedDouble => stats.ecc_uncorrectable += 1,
                    }
                    let (ds, de) = codec.word_data_range(w, s.payload_bits);
                    for (off, bit) in dec.data.iter().enumerate() {
                        payload.set(ds + off, bit);
                    }
                    ranges.push((ds, de));
                }
                (payload, ranges)
            }
        }
    }

    /// Incremental path: patch dirty streams, then re-map only the touched
    /// entries / rows / sync blocks onto a copy of the clean matrix.
    fn decode_patch(
        &self,
        flips: &[Vec<(u32, u8)>],
        mut stats: DecodeStats,
    ) -> (LayerMatrix, DecodeStats) {
        let mut matrix = self.clean.matrix.clone();
        self.patch_walk(flips, &mut stats, |slot, v| matrix.data[slot] = v);
        (matrix, stats)
    }

    /// Incremental path producing a sparse delta: replays the exact write
    /// sequence [`Self::decode_patch`] would perform, keeps the *last*
    /// write per slot (later region re-walks overwrite earlier entry
    /// patches, exactly as they do on the materialized matrix), and drops
    /// writes that land on the clean bit pattern.
    fn deltas_patch(
        &self,
        flips: &[Vec<(u32, u8)>],
        mut stats: DecodeStats,
    ) -> (Vec<WeightDelta>, DecodeStats) {
        let mut writes: Vec<(u32, u32, f32)> = Vec::new();
        let mut seq = 0u32;
        self.patch_walk(flips, &mut stats, |slot, v| {
            writes.push((slot as u32, seq, v));
            seq += 1;
        });
        writes.sort_unstable_by_key(|&(slot, s, _)| (slot, std::cmp::Reverse(s)));
        writes.dedup_by_key(|w| w.0);
        let clean = &self.clean.matrix.data;
        let deltas = writes
            .into_iter()
            .filter(|&(slot, _, v)| v.to_bits() != clean[slot as usize].to_bits())
            .map(|(slot, _, value)| WeightDelta { slot, value })
            .collect();
        (deltas, stats)
    }

    /// The shared patching walk behind [`Self::decode_patch`] and
    /// [`Self::deltas_patch`]: patches dirty streams, then emits
    /// `write(slot, value)` for every matrix position an incremental
    /// re-decode touches, in a fixed deterministic order (entry-local
    /// Values patches, then CSR dirty-row re-walks, then IdxSync dirty
    /// sync-block re-walks).
    fn patch_walk(
        &self,
        flips: &[Vec<(u32, u8)>],
        stats: &mut DecodeStats,
        mut write: impl FnMut(usize, f32),
    ) {
        let n = self.stored.structures.len();
        let mut patched: Vec<Option<BitBuffer>> = vec![None; n];
        let mut dirty: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for i in 0..n {
            if flips[i].is_empty() {
                continue;
            }
            let (p, r) = self.patched_payload(i, &flips[i], stats);
            patched[i] = Some(p);
            dirty[i] = r;
        }
        let payload = |i: usize| patched[i].as_ref().unwrap_or(&self.clean_payload[i]);
        let find = |kind| self.stored.structures.iter().position(|s| s.kind == kind);
        let ib = self.stored.index_bits as usize;
        let top = (self.stored.centroids.len() - 1) as u16;
        let cent = |v: u16| self.stored.centroids[v.min(top) as usize];
        let Some(vi) = find(StructureKind::Values) else {
            // Every encoding stores values; nothing to patch without them.
            return;
        };
        let values = payload(vi);
        let num_entries = self.stored.structures[vi].payload_bits / ib.max(1);

        // Entry-local Values patches (valid wherever metadata is clean;
        // dirty rows / blocks are wholly re-walked below and overwrite).
        if !dirty[vi].is_empty() {
            let mut entries = bits_to_units(&dirty[vi], ib, num_entries);
            entries.sort_unstable();
            entries.dedup();
            for j in entries {
                let v = values.read_at(j * ib, ib).unwrap_or(0) as u16;
                let slot = self.clean.value_slots.get(j).copied().unwrap_or(u32::MAX);
                if slot != u32::MAX {
                    write(slot as usize, cent(v));
                }
            }
        }

        // CSR: re-walk rows whose gap stream changed.
        if let (Some(gi), Some(starts), Some(counts)) = (
            find(StructureKind::ColIndex).filter(|&gi| !dirty[gi].is_empty()),
            self.row_starts.as_ref(),
            self.row_counts.as_ref(),
        ) {
            let gaps = payload(gi);
            let gb = self.stored.col_idx_bits as usize;
            let cols = self.stored.cols;
            let mut rows: Vec<usize> = bits_to_units(&dirty[gi], gb, num_entries)
                .into_iter()
                .filter_map(|e| {
                    let r = starts.partition_point(|&s| s <= e);
                    (r > 0 && r <= self.stored.rows).then(|| r - 1)
                })
                .collect();
            rows.sort_unstable();
            rows.dedup();
            for r in rows {
                for c in 0..cols {
                    write(r * cols + c, cent(0));
                }
                let mut pos = 0usize;
                for e in starts[r]..(starts[r] + counts[r]).min(num_entries) {
                    let gap = gaps.read_at(e * gb, gb).unwrap_or(0) as usize;
                    let v = values.read_at(e * ib, ib).unwrap_or(0) as u16;
                    pos += gap;
                    if pos < cols && v != 0 {
                        write(r * cols + pos, cent(v));
                    }
                    pos += 1;
                }
            }
        }

        // BitMask + IdxSync: re-walk sync blocks whose mask changed.
        if let (Some(mi), Some(bases)) = (
            find(StructureKind::Mask).filter(|&mi| !dirty[mi].is_empty()),
            self.block_bases.as_ref(),
        ) {
            let mask = payload(mi);
            let bb = self.stored.scheme.sync_block_bits;
            let total = self.stored.rows * self.stored.cols;
            let mut blocks = bits_to_units(&dirty[mi], bb, bases.len() - 1);
            blocks.sort_unstable();
            blocks.dedup();
            for b in blocks {
                let start = b * bb;
                let end = (start + bb).min(total);
                let mut ptr = bases[b];
                for i in start..end {
                    let v = if mask.get(i).unwrap_or(false) {
                        let v = values.read_at(ptr * ib, ib).unwrap_or(0) as u16;
                        ptr += 1;
                        cent(v)
                    } else {
                        cent(0)
                    };
                    write(i, v);
                }
            }
        }
    }

    /// Fallback for alignment-shifting faults: full re-parse, but from
    /// patched-or-cached payload streams (no per-cell unpack of clean
    /// structures).
    fn decode_full(
        &self,
        flips: &[Vec<(u32, u8)>],
        mut stats: DecodeStats,
    ) -> (LayerMatrix, DecodeStats) {
        let streams: Vec<(StructureKind, BitBuffer)> = self
            .stored
            .structures
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if flips[i].is_empty() {
                    (s.kind, self.clean_payload[i].clone())
                } else {
                    (s.kind, self.patched_payload(i, &flips[i], &mut stats).0)
                }
            })
            .collect();
        let indices = self.stored.parse_streams(&streams).reconstruct_indices();
        (self.stored.matrix_from_indices(&indices), stats)
    }
}

/// Slot-sorted bitwise diff of a faulty decode against the clean matrix —
/// the delta form of the full-decode fallback path.
fn diff_deltas(clean: &[f32], faulty: &[f32]) -> Vec<WeightDelta> {
    clean
        .iter()
        .zip(faulty)
        .enumerate()
        .filter(|(_, (c, f))| c.to_bits() != f.to_bits())
        .map(|(i, (_, f))| WeightDelta {
            slot: i as u32,
            value: *f,
        })
        .collect()
}

/// Fixed-width units (entries, gap fields, sync blocks) overlapping any of
/// the given bit ranges, clamped to `count` units. Unsorted, may repeat.
fn bits_to_units(ranges: &[(usize, usize)], width: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::new();
    if width == 0 || count == 0 {
        return out;
    }
    for &(a, b) in ranges {
        if b <= a {
            continue;
        }
        let first = a / width;
        let last = ((b - 1) / width).min(count - 1);
        out.extend(first..=last.min(count - 1));
    }
    out
}
