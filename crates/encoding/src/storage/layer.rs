//! A layer committed to simulated eNVM cells: raw sparse-encoding on
//! the way in, one codec-driven decode core on the way out.

use super::chip::ProgrammedLayer;
use super::codec::{CleanCodec, FaultInjectionCodec, StructureCodec};
use super::scheme::StorageScheme;
use super::structure::{DecodeStats, StoredStructure};
use crate::bitmask::BitMaskLayer;
use crate::cluster::ClusteredLayer;
use crate::csr::CsrLayer;
use crate::dense::DenseLayer;
use crate::{EncodingKind, StructureKind};
use maxnvm_bits::BitBuffer;
use maxnvm_dnn::network::LayerMatrix;
use maxnvm_envm::{CellModel, FaultMap, MlcConfig};
use rand::Rng;
use std::sync::Arc;

/// The raw sparse-encoded bit-streams of one layer, before any cells
/// are committed.
///
/// These depend only on the encoding choice (and, for BitMask, the
/// IdxSync setting and block size) — **not** on bits-per-cell or ECC,
/// which apply at pack time. That independence is what
/// [`super::EncodeCache`] exploits to share one encode across every
/// candidate scheme that differs only in density or protection.
#[derive(Debug)]
pub struct EncodedStreams {
    streams: Vec<(StructureKind, BitBuffer)>,
    entries: usize,
    col_idx_bits: u8,
    counter_bits: u8,
}

impl EncodedStreams {
    /// Runs the sparse encoder selected by `scheme` over `layer`.
    pub fn encode(layer: &ClusteredLayer, scheme: &StorageScheme) -> Self {
        let (streams, entries, col_idx_bits, counter_bits) = match scheme.encoding {
            EncodingKind::DenseClustered => {
                let enc = DenseLayer::encode(layer);
                (enc.to_streams(), layer.indices.len(), 0, 0)
            }
            EncodingKind::Csr => {
                let enc = CsrLayer::encode(layer);
                let e = enc.entries();
                let (ci, cb) = (enc.col_idx_bits, enc.counter_bits);
                (enc.to_streams(), e, ci, cb)
            }
            EncodingKind::BitMask => {
                let enc =
                    BitMaskLayer::encode_with_block(layer, scheme.idx_sync, scheme.sync_block_bits);
                let e = enc.nonzeros();
                (enc.to_streams(), e, 0, 0)
            }
        };
        Self {
            streams,
            entries,
            col_idx_bits,
            counter_bits,
        }
    }
}

/// A layer fully committed to simulated eNVM cells.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredLayer {
    /// Layer name.
    pub name: String,
    /// The storage configuration used.
    pub scheme: StorageScheme,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) index_bits: u8,
    /// CSR: stored entry count; BitMask: stored value count.
    pub(crate) entries: usize,
    pub(crate) col_idx_bits: u8,
    pub(crate) counter_bits: u8,
    pub(crate) centroids: Vec<f32>,
    pub(crate) structures: Vec<StoredStructure>,
}

impl StoredLayer {
    /// Encodes and packs a clustered layer under `scheme`.
    pub fn store(layer: &ClusteredLayer, scheme: &StorageScheme) -> Self {
        Self::store_encoded(layer, scheme, &EncodedStreams::encode(layer, scheme))
    }

    /// Packs pre-encoded streams under `scheme` — the cache-hit path.
    ///
    /// `encoded` must come from [`EncodedStreams::encode`] (directly or
    /// via [`super::EncodeCache`]) with the same `layer` and a scheme
    /// agreeing on encoding, IdxSync, and block size.
    pub fn store_encoded(
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
        encoded: &EncodedStreams,
    ) -> Self {
        let structures = encoded
            .streams
            .iter()
            .map(|(kind, stream)| {
                let ecc = scheme.ecc.covers(*kind).then_some(scheme.ecc_code);
                StoredStructure::pack(*kind, stream, scheme.bpc.for_kind(*kind), ecc)
            })
            .collect();
        Self {
            name: layer.name.clone(),
            scheme: scheme.clone(),
            rows: layer.rows,
            cols: layer.cols,
            index_bits: layer.index_bits,
            entries: encoded.entries,
            col_idx_bits: encoded.col_idx_bits,
            counter_bits: encoded.counter_bits,
            centroids: layer.centroids.clone(),
            structures,
        }
    }

    /// The stored structures.
    pub fn structures(&self) -> &[StoredStructure] {
        &self.structures
    }

    /// Cells per structure, plus the SLC centroid table.
    pub fn cells_by_structure(&self) -> Vec<(StructureKind, u64)> {
        let mut out: Vec<(StructureKind, u64)> = self
            .structures
            .iter()
            .map(|s| (s.kind, s.num_cells()))
            .collect();
        out.push((StructureKind::Centroids, self.centroid_cells()));
        out
    }

    /// Cells for the per-layer centroid LUT (16-bit values in SLC).
    pub fn centroid_cells(&self) -> u64 {
        (self.centroids.len() * 16) as u64
    }

    /// Total memory cells for this layer.
    pub fn total_cells(&self) -> u64 {
        self.cells_by_structure().iter().map(|(_, c)| c).sum()
    }

    /// Decodes with no faults injected (sanity/control arm).
    pub fn decode_clean(&self) -> (LayerMatrix, DecodeStats) {
        self.decode_with_codec(&mut CleanCodec)
    }

    /// Injects faults per structure (each structure's fault map comes from
    /// its bits-per-cell via `fault_for`) and decodes.
    pub fn decode_with_faults<R: Rng + ?Sized>(
        &self,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (LayerMatrix, DecodeStats) {
        self.decode_with_codec(&mut FaultInjectionCodec::all(fault_for, rng))
    }

    /// Injects faults only into structures of `target` kind, storing all
    /// others perfectly — the isolation methodology of Fig. 5.
    pub fn decode_with_isolated_faults<R: Rng + ?Sized>(
        &self,
        target: StructureKind,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
        rng: &mut R,
    ) -> (LayerMatrix, DecodeStats) {
        self.decode_with_codec(&mut FaultInjectionCodec::isolated(target, fault_for, rng))
    }

    /// Programs this layer onto a *chip instance*: every cell's analog
    /// read value is drawn once from its level distribution (§4.1's
    /// "unique generated fault maps"), so the returned
    /// [`ProgrammedLayer`] decodes **deterministically** — the faults are
    /// permanent programming outcomes, not per-read noise.
    pub fn program_chip<R: Rng + ?Sized>(
        &self,
        cell_for: &dyn Fn(MlcConfig) -> CellModel,
        rng: &mut R,
    ) -> ProgrammedLayer {
        let read_cells = self
            .structures
            .iter()
            .map(|s| {
                let cell = cell_for(s.bpc);
                s.cells
                    .iter()
                    .map(|&lvl| cell.sample_read(lvl as usize, rng) as u8)
                    .collect()
            })
            .collect();
        ProgrammedLayer::new(self.clone(), read_cells)
    }

    /// Samples one chip instance as a sparse flip list instead of a full
    /// [`ProgrammedLayer`]: per structure (in storage order), every
    /// cell's analog read is drawn exactly as [`Self::program_chip`]
    /// draws it — the RNG stream is identical — but only the cells whose
    /// read level differs from the programmed level are recorded, as
    /// `(cell index, read level)` pairs per structure. Feeding these to
    /// `PreparedLayer::deltas_flips` decodes the same faulty matrix as
    /// programming and fully decoding the chip, in O(faults) instead of
    /// O(cells).
    pub fn sample_chip_flips<R: Rng + ?Sized>(
        &self,
        cell_for: &dyn Fn(MlcConfig) -> CellModel,
        rng: &mut R,
    ) -> Vec<Vec<(u32, u8)>> {
        self.structures
            .iter()
            .map(|s| {
                let cell = cell_for(s.bpc);
                s.cells
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &lvl)| {
                        let read = cell.sample_read(lvl as usize, rng) as u8;
                        (read != lvl).then_some((i as u32, read))
                    })
                    .collect()
            })
            .collect()
    }

    /// The shared decode core: pulls each structure's read levels from
    /// `codec` (in storage order), unpacks them through Gray/ECC, and
    /// reassembles the weight matrix via the encoding's alignment
    /// recovery. Every public decode path funnels through here.
    pub fn decode_with_codec(&self, codec: &mut dyn StructureCodec) -> (LayerMatrix, DecodeStats) {
        let mut stats = DecodeStats::default();
        let mut streams: Vec<(StructureKind, BitBuffer)> = Vec::new();
        for (i, s) in self.structures.iter().enumerate() {
            let (cells, faults) = codec.read(i, s);
            stats.cell_faults += faults;
            let (bits, corrected, uncorrectable) = s.unpack_cells(&cells);
            stats.ecc_corrected += corrected;
            stats.ecc_uncorrectable += uncorrectable;
            streams.push((s.kind, bits));
        }
        let indices = self.parse_streams(&streams).reconstruct_indices();
        (self.matrix_from_indices(&indices), stats)
    }

    /// Reassembles the encoding object from unpacked payload streams.
    pub(crate) fn parse_streams(&self, streams: &[(StructureKind, BitBuffer)]) -> DecodedEncoding {
        // `streams` is built from `self.structures`, so every kind the
        // scheme needs is present; an absent stream decodes as empty
        // rather than unwinding through a worker thread.
        let empty = BitBuffer::with_capacity(0);
        let find = |k: StructureKind| -> &BitBuffer {
            streams
                .iter()
                .find(|(kind, _)| *kind == k)
                .map_or(&empty, |(_, b)| b)
        };
        match self.scheme.encoding {
            EncodingKind::DenseClustered => DecodedEncoding::Dense(DenseLayer::from_streams(
                self.rows,
                self.cols,
                self.index_bits,
                find(StructureKind::Values),
            )),
            EncodingKind::Csr => DecodedEncoding::Csr(CsrLayer::from_streams(
                self.rows,
                self.cols,
                self.index_bits,
                self.col_idx_bits,
                self.counter_bits,
                self.entries,
                find(StructureKind::Values),
                find(StructureKind::ColIndex),
                find(StructureKind::RowCounter),
            )),
            EncodingKind::BitMask => {
                let counters = streams
                    .iter()
                    .find(|(k, _)| *k == StructureKind::SyncCounter)
                    .map(|(_, b)| b);
                DecodedEncoding::BitMask(BitMaskLayer::from_streams(
                    self.rows,
                    self.cols,
                    self.index_bits,
                    self.entries,
                    self.scheme.sync_block_bits,
                    find(StructureKind::Mask),
                    find(StructureKind::Values),
                    counters,
                ))
            }
        }
    }

    /// Maps cluster indices through the centroid LUT (clamping wild
    /// indices) into the weight matrix.
    pub(crate) fn matrix_from_indices(&self, indices: &[u16]) -> LayerMatrix {
        let top = (self.centroids.len() - 1) as u16;
        let data: Vec<f32> = indices
            .iter()
            .map(|&i| self.centroids[i.min(top) as usize])
            .collect();
        LayerMatrix::new(&self.name, self.rows, self.cols, data)
    }

    /// Exact expected faulted cells per trial over this layer's
    /// structures (all of them, or only `target`), from each structure's
    /// actual programmed-level histogram.
    pub fn expected_faults_in(
        &self,
        target: Option<StructureKind>,
        fault_for: &dyn Fn(MlcConfig) -> Arc<FaultMap>,
    ) -> f64 {
        self.structures
            .iter()
            .filter(|s| target.is_none_or(|t| t == s.kind))
            .map(|s| {
                let map = fault_for(s.bpc);
                s.cells
                    .iter()
                    .map(|&c| map.p_total(c as usize))
                    .sum::<f64>()
            })
            .sum()
    }
}

/// The encoding object reassembled from payload streams — the shape the
/// alignment-recovery walk runs over.
pub(crate) enum DecodedEncoding {
    Dense(DenseLayer),
    Csr(CsrLayer),
    BitMask(BitMaskLayer),
}

impl DecodedEncoding {
    /// Recovers the row-major cluster-index matrix.
    pub(crate) fn reconstruct_indices(&self) -> Vec<u16> {
        match self {
            DecodedEncoding::Dense(d) => d.reconstruct_indices(),
            DecodedEncoding::Csr(c) => c.reconstruct_indices(),
            DecodedEncoding::BitMask(b) => b.reconstruct_indices(),
        }
    }

    /// The output-matrix slot each stored value entry writes during
    /// [`Self::reconstruct_indices`] (`u32::MAX` when an entry lands
    /// outside the matrix). Only meaningful when the metadata structures
    /// are clean, where each entry is visited exactly once and slots are
    /// unique.
    pub(crate) fn entry_slots(&self) -> Vec<u32> {
        match self {
            DecodedEncoding::Dense(d) => d.entry_slots(),
            DecodedEncoding::Csr(c) => c.entry_slots(),
            DecodedEncoding::BitMask(b) => b.entry_slots(),
        }
    }
}
