//! Weight compression and sparse encodings for MLC eNVM storage
//! (paper §3.1–§3.3).
//!
//! The pipeline this crate implements:
//!
//! 1. **Prune + cluster** ([`cluster`]): magnitude pruning plus per-layer
//!    1-D k-means clustering so each weight becomes a 4–7-bit cluster
//!    index (index 0 is reserved for the exact zero produced by pruning).
//! 2. **Sparse-encode** ([`csr`], [`bitmask`], [`dense`]): lossless
//!    formats over the cluster-index matrix — CSR (values / relative
//!    column indexes / per-row counters) and the NVDLA-style bitmask
//!    format, optionally with the paper's proposed **IdxSync** counters.
//! 3. **Store** ([`storage`]): pack each structure's bit-stream into MLC
//!    cells at a chosen bits-per-cell, optionally Gray-coded and SEC-DED
//!    protected, and decode it back *through* injected faults — faithfully
//!    reproducing the misalignment-propagation failure modes of §4.2.
//!
//! [`estimate`] mirrors the concrete encoders analytically so
//! ImageNet-scale models can be sized without materializing gigabytes.
//!
//! # Example
//!
//! ```
//! use maxnvm_dnn::network::LayerMatrix;
//! use maxnvm_encoding::cluster::ClusteredLayer;
//! use maxnvm_encoding::storage::{StorageScheme, StoredLayer};
//! use maxnvm_encoding::EncodingKind;
//! use maxnvm_envm::MlcConfig;
//!
//! let m = LayerMatrix::new("fc", 4, 8, vec![
//!     0.0, 0.5, 0.0, -0.5, 0.0, 0.0, 1.0, 0.0,
//!     0.5, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0,
//!     0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0,
//!     0.0, 1.0, 0.0, 0.0, 0.5, 0.0, -0.5, 0.0,
//! ]);
//! let clustered = ClusteredLayer::from_matrix(&m, 2, 42);
//! let scheme = StorageScheme::uniform(EncodingKind::Csr, MlcConfig::SLC);
//! let stored = StoredLayer::store(&clustered, &scheme);
//! let (decoded, _) = stored.decode_clean();
//! assert_eq!(decoded.data, clustered.reconstruct().data);
//! ```

// Lint rules D2 (no panics in library code) and D3 (unsafe hygiene,
// reasoned exceptions): DESIGN.md §11.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod bitmask;
pub mod cluster;
pub mod csr;
pub mod dense;
pub mod estimate;
pub mod quantize;
pub mod storage;

use std::fmt;

/// The sparse-encoding strategies the paper compares (Table 2, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncodingKind {
    /// Dense storage of pruned-and-clustered indices ("P+C").
    DenseClustered,
    /// Compressed sparse row (§3.2.1).
    Csr,
    /// NVDLA bitmask format (§3.2.2), "BitM" in the paper.
    BitMask,
}

impl EncodingKind {
    /// All encodings, in Table 2 row order.
    pub const ALL: [EncodingKind; 3] = [
        EncodingKind::DenseClustered,
        EncodingKind::Csr,
        EncodingKind::BitMask,
    ];

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            EncodingKind::DenseClustered => "P+C",
            EncodingKind::Csr => "CSR",
            EncodingKind::BitMask => "BitMask",
        }
    }
}

impl fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The distinct data structures a stored layer is made of; each can be
/// given its own bits-per-cell and protection (§4.1: "sparse encodings
/// require separate fault injections on each structure").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StructureKind {
    /// Non-zero weight cluster indices (or all indices for P+C).
    Values,
    /// CSR relative column indexes.
    ColIndex,
    /// CSR per-row non-zero counters.
    RowCounter,
    /// BitMask indicator bits.
    Mask,
    /// IdxSync per-block non-zero counters.
    SyncCounter,
    /// The per-layer cluster-value lookup table.
    Centroids,
}

impl StructureKind {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::Values => "weight values",
            StructureKind::ColIndex => "column index",
            StructureKind::RowCounter => "row counter",
            StructureKind::Mask => "bitmask",
            StructureKind::SyncCounter => "idxsync counters",
            StructureKind::Centroids => "centroids",
        }
    }
}

impl fmt::Display for StructureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Mask bits per IdxSync block: 128 bytes of bitmask, matching the paper's
/// 128-byte-aligned block structure (§3.3, Fig. 4).
pub const IDXSYNC_BLOCK_BITS: usize = 128 * 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_names_match_paper() {
        assert_eq!(EncodingKind::DenseClustered.to_string(), "P+C");
        assert_eq!(EncodingKind::Csr.to_string(), "CSR");
        assert_eq!(EncodingKind::BitMask.to_string(), "BitMask");
    }

    #[test]
    fn structure_names_are_distinct() {
        let all = [
            StructureKind::Values,
            StructureKind::ColIndex,
            StructureKind::RowCounter,
            StructureKind::Mask,
            StructureKind::SyncCounter,
            StructureKind::Centroids,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
