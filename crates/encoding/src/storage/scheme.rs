//! Storage configuration: which encoding, how many bits per cell for
//! each structure, and what protection applies where.

use crate::{EncodingKind, StructureKind};
use maxnvm_ecc::SecDed;
use maxnvm_envm::MlcConfig;

/// Which structures receive SEC-DED protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccScope {
    /// No ECC anywhere.
    None,
    /// Protect the alignment-critical metadata structures (CSR column
    /// indexes and row counters, the bitmask, IdxSync counters) — the
    /// paper's configuration.
    Metadata,
    /// Protect everything including weight values.
    All,
}

impl EccScope {
    /// Whether `kind` is protected under this scope.
    pub fn covers(self, kind: StructureKind) -> bool {
        match self {
            EccScope::None => false,
            EccScope::All => kind != StructureKind::Centroids,
            EccScope::Metadata => matches!(
                kind,
                StructureKind::ColIndex
                    | StructureKind::RowCounter
                    | StructureKind::Mask
                    | StructureKind::SyncCounter
            ),
        }
    }
}

/// Bits-per-cell per structure — the paper sweeps these independently
/// ("we vary the number of bits per cell used to store each structure",
/// §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructureBpc {
    /// Weight values (cluster indices).
    pub values: MlcConfig,
    /// CSR relative column indexes.
    pub col_index: MlcConfig,
    /// CSR row counters.
    pub row_counter: MlcConfig,
    /// BitMask indicator bits.
    pub mask: MlcConfig,
    /// IdxSync counters.
    pub sync_counter: MlcConfig,
}

impl StructureBpc {
    /// All structures at the same bits-per-cell.
    pub fn uniform(bpc: MlcConfig) -> Self {
        Self {
            values: bpc,
            col_index: bpc,
            row_counter: bpc,
            mask: bpc,
            sync_counter: bpc,
        }
    }

    /// The setting for a given structure (centroids are always SLC).
    pub fn for_kind(&self, kind: StructureKind) -> MlcConfig {
        match kind {
            StructureKind::Values => self.values,
            StructureKind::ColIndex => self.col_index,
            StructureKind::RowCounter => self.row_counter,
            StructureKind::Mask => self.mask,
            StructureKind::SyncCounter => self.sync_counter,
            StructureKind::Centroids => MlcConfig::SLC,
        }
    }
}

/// A complete storage configuration for one layer: encoding choice,
/// per-structure density, and protection.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageScheme {
    /// Sparse-encoding strategy.
    pub encoding: EncodingKind,
    /// Whether BitMask storage includes IdxSync counters.
    pub idx_sync: bool,
    /// ECC coverage.
    pub ecc: EccScope,
    /// SEC-DED block configuration used where ECC applies.
    pub ecc_code: SecDed,
    /// Bits-per-cell per structure.
    pub bpc: StructureBpc,
    /// Mask bits per IdxSync block (`IDXSYNC_BLOCK_BITS` = the paper's
    /// 128-byte alignment; stand-in models may scale it down with their
    /// layer sizes).
    pub sync_block_bits: usize,
}

impl StorageScheme {
    /// A uniform scheme: every structure at `bpc`, no protection.
    pub fn uniform(encoding: EncodingKind, bpc: MlcConfig) -> Self {
        Self {
            encoding,
            idx_sync: false,
            ecc: EccScope::None,
            ecc_code: SecDed::default_512b(),
            bpc: StructureBpc::uniform(bpc),
            sync_block_bits: crate::IDXSYNC_BLOCK_BITS,
        }
    }

    /// Overrides the IdxSync block size.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn with_sync_block_bits(mut self, bits: usize) -> Self {
        assert!(bits > 0, "empty IdxSync block");
        self.sync_block_bits = bits;
        self
    }

    /// Enables IdxSync (meaningful for [`EncodingKind::BitMask`] only).
    pub fn with_idx_sync(mut self) -> Self {
        self.idx_sync = true;
        self
    }

    /// Enables metadata ECC.
    pub fn with_ecc(mut self) -> Self {
        self.ecc = EccScope::Metadata;
        self
    }

    /// Overrides the bits-per-cell map.
    pub fn with_bpc(mut self, bpc: StructureBpc) -> Self {
        self.bpc = bpc;
        self
    }

    /// The paper's label for this configuration, e.g. `"BitM+IdxSync"`.
    pub fn label(&self) -> String {
        let base = match self.encoding {
            EncodingKind::DenseClustered => "P+C",
            EncodingKind::Csr => "CSR",
            EncodingKind::BitMask => {
                if self.idx_sync {
                    "BitM+IdxSync"
                } else {
                    "BitMask"
                }
            }
        };
        if self.ecc != EccScope::None {
            format!("{base}+ECC")
        } else {
            base.to_string()
        }
    }

    /// The maximum bits-per-cell used by any structure (Table 4's "BPC").
    pub fn max_bpc(&self) -> MlcConfig {
        let mut kinds = vec![StructureKind::Values];
        match self.encoding {
            EncodingKind::Csr => {
                kinds.push(StructureKind::ColIndex);
                kinds.push(StructureKind::RowCounter);
            }
            EncodingKind::BitMask => {
                kinds.push(StructureKind::Mask);
                if self.idx_sync {
                    kinds.push(StructureKind::SyncCounter);
                }
            }
            EncodingKind::DenseClustered => {}
        }
        // `kinds` always contains Values, so the fallback is dead.
        kinds
            .into_iter()
            .map(|k| self.bpc.for_kind(k))
            .max()
            .unwrap_or_else(|| self.bpc.for_kind(StructureKind::Values))
    }
}
