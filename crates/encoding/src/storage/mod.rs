//! Packing encoded structures into MLC cells and decoding them back
//! *through* faults — the storage half of the Ares-style framework (§4.1).
//!
//! Every structure of an encoded layer gets its own bits-per-cell setting
//! (the axis the paper's design-space exploration sweeps) and optional
//! SEC-DED protection; ECC-protected structures are Gray-coded so an
//! adjacent-level fault is exactly one correctable bit flip (§3.3).
//!
//! Module layout:
//!
//! - [`scheme`]: what to store — [`StorageScheme`], per-structure
//!   bits-per-cell ([`StructureBpc`]) and ECC coverage ([`EccScope`]).
//! - [`structure`]: one packed bit-stream ([`StoredStructure`]) and the
//!   decode accounting ([`DecodeStats`]).
//! - [`codec`]: the [`StructureCodec`] trait — the single seam through
//!   which every decode path (clean, Monte-Carlo injection, isolated
//!   injection, programmed-chip readback) supplies read cell levels.
//! - [`layer`]: [`StoredLayer`] — encode/pack on the way in, one shared
//!   decode core on the way out.
//! - [`chip`]: [`ProgrammedLayer`] — a layer as one manufactured chip
//!   instance sees it (permanent programming faults).
//! - [`cache`]: [`EncodeCache`] — reuses raw encoded streams and clean
//!   decodes across candidate schemes that differ only in bits-per-cell
//!   or protection.
//! - [`prepared`]: [`PreparedLayer`] — the O(expected faults) trial path:
//!   sparse fault sampling plus dirty-region incremental decode against a
//!   cached clean decode ([`CleanLayerDecode`]).

pub mod cache;
pub mod chip;
pub mod codec;
pub mod layer;
pub mod prepared;
pub mod scheme;
pub mod structure;

pub use cache::EncodeCache;
pub use chip::ProgrammedLayer;
pub use codec::{CleanCodec, FaultInjectionCodec, FixedReadCodec, StructureCodec};
pub use layer::{EncodedStreams, StoredLayer};
pub use prepared::{CleanLayerDecode, PreparedLayer};
pub use scheme::{EccScope, StorageScheme, StructureBpc};
pub use structure::{DecodeStats, StoredStructure};

#[cfg(test)]
mod tests;
