//! Sharing raw sparse-encodings across candidate storage schemes.
//!
//! A design-space sweep stores the same clustered layers under dozens of
//! schemes, but the expensive step — running the sparse encoder over the
//! weight matrix — only depends on the encoding choice (plus IdxSync
//! configuration for BitMask), not on bits-per-cell or ECC. This cache
//! keys on exactly that, so a 100-scheme sweep performs a handful of
//! encodes per layer instead of hundreds.

use super::layer::{EncodedStreams, StoredLayer};
use super::prepared::CleanLayerDecode;
use super::scheme::StorageScheme;
use crate::cluster::ClusteredLayer;
use crate::EncodingKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a raw encode actually depends on. For non-BitMask encodings
/// IdxSync is inert, and without IdxSync the block size is inert, so
/// both normalize away — schemes differing only there share an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StreamKey {
    layer: usize,
    encoding: EncodingKind,
    idx_sync: bool,
    sync_block_bits: usize,
}

impl StreamKey {
    fn for_scheme(layer: usize, scheme: &StorageScheme) -> Self {
        let idx_sync = scheme.encoding == EncodingKind::BitMask && scheme.idx_sync;
        Self {
            layer,
            encoding: scheme.encoding,
            idx_sync,
            sync_block_bits: if idx_sync { scheme.sync_block_bits } else { 0 },
        }
    }
}

/// Concurrency-safe cache of [`EncodedStreams`] keyed by layer index and
/// the scheme components that affect the raw encode.
///
/// Layer identity is the caller's index into its layer list; one cache
/// must only ever be used with one list of layers.
#[derive(Default)]
pub struct EncodeCache {
    // Ordered maps: nothing iterates these today, but BTreeMap keeps
    // any future traversal deterministic by construction (lint rule D1).
    map: Mutex<BTreeMap<StreamKey, Arc<EncodedStreams>>>,
    decoded: Mutex<BTreeMap<StreamKey, Arc<CleanLayerDecode>>>,
}

impl std::fmt::Debug for EncodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual impl: the vendored parking_lot Mutex has no Debug.
        f.debug_struct("EncodeCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl EncodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw encoded streams for `layer` (at position `layer_idx`)
    /// under `scheme`, encoding on first use.
    pub fn streams(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
    ) -> Arc<EncodedStreams> {
        let key = StreamKey::for_scheme(layer_idx, scheme);
        if let Some(hit) = self.map.lock().get(&key) {
            return Arc::clone(hit);
        }
        // Encode outside the lock: concurrent misses may both do the
        // work, but the results are identical and sweeps never stall
        // behind one worker's encode.
        let encoded = Arc::new(EncodedStreams::encode(layer, scheme));
        Arc::clone(self.map.lock().entry(key).or_insert(encoded))
    }

    /// Stores `layer` under `scheme`, reusing the cached raw encode.
    pub fn store_layer(
        &self,
        layer_idx: usize,
        layer: &ClusteredLayer,
        scheme: &StorageScheme,
    ) -> StoredLayer {
        let encoded = self.streams(layer_idx, layer, scheme);
        StoredLayer::store_encoded(layer, scheme, &encoded)
    }

    /// The clean decode of `stored` (at layer position `layer_idx`),
    /// decoding on first use.
    ///
    /// Keyed like the raw encodes: bits-per-cell and ECC round-trip
    /// losslessly when no faults are injected, so a clean decode depends
    /// only on the raw encoded streams and every scheme sharing a
    /// [`StreamKey`] shares the decode.
    pub fn clean_decode(&self, layer_idx: usize, stored: &StoredLayer) -> Arc<CleanLayerDecode> {
        let key = StreamKey::for_scheme(layer_idx, &stored.scheme);
        if let Some(hit) = self.decoded.lock().get(&key) {
            return Arc::clone(hit);
        }
        // Decode outside the lock, same rationale as `streams`.
        let clean = Arc::new(CleanLayerDecode::of(stored));
        Arc::clone(self.decoded.lock().entry(key).or_insert(clean))
    }

    /// Number of distinct raw encodes currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
