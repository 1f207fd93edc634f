//! NVDLA-style bitmask sparse encoding, "BitM" (§3.2.2), with the paper's
//! proposed IdxSync error-mitigation counters (§3.3, Fig. 4).
//!
//! A one-bit-per-weight mask marks non-zeros; the non-zero cluster indices
//! are stored packed in order. A single mask-bit fault changes the number
//! of ones seen so far, so *every subsequent value* is mis-assigned during
//! reconstruction — the paper's most vulnerable structure. IdxSync stores,
//! per 128-byte-aligned mask block, a counter of the expected non-zeros;
//! at each block boundary the decoder resynchronizes its value-array read
//! pointer to the running counter sum, confining the damage to one block.

use crate::cluster::ClusteredLayer;
use crate::csr::bit_width;
use crate::{StructureKind, IDXSYNC_BLOCK_BITS};
use maxnvm_bits::{BitBuffer, BitReader};
use serde::{Deserialize, Serialize};

/// A bitmask-encoded layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitMaskLayer {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Bits per cluster-index value.
    pub index_bits: u8,
    /// One bit per weight, row-major.
    pub mask: BitBuffer,
    /// Non-zero cluster indices in mask order.
    pub values: Vec<u16>,
    /// Mask bits per IdxSync block (the paper's 128-byte alignment =
    /// [`IDXSYNC_BLOCK_BITS`]; small stand-in models may scale it down).
    pub block_bits: usize,
    /// IdxSync: non-zeros per mask block, if enabled.
    pub counters: Option<Vec<u16>>,
}

/// Bits per IdxSync counter: enough to count every bit in a block.
pub fn sync_counter_bits_for(block_bits: usize) -> u8 {
    bit_width(block_bits as u64)
}

/// Bits per IdxSync counter at the paper's default block size.
pub fn sync_counter_bits() -> u8 {
    sync_counter_bits_for(IDXSYNC_BLOCK_BITS)
}

impl BitMaskLayer {
    /// Encodes a clustered layer; `idx_sync` adds the per-block counters.
    pub fn encode(layer: &ClusteredLayer, idx_sync: bool) -> Self {
        Self::encode_with_block(layer, idx_sync, IDXSYNC_BLOCK_BITS)
    }

    /// Encodes with an explicit IdxSync block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bits == 0`.
    pub fn encode_with_block(layer: &ClusteredLayer, idx_sync: bool, block_bits: usize) -> Self {
        assert!(block_bits > 0, "empty IdxSync block");
        let total = layer.rows * layer.cols;
        let mut mask = BitBuffer::with_capacity(total);
        let mut values = Vec::with_capacity(layer.nonzeros());
        for &i in &layer.indices {
            mask.push_bit(i != 0);
            if i != 0 {
                values.push(i);
            }
        }
        let counters = idx_sync.then(|| {
            let nblocks = total.div_ceil(block_bits);
            (0..nblocks)
                .map(|b| {
                    let start = b * block_bits;
                    let end = (start + block_bits).min(total);
                    (start..end).filter(|&i| mask.get(i) == Some(true)).count() as u16
                })
                .collect()
        });
        Self {
            rows: layer.rows,
            cols: layer.cols,
            index_bits: layer.index_bits,
            mask,
            values,
            block_bits,
            counters,
        }
    }

    /// Number of stored non-zero values.
    pub fn nonzeros(&self) -> usize {
        self.values.len()
    }

    /// Number of IdxSync blocks covering the mask.
    pub fn num_blocks(&self) -> usize {
        (self.rows * self.cols).div_ceil(self.block_bits)
    }

    /// Serializes the structures into independent bit streams.
    pub fn to_streams(&self) -> Vec<(StructureKind, BitBuffer)> {
        let mut out = Vec::new();
        out.push((StructureKind::Mask, self.mask.clone()));
        let mut vals = BitBuffer::with_capacity(self.values.len() * self.index_bits as usize);
        for &v in &self.values {
            vals.push_bits(v as u64, self.index_bits as usize);
        }
        out.push((StructureKind::Values, vals));
        if let Some(counters) = &self.counters {
            let cb = sync_counter_bits_for(self.block_bits) as usize;
            let mut c = BitBuffer::with_capacity(counters.len() * cb);
            for &v in counters {
                c.push_bits(v as u64, cb);
            }
            out.push((StructureKind::SyncCounter, c));
        }
        out
    }

    /// Rebuilds from (possibly fault-corrupted) streams. `nonzeros` is the
    /// true stored value count (fixed by array sizing).
    #[allow(clippy::too_many_arguments)]
    pub fn from_streams(
        rows: usize,
        cols: usize,
        index_bits: u8,
        nonzeros: usize,
        block_bits: usize,
        mask: &BitBuffer,
        values: &BitBuffer,
        counters: Option<&BitBuffer>,
    ) -> Self {
        let total = rows * cols;
        // The mask stream is exactly total bits (shorter only if the caller
        // truncated it; pad with zeros defensively).
        let mut m = BitBuffer::with_capacity(total);
        for i in 0..total {
            m.push_bit(mask.get(i).unwrap_or(false));
        }
        let mut vr = BitReader::new(values);
        let vals: Vec<u16> = (0..nonzeros)
            .map(|_| vr.read_bits(index_bits as usize).unwrap_or(0) as u16)
            .collect();
        let ctrs = counters.map(|cbuf| {
            let cb = sync_counter_bits_for(block_bits) as usize;
            let nblocks = total.div_ceil(block_bits);
            let mut cr = BitReader::new(cbuf);
            (0..nblocks)
                .map(|_| cr.read_bits(cb).unwrap_or(0) as u16)
                .collect()
        });
        Self {
            rows,
            cols,
            index_bits,
            mask: m,
            values: vals,
            block_bits,
            counters: ctrs,
        }
    }

    /// Reconstructs the dense cluster-index matrix, reproducing the mask's
    /// misalignment-propagation failure mode — or, with IdxSync, the
    /// per-block resynchronization of Fig. 4.
    pub fn reconstruct_indices(&self) -> Vec<u16> {
        let total = self.rows * self.cols;
        let mut out = vec![0u16; total];
        match &self.counters {
            None => {
                let mut ptr = 0usize;
                #[allow(clippy::needless_range_loop)]
                for i in 0..total {
                    if self.mask.get(i) == Some(true) {
                        out[i] = self.values.get(ptr).copied().unwrap_or(0);
                        ptr += 1;
                    }
                }
            }
            Some(counters) => {
                // IdxSync: reset the read pointer at every block boundary
                // to the running sum of the *stored* counters. Faults in
                // the current block stay in the current block (Fig. 4).
                let mut base = 0usize;
                for (b, &cnt) in counters.iter().enumerate() {
                    let start = b * self.block_bits;
                    let end = (start + self.block_bits).min(total);
                    let mut ptr = base;
                    #[allow(clippy::needless_range_loop)]
                    for i in start..end {
                        if self.mask.get(i) == Some(true) {
                            out[i] = self.values.get(ptr).copied().unwrap_or(0);
                            ptr += 1;
                        }
                    }
                    base += cnt as usize;
                }
            }
        }
        out
    }

    /// The output-matrix slot each stored value writes during
    /// [`Self::reconstruct_indices`]: value `j` lands at the position of
    /// the `j`-th set mask bit (`u32::MAX` when the mask has fewer set
    /// bits than stored values). Meaningful under a clean mask and clean
    /// counters, where the IdxSync block bases equal the running set-bit
    /// count and the mapping is identical with or without counters.
    pub fn entry_slots(&self) -> Vec<u32> {
        let total = self.rows * self.cols;
        let mut out = vec![u32::MAX; self.values.len()];
        let mut ptr = 0usize;
        for i in 0..total {
            if ptr >= out.len() {
                break;
            }
            if self.mask.get(i) == Some(true) {
                out[ptr] = i as u32;
                ptr += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_dnn::network::LayerMatrix;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn clustered(rows: usize, cols: usize, sparsity: f64, seed: u64) -> ClusteredLayer {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen::<f64>() < sparsity {
                    0.0
                } else {
                    rng.gen::<f32>() + 0.1
                }
            })
            .collect();
        ClusteredLayer::from_matrix(&LayerMatrix::new("t", rows, cols, data), 4, seed)
    }

    fn round_trip(c: &ClusteredLayer, idx_sync: bool) -> Vec<u16> {
        let enc = BitMaskLayer::encode(c, idx_sync);
        let streams = enc.to_streams();
        let counters = streams
            .iter()
            .find(|(k, _)| *k == StructureKind::SyncCounter)
            .map(|(_, b)| b);
        let dec = BitMaskLayer::from_streams(
            c.rows,
            c.cols,
            c.index_bits,
            enc.nonzeros(),
            enc.block_bits,
            &streams[0].1,
            &streams[1].1,
            counters,
        );
        dec.reconstruct_indices()
    }

    #[test]
    fn clean_round_trip_without_idxsync() {
        let c = clustered(8, 32, 0.6, 1);
        assert_eq!(round_trip(&c, false), c.indices);
    }

    #[test]
    fn clean_round_trip_with_idxsync() {
        let c = clustered(20, 100, 0.8, 2);
        assert_eq!(round_trip(&c, true), c.indices);
    }

    #[test]
    fn counters_sum_to_nonzeros() {
        let c = clustered(30, 70, 0.5, 3);
        let enc = BitMaskLayer::encode(&c, true);
        let total: usize = enc
            .counters
            .as_ref()
            .unwrap()
            .iter()
            .map(|&x| x as usize)
            .sum();
        assert_eq!(total, enc.nonzeros());
        assert_eq!(enc.counters.as_ref().unwrap().len(), enc.num_blocks());
    }

    #[test]
    fn mask_fault_propagates_without_idxsync() {
        // §4.2: a single bit flip in the bitmask mis-assigns all remaining
        // non-zero values during reconstruction.
        let c = clustered(4, 1024, 0.5, 4); // 4 blocks of mask
        let mut enc = BitMaskLayer::encode(&c, false);
        let clean = enc.reconstruct_indices();
        // Flip a mask bit early in block 0 (turn a zero into a "non-zero").
        let flip = (0..200)
            .find(|&i| enc.mask.get(i) == Some(false))
            .expect("a zero bit early on");
        enc.mask.toggle(flip);
        let bad = enc.reconstruct_indices();
        // Damage must extend into the final block (far from the flip).
        let last_quarter = 3 * 1024;
        assert_ne!(
            &bad[last_quarter..],
            &clean[last_quarter..],
            "mask fault should propagate to the end"
        );
    }

    #[test]
    fn idxsync_confines_mask_fault_to_its_block() {
        // Fig. 4: IdxSync corrects misalignment in subsequent blocks.
        let c = clustered(4, 1024, 0.5, 5);
        let mut enc = BitMaskLayer::encode(&c, true);
        let clean = enc.reconstruct_indices();
        let flip = (0..200)
            .find(|&i| enc.mask.get(i) == Some(false))
            .expect("a zero bit early on");
        enc.mask.toggle(flip);
        let bad = enc.reconstruct_indices();
        // Block 0 (bits 0..1024) is corrupted...
        assert_ne!(&bad[..1024], &clean[..1024]);
        // ...but all later blocks decode exactly as before.
        assert_eq!(
            &bad[1024..],
            &clean[1024..],
            "IdxSync must stop propagation at the block boundary"
        );
    }

    #[test]
    fn counter_fault_shifts_only_subsequent_blocks() {
        let c = clustered(4, 1024, 0.5, 6);
        let mut enc = BitMaskLayer::encode(&c, true);
        let clean = enc.reconstruct_indices();
        enc.counters.as_mut().unwrap()[1] += 1;
        let bad = enc.reconstruct_indices();
        // Blocks 0 and 1 use the same base pointers as before.
        assert_eq!(&bad[..2048], &clean[..2048]);
        // Blocks 2+ read from a shifted base.
        assert_ne!(&bad[2048..], &clean[2048..]);
    }

    #[test]
    fn all_zero_layer() {
        let m = LayerMatrix::new("z", 4, 64, vec![0.0; 256]);
        let c = ClusteredLayer::from_matrix(&m, 4, 1);
        assert_eq!(round_trip(&c, true), vec![0u16; 256]);
        assert_eq!(BitMaskLayer::encode(&c, false).nonzeros(), 0);
    }

    #[test]
    fn sync_counter_width_covers_block() {
        // A block of 1024 mask bits can hold up to 1024 non-zeros.
        assert!(sync_counter_bits() as u32 >= 11);
        assert!((1u32 << sync_counter_bits()) > IDXSYNC_BLOCK_BITS as u32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_round_trip(
            rows in 1usize..8,
            cols in 1usize..200,
            sparsity in 0.0f64..0.99,
            seed in any::<u64>(),
            idx_sync in any::<bool>(),
        ) {
            let c = clustered(rows, cols, sparsity, seed);
            prop_assert_eq!(round_trip(&c, idx_sync), c.indices);
        }

        #[test]
        fn prop_single_mask_flip_with_idxsync_never_escapes_block(
            seed in any::<u64>(),
            flip in any::<prop::sample::Index>(),
        ) {
            let c = clustered(3, 1024, 0.6, seed);
            let mut enc = BitMaskLayer::encode(&c, true);
            let clean = enc.reconstruct_indices();
            let pos = flip.index(3 * 1024);
            enc.mask.toggle(pos);
            let bad = enc.reconstruct_indices();
            let block = pos / IDXSYNC_BLOCK_BITS;
            for b in 0..3 {
                let range = b * 1024..(b + 1) * 1024;
                if b != block {
                    prop_assert_eq!(&bad[range.clone()], &clean[range], "block {} corrupted", b);
                }
            }
        }
    }
}
