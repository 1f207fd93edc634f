//! Compressed sparse row encoding (§3.2.1).
//!
//! Three structures encode the cluster-index matrix: the non-zero **values**
//! in order, **relative column indexes** (gap to the previous non-zero
//! within the row, as the paper describes), and a per-row **counter** of
//! non-zero entries. Gaps wider than the fixed index width insert padding
//! entries (zero value, maximum gap), the standard fixed-width-CSR trick.
//!
//! The decoder deliberately reproduces the paper's §4.2 failure modes: a
//! misread row counter offsets *every subsequent row's* values; a misread
//! column gap shifts the remainder of its row.

use crate::cluster::ClusteredLayer;
use crate::StructureKind;
use maxnvm_bits::{BitBuffer, BitReader};

/// Default width of the relative column-index field when the density is
/// unknown.
pub const DEFAULT_COL_IDX_BITS: u8 = 8;

/// Width of the relative column-index field chosen for a layer of the
/// given shape and non-zero density: wide enough that padding entries
/// (gaps overflowing the field) stay rare (a few percent), narrow enough
/// not to waste bits — the per-layer tuning §3.2.1 alludes to.
pub fn col_idx_bits_for(cols: u64, density: f64) -> u8 {
    assert!(cols > 0, "empty row");
    let density = density.clamp(1e-6, 1.0);
    // Cover roughly twice the mean gap; clamp to [4, 8] and never wider
    // than an absolute index would need.
    let target = (2.0 * (1.0 - density) / density).ceil().max(1.0) as u64;
    bit_width(target).clamp(4, 8).min(bit_width(cols))
}

/// How CSR column positions are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColIndexMode {
    /// Gap to the previous non-zero within the row (the paper's choice):
    /// compact, but a misread offsets the remainder of the row.
    Relative,
    /// Absolute column number: a misread corrupts exactly one weight's
    /// position, but "requires strictly higher overhead than integrating
    /// lightweight ECC" (§4.2).
    Absolute,
}

/// A CSR-encoded layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrLayer {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Bits per cluster-index value.
    pub index_bits: u8,
    /// Bits per column-index field.
    pub col_idx_bits: u8,
    /// Relative (gap) or absolute column positions.
    pub col_mode: ColIndexMode,
    /// Bits per row counter (`ceil(log2(cols + 1))`, counters count
    /// entries including padding so they can reach `cols`).
    pub counter_bits: u8,
    /// Entry values (cluster indices; padding entries hold 0).
    pub values: Vec<u16>,
    /// Entry gaps (zeros skipped before this entry within the row).
    pub gaps: Vec<u16>,
    /// Entries per row (including padding entries).
    pub row_counts: Vec<u32>,
}

impl CsrLayer {
    /// Encodes a clustered layer, choosing the relative-index width from
    /// the layer's density (see [`col_idx_bits_for`]).
    pub fn encode(layer: &ClusteredLayer) -> Self {
        let density = layer.nonzeros() as f64 / layer.indices.len().max(1) as f64;
        Self::encode_with_width(layer, col_idx_bits_for(layer.cols as u64, density))
    }

    /// Encodes with absolute column indexes (§4.2's alternative
    /// mitigation): no padding entries, single-weight fault blast radius,
    /// `ceil(log2(cols))` bits per entry.
    // ClusteredLayer guarantees indices.len() == rows*cols, so the
    // r*cols..(r+1)*cols row slice is in range for every r < rows.
    pub fn encode_absolute(layer: &ClusteredLayer) -> Self {
        let col_idx_bits = bit_width(layer.cols.saturating_sub(1) as u64);
        let counter_bits = bit_width(layer.cols as u64);
        let mut values = Vec::new();
        let mut gaps = Vec::new();
        let mut row_counts = Vec::with_capacity(layer.rows);
        for r in 0..layer.rows {
            let row = &layer.indices[r * layer.cols..(r + 1) * layer.cols];
            let mut count = 0u32;
            for (c, &v) in row.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                values.push(v);
                gaps.push(c as u16);
                count += 1;
            }
            row_counts.push(count);
        }
        Self {
            rows: layer.rows,
            cols: layer.cols,
            index_bits: layer.index_bits,
            col_idx_bits,
            col_mode: ColIndexMode::Absolute,
            counter_bits,
            values,
            gaps,
            row_counts,
        }
    }

    /// Encodes with an explicit relative-index width.
    ///
    /// # Panics
    ///
    /// Panics if `col_idx_bits` is 0 or > 16.
    // ClusteredLayer guarantees indices.len() == rows*cols, so the
    // r*cols..(r+1)*cols row slice is in range for every r < rows.
    pub fn encode_with_width(layer: &ClusteredLayer, col_idx_bits: u8) -> Self {
        assert!((1..=16).contains(&col_idx_bits), "col index width");
        let max_gap = (1u32 << col_idx_bits) - 1;
        let counter_bits = bit_width(layer.cols as u64);
        let mut values = Vec::new();
        let mut gaps = Vec::new();
        let mut row_counts = Vec::with_capacity(layer.rows);
        for r in 0..layer.rows {
            let row = &layer.indices[r * layer.cols..(r + 1) * layer.cols];
            let mut pos = 0u32;
            let mut count = 0u32;
            for (c, &v) in row.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                let mut gap = c as u32 - pos;
                while gap > max_gap {
                    // Padding entry: skip max_gap zeros, store a zero.
                    values.push(0);
                    gaps.push(max_gap as u16);
                    count += 1;
                    pos += max_gap + 1;
                    gap = c as u32 - pos;
                }
                values.push(v);
                gaps.push(gap as u16);
                count += 1;
                pos = c as u32 + 1;
            }
            row_counts.push(count);
        }
        Self {
            rows: layer.rows,
            cols: layer.cols,
            index_bits: layer.index_bits,
            col_idx_bits,
            col_mode: ColIndexMode::Relative,
            counter_bits,
            values,
            gaps,
            row_counts,
        }
    }

    /// Number of stored entries (non-zeros plus padding).
    pub fn entries(&self) -> usize {
        self.values.len()
    }

    /// Serializes the three structures into independent bit streams, the
    /// unit at which bits-per-cell and protection are chosen.
    pub fn to_streams(&self) -> Vec<(StructureKind, BitBuffer)> {
        let mut vals = BitBuffer::with_capacity(self.values.len() * self.index_bits as usize);
        for &v in &self.values {
            vals.push_bits(v as u64, self.index_bits as usize);
        }
        let mut cols = BitBuffer::with_capacity(self.gaps.len() * self.col_idx_bits as usize);
        for &g in &self.gaps {
            cols.push_bits(g as u64, self.col_idx_bits as usize);
        }
        let mut counters =
            BitBuffer::with_capacity(self.row_counts.len() * self.counter_bits as usize);
        for &c in &self.row_counts {
            counters.push_bits(c as u64, self.counter_bits as usize);
        }
        vec![
            (StructureKind::Values, vals),
            (StructureKind::ColIndex, cols),
            (StructureKind::RowCounter, counters),
        ]
    }

    /// Rebuilds the encoded form from (possibly fault-corrupted) streams.
    ///
    /// `entries` is the true entry count (a property of the array sizing,
    /// not of the stored bits, so faults cannot change it).
    #[expect(clippy::too_many_arguments, reason = "one per stream and sizing field")]
    pub fn from_streams(
        rows: usize,
        cols: usize,
        index_bits: u8,
        col_idx_bits: u8,
        counter_bits: u8,
        entries: usize,
        values: &BitBuffer,
        gaps: &BitBuffer,
        counters: &BitBuffer,
    ) -> Self {
        let mut vr = BitReader::new(values);
        let mut gr = BitReader::new(gaps);
        let mut cr = BitReader::new(counters);
        let values: Vec<u16> = (0..entries)
            .map(|_| vr.read_bits(index_bits as usize).unwrap_or(0) as u16)
            .collect();
        let gaps: Vec<u16> = (0..entries)
            .map(|_| gr.read_bits(col_idx_bits as usize).unwrap_or(0) as u16)
            .collect();
        let row_counts: Vec<u32> = (0..rows)
            .map(|_| cr.read_bits(counter_bits as usize).unwrap_or(0) as u32)
            .collect();
        Self {
            rows,
            cols,
            index_bits,
            col_idx_bits,
            col_mode: ColIndexMode::Relative,
            counter_bits,
            values,
            gaps,
            row_counts,
        }
    }

    /// Total stored bits across the three structures.
    pub fn total_bits(&self) -> u64 {
        self.values.len() as u64 * self.index_bits as u64
            + self.gaps.len() as u64 * self.col_idx_bits as u64
            + self.row_counts.len() as u64 * self.counter_bits as u64
    }

    /// Reconstructs the dense cluster-index matrix.
    ///
    /// Faithful to hardware decoding: the value-array read pointer is the
    /// running sum of row counters, so a corrupted counter misaligns every
    /// later row; positions pushed past the row end by corrupted gaps are
    /// dropped.
    // out is allocated rows*cols and both arms check pos/field < cols
    // before writing r*cols+pos, so corrupted streams clip instead of
    // wrapping.
    pub fn reconstruct_indices(&self) -> Vec<u16> {
        let mut out = vec![0u16; self.rows * self.cols];
        let mut ptr = 0usize; // running index into values/gaps
        for r in 0..self.rows {
            let count = self.row_counts.get(r).copied().unwrap_or(0) as usize;
            let mut pos = 0usize;
            for _ in 0..count {
                if ptr >= self.values.len() {
                    break; // counter faults ran the pointer off the array
                }
                let field = self.gaps[ptr] as usize;
                let v = self.values[ptr];
                ptr += 1;
                match self.col_mode {
                    ColIndexMode::Relative => {
                        pos += field;
                        if pos < self.cols && v != 0 {
                            out[r * self.cols + pos] = v;
                        }
                        pos += 1;
                    }
                    ColIndexMode::Absolute => {
                        // A corrupted absolute index moves exactly one
                        // weight; nothing downstream shifts.
                        if field < self.cols && v != 0 {
                            out[r * self.cols + field] = v;
                        }
                    }
                }
            }
        }
        out
    }

    /// The output-matrix slot each stored entry writes during
    /// [`Self::reconstruct_indices`] (`u32::MAX` when an entry's position
    /// falls outside the matrix or the counters never reach it). Under
    /// clean metadata every entry is visited once and slots are unique:
    /// positions strictly increase within a row.
    pub fn entry_slots(&self) -> Vec<u32> {
        let mut out = vec![u32::MAX; self.values.len()];
        let mut ptr = 0usize;
        for r in 0..self.rows {
            let count = self.row_counts.get(r).copied().unwrap_or(0) as usize;
            let mut pos = 0usize;
            for _ in 0..count {
                if ptr >= self.values.len() {
                    break;
                }
                let field = self.gaps[ptr] as usize;
                match self.col_mode {
                    ColIndexMode::Relative => {
                        pos += field;
                        if pos < self.cols {
                            out[ptr] = (r * self.cols + pos) as u32;
                        }
                        pos += 1;
                    }
                    ColIndexMode::Absolute => {
                        if field < self.cols {
                            out[ptr] = (r * self.cols + field) as u32;
                        }
                    }
                }
                ptr += 1;
            }
        }
        out
    }
}

/// Minimum bits to represent values `0..=max`.
pub fn bit_width(max: u64) -> u8 {
    (64 - max.leading_zeros()).max(1) as u8
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

    fn round_trip(c: &ClusteredLayer, width: u8) -> Vec<u16> {
        let enc = CsrLayer::encode_with_width(c, width);
        let streams = enc.to_streams();
        let dec = CsrLayer::from_streams(
            c.rows,
            c.cols,
            c.index_bits,
            width,
            enc.counter_bits,
            enc.entries(),
            &streams[0].1,
            &streams[1].1,
            &streams[2].1,
        );
        dec.reconstruct_indices()
    }

    #[test]
    fn adaptive_width_tracks_density() {
        // Dense layers get the minimum width; sparse layers wider fields.
        assert_eq!(col_idx_bits_for(1024, 0.6), 4);
        assert_eq!(col_idx_bits_for(1024, 0.19), 4);
        assert_eq!(col_idx_bits_for(1024, 0.10), 5);
        assert_eq!(col_idx_bits_for(1024, 0.02), 7);
        assert_eq!(col_idx_bits_for(1024, 0.001), 8);
        // Never wider than an absolute index.
        assert_eq!(col_idx_bits_for(8, 0.001), 4);
    }

    #[test]
    fn adaptive_encode_round_trips() {
        for sparsity in [0.3, 0.8, 0.95] {
            let c = clustered(8, 64, sparsity, 11);
            let enc = CsrLayer::encode(&c);
            let streams = enc.to_streams();
            let dec = CsrLayer::from_streams(
                c.rows,
                c.cols,
                c.index_bits,
                enc.col_idx_bits,
                enc.counter_bits,
                enc.entries(),
                &streams[0].1,
                &streams[1].1,
                &streams[2].1,
            );
            assert_eq!(dec.reconstruct_indices(), c.indices, "sparsity {sparsity}");
        }
    }

    #[test]
    fn bit_width_basics() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
    }

    #[test]
    fn clean_round_trip_matches_original() {
        let c = clustered(10, 20, 0.7, 1);
        assert_eq!(round_trip(&c, 8), c.indices);
    }

    #[test]
    fn round_trip_with_narrow_width_uses_padding() {
        // Width 2 (max gap 3) on a sparse matrix forces padding entries.
        let c = clustered(6, 40, 0.9, 2);
        let enc = CsrLayer::encode_with_width(&c, 2);
        assert!(
            enc.entries() > c.nonzeros(),
            "expected padding entries: {} vs {}",
            enc.entries(),
            c.nonzeros()
        );
        assert_eq!(round_trip(&c, 2), c.indices);
    }

    #[test]
    fn empty_rows_round_trip() {
        let m = LayerMatrix::new(
            "t",
            3,
            4,
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        );
        let c = ClusteredLayer::from_matrix(&m, 4, 3);
        assert_eq!(round_trip(&c, 8), c.indices);
    }

    #[test]
    fn dense_matrix_round_trip() {
        let c = clustered(5, 5, 0.0, 4);
        let enc = CsrLayer::encode(&c);
        assert_eq!(enc.entries(), 25);
        assert!(enc.gaps.iter().all(|&g| g == 0));
        assert_eq!(round_trip(&c, 8), c.indices);
    }

    #[test]
    fn row_counter_fault_misaligns_subsequent_rows() {
        // §4.2: a single misread row counter offsets reads of the non-zero
        // data array so all remaining values are mis-assigned.
        let c = clustered(8, 16, 0.5, 5);
        let mut enc = CsrLayer::encode(&c);
        let clean = enc.reconstruct_indices();
        // Corrupt the *first* row's counter by +1.
        enc.row_counts[0] += 1;
        let bad = enc.reconstruct_indices();
        // Row 0 unchanged placements may differ in the tail, but critically
        // rows after 0 must be corrupted.
        let later_wrong = (1..8).any(|r| bad[r * 16..(r + 1) * 16] != clean[r * 16..(r + 1) * 16]);
        assert!(later_wrong, "counter fault should propagate to later rows");
    }

    #[test]
    fn col_gap_fault_is_confined_to_its_row() {
        // §4.2: a misread relative column index offsets the remaining
        // values *within that row only*.
        let c = clustered(6, 16, 0.5, 6);
        let mut enc = CsrLayer::encode(&c);
        let clean = enc.reconstruct_indices();
        // Find the first entry of row 2 and corrupt its gap.
        let row2_start: usize = enc.row_counts[..2].iter().map(|&x| x as usize).sum();
        assert!(enc.row_counts[2] > 0, "row 2 should have entries");
        enc.gaps[row2_start] = enc.gaps[row2_start].wrapping_add(1);
        let bad = enc.reconstruct_indices();
        for r in 0..6 {
            let same = bad[r * 16..(r + 1) * 16] == clean[r * 16..(r + 1) * 16];
            if r == 2 {
                assert!(!same, "row 2 should be corrupted");
            } else {
                assert!(same, "row {r} should be untouched");
            }
        }
    }

    #[test]
    fn absolute_round_trip() {
        for sparsity in [0.2, 0.7, 0.95] {
            let c = clustered(7, 300, sparsity, 13);
            let enc = CsrLayer::encode_absolute(&c);
            assert_eq!(enc.col_mode, ColIndexMode::Absolute);
            assert_eq!(enc.entries(), c.nonzeros(), "no padding entries");
            assert_eq!(enc.reconstruct_indices(), c.indices);
        }
    }

    #[test]
    fn absolute_index_fault_corrupts_one_weight() {
        // §4.2: absolute indexes confine a misread to a single weight.
        let c = clustered(6, 64, 0.5, 14);
        let mut enc = CsrLayer::encode_absolute(&c);
        let clean = enc.reconstruct_indices();
        enc.gaps[3] = enc.gaps[3].wrapping_add(1) % 64;
        let bad = enc.reconstruct_indices();
        let diffs = clean.iter().zip(&bad).filter(|(a, b)| a != b).count();
        assert!(
            diffs <= 2,
            "at most the old and new position change: {diffs}"
        );
    }

    #[test]
    fn absolute_costs_strictly_more_bits_than_relative() {
        // §4.2: "this requires strictly higher overhead than integrating
        // lightweight ECC" — and higher than the relative format itself.
        let c = clustered(16, 1024, 0.8, 15);
        let rel = CsrLayer::encode(&c).total_bits();
        let abs = CsrLayer::encode_absolute(&c).total_bits();
        assert!(abs > rel, "absolute {abs} vs relative {rel}");
        // ECC on the relative format is still cheaper than going absolute.
        let ecc_overhead = (rel as f64 * 0.0035) as u64; // SEC-DED 512B blocks
        assert!(abs > rel + ecc_overhead);
    }

    #[test]
    fn decoder_survives_wildly_corrupt_counters() {
        let c = clustered(4, 8, 0.5, 7);
        let mut enc = CsrLayer::encode(&c);
        for rc in &mut enc.row_counts {
            *rc = 255; // far beyond the entry array
        }
        let out = enc.reconstruct_indices();
        assert_eq!(out.len(), 32); // no panic, well-formed output
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_round_trip(
            rows in 1usize..10,
            cols in 1usize..30,
            sparsity in 0.0f64..0.98,
            seed in any::<u64>(),
            width in 2u8..9,
        ) {
            let c = clustered(rows, cols, sparsity, seed);
            prop_assert_eq!(round_trip(&c, width), c.indices);
        }
    }
}
