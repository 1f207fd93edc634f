//! Dense pruned-and-clustered storage ("P+C"): every weight stored as its
//! cluster index, zeros included. The baseline the sparse encodings are
//! compared against in Table 2 and Fig. 6.

use crate::cluster::ClusteredLayer;
use crate::StructureKind;
use maxnvm_bits::{BitBuffer, BitReader};
use serde::{Deserialize, Serialize};

/// A densely stored clustered layer (indices only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Bits per cluster index.
    pub index_bits: u8,
    /// Row-major cluster indices, `rows * cols` long.
    pub indices: Vec<u16>,
}

impl DenseLayer {
    /// Encodes a clustered layer (a straight copy of its index matrix).
    pub fn encode(layer: &ClusteredLayer) -> Self {
        Self {
            rows: layer.rows,
            cols: layer.cols,
            index_bits: layer.index_bits,
            indices: layer.indices.clone(),
        }
    }

    /// Serializes into a single index stream.
    pub fn to_streams(&self) -> Vec<(StructureKind, BitBuffer)> {
        let mut buf = BitBuffer::with_capacity(self.indices.len() * self.index_bits as usize);
        for &i in &self.indices {
            buf.push_bits(i as u64, self.index_bits as usize);
        }
        vec![(StructureKind::Values, buf)]
    }

    /// Rebuilds from a (possibly corrupted) stream.
    pub fn from_streams(rows: usize, cols: usize, index_bits: u8, values: &BitBuffer) -> Self {
        let mut r = BitReader::new(values);
        let indices = (0..rows * cols)
            .map(|_| r.read_bits(index_bits as usize).unwrap_or(0) as u16)
            .collect();
        Self {
            rows,
            cols,
            index_bits,
            indices,
        }
    }

    /// The dense cluster-index matrix. Dense storage has no alignment
    /// structures, so a fault corrupts exactly one weight — the fault
    /// tolerance baseline of §4.2.
    pub fn reconstruct_indices(&self) -> Vec<u16> {
        self.indices.clone()
    }

    /// Output slot of each stored entry: entry `j` is matrix position `j`.
    pub fn entry_slots(&self) -> Vec<u32> {
        (0..self.rows as u32 * self.cols as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxnvm_dnn::network::LayerMatrix;

    fn clustered() -> ClusteredLayer {
        let m = LayerMatrix::new("t", 2, 4, vec![0.0, 0.5, 0.0, 1.0, -0.5, 0.0, 0.0, 0.25]);
        ClusteredLayer::from_matrix(&m, 3, 1)
    }

    #[test]
    fn round_trip() {
        let c = clustered();
        let enc = DenseLayer::encode(&c);
        let streams = enc.to_streams();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].0, StructureKind::Values);
        let dec = DenseLayer::from_streams(c.rows, c.cols, c.index_bits, &streams[0].1);
        assert_eq!(dec.reconstruct_indices(), c.indices);
    }

    #[test]
    fn stream_length_is_exact() {
        let c = clustered();
        let streams = DenseLayer::encode(&c).to_streams();
        assert_eq!(streams[0].1.len(), 8 * 3);
    }

    #[test]
    fn short_stream_pads_with_zeros() {
        let c = clustered();
        let truncated = BitBuffer::zeros(5);
        let dec = DenseLayer::from_streams(c.rows, c.cols, c.index_bits, &truncated);
        assert_eq!(dec.reconstruct_indices().len(), 8);
    }
}
