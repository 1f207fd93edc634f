//! One structure's bit-stream packed into MLC cells, and the statistics
//! a decode pass reports.

use crate::StructureKind;
use maxnvm_bits::{BitBuffer, BitReader};
use maxnvm_ecc::{BlockCodec, SecDed};
use maxnvm_envm::gray::{binary_to_level, level_to_binary};
use maxnvm_envm::MlcConfig;

/// One structure's bits, packed into MLC cells.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredStructure {
    /// Which structure this is.
    pub kind: StructureKind,
    /// Bits per cell.
    pub bpc: MlcConfig,
    /// Whether levels are Gray-coded (always true when ECC-protected).
    pub gray: bool,
    /// SEC-DED code, if protected.
    pub ecc: Option<SecDed>,
    /// Original stream length in bits (pre-ECC).
    pub payload_bits: usize,
    /// Stored length in bits (post-ECC).
    pub stored_bits: usize,
    /// Programmed cell levels.
    pub cells: Vec<u8>,
}

impl StoredStructure {
    /// Packs a bit stream into cells.
    pub(crate) fn pack(
        kind: StructureKind,
        stream: &BitBuffer,
        bpc: MlcConfig,
        ecc: Option<SecDed>,
    ) -> Self {
        let payload_bits = stream.len();
        let encoded;
        let bits: &BitBuffer = match &ecc {
            Some(code) => {
                encoded = BlockCodec::new(*code).encode(stream);
                &encoded
            }
            None => stream,
        };
        let stored_bits = bits.len();
        let w = bpc.bits() as usize;
        let gray = ecc.is_some();
        let ncells = stored_bits
            .div_ceil(w)
            .max(if stored_bits == 0 { 0 } else { 1 });
        let mut cells = Vec::with_capacity(ncells);
        let mut rd = BitReader::new(bits);
        loop {
            let remaining = rd.remaining();
            if remaining == 0 {
                break;
            }
            let take = remaining.min(w);
            // `take <= remaining`, so the read never comes up short.
            let mut v = rd.read_bits(take).unwrap_or(0) as u8;
            if take < w {
                // final partial cell: zero-pad high bits
                v &= (1u8 << w) - 1;
            }
            let level = if gray {
                binary_to_level(v as u64, bpc.bits())
            } else {
                v
            };
            cells.push(level);
        }
        Self {
            kind,
            bpc,
            gray,
            ecc,
            payload_bits,
            stored_bits,
            cells,
        }
    }

    /// Unpacks cells into the raw stored bit stream (the post-ECC-encode
    /// layout), before any ECC decode — the stream a cell's bits splice
    /// into directly.
    pub(crate) fn unpack_stored_bits(&self, cells: &[u8]) -> BitBuffer {
        let w = self.bpc.bits() as usize;
        let mut bits = BitBuffer::with_capacity(self.stored_bits);
        for &level in cells {
            let v = if self.gray {
                level_to_binary(level, self.bpc.bits())
            } else {
                level as u64
            };
            let take = (self.stored_bits - bits.len()).min(w);
            bits.push_bits(v & ((1u64 << take) - 1), take);
            if bits.len() >= self.stored_bits {
                break;
            }
        }
        bits
    }

    /// The stored bit range `start..end` that cell `cell` holds.
    pub(crate) fn cell_bit_range(&self, cell: usize) -> (usize, usize) {
        let w = self.bpc.bits() as usize;
        let start = cell * w;
        (start, (start + w).min(self.stored_bits))
    }

    /// The bit pattern a cell read back at `level` contributes to the
    /// stored stream (Gray-decoded when the structure is Gray-coded).
    pub(crate) fn cell_bits(&self, level: u8) -> u64 {
        if self.gray {
            level_to_binary(level, self.bpc.bits())
        } else {
            level as u64
        }
    }

    /// Unpacks cells back into the payload stream, applying ECC decode.
    /// Returns the stream plus (corrected, uncorrectable) codeword counts.
    pub(crate) fn unpack_cells(&self, cells: &[u8]) -> (BitBuffer, usize, usize) {
        let bits = self.unpack_stored_bits(cells);
        match &self.ecc {
            Some(code) => {
                let dec = BlockCodec::new(*code).decode(&bits, self.payload_bits);
                (dec.data, dec.corrected, dec.uncorrectable)
            }
            None => (bits, 0, 0),
        }
    }

    /// Number of memory cells used.
    pub fn num_cells(&self) -> u64 {
        self.cells.len() as u64
    }
}

/// Statistics from one decode pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Cells whose level flipped under fault injection.
    pub cell_faults: usize,
    /// ECC codewords with a corrected single error.
    pub ecc_corrected: usize,
    /// ECC codewords with a detected-uncorrectable error.
    pub ecc_uncorrectable: usize,
}

impl DecodeStats {
    /// Accumulates another pass's statistics into this one.
    pub fn absorb(&mut self, other: DecodeStats) {
        self.cell_faults += other.cell_faults;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
    }
}
