//! Compact bit-level buffers used by the MaxNVM encodings and ECC codecs.
//!
//! Sparse-encoded DNN weights are streams of fields whose widths are not
//! byte-aligned (4–7 bit cluster indices, per-cell level codes, Hamming
//! parity bits). [`BitBuffer`] is a minimal append-only bit vector with a
//! matching [`BitReader`] cursor; both are deliberately simple so that the
//! encoders in `maxnvm-encoding` stay easy to audit.
//!
//! # Examples
//!
//! ```
//! use maxnvm_bits::{BitBuffer, BitReader};
//!
//! let mut buf = BitBuffer::new();
//! buf.push_bits(0b101, 3);
//! buf.push_bits(0x7f, 7);
//! let mut rd = BitReader::new(&buf);
//! assert_eq!(rd.read_bits(3), Some(0b101));
//! assert_eq!(rd.read_bits(7), Some(0x7f));
//! assert_eq!(rd.read_bits(1), None);
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

/// An append-only, LSB-first bit vector.
///
/// Bits are stored in 64-bit words; bit `i` of the logical stream lives at
/// word `i / 64`, bit position `i % 64`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitBuffer {
    words: Vec<u64>,
    len: usize,
}

impl BitBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Creates a buffer of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the low `width` bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value:#x} does not fit in {width} bits"
            );
        }
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            let word = self.len / 64;
            let bit = self.len % 64;
            if word == self.words.len() {
                self.words.push(0);
            }
            let take = remaining.min(64 - bit);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            self.words[word] |= (v & mask) << bit;
            v = if take == 64 { 0 } else { v >> take };
            self.len += take;
            remaining -= take;
        }
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Returns bit `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn toggle(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// Reads the `width`-bit field starting at bit `start`, LSB first.
    ///
    /// Returns `None` if the field extends past the end of the buffer.
    pub fn read_at(&self, start: usize, width: usize) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds 64");
        if start + width > self.len {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0usize;
        while got < width {
            let word = (start + got) / 64;
            let bit = (start + got) % 64;
            let take = (width - got).min(64 - bit);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            out |= ((self.words[word] >> bit) & mask) << got;
            got += take;
        }
        Some(out)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        // The tail word only holds valid bits below `len % 64`; push_bits
        // never writes above `len`, so summing full words is exact.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        // Every index below `len` is in range, so the fallback is dead.
        (0..self.len).map(move |i| self.get(i).unwrap_or(false))
    }

    /// Serializes to little-endian bytes (final partial byte zero-padded).
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(nbytes);
        for i in 0..nbytes {
            let word = self.words[i / 8];
            out.push((word >> ((i % 8) * 8)) as u8);
        }
        out
    }

    /// Rebuilds a buffer from bytes produced by [`BitBuffer::to_bytes`].
    ///
    /// `len` is the bit length (the byte slice may carry up to 7 pad bits).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(
            bytes.len() * 8 >= len,
            "byte slice too short for {len} bits"
        );
        let mut buf = Self::with_capacity(len);
        for i in 0..len {
            buf.push_bit((bytes[i / 8] >> (i % 8)) & 1 == 1);
        }
        buf
    }
}

impl FromIterator<bool> for BitBuffer {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut buf = BitBuffer::new();
        for b in iter {
            buf.push_bit(b);
        }
        buf
    }
}

impl Extend<bool> for BitBuffer {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push_bit(b);
        }
    }
}

/// A read cursor over a [`BitBuffer`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a BitBuffer,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at bit 0.
    pub fn new(buf: &'a BitBuffer) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute bit position.
    ///
    /// Positions past the end are allowed; subsequent reads return `None`.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// Bits remaining until the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads the next `width`-bit field, advancing the cursor.
    ///
    /// Returns `None` (without advancing) if fewer than `width` bits remain.
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        let v = self.buf.read_at(self.pos, width)?;
        self.pos += width;
        Some(v)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|v| v == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_get_single_bits() {
        let mut b = BitBuffer::new();
        b.push_bit(true);
        b.push_bit(false);
        b.push_bit(true);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), Some(true));
        assert_eq!(b.get(1), Some(false));
        assert_eq!(b.get(2), Some(true));
        assert_eq!(b.get(3), None);
    }

    #[test]
    fn push_bits_crossing_word_boundary() {
        let mut b = BitBuffer::new();
        b.push_bits(u64::MAX >> 4, 60);
        b.push_bits(0b1011, 4); // crosses the 64-bit word boundary
        b.push_bits(0xabcd, 16);
        assert_eq!(b.read_at(0, 60), Some(u64::MAX >> 4));
        assert_eq!(b.read_at(60, 4), Some(0b1011));
        assert_eq!(b.read_at(64, 16), Some(0xabcd));
    }

    #[test]
    fn push_full_64_bit_word() {
        let mut b = BitBuffer::new();
        b.push_bits(0xdead_beef_cafe_f00d, 64);
        assert_eq!(b.read_at(0, 64), Some(0xdead_beef_cafe_f00d));
        assert_eq!(b.len(), 64);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_bits_rejects_oversized_value() {
        BitBuffer::new().push_bits(0b100, 2);
    }

    #[test]
    fn zeros_and_set() {
        let mut b = BitBuffer::zeros(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 0);
        b.set(129, true);
        b.set(0, true);
        assert_eq!(b.count_ones(), 2);
        b.set(0, false);
        assert_eq!(b.count_ones(), 1);
        assert_eq!(b.get(129), Some(true));
    }

    #[test]
    fn toggle_flips() {
        let mut b = BitBuffer::zeros(10);
        b.toggle(7);
        assert_eq!(b.get(7), Some(true));
        b.toggle(7);
        assert_eq!(b.get(7), Some(false));
    }

    #[test]
    fn reader_walks_fields() {
        let mut b = BitBuffer::new();
        for i in 0..100u64 {
            b.push_bits(i % 8, 3);
        }
        let mut r = BitReader::new(&b);
        for i in 0..100u64 {
            assert_eq!(r.read_bits(3), Some(i % 8));
        }
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_seek() {
        let mut b = BitBuffer::new();
        b.push_bits(0b110101, 6);
        let mut r = BitReader::new(&b);
        r.seek(2);
        assert_eq!(r.read_bits(4), Some(0b1101));
        r.seek(100);
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn bytes_round_trip() {
        let mut b = BitBuffer::new();
        b.push_bits(0x1ff, 9);
        b.push_bits(0, 5);
        b.push_bits(0x3, 2);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), 2);
        let back = BitBuffer::from_bytes(&bytes, b.len());
        assert_eq!(back, b);
    }

    #[test]
    fn from_iterator_collects() {
        let b: BitBuffer = [true, false, true, true].into_iter().collect();
        assert_eq!(b.len(), 4);
        assert_eq!(b.read_at(0, 4), Some(0b1101));
    }

    #[test]
    fn count_ones_ignores_padding() {
        let mut b = BitBuffer::new();
        b.push_bits(0b111, 3);
        assert_eq!(b.count_ones(), 3);
    }

    proptest! {
        #[test]
        fn prop_push_read_round_trip(fields in prop::collection::vec((any::<u64>(), 1usize..=64), 0..200)) {
            let mut b = BitBuffer::new();
            let mut expected = Vec::new();
            for (v, w) in &fields {
                let v = if *w == 64 { *v } else { v & ((1u64 << w) - 1) };
                b.push_bits(v, *w);
                expected.push((v, *w));
            }
            let mut r = BitReader::new(&b);
            for (v, w) in expected {
                prop_assert_eq!(r.read_bits(w), Some(v));
            }
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn prop_bytes_round_trip(bits in prop::collection::vec(any::<bool>(), 0..500)) {
            let b: BitBuffer = bits.iter().copied().collect();
            let back = BitBuffer::from_bytes(&b.to_bytes(), b.len());
            prop_assert_eq!(&back, &b);
            prop_assert_eq!(back.count_ones(), bits.iter().filter(|&&x| x).count());
        }

        #[test]
        fn prop_set_get(len in 1usize..300, idx_bits in prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 0..50)) {
            let mut b = BitBuffer::zeros(len);
            let mut model = vec![false; len];
            for (idx, bit) in idx_bits {
                let i = idx.index(len);
                b.set(i, bit);
                model[i] = bit;
            }
            for (i, &m) in model.iter().enumerate() {
                prop_assert_eq!(b.get(i), Some(m));
            }
        }
    }
}
