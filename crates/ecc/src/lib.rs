//! Hamming-style, parity-based SEC-DED error correction for MLC eNVM
//! storage (paper §3.3).
//!
//! The paper protects the vulnerable CSR structures (row counters, column
//! indices) with the lightest-weight ECC considered for NAND flash:
//! single-error-correct, double-error-detect (SEC-DED) Hamming codes.
//! Values are stored **Gray-coded** in the MLCs (see
//! `maxnvm_envm::gray`) so that an adjacent-level fault is exactly one bit
//! flip — i.e., a correctable error.
//!
//! Two block configurations are provided:
//!
//! - [`SecDed::paper_4kb`] — one codeword per 4KB of data, matching the
//!   paper's "24 parity bits for each 4KB" budget (a SEC-DED code over
//!   32768 data bits needs 17 parity bits; the paper rounds to 24);
//! - [`SecDed::default_512b`] — one codeword per 512B. This is the
//!   configuration the reproduction's pipeline uses: with our calibrated
//!   MLC3 fault rates the expected faults per 4KB can exceed one, so
//!   smaller codewords are needed for the paper's qualitative conclusion
//!   ("ECC makes MLC3 safe for CSR") to hold. The overhead is still
//!   ≤0.4%, comfortably inside the paper's <1% bound. The deviation is
//!   recorded in `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```
//! use maxnvm_bits::BitBuffer;
//! use maxnvm_ecc::{Correction, SecDed};
//!
//! let code = SecDed::new(64);
//! let mut data = BitBuffer::new();
//! data.push_bits(0xdead_beef_0000_1234, 64);
//! let mut cw = code.encode(&data);
//! cw.toggle(13); // a single-level MLC fault = one bit flip (Gray code)
//! let decoded = code.decode(&mut cw);
//! assert_eq!(decoded.correction, Correction::CorrectedSingle(13));
//! assert_eq!(decoded.data, data);
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

use maxnvm_bits::BitBuffer;

/// Outcome of decoding one SEC-DED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Correction {
    /// No error detected.
    Clean,
    /// A single-bit error was corrected at the given codeword position.
    CorrectedSingle(usize),
    /// A double-bit error was detected but cannot be corrected. The paper
    /// accepts this risk (§4.3): DED probability for the largest model is
    /// far below mass-production memory standards.
    DetectedDouble,
}

impl Correction {
    /// Whether decoding recovered (or never lost) the original data.
    pub fn is_recovered(self) -> bool {
        !matches!(self, Correction::DetectedDouble)
    }
}

/// Result of decoding a codeword: the (possibly corrected) data payload and
/// what the decoder observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The extracted data bits.
    pub data: BitBuffer,
    /// What the decoder observed and did.
    pub correction: Correction,
}

/// A SEC-DED (extended Hamming) code over a fixed number of data bits.
///
/// Codeword layout: positions `1..=m` hold data and Hamming parity bits
/// (parity at power-of-two positions), position `0` holds the overall
/// parity bit that upgrades SEC to SEC-DED.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecDed {
    data_bits: usize,
    hamming_parity: usize,
}

impl SecDed {
    /// Creates a SEC-DED code over `data_bits` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits == 0`.
    pub fn new(data_bits: usize) -> Self {
        assert!(data_bits > 0, "data_bits must be positive");
        // Smallest r with 2^r >= data + r + 1.
        let mut r = 1;
        while (1usize << r) < data_bits + r + 1 {
            r += 1;
        }
        Self {
            data_bits,
            hamming_parity: r,
        }
    }

    /// The paper's configuration: one codeword per 4KB of protected data.
    pub fn paper_4kb() -> Self {
        Self::new(4096 * 8)
    }

    /// The reproduction's default: one codeword per 512B of protected data.
    pub fn default_512b() -> Self {
        Self::new(512 * 8)
    }

    /// Data bits per codeword.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Total parity bits per codeword (Hamming parity + overall parity).
    pub fn parity_bits(&self) -> usize {
        self.hamming_parity + 1
    }

    /// Codeword length in bits.
    pub fn codeword_bits(&self) -> usize {
        self.data_bits + self.parity_bits()
    }

    /// Relative storage overhead, `parity / data`.
    pub fn overhead(&self) -> f64 {
        self.parity_bits() as f64 / self.data_bits as f64
    }

    /// Encodes `data` into a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_bits()`.
    pub fn encode(&self, data: &BitBuffer) -> BitBuffer {
        assert_eq!(data.len(), self.data_bits, "data length mismatch");
        let m = self.data_bits + self.hamming_parity;
        let mut cw = BitBuffer::zeros(m + 1);
        // Place data bits at non-power-of-two positions 3,5,6,7,9,...
        let mut di = 0;
        for pos in 1..=m {
            if !pos.is_power_of_two() {
                cw.set(pos, data.get(di) == Some(true));
                di += 1;
            }
        }
        debug_assert_eq!(di, self.data_bits);
        // Hamming parity bits: parity at 2^i covers positions with bit i.
        for i in 0..self.hamming_parity {
            let p = 1usize << i;
            let mut parity = false;
            for pos in 1..=m {
                if pos & p != 0 && !pos.is_power_of_two() && cw.get(pos) == Some(true) {
                    parity = !parity;
                }
            }
            cw.set(p, parity);
        }
        // Overall parity over positions 1..=m.
        let mut overall = false;
        for pos in 1..=m {
            if cw.get(pos) == Some(true) {
                overall = !overall;
            }
        }
        cw.set(0, overall);
        cw
    }

    /// Decodes (and corrects in place) a codeword.
    ///
    /// Single-bit errors anywhere in the codeword — data, Hamming parity,
    /// or overall parity — are corrected; double-bit errors are detected
    /// and reported, with the (corrupt) data returned as stored.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.codeword_bits()`.
    pub fn decode(&self, cw: &mut BitBuffer) -> Decoded {
        assert_eq!(cw.len(), self.codeword_bits(), "codeword length mismatch");
        let m = self.data_bits + self.hamming_parity;
        // Syndrome: recomputed Hamming parities; a nonzero syndrome is the
        // position of a single flipped bit.
        let mut syndrome = 0usize;
        for i in 0..self.hamming_parity {
            let p = 1usize << i;
            let mut parity = false;
            for pos in 1..=m {
                if pos & p != 0 && cw.get(pos) == Some(true) {
                    parity = !parity;
                }
            }
            if parity {
                syndrome |= p;
            }
        }
        let mut overall = false;
        for pos in 0..=m {
            if cw.get(pos) == Some(true) {
                overall = !overall;
            }
        }
        let correction = match (syndrome, overall) {
            (0, false) => Correction::Clean,
            (0, true) => {
                // Error in the overall parity bit itself.
                cw.toggle(0);
                Correction::CorrectedSingle(0)
            }
            (s, true) => {
                if s <= m {
                    cw.toggle(s);
                    Correction::CorrectedSingle(s)
                } else {
                    // Syndrome points outside the codeword: miscorrection
                    // risk; treat as detected-uncorrectable.
                    Correction::DetectedDouble
                }
            }
            (_, false) => Correction::DetectedDouble,
        };
        // Extract data bits.
        let mut data = BitBuffer::with_capacity(self.data_bits);
        for pos in 1..=m {
            if !pos.is_power_of_two() {
                data.push_bit(cw.get(pos) == Some(true));
            }
        }
        Decoded { data, correction }
    }
}

/// Splits an arbitrary-length bit stream into fixed-size SEC-DED codewords,
/// as the storage pipeline does for protected structures. The final block,
/// if shorter than the configured size, uses a right-sized SEC-DED code so
/// small structures (e.g. a layer's row counters) do not pay a full
/// codeword of padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCodec {
    code: SecDed,
}

/// Decode report for a full protected stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDecode {
    /// The reassembled data stream (trimmed to the original length).
    pub data: BitBuffer,
    /// Number of codewords with a corrected single error.
    pub corrected: usize,
    /// Number of codewords with a detected-uncorrectable double error.
    pub uncorrectable: usize,
}

impl BlockCodec {
    /// Creates a block codec from a SEC-DED configuration.
    pub fn new(code: SecDed) -> Self {
        Self { code }
    }

    /// The per-codeword code.
    pub fn code(&self) -> &SecDed {
        &self.code
    }

    /// Number of codewords needed for `data_len` bits (full blocks plus an
    /// optional right-sized final block).
    pub fn num_blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.code.data_bits()).max(1)
    }

    /// The code used for the final block of a `data_len`-bit stream.
    fn tail_code(&self, data_len: usize) -> SecDed {
        let rem = data_len % self.code.data_bits();
        if data_len == 0 || rem == 0 {
            self.code
        } else {
            SecDed::new(rem)
        }
    }

    /// Total encoded length in bits for `data_len` bits of data.
    pub fn encoded_len(&self, data_len: usize) -> usize {
        if data_len == 0 {
            return 0;
        }
        let full = data_len / self.code.data_bits();
        let tail = if data_len.is_multiple_of(self.code.data_bits()) {
            0
        } else {
            self.tail_code(data_len).codeword_bits()
        };
        full * self.code.codeword_bits() + tail
    }

    /// Total parity overhead in bits for `data_len` bits of data.
    pub fn overhead_bits(&self, data_len: usize) -> usize {
        self.encoded_len(data_len) - data_len
    }

    /// Encodes a stream into concatenated codewords.
    pub fn encode(&self, data: &BitBuffer) -> BitBuffer {
        if data.is_empty() {
            return BitBuffer::new();
        }
        let db = self.code.data_bits();
        let mut out = BitBuffer::with_capacity(self.encoded_len(data.len()));
        let mut pos = 0usize;
        while pos < data.len() {
            let take = (data.len() - pos).min(db);
            let code = if take == db {
                self.code
            } else {
                SecDed::new(take)
            };
            let mut block = BitBuffer::with_capacity(take);
            for i in 0..take {
                block.push_bit(data.get(pos + i) == Some(true));
            }
            out.extend(code.encode(&block).iter());
            pos += take;
        }
        out
    }

    /// The per-codeword code used for block `word` of a `data_len`-bit
    /// stream: the configured code for full blocks, a right-sized code
    /// for a shorter final block.
    ///
    /// # Panics
    ///
    /// Panics if `word >= num_blocks(data_len)` or `data_len == 0`.
    pub fn word_code(&self, word: usize, data_len: usize) -> SecDed {
        assert!(data_len > 0, "empty stream has no codewords");
        assert!(word < self.num_blocks(data_len), "word index out of range");
        if word + 1 == self.num_blocks(data_len) {
            self.tail_code(data_len)
        } else {
            self.code
        }
    }

    /// Data bit range `start..end` covered by block `word` of a
    /// `data_len`-bit stream.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range for the stream.
    pub fn word_data_range(&self, word: usize, data_len: usize) -> (usize, usize) {
        let db = self.code.data_bits();
        let start = word * db;
        let end = (start + self.word_code(word, data_len).data_bits()).min(data_len);
        (start, end)
    }

    /// Encoded bit range `start..end` occupied by block `word`'s codeword.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range for the stream.
    pub fn word_encoded_range(&self, word: usize, data_len: usize) -> (usize, usize) {
        let start = word * self.code.codeword_bits();
        (
            start,
            start + self.word_code(word, data_len).codeword_bits(),
        )
    }

    /// Index of the codeword containing encoded bit `bit` of a
    /// `data_len`-bit stream.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= encoded_len(data_len)`.
    pub fn word_of_encoded_bit(&self, bit: usize, data_len: usize) -> usize {
        assert!(bit < self.encoded_len(data_len), "encoded bit out of range");
        // Full codewords precede the (possibly shorter) tail, so integer
        // division is exact for full words and any position past the last
        // full-word boundary belongs to the tail.
        (bit / self.code.codeword_bits()).min(self.num_blocks(data_len) - 1)
    }

    /// Decodes a single codeword of a concatenated stream, correcting a
    /// single error within it.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range or `encoded` is shorter than the
    /// word's codeword range.
    pub fn decode_word(&self, encoded: &BitBuffer, word: usize, data_len: usize) -> Decoded {
        let (start, end) = self.word_encoded_range(word, data_len);
        let code = self.word_code(word, data_len);
        let mut cw = BitBuffer::with_capacity(end - start);
        for i in start..end {
            cw.push_bit(encoded.get(i) == Some(true));
        }
        code.decode(&mut cw)
    }

    /// Decodes concatenated codewords back into a stream of `data_len`
    /// bits, correcting single errors per codeword.
    ///
    /// # Panics
    ///
    /// Panics if `encoded.len()` does not match `encoded_len(data_len)`.
    pub fn decode(&self, encoded: &BitBuffer, data_len: usize) -> BlockDecode {
        assert_eq!(
            encoded.len(),
            self.encoded_len(data_len),
            "encoded length mismatch"
        );
        let db = self.code.data_bits();
        let mut data = BitBuffer::with_capacity(data_len);
        let mut corrected = 0;
        let mut uncorrectable = 0;
        let mut pos = 0usize; // bit cursor into `encoded`
        let mut produced = 0usize;
        while produced < data_len {
            let take = (data_len - produced).min(db);
            let code = if take == db {
                self.code
            } else {
                SecDed::new(take)
            };
            let cb = code.codeword_bits();
            let mut cw = BitBuffer::with_capacity(cb);
            for i in 0..cb {
                cw.push_bit(encoded.get(pos + i) == Some(true));
            }
            let dec = code.decode(&mut cw);
            match dec.correction {
                Correction::Clean => {}
                Correction::CorrectedSingle(_) => corrected += 1,
                Correction::DetectedDouble => uncorrectable += 1,
            }
            data.extend(dec.data.iter());
            pos += cb;
            produced += take;
        }
        BlockDecode {
            data,
            corrected,
            uncorrectable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_data(bits: usize, seed: u64) -> BitBuffer {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..bits).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn parity_counts_match_hamming_bounds() {
        // (data, hamming parity r): 2^r >= data + r + 1.
        assert_eq!(SecDed::new(4).parity_bits(), 3 + 1);
        assert_eq!(SecDed::new(11).parity_bits(), 4 + 1);
        assert_eq!(SecDed::new(64).parity_bits(), 7 + 1);
        assert_eq!(SecDed::new(512 * 8).parity_bits(), 13 + 1);
        // The paper's "24 parity bits per 4KB" budget: 17 strictly required.
        assert_eq!(SecDed::paper_4kb().parity_bits(), 16 + 1);
    }

    #[test]
    fn overhead_stays_below_one_percent_for_block_configs() {
        assert!(SecDed::paper_4kb().overhead() < 0.001);
        assert!(SecDed::default_512b().overhead() < 0.004);
    }

    #[test]
    fn clean_round_trip() {
        let code = SecDed::new(64);
        let data = random_data(64, 1);
        let mut cw = code.encode(&data);
        let dec = code.decode(&mut cw);
        assert_eq!(dec.correction, Correction::Clean);
        assert_eq!(dec.data, data);
    }

    #[test]
    fn corrects_every_single_bit_error_exhaustively() {
        let code = SecDed::new(26);
        let data = random_data(26, 2);
        let clean = code.encode(&data);
        for pos in 0..code.codeword_bits() {
            let mut cw = clean.clone();
            cw.toggle(pos);
            let dec = code.decode(&mut cw);
            assert_eq!(
                dec.correction,
                Correction::CorrectedSingle(pos),
                "flip at {pos}"
            );
            assert_eq!(dec.data, data, "data corrupted after flip at {pos}");
        }
    }

    #[test]
    fn detects_every_double_bit_error_exhaustively() {
        let code = SecDed::new(11);
        let data = random_data(11, 3);
        let clean = code.encode(&data);
        let n = code.codeword_bits();
        for a in 0..n {
            for b in (a + 1)..n {
                let mut cw = clean.clone();
                cw.toggle(a);
                cw.toggle(b);
                let dec = code.decode(&mut cw);
                assert_eq!(
                    dec.correction,
                    Correction::DetectedDouble,
                    "double flip at {a},{b} not detected"
                );
            }
        }
    }

    #[test]
    fn large_codeword_round_trip() {
        let code = SecDed::default_512b();
        let data = random_data(code.data_bits(), 4);
        let mut cw = code.encode(&data);
        cw.toggle(1234);
        let dec = code.decode(&mut cw);
        assert!(matches!(dec.correction, Correction::CorrectedSingle(1234)));
        assert_eq!(dec.data, data);
    }

    #[test]
    fn block_codec_round_trip_with_scattered_errors() {
        let codec = BlockCodec::new(SecDed::new(64));
        let data = random_data(1000, 5); // 16 blocks, last padded
        let mut enc = codec.encode(&data);
        // One error in each of three different codewords.
        let cb = codec.code().codeword_bits();
        enc.toggle(3);
        enc.toggle(cb + 10);
        enc.toggle(5 * cb + 60);
        let dec = codec.decode(&enc, 1000);
        assert_eq!(dec.corrected, 3);
        assert_eq!(dec.uncorrectable, 0);
        assert_eq!(dec.data, data);
    }

    #[test]
    fn block_codec_reports_uncorrectable_blocks() {
        let codec = BlockCodec::new(SecDed::new(64));
        let data = random_data(128, 6);
        let mut enc = codec.encode(&data);
        enc.toggle(4);
        enc.toggle(9); // two errors in the same codeword
        let dec = codec.decode(&enc, 128);
        assert_eq!(dec.uncorrectable, 1);
        assert_eq!(dec.corrected, 0);
    }

    #[test]
    fn block_codec_sizes() {
        let codec = BlockCodec::new(SecDed::new(64));
        assert_eq!(codec.num_blocks(1), 1);
        assert_eq!(codec.num_blocks(64), 1);
        assert_eq!(codec.num_blocks(65), 2);
        assert_eq!(codec.encoded_len(64), codec.code().codeword_bits());
        assert_eq!(codec.overhead_bits(128), 2 * codec.code().parity_bits());
    }

    #[test]
    fn word_ranges_tile_the_stream() {
        let codec = BlockCodec::new(SecDed::new(64));
        for data_len in [1usize, 63, 64, 65, 128, 1000] {
            let blocks = codec.num_blocks(data_len);
            let mut data_cursor = 0;
            let mut enc_cursor = 0;
            for w in 0..blocks {
                let (ds, de) = codec.word_data_range(w, data_len);
                let (es, ee) = codec.word_encoded_range(w, data_len);
                assert_eq!(ds, data_cursor, "data gap at word {w}, len {data_len}");
                assert_eq!(es, enc_cursor, "encoded gap at word {w}, len {data_len}");
                assert_eq!(de - ds, codec.word_code(w, data_len).data_bits());
                assert_eq!(ee - es, codec.word_code(w, data_len).codeword_bits());
                for bit in es..ee {
                    assert_eq!(codec.word_of_encoded_bit(bit, data_len), w);
                }
                data_cursor = de;
                enc_cursor = ee;
            }
            assert_eq!(data_cursor, data_len);
            assert_eq!(enc_cursor, codec.encoded_len(data_len));
        }
    }

    #[test]
    fn decode_word_matches_full_decode() {
        let codec = BlockCodec::new(SecDed::new(64));
        let data = random_data(1000, 7);
        let mut enc = codec.encode(&data);
        let cb = codec.code().codeword_bits();
        enc.toggle(2 * cb + 17); // single error in word 2
        for w in 0..codec.num_blocks(1000) {
            let dec = codec.decode_word(&enc, w, 1000);
            let (ds, de) = codec.word_data_range(w, 1000);
            let expect: BitBuffer = (ds..de).map(|i| data.get(i).unwrap()).collect();
            assert_eq!(dec.data, expect, "word {w} data");
            if w == 2 {
                assert!(matches!(dec.correction, Correction::CorrectedSingle(_)));
            } else {
                assert_eq!(dec.correction, Correction::Clean, "word {w}");
            }
        }
    }

    #[test]
    fn correction_is_recovered_semantics() {
        assert!(Correction::Clean.is_recovered());
        assert!(Correction::CorrectedSingle(5).is_recovered());
        assert!(!Correction::DetectedDouble.is_recovered());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_single_error_always_corrected(
            seed in any::<u64>(),
            data_bits in 1usize..200,
            flip in any::<prop::sample::Index>(),
        ) {
            let code = SecDed::new(data_bits);
            let data = random_data(data_bits, seed);
            let clean = code.encode(&data);
            let pos = flip.index(code.codeword_bits());
            let mut cw = clean.clone();
            cw.toggle(pos);
            let dec = code.decode(&mut cw);
            prop_assert_eq!(dec.correction, Correction::CorrectedSingle(pos));
            prop_assert_eq!(dec.data, data);
        }

        #[test]
        fn prop_block_codec_round_trip(
            seed in any::<u64>(),
            len in 1usize..600,
        ) {
            let codec = BlockCodec::new(SecDed::new(64));
            let data = random_data(len, seed);
            let enc = codec.encode(&data);
            let dec = codec.decode(&enc, len);
            prop_assert_eq!(dec.data, data);
            prop_assert_eq!(dec.corrected, 0);
            prop_assert_eq!(dec.uncorrectable, 0);
        }
    }
}
