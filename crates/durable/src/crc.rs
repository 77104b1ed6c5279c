//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the frame
//! checksum of the write-ahead log. Every log byte is checksummed when
//! it is written and again by each scan that reads it, so the loop
//! folds sixteen bytes per step (slice-by-16): sixteen 256-entry tables
//! built at compile time, `TABLES[k][b]` being the CRC of byte `b`
//! followed by `k` zero bytes, so the sixteen look-ups of a step are
//! independent of one another. One portable implementation in safe
//! Rust, no dependency on external crates; the values are those of the
//! byte-at-a-time loop the test module keeps as the model.

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // One more trailing zero byte per table.
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Incremental CRC-32 state, for checksumming a frame without first
/// concatenating its header byte and body into a scratch buffer.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.0;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            // The running value only meets the block's first four bytes;
            // the other twelve index their tables directly.
            let [c0, c1, c2, c3] = c.to_le_bytes();
            c = t[15][(b[0] ^ c0) as usize]
                ^ t[14][(b[1] ^ c1) as usize]
                ^ t[13][(b[2] ^ c2) as usize]
                ^ t[12][(b[3] ^ c3) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 of `data` (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop this module shipped before slice-by-16,
    /// kept as the model the wide loop is checked against.
    fn model_update(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn model_crc32(data: &[u8]) -> u32 {
        !model_update(0xFFFF_FFFF, data)
    }

    /// The table the model indexes, recomputed bit by bit so the model
    /// does not lean on `build_tables`.
    #[test]
    fn byte_table_matches_the_bitwise_definition() {
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            assert_eq!(TABLES[0][i as usize], c);
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Lengths on both sides of one and two 16-byte blocks, pinned to
    /// values computed with zlib's `crc32` over bytes `0, 1, 2, …`.
    #[test]
    fn block_edge_vectors() {
        let data: Vec<u8> = (0..33u8).collect();
        for (len, want) in [
            (0usize, 0x0000_0000u32),
            (1, 0xD202_EF8D),
            (15, 0xA06C_675E),
            (16, 0xCECE_E288),
            (17, 0x2C18_3A19),
            (31, 0x4D78_6D77),
            (32, 0x9126_7E8A),
            (33, 0xE490_8305),
        ] {
            assert_eq!(crc32(&data[..len]), want, "length {len}");
            assert_eq!(model_crc32(&data[..len]), want, "model, length {len}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = b"frame payload".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
    }

    proptest! {
        /// Any buffer at any start offset into an over-allocated buffer
        /// (so the block loop meets every alignment) checksums as the
        /// model does.
        #[test]
        fn wide_update_equals_the_model(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..32,
        ) {
            let mut padded = vec![0xA5u8; offset];
            padded.extend_from_slice(&data);
            prop_assert_eq!(crc32(&padded[offset..]), model_crc32(&data));
        }

        /// Feeding a buffer in pieces split at arbitrary points equals
        /// one `update` over the whole.
        #[test]
        fn incremental_update_equals_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                c.update(&data[from..cut]);
                from = cut;
            }
            c.update(&data[from..]);
            prop_assert_eq!(c.finish(), crc32(&data));
            prop_assert_eq!(c.finish(), model_crc32(&data));
        }
    }
}
