//! Hash functions implemented in-crate (no external crypto deps).
//!
//! * **FNV-1a** — fast non-cryptographic hash used by the partitioner
//!   ("each map output's key is hashed … modulo the number of
//!   reducers", §III.C) and, as the `Fnv1a` hasher, by the local
//!   executors' group-by table.
//! * **SHA-256** — output fingerprints. The paper proposes reporting a
//!   hash of each output file to the server instead of the file itself;
//!   the real TCP runtime also uses it as a transfer integrity trailer,
//!   so its speed is the per-byte price of every verified fetch. One
//!   portable, safe implementation: `compress_blocks` runs over whole
//!   64-byte blocks straight from the input, keeps a 16-word rolling
//!   message schedule, and unrolls the rounds by 8 by renaming the
//!   working variables instead of shifting them. The test module keeps
//!   the block-at-a-time compress this replaced as its model.

use std::hash::Hasher;

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a, 64-bit, as a [`Hasher`]: the fixed, seedless
/// hasher of [`crate::local`]'s group-by table.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Streaming SHA-256 (FIPS 180-4).
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie, in one run.
        let whole = data.len() - data.len() % 64;
        compress_blocks(&mut self.state, &data[..whole]);
        let rest = &data[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, the 64-bit bit length — one block, or
        // two when fewer than 9 bytes are left in the first.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let n = if self.buf_len < 56 { 64 } else { 128 };
        tail[n - 8..n].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..n]);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

#[inline(always)]
fn big_sigma0(x: u32) -> u32 {
    x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22)
}

#[inline(always)]
fn big_sigma1(x: u32) -> u32 {
    x.rotate_right(6) ^ x.rotate_right(11) ^ x.rotate_right(25)
}

/// Message word `i >= 16`, computed over the rolling 16-word window in
/// the slot of word `i - 16`, which no later word reads.
#[inline(always)]
fn schedule(w: &mut [u32; 16], i: usize) -> u32 {
    let w15 = w[(i + 1) & 15];
    let w2 = w[(i + 14) & 15];
    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
    let x = w[i & 15]
        .wrapping_add(s0)
        .wrapping_add(w[(i + 9) & 15])
        .wrapping_add(s1);
    w[i & 15] = x;
    x
}

/// Runs the compression function over every 64-byte block of `blocks`
/// (whose length is a multiple of 64).
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        // One round with the working variables named in rotated order:
        // the new `e` lands in `d`'s slot and the new `a` in `h`'s, so
        // the next round passes the same eight names shifted by one and
        // eight rounds bring them back home — no register shuffle.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {{
                let i = $i;
                let x = if i < 16 { w[i] } else { schedule(&mut w, i) };
                let t1 = $h
                    .wrapping_add(big_sigma1($e))
                    .wrapping_add($g ^ ($e & ($f ^ $g)))
                    .wrapping_add(K[i])
                    .wrapping_add(x);
                $d = $d.wrapping_add(t1);
                $h = t1
                    .wrapping_add(big_sigma0($a))
                    .wrapping_add(($a & $b) | ($c & ($a | $b)));
            }};
        }
        for i in (0..64).step_by(8) {
            round!(a, b, c, d, e, f, g, h, i);
            round!(h, a, b, c, d, e, f, g, i + 1);
            round!(g, h, a, b, c, d, e, f, i + 2);
            round!(f, g, h, a, b, c, d, e, i + 3);
            round!(e, f, g, h, a, b, c, d, i + 4);
            round!(d, e, f, g, h, a, b, c, i + 5);
            round!(c, d, e, f, g, h, a, b, i + 6);
            round!(b, c, d, e, f, g, h, a, i + 7);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hex rendering of a digest.
pub fn to_hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The block-at-a-time compress this module shipped before the
    /// unrolled one (64-word schedule, textbook `ch` / `maj`, eight
    /// registers shifted every round), kept as the model the fast path
    /// is checked against.
    fn model_compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-256 over the model compress, padding spelled out.
    fn model_sha256(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        for block in msg.chunks_exact(64) {
            model_compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Lengths on both sides of the one- and two-block padding edges,
    /// pinned to values computed with Python's `hashlib.sha256` over
    /// bytes `0, 1, 2, …`.
    #[test]
    fn padding_edge_vectors() {
        let data: Vec<u8> = (0..128u8).collect();
        for (len, want) in [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                128,
                "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
            ),
        ] {
            assert_eq!(to_hex(&sha256(&data[..len])), want, "length {len}");
            assert_eq!(
                to_hex(&model_sha256(&data[..len])),
                want,
                "model, length {len}"
            );
        }
    }

    proptest! {
        /// Any input hashes as the model does.
        #[test]
        fn sha256_equals_the_model(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(sha256(&data), model_sha256(&data));
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
            let mut h = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            let got = h.finalize();
            prop_assert_eq!(got, sha256(&data));
            prop_assert_eq!(got, model_sha256(&data));
        }
    }

    // FIPS 180-4 / NIST CAVS reference vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_at_all_boundaries() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let reference = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn fnv_known_values() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_distinguishes_keys() {
        assert_ne!(fnv1a(b"word1"), fnv1a(b"word2"));
    }
}
