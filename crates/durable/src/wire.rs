//! Minimal binary wire codec used by every durable payload.
//!
//! [`Enc`] appends big-endian primitives to a [`bytes::BytesMut`] and is
//! also what the journal keeps its log in: a frame's body is encoded at
//! the end of the log itself, never into a scratch buffer that is then
//! copied. The two lengths that are only known once their content is
//! written — a frame's and a nested blob's — are reserved and patched
//! ([`Enc::nested`]), so a blob-in-a-blob costs no intermediate vector
//! either, and [`Enc::into_vec`] hands the buffer over without copying.
//! [`Dec`] is a checked cursor over a byte slice that returns
//! [`WireError`] instead of panicking, so a corrupt (but CRC-valid —
//! i.e. buggy writer) record surfaces as a recovery error rather than
//! a crash. Strings and blobs are `u32` length-prefixed; `f64` travels
//! as its IEEE-754 bit pattern so encode/decode round-trips are exact;
//! `Option` is a one-byte presence tag. There is no schema evolution —
//! the log format is versioned as a whole by the frame layer's magic.
//!
//! Every method here is `#[inline]`: each is a few instructions, a
//! snapshot makes ~700 k such calls from other crates, and without the
//! attribute each is a cross-crate call ending in a 4-byte `memcpy`
//! (one `wal_cycle` snapshot encoded in 7.2 ms that way, 4.0 ms
//! inlined).

use bytes::{BufMut, BytesMut};

/// Decode failure: the bytes do not parse as the expected shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the field needs.
    UnexpectedEof,
    /// An enum/option tag byte had no corresponding variant.
    BadTag(u8),
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// Decoding finished with unconsumed trailing bytes.
    TrailingBytes,
    /// A row referenced an id the decoded table does not hold.
    BadId(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of record"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::BadUtf8 => write!(f, "length-prefixed string is not UTF-8"),
            WireError::TrailingBytes => write!(f, "trailing bytes after decoded value"),
            WireError::BadId(id) => write!(f, "reference to missing row {id}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: BytesMut,
}

impl Enc {
    /// An empty encoder.
    #[inline]
    pub fn new() -> Self {
        Enc::default()
    }

    /// An empty encoder with `cap` bytes preallocated.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Big-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// IEEE-754 bit pattern of an `f64` (exact round-trip, NaN included).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.buf.put_u64(v.to_bits());
    }

    /// Boolean as one byte (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// `u32` length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.buf.put_u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    /// `u32` length-prefixed opaque blob.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.put_u32(b.len() as u32);
        self.buf.put_slice(b);
    }

    /// `Option<u32>`: presence byte then the value.
    #[inline]
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.buf.put_u8(0),
            Some(x) => {
                self.buf.put_u8(1);
                self.buf.put_u32(x);
            }
        }
    }

    /// `Option<u64>`: presence byte then the value.
    #[inline]
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.buf.put_u8(0),
            Some(x) => {
                self.buf.put_u8(1);
                self.buf.put_u64(x);
            }
        }
    }

    /// `u32` count-prefixed list of `u32`.
    #[inline]
    pub fn vec_u32(&mut self, v: &[u32]) {
        self.buf.put_u32(v.len() as u32);
        for &x in v {
            self.buf.put_u32(x);
        }
    }

    /// `u32` length-prefixed blob whose content `body` encodes in place:
    /// the same bytes as `self.bytes(&inner)` for an `inner` encoder
    /// `body` had filled, without the inner buffer.
    #[inline]
    pub fn nested(&mut self, body: impl FnOnce(&mut Enc)) {
        let at = self.buf.len();
        self.buf.put_u32(0);
        body(self);
        let len = self.buf.len() - at - 4;
        self.patch_u32(at, len as u32);
    }

    /// Bytes as they are, no prefix.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Overwrites the big-endian `u32` at offset `at`, which an earlier
    /// call reserved.
    #[inline]
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Bytes encoded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes encoded so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The encoded bytes (the buffer itself, not a copy).
    #[inline]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into()
    }
}

impl From<BytesMut> for Enc {
    /// Continues encoding at the end of `buf`.
    fn from(buf: BytesMut) -> Self {
        Enc { buf }
    }
}

impl From<Enc> for BytesMut {
    fn from(e: Enc) -> Self {
        e.buf
    }
}

/// Checked decoding cursor over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let a = self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or(WireError::UnexpectedEof)?;
        self.pos += N;
        Ok(*a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Boolean from a strict 0/1 byte.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// `u32` length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// `u32` length-prefixed opaque blob.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.slice()?.to_vec())
    }

    /// `u32` length-prefixed opaque blob, borrowed from the input: the
    /// same bytes as [`Dec::bytes`], without the copy.
    #[inline]
    pub fn slice(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// `Option<u32>` from a presence byte.
    #[inline]
    pub fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// `Option<u64>` from a presence byte.
    #[inline]
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// `u32` count-prefixed list of `u32`.
    #[inline]
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.u32()? as usize;
        // Guard against a corrupt length claiming more than remains.
        if self.buf.len() - self.pos < n.saturating_mul(4) {
            return Err(WireError::UnexpectedEof);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    /// Bytes left to decode.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only when every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(513);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(0.1 + 0.2);
        e.bool(true);
        e.str("héllo");
        e.bytes(&[1, 2, 3]);
        e.bytes(&[4, 5]);
        e.opt_u32(None);
        e.opt_u64(Some(42));
        e.vec_u32(&[9, 8, 7]);
        let v = e.into_vec();
        let mut d = Dec::new(&v);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 513);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.slice().unwrap(), [4, 5]);
        assert_eq!(d.opt_u32().unwrap(), None);
        assert_eq!(d.opt_u64().unwrap(), Some(42));
        assert_eq!(d.vec_u32().unwrap(), vec![9, 8, 7]);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u64(1);
        let v = e.into_vec();
        let mut d = Dec::new(&v[..5]);
        assert_eq!(d.u64(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn corrupt_list_length_is_caught() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims 4 G entries
        let v = e.into_vec();
        assert_eq!(Dec::new(&v).vec_u32(), Err(WireError::UnexpectedEof));
        assert_eq!(Dec::new(&v).slice(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let v = e.into_vec();
        let mut d = Dec::new(&v);
        let _ = d.u8().unwrap();
        assert_eq!(d.finish(), Err(WireError::TrailingBytes));
    }
}
