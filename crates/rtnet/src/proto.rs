//! Wire protocol for inter-client transfers.
//!
//! The paper used raw TCP sockets "due to its simplicity and ease of
//! testing" (§III.C). We keep that spirit with a minimal length-prefixed
//! binary protocol:
//!
//! ```text
//! request  := u32 frame_len | u8 tag | payload
//!   GET    (tag 1): u16 name_len | name bytes
//!   PING   (tag 2): —
//! response := u32 frame_len | u8 tag | payload
//!   DATA   (tag 1): u64 body_len | body | 32-byte SHA-256 of body
//!   NOTFOUND (2), BUSY (3), PONG (4): —
//! ```
//!
//! The SHA-256 trailer is the integrity check the paper proposes when it
//! suggests reporting output hashes instead of whole files.
//!
//! A `Data` frame has one layout, `DataFrame`: a 13-byte head
//! (`frame_len`, tag, `body_len`), the body, the 32-byte digest. Servers
//! build it from the store's cached digest and send the three segments
//! with vectored writes, so a stored file is hashed once and its body is
//! never copied on the way out; [`encode_response`] hashes and lays the
//! same frame into a buffer. The receiver always hashes: it freezes the
//! frame once, verifies the trailer over every body byte, and returns
//! the body as a slice of that frame. Nothing here panics on peer bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, IoSlice, Read, Write};
use vmr_mapreduce::sha256;

/// Maximum accepted frame (sanity bound against corrupt peers).
pub const MAX_FRAME: usize = 256 << 20;

/// A request from a downloader to a serving peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Fetch a named file (a map-output partition).
    Get(String),
    /// Liveness probe.
    Ping,
}

/// A serving peer's reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// File contents plus integrity digest.
    Data(Bytes),
    /// The peer does not (or no longer) serves this file.
    NotFound,
    /// The peer is at its inter-client connection threshold.
    Busy,
    /// Liveness answer.
    Pong,
}

/// Encodes a request frame.
pub fn encode_request(req: &Request, out: &mut BytesMut) {
    match req {
        Request::Get(name) => {
            let payload_len = 1 + 2 + name.len();
            out.put_u32(payload_len as u32);
            out.put_u8(1);
            out.put_u16(name.len() as u16);
            out.put_slice(name.as_bytes());
        }
        Request::Ping => {
            out.put_u32(1);
            out.put_u8(2);
        }
    }
}

/// Bytes of a `Data` frame before its body: `u32 frame_len | u8 tag |
/// u64 body_len`.
const DATA_HEAD_LEN: usize = 13;

/// Bytes of a `Data` frame after its body: the SHA-256 trailer.
const DIGEST_LEN: usize = 32;

/// A `Data` response frame as its three wire segments: head, body (the
/// stored file, shared, not copied) and digest trailer.
#[derive(Debug)]
pub(crate) struct DataFrame {
    head: [u8; DATA_HEAD_LEN],
    body: Bytes,
    digest: [u8; DIGEST_LEN],
}

impl DataFrame {
    /// Frames `body` under `digest`, which must be its SHA-256 — the
    /// store's cached one on the serving path.
    pub(crate) fn new(body: Bytes, digest: [u8; DIGEST_LEN]) -> DataFrame {
        let payload_len = 1 + 8 + body.len() + DIGEST_LEN;
        let mut head = [0u8; DATA_HEAD_LEN];
        head[..4].copy_from_slice(&(payload_len as u32).to_be_bytes());
        head[4] = 1;
        head[5..].copy_from_slice(&(body.len() as u64).to_be_bytes());
        DataFrame { head, body, digest }
    }

    /// Wire length, length prefix included.
    pub(crate) fn len(&self) -> usize {
        DATA_HEAD_LEN + self.body.len() + DIGEST_LEN
    }

    /// The three segments, in wire order.
    pub(crate) fn segments(&self) -> [&[u8]; 3] {
        [&self.head, &self.body, &self.digest]
    }

    /// One vectored write of what is left of the frame past byte `off`;
    /// returns what the writer took.
    pub(crate) fn write_at(&self, w: &mut impl Write, off: usize) -> io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); 3];
        let mut n = 0;
        let mut skip = off;
        for seg in self.segments() {
            if skip >= seg.len() {
                skip -= seg.len();
                continue;
            }
            slices[n] = IoSlice::new(&seg[skip..]);
            skip = 0;
            n += 1;
        }
        w.write_vectored(&slices[..n])
    }

    /// Writes the whole frame to a blocking stream and flushes it.
    pub(crate) fn write_all(&self, w: &mut impl Write) -> io::Result<()> {
        let mut off = 0;
        while off < self.len() {
            match self.write_at(w, off) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Encodes a response frame (computing the digest for `Data`).
pub fn encode_response(resp: &Response, out: &mut BytesMut) {
    match resp {
        Response::Data(body) => {
            let frame = DataFrame::new(body.clone(), sha256(body));
            for seg in frame.segments() {
                out.put_slice(seg);
            }
        }
        Response::NotFound => {
            out.put_u32(1);
            out.put_u8(2);
        }
        Response::Busy => {
            out.put_u32(1);
            out.put_u8(3);
        }
        Response::Pong => {
            out.put_u32(1);
            out.put_u8(4);
        }
    }
}

fn read_exact_frame(stream: &mut impl Read) -> io::Result<BytesMut> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(BytesMut::from(buf))
}

/// Incremental length-prefix framing for nonblocking transports.
///
/// Feed arbitrary byte fragments with [`FrameDecoder::push`] (1-byte
/// reads, coalesced reads — any split), pull complete frame payloads
/// (length prefix stripped) with [`FrameDecoder::next_frame`]. The
/// decoder never blocks and never panics on junk: a corrupt length
/// prefix surfaces as an error as soon as the four prefix bytes are in.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, if one has accumulated.
    ///
    /// `Ok(None)` means "need more bytes"; an error means the stream is
    /// unrecoverable (length prefix of 0 or beyond [`MAX_FRAME`]).
    ///
    /// A frame that is the whole buffer is handed over without a copy;
    /// the buffer keeps at most about twice what is still unread.
    pub fn next_frame(&mut self) -> io::Result<Option<BytesMut>> {
        let [a, b, c, d, ..] = self.buf[..] else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([a, b, c, d]) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to(len)))
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Decodes a request from one complete frame payload (prefix stripped).
pub fn decode_request(mut frame: BytesMut) -> io::Result<Request> {
    if frame.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
    }
    let tag = frame.get_u8();
    match tag {
        1 => {
            if frame.remaining() < 2 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated GET"));
            }
            let name_len = frame.get_u16() as usize;
            if frame.remaining() < name_len {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated name"));
            }
            let name = String::from_utf8(frame.split_to(name_len).to_vec())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            Ok(Request::Get(name))
        }
        2 => Ok(Request::Ping),
        t => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown request tag {t}"),
        )),
    }
}

/// Decodes a response from one complete frame payload, verifying the
/// SHA-256 trailer on `Data`. The returned body is a slice of the
/// frozen frame, not a copy.
pub fn decode_response(frame: BytesMut) -> io::Result<Response> {
    let frame = frame.freeze();
    let [tag, rest @ ..] = &frame[..] else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
    };
    match tag {
        1 => {
            let Some((body_len, rest)) = rest.split_first_chunk::<8>() else {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated DATA"));
            };
            let body_len = u64::from_be_bytes(*body_len);
            let (body, digest) = match rest.split_last_chunk::<DIGEST_LEN>() {
                Some((body, digest)) if body.len() as u64 == body_len => (body, digest),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "DATA length mismatch",
                    ))
                }
            };
            if sha256(body) != *digest {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "SHA-256 integrity check failed",
                ));
            }
            let start = 1 + 8;
            Ok(Response::Data(frame.slice(start..start + body.len())))
        }
        2 => Ok(Response::NotFound),
        3 => Ok(Response::Busy),
        4 => Ok(Response::Pong),
        t => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown response tag {t}"),
        )),
    }
}

/// Reads one request frame from a stream.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    decode_request(read_exact_frame(stream)?)
}

/// Reads one response frame, verifying the SHA-256 trailer on `Data`.
pub fn read_response(stream: &mut impl Read) -> io::Result<Response> {
    decode_response(read_exact_frame(stream)?)
}

/// Writes a whole frame buffer to a stream.
pub fn write_all(stream: &mut impl Write, buf: &BytesMut) -> io::Result<()> {
    stream.write_all(buf)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        read_request(&mut Cursor::new(buf.to_vec())).unwrap()
    }

    fn roundtrip_response(resp: Response) -> Response {
        let mut buf = BytesMut::new();
        encode_response(&resp, &mut buf);
        read_response(&mut Cursor::new(buf.to_vec())).unwrap()
    }

    #[test]
    fn request_roundtrips() {
        assert_eq!(
            roundtrip_request(Request::Get("mr0_m3_p1".into())),
            Request::Get("mr0_m3_p1".into())
        );
        assert_eq!(roundtrip_request(Request::Ping), Request::Ping);
    }

    #[test]
    fn response_roundtrips() {
        let body = Bytes::from(vec![7u8; 10_000]);
        assert_eq!(
            roundtrip_response(Response::Data(body.clone())),
            Response::Data(body)
        );
        assert_eq!(roundtrip_response(Response::NotFound), Response::NotFound);
        assert_eq!(roundtrip_response(Response::Busy), Response::Busy);
        assert_eq!(roundtrip_response(Response::Pong), Response::Pong);
    }

    #[test]
    fn corrupted_body_fails_integrity() {
        let mut buf = BytesMut::new();
        encode_response(
            &Response::Data(Bytes::from_static(b"hello world")),
            &mut buf,
        );
        // Flip a body byte (frame: 4 len + 1 tag + 8 body_len + body…).
        let mut raw = buf.to_vec();
        raw[13] ^= 0xff;
        let err = read_response(&mut Cursor::new(raw)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&(u32::MAX).to_be_bytes());
        raw.push(1);
        let err = read_request(&mut Cursor::new(raw)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_data_roundtrips() {
        assert_eq!(
            roundtrip_response(Response::Data(Bytes::new())),
            Response::Data(Bytes::new())
        );
    }

    /// A persistent connection's decoder keeps only what is unread (plus
    /// at most as much again), however many frames pass through it.
    #[test]
    fn decoder_releases_consumed_frames() {
        const FRAMES: usize = 100_000;
        const MAX_FRAGMENT: usize = 173;
        let mut stream = BytesMut::new();
        let mut largest = 0;
        for i in 0..FRAMES {
            let before = stream.len();
            encode_request(
                &Request::Get(format!("mr{}_m{}_p{i}", i % 7, i % 1000)),
                &mut stream,
            );
            largest = largest.max(stream.len() - before);
        }
        let mut dec = FrameDecoder::new();
        let (mut at, mut popped) = (0, 0);
        for step in 1.. {
            if at == stream.len() {
                break;
            }
            // Uneven fragments of 1..=MAX_FRAGMENT bytes.
            let end = (at + 1 + step * 7919 % MAX_FRAGMENT).min(stream.len());
            dec.push(&stream[at..end]);
            at = end;
            assert!(
                dec.buf.retained() < 2 * (largest + MAX_FRAGMENT),
                "decoder retains {} B after {popped} frames",
                dec.buf.retained()
            );
            while let Some(frame) = dec.next_frame().unwrap() {
                assert!(matches!(decode_request(frame).unwrap(), Request::Get(_)));
                popped += 1;
            }
        }
        assert_eq!(popped, FRAMES);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn data_frame_segments_are_the_encoding() {
        for body in [&b""[..], b"x", &[7u8; 100]] {
            let body = Bytes::copy_from_slice(body);
            let mut want = BytesMut::new();
            encode_response(&Response::Data(body.clone()), &mut want);
            let frame = DataFrame::new(body.clone(), sha256(&body));
            assert_eq!(frame.segments().concat(), want.to_vec());
            assert_eq!(frame.len(), want.len());
            let mut out = Vec::new();
            frame.write_all(&mut out).unwrap();
            assert_eq!(out, want.to_vec());
        }
    }

    /// A `body_len` that overflows any length arithmetic is a clean
    /// `InvalidData`, never a panic.
    #[test]
    fn overflowing_body_len_is_invalid_data() {
        for body_len in [u64::MAX, u64::MAX - 31, u64::MAX / 2, 1 << 40] {
            let mut payload = vec![1u8];
            payload.extend_from_slice(&body_len.to_be_bytes());
            payload.extend_from_slice(&[0u8; 32]);
            let err = decode_response(BytesMut::from(payload)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&1u32.to_be_bytes());
        raw.push(99);
        assert!(read_request(&mut Cursor::new(raw.clone())).is_err());
        assert!(read_response(&mut Cursor::new(raw)).is_err());
    }
}
