//! Physical log layout: a magic header followed by length-prefixed,
//! CRC-framed records.
//!
//! ```text
//! log      := MAGIC frame*
//! MAGIC    := "VMRWAL02"                     (8 bytes, format version)
//! frame    := len:u32 crc:u32 payload        (len = |payload|, BE)
//! payload  := kind:u8 body                   (crc = CRC-32(payload))
//! ```
//!
//! `kind` distinguishes [`FRAME_CHANGE`] (a record sequence number
//! followed by one encoded `StateChange`), [`FRAME_SNAPSHOT`] (a
//! `Sections` dump of the whole server state) and [`FRAME_COMMIT`] (a
//! transaction boundary carrying the commit sim-time and a monotonic
//! commit sequence). The scanner is tolerant of a *torn tail* — a
//! final frame cut short or failing its CRC is dropped, along with
//! everything after it, exactly as a real WAL discards a partial write
//! after a crash. A bad CRC is never an error at this layer;
//! corruption that survives CRC (a buggy writer) surfaces later when
//! the payload fails to decode.

use crate::crc::Crc32;
use bytes::{BufMut, BytesMut};

/// Log format magic + version. Bump the trailing digits on any layout
/// change — there is no in-place migration. `02` added the record /
/// commit sequence numbers.
pub const MAGIC: &[u8; 8] = b"VMRWAL02";

/// Frame kind: one encoded [`crate::StateChange`], prefixed by its
/// record sequence number (`u64` BE), which recovery checks is
/// strictly increasing.
pub const FRAME_CHANGE: u8 = 0;
/// Frame kind: a full state snapshot ([`crate::Sections`]).
pub const FRAME_SNAPSHOT: u8 = 1;
/// Frame kind: a commit (transaction boundary), body = sim-time µs
/// (`u64` BE) + monotonic commit sequence (`u64` BE).
pub const FRAME_COMMIT: u8 = 2;
// Kind 3 was the incremental snapshot of an earlier `VMRWAL02` writer;
// it stays unassigned so such a log is rejected, not misread.

/// Appends the magic header to an empty log buffer.
pub fn put_magic(buf: &mut BytesMut) {
    buf.put_slice(MAGIC);
}

/// Appends one frame; returns the number of bytes written.
pub fn append_frame(buf: &mut BytesMut, kind: u8, body: &[u8]) -> usize {
    let len = 1 + body.len();
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(body);
    buf.put_u32(len as u32);
    buf.put_u32(crc.finish());
    buf.put_u8(kind);
    buf.put_slice(body);
    8 + len
}

/// One frame located in a scanned log.
#[derive(Clone, Copy, Debug)]
pub struct RawFrame {
    /// Frame kind byte.
    pub kind: u8,
    /// Byte range of the body (payload minus the kind byte).
    pub body: (usize, usize),
    /// Offset one past the frame's last byte.
    pub end: usize,
}

impl RawFrame {
    /// Offset of the frame's first byte (the length prefix).
    pub fn start(&self) -> usize {
        self.body.0 - 9
    }
}

/// Result of scanning a log image.
#[derive(Clone, Debug, Default)]
pub struct Scan {
    /// Every structurally valid frame, in log order.
    pub frames: Vec<RawFrame>,
    /// Length of the valid prefix; bytes past this are the torn tail.
    pub valid_len: usize,
}

/// The log does not start with [`MAGIC`] (and is long enough that it
/// should) — this is a foreign or incompatible file, not a torn tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadMagic;

/// Walks the frames of `log`, stopping (without error) at the first
/// torn or CRC-invalid frame. An empty or magic-prefix-only log scans
/// to zero frames.
pub fn scan(log: &[u8]) -> Result<Scan, BadMagic> {
    let head = log.len().min(MAGIC.len());
    if log[..head] != MAGIC[..head] {
        return Err(BadMagic);
    }
    let mut out = Scan {
        frames: Vec::new(),
        valid_len: head,
    };
    if log.len() < MAGIC.len() {
        return Ok(out);
    }
    let mut off = MAGIC.len();
    while log.len() - off >= 8 {
        let len = u32::from_be_bytes(log[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(log[off + 4..off + 8].try_into().unwrap());
        if len == 0 || log.len() - off - 8 < len {
            break; // torn tail
        }
        let payload = &log[off + 8..off + 8 + len];
        if crate::crc::crc32(payload) != crc {
            break; // bit rot or a partially overwritten frame
        }
        let end = off + 8 + len;
        out.frames.push(RawFrame {
            kind: payload[0],
            body: (off + 9, end),
            end,
        });
        out.valid_len = end;
        off = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> BytesMut {
        let mut b = BytesMut::new();
        put_magic(&mut b);
        append_frame(&mut b, FRAME_CHANGE, b"alpha");
        append_frame(&mut b, FRAME_COMMIT, &7u64.to_be_bytes());
        append_frame(&mut b, FRAME_SNAPSHOT, b"snap");
        b
    }

    #[test]
    fn scan_round_trips_frames() {
        let log = sample_log();
        let scan = scan(&log).unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.valid_len, log.len());
        assert_eq!(scan.frames[0].kind, FRAME_CHANGE);
        let (a, b) = scan.frames[0].body;
        assert_eq!(&log[a..b], b"alpha");
        assert_eq!(scan.frames[0].start(), MAGIC.len());
        assert_eq!(scan.frames[1].kind, FRAME_COMMIT);
        assert_eq!(scan.frames[2].kind, FRAME_SNAPSHOT);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut() {
        let log = sample_log();
        let full = scan(&log).unwrap();
        let ends: Vec<usize> = full.frames.iter().map(|f| f.end).collect();
        for cut in MAGIC.len()..log.len() {
            let s = scan(&log[..cut]).unwrap();
            // Every wholly-contained frame survives; nothing partial does.
            let want = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(s.frames.len(), want, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_crc_truncates_from_that_frame() {
        let log = sample_log();
        let mut bytes = log.to_vec();
        let second = scan(&log).unwrap().frames[1];
        bytes[second.body.0] ^= 0x40;
        let s = scan(&bytes).unwrap();
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.valid_len, scan(&log).unwrap().frames[0].end);
    }

    #[test]
    fn foreign_bytes_are_bad_magic() {
        assert_eq!(scan(b"NOTAWAL0rest").unwrap_err(), BadMagic);
        // A torn magic prefix is fine (empty log being created).
        assert!(scan(&MAGIC[..3]).unwrap().frames.is_empty());
        assert!(scan(b"").unwrap().frames.is_empty());
    }
}
