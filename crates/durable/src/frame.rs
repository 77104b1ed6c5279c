//! Physical log layout: a magic header followed by length-prefixed,
//! CRC-framed records.
//!
//! ```text
//! log      := MAGIC frame*
//! MAGIC    := "VMRWAL03"                     (8 bytes, format version)
//! frame    := len:u32 crc:u32 payload        (len = |payload|, BE)
//! payload  := kind:u8 body                   (crc = CRC-32(payload))
//! ```
//!
//! `kind` distinguishes [`FRAME_CHANGE`] (a record sequence number
//! followed by one encoded `StateChange`), [`FRAME_SNAPSHOT`] (a
//! `Sections` dump of the whole server state) and [`FRAME_COMMIT`] (a
//! transaction boundary carrying the commit sim-time and a monotonic
//! commit sequence).
//!
//! There is one writer, [`write_frame`]: it reserves the eight header
//! bytes at the end of the log, lets the caller encode the body right
//! behind them, then patches `len` and `crc` — a frame's bytes are
//! written once, where they stay. There is one reader, [`frames`], a
//! walk that hands out one [`RawFrame`] at a time; [`scan`] collects it
//! for callers that want every frame at once.
//!
//! The walk is tolerant of a *torn tail* — a
//! final frame cut short or failing its CRC is dropped, along with
//! everything after it, exactly as a real WAL discards a partial write
//! after a crash. A bad CRC is never an error at this layer;
//! corruption that survives CRC (a buggy writer) surfaces later when
//! the payload fails to decode.

use crate::crc::crc32;
use crate::wire::Enc;
use bytes::BytesMut;

/// Log format magic + version. Bump the trailing digits on any layout
/// change — there is no in-place migration. `02` added the record /
/// commit sequence numbers; `03` dropped the trust estimator's
/// constants from `TrustConfigured` and the trust section, and the
/// compute costs and report switch from the MapReduce job config.
pub const MAGIC: &[u8; 8] = b"VMRWAL03";

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

/// Bytes of a frame before its payload: `len` and `crc`.
pub(crate) const HEADER: usize = 8;

/// Appends one frame to `log`, its body encoded in place by `body`;
/// returns the number of bytes written. A `body` that panics leaves a
/// zero `len` behind, which every reader takes for a torn tail.
pub fn write_frame(log: &mut Enc, kind: u8, body: impl FnOnce(&mut Enc)) -> usize {
    let at = log.len();
    log.u64(0); // len and crc, patched once the body is in place
    log.u8(kind);
    body(log);
    let len = log.len() - at - HEADER;
    let crc = crc32(&log.as_slice()[at + HEADER..]);
    log.patch_u32(at, len as u32);
    log.patch_u32(at + 4, crc);
    HEADER + len
}

/// [`write_frame`] for a body that already exists as bytes, onto a bare
/// buffer — how tests hand-build log images.
pub fn append_frame(buf: &mut BytesMut, kind: u8, body: &[u8]) -> usize {
    let mut log = Enc::from(std::mem::take(buf));
    let n = write_frame(&mut log, kind, |e| e.raw(body));
    *buf = log.into();
    n
}

/// One frame located in a log.
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

/// A walk over the frames of a log image, in log order; ends (without
/// error) at the first torn or CRC-invalid frame.
#[derive(Clone, Debug)]
pub struct Frames<'a> {
    log: &'a [u8],
    /// Offset one past the last frame yielded.
    off: usize,
    verify: bool,
}

impl<'a> Frames<'a> {
    /// Walks `log[..end]` again, where `end` is [`Frames::valid_len`] or
    /// the `end` of a frame an earlier walk of this `log` yielded: the
    /// checksums held then, so this walk only follows the lengths.
    pub(crate) fn rewalk(log: &'a [u8], end: usize) -> Self {
        Frames {
            log: &log[..end],
            off: MAGIC.len().min(end),
            verify: false,
        }
    }

    /// Length of the valid prefix walked so far; once the walk has
    /// ended, bytes past this are the torn tail.
    pub fn valid_len(&self) -> usize {
        self.off
    }
}

impl Iterator for Frames<'_> {
    type Item = RawFrame;

    fn next(&mut self) -> Option<RawFrame> {
        let rest = self.log.get(self.off..)?;
        let (len, rest) = rest.split_first_chunk::<4>()?;
        let (crc, rest) = rest.split_first_chunk::<4>()?;
        // A zero length or one past the end of the image: torn tail.
        let payload = rest.get(..u32::from_be_bytes(*len) as usize)?;
        let kind = *payload.first()?;
        if self.verify && crc32(payload) != u32::from_be_bytes(*crc) {
            return None; // bit rot or a partially overwritten frame
        }
        let end = self.off + HEADER + payload.len();
        let frame = RawFrame {
            kind,
            body: (self.off + HEADER + 1, end),
            end,
        };
        self.off = end;
        Some(frame)
    }
}

/// Walks the frames of `log`. An empty or magic-prefix-only log has
/// none.
pub fn frames(log: &[u8]) -> Result<Frames<'_>, BadMagic> {
    let head = log.len().min(MAGIC.len());
    if log[..head] != MAGIC[..head] {
        return Err(BadMagic);
    }
    Ok(Frames {
        log,
        off: head,
        verify: true,
    })
}

/// Every frame of `log` at once, and where its valid prefix ends.
pub fn scan(log: &[u8]) -> Result<Scan, BadMagic> {
    let mut walk = frames(log)?;
    let frames = walk.by_ref().collect();
    Ok(Scan {
        frames,
        valid_len: walk.valid_len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> BytesMut {
        let mut b = BytesMut::from(&MAGIC[..]);
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
