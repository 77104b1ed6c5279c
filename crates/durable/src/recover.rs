//! Recovery: load-latest-snapshot + replay-tail.
//!
//! [`recover`] turns a (possibly torn) log image back into
//! the inputs a server needs to rebuild its state:
//!
//! 1. Walk the frames, checking each checksum and dropping the torn
//!    tail ([`crate::frame::frames`]).
//! 2. Truncate to the last **commit** frame — records past it belong
//!    to an event that never finished, so they are discarded.
//! 3. Within that committed prefix, decode the last **snapshot**.
//! 4. Collect every change record after that snapshot as the replay
//!    tail, in order.
//!
//! Step 1 keeps three numbers, not a frame table (`committed_prefix`,
//! which compaction shares); steps 3–4 walk the committed prefix a
//! second time by its lengths alone.
//!
//! The caller (in `core::recover`) materializes the sections, applies
//! the tail, and audits the result against a deterministic re-run.
//! Errors here are *structural* — a foreign file or retired format, a
//! CRC-valid frame that fails to decode or carries a kind this version
//! does not write, a sequence-number anomaly (duplicated or reordered
//! frames) — never a torn tail, which is normal crash debris. The
//! validation exists so that corrupt input becomes a typed error
//! *before* replay reaches the panicky state appliers upstream.

use crate::frame::{self, Frames, FRAME_CHANGE, FRAME_COMMIT, FRAME_SNAPSHOT};
use crate::record::StateChange;
use crate::snapshot::Sections;
use crate::wire::{Dec, WireError};

/// Structural recovery failure.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoverError {
    /// The image does not start with the WAL magic — wrong file or
    /// incompatible format version.
    BadMagic,
    /// A CRC-valid frame failed to decode (writer bug / version skew).
    BadPayload {
        /// Index of the offending frame.
        frame: u64,
        /// The decode failure.
        err: WireError,
    },
    /// A frame carried an unknown kind byte.
    UnknownFrameKind {
        /// Index of the offending frame.
        frame: u64,
        /// The unknown kind.
        kind: u8,
    },
    /// Commit sequence numbers were not strictly increasing or record
    /// sequence numbers not consecutive (a duplicated, reordered or
    /// missing stretch of the log).
    CorruptSequence {
        /// Index of the offending frame.
        frame: u64,
        /// What was wrong.
        detail: &'static str,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::BadMagic => write!(f, "not a VMR WAL (bad magic)"),
            RecoverError::BadPayload { frame, err } => {
                write!(f, "frame {frame}: payload failed to decode: {err}")
            }
            RecoverError::UnknownFrameKind { frame, kind } => {
                write!(f, "frame {frame}: unknown frame kind {kind:#04x}")
            }
            RecoverError::CorruptSequence { frame, detail } => {
                write!(f, "frame {frame}: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

/// Everything recovery extracts from a log image.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// State sections of the last committed snapshot. Empty when the
    /// log committed no snapshot — replay then starts from genesis.
    pub sections: Sections,
    /// True when a committed snapshot was found.
    pub from_snapshot: bool,
    /// Change records to replay on top of the snapshot, in log order.
    pub tail: Vec<StateChange>,
    /// Frames in the committed prefix (including the final commit).
    pub committed_frames: u64,
    /// Change records in the committed prefix.
    pub committed_records: u64,
    /// Sim-time of the boundary commit, microseconds.
    pub committed_at_us: u64,
    /// Byte length of the committed prefix.
    pub committed_bytes: usize,
    /// Sequence number of the boundary commit (0 = nothing committed).
    /// Invariant under compaction — the resume target.
    pub committed_seq: u64,
}

/// The committed prefix of an image: everything through its last
/// commit frame.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Prefix {
    /// Frames in it, the final commit included.
    pub frames: u64,
    /// Its byte length.
    pub end: usize,
    /// Index and start offset of the last snapshot frame in it.
    pub last_snap: Option<(u64, usize)>,
    /// Index and kind of the first frame in it of a kind this version
    /// does not write.
    pub unknown: Option<(u64, u8)>,
}

/// One checksummed walk over `log`; `None` when nothing was committed.
pub(crate) fn committed_prefix(log: &[u8]) -> Result<Option<Prefix>, RecoverError> {
    let mut prefix = None;
    let mut snap = None;
    let mut unknown = None;
    let walk = frame::frames(log).map_err(|_| RecoverError::BadMagic)?;
    for (i, f) in (0u64..).zip(walk) {
        match f.kind {
            FRAME_CHANGE => {}
            FRAME_SNAPSHOT => snap = Some((i, f.start())),
            FRAME_COMMIT => {
                prefix = Some(Prefix {
                    frames: i + 1,
                    end: f.end,
                    last_snap: snap,
                    unknown,
                })
            }
            kind => unknown = unknown.or(Some((i, kind))),
        }
    }
    Ok(prefix)
}

/// Recovers snapshot + replay tail from a log image. See the module
/// docs for the exact semantics.
pub fn recover(log: &[u8]) -> Result<Recovered, RecoverError> {
    let Some(prefix) = committed_prefix(log)? else {
        return Ok(Recovered::default());
    };
    let last_snap = prefix.last_snap.map(|(i, _)| i);

    let mut out = Recovered {
        from_snapshot: last_snap.is_some(),
        committed_frames: prefix.frames,
        committed_bytes: prefix.end,
        ..Recovered::default()
    };
    // One log numbers its records 1, 2, 3… and compaction only drops
    // what a snapshot supersedes. So a log without a snapshot starts at
    // record 1, one with a snapshot may start anywhere, and from there
    // every sequence is its predecessor's plus one — a repeat, a swap
    // or a hole must not reach replay.
    let mut expected_seq = if last_snap.is_none() { Some(1) } else { None };
    for (frame, f) in (0u64..).zip(Frames::rewalk(log, prefix.end)) {
        let bad = |err| RecoverError::BadPayload { frame, err };
        let mut d = Dec::new(&log[f.body.0..f.body.1]);
        match f.kind {
            FRAME_CHANGE => {
                out.committed_records += 1;
                let seq = d.u64().map_err(bad)?;
                if seq == 0 || expected_seq.is_some_and(|e| seq != e) {
                    return Err(RecoverError::CorruptSequence {
                        frame,
                        detail: "record sequence not consecutive",
                    });
                }
                // Wraps to 0 after `u64::MAX`, which no record may carry.
                expected_seq = Some(seq.wrapping_add(1));
                if last_snap.is_none_or(|s| frame > s) {
                    let change = StateChange::decode(&mut d).map_err(bad)?;
                    d.finish().map_err(bad)?;
                    out.tail.push(change);
                }
            }
            FRAME_SNAPSHOT => {
                if last_snap == Some(frame) {
                    out.sections = Sections::decode(&mut d).map_err(bad)?;
                    d.finish().map_err(bad)?;
                }
            }
            FRAME_COMMIT => {
                let now_us = d.u64().map_err(bad)?;
                let seq = d.u64().map_err(bad)?;
                d.finish().map_err(bad)?;
                if seq <= out.committed_seq {
                    return Err(RecoverError::CorruptSequence {
                        frame,
                        detail: "commit sequence not strictly increasing",
                    });
                }
                out.committed_seq = seq;
                out.committed_at_us = now_us;
            }
            kind => return Err(RecoverError::UnknownFrameKind { frame, kind }),
        }
    }
    Ok(out)
}

/// End offsets of the magic header and every structurally valid frame
/// — the legal crash cut points a boundary-exhaustive test iterates.
pub fn frame_ends(log: &[u8]) -> Result<Vec<usize>, RecoverError> {
    let walk = frame::frames(log).map_err(|_| RecoverError::BadMagic)?;
    let mut v = vec![frame::MAGIC.len().min(log.len())];
    v.extend(walk.map(|f| f.end));
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::compact;
    use crate::journal::{DurabilityPlan, Journal};

    fn change(rid: u32) -> StateChange {
        StateChange::ResultCreated { rid, wu: 0 }
    }

    fn build_log(snapshot_at: Option<u64>) -> Vec<u8> {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        for i in 0..4u32 {
            j.advance_to(i as u64);
            j.append(&change(i));
            j.commit();
            if snapshot_at == Some(i as u64) {
                let mut s = Sections::new();
                s.push("db", vec![i as u8]);
                j.write_snapshot(&s);
                j.commit();
            }
        }
        // Uncommitted straggler — must be discarded.
        j.advance_to(9);
        j.append(&change(99));
        j.log_bytes()
    }

    #[test]
    fn empty_log_recovers_to_genesis() {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let r = recover(&j.log_bytes()).unwrap();
        assert!(!r.from_snapshot);
        assert!(r.tail.is_empty());
        assert_eq!(r.committed_frames, 0);
        assert_eq!(r.committed_seq, 0);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let r = recover(&build_log(None)).unwrap();
        assert!(!r.from_snapshot);
        assert_eq!(r.tail.len(), 4);
        assert_eq!(r.committed_records, 4);
        assert_eq!(r.committed_at_us, 3);
        assert_eq!(r.committed_seq, 4);
        assert_eq!(r.tail[3], change(3));
    }

    #[test]
    fn snapshot_shortens_the_replay_tail() {
        let r = recover(&build_log(Some(1))).unwrap();
        assert!(r.from_snapshot);
        assert_eq!(r.sections.get("db"), Some(&[1u8][..]));
        // Records 2 and 3 came after the snapshot.
        assert_eq!(r.tail, vec![change(2), change(3)]);
        assert_eq!(r.committed_records, 4);
    }

    #[test]
    fn torn_byte_cuts_recover_like_the_containing_boundary() {
        let log = build_log(Some(2));
        let ends = frame_ends(&log).unwrap();
        for cut in 0..=log.len() {
            let r = recover(&log[..cut]).unwrap();
            let boundary = ends.iter().rev().find(|&&e| e <= cut).copied().unwrap_or(0);
            let rb = recover(&log[..boundary]).unwrap();
            assert_eq!(r.committed_frames, rb.committed_frames, "cut {cut}");
            assert_eq!(r.committed_seq, rb.committed_seq, "cut {cut}");
            assert_eq!(r.tail, rb.tail, "cut {cut}");
        }
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        assert_eq!(
            recover(b"GARBAGE!rest").unwrap_err(),
            RecoverError::BadMagic
        );
    }

    /// Duplicating a committed span (a tail written twice) yields a
    /// typed sequence error, never double-applied state.
    #[test]
    fn duplicated_tail_is_a_corrupt_sequence() {
        let log = build_log(None);
        let ends = frame_ends(&log).unwrap();
        // Splice the last change+commit pair in again after the end.
        let span = &log[ends[ends.len() - 4]..ends[ends.len() - 2]];
        let mut dup = log.clone();
        dup.extend_from_slice(span);
        match recover(&dup) {
            Err(RecoverError::CorruptSequence { .. }) => {}
            other => panic!("expected CorruptSequence, got {other:?}"),
        }
    }

    /// Lifting a committed record out of the middle of the log leaves a
    /// hole in the sequence: typed, never a replay that skips a change.
    #[test]
    fn missing_record_is_a_corrupt_sequence() {
        let log = build_log(None);
        let ends = frame_ends(&log).unwrap();
        // Frames: change, commit, change, commit… — drop the 2nd change,
        // so the 3rd (now frame 3) follows the 1st.
        let mut holed = log[..ends[2]].to_vec();
        holed.extend_from_slice(&log[ends[3]..]);
        match recover(&holed) {
            Err(RecoverError::CorruptSequence { frame: 3, .. }) => {}
            other => panic!("expected CorruptSequence at frame 3, got {other:?}"),
        }
    }

    /// Without a snapshot replay starts from genesis, so the log must
    /// start at record 1: a log that lost its head is typed.
    #[test]
    fn headless_log_is_a_corrupt_sequence() {
        let log = build_log(None);
        let ends = frame_ends(&log).unwrap();
        let mut headless = log[..ends[0]].to_vec();
        headless.extend_from_slice(&log[ends[1]..]);
        match recover(&headless) {
            Err(RecoverError::CorruptSequence { frame: 1, .. }) => {}
            other => panic!("expected CorruptSequence at frame 1, got {other:?}"),
        }
        // Behind a snapshot the same cut is what compaction leaves.
        let compacted = compact(&build_log(Some(1))).unwrap();
        assert_eq!(
            recover(&compacted).unwrap().tail,
            vec![change(2), change(3)]
        );
    }

    /// The retired sharded-bundle container (`VMRSHRD1`) is a foreign
    /// file to this version: typed, from recovery and compaction alike.
    #[test]
    fn retired_bundle_image_is_bad_magic() {
        let shard = build_log(None);
        let mut e = crate::wire::Enc::new();
        e.u32(1);
        e.str("db");
        e.bytes(&shard);
        let mut image = b"VMRSHRD1".to_vec();
        image.extend_from_slice(&e.into_vec());
        assert_eq!(recover(&image).unwrap_err(), RecoverError::BadMagic);
        assert_eq!(compact(&image).unwrap_err(), RecoverError::BadMagic);
    }

    /// A CRC-valid frame of the retired incremental-snapshot kind (3)
    /// inside a committed prefix is typed, never skipped and
    /// never rewritten into a compacted image.
    #[test]
    fn retired_incremental_frame_is_an_unknown_kind() {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        j.advance_to(1);
        j.append(&change(0));
        j.commit();
        let mut log = bytes::BytesMut::from(&j.log_bytes()[..]);
        let mut inc = Sections::new();
        inc.push("db", vec![7]);
        frame::append_frame(&mut log, 3, &inc.to_bytes());
        let mut commit = [0u8; 16];
        commit[..8].copy_from_slice(&2u64.to_be_bytes());
        commit[8..].copy_from_slice(&2u64.to_be_bytes());
        frame::append_frame(&mut log, FRAME_COMMIT, &commit);
        let want = RecoverError::UnknownFrameKind { frame: 2, kind: 3 };
        assert_eq!(recover(&log).unwrap_err(), want);
        assert_eq!(compact(&log).unwrap_err(), want);
    }
}
