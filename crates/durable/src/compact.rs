//! Log compaction: dropping frames superseded by a committed snapshot.
//!
//! A committed snapshot makes every earlier frame redundant — recovery
//! reads the last snapshot and replays the changes after it; nothing
//! before the snapshot's frame is ever consulted. [`compact`] rewrites
//! an image down to exactly the bytes recovery can use:
//!
//! * the magic header,
//! * everything from the start of the last committed snapshot frame
//!   (or the header, if none) through the last commit frame.
//!
//! The uncommitted tail is dropped too: a mirror only ever holds
//! committed bytes, so compacting an in-memory image (which may carry
//! crash debris) to the same form keeps the two comparable.
//!
//! This is the pure counterpart of the journal's mirror rewrite
//! ([`crate::CompactionPolicy`]): `compact(log_bytes())` equals the
//! mirror contents after an unconditional compaction at the last
//! commit. A sinkless journal's log is never compacted — it stays the
//! authoritative append-only image so a resumed run can reproduce it
//! bit-for-bit.

use crate::frame;
use crate::recover::{committed_prefix, RecoverError};

/// Rewrites `log` without the frames superseded by the last committed
/// snapshot. Recovery from the result yields the same sections, tail,
/// boundary sequence and sim-time as from the original — only
/// frame/byte counts shrink. An image [`crate::recover`] would reject
/// for its magic or a frame kind is rejected here the same way, never
/// rewritten.
pub fn compact(log: &[u8]) -> Result<Vec<u8>, RecoverError> {
    let Some(prefix) = committed_prefix(log)? else {
        return Ok(frame::MAGIC.to_vec()); // nothing committed
    };
    if let Some((frame, kind)) = prefix.unknown {
        return Err(RecoverError::UnknownFrameKind { frame, kind });
    }
    let chain_start = prefix.last_snap.map_or(frame::MAGIC.len(), |(_, at)| at);
    let mut out = Vec::with_capacity(frame::MAGIC.len() + prefix.end - chain_start);
    out.extend_from_slice(frame::MAGIC);
    out.extend_from_slice(&log[chain_start..prefix.end]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{DurabilityPlan, Journal};
    use crate::record::StateChange;
    use crate::recover::recover;
    use crate::section;
    use crate::snapshot::Sections;

    fn change(rid: u32) -> StateChange {
        StateChange::ResultCreated { rid, wu: 0 }
    }

    fn all_sections(tag: u8) -> Sections {
        let mut s = Sections::new();
        for name in section::NAMES {
            s.push(name, vec![tag]);
        }
        s
    }

    fn drive(j: &Journal, snap_every: u32) {
        for i in 0..9u32 {
            j.advance_to((i as u64 + 1) * 10);
            j.append(&change(i));
            if i % 3 == 2 {
                j.append(&StateChange::CreditError { client: i });
            }
            j.commit();
            if snap_every > 0 && i % snap_every == snap_every - 1 {
                j.write_snapshot(&all_sections(i as u8));
                j.commit();
            }
        }
        // Uncommitted debris the compacted image must drop.
        j.advance_to(999);
        j.append(&change(999));
    }

    fn assert_equiv(image: &[u8]) {
        let a = recover(image).unwrap();
        let c = compact(image).unwrap();
        let b = recover(&c).unwrap();
        assert_eq!(a.sections, b.sections);
        assert_eq!(a.tail, b.tail);
        assert_eq!(a.committed_seq, b.committed_seq);
        assert_eq!(a.committed_at_us, b.committed_at_us);
        assert_eq!(a.from_snapshot, b.from_snapshot);
        // Compaction is idempotent once the debris is gone.
        assert_eq!(compact(&c).unwrap(), c);
    }

    #[test]
    fn compacted_log_recovers_identically() {
        for snap_every in [0, 2, 3] {
            let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
            drive(&j, snap_every);
            let img = j.log_bytes();
            assert_equiv(&img);
            if snap_every > 0 {
                assert!(compact(&img).unwrap().len() < img.len());
            }
        }
    }

    #[test]
    fn uncommitted_only_log_compacts_to_magic() {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        j.append(&change(0));
        assert_eq!(compact(&j.log_bytes()).unwrap(), frame::MAGIC.to_vec());
    }
}
