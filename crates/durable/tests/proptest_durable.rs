//! Property test for mirror compaction.
//!
//! **Differential compaction**: for any scripted journal run,
//! `compact(image)` recovers to exactly the same state as the
//! uncompacted image — same sections, same replay tail, same commit
//! boundary — and compaction is idempotent.

use proptest::prelude::*;
use vmr_durable::{
    compact, recover, section, DurabilityPlan, Journal, Recovered, Sections, StateChange,
};

/// One scripted journal operation.
#[derive(Clone, Debug)]
enum Op {
    /// Append a state change.
    Change(StateChange),
    /// Commit the open transaction.
    Commit,
    /// Write a snapshot + commit.
    Snapshot,
}

/// Maps a raw `(kind, a, b)` triple to an op. Changes cover four state
/// sections; recovery does not re-apply them to live state, so ids
/// need not be replay-valid.
fn op(kind: u8, a: u32, b: u32) -> Op {
    match kind {
        0 => Op::Change(StateChange::ResultCreated { rid: a, wu: b }),
        1 => Op::Change(StateChange::ResultSent {
            rid: a,
            client: b,
            at_us: u64::from(a) * 7,
            deadline_us: 1_000_000,
        }),
        2 => Op::Change(StateChange::WuValidated {
            wu: a,
            canonical: u64::from(b) << 3,
            at_us: u64::from(a),
        }),
        3 => Op::Change(StateChange::CreditGranted {
            agreeing: vec![a, b],
            dissenting: vec![],
            flops_bits: f64::from(a).to_bits(),
        }),
        4 => Op::Change(StateChange::CreditError { client: a }),
        5 => Op::Change(StateChange::Assimilated {
            wu: a,
            holders: vec![b],
            at_us: u64::from(a) * 3,
        }),
        6 => Op::Change(StateChange::MrReduceValidated { job: a }),
        7 => Op::Change(StateChange::MrStamp {
            job: a,
            which: (b % 5) as u8,
            at_us: u64::from(b),
        }),
        8 => Op::Commit,
        _ => Op::Snapshot,
    }
}

/// Drives one journal through the script. Section payloads are a
/// deterministic function of the step index.
fn drive(j: &Journal, ops: &[Op]) {
    for (step, o) in ops.iter().enumerate() {
        j.advance_to(step as u64 * 11);
        match o {
            Op::Change(c) => j.append(c),
            Op::Commit => j.commit(),
            Op::Snapshot => {
                let mut s = Sections::new();
                for (i, name) in section::NAMES.iter().enumerate() {
                    s.push(name, vec![step as u8, i as u8, 0xA5]);
                }
                j.write_snapshot(&s);
                j.commit();
            }
        }
    }
}

/// Sections, replay tail, commit seq, commit sim-time, seeded.
type Digest = (Vec<(String, Vec<u8>)>, Vec<StateChange>, u64, u64, bool);

/// The recovery-observable state of an image that is invariant under
/// compaction: sections, replay tail and the commit boundary identity.
/// (`committed_records`/`committed_frames`/`committed_bytes` are *not*
/// included — they count what the image physically holds, which
/// compaction legitimately shrinks.)
fn digest(r: &Recovered) -> Digest {
    (
        r.sections.entries.clone(),
        r.tail.clone(),
        r.committed_seq,
        r.committed_at_us,
        r.from_snapshot,
    )
}

proptest! {
    /// A compacted image recovers byte-identically to the original and
    /// `compact` is a fixpoint.
    #[test]
    fn compacted_image_recovers_identically(
        raw in proptest::collection::vec((0u8..10, 0u32..40, 0u32..40), 1..80),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(|(k, a, b)| op(k, a, b)).collect();
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        drive(&j, &ops);
        let image = j.log_bytes();

        let compacted = compact(&image).unwrap();
        prop_assert!(compacted.len() <= image.len());
        let a = recover(&image).unwrap();
        let b = recover(&compacted).unwrap();
        prop_assert_eq!(digest(&a), digest(&b));
        // Idempotence: compacting a compacted image changes nothing.
        prop_assert_eq!(&compact(&compacted).unwrap(), &compacted);
    }
}
