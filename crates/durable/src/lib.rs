//! # vmr-durable — WAL + snapshot durability for the project server
//!
//! The paper's pull model concentrates every byte of coordination
//! state on the project server: WU/result lifecycle, quorum progress,
//! the JobTracker's map-output registry, the credit ledger. Production
//! BOINC keeps that state alive across crashes by leaning on MySQL;
//! this crate is the equivalent layer for our in-memory server — a
//! from-scratch write-ahead log plus periodic snapshots, with
//! recovery = load-latest-snapshot + replay-tail.
//!
//! * [`StateChange`] — the typed change vocabulary; one variant per
//!   server-state mutator in `vcore`/`core`
//!   ([`record`](crate::record)).
//! * [`Journal`] — the clonable handle to the one log the `Engine`
//!   owns and hands to each mutator; commit frames carrying
//!   `(sim-time, commit seq)` mark event-granularity transactions, and
//!   an optional file mirror receives each commit's bytes
//!   ([`journal`](crate::journal)).
//! * [`Sections`] / [`SectionWriter`] — named opaque snapshot
//!   sections ([`section`]), encoded by the state-owning crates
//!   straight into the snapshot frame; every snapshot holds the whole
//!   server state ([`snapshot`](crate::snapshot)).
//! * [`CompactionPolicy`] / [`compact`](crate::compact::compact) — the
//!   file mirror is rewritten to drop frames superseded by a committed
//!   snapshot ([`compact`](crate::compact)).
//! * [`CrashPlan`] / [`DurabilityPlan`] — deterministic crash-point
//!   injection and run configuration.
//! * [`recover`] — torn-tail-tolerant recovery of the last committed
//!   snapshot plus the change tail after it, turning any structural
//!   anomaly into a typed [`RecoverError`]
//!   ([`recover`](crate::recover)).
//!
//! This is a leaf crate like `vmr-obs`: it knows nothing of the
//! structs it persists. Ids are raw integers and crate-specific
//! payloads are opaque blobs encoded with the [`wire`] codec by their
//! owning crate, which keeps the dependency arrow pointing the same
//! way as observability (`vcore`/`core` → `vmr-durable`).
//!
//! Metrics (`dur.wal_records`, `dur.wal_bytes`, `dur.snapshot_us`,
//! `dur.compactions`, `dur.compact_reclaimed_bytes`) flow through
//! `vmr-obs`, and under `Obs::set_profiling(true)` the `prof` scopes
//! `durable.snapshot` (encoding and framing a snapshot) and
//! `durable.mirror_write` (the `write(2)` that mirrors a commit). See
//! DESIGN.md §3.9 for the format and the recovery invariants.
//!
//! ```
//! use vmr_durable::{DurabilityPlan, Journal, StateChange, recover};
//! let j = Journal::new(&DurabilityPlan::new(60.0)).unwrap();
//! j.advance_to(5);
//! j.append(&StateChange::ResultCreated { rid: 0, wu: 0 });
//! j.commit();
//! let r = recover(&j.log_bytes()).unwrap();
//! assert_eq!(r.tail.len(), 1);
//! assert_eq!(r.committed_seq, 1);
//! ```

#![warn(missing_docs)]

pub mod compact;
pub mod crc;
pub mod frame;
pub mod journal;
pub mod record;
pub mod recover;
pub mod section;
pub mod snapshot;
pub mod wire;

pub use compact::compact;
pub use journal::{CompactionPolicy, CrashPlan, DurabilityPlan, Journal};
pub use record::StateChange;
pub use recover::{frame_ends, recover, RecoverError, Recovered};
pub use snapshot::{SectionWriter, Sections};
pub use wire::{Dec, Enc, WireError};

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: journal → crash → recover at every frame boundary.
    #[test]
    fn recover_matches_committed_prefix_at_every_boundary() {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut per_commit_records = vec![0u64];
        for i in 0..10u32 {
            j.advance_to(i as u64);
            j.append(&StateChange::ResultCreated { rid: i, wu: 0 });
            if i % 2 == 1 {
                j.append(&StateChange::ResultSent {
                    rid: i,
                    client: 1,
                    at_us: i as u64,
                    deadline_us: 100,
                });
            }
            j.commit();
            per_commit_records.push(j.committed_records());
        }
        let log = j.log_bytes();
        for cut in 0..=log.len() {
            let r = recover(&log[..cut]).unwrap();
            // Whatever prefix we recover, the tail length must equal
            // the records covered by the last visible commit.
            assert!(
                per_commit_records.contains(&(r.tail.len() as u64)),
                "cut {cut}"
            );
            assert_eq!(r.committed_records, r.tail.len() as u64);
        }
    }
}
