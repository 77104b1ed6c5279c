//! Crash-replay recovery for the experiment harness.
//!
//! A crashed server leaves a WAL image behind (snapshot frames plus a
//! committed change tail — see `vmr-durable`). Recovery materializes
//! every server-side subsystem from that image, and
//! [`resume_experiment`] finishes the interrupted run: because the
//! simulation is deterministic per seed, re-driving the rebuilt testbed
//! to the committed boundary must land on *exactly* the recovered
//! state — the resume path audits that byte-for-byte before continuing
//! to completion, so a resumed run's Table I output is bit-identical to
//! an uninterrupted one.

use crate::experiment::{build_testbed, finish, horizon, ExperimentConfig, ExperimentOutcome};
use crate::jobtracker::JobTracker;
use vmr_durable::{recover, section, CrashPlan, Journal, RecoverError, WireError};
use vmr_obs::EventKind;
use vmr_vcore::{Assimilator, CreditLedger, Db, TrustLedger};

/// Why a recovery or resume attempt failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The log image was structurally unreadable.
    Log(RecoverError),
    /// A snapshot section or replayed record failed to decode.
    Wire(WireError),
    /// A replayed record matched no subsystem (log written by an
    /// incompatible version).
    UnhandledRecord(String),
    /// The re-executed engine did not reproduce the recovered image —
    /// the named section differed (a WAL coverage bug).
    Diverged {
        /// Name of the first mismatching snapshot section.
        section: String,
    },
}

impl From<RecoverError> for RecoveryError {
    fn from(e: RecoverError) -> Self {
        RecoveryError::Log(e)
    }
}

impl From<WireError> for RecoveryError {
    fn from(e: WireError) -> Self {
        RecoveryError::Wire(e)
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Log(e) => write!(f, "unreadable WAL image: {e:?}"),
            RecoveryError::Wire(e) => write!(f, "undecodable record or section: {e:?}"),
            RecoveryError::UnhandledRecord(c) => write!(f, "record matched no subsystem: {c}"),
            RecoveryError::Diverged { section } => {
                write!(
                    f,
                    "re-execution diverged from recovered image at `{section}`"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Every server-side subsystem, materialized from a WAL image
/// (latest committed snapshot + committed change tail).
pub struct RecoveredServerState {
    /// The project database.
    pub db: Db,
    /// The credit/reliability ledger.
    pub credit: CreditLedger,
    /// The canonical-result sink.
    pub assimilator: Assimilator,
    /// The BOINC-MR JobTracker.
    pub tracker: JobTracker,
    /// The host reputation ledger. Self-contained: its snapshot embeds
    /// the trust config, so replaying its records needs no external
    /// configuration.
    pub trust: TrustLedger,
    /// True when a committed snapshot seeded the state (false = full
    /// replay from genesis).
    pub from_snapshot: bool,
    /// Change records replayed on top of the snapshot.
    pub replayed: u64,
    /// Frames in the committed log prefix.
    pub committed_frames: u64,
    /// Change records in the committed log prefix.
    pub committed_records: u64,
    /// Sim-time of the last commit, microseconds.
    pub committed_at_us: u64,
    /// Byte length of the committed log prefix.
    pub committed_bytes: usize,
    /// Sequence number of the boundary commit. Unlike frame or byte
    /// counts this survives compaction unchanged, so the resume path
    /// re-drives to this target.
    pub committed_seq: u64,
}

impl RecoveredServerState {
    /// Recovers all server state from a WAL image: decode the latest
    /// committed snapshot's sections (genesis when none), then replay
    /// the committed change tail through the same appliers the live
    /// mutators use.
    pub fn from_log(log: &[u8]) -> Result<Self, RecoveryError> {
        let r = recover(log)?;
        let mut db = match r.sections.get(section::NAMES[section::DB]) {
            Some(b) => Db::decode_state(b)?,
            None => Db::new(),
        };
        let mut credit = match r.sections.get(section::NAMES[section::CREDIT]) {
            Some(b) => CreditLedger::decode_state(b)?,
            None => CreditLedger::new(),
        };
        let mut assimilator = match r.sections.get(section::NAMES[section::ASSIM]) {
            Some(b) => Assimilator::decode_state(b)?,
            None => Assimilator::new(),
        };
        let mut tracker = match r.sections.get(section::NAMES[section::TRACKER]) {
            Some(b) => JobTracker::decode_state(b)?,
            None => JobTracker::new(),
        };
        let mut trust = match r.sections.get(section::NAMES[section::TRUST]) {
            Some(b) => TrustLedger::decode_state(b)?,
            None => TrustLedger::new(Default::default()),
        };
        for c in &r.tail {
            if db.apply_change(c)?
                || credit.apply_change(c)?
                || assimilator.apply_change(c, &db)?
                || tracker.apply_change(c)?
                || trust.apply_change(c)?
            {
                continue;
            }
            return Err(RecoveryError::UnhandledRecord(format!("{c:?}")));
        }
        Ok(RecoveredServerState {
            db,
            credit,
            assimilator,
            tracker,
            trust,
            from_snapshot: r.from_snapshot,
            replayed: r.tail.len() as u64,
            committed_frames: r.committed_frames,
            committed_records: r.committed_records,
            committed_at_us: r.committed_at_us,
            committed_bytes: r.committed_bytes,
            committed_seq: r.committed_seq,
        })
    }

    /// Canonical section encodings of the recovered state, in the same
    /// order the engine snapshots them — comparable byte-for-byte
    /// against a live engine's sections.
    pub fn encode_sections(&self) -> Vec<(String, Vec<u8>)> {
        vec![
            (section::NAMES[section::DB].into(), self.db.encode_state()),
            (
                section::NAMES[section::CREDIT].into(),
                self.credit.encode_state(),
            ),
            (
                section::NAMES[section::ASSIM].into(),
                self.assimilator.encode_state(),
            ),
            (
                section::NAMES[section::TRACKER].into(),
                self.tracker.encode_state(),
            ),
            (
                section::NAMES[section::TRUST].into(),
                self.trust.encode_state(),
            ),
        ]
    }
}

/// Resumes a crashed experiment from its WAL image and runs it to
/// completion.
///
/// The rebuilt testbed re-derives the crashed run deterministically
/// from t=0 (crash point stripped), stops at the recovered commit
/// boundary, and audits its live state against the recovered image —
/// any divergence means a state change escaped the WAL and is reported
/// as [`RecoveryError::Diverged`] rather than silently continuing. The
/// outcome is then bit-identical to an uninterrupted run of the same
/// config.
pub fn resume_experiment(
    cfg: &ExperimentConfig,
    log: &[u8],
) -> Result<ExperimentOutcome, RecoveryError> {
    let rec = RecoveredServerState::from_log(log)?;

    let mut plan = cfg.durable.clone();
    plan.enabled = true;
    plan.crash = CrashPlan::none();
    plan.sink = None; // never clobber the image being recovered from
    let journal = Journal::new(&plan).expect("sinkless journal init cannot fail");
    let (mut eng, mut pol) = build_testbed(cfg, journal);

    eng.obs.counter("dur.replay_records").add(rec.replayed);
    let (replayed, from_snapshot) = (rec.replayed, rec.from_snapshot);
    eng.obs
        .journal
        .record_with(rec.committed_at_us, || EventKind::Recovered {
            replayed,
            from_snapshot,
        });

    // Re-drive to the committed boundary, then audit byte-for-byte.
    // The target is the commit *sequence*, not a frame count: the
    // image may be a compacted mirror whose frame and byte counts are
    // smaller than what the live re-run accumulates, but the commit
    // sequence is invariant under compaction.
    if rec.committed_seq > 0 {
        let target = rec.committed_seq;
        eng.run_until(&mut pol, horizon(), |e| {
            e.durable().committed_seq() >= target
        });
        let live = eng.live_sections(&pol);
        let want = rec.encode_sections();
        for ((ln, lb), (wn, wb)) in live.iter().zip(&want) {
            if ln != wn || lb != wb {
                return Err(RecoveryError::Diverged {
                    section: wn.clone(),
                });
            }
        }
        if live.len() != want.len() {
            return Err(RecoveryError::Diverged {
                section: "(section count)".into(),
            });
        }
    }

    eng.run_until(&mut pol, horizon(), |e| e.db.all_wus_terminal());
    Ok(finish(eng, pol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MrJobConfig, MrMode};
    use vmr_durable::{DurabilityPlan, StateChange};

    /// A committed log holding `changes` and nothing else.
    fn log_of(changes: &[StateChange]) -> Vec<u8> {
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        for c in changes {
            j.append(c);
        }
        j.commit();
        j.log_bytes()
    }

    fn submitted(job: u32, n_maps: usize, n_reduces: usize) -> StateChange {
        let mut cfg = MrJobConfig::paper_wordcount(1, 1, MrMode::InterClient);
        cfg.job.n_maps = n_maps;
        cfg.job.n_reduces = n_reduces;
        StateChange::MrJobSubmitted {
            job,
            cfg: cfg.to_bytes(),
        }
    }

    /// CRC-valid MapReduce records that no writer emits recover to a
    /// typed error, not a panic.
    #[test]
    fn impossible_mapreduce_records_are_wire_errors() {
        let cases = [
            (vec![submitted(0, 0, 1)], WireError::BadValue),
            (vec![submitted(0, 2, 0)], WireError::BadValue),
            (vec![submitted(1, 2, 1)], WireError::BadId(1)),
            (
                vec![submitted(0, 2, 1), submitted(0, 2, 1)],
                WireError::BadId(0),
            ),
            (
                vec![StateChange::MrReduceValidated { job: 0 }],
                WireError::BadId(0),
            ),
            (
                vec![
                    submitted(0, 2, 1),
                    StateChange::MrMapValidated {
                        job: 0,
                        m: 2,
                        holders: vec![1],
                        at_us: 5,
                    },
                ],
                WireError::BadId(2),
            ),
            (
                vec![
                    submitted(0, 2, 1),
                    StateChange::MrShufflePlanned {
                        job: 0,
                        strategy: 9,
                        group: 1,
                    },
                ],
                WireError::BadValue,
            ),
        ];
        for (changes, want) in cases {
            assert_wire_error(&changes, want);
        }
    }

    fn assert_wire_error(changes: &[StateChange], want: WireError) {
        match RecoveredServerState::from_log(&log_of(changes)) {
            Err(RecoveryError::Wire(e)) => assert_eq!(e, want, "{changes:?}"),
            Err(e) => panic!("{changes:?}: {e}"),
            Ok(_) => panic!("{changes:?} recovered"),
        }
    }

    /// CRC-valid `Db` records that name a row an empty table does not
    /// hold, or a new row other than the next one, recover to a typed
    /// error, not a panic.
    #[test]
    fn impossible_db_records_are_wire_errors() {
        let wu_inserted = |wu| StateChange::WuInserted {
            wu,
            at_us: 0,
            spec: vmr_vcore::WorkUnitSpec::basic("wu", "app", 1.0).to_bytes(),
        };
        let cases = [
            (vec![StateChange::ResultCreated { rid: 0, wu: 5 }], 5),
            (
                vec![StateChange::ResultSent {
                    rid: 3,
                    client: 0,
                    at_us: 0,
                    deadline_us: 0,
                }],
                3,
            ),
            (vec![StateChange::ResultCancelled { rid: 7 }], 7),
            (
                vec![StateChange::WuValidated {
                    wu: 2,
                    canonical: 0,
                    at_us: 0,
                }],
                2,
            ),
            (vec![StateChange::WuFailed { wu: 4, at_us: 0 }], 4),
            (
                vec![StateChange::WuQuorumOverride {
                    wu: 6,
                    quorum: Some(1),
                }],
                6,
            ),
            (
                vec![StateChange::Assimilated {
                    wu: 5,
                    holders: vec![],
                    at_us: 0,
                }],
                5,
            ),
            (vec![wu_inserted(1)], 1),
            (
                vec![wu_inserted(0), StateChange::ResultCreated { rid: 1, wu: 0 }],
                1,
            ),
        ];
        for (changes, id) in cases {
            assert_wire_error(&changes, WireError::BadId(id));
        }
    }
}
