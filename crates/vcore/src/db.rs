//! In-memory project database.
//!
//! Mirrors the tables a BOINC server keeps in MySQL: `workunit` and
//! `result`, with the secondary indexes the daemons use (unsent results
//! in id order, results per WU). Ids are dense and double as row
//! indexes, so row lookup is one bounds-checked load.
//!
//! **Durability.** Every public mutator is journaled: it appends a
//! typed [`StateChange`] to the engine-owned WAL *before* applying the
//! mutation (write-ahead), through a [`Journal`] handle that is a
//! single branch when durability is off. Replay goes through
//! [`Db::apply_change`], which routes each record to the same private
//! `raw_*` appliers the live mutators use — so replayed state cannot
//! drift from live state. Snapshots serialize only the two row tables
//! ([`Db::encode_state`]) in id order; the secondary indexes are
//! derived data and are rebuilt on decode.
//!
//! **Completion check.** `Engine::run_until` evaluates
//! [`Db::all_wus_terminal`] before every event, so it must not touch
//! the table: the database keeps a work-unit count per [`WuState`],
//! moved by the three appliers that set a work unit's state and rebuilt
//! from the rows on decode — derived data like the indexes above.

use crate::idset::IdSet;
use crate::types::{ClientId, FileRef, OutputFingerprint, ResultId, WuId};
use crate::workunit::{ResultOutcome, ResultRec, ResultState, WorkUnit, WorkUnitSpec, WuState};
use vmr_desim::SimTime;
use vmr_durable::{Dec, Enc, Journal, StateChange, WireError};

/// The project database.
#[derive(Default)]
pub struct Db {
    /// Work units, indexed by `WuId`.
    wus: Vec<WorkUnit>,
    /// Results, indexed by `ResultId`.
    results: Vec<ResultRec>,
    /// Unsent results: a bitset over the dense result ids, walked in id
    /// order.
    unsent: IdSet,
    /// Results per WU, in creation order, indexed by `WuId`.
    by_wu: Vec<Vec<ResultId>>,
    /// Work units per [`WuState`] (indexed by `state as usize`). Derived
    /// from the rows.
    wu_tally: [usize; 3],
    /// WAL handle (disabled by default — a no-op on every append).
    journal: Journal,
}

impl Db {
    /// An empty database.
    pub fn new() -> Self {
        Db::default()
    }

    /// Attaches the engine's WAL handle; subsequent mutations append
    /// change records.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    // ----- work units -----------------------------------------------------

    /// Inserts a work unit and creates its initial `target_nresults`
    /// result instances. Returns the new WU id.
    pub fn insert_workunit(&mut self, spec: WorkUnitSpec, now: SimTime) -> WuId {
        let id = WuId(self.wus.len() as u32);
        let target = spec.target_nresults;
        // The record owns an encoded spec: built only for a live log.
        if self.journal.enabled() {
            self.journal.append(&StateChange::WuInserted {
                wu: id.0,
                at_us: now.as_micros(),
                spec: spec.to_bytes(),
            });
        }
        self.raw_insert_workunit(spec, now);
        for _ in 0..target {
            self.create_result(id);
        }
        id
    }

    /// Creates one more result instance for `wu` (transitioner retry
    /// path). Respects no cap — callers check `max_total_results`.
    pub fn create_result(&mut self, wu: WuId) -> ResultId {
        let id = ResultId(self.results.len() as u32);
        self.journal.append(&StateChange::ResultCreated {
            rid: id.0,
            wu: wu.0,
        });
        self.raw_create_result(wu);
        id
    }

    /// The work unit row.
    pub fn wu(&self, id: WuId) -> &WorkUnit {
        &self.wus[id.0 as usize]
    }

    /// Mutable work unit row. Private: `state` may only change through
    /// [`Db::set_wu_state`], which keeps the per-state tally in step.
    fn wu_mut(&mut self, id: WuId) -> &mut WorkUnit {
        &mut self.wus[id.0 as usize]
    }

    /// Moves `id` to state `to`, carrying its tally entry along — out of
    /// whatever state the row is in, so re-marking an already terminal
    /// work unit cannot count it twice.
    fn set_wu_state(&mut self, id: WuId, to: WuState) -> &mut WorkUnit {
        let w = &mut self.wus[id.0 as usize];
        self.wu_tally[w.state as usize] -= 1;
        self.wu_tally[to as usize] += 1;
        w.state = to;
        w
    }

    /// All work unit ids.
    pub fn wu_ids(&self) -> impl Iterator<Item = WuId> + '_ {
        (0..self.wus.len() as u32).map(WuId)
    }

    /// Number of work units.
    pub fn n_wus(&self) -> usize {
        self.wus.len()
    }

    /// Number of results ever created.
    pub fn n_results(&self) -> usize {
        self.results.len()
    }

    // ----- results --------------------------------------------------------

    /// The result row.
    pub fn result(&self, id: ResultId) -> &ResultRec {
        &self.results[id.0 as usize]
    }

    /// Result ids belonging to `wu`.
    pub fn results_of(&self, wu: WuId) -> &[ResultId] {
        &self.by_wu[wu.0 as usize]
    }

    /// Unsent results, in id order.
    pub fn unsent_results(&self) -> impl Iterator<Item = ResultId> + '_ {
        self.unsent.iter()
    }

    /// Number of unsent results.
    pub fn n_unsent(&self) -> usize {
        self.unsent.len()
    }

    /// Does `client` already hold (or has it ever held) a result of
    /// `wu`? BOINC's "one result per user per WU" scheduling rule.
    pub fn client_has_wu(&self, client: ClientId, wu: WuId) -> bool {
        self.results_of(wu)
            .iter()
            .any(|&rid| self.result(rid).client == Some(client))
    }

    /// Marks `rid` as sent to `client` with the given report deadline.
    ///
    /// # Panics
    /// If the result is not unsent.
    pub fn mark_sent(&mut self, rid: ResultId, client: ClientId, now: SimTime, deadline: SimTime) {
        assert_eq!(
            self.result(rid).state,
            ResultState::Unsent,
            "sending a non-unsent result"
        );
        self.journal.append(&StateChange::ResultSent {
            rid: rid.0,
            client: client.0,
            at_us: now.as_micros(),
            deadline_us: deadline.as_micros(),
        });
        self.raw_mark_sent(rid, client, now, deadline);
    }

    /// Records a client report for `rid`. Ignores reports for results
    /// already over (late replies after a deadline timeout).
    /// Returns `true` if the report was applied.
    pub fn mark_reported(
        &mut self,
        rid: ResultId,
        outcome: ResultOutcome,
        fingerprint: Option<OutputFingerprint>,
        now: SimTime,
    ) -> bool {
        if self.result(rid).state != ResultState::InProgress {
            return false;
        }
        self.journal.append(&StateChange::ResultReported {
            rid: rid.0,
            outcome: outcome.to_wire(),
            fingerprint: fingerprint.map(|f| f.0),
            at_us: now.as_micros(),
        });
        self.raw_mark_reported(rid, outcome, fingerprint, now);
        true
    }

    /// Expires an in-progress result whose deadline passed (NoReply).
    /// Returns `true` if it was still in progress.
    pub fn mark_timed_out(&mut self, rid: ResultId, now: SimTime) -> bool {
        self.mark_reported(rid, ResultOutcome::NoReply, None, now)
    }

    /// Cancels an unsent result (its WU validated without needing it).
    pub fn cancel_unsent(&mut self, rid: ResultId) -> bool {
        if self.result(rid).state != ResultState::Unsent {
            return false;
        }
        self.journal
            .append(&StateChange::ResultCancelled { rid: rid.0 });
        self.raw_cancel_unsent(rid);
        true
    }

    /// Validates `wu` with the quorum's canonical fingerprint
    /// (transitioner outcome).
    pub fn mark_wu_validated(&mut self, wu: WuId, canonical: OutputFingerprint, now: SimTime) {
        self.journal.append(&StateChange::WuValidated {
            wu: wu.0,
            canonical: canonical.0,
            at_us: now.as_micros(),
        });
        self.raw_mark_wu_validated(wu, canonical, now);
    }

    /// Fails `wu`: `max_total_results` exhausted without a quorum.
    pub fn mark_wu_failed(&mut self, wu: WuId, now: SimTime) {
        self.journal.append(&StateChange::WuFailed {
            wu: wu.0,
            at_us: now.as_micros(),
        });
        self.raw_mark_wu_failed(wu, now);
    }

    /// Sets (or clears, with `None`) the trust policy's override of the
    /// spec's `min_quorum` for `wu`. No-op when unchanged, so repeated
    /// decisions don't bloat the WAL.
    pub fn set_quorum_override(&mut self, wu: WuId, quorum: Option<u32>) {
        if self.wu(wu).quorum_override == quorum {
            return;
        }
        self.journal
            .append(&StateChange::WuQuorumOverride { wu: wu.0, quorum });
        self.raw_set_quorum_override(wu, quorum);
    }

    // ----- raw appliers (shared by live mutators and WAL replay) ----------

    fn raw_insert_workunit(&mut self, spec: WorkUnitSpec, now: SimTime) {
        self.wus.push(WorkUnit {
            id: WuId(self.wus.len() as u32),
            spec,
            state: WuState::Active,
            canonical: None,
            results_created: 0,
            created_at: now,
            finished_at: None,
            quorum_override: None,
        });
        self.by_wu.push(Vec::new());
        self.wu_tally[WuState::Active as usize] += 1;
    }

    fn raw_create_result(&mut self, wu: WuId) {
        let id = ResultId(self.results.len() as u32);
        self.results.push(ResultRec {
            id,
            wu,
            state: ResultState::Unsent,
            client: None,
            sent_at: None,
            report_deadline: None,
            reported_at: None,
            outcome: None,
            fingerprint: None,
        });
        self.unsent.insert(id);
        self.by_wu[wu.0 as usize].push(id);
        self.wu_mut(wu).results_created += 1;
    }

    fn raw_mark_sent(&mut self, rid: ResultId, client: ClientId, now: SimTime, deadline: SimTime) {
        let r = &mut self.results[rid.0 as usize];
        r.state = ResultState::InProgress;
        r.client = Some(client);
        r.sent_at = Some(now);
        r.report_deadline = Some(deadline);
        self.unsent.remove(rid);
    }

    fn raw_mark_reported(
        &mut self,
        rid: ResultId,
        outcome: ResultOutcome,
        fingerprint: Option<OutputFingerprint>,
        now: SimTime,
    ) {
        let r = &mut self.results[rid.0 as usize];
        r.state = ResultState::Over;
        r.outcome = Some(outcome);
        r.fingerprint = fingerprint;
        r.reported_at = Some(now);
    }

    fn raw_cancel_unsent(&mut self, rid: ResultId) {
        let r = &mut self.results[rid.0 as usize];
        r.state = ResultState::Over;
        r.outcome = Some(ResultOutcome::WuDone);
        self.unsent.remove(rid);
    }

    fn raw_mark_wu_validated(&mut self, wu: WuId, canonical: OutputFingerprint, now: SimTime) {
        let w = self.set_wu_state(wu, WuState::Validated);
        w.canonical = Some(canonical);
        w.finished_at = Some(now);
    }

    fn raw_mark_wu_failed(&mut self, wu: WuId, now: SimTime) {
        let w = self.set_wu_state(wu, WuState::Failed);
        w.finished_at = Some(now);
    }

    fn raw_set_quorum_override(&mut self, wu: WuId, quorum: Option<u32>) {
        self.wu_mut(wu).quorum_override = quorum;
    }

    // ----- WAL replay + snapshots -----------------------------------------

    /// Applies one replayed change record. Returns `Ok(true)` when the
    /// record belongs to this table and was applied, `Ok(false)` when
    /// it belongs to another subsystem (credit, assimilator, tracker).
    pub fn apply_change(&mut self, c: &StateChange) -> Result<bool, WireError> {
        match c {
            StateChange::WuInserted { at_us, spec, .. } => {
                let spec = WorkUnitSpec::from_bytes(spec)?;
                self.raw_insert_workunit(spec, SimTime::from_micros(*at_us));
            }
            StateChange::ResultCreated { wu, .. } => {
                self.raw_create_result(WuId(*wu));
            }
            StateChange::ResultSent {
                rid,
                client,
                at_us,
                deadline_us,
            } => {
                self.raw_mark_sent(
                    ResultId(*rid),
                    ClientId(*client),
                    SimTime::from_micros(*at_us),
                    SimTime::from_micros(*deadline_us),
                );
            }
            StateChange::ResultReported {
                rid,
                outcome,
                fingerprint,
                at_us,
            } => {
                self.raw_mark_reported(
                    ResultId(*rid),
                    ResultOutcome::from_wire(*outcome)?,
                    fingerprint.map(OutputFingerprint),
                    SimTime::from_micros(*at_us),
                );
            }
            StateChange::ResultCancelled { rid } => {
                self.raw_cancel_unsent(ResultId(*rid));
            }
            StateChange::WuValidated {
                wu,
                canonical,
                at_us,
            } => {
                self.raw_mark_wu_validated(
                    WuId(*wu),
                    OutputFingerprint(*canonical),
                    SimTime::from_micros(*at_us),
                );
            }
            StateChange::WuFailed { wu, at_us } => {
                self.raw_mark_wu_failed(WuId(*wu), SimTime::from_micros(*at_us));
            }
            StateChange::WuQuorumOverride { wu, quorum } => {
                self.raw_set_quorum_override(WuId(*wu), *quorum);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Canonical snapshot of the two row tables, iterated in id order.
    /// The secondary indexes are derived and excluded, so two equal
    /// databases encode to byte-identical vectors (the recovery audit's
    /// comparison).
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 + self.wus.len() * 64 + self.results.len() * 32);
        self.encode_state_into(&mut e);
        e.into_vec()
    }

    /// Appends [`Db::encode_state`]'s bytes to `e` (a snapshot frame
    /// being written in place).
    pub fn encode_state_into(&self, e: &mut Enc) {
        e.u32(self.wus.len() as u32);
        for w in &self.wus {
            e.nested(|e| w.spec.encode(e));
            e.u8(w.state.to_wire());
            e.opt_u64(w.canonical.map(|f| f.0));
            e.u32(w.results_created);
            e.u64(w.created_at.as_micros());
            e.opt_u64(w.finished_at.map(SimTime::as_micros));
            e.opt_u32(w.quorum_override);
        }
        e.u32(self.results.len() as u32);
        for r in &self.results {
            e.u32(r.wu.0);
            e.u8(r.state.to_wire());
            e.opt_u32(r.client.map(|c| c.0));
            e.opt_u64(r.sent_at.map(SimTime::as_micros));
            e.opt_u64(r.report_deadline.map(SimTime::as_micros));
            e.opt_u64(r.reported_at.map(SimTime::as_micros));
            match r.outcome {
                None => e.bool(false),
                Some(o) => {
                    e.bool(true);
                    e.u8(o.to_wire());
                }
            }
            e.opt_u64(r.fingerprint.map(|f| f.0));
        }
    }

    /// Rebuilds a database from an [`Db::encode_state`] snapshot
    /// section, reconstructing every secondary index. A result row
    /// naming a work unit the section does not hold is a
    /// [`WireError::BadId`]. The journal handle starts disabled.
    pub fn decode_state(b: &[u8]) -> Result<Db, WireError> {
        let mut d = Dec::new(b);
        let n_wus = d.u32()? as usize;
        let mut wus = Vec::with_capacity(n_wus.min(1 << 16));
        for i in 0..n_wus {
            let spec = WorkUnitSpec::from_bytes(d.slice()?)?;
            wus.push(WorkUnit {
                id: WuId(i as u32),
                spec,
                state: WuState::from_wire(d.u8()?)?,
                canonical: d.opt_u64()?.map(OutputFingerprint),
                results_created: d.u32()?,
                created_at: SimTime::from_micros(d.u64()?),
                finished_at: d.opt_u64()?.map(SimTime::from_micros),
                quorum_override: d.opt_u32()?,
            });
        }
        let n_results = d.u32()? as usize;
        let mut results = Vec::with_capacity(n_results.min(1 << 16));
        for i in 0..n_results {
            let wu = d.u32()?;
            if wu as usize >= n_wus {
                return Err(WireError::BadId(wu));
            }
            let wu = WuId(wu);
            let state = ResultState::from_wire(d.u8()?)?;
            let client = d.opt_u32()?.map(ClientId);
            let sent_at = d.opt_u64()?.map(SimTime::from_micros);
            let report_deadline = d.opt_u64()?.map(SimTime::from_micros);
            let reported_at = d.opt_u64()?.map(SimTime::from_micros);
            let outcome = if d.bool()? {
                Some(ResultOutcome::from_wire(d.u8()?)?)
            } else {
                None
            };
            let fingerprint = d.opt_u64()?.map(OutputFingerprint);
            results.push(ResultRec {
                id: ResultId(i as u32),
                wu,
                state,
                client,
                sent_at,
                report_deadline,
                reported_at,
                outcome,
                fingerprint,
            });
        }
        d.finish()?;

        // Rebuild the derived indexes. Iterating results in id order
        // reproduces the per-WU creation order `by_wu` accumulated live.
        let mut db = Db {
            by_wu: vec![Vec::new(); n_wus],
            ..Db::default()
        };
        for r in &results {
            db.by_wu[r.wu.0 as usize].push(r.id);
            if r.state == ResultState::Unsent {
                db.unsent.insert(r.id);
            }
        }
        for w in &wus {
            db.wu_tally[w.state as usize] += 1;
        }
        db.wus = wus;
        db.results = results;
        Ok(db)
    }

    /// Input files of a result's work unit.
    pub fn inputs_of(&self, rid: ResultId) -> &[FileRef] {
        let wu = self.result(rid).wu;
        &self.wu(wu).spec.inputs
    }

    /// True when every WU is validated or failed (vacuously so for an
    /// empty table). O(1): this is `run_until`'s per-event stop check.
    pub fn all_wus_terminal(&self) -> bool {
        self.wu_tally[WuState::Active as usize] == 0
    }

    /// Count of WUs in a given state. O(1).
    pub fn count_state(&self, state: WuState) -> usize {
        self.wu_tally[state as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workunit::WorkUnitSpec;

    fn spec(name: &str) -> WorkUnitSpec {
        WorkUnitSpec::basic(name, "app", 1e9)
    }

    #[test]
    fn insert_creates_replicas() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        assert_eq!(db.results_of(wu).len(), 2);
        assert_eq!(db.n_unsent(), 2);
        assert_eq!(db.wu(wu).results_created, 2);
    }

    #[test]
    fn send_and_report_lifecycle() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        let rid = db.results_of(wu)[0];
        let c = ClientId(1);
        db.mark_sent(rid, c, SimTime::ZERO, SimTime::from_secs(100));
        assert!(db.client_has_wu(c, wu));
        assert_eq!(db.n_unsent(), 1);
        assert!(db.mark_reported(
            rid,
            ResultOutcome::Success,
            Some(OutputFingerprint(7)),
            SimTime::from_secs(50),
        ));
        assert!(db.result(rid).is_success());
        // Double report ignored.
        assert!(!db.mark_reported(rid, ResultOutcome::Error, None, SimTime::from_secs(60)));
    }

    #[test]
    fn one_result_per_client_per_wu_rule_data() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        let rids = db.results_of(wu).to_vec();
        db.mark_sent(rids[0], ClientId(1), SimTime::ZERO, SimTime::from_secs(100));
        assert!(db.client_has_wu(ClientId(1), wu));
        assert!(!db.client_has_wu(ClientId(2), wu));
    }

    #[test]
    fn timeout_marks_noreply() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        let rid = db.results_of(wu)[0];
        db.mark_sent(rid, ClientId(1), SimTime::ZERO, SimTime::from_secs(10));
        assert!(db.mark_timed_out(rid, SimTime::from_secs(10)));
        assert_eq!(db.result(rid).outcome, Some(ResultOutcome::NoReply));
        assert!(!db.mark_timed_out(rid, SimTime::from_secs(11)));
    }

    #[test]
    fn cancel_unsent_only_touches_unsent() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        let rids = db.results_of(wu).to_vec();
        db.mark_sent(rids[0], ClientId(1), SimTime::ZERO, SimTime::from_secs(10));
        assert!(!db.cancel_unsent(rids[0]));
        assert!(db.cancel_unsent(rids[1]));
        assert_eq!(db.n_unsent(), 0);
        assert_eq!(db.result(rids[1]).outcome, Some(ResultOutcome::WuDone));
    }

    #[test]
    fn extra_result_creation() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        let extra = db.create_result(wu);
        assert_eq!(db.results_of(wu).len(), 3);
        assert_eq!(db.wu(wu).results_created, 3);
        assert!(db.unsent_results().any(|r| r == extra));
    }

    #[test]
    fn quorum_override_changes_effective_quorum() {
        let mut db = Db::new();
        let wu = db.insert_workunit(spec("a"), SimTime::ZERO);
        assert_eq!(db.wu(wu).effective_quorum(), 2);
        db.set_quorum_override(wu, Some(1));
        assert_eq!(db.wu(wu).effective_quorum(), 1);
        db.set_quorum_override(wu, None);
        assert_eq!(db.wu(wu).effective_quorum(), 2);
    }

    #[test]
    fn terminal_tracking() {
        let counts = |db: &Db| {
            [WuState::Active, WuState::Validated, WuState::Failed].map(|s| db.count_state(s))
        };
        let mut db = Db::new();
        assert!(db.all_wus_terminal(), "an empty table is vacuously done");
        let a = db.insert_workunit(spec("a"), SimTime::ZERO);
        let b = db.insert_workunit(spec("b"), SimTime::ZERO);
        let c = db.insert_workunit(spec("c"), SimTime::ZERO);
        assert!(!db.all_wus_terminal());
        assert_eq!(counts(&db), [3, 0, 0]);
        db.mark_wu_validated(a, OutputFingerprint(7), SimTime::from_secs(1));
        db.mark_wu_failed(b, SimTime::from_secs(2));
        assert!(!db.all_wus_terminal(), "c is still live");
        assert_eq!(counts(&db), [1, 1, 1]);
        // Re-marking a terminal work unit moves it, never counts it twice.
        db.mark_wu_validated(a, OutputFingerprint(7), SimTime::from_secs(3));
        db.mark_wu_failed(b, SimTime::from_secs(3));
        assert_eq!(counts(&db), [1, 1, 1]);
        db.mark_wu_failed(a, SimTime::from_secs(4));
        assert_eq!(counts(&db), [1, 0, 2]);
        db.mark_wu_validated(c, OutputFingerprint(9), SimTime::from_secs(5));
        assert!(db.all_wus_terminal());
        assert_eq!(counts(&db), [0, 1, 2]);
        // A work unit inserted after completion reopens the table.
        db.insert_workunit(spec("d"), SimTime::from_secs(6));
        assert!(!db.all_wus_terminal());
        assert_eq!(counts(&db), [1, 1, 2]);
    }

    /// Drives `db` through every journaled mutator.
    fn exercise(db: &mut Db) {
        let a = db.insert_workunit(spec("a"), SimTime::ZERO);
        let b = db.insert_workunit(spec("b"), SimTime::from_secs(1));
        let ra = db.results_of(a).to_vec();
        let rb = db.results_of(b).to_vec();
        db.mark_sent(
            ra[0],
            ClientId(1),
            SimTime::from_secs(2),
            SimTime::from_secs(100),
        );
        db.mark_sent(
            ra[1],
            ClientId(2),
            SimTime::from_secs(3),
            SimTime::from_secs(100),
        );
        db.mark_reported(
            ra[0],
            ResultOutcome::Success,
            Some(OutputFingerprint(7)),
            SimTime::from_secs(10),
        );
        db.mark_reported(
            ra[1],
            ResultOutcome::Success,
            Some(OutputFingerprint(7)),
            SimTime::from_secs(11),
        );
        db.mark_wu_validated(a, OutputFingerprint(7), SimTime::from_secs(11));
        db.mark_sent(
            rb[0],
            ClientId(3),
            SimTime::from_secs(4),
            SimTime::from_secs(50),
        );
        db.mark_timed_out(rb[0], SimTime::from_secs(50));
        let extra = db.create_result(b);
        db.cancel_unsent(extra);
        db.set_quorum_override(b, Some(1));
        db.set_quorum_override(b, Some(1)); // unchanged: no record
        db.mark_wu_failed(b, SimTime::from_secs(60));
    }

    #[test]
    fn wal_replay_reproduces_live_state() {
        use vmr_durable::{recover, DurabilityPlan};
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut live = Db::new();
        live.set_journal(j.clone());
        exercise(&mut live);
        j.commit();
        let r = recover(&j.log_bytes()).unwrap();
        assert!(!r.tail.is_empty());
        let mut replayed = Db::new();
        for c in &r.tail {
            assert!(replayed.apply_change(c).unwrap(), "unhandled {c:?}");
        }
        assert_eq!(replayed.encode_state(), live.encode_state());
        assert_eq!(replayed.n_unsent(), live.n_unsent());
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let mut db = Db::new();
        exercise(&mut db);
        let enc = db.encode_state();
        let back = Db::decode_state(&enc).unwrap();
        assert_eq!(back.encode_state(), enc);
        assert_eq!(back.n_wus(), db.n_wus());
        assert_eq!(back.n_results(), db.n_results());
        assert_eq!(back.n_unsent(), db.n_unsent());
        for wu in db.wu_ids() {
            assert_eq!(back.results_of(wu), db.results_of(wu));
            assert_eq!(back.wu(wu).state, db.wu(wu).state);
            assert_eq!(back.wu(wu).canonical, db.wu(wu).canonical);
        }
        // Unexercised journaled mutators still work on a decoded db.
        let mut back = back;
        let c = back.create_result(WuId(0));
        assert!(back.cancel_unsent(c));
    }

    #[test]
    fn result_row_naming_a_missing_wu_is_rejected() {
        // A hand-built section: one work unit, then one unsent result
        // row whose work unit is `wu`.
        let section = |wu: u32| {
            let mut e = Enc::with_capacity(64);
            e.u32(1);
            e.nested(|e| spec("a").encode(e));
            e.u8(WuState::Active.to_wire());
            e.opt_u64(None);
            e.u32(1);
            e.u64(0);
            e.opt_u64(None);
            e.opt_u32(None);
            e.u32(1);
            e.u32(wu);
            e.u8(ResultState::Unsent.to_wire());
            e.opt_u32(None);
            e.opt_u64(None);
            e.opt_u64(None);
            e.opt_u64(None);
            e.bool(false);
            e.opt_u64(None);
            e.into_vec()
        };
        let db = Db::decode_state(&section(0)).unwrap();
        assert_eq!(db.results_of(WuId(0)), &[ResultId(0)]);
        assert!(matches!(
            Db::decode_state(&section(1)),
            Err(WireError::BadId(1))
        ));
    }
}
