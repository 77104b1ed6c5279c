//! In-memory project database, partitioned into shards.
//!
//! Mirrors the tables a BOINC server keeps in MySQL: `workunit` and
//! `result`, with the secondary indexes the daemons use (unsent results
//! per app, results per WU, live results per client).
//!
//! **Sharding.** The tables are split across `N` shard structs — work
//! units by `wu_id % N`, results by `rid % N`, per-client tallies by
//! `client_id % N` — mirroring production BOINC's `wu_id mod n` daemon
//! partitioning. Ids stay global and dense (`local index = id / N`), so
//! row lookup is O(1) arithmetic, and every cross-shard iteration
//! ([`Db::unsent_results`], [`Db::encode_state`]) merges shards in
//! global id order. That merge order makes the sharding invisible:
//! **any shard count produces byte-identical snapshots and identical
//! iteration order**, and `N = 1` is exactly the historical layout.
//! The per-shard split is what the worker-pool daemon passes
//! (`crate::shard`) and the scheduler's sharded feeder fan out over.
//!
//! **Durability.** Every public mutator is journaled: it appends a
//! typed [`StateChange`] to the engine-owned WAL *before* applying the
//! mutation (write-ahead), through a [`Journal`] handle that is a
//! single branch when durability is off. Replay goes through
//! [`Db::apply_change`], which routes each record to the same private
//! `raw_*` appliers the live mutators use — so replayed state cannot
//! drift from live state. Snapshots serialize only the two row tables
//! ([`Db::encode_state`]) in global id order; the secondary indexes are
//! derived data and are rebuilt on decode.
//!
//! **Completion check.** `Engine::run_until` evaluates
//! [`Db::all_wus_terminal`] before every event, so it must not touch
//! the table: the database keeps a work-unit count per [`WuState`],
//! moved by the three appliers that set a work unit's state and rebuilt
//! from the rows on decode — derived data like the indexes above.

use crate::types::{ClientId, FileRef, OutputFingerprint, ResultId, WuId};
use crate::workunit::{ResultOutcome, ResultRec, ResultState, WorkUnit, WorkUnitSpec, WuState};
use std::collections::{BTreeSet, HashMap};
use vmr_desim::SimTime;
use vmr_durable::{Dec, Enc, Journal, StateChange, WireError};

/// One partition of the project database (rows whose id is congruent
/// to this shard's index modulo the shard count).
#[derive(Default, Debug)]
struct DbShard {
    /// Work units of this shard, local index = `wu_id / n_shards`.
    wus: Vec<WorkUnit>,
    /// Results of this shard, local index = `rid / n_shards`.
    results: Vec<ResultRec>,
    /// Unsent results of this shard, ordered by id.
    unsent: BTreeSet<ResultId>,
    /// Results per WU, for WUs of this shard.
    by_wu: HashMap<WuId, Vec<ResultId>>,
    /// Live result count per client, for clients of this shard.
    live_by_client: HashMap<ClientId, u32>,
}

/// The project database.
pub struct Db {
    n_shards: usize,
    shards: Vec<DbShard>,
    /// Total work units ever inserted (next global WU id).
    n_wus: usize,
    /// Total results ever created (next global result id).
    n_results: usize,
    /// Work units per [`WuState`] (indexed by `state as usize`). Derived
    /// from the rows; a table-level total, so `reshard` leaves it alone.
    wu_tally: [usize; 3],
    /// WAL handle (disabled by default — a no-op on every append).
    journal: Journal,
}

impl Default for Db {
    fn default() -> Self {
        Db::with_shards(1)
    }
}

impl Db {
    /// An empty single-shard database.
    pub fn new() -> Self {
        Db::default()
    }

    /// An empty database partitioned into `n` shards (`n ≥ 1`).
    pub fn with_shards(n: usize) -> Self {
        assert!(n >= 1, "shard count must be at least 1");
        Db {
            n_shards: n,
            shards: (0..n).map(|_| DbShard::default()).collect(),
            n_wus: 0,
            n_results: 0,
            wu_tally: [0; 3],
            journal: Journal::disabled(),
        }
    }

    /// Number of shards the tables are partitioned into.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Re-partitions the tables into `n` shards, preserving all rows
    /// and ids (used when recovering a snapshot into an engine built
    /// with a different shard count).
    pub fn reshard(&mut self, n: usize) {
        assert!(n >= 1, "shard count must be at least 1");
        if n == self.n_shards {
            return;
        }
        // Collect every row back into dense global-id order.
        let mut wus: Vec<Option<WorkUnit>> = (0..self.n_wus).map(|_| None).collect();
        let mut results: Vec<Option<ResultRec>> = (0..self.n_results).map(|_| None).collect();
        for shard in self.shards.drain(..) {
            for w in shard.wus {
                let i = w.id.0 as usize;
                wus[i] = Some(w);
            }
            for r in shard.results {
                let i = r.id.0 as usize;
                results[i] = Some(r);
            }
        }
        self.n_shards = n;
        self.shards = (0..n).map(|_| DbShard::default()).collect();
        for w in wus.into_iter().map(Option::unwrap) {
            let s = w.id.0 as usize % n;
            self.shards[s].wus.push(w);
        }
        // Distributing in global id order keeps each shard's rows and
        // the rebuilt per-WU lists in id/creation order.
        for r in results.into_iter().map(Option::unwrap) {
            let ws = r.wu.0 as usize % n;
            self.shards[ws].by_wu.entry(r.wu).or_default().push(r.id);
            match r.state {
                ResultState::Unsent => {
                    self.shards[r.id.0 as usize % n].unsent.insert(r.id);
                }
                ResultState::InProgress => {
                    if let Some(c) = r.client {
                        *self.shards[c.0 as usize % n]
                            .live_by_client
                            .entry(c)
                            .or_insert(0) += 1;
                    }
                }
                ResultState::Over => {}
            }
            self.shards[r.id.0 as usize % n].results.push(r);
        }
    }

    /// Attaches the engine's WAL handle; subsequent mutations append
    /// change records.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    #[inline]
    fn wu_slot(&self, id: WuId) -> (usize, usize) {
        let i = id.0 as usize;
        if self.n_shards == 1 {
            (0, i)
        } else {
            (i % self.n_shards, i / self.n_shards)
        }
    }

    #[inline]
    fn rid_slot(&self, id: ResultId) -> (usize, usize) {
        let i = id.0 as usize;
        if self.n_shards == 1 {
            (0, i)
        } else {
            (i % self.n_shards, i / self.n_shards)
        }
    }

    #[inline]
    fn client_shard(&self, c: ClientId) -> usize {
        if self.n_shards == 1 {
            0
        } else {
            c.0 as usize % self.n_shards
        }
    }

    fn all_results_in_id_order(&self) -> impl Iterator<Item = &ResultRec> + '_ {
        (0..self.n_results).map(move |i| {
            let (s, l) = self.rid_slot(ResultId(i as u32));
            &self.shards[s].results[l]
        })
    }

    fn all_wus_in_id_order(&self) -> impl Iterator<Item = &WorkUnit> + '_ {
        (0..self.n_wus).map(move |i| {
            let (s, l) = self.wu_slot(WuId(i as u32));
            &self.shards[s].wus[l]
        })
    }

    // ----- work units -----------------------------------------------------

    /// Inserts a work unit and creates its initial `target_nresults`
    /// result instances. Returns the new WU id.
    pub fn insert_workunit(&mut self, spec: WorkUnitSpec, now: SimTime) -> WuId {
        let id = WuId(self.n_wus as u32);
        let target = spec.target_nresults;
        self.journal.append(&StateChange::WuInserted {
            wu: id.0,
            at_us: now.as_micros(),
            spec: spec.to_bytes(),
        });
        self.raw_insert_workunit(spec, now);
        for _ in 0..target {
            self.create_result(id);
        }
        id
    }

    /// Creates one more result instance for `wu` (transitioner retry
    /// path). Respects no cap — callers check `max_total_results`.
    pub fn create_result(&mut self, wu: WuId) -> ResultId {
        let id = ResultId(self.n_results as u32);
        self.journal.append(&StateChange::ResultCreated {
            rid: id.0,
            wu: wu.0,
        });
        self.raw_create_result(wu);
        id
    }

    /// The work unit row.
    pub fn wu(&self, id: WuId) -> &WorkUnit {
        let (s, l) = self.wu_slot(id);
        &self.shards[s].wus[l]
    }

    /// Mutable work unit row. Private: `state` may only change through
    /// [`Db::set_wu_state`], which keeps the per-state tally in step.
    fn wu_mut(&mut self, id: WuId) -> &mut WorkUnit {
        let (s, l) = self.wu_slot(id);
        &mut self.shards[s].wus[l]
    }

    /// Moves `id` to state `to`, carrying its tally entry along — out of
    /// whatever state the row is in, so re-marking an already terminal
    /// work unit cannot count it twice.
    fn set_wu_state(&mut self, id: WuId, to: WuState) -> &mut WorkUnit {
        let (s, l) = self.wu_slot(id);
        let w = &mut self.shards[s].wus[l];
        self.wu_tally[w.state as usize] -= 1;
        self.wu_tally[to as usize] += 1;
        w.state = to;
        w
    }

    /// All work unit ids.
    pub fn wu_ids(&self) -> impl Iterator<Item = WuId> + '_ {
        (0..self.n_wus as u32).map(WuId)
    }

    /// Work unit ids belonging to shard `s`, in id order.
    pub fn shard_wu_ids(&self, s: usize) -> impl Iterator<Item = WuId> + '_ {
        let n = self.n_shards;
        ((s as u32)..self.n_wus as u32)
            .step_by(n)
            .map(WuId)
            .take(self.shards[s].wus.len())
    }

    /// Number of work units.
    pub fn n_wus(&self) -> usize {
        self.n_wus
    }

    /// Number of results ever created.
    pub fn n_results(&self) -> usize {
        self.n_results
    }

    // ----- results --------------------------------------------------------

    /// The result row.
    pub fn result(&self, id: ResultId) -> &ResultRec {
        let (s, l) = self.rid_slot(id);
        &self.shards[s].results[l]
    }

    /// Result ids belonging to `wu`.
    pub fn results_of(&self, wu: WuId) -> &[ResultId] {
        let s = wu.0 as usize % self.n_shards;
        self.shards[s]
            .by_wu
            .get(&wu)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Unsent results, in global id order (an id-order merge of the
    /// per-shard ordered sets — identical to the single-shard scan).
    pub fn unsent_results(&self) -> impl Iterator<Item = ResultId> + '_ {
        MergeIds::new(
            self.shards
                .iter()
                .map(|s| s.unsent.iter().copied().peekable())
                .collect(),
        )
    }

    /// Unsent results belonging to shard `s` (rids congruent to `s`
    /// modulo the shard count), in id order.
    pub fn shard_unsent(&self, s: usize) -> impl Iterator<Item = ResultId> + '_ {
        self.shards[s].unsent.iter().copied()
    }

    /// Number of unsent results.
    pub fn n_unsent(&self) -> usize {
        self.shards.iter().map(|s| s.unsent.len()).sum()
    }

    /// Live results currently assigned to `client`.
    pub fn live_count(&self, client: ClientId) -> u32 {
        self.shards[self.client_shard(client)]
            .live_by_client
            .get(&client)
            .copied()
            .unwrap_or(0)
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
        let id = WuId(self.n_wus as u32);
        let (s, _) = self.wu_slot(id);
        self.shards[s].wus.push(WorkUnit {
            id,
            spec,
            state: WuState::Active,
            canonical: None,
            results_created: 0,
            created_at: now,
            finished_at: None,
            quorum_override: None,
        });
        self.n_wus += 1;
        self.wu_tally[WuState::Active as usize] += 1;
    }

    fn raw_create_result(&mut self, wu: WuId) {
        let id = ResultId(self.n_results as u32);
        let (s, _) = self.rid_slot(id);
        self.shards[s].results.push(ResultRec {
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
        self.shards[s].unsent.insert(id);
        self.n_results += 1;
        let ws = wu.0 as usize % self.n_shards;
        self.shards[ws].by_wu.entry(wu).or_default().push(id);
        self.wu_mut(wu).results_created += 1;
    }

    fn raw_mark_sent(&mut self, rid: ResultId, client: ClientId, now: SimTime, deadline: SimTime) {
        let (s, l) = self.rid_slot(rid);
        let r = &mut self.shards[s].results[l];
        r.state = ResultState::InProgress;
        r.client = Some(client);
        r.sent_at = Some(now);
        r.report_deadline = Some(deadline);
        self.shards[s].unsent.remove(&rid);
        let cs = self.client_shard(client);
        *self.shards[cs].live_by_client.entry(client).or_insert(0) += 1;
    }

    fn raw_mark_reported(
        &mut self,
        rid: ResultId,
        outcome: ResultOutcome,
        fingerprint: Option<OutputFingerprint>,
        now: SimTime,
    ) {
        let (s, l) = self.rid_slot(rid);
        let r = &mut self.shards[s].results[l];
        r.state = ResultState::Over;
        r.outcome = Some(outcome);
        r.fingerprint = fingerprint;
        r.reported_at = Some(now);
        if let Some(c) = r.client {
            let cs = self.client_shard(c);
            if let Some(n) = self.shards[cs].live_by_client.get_mut(&c) {
                *n = n.saturating_sub(1);
            }
        }
    }

    fn raw_cancel_unsent(&mut self, rid: ResultId) {
        let (s, l) = self.rid_slot(rid);
        let r = &mut self.shards[s].results[l];
        r.state = ResultState::Over;
        r.outcome = Some(ResultOutcome::WuDone);
        self.shards[s].unsent.remove(&rid);
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

    /// Canonical snapshot of the two row tables, iterated in global id
    /// order. The secondary indexes are derived and excluded, so two
    /// equal databases encode to byte-identical vectors **at any shard
    /// count** (the recovery audit's comparison).
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 + self.n_wus * 64 + self.n_results * 32);
        e.u32(self.n_wus as u32);
        for w in self.all_wus_in_id_order() {
            e.bytes(&w.spec.to_bytes());
            e.u8(w.state.to_wire());
            e.opt_u64(w.canonical.map(|f| f.0));
            e.u32(w.results_created);
            e.u64(w.created_at.as_micros());
            e.opt_u64(w.finished_at.map(SimTime::as_micros));
            e.opt_u32(w.quorum_override);
        }
        e.u32(self.n_results as u32);
        for r in self.all_results_in_id_order() {
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
        e.into_vec()
    }

    /// Rebuilds a single-shard database from an [`Db::encode_state`]
    /// snapshot section, reconstructing every secondary index (call
    /// [`Db::reshard`] afterwards to adopt an engine's shard count).
    /// The journal handle starts disabled.
    pub fn decode_state(b: &[u8]) -> Result<Db, WireError> {
        let mut d = Dec::new(b);
        let n_wus = d.u32()? as usize;
        let mut wus = Vec::with_capacity(n_wus.min(1 << 16));
        for i in 0..n_wus {
            let spec = WorkUnitSpec::from_bytes(&d.bytes()?)?;
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
            let wu = WuId(d.u32()?);
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
        let mut shard = DbShard::default();
        for r in &results {
            shard.by_wu.entry(r.wu).or_default().push(r.id);
            match r.state {
                ResultState::Unsent => {
                    shard.unsent.insert(r.id);
                }
                ResultState::InProgress => {
                    if let Some(c) = r.client {
                        *shard.live_by_client.entry(c).or_insert(0) += 1;
                    }
                }
                ResultState::Over => {}
            }
        }
        let mut wu_tally = [0; 3];
        for w in &wus {
            wu_tally[w.state as usize] += 1;
        }
        shard.wus = wus;
        shard.results = results;
        Ok(Db {
            n_shards: 1,
            n_wus: shard.wus.len(),
            n_results: shard.results.len(),
            wu_tally,
            shards: vec![shard],
            journal: Journal::disabled(),
        })
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

/// K-way merge of per-shard ascending id iterators into one global
/// ascending stream. Shard counts are small (≤ a few dozen), so a
/// linear scan over the heads beats a heap.
struct MergeIds<I: Iterator<Item = ResultId>> {
    heads: Vec<std::iter::Peekable<I>>,
}

impl<I: Iterator<Item = ResultId>> MergeIds<I> {
    fn new(heads: Vec<std::iter::Peekable<I>>) -> Self {
        MergeIds { heads }
    }
}

impl<I: Iterator<Item = ResultId>> Iterator for MergeIds<I> {
    type Item = ResultId;
    fn next(&mut self) -> Option<ResultId> {
        if self.heads.len() == 1 {
            return self.heads[0].next();
        }
        let mut best: Option<(usize, ResultId)> = None;
        for (i, it) in self.heads.iter_mut().enumerate() {
            if let Some(&id) = it.peek() {
                if best.map(|(_, b)| id < b).unwrap_or(true) {
                    best = Some((i, id));
                }
            }
        }
        let (i, _) = best?;
        self.heads[i].next()
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
        assert_eq!(db.live_count(c), 1);
        assert!(db.client_has_wu(c, wu));
        assert_eq!(db.n_unsent(), 1);
        assert!(db.mark_reported(
            rid,
            ResultOutcome::Success,
            Some(OutputFingerprint(7)),
            SimTime::from_secs(50),
        ));
        assert_eq!(db.live_count(c), 0);
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
        assert_eq!(
            replayed.live_count(ClientId(1)),
            live.live_count(ClientId(1))
        );
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

    /// The sharded database is indistinguishable from the single-shard
    /// one: same ids, same iteration order, byte-identical snapshots.
    #[test]
    fn sharded_db_is_bit_identical_to_single_shard() {
        for n in [1usize, 2, 3, 4, 8] {
            let mut base = Db::new();
            let mut sharded = Db::with_shards(n);
            exercise(&mut base);
            exercise(&mut sharded);
            assert_eq!(
                sharded.encode_state(),
                base.encode_state(),
                "snapshot differs at {n} shards"
            );
            assert_eq!(
                sharded.unsent_results().collect::<Vec<_>>(),
                base.unsent_results().collect::<Vec<_>>(),
                "unsent order differs at {n} shards"
            );
            assert_eq!(sharded.n_unsent(), base.n_unsent());
            for wu in base.wu_ids() {
                assert_eq!(sharded.results_of(wu), base.results_of(wu));
            }
            for c in [1u32, 2, 3] {
                assert_eq!(
                    sharded.live_count(ClientId(c)),
                    base.live_count(ClientId(c))
                );
            }
            assert_eq!(sharded.all_wus_terminal(), base.all_wus_terminal());
            for s in [WuState::Active, WuState::Validated, WuState::Failed] {
                assert_eq!(sharded.count_state(s), base.count_state(s), "{s:?}");
            }
        }
    }

    #[test]
    fn reshard_preserves_everything() {
        let mut db = Db::new();
        exercise(&mut db);
        for n in [4usize, 2, 8, 1, 3] {
            let enc = db.encode_state();
            let unsent: Vec<_> = db.unsent_results().collect();
            db.reshard(n);
            assert_eq!(db.n_shards(), n);
            assert_eq!(db.encode_state(), enc, "reshard({n}) changed the snapshot");
            assert_eq!(db.unsent_results().collect::<Vec<_>>(), unsent);
            assert_eq!(db.live_count(ClientId(1)), 0);
            // Mutators still work after resharding.
            let extra = db.create_result(WuId(0));
            assert!(db.cancel_unsent(extra));
        }
    }

    #[test]
    fn shard_wu_ids_partition_the_id_space() {
        let mut db = Db::with_shards(3);
        for i in 0..10 {
            db.insert_workunit(spec(&format!("w{i}")), SimTime::ZERO);
        }
        let mut all: Vec<u32> = Vec::new();
        for s in 0..3 {
            let ids: Vec<u32> = db.shard_wu_ids(s).map(|w| w.0).collect();
            assert!(ids.iter().all(|i| *i as usize % 3 == s));
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            all.extend(ids);
        }
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
    }
}
