//! The assimilator: hands validated canonical results to the project.
//!
//! In BOINC, the assimilator daemon is the project-defined sink that
//! consumes each work unit's canonical result (writes it to the science
//! database, archives files…). Here it is an ordered registry of
//! canonical outputs per application, which BOINC-MR's merge step reads
//! ("The final output from each reducer is uploaded back to the server,
//! and can be merged into a single file, if necessary").

use crate::db::Db;
use crate::types::{ClientId, OutputFingerprint, WuId};
use vmr_desim::SimTime;
use vmr_durable::{Dec, Enc, Journal, StateChange, WireError};

/// One assimilated (validated, canonical) work-unit outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Assimilated {
    /// The work unit.
    pub wu: WuId,
    /// Work unit name (e.g. `mr0_red_2`).
    pub wu_name: String,
    /// Application name (e.g. `mr0_red`).
    pub app: String,
    /// Canonical output fingerprint.
    pub canonical: OutputFingerprint,
    /// Clients holding the canonical output.
    pub holders: Vec<ClientId>,
    /// When it validated.
    pub at: SimTime,
}

/// Ordered sink of canonical results.
#[derive(Debug, Default)]
pub struct Assimilator {
    records: Vec<Assimilated>,
    /// WAL handle (disabled by default).
    journal: Journal,
}

impl Assimilator {
    /// An empty assimilator.
    pub fn new() -> Self {
        Assimilator::default()
    }

    /// Attaches the engine's WAL handle.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Consumes one validated work unit.
    ///
    /// The WAL record stores only `{wu, holders, at}`; the name, app
    /// and canonical fingerprint are functions of the WU row, which the
    /// replayed database already holds by the time this record is
    /// applied (the `WuValidated` record precedes it in the same
    /// committed event).
    pub fn assimilate(&mut self, rec: Assimilated) {
        // The record owns its holder list: built only for a live log.
        if self.journal.enabled() {
            self.journal.append(&StateChange::Assimilated {
                wu: rec.wu.0,
                holders: rec.holders.iter().map(|c| c.0).collect(),
                at_us: rec.at.as_micros(),
            });
        }
        self.records.push(rec);
    }

    /// Applies one replayed change record, re-deriving the denormalized
    /// fields from `db`; `Ok(false)` when the record belongs to another
    /// subsystem, [`WireError::BadId`] when it names a work unit `db`
    /// does not hold.
    pub fn apply_change(&mut self, c: &StateChange, db: &Db) -> Result<bool, WireError> {
        match c {
            StateChange::Assimilated { wu, holders, at_us } => {
                let wu = db.held_wu(*wu)?;
                let w = db.wu(wu);
                let rec = Assimilated {
                    wu,
                    wu_name: w.spec.name.clone(),
                    app: w.spec.app.clone(),
                    canonical: w.canonical.unwrap_or(OutputFingerprint(0)),
                    holders: holders.iter().copied().map(ClientId).collect(),
                    at: SimTime::from_micros(*at_us),
                };
                self.records.push(rec);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Canonical snapshot of the record list.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(16 + self.records.len() * 48);
        self.encode_state_into(&mut e);
        e.into_vec()
    }

    /// Appends [`Assimilator::encode_state`]'s bytes to `e`.
    pub fn encode_state_into(&self, e: &mut Enc) {
        e.u32(self.records.len() as u32);
        for r in &self.records {
            e.u32(r.wu.0);
            e.str(&r.wu_name);
            e.str(&r.app);
            e.u64(r.canonical.0);
            e.u32(r.holders.len() as u32);
            for h in &r.holders {
                e.u32(h.0);
            }
            e.u64(r.at.as_micros());
        }
    }

    /// Rebuilds an assimilator from an [`Assimilator::encode_state`]
    /// snapshot section. The journal handle starts disabled.
    pub fn decode_state(b: &[u8]) -> Result<Assimilator, WireError> {
        let mut d = Dec::new(b);
        let n = d.u32()? as usize;
        let mut a = Assimilator::new();
        for _ in 0..n {
            let wu = WuId(d.u32()?);
            let wu_name = d.str()?;
            let app = d.str()?;
            let canonical = OutputFingerprint(d.u64()?);
            let nh = d.u32()? as usize;
            let mut holders = Vec::with_capacity(nh.min(1024));
            for _ in 0..nh {
                holders.push(ClientId(d.u32()?));
            }
            let at = SimTime::from_micros(d.u64()?);
            a.records.push(Assimilated {
                wu,
                wu_name,
                app,
                canonical,
                holders,
                at,
            });
        }
        d.finish()?;
        Ok(a)
    }

    /// All assimilated records, in validation order.
    pub fn all(&self) -> &[Assimilated] {
        &self.records
    }

    /// Number of assimilated work units.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was assimilated yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The records of one application, in validation order.
    fn records_of<'a>(a: &'a Assimilator, app: &str) -> Vec<&'a Assimilated> {
        a.all().iter().filter(|r| r.app == app).collect()
    }

    fn rec(wu: u32, app: &str, t: u64) -> Assimilated {
        Assimilated {
            wu: WuId(wu),
            wu_name: format!("{app}_{wu}"),
            app: app.to_string(),
            canonical: OutputFingerprint(wu as u64 * 7),
            holders: vec![ClientId(0), ClientId(1)],
            at: SimTime::from_secs(t),
        }
    }

    #[test]
    fn preserves_validation_order() {
        let mut a = Assimilator::new();
        a.assimilate(rec(2, "map", 5));
        a.assimilate(rec(0, "map", 7));
        a.assimilate(rec(1, "red", 9));
        assert_eq!(a.len(), 3);
        let maps = records_of(&a, "map");
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].wu, WuId(2));
        assert_eq!(maps[1].wu, WuId(0));
        assert_eq!(records_of(&a, "red").len(), 1);
        assert!(records_of(&a, "ghost").is_empty());
    }

    #[test]
    fn empty_state() {
        let a = Assimilator::new();
        assert!(a.is_empty());
        assert!(a.all().is_empty());
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let mut a = Assimilator::new();
        a.assimilate(rec(2, "map", 5));
        a.assimilate(rec(0, "map", 7));
        a.assimilate(rec(1, "red", 9));
        let enc = a.encode_state();
        let back = Assimilator::decode_state(&enc).unwrap();
        assert_eq!(back.encode_state(), enc);
        assert_eq!(back.all(), a.all());
        assert_eq!(records_of(&back, "map").len(), 2);
    }

    #[test]
    fn wal_replay_rederives_from_db() {
        use crate::workunit::{ResultOutcome, WorkUnitSpec};
        use vmr_durable::{recover, DurabilityPlan};
        let j = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        // A journaled db + assimilator validating one WU end to end.
        let mut db = Db::new();
        db.set_journal(j.clone());
        let mut live = Assimilator::new();
        live.set_journal(j.clone());
        let wu = db.insert_workunit(
            WorkUnitSpec::basic("mr0_map_0", "mr0_map", 1e9),
            SimTime::ZERO,
        );
        let rids = db.results_of(wu).to_vec();
        for (i, &rid) in rids.iter().enumerate() {
            db.mark_sent(
                rid,
                ClientId(i as u32),
                SimTime::ZERO,
                SimTime::from_secs(100),
            );
            db.mark_reported(
                rid,
                ResultOutcome::Success,
                Some(OutputFingerprint(42)),
                SimTime::from_secs(9),
            );
        }
        db.mark_wu_validated(wu, OutputFingerprint(42), SimTime::from_secs(9));
        live.assimilate(Assimilated {
            wu,
            wu_name: "mr0_map_0".into(),
            app: "mr0_map".into(),
            canonical: OutputFingerprint(42),
            holders: vec![ClientId(0), ClientId(1)],
            at: SimTime::from_secs(9),
        });
        j.commit();
        let r = recover(&j.log_bytes()).unwrap();
        let mut rdb = Db::new();
        let mut ra = Assimilator::new();
        for c in &r.tail {
            if !rdb.apply_change(c).unwrap() {
                assert!(ra.apply_change(c, &rdb).unwrap(), "unhandled {c:?}");
            }
        }
        assert_eq!(ra.encode_state(), live.encode_state());
        assert_eq!(ra.all(), live.all());
    }
}
