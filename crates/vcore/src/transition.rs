//! Transitioner decisions: drive each work unit through its lifecycle.
//!
//! After every report (and on deadline expiry) the transitioner decides,
//! per work unit:
//! 1. run the validator if enough successful results arrived;
//! 2. on quorum → mark validated, cancel now-redundant unsent replicas;
//! 3. otherwise, top the WU back up with fresh replicas so that the
//!    number of results that can still succeed reaches the effective
//!    quorum — unless `max_total_results` is exhausted, in which case
//!    the WU fails permanently.
//!
//! The effective quorum is the spec's `min_quorum` unless the trust
//! policy overrode it ([`crate::workunit::WorkUnit::effective_quorum`]):
//! a WU riding on a single trusted host validates from that one result.

use crate::db::Db;
use crate::sched::WorkerPool;
use crate::types::{OutputFingerprint, ResultId, WuId};
use crate::validate::{check_quorum, Verdict};
use crate::workunit::{ResultState, WuState};
use vmr_desim::SimTime;

/// What the transitioner did to a work unit in one pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Nothing to do (quorum pending, enough replicas in flight).
    None,
    /// The WU just validated with this canonical fingerprint; the listed
    /// results agreed (and now hold credit-worthy canonical copies).
    Validated {
        /// Canonical output fingerprint.
        canonical: OutputFingerprint,
        /// Results whose outputs matched the canonical fingerprint.
        agreeing: Vec<ResultId>,
    },
    /// New replicas were created to replace errors/disagreements.
    Retried {
        /// The freshly created result ids.
        new_results: Vec<ResultId>,
    },
    /// The WU ran out of retry budget and failed.
    Failed,
}

/// Runs one transitioner pass over `wu`. Mutates the database and
/// returns what changed so the engine can fire policy hooks.
pub fn transition_wu(db: &mut Db, wu: WuId, now: SimTime) -> Transition {
    if db.wu(wu).state != WuState::Active {
        return Transition::None;
    }
    let rids = db.results_of(wu).to_vec();
    // Successful reports awaiting validation.
    let successes: Vec<ResultId> = rids
        .iter()
        .copied()
        .filter(|&r| db.result(r).is_success())
        .collect();
    let fingerprints: Vec<OutputFingerprint> = successes
        .iter()
        .map(|&r| {
            db.result(r)
                .fingerprint
                .expect("success without fingerprint")
        })
        .collect();
    let min_quorum = db.wu(wu).effective_quorum();

    if let Verdict::Valid {
        canonical,
        agreeing,
        ..
    } = check_quorum(&fingerprints, min_quorum)
    {
        let agreeing: Vec<ResultId> = agreeing.into_iter().map(|i| successes[i]).collect();
        db.mark_wu_validated(wu, canonical, now);
        // Unsent replicas are redundant once the WU validates;
        // in-progress ones will report as WuDone.
        for rid in rids {
            if db.result(rid).state == ResultState::Unsent {
                db.cancel_unsent(rid);
            }
        }
        return Transition::Validated {
            canonical,
            agreeing,
        };
    }

    // No quorum yet. Count results that can still contribute towards a
    // quorum: live ones, plus the *largest agreeing group* of successes
    // (two disagreeing outputs can never both be part of one quorum).
    let live = rids.iter().filter(|&&r| db.result(r).is_live()).count() as u32;
    let max_group = {
        let mut best = 0u32;
        for fp in &fingerprints {
            let n = fingerprints.iter().filter(|g| *g == fp).count() as u32;
            best = best.max(n);
        }
        best
    };
    let potential = live + max_group;
    if potential >= min_quorum {
        return Transition::None;
    }
    let deficit = min_quorum - potential;
    let spec_max = db.wu(wu).spec.max_total_results;
    let created = db.wu(wu).results_created;
    let budget = spec_max.saturating_sub(created);
    if budget == 0 {
        db.mark_wu_failed(wu, now);
        return Transition::Failed;
    }
    let n_new = deficit.min(budget);
    let new_results: Vec<ResultId> = (0..n_new).map(|_| db.create_result(wu)).collect();
    Transition::Retried { new_results }
}

/// One transitioner pass over every work unit, in id order. Returns the
/// non-trivial transitions in that order. The engine never needs a
/// whole-table pass (it runs [`transition_wu`] on a work unit at each
/// report); the `_pool` argument is vestigial — see
/// [`crate::sched::WorkerPool`].
pub fn run_transition_pass(
    db: &mut Db,
    now: SimTime,
    _pool: &WorkerPool,
) -> Vec<(WuId, Transition)> {
    let mut out = Vec::new();
    for wu in (0..db.n_wus() as u32).map(WuId) {
        match transition_wu(db, wu, now) {
            Transition::None => {}
            t => out.push((wu, t)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClientId;
    use crate::workunit::{ResultOutcome, WorkUnitSpec};

    fn setup() -> (Db, WuId) {
        let mut db = Db::new();
        let wu = db.insert_workunit(WorkUnitSpec::basic("w", "app", 1e9), SimTime::ZERO);
        (db, wu)
    }

    fn send_and_report(db: &mut Db, rid: ResultId, client: u32, fp: u64) {
        db.mark_sent(
            rid,
            ClientId(client),
            SimTime::ZERO,
            SimTime::from_secs(10_000),
        );
        db.mark_reported(
            rid,
            ResultOutcome::Success,
            Some(OutputFingerprint(fp)),
            SimTime::from_secs(1),
        );
    }

    #[test]
    fn quorum_validates_wu() {
        let (mut db, wu) = setup();
        let rids = db.results_of(wu).to_vec();
        send_and_report(&mut db, rids[0], 0, 42);
        assert_eq!(
            transition_wu(&mut db, wu, SimTime::from_secs(1)),
            Transition::None
        );
        send_and_report(&mut db, rids[1], 1, 42);
        match transition_wu(&mut db, wu, SimTime::from_secs(2)) {
            Transition::Validated {
                canonical,
                agreeing,
            } => {
                assert_eq!(canonical, OutputFingerprint(42));
                assert_eq!(agreeing.len(), 2);
            }
            t => panic!("expected Validated, got {t:?}"),
        }
        assert_eq!(db.wu(wu).state, WuState::Validated);
        assert_eq!(db.wu(wu).finished_at, Some(SimTime::from_secs(2)));
        // Idempotent afterwards.
        assert_eq!(
            transition_wu(&mut db, wu, SimTime::from_secs(3)),
            Transition::None
        );
    }

    #[test]
    fn disagreement_spawns_retry() {
        let (mut db, wu) = setup();
        let rids = db.results_of(wu).to_vec();
        send_and_report(&mut db, rids[0], 0, 1);
        send_and_report(&mut db, rids[1], 1, 2); // byzantine disagreement
        match transition_wu(&mut db, wu, SimTime::from_secs(2)) {
            Transition::Retried { new_results } => {
                // {1, 2} in hand: largest agreeing group = 1, live = 0,
                // so one more replica is needed to possibly reach quorum.
                assert_eq!(new_results.len(), 1);
            }
            t => panic!("expected Retried, got {t:?}"),
        }
    }

    #[test]
    fn timeout_spawns_replacement() {
        let (mut db, wu) = setup();
        let rids = db.results_of(wu).to_vec();
        db.mark_sent(rids[0], ClientId(0), SimTime::ZERO, SimTime::from_secs(10));
        db.mark_timed_out(rids[0], SimTime::from_secs(10));
        match transition_wu(&mut db, wu, SimTime::from_secs(10)) {
            Transition::Retried { new_results } => assert_eq!(new_results.len(), 1),
            t => panic!("expected Retried, got {t:?}"),
        }
        assert_eq!(db.results_of(wu).len(), 3);
    }

    #[test]
    fn budget_exhaustion_fails_wu() {
        let mut db = Db::new();
        let mut spec = WorkUnitSpec::basic("w", "app", 1e9);
        spec.max_total_results = 2; // no retry budget at all
        let wu = db.insert_workunit(spec, SimTime::ZERO);
        let rids = db.results_of(wu).to_vec();
        for (i, rid) in rids.iter().enumerate() {
            db.mark_sent(
                *rid,
                ClientId(i as u32),
                SimTime::ZERO,
                SimTime::from_secs(10),
            );
            db.mark_timed_out(*rid, SimTime::from_secs(10));
        }
        assert_eq!(
            transition_wu(&mut db, wu, SimTime::from_secs(10)),
            Transition::Failed
        );
        assert_eq!(db.wu(wu).state, WuState::Failed);
    }

    #[test]
    fn validation_cancels_unsent_spares() {
        let mut db = Db::new();
        let mut spec = WorkUnitSpec::basic("w", "app", 1e9);
        spec.target_nresults = 3;
        spec.min_quorum = 2;
        let wu = db.insert_workunit(spec, SimTime::ZERO);
        let rids = db.results_of(wu).to_vec();
        send_and_report(&mut db, rids[0], 0, 9);
        send_and_report(&mut db, rids[1], 1, 9);
        // rids[2] never sent.
        match transition_wu(&mut db, wu, SimTime::from_secs(2)) {
            Transition::Validated { .. } => {}
            t => panic!("{t:?}"),
        }
        assert_eq!(
            db.result(rids[2]).outcome,
            Some(ResultOutcome::WuDone),
            "spare replica cancelled"
        );
        assert_eq!(db.n_unsent(), 0);
    }

    #[test]
    fn quorum_override_validates_from_a_single_result() {
        let (mut db, wu) = setup();
        db.set_quorum_override(wu, Some(1));
        let rids = db.results_of(wu).to_vec();
        db.cancel_unsent(rids[1]); // trust policy cancelled the spare
        send_and_report(&mut db, rids[0], 0, 42);
        match transition_wu(&mut db, wu, SimTime::from_secs(2)) {
            Transition::Validated {
                canonical,
                agreeing,
            } => {
                assert_eq!(canonical, OutputFingerprint(42));
                assert_eq!(agreeing.len(), 1);
            }
            t => panic!("expected Validated, got {t:?}"),
        }
    }

    #[test]
    fn cleared_override_restores_spec_quorum() {
        let (mut db, wu) = setup();
        db.set_quorum_override(wu, Some(1));
        db.set_quorum_override(wu, None);
        let rids = db.results_of(wu).to_vec();
        send_and_report(&mut db, rids[0], 0, 42);
        assert_eq!(
            transition_wu(&mut db, wu, SimTime::from_secs(1)),
            Transition::None,
            "one result must not validate once the override is cleared"
        );
    }

    #[test]
    fn in_progress_results_block_retry() {
        let (mut db, wu) = setup();
        let rids = db.results_of(wu).to_vec();
        db.mark_sent(
            rids[0],
            ClientId(0),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        // One in progress + one unsent = potential 2 >= quorum 2.
        assert_eq!(
            transition_wu(&mut db, wu, SimTime::from_secs(1)),
            Transition::None
        );
        assert_eq!(db.results_of(wu).len(), 2, "no spurious extra replicas");
    }

    /// The frozen benchmark trace leg drives the transitioner through
    /// the whole-table pass: it must be `transition_wu` over every WU
    /// in id order, returning the non-trivial transitions in that order.
    #[test]
    fn pass_matches_sequential_transition_wu() {
        let now = SimTime::from_secs(20);
        // A mix of outcomes: agreeing quorum, disagreement (retry),
        // out of budget (fail), and nothing to do.
        let build = || {
            let mut db = Db::new();
            for i in 0..17u32 {
                let mut spec = WorkUnitSpec::basic(format!("wu{i}"), "app", 1e9);
                if i % 4 == 2 {
                    spec.max_total_results = 2;
                }
                let wu = db.insert_workunit(spec, SimTime::ZERO);
                let rids = db.results_of(wu).to_vec();
                match i % 4 {
                    0 => {
                        send_and_report(&mut db, rids[0], 0, 42);
                        send_and_report(&mut db, rids[1], 1, 42);
                    }
                    1 => {
                        send_and_report(&mut db, rids[0], 0, 100);
                        send_and_report(&mut db, rids[1], 1, 101);
                    }
                    2 => {
                        for (k, rid) in rids.iter().enumerate() {
                            db.mark_sent(
                                *rid,
                                ClientId(k as u32),
                                SimTime::ZERO,
                                SimTime::from_secs(10),
                            );
                            db.mark_timed_out(*rid, SimTime::from_secs(10));
                        }
                    }
                    _ => {}
                }
            }
            db
        };
        let mut reference = build();
        let mut expected = Vec::new();
        for wu in reference.wu_ids().collect::<Vec<_>>() {
            match transition_wu(&mut reference, wu, now) {
                Transition::None => {}
                t => expected.push((wu, t)),
            }
        }
        let mut db = build();
        let got = run_transition_pass(&mut db, now, &WorkerPool::sequential());
        assert_eq!(got, expected);
        assert_eq!(got.len(), 13, "every fourth work unit has nothing to do");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "WU-id order");
        assert!(got
            .iter()
            .any(|(_, t)| matches!(t, Transition::Validated { .. })));
        assert!(got
            .iter()
            .any(|(_, t)| matches!(t, Transition::Retried { .. })));
        assert!(got.iter().any(|(_, t)| *t == Transition::Failed));
        assert_eq!(db.encode_state(), reference.encode_state());
    }
}
