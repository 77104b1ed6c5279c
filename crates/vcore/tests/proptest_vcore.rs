//! Property tests for the middleware's replication/validation state
//! machine and the backoff policy.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;
use vmr_desim::{RngStream, SimDuration, SimTime};
use vmr_durable::{recover, DurabilityPlan, Journal};
use vmr_vcore::transition::{transition_wu, Transition};
use vmr_vcore::{
    check_quorum, Backoff, ClientId, Db, Feeder, OutputFingerprint, ResultId, ResultOutcome,
    Verdict, WorkUnitSpec, WorkerPool, WuId, WuState,
};

/// The O(1) reads (`count_state`, `all_wus_terminal`) against the full
/// table scan they replaced.
fn tally_matches_scan(db: &Db, what: &str) -> Result<(), TestCaseError> {
    for s in [WuState::Active, WuState::Validated, WuState::Failed] {
        let scanned = db.wu_ids().filter(|&w| db.wu(w).state == s).count();
        prop_assert_eq!(db.count_state(s), scanned, "{}: count_state({:?})", what, s);
    }
    let scanned = db.wu_ids().all(|w| db.wu(w).state != WuState::Active);
    prop_assert_eq!(db.all_wus_terminal(), scanned, "{}: all_wus_terminal", what);
    Ok(())
}

proptest! {
    /// The per-state work-unit tally equals a scan of the table after
    /// every step of a random mutator sequence (terminal work units get
    /// re-marked, results get reported against them, new work arrives
    /// after completion), and on every other way a `Db` comes to exist:
    /// snapshot decode, and WAL replay record by record.
    #[test]
    fn wu_tally_equals_table_scan(
        ops in proptest::collection::vec((0u8..12, 0u32..1000), 1..60),
    ) {
        let journal = Journal::new(&DurabilityPlan::new(0.0)).unwrap();
        let mut db = Db::new();
        db.set_journal(journal.clone());
        tally_matches_scan(&db, "empty")?;
        for (step, (op, pick)) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            let wu = WuId(pick % db.n_wus().max(1) as u32);
            let rid = ResultId(pick % db.n_results().max(1) as u32);
            match op {
                0 | 1 => {
                    db.insert_workunit(WorkUnitSpec::basic(format!("w{step}"), "app", 1e9), now);
                }
                _ if db.n_wus() == 0 => {}
                2 => {
                    let unsent: Vec<_> = db.unsent_results().collect();
                    if let Some(&r) = unsent.get(pick as usize % unsent.len().max(1)) {
                        db.mark_sent(r, ClientId(pick % 5), now, now + SimDuration::from_secs(50));
                    }
                }
                3 => {
                    db.mark_reported(rid, ResultOutcome::Success, Some(OutputFingerprint(7)), now);
                }
                4 => {
                    db.mark_timed_out(rid, now);
                }
                5 => {
                    db.cancel_unsent(rid);
                }
                6 => {
                    db.create_result(wu);
                }
                7 => db.set_quorum_override(wu, Some(1 + pick % 3)),
                // Whatever state `wu` is in, terminal ones included.
                8 | 9 => db.mark_wu_validated(wu, OutputFingerprint(pick as u64), now),
                _ => db.mark_wu_failed(wu, now),
            }
            tally_matches_scan(&db, "live")?;

            let decoded = Db::decode_state(&db.encode_state()).unwrap();
            tally_matches_scan(&decoded, "decode_state")?;
        }

        journal.commit();
        let tail = recover(&journal.log_bytes()).unwrap().tail;
        let mut replayed = Db::new();
        for c in &tail {
            prop_assert!(replayed.apply_change(c).unwrap(), "unhandled {:?}", c);
            tally_matches_scan(&replayed, "apply_change")?;
        }
        // Same rows, and each side's tally equals its own scan.
        prop_assert_eq!(replayed.encode_state(), db.encode_state());
    }

    /// The feeder cache against its model: the `take(slots)` prefix of
    /// the unsent set as of the last refill, minus every id evicted
    /// since (the cache is allowed to lag the database in between).
    /// Strictly ascending after every step — the invariant `remove`'s
    /// binary search relies on — and evicting an id that is not cached
    /// changes nothing.
    #[test]
    fn feeder_cache_matches_model(
        ops in proptest::collection::vec((0u8..8, 0u32..1000), 1..80),
    ) {
        let pool = WorkerPool::sequential();
        let mut db = Db::new();
        let mut feeder = Feeder::new(1);
        let mut snapshot: Vec<ResultId> = Vec::new();
        let mut evicted: HashSet<ResultId> = HashSet::new();
        for (step, (op, pick)) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            let unsent: Vec<ResultId> = db.unsent_results().collect();
            let some_unsent = unsent.get(pick as usize % unsent.len().max(1)).copied();
            match op {
                0 | 1 => {
                    db.insert_workunit(WorkUnitSpec::basic(format!("w{step}"), "app", 1e9), now);
                }
                2 => {
                    if let Some(r) = some_unsent {
                        db.mark_sent(r, ClientId(pick % 5), now, now + SimDuration::from_secs(50));
                    }
                }
                3 => {
                    if let Some(r) = some_unsent {
                        db.cancel_unsent(r);
                    }
                }
                4 | 5 => {
                    let slots = pick as usize % 12;
                    feeder.refill(&db, slots, &pool);
                    snapshot = unsent.into_iter().take(slots).collect();
                    evicted.clear();
                }
                _ => {
                    // Any id: cached, already evicted, or never created.
                    let rid = ResultId(pick % (db.n_results() as u32 + 3));
                    let before: Vec<ResultId> = feeder.candidates().collect();
                    feeder.remove(rid);
                    if !before.contains(&rid) {
                        prop_assert_eq!(&feeder.candidates().collect::<Vec<_>>(), &before);
                    }
                    evicted.insert(rid);
                }
            }
            let cache: Vec<ResultId> = feeder.candidates().collect();
            prop_assert!(cache.windows(2).all(|w| w[0] < w[1]), "not ascending: {:?}", cache);
            let model: Vec<ResultId> = snapshot
                .iter()
                .copied()
                .filter(|r| !evicted.contains(r))
                .collect();
            prop_assert_eq!(&cache, &model);
            prop_assert_eq!(feeder.len(), model.len());
            prop_assert_eq!(feeder.is_empty(), model.is_empty());
        }
    }

    /// The quorum verdict is permutation-invariant in the *canonical
    /// choice* and always internally consistent: agreeing results all
    /// share the canonical fingerprint, dissenting ones never do, and
    /// together they partition the input.
    #[test]
    fn quorum_verdict_consistent(
        fps in proptest::collection::vec(0u64..6, 0..12),
        quorum in 1u32..5,
    ) {
        let fps: Vec<OutputFingerprint> = fps.into_iter().map(OutputFingerprint).collect();
        match check_quorum(&fps, quorum) {
            Verdict::Valid { canonical, agreeing, dissenting } => {
                prop_assert!(agreeing.len() as u32 >= quorum);
                for &i in &agreeing {
                    prop_assert_eq!(fps[i], canonical);
                }
                for &i in &dissenting {
                    prop_assert_ne!(fps[i], canonical);
                }
                let mut all: Vec<usize> = agreeing.iter().chain(&dissenting).copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..fps.len()).collect::<Vec<_>>());
                // No strictly larger agreeing group exists.
                for fp in &fps {
                    let n = fps.iter().filter(|g| *g == fp).count();
                    prop_assert!(n <= agreeing.len());
                }
            }
            Verdict::Inconclusive => {
                // No fingerprint reaches the quorum.
                for fp in &fps {
                    let n = fps.iter().filter(|g| *g == fp).count() as u32;
                    prop_assert!(n < quorum || quorum == 0);
                }
            }
        }
    }

    /// Driving a work unit with an arbitrary report schedule never
    /// breaks the invariants: results_created ≤ max_total_results; a
    /// validated WU has a canonical fingerprint matching ≥ quorum
    /// successes; a failed WU exhausted its budget.
    #[test]
    fn transitioner_invariants(
        // Each event: (client_pick, outcome: 0=honest,1=corrupt,2=error,3=timeout)
        events in proptest::collection::vec((0u32..12, 0u8..4), 1..30),
        quorum in 1u32..4,
        extra_replicas in 0u32..3,
    ) {
        let mut db = Db::new();
        let mut spec = WorkUnitSpec::basic("w", "app", 1e9);
        spec.min_quorum = quorum;
        spec.target_nresults = quorum + extra_replicas;
        spec.max_total_results = (quorum + extra_replicas) * 3;
        let wu = db.insert_workunit(spec, SimTime::ZERO);

        let honest = OutputFingerprint(7777);
        let mut t = 1u64;
        #[allow(clippy::explicit_counter_loop)]
        for (client_pick, outcome) in events {
            if db.wu(wu).state != WuState::Active {
                break;
            }
            // Send an unsent result to a client that doesn't have one.
            let unsent: Vec<_> = db.unsent_results().collect();
            let Some(&rid) = unsent.first() else { break };
            // Find an eligible client deterministically from the pick.
            let mut client = None;
            for off in 0..12u32 {
                let c = ClientId((client_pick + off) % 12);
                if !db.client_has_wu(c, wu) {
                    client = Some(c);
                    break;
                }
            }
            let Some(c) = client else { break };
            let now = SimTime::from_secs(t);
            t += 1;
            db.mark_sent(rid, c, now, now + SimDuration::from_secs(100));
            match outcome {
                0 => { db.mark_reported(rid, ResultOutcome::Success, Some(honest), now); }
                1 => { db.mark_reported(rid, ResultOutcome::Success,
                        Some(OutputFingerprint(1000 + c.0 as u64)), now); }
                2 => { db.mark_reported(rid, ResultOutcome::Error, None, now); }
                _ => { db.mark_timed_out(rid, now); }
            }
            let _ = transition_wu(&mut db, wu, now);

            // Invariants after every step.
            let w = db.wu(wu);
            prop_assert!(w.results_created <= w.spec.max_total_results);
            match w.state {
                WuState::Validated => {
                    let canonical = w.canonical.expect("validated without canonical");
                    let matching = db.results_of(wu).iter().filter(|&&r| {
                        db.result(r).is_success()
                            && db.result(r).fingerprint == Some(canonical)
                    }).count() as u32;
                    prop_assert!(matching >= quorum);
                }
                WuState::Failed => {
                    prop_assert_eq!(w.results_created, w.spec.max_total_results);
                }
                WuState::Active => {}
            }
        }
        // Terminal transitions are sticky.
        let state = db.wu(wu).state;
        let after = transition_wu(&mut db, wu, SimTime::from_secs(10_000));
        if state != WuState::Active {
            prop_assert_eq!(after, Transition::None);
            prop_assert_eq!(db.wu(wu).state, state);
        }
    }

    /// Backoff delays are always within [min(1s, …), max], at least the
    /// jitter floor of the doubled nominal delay, and back to the first
    /// delay after work, for any interleaving of empty replies and
    /// grants. The test keeps the count of consecutive empty replies
    /// itself, as every client does.
    #[test]
    fn backoff_bounds_hold(
        ops in proptest::collection::vec(any::<bool>(), 1..60),
        min_s in 1u64..120,
        max_s in 120u64..2000,
        seed in any::<u64>(),
    ) {
        let b = Backoff::with_bounds(
            SimDuration::from_secs(min_s),
            SimDuration::from_secs(max_s),
        );
        let nominal = |failures: u32| {
            let doubled = min_s.saturating_mul(1 << failures.saturating_sub(1).min(32));
            doubled.min(max_s) as f64
        };
        let mut rng = RngStream::new(seed);
        let mut failures = 0u32;
        for op in ops {
            if op {
                failures += 1;
                let d = b.delay_after(failures, &mut rng);
                prop_assert!(d <= SimDuration::from_secs(max_s));
                prop_assert!(d >= SimDuration::from_secs(1));
                // Jitter floor: at least half the nominal.
                prop_assert!(d.as_secs_f64() >= 0.5 * nominal(failures) - 1e-6);
                prop_assert!(d.as_secs_f64() <= nominal(failures).max(1.0) + 1e-6);
            } else {
                // Work: the count restarts, so the next empty reply's
                // delay is checked against the first nominal, `min`.
                failures = 0;
            }
        }
    }

    /// Scheduler matchmaking never hands two replicas of a WU to the
    /// same client, for arbitrary request orders.
    #[test]
    fn one_replica_per_host_always(
        n_wus in 1usize..8,
        requests in proptest::collection::vec((0u32..6, 1u32..4), 1..40),
    ) {
        let mut db = Db::new();
        for i in 0..n_wus {
            let mut spec = WorkUnitSpec::basic(format!("w{i}"), "app", 1e9);
            spec.target_nresults = 3;
            spec.min_quorum = 2;
            db.insert_workunit(spec, SimTime::ZERO);
        }
        let mut t = 1u64;
        for (client, slots) in requests {
            let cands: Vec<_> = db.unsent_results().collect();
            let picked = vmr_vcore::sched::pick_results(
                &db,
                cands,
                vmr_vcore::sched::WorkRequest { client: ClientId(client), slots_wanted: slots },
                8,
            );
            for rid in picked {
                let now = SimTime::from_secs(t);
                t += 1;
                db.mark_sent(rid, ClientId(client), now, now + SimDuration::from_secs(1000));
            }
        }
        // Check the global invariant.
        for i in 0..n_wus {
            let wu = vmr_vcore::WuId(i as u32);
            let mut holders: Vec<ClientId> = db
                .results_of(wu)
                .iter()
                .filter_map(|&r| db.result(r).client)
                .collect();
            let before = holders.len();
            holders.sort();
            holders.dedup();
            prop_assert_eq!(before, holders.len(), "duplicate holder on wu{}", i);
        }
    }
}
