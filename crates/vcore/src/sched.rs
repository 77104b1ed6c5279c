//! Scheduler matchmaking: which results does a work request get?
//!
//! BOINC's scheduler picks from the feeder's cache, honouring:
//! * one result per work unit per host (replicas must land on distinct
//!   machines or quorum validation would be meaningless);
//! * the client's requested amount (here: task slots);
//! * a per-RPC grant ceiling.
//!
//! The decision function is pure so it can be unit-tested exhaustively;
//! the engine applies its choices to the database.

use crate::db::Db;
use crate::types::{ClientId, ResultId};
use std::collections::VecDeque;
use vmr_desim::SimTime;

/// A client's work request, as seen by the scheduler.
#[derive(Clone, Copy, Debug)]
pub struct WorkRequest {
    /// Requesting client.
    pub client: ClientId,
    /// Task slots the client wants filled.
    pub slots_wanted: u32,
}

/// Chooses up to `min(slots_wanted, max_per_rpc)` results for `req`
/// from the feeder's candidate stream, skipping work units the client
/// already holds a replica of. Candidates are consumed in order
/// (feeder order == creation order, BOINC's FIFO default) and lazily —
/// the stream is abandoned once the grant fills.
pub fn pick_results(
    db: &Db,
    candidates: impl IntoIterator<Item = ResultId>,
    req: WorkRequest,
    max_per_rpc: u32,
) -> Vec<ResultId> {
    let want = req.slots_wanted.min(max_per_rpc) as usize;
    let mut picked: Vec<ResultId> = Vec::with_capacity(want);
    for rid in candidates {
        if picked.len() >= want {
            break;
        }
        // The feeder cache can lag the database: a candidate may have
        // been cancelled (trust policy dropping spare replicas) or
        // granted since it was cached. Only unsent results are eligible.
        if db.result(rid).state != crate::workunit::ResultState::Unsent {
            continue;
        }
        let wu = db.result(rid).wu;
        if db.client_has_wu(req.client, wu) {
            continue;
        }
        // Also skip if we already picked another result of the same WU
        // in this very grant.
        if picked.iter().any(|&p| db.result(p).wu == wu) {
            continue;
        }
        picked.push(rid);
    }
    picked
}

/// The feeder's shared-memory cache of ready-to-send results: the
/// first `slots` unsent results, in ascending id order (== creation
/// order, BOINC's FIFO default). Refills copy a prefix of the
/// database's ordered unsent set and evictions keep the order, so
/// evicting is a binary search, not a scan.
#[derive(Debug, Default)]
pub struct Feeder {
    cache: VecDeque<ResultId>,
}

impl Feeder {
    /// An empty feeder. `n` must be 1 (see [`WorkerPool`]).
    pub fn new(n: usize) -> Self {
        assert_eq!(n, 1, "the feeder is one cache");
        Feeder::default()
    }

    /// Cached results.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// One feeder pass: replaces the cache with the first `slots`
    /// unsent results in id order.
    pub fn refill(&mut self, db: &Db, slots: usize, _pool: &WorkerPool) {
        self.cache.clear();
        self.cache.extend(db.unsent_results().take(slots));
        debug_assert!(
            self.cache
                .iter()
                .zip(self.cache.iter().skip(1))
                .all(|(a, b)| a < b),
            "feeder cache must be strictly ascending: remove() binary-searches it"
        );
    }

    /// Evicts `rid` from the cache (granted or cancelled); a no-op when
    /// it is not cached.
    pub fn remove(&mut self, rid: ResultId) {
        if let Ok(i) = self.cache.binary_search(&rid) {
            self.cache.remove(i);
        }
    }

    /// The cached results in id order.
    pub fn candidates(&self) -> impl Iterator<Item = ResultId> + '_ {
        self.cache.iter().copied()
    }
}

/// Benchmark compatibility, kept in this one place: the frozen
/// `benchmark/` trace leg was written against the deleted `id mod n`
/// sharded core and still calls `Feeder::new(1)`,
/// `Feeder::refill(.., &WorkerPool::sequential())` and
/// `run_transition_pass(.., &WorkerPool)`. There is one cache and no
/// pool; `n` and this type are vestigial arguments, to be dropped with
/// the trace leg's next revision (ROADMAP).
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool;

impl WorkerPool {
    /// The only pool there is: everything runs on the calling thread.
    pub fn sequential() -> Self {
        WorkerPool
    }
}

/// One granted work request out of a batch.
#[derive(Clone, Debug)]
pub struct BatchGrant {
    /// The requesting client.
    pub client: ClientId,
    /// Results granted to it (possibly empty).
    pub granted: Vec<ResultId>,
}

/// Serves a batch of scheduler work requests in submission order: per
/// request, candidates are the feeder's cache, grants are applied to
/// the database immediately (`mark_sent` with `deadline_of` the
/// per-result report deadline) and evicted from the feeder.
///
/// Submission order *is* the serialization order, so the outcome is
/// identical to one RPC event per request through the engine.
pub fn serve_batch(
    db: &mut Db,
    feeder: &mut Feeder,
    requests: &[WorkRequest],
    max_per_rpc: u32,
    now: SimTime,
    mut deadline_of: impl FnMut(&Db, ResultId) -> SimTime,
) -> Vec<BatchGrant> {
    let mut out = Vec::with_capacity(requests.len());
    for &req in requests {
        let picked = pick_results(db, feeder.candidates(), req, max_per_rpc);
        for &rid in &picked {
            let deadline = deadline_of(db, rid);
            db.mark_sent(rid, req.client, now, deadline);
            feeder.remove(rid);
        }
        out.push(BatchGrant {
            client: req.client,
            granted: picked,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workunit::WorkUnitSpec;

    fn db_with(n_wus: usize) -> Db {
        let mut db = Db::new();
        for i in 0..n_wus {
            db.insert_workunit(
                WorkUnitSpec::basic(format!("wu{i}"), "app", 1e9),
                SimTime::ZERO,
            );
        }
        db
    }

    fn unsent(db: &Db) -> Vec<ResultId> {
        db.unsent_results().collect()
    }

    #[test]
    fn grants_up_to_slots_wanted() {
        let db = db_with(5);
        let picked = pick_results(
            &db,
            unsent(&db),
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 3,
            },
            10,
        );
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn grant_capped_by_max_per_rpc() {
        let db = db_with(5);
        let picked = pick_results(
            &db,
            unsent(&db),
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 10,
            },
            2,
        );
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn never_two_replicas_of_same_wu_in_one_grant() {
        let db = db_with(1); // one WU, two replicas unsent
        let picked = pick_results(
            &db,
            unsent(&db),
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 5,
            },
            10,
        );
        assert_eq!(picked.len(), 1, "must not hand both replicas to one host");
    }

    #[test]
    fn skips_wus_already_held() {
        let mut db = db_with(2);
        // Client 0 already holds a replica of wu0.
        let wu0_results = db.results_of(crate::types::WuId(0)).to_vec();
        db.mark_sent(
            wu0_results[0],
            ClientId(0),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        let picked = pick_results(
            &db,
            unsent(&db),
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 5,
            },
            10,
        );
        // Only wu1's replica is eligible.
        assert_eq!(picked.len(), 1);
        assert_eq!(db.result(picked[0]).wu, crate::types::WuId(1));
    }

    #[test]
    fn other_client_still_gets_the_wu() {
        let mut db = db_with(1);
        let rids = db.results_of(crate::types::WuId(0)).to_vec();
        db.mark_sent(
            rids[0],
            ClientId(0),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        let picked = pick_results(
            &db,
            unsent(&db),
            WorkRequest {
                client: ClientId(1),
                slots_wanted: 1,
            },
            10,
        );
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn stale_cancelled_candidates_are_skipped() {
        let mut db = db_with(1);
        let stale = unsent(&db); // cached before the cancellation
        let rids = db.results_of(crate::types::WuId(0)).to_vec();
        db.cancel_unsent(rids[0]);
        let picked = pick_results(
            &db,
            stale,
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 5,
            },
            10,
        );
        assert_eq!(
            picked,
            vec![rids[1]],
            "cancelled result must not be granted"
        );
    }

    #[test]
    fn zero_slots_gets_nothing() {
        let db = db_with(3);
        let picked = pick_results(
            &db,
            unsent(&db),
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 0,
            },
            10,
        );
        assert!(picked.is_empty());
    }

    #[test]
    fn empty_feeder_gets_nothing() {
        let db = db_with(0);
        let picked = pick_results(
            &db,
            std::iter::empty(),
            WorkRequest {
                client: ClientId(0),
                slots_wanted: 4,
            },
            10,
        );
        assert!(picked.is_empty());
    }

    /// The frozen benchmark trace leg serves through `serve_batch`; it
    /// must grant exactly what one `pick_results` + `mark_sent` +
    /// `remove` per request grants.
    #[test]
    fn serve_batch_matches_per_request_serving() {
        let reqs: Vec<WorkRequest> = (0..6)
            .map(|c| WorkRequest {
                client: ClientId(c),
                slots_wanted: 2,
            })
            .collect();
        let deadline = SimTime::from_secs(1000);

        let mut db = db_with(5);
        let mut feeder = Feeder::new(1);
        feeder.refill(&db, 100, &WorkerPool::sequential());
        let grants = serve_batch(&mut db, &mut feeder, &reqs, 4, SimTime::ZERO, |_, _| {
            deadline
        });

        let mut ref_db = db_with(5);
        let mut ref_feeder = Feeder::new(1);
        ref_feeder.refill(&ref_db, 100, &WorkerPool::sequential());
        for (req, got) in reqs.iter().zip(&grants) {
            let picked = pick_results(&ref_db, ref_feeder.candidates(), *req, 4);
            for &rid in &picked {
                ref_db.mark_sent(rid, req.client, SimTime::ZERO, deadline);
                ref_feeder.remove(rid);
            }
            assert_eq!(got.client, req.client);
            assert_eq!(got.granted, picked);
        }
        assert_eq!(grants.iter().map(|g| g.granted.len()).sum::<usize>(), 10);
        assert_eq!(db.encode_state(), ref_db.encode_state());
        assert_eq!(
            feeder.candidates().collect::<Vec<_>>(),
            ref_feeder.candidates().collect::<Vec<_>>()
        );
    }
}
