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
use crate::shard::WorkerPool;
use crate::types::{ClientId, ResultId};
use std::collections::VecDeque;

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
/// the stream is abandoned once the grant fills, so a merged per-shard
/// feeder never materializes candidates it won't inspect.
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

/// The feeder's shared-memory cache of ready-to-send results, sharded
/// by `rid % n` to match the database partitioning.
///
/// Each shard's segment is kept in ascending rid order (refills insert
/// in id order; removals preserve order), so the merged candidate
/// stream ([`Feeder::candidates`]) reproduces the single-shard feeder's
/// FIFO order exactly — sharding never changes which results a grant
/// picks. Evicting a granted result is a binary search in its own
/// segment plus a `VecDeque::remove`.
#[derive(Debug)]
pub struct Feeder {
    segments: Vec<VecDeque<ResultId>>,
}

impl Feeder {
    /// An empty feeder partitioned into `n` shards (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "feeder shard count must be at least 1");
        Feeder {
            segments: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Number of feeder shards.
    pub fn n_shards(&self) -> usize {
        self.segments.len()
    }

    /// Cached results across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(VecDeque::len).sum()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(VecDeque::is_empty)
    }

    /// Drops everything from the cache.
    pub fn clear(&mut self) {
        for seg in &mut self.segments {
            seg.clear();
        }
    }

    /// One feeder pass: replaces the cache with the first `slots`
    /// unsent results in global id order. With a worker pool, each
    /// shard's candidate prefix is scanned concurrently and the global
    /// cutoff is found by an id-order merge — bit-identical to the
    /// sequential scan at any shard count.
    pub fn refill(&mut self, db: &Db, slots: usize, pool: &WorkerPool) {
        let n = self.segments.len();
        if n == 1 {
            let seg = &mut self.segments[0];
            seg.clear();
            seg.extend(db.unsent_results().take(slots));
            return;
        }
        debug_assert_eq!(n, db.n_shards(), "feeder/db shard counts must match");
        // Per-shard candidate prefixes: the global first-`slots` cut
        // cannot take more than `slots` from any one shard.
        let prefixes: Vec<Vec<ResultId>> =
            pool.map(n, |s| db.shard_unsent(s).take(slots).collect());
        // Merge in id order to find how many of each prefix make the
        // global cut; each shard's share is a prefix of its candidates.
        let mut take = vec![0usize; n];
        let mut heads = vec![0usize; n];
        for _ in 0..slots {
            let mut best: Option<(usize, ResultId)> = None;
            for s in 0..n {
                if let Some(&rid) = prefixes[s].get(heads[s]) {
                    if best.map(|(_, b)| rid < b).unwrap_or(true) {
                        best = Some((s, rid));
                    }
                }
            }
            match best {
                Some((s, _)) => {
                    heads[s] += 1;
                    take[s] += 1;
                }
                None => break,
            }
        }
        for (s, mut prefix) in prefixes.into_iter().enumerate() {
            prefix.truncate(take[s]);
            self.segments[s] = prefix.into();
        }
    }

    /// Evicts `rid` from the cache (granted or cancelled); a no-op when
    /// it is not cached. Segments are ascending, so this is a binary
    /// search, not a scan.
    pub fn remove(&mut self, rid: ResultId) {
        let s = rid.0 as usize % self.segments.len();
        let seg = &mut self.segments[s];
        if let Ok(i) = seg.binary_search(&rid) {
            seg.remove(i);
        }
    }

    /// The cached results in global id order — an id-order merge of the
    /// per-shard segments, lazily evaluated.
    pub fn candidates(&self) -> impl Iterator<Item = ResultId> + '_ {
        MergeSegments {
            heads: self
                .segments
                .iter()
                .map(|seg| seg.iter().copied().peekable())
                .collect(),
        }
    }
}

/// K-way id-order merge over the per-shard segments (shard counts are
/// small, so a linear head scan beats a heap).
struct MergeSegments<I: Iterator<Item = ResultId>> {
    heads: Vec<std::iter::Peekable<I>>,
}

impl<I: Iterator<Item = ResultId>> Iterator for MergeSegments<I> {
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
    use vmr_desim::SimTime;

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
}
