//! Pluggable map-output distribution (`vmr-shuffle`).
//!
//! The paper moves every map output to its reducer by point-to-point
//! pull with a server fallback after `n` failed attempts (§IV). That
//! shuffle is the dominant traffic phase, and two lines of related work
//! suggest cheaper shapes: *Coded MapReduce* (Li et al.) trades
//! redundant map placement for multicast-coded shuffle traffic, and
//! Soelistio's torrent-like distribution swarms chunked transfers
//! across volunteers instead of hammering a single uplink.
//!
//! This crate owns the *decisions* of the shuffle — where map outputs
//! are placed and how a reducer's input fetch is planned — behind the
//! [`ShuffleStrategy`] trait:
//!
//! - [`Baseline`] — the paper's transfer path: whole-file pull from one
//!   validated holder per attempt, server fallback after
//!   `PEER_RETRY_LIMIT` failures. Decision-for-decision identical to
//!   the pre-strategy monolith (its recorded runs are pinned by
//!   `proptest_shuffle.rs`).
//! - [`SwarmStrategy`] — map outputs split into fixed-size chunks,
//!   fetched from multiple sources at once with rarest-first piece
//!   selection, per-source concurrency caps and the server as seeder
//!   of last resort. Completed chunks turn the downloader into a
//!   sibling seed for later reducers.
//! - [`CodedStrategy`] — repetition-coded placement at redundancy *r*:
//!   map workunits are replicated (and validated) on at least *r*
//!   hosts, reducers are grouped *r*-at-a-time, and each (map, group)
//!   pair is served by one coded send of `ceil(P/|group|)` bytes per
//!   member instead of `|group|` full partitions. With the default
//!   `r = 2` the redundancy is *free* — BOINC validation already runs
//!   every map twice — and shuffle bytes halve.
//!
//! The execution mechanics (flows, NAT traversal, fault draws, serving
//! windows) stay in `vmr-vcore`; this crate is a leaf below it, so
//! client ids travel as raw `u32` (the `ClientId` newtype lives
//! upstream). Swarm bookkeeping ([`SwarmTransfer`], [`SwarmIndex`]) is
//! deterministic by construction: vectors in event order and one
//! `BTreeMap`, no hash collections.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vmr_obs::{Counter, Obs};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Which shuffle strategy a project runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StrategyKind {
    /// Point-to-point pull + server fallback via the strategy layer.
    Baseline,
    /// Chunked multi-source fetch, rarest-first, server as last seeder.
    Swarm,
    /// Repetition-coded placement at redundancy `r`, grouped reducers.
    Coded,
}

impl StrategyKind {
    /// Stable one-byte wire tag (WAL `MrShufflePlanned` records).
    pub fn wire_tag(self) -> u8 {
        match self {
            StrategyKind::Baseline => 0,
            StrategyKind::Swarm => 1,
            StrategyKind::Coded => 2,
        }
    }

    /// Inverse of [`StrategyKind::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => StrategyKind::Baseline,
            1 => StrategyKind::Swarm,
            2 => StrategyKind::Coded,
            _ => return None,
        })
    }
}

/// Swarm: fixed chunk size a map output is split into.
pub const CHUNK_BYTES: u64 = 256 << 10;
/// Swarm: max chunk flows in flight per transfer.
pub const MAX_PARALLEL_CHUNKS: u32 = 4;
/// Swarm: max chunk flows in flight per (transfer, source) pair.
pub const PER_SOURCE_CHUNKS: u32 = 2;
/// Swarm: failed attempts per chunk before the server seeds it.
pub const CHUNK_RETRY_LIMIT: u32 = 3;

/// Shuffle tunables, embedded in the project configuration. The swarm
/// chunk geometry is fixed by the crate's constants.
///
/// Defaults select [`StrategyKind::Baseline`], which is bit-identical
/// to an engine built before this subsystem existed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShuffleConfig {
    /// Strategy in effect for every job of the project.
    pub strategy: StrategyKind,
    /// Coded: placement redundancy `r` (reducer group size). Map
    /// replication and quorum are raised to at least `r`, so `r = 2`
    /// rides for free on the default 2-way validation.
    pub redundancy: u32,
}

impl Default for ShuffleConfig {
    fn default() -> Self {
        ShuffleConfig {
            strategy: StrategyKind::Baseline,
            redundancy: 2,
        }
    }
}

impl ShuffleConfig {
    /// Swarm distribution.
    pub fn swarm() -> Self {
        ShuffleConfig {
            strategy: StrategyKind::Swarm,
            ..ShuffleConfig::default()
        }
    }

    /// Coded placement at redundancy `r`.
    pub fn coded(r: u32) -> Self {
        ShuffleConfig {
            strategy: StrategyKind::Coded,
            redundancy: r.max(1),
        }
    }

    /// Builds the strategy object this configuration selects.
    pub fn build(&self) -> Box<dyn ShuffleStrategy + Send + Sync> {
        match self.strategy {
            StrategyKind::Baseline => Box::new(Baseline),
            StrategyKind::Swarm => Box::new(SwarmStrategy),
            StrategyKind::Coded => Box::new(CodedStrategy {
                redundancy: self.redundancy.max(1) as usize,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// The strategy trait
// ---------------------------------------------------------------------------

/// A planned reduce-input fetch for one (map, reduce) partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchPlan {
    /// Bytes the reducer must actually move for this partition.
    pub bytes: u64,
    /// Candidate sources in preference order (first = designated).
    pub sources: Vec<u32>,
}

/// Chunk geometry of one swarmed transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Number of chunks (≥ 1; a zero-byte transfer is one 0-byte chunk).
    pub n_chunks: u32,
    /// Size of every chunk but possibly the last.
    pub chunk_bytes: u64,
    /// Total transfer size.
    pub total_bytes: u64,
}

impl ChunkPlan {
    /// Splits `total_bytes` into `chunk_bytes`-sized pieces.
    pub fn new(total_bytes: u64, chunk_bytes: u64) -> Self {
        let cb = chunk_bytes.max(1);
        let n = if total_bytes == 0 {
            1
        } else {
            total_bytes.div_ceil(cb)
        };
        ChunkPlan {
            n_chunks: n as u32,
            chunk_bytes: cb,
            total_bytes,
        }
    }

    /// Size of chunk `i` (the last chunk carries the remainder).
    pub fn chunk_len(&self, i: u32) -> u64 {
        debug_assert!(i < self.n_chunks);
        if i + 1 < self.n_chunks {
            self.chunk_bytes
        } else {
            self.total_bytes - self.chunk_bytes * (self.n_chunks as u64 - 1)
        }
    }
}

/// Owns map-output placement and reduce-input fetch planning.
///
/// Strategies make only *decisions*; all transfer mechanics (flow
/// creation, rng draws, serving accounting) live in the engine so the
/// Baseline strategy reproduces the pre-strategy path bit-for-bit.
pub trait ShuffleStrategy {
    /// Which strategy this is.
    fn kind(&self) -> StrategyKind;

    /// Map-phase placement: (replication, quorum) for map workunits,
    /// given the job's configured values. Coded raises both to `r`.
    fn map_placement(&self, replication: u32, quorum: u32) -> (u32, u32) {
        (replication, quorum)
    }

    /// Reducer group size for coded decoding (1 = no grouping).
    fn coding_group(&self, _n_reduces: usize) -> usize {
        1
    }

    /// Plans the fetch of map `m`'s partition for reduce `r`:
    /// `bytes` is the full partition size, `holders` the validated
    /// holders in tracker order.
    fn plan_fetch(
        &self,
        _m: usize,
        _r: usize,
        _n_reduces: usize,
        bytes: u64,
        holders: &[u32],
    ) -> FetchPlan {
        FetchPlan {
            bytes,
            sources: holders.to_vec(),
        }
    }

    /// Source index for whole-file pull attempt `attempts` by
    /// `requester` over `n_peers` candidates.
    fn pick_source(&self, n_peers: usize, attempts: u32, requester: u32) -> usize;

    /// Chunk geometry for a transfer, or `None` for one whole-file flow.
    fn chunking(&self, _bytes: u64) -> Option<ChunkPlan> {
        None
    }
}

/// The paper's point-to-point pull (see crate docs).
pub struct Baseline;

impl ShuffleStrategy for Baseline {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Baseline
    }

    /// The pre-strategy peer rotation: start at an offset derived from
    /// the requester so concurrent reducers spread over holders.
    fn pick_source(&self, n_peers: usize, attempts: u32, requester: u32) -> usize {
        (attempts as usize + requester as usize) % n_peers
    }
}

/// Torrent-like chunked distribution in [`CHUNK_BYTES`] chunks (see
/// crate docs).
pub struct SwarmStrategy;

impl ShuffleStrategy for SwarmStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Swarm
    }

    fn pick_source(&self, n_peers: usize, attempts: u32, requester: u32) -> usize {
        (attempts as usize + requester as usize) % n_peers
    }

    fn chunking(&self, bytes: u64) -> Option<ChunkPlan> {
        Some(ChunkPlan::new(bytes, CHUNK_BYTES))
    }
}

/// Repetition-coded placement (see crate docs).
pub struct CodedStrategy {
    /// Redundancy `r` = reducer group size.
    pub redundancy: usize,
}

impl CodedStrategy {
    /// Size of reduce group `j` (the last group may be short).
    fn group_len(&self, j: usize, n_reduces: usize) -> usize {
        let g = self.coding_group(n_reduces);
        (n_reduces - j * g).min(g)
    }
}

impl ShuffleStrategy for CodedStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Coded
    }

    /// Coded placement needs every map output validated on ≥ `r`
    /// hosts, so replication and quorum are raised to `r`. With the
    /// paper's default (replication 2, quorum 2) and `r = 2` this is a
    /// no-op: validation redundancy is harvested for free.
    fn map_placement(&self, replication: u32, quorum: u32) -> (u32, u32) {
        let r = self.redundancy as u32;
        (replication.max(r), quorum.max(r))
    }

    fn coding_group(&self, n_reduces: usize) -> usize {
        self.redundancy.min(n_reduces).max(1)
    }

    /// Reduce `r` sits in group `j = r / g`; each member pulls a
    /// `ceil(P / |group|)` coded share, from a designated holder first
    /// (rotated over the holder set by map and member so one holder
    /// does not serve a whole group).
    fn plan_fetch(
        &self,
        m: usize,
        r: usize,
        n_reduces: usize,
        bytes: u64,
        holders: &[u32],
    ) -> FetchPlan {
        let g = self.coding_group(n_reduces);
        let j = r / g;
        let gs = self.group_len(j, n_reduces) as u64;
        let share = bytes.div_ceil(gs.max(1));
        let sources = if holders.is_empty() {
            Vec::new()
        } else {
            let start = (m + j + (r - j * g)) % holders.len();
            let mut v = Vec::with_capacity(holders.len());
            for k in 0..holders.len() {
                v.push(holders[(start + k) % holders.len()]);
            }
            v
        };
        FetchPlan {
            bytes: share,
            sources,
        }
    }

    /// Follow the planned order: the designated holder is first.
    fn pick_source(&self, n_peers: usize, attempts: u32, _requester: u32) -> usize {
        attempts as usize % n_peers
    }
}

/// Number of coded reduce groups for `n_reduces` at group size `g`.
pub fn coded_groups(n_reduces: usize, g: usize) -> usize {
    n_reduces.div_ceil(g.max(1))
}

// ---------------------------------------------------------------------------
// Swarm runtime bookkeeping
// ---------------------------------------------------------------------------

/// Per-chunk sibling seeds of swarmed files: reducers that completed a
/// chunk serve it to later reducers, spreading load off the holders.
#[derive(Debug, Default)]
pub struct SwarmIndex {
    files: BTreeMap<String, Vec<Vec<u32>>>,
}

impl SwarmIndex {
    /// Registers `cid` as a seed for `name`'s chunk `chunk`. The key is
    /// allocated only for the file's first seed.
    pub fn add_seed(&mut self, name: &str, chunk: u32, n_chunks: u32, cid: u32) {
        let per = match self.files.get_mut(name) {
            Some(per) => per,
            None => self
                .files
                .entry(name.to_string())
                .or_insert_with(|| vec![Vec::new(); n_chunks as usize]),
        };
        let list = &mut per[chunk as usize];
        if !list.contains(&cid) {
            list.push(cid);
        }
    }

    /// Seeds of `name`'s chunk `chunk`, in registration order.
    pub fn seeds(&self, name: &str, chunk: u32) -> &[u32] {
        self.chunk_seeds(name)
            .get(chunk as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Every chunk's seed list of `name` (empty when nobody seeds it).
    fn chunk_seeds(&self, name: &str) -> &[Vec<u32>] {
        self.files.get(name).map_or(&[], Vec::as_slice)
    }

    /// Drops all seed entries of one file (job finished serving it).
    pub fn drop_file(&mut self, name: &str) {
        self.files.remove(name);
    }

    /// Drops one client from every seed list (host dropped out).
    pub fn drop_client(&mut self, cid: u32) {
        for per in self.files.values_mut() {
            for list in per.iter_mut() {
                list.retain(|&c| c != cid);
            }
        }
    }
}

/// A source candidate for one swarm chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarmSource {
    /// A reducer that already completed this chunk.
    Sibling(u32),
    /// A validated holder of the whole file.
    Holder(u32),
}

impl SwarmSource {
    /// The client id behind the source.
    pub fn cid(self) -> u32 {
        match self {
            SwarmSource::Sibling(c) | SwarmSource::Holder(c) => c,
        }
    }
}

/// State machine of one in-progress swarmed transfer.
#[derive(Debug)]
pub struct SwarmTransfer {
    /// File being fetched (keys the [`SwarmIndex`]).
    pub name: String,
    /// Validated holders in plan order.
    pub holders: Vec<u32>,
    /// Chunk geometry.
    pub plan: ChunkPlan,
    done: Vec<bool>,
    in_flight: Vec<bool>,
    attempts: Vec<u32>,
    /// `(source, chunk flows in flight)`, one entry per busy source.
    per_source: Vec<(u32, u32)>,
    inflight_total: u32,
    remaining: u32,
}

impl SwarmTransfer {
    /// Starts an empty transfer of `plan` chunks from `holders`.
    pub fn new(name: String, holders: Vec<u32>, plan: ChunkPlan) -> Self {
        let n = plan.n_chunks as usize;
        SwarmTransfer {
            name,
            holders,
            plan,
            done: vec![false; n],
            in_flight: vec![false; n],
            attempts: vec![0; n],
            per_source: Vec::new(),
            inflight_total: 0,
            remaining: plan.n_chunks,
        }
    }

    /// Chunks not yet complete (in-flight ones included).
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Chunk flows currently in flight.
    pub fn inflight(&self) -> u32 {
        self.inflight_total
    }

    /// Failed attempts recorded against chunk `chunk`.
    pub fn attempts(&self, chunk: u32) -> u32 {
        self.attempts[chunk as usize]
    }

    /// Records a failed attempt for `chunk`.
    pub fn bump_attempt(&mut self, chunk: u32) {
        self.attempts[chunk as usize] += 1;
    }

    /// Rarest-first piece selection: among chunks neither done nor in
    /// flight, pick the one with the fewest seeds in `index` (holders
    /// count for every chunk), breaking ties by chunk order. The file's
    /// seed lists are looked up once per pick.
    pub fn choose_chunk(&self, index: &SwarmIndex) -> Option<u32> {
        let seeds = index.chunk_seeds(&self.name);
        let mut best: Option<(usize, u32)> = None;
        for i in 0..self.plan.n_chunks {
            if self.done[i as usize] || self.in_flight[i as usize] {
                continue;
            }
            let avail = self.holders.len() + seeds.get(i as usize).map_or(0, Vec::len);
            if best.map(|(b, _)| avail < b).unwrap_or(true) {
                best = Some((avail, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Source candidates for `chunk` in preference order: siblings
    /// first (they offload the holders), then holders rotated by
    /// `(chunk + requester + attempts)` so retries move on and
    /// concurrent reducers spread out.
    pub fn sources_for(&self, chunk: u32, index: &SwarmIndex, requester: u32) -> Vec<SwarmSource> {
        let mut v = Vec::with_capacity(self.holders.len() + 2);
        for &s in index.seeds(&self.name, chunk) {
            v.push(SwarmSource::Sibling(s));
        }
        if !self.holders.is_empty() {
            let start =
                (chunk as usize + requester as usize + self.attempts[chunk as usize] as usize)
                    % self.holders.len();
            for k in 0..self.holders.len() {
                v.push(SwarmSource::Holder(
                    self.holders[(start + k) % self.holders.len()],
                ));
            }
        }
        v
    }

    /// True while `source` is below the per-source in-flight cap.
    pub fn source_has_room(&self, source: u32, cap: u32) -> bool {
        let n = self.per_source.iter().find(|&&(s, _)| s == source);
        n.map_or(0, |&(_, n)| n) < cap
    }

    /// Marks `chunk` in flight from `source`.
    pub fn start(&mut self, chunk: u32, source: u32) {
        let i = chunk as usize;
        debug_assert!(!self.done[i] && !self.in_flight[i]);
        self.in_flight[i] = true;
        self.inflight_total += 1;
        match self.per_source.iter_mut().find(|(s, _)| *s == source) {
            Some((_, n)) => *n += 1,
            None => self.per_source.push((source, 1)),
        }
    }

    /// Completes `chunk` from `source`; returns true when the whole
    /// transfer is done.
    pub fn complete(&mut self, chunk: u32, source: Option<u32>) -> bool {
        let i = chunk as usize;
        debug_assert!(self.in_flight[i] && !self.done[i]);
        self.in_flight[i] = false;
        self.inflight_total -= 1;
        self.done[i] = true;
        self.remaining -= 1;
        if let Some(s) = source {
            self.release_source(s);
        }
        self.remaining == 0
    }

    /// Aborts an in-flight `chunk` (source died / flow aborted).
    pub fn fail(&mut self, chunk: u32, source: Option<u32>) {
        let i = chunk as usize;
        if self.in_flight[i] {
            self.in_flight[i] = false;
            self.inflight_total -= 1;
        }
        if let Some(s) = source {
            self.release_source(s);
        }
        self.attempts[i] += 1;
    }

    fn release_source(&mut self, source: u32) {
        if let Some(k) = self.per_source.iter().position(|&(s, _)| s == source) {
            self.per_source[k].1 -= 1;
            if self.per_source[k].1 == 0 {
                self.per_source.swap_remove(k);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

/// Pre-resolved `shuffle.*` counter handles (one atomic bump per use).
#[derive(Clone, Debug)]
pub struct FetchObs {
    /// Bytes fetched peer-to-peer (holders, siblings, local reads).
    pub bytes_p2p: Counter,
    /// Bytes fetched from the server after peer attempts failed.
    pub bytes_server_fallback: Counter,
    /// Chunks fetched from sibling seeds (true swarm transfers).
    pub chunks_swarmed: Counter,
    /// Coded sends planned: one per (map, reducer-group) pair.
    pub coded_sends: Counter,
}

impl FetchObs {
    /// Resolves the handles against `obs`.
    pub fn attach(obs: &Obs) -> Self {
        FetchObs {
            bytes_p2p: obs.counter("shuffle.bytes_p2p"),
            bytes_server_fallback: obs.counter("shuffle.bytes_server_fallback"),
            chunks_swarmed: obs.counter("shuffle.chunks_swarmed"),
            coded_sends: obs.counter("shuffle.coded_sends"),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_baseline() {
        let cfg = ShuffleConfig::default();
        assert_eq!(cfg.strategy, StrategyKind::Baseline);
        assert_eq!(cfg.build().kind(), StrategyKind::Baseline);
    }

    #[test]
    fn wire_tags_round_trip() {
        for k in [
            StrategyKind::Baseline,
            StrategyKind::Swarm,
            StrategyKind::Coded,
        ] {
            assert_eq!(StrategyKind::from_wire_tag(k.wire_tag()), Some(k));
        }
        // Tag 3 was the retired `Legacy` twin; it must stay unassigned.
        assert_eq!(StrategyKind::from_wire_tag(3), None);
        assert_eq!(StrategyKind::from_wire_tag(99), None);
    }

    #[test]
    fn baseline_pick_matches_pre_strategy_rotation() {
        let s = Baseline;
        for attempts in 0..5u32 {
            for req in [0u32, 3, 17] {
                assert_eq!(
                    s.pick_source(4, attempts, req),
                    (attempts as usize + req as usize) % 4
                );
            }
        }
        assert!(s.chunking(1 << 20).is_none());
        assert_eq!(s.map_placement(2, 2), (2, 2));
    }

    #[test]
    fn chunk_plan_covers_every_byte() {
        for (total, cb) in [
            (0u64, 256u64),
            (1, 256),
            (256, 256),
            (257, 256),
            (1000, 300),
        ] {
            let p = ChunkPlan::new(total, cb);
            assert!(p.n_chunks >= 1);
            let sum: u64 = (0..p.n_chunks).map(|i| p.chunk_len(i)).sum();
            assert_eq!(sum, total, "total {total} chunk {cb}");
            for i in 0..p.n_chunks.saturating_sub(1) {
                assert_eq!(p.chunk_len(i), cb);
            }
        }
    }

    #[test]
    fn coded_placement_raises_replication_to_r() {
        let c = CodedStrategy { redundancy: 3 };
        assert_eq!(c.map_placement(2, 2), (3, 3));
        // r = 2 rides free on the default 2-way validation.
        let c2 = CodedStrategy { redundancy: 2 };
        assert_eq!(c2.map_placement(2, 2), (2, 2));
        assert_eq!(c2.map_placement(4, 3), (4, 3));
    }

    #[test]
    fn coded_group_shares_cover_partition() {
        // 5 reduces, r=2 -> groups {0,1} {2,3} {4}; shares ceil(P/gs).
        let c = CodedStrategy { redundancy: 2 };
        let holders = [7u32, 9, 11];
        let p = 1001u64;
        for (r, gs) in [(0usize, 2u64), (1, 2), (2, 2), (3, 2), (4, 1)] {
            let plan = c.plan_fetch(3, r, 5, p, &holders);
            assert_eq!(plan.bytes, p.div_ceil(gs), "reduce {r}");
            assert_eq!(plan.sources.len(), holders.len());
            // Sources are a rotation of the holder set.
            let mut sorted = plan.sources.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![7, 9, 11]);
        }
        assert_eq!(coded_groups(5, 2), 3);
        assert_eq!(coded_groups(4, 2), 2);
        assert_eq!(coded_groups(3, 4), 1);
    }

    #[test]
    fn coded_designates_different_holders_within_a_group() {
        let c = CodedStrategy { redundancy: 2 };
        let holders = [1u32, 2];
        let a = c.plan_fetch(0, 0, 4, 1000, &holders);
        let b = c.plan_fetch(0, 1, 4, 1000, &holders);
        assert_ne!(a.sources[0], b.sources[0]);
    }

    #[test]
    fn rarest_first_prefers_unseeded_chunks() {
        let plan = ChunkPlan::new(1000, 300); // 4 chunks
        let mut t = SwarmTransfer::new("f".into(), vec![1, 2], plan);
        let mut idx = SwarmIndex::default();
        // Chunk 0 has a sibling seed -> chunks 1..3 are rarer; tie
        // breaks to the lowest index.
        idx.add_seed("f", 0, 4, 5);
        assert_eq!(t.choose_chunk(&idx), Some(1));
        t.start(1, 1);
        assert_eq!(t.choose_chunk(&idx), Some(2));
        t.start(2, 2);
        assert!(!t.complete(1, Some(1)));
        assert!(!t.complete(2, Some(2)));
        // Only 0 and 3 left, equally seeded? 0 has an extra sibling.
        assert_eq!(t.choose_chunk(&idx), Some(3));
        t.start(3, 1);
        assert!(!t.complete(3, Some(1)));
        assert_eq!(t.choose_chunk(&idx), Some(0));
        t.start(0, 5);
        assert!(t.complete(0, Some(5)));
        assert_eq!(t.remaining(), 0);
    }

    #[test]
    fn swarm_sources_list_siblings_before_holders() {
        let plan = ChunkPlan::new(600, 300);
        let t = SwarmTransfer::new("f".into(), vec![1, 2, 3], plan);
        let mut idx = SwarmIndex::default();
        idx.add_seed("f", 0, 2, 9);
        let src = t.sources_for(0, &idx, 0);
        assert_eq!(src[0], SwarmSource::Sibling(9));
        assert_eq!(src.len(), 4);
        // All holders present exactly once.
        let holders: Vec<u32> = src[1..].iter().map(|s| s.cid()).collect();
        let mut sorted = holders.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    }

    /// `choose_chunk` as one `index.seeds(name, i)` look-up per chunk.
    fn choose_chunk_per_chunk(t: &SwarmTransfer, index: &SwarmIndex) -> Option<u32> {
        let mut best: Option<(usize, u32)> = None;
        for i in 0..t.plan.n_chunks {
            if t.done[i as usize] || t.in_flight[i as usize] {
                continue;
            }
            let avail = t.holders.len() + index.seeds(&t.name, i).len();
            if best.map(|(b, _)| avail < b).unwrap_or(true) {
                best = Some((avail, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// `sources_for` spelled out: chunk seeds, then rotated holders.
    fn sources_per_chunk(
        t: &SwarmTransfer,
        chunk: u32,
        index: &SwarmIndex,
        requester: u32,
    ) -> Vec<SwarmSource> {
        let mut v: Vec<SwarmSource> = index
            .seeds(&t.name, chunk)
            .iter()
            .map(|&s| SwarmSource::Sibling(s))
            .collect();
        let n = t.holders.len();
        let start = chunk as usize + requester as usize + t.attempts(chunk) as usize;
        v.extend((0..n).map(|k| SwarmSource::Holder(t.holders[(start + k) % n])));
        v
    }

    #[test]
    fn swarm_pick_matches_per_chunk_lookups() {
        // Small generated cases: chunks with and without seeds, a file
        // the index has never seen, seeds arriving while chunks are
        // done or in flight, failed attempts rotating the holders.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as u32
        };
        for case in 0..300 {
            let n_chunks = 1 + draw(6);
            let plan = ChunkPlan::new(n_chunks as u64 * 100 - draw(100) as u64, 100);
            let holders: Vec<u32> = (0..draw(4)).map(|_| draw(8)).collect();
            let mut t = SwarmTransfer::new("f".into(), holders, plan);
            let mut idx = SwarmIndex::default();
            for _ in 0..24 {
                let c = draw(n_chunks);
                match draw(5) {
                    // Seeds for this file, or only for another one.
                    0 => idx.add_seed("f", c, n_chunks, draw(8)),
                    1 => idx.add_seed("g", c, n_chunks, draw(8)),
                    2 => {
                        if let Some(c) = t.choose_chunk(&idx) {
                            t.start(c, draw(8));
                        }
                    }
                    3 if t.in_flight[c as usize] => {
                        t.complete(c, None);
                    }
                    _ if t.in_flight[c as usize] => t.fail(c, None),
                    _ => t.bump_attempt(c),
                }
                assert_eq!(
                    t.choose_chunk(&idx),
                    choose_chunk_per_chunk(&t, &idx),
                    "case {case}"
                );
                for c in 0..n_chunks {
                    let req = draw(8);
                    assert_eq!(
                        t.sources_for(c, &idx, req),
                        sources_per_chunk(&t, c, &idx, req),
                        "case {case} chunk {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_source_cap_and_failure_release() {
        let plan = ChunkPlan::new(1200, 300);
        let mut t = SwarmTransfer::new("f".into(), vec![1], plan);
        assert!(t.source_has_room(1, 2));
        t.start(0, 1);
        t.start(1, 1);
        assert!(!t.source_has_room(1, 2));
        t.fail(0, Some(1));
        assert!(t.source_has_room(1, 2));
        assert_eq!(t.attempts(0), 1);
        assert_eq!(t.inflight(), 1);
    }

    #[test]
    fn index_drops_clients_and_files() {
        let mut idx = SwarmIndex::default();
        idx.add_seed("a", 0, 2, 5);
        idx.add_seed("a", 0, 2, 5); // dedup
        idx.add_seed("a", 1, 2, 6);
        assert_eq!(idx.seeds("a", 0), &[5]);
        idx.drop_client(5);
        assert!(idx.seeds("a", 0).is_empty());
        assert_eq!(idx.seeds("a", 1), &[6]);
        idx.drop_file("a");
        assert!(idx.seeds("a", 1).is_empty());
    }

    #[test]
    fn zero_byte_transfer_is_one_chunk() {
        let p = ChunkPlan::new(0, CHUNK_BYTES);
        assert_eq!(p.n_chunks, 1);
        assert_eq!(p.chunk_len(0), 0);
    }

    #[test]
    fn fetch_obs_counters_resolve() {
        let obs = Obs::new();
        let f = FetchObs::attach(&obs);
        f.bytes_p2p.add(10);
        f.chunks_swarmed.inc();
        assert_eq!(obs.counter("shuffle.bytes_p2p").get(), 10);
        assert_eq!(obs.counter("shuffle.chunks_swarmed").get(), 1);
    }
}
