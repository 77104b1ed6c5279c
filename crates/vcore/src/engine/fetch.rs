//! Reduce-input fetch (§III.C): which source each peer-held input is
//! pulled from, and the retry bookkeeping when an attempt fails. The
//! shuffle strategy makes the *decisions* (source pick, chunking, coded
//! planning); the mechanics of every attempt are [`super::transfer`]'s.

use super::client::TaskState;
use super::transfer::InputSlot;
use super::Engine;
use crate::types::ClientId;
use vmr_obs::EventKind;
use vmr_shuffle::{StrategyKind, SwarmSource, SwarmTransfer};

/// Sentinel "source id" for swarm chunks seeded by the data server
/// (the server is not a client, so it has no `ClientId`).
pub(super) const SERVER_SEED: u32 = u32::MAX;

impl Engine {
    /// Pulls one peer-held input the way the project's shuffle strategy
    /// distributes map outputs.
    pub(super) fn fetch_from_peers(
        &mut self,
        slot: InputSlot,
        name: &str,
        bytes: u64,
        peers: &[ClientId],
    ) {
        match self.shuffle.kind() {
            StrategyKind::Swarm => self.swarm_pump(slot, name, bytes, peers),
            StrategyKind::Baseline | StrategyKind::Coded => {
                self.start_peer_download(slot, name, bytes, peers)
            }
        }
    }

    /// Whole-file pull from one source per attempt, the source chosen
    /// by the shuffle strategy ([`vmr_shuffle::Baseline`] rotates over
    /// the holders, offset per client; Coded follows its planned
    /// order).
    fn start_peer_download(&mut self, slot: InputSlot, name: &str, bytes: u64, peers: &[ClientId]) {
        let InputSlot {
            client: cid,
            rid,
            idx,
        } = slot;
        let now = self.sim.now();
        let attempts = self.clients[cid.0 as usize]
            .task(rid)
            .expect("input slot of a held task")
            .attempts[idx];

        // Fall back to the data server after the retry budget.
        if peers.is_empty() || attempts >= self.cfg.peer_retry_limit {
            self.start_server_download(slot, bytes, None, Some(name));
            return;
        }
        if peers.contains(&cid) && self.serves(cid, name, now) {
            self.start_local_read(slot, None);
            return;
        }

        // The strategy picks the source for this attempt.
        let peer = peers[self.shuffle.pick_source(peers.len(), attempts, cid.0)];
        let bump_and_retry = |eng: &mut Engine| {
            if let Some(t) = eng.clients[cid.0 as usize].task_mut(rid) {
                t.attempts[idx] += 1;
            }
            eng.schedule_peer_retry(slot, eng.cfg.peer_retry_delay_s);
        };

        // Peer alive and still serving the file?
        let p_dropped = self.hot[peer.0 as usize].dropped;
        if p_dropped || !self.serves(peer, name, now) {
            let window_expired = !p_dropped && self.holds_served_file(peer, name);
            self.count_peer_failure();
            if window_expired {
                self.obs
                    .journal
                    .record_with(now.as_micros(), || EventKind::ServingExpiry {
                        client: peer.0,
                        file: name.into(),
                    });
            }
            bump_and_retry(self);
            return;
        }
        // Serving-connection threshold on the mapper side.
        if self.clients[peer.0 as usize].serving_now >= self.cfg.max_serving_connections {
            self.defer_busy(slot);
            return;
        }
        if !self.try_peer_flow(slot, peer, bytes, None, false) {
            bump_and_retry(self);
        }
    }

    /// Swarm transfer driver: splits the input into fixed-size chunks
    /// and keeps up to `shuffle.max_parallel_chunks` chunk flows in
    /// flight, rarest-first, pulling from sibling seeds (reducers that
    /// already completed a chunk) and validated holders under
    /// per-source concurrency caps. A chunk whose retry budget is
    /// exhausted is seeded by the server — the seeder of last resort.
    /// Re-entered on every chunk completion and `PeerRetry` event.
    fn swarm_pump(&mut self, slot: InputSlot, name: &str, bytes: u64, peers: &[ClientId]) {
        let scope = self.eobs.swarm_pump_scope.clone();
        let _pump = scope.enter();
        let now = self.sim.now();
        let cid = slot.client;
        let key = slot.swarm_key();
        let task = self.clients[cid.0 as usize].task(slot.rid);
        if task.expect("input slot of a held task").state != TaskState::Downloading {
            return; // stale retry after the task became ready
        }
        if !self.swarm.contains_key(&key) {
            let plan = self
                .shuffle
                .chunking(bytes)
                .unwrap_or_else(|| vmr_shuffle::ChunkPlan::new(bytes, bytes.max(1)));
            let holders: Vec<u32> = peers.iter().map(|p| p.0).collect();
            self.swarm
                .insert(key, SwarmTransfer::new(name.to_string(), holders, plan));
        }
        let max_parallel = self.cfg.shuffle.max_parallel_chunks;
        let per_source_cap = self.cfg.shuffle.per_source_chunks;
        let retry_limit = self.cfg.shuffle.chunk_retry_limit;
        loop {
            // Rarest-first pick of the next chunk under the global cap.
            let (chunk, chunk_len, attempts, sources) = {
                let t = &self.swarm[&key];
                if t.remaining() == 0 || t.inflight() >= max_parallel {
                    return;
                }
                let Some(c) = t.choose_chunk(&self.swarm_index) else {
                    return; // every remaining chunk is already in flight
                };
                (
                    c,
                    t.plan.chunk_len(c),
                    t.attempts(c),
                    t.sources_for(c, &self.swarm_index, cid.0),
                )
            };

            // Retry budget exhausted (or nobody holds the file): the
            // server seeds this chunk.
            if sources.is_empty() || attempts >= retry_limit {
                self.start_server_download(slot, chunk_len, Some(chunk), Some(name));
                self.swarm.get_mut(&key).unwrap().start(chunk, SERVER_SEED);
                continue;
            }

            // Walk the candidates in preference order (siblings first);
            // remember whether anyone was merely busy — busy sources
            // defer for free, dead/expired ones consume retry budget.
            let mut pick: Option<SwarmSource> = None;
            let mut any_busy = false;
            for s in sources {
                let scid = s.cid();
                if scid == cid.0 {
                    // Self-holder: local read while the window is live.
                    if self.serves(cid, name, now) {
                        pick = Some(s);
                        break;
                    }
                    continue;
                }
                if self.hot[scid as usize].dropped {
                    continue;
                }
                // Holders must be inside their serving window; sibling
                // seeds keep chunks for the life of the job.
                if matches!(s, SwarmSource::Holder(_)) && !self.serves(ClientId(scid), name, now) {
                    continue;
                }
                if self.clients[scid as usize].serving_now >= self.cfg.max_serving_connections
                    || !self.swarm[&key].source_has_room(scid, per_source_cap)
                {
                    any_busy = true;
                    continue;
                }
                pick = Some(s);
                break;
            }

            let Some(src) = pick else {
                if any_busy {
                    self.defer_busy(slot);
                } else {
                    self.count_peer_failure();
                    self.fail_chunk_attempt(slot, chunk);
                }
                return;
            };

            let scid = src.cid();
            if scid == cid.0 {
                self.start_local_read(slot, Some(chunk));
            } else {
                let sibling = matches!(src, SwarmSource::Sibling(_));
                if !self.try_peer_flow(slot, ClientId(scid), chunk_len, Some(chunk), sibling) {
                    self.fail_chunk_attempt(slot, chunk);
                    return;
                }
            }
            self.swarm.get_mut(&key).unwrap().start(chunk, scid);
        }
    }

    /// A failed attempt consumes one unit of the chunk's retry budget;
    /// the pump re-enters after the peer retry delay.
    fn fail_chunk_attempt(&mut self, slot: InputSlot, chunk: u32) {
        let transfer = self.swarm.get_mut(&slot.swarm_key());
        transfer.expect("pump owns it").bump_attempt(chunk);
        self.schedule_peer_retry(slot, self.cfg.peer_retry_delay_s);
    }
}
