//! The transfer machine: why each network flow exists, how every kind
//! of flow starts, and what its completion or abort means to the
//! client state machine. *Which* peer an input is pulled from is
//! [`super::fetch`]'s decision; the mechanics every choice shares —
//! server flows and fall-back accounting, local reads, the peer
//! connection attempt, retry scheduling — live here, once.

use super::client::TaskState;
use super::fetch::SERVER_SEED;
use super::{Engine, Ev};
use crate::config::{PEER_RETRY_DELAY_S, RPC_OVERHEAD_S, SERVING_BUSY_RETRY_S};
use crate::types::{ClientId, FileSource, ResultId};
use vmr_desim::SimDuration;
use vmr_netsim::{connect, FlowId, FlowSpec, HostId, Path};
use vmr_obs::{Actor, Detail, EventKind, Mark};

/// Why a network flow exists.
#[derive(Debug, Clone)]
pub(super) enum FlowPurpose {
    InputDownload(InputFlow),
    OutputUpload { client: ClientId, rid: ResultId },
}

/// One input of one task on one client: what an input download serves
/// and what an [`Ev::PeerRetry`] re-enters.
#[derive(Debug, Clone, Copy)]
pub(super) struct InputSlot {
    pub(super) client: ClientId,
    pub(super) rid: ResultId,
    pub(super) idx: usize,
}

impl InputSlot {
    /// Key of this input's in-progress swarmed transfer.
    pub(super) fn swarm_key(self) -> (u32, u32, u32) {
        (self.client.0, self.rid.0, self.idx as u32)
    }
}

/// One input file (or swarm chunk of it) on its way to a client.
#[derive(Debug, Clone)]
pub(super) struct InputFlow {
    slot: InputSlot,
    from_peer: Option<ClientId>,
    /// Swarm chunk index; `None` = whole-file flow.
    chunk: Option<u32>,
    /// Server flow taken after peer attempts failed (shuffle
    /// fallback, as opposed to a regular data-server input).
    fallback: bool,
    /// Source is a sibling seed (a reducer re-serving a completed
    /// chunk), not a validated holder.
    sibling: bool,
}

/// Who carries relayed peer traffic when NAT traversal ends at the
/// relay tier (§III.D).
#[derive(Clone, Debug, Default)]
pub enum RelayChoice {
    /// The project server doubles as a TURN relay ("the server could
    /// work as a relay node, but that would require all map output to
    /// be sent back to the project servers").
    #[default]
    Server,
    /// Publicly reachable volunteers are promoted to supernodes and
    /// carry relay traffic ("creating a supernode-based P2P network").
    Supernodes(Vec<ClientId>),
}

impl Engine {
    /// Starts (or retries) the download of one input file.
    pub(super) fn start_input_download(&mut self, slot: InputSlot) {
        let c = &self.clients[slot.client.0 as usize];
        if self.hot[slot.client.0 as usize].dropped || c.task(slot.rid).is_none() {
            return; // client or task gone (deadline hit, etc.)
        }
        let file = self.db.inputs_of(slot.rid)[slot.idx].clone();
        match &file.source {
            FileSource::DataServer => self.start_server_download(slot, file.bytes, None, None),
            FileSource::Peers(peers) => self.fetch_from_peers(slot, &file.name, file.bytes, peers),
        }
    }

    /// Starts `spec` as the flow carrying `flow`; a serving peer holds
    /// one more connection until it completes or aborts.
    fn start_input_flow(&mut self, spec: FlowSpec, flow: InputFlow) {
        let fid = self.net.start_flow(self.sim.now(), spec);
        if let Some(src) = flow.from_peer {
            self.clients[src.0 as usize].serving_now += 1;
        }
        self.track_flow(fid, FlowPurpose::InputDownload(flow));
    }

    /// Records why flow `fid` exists. Both network regimes number flows
    /// densely from 0, so the table is indexed by flow id.
    fn track_flow(&mut self, fid: FlowId, purpose: FlowPurpose) {
        let i = fid.0 as usize;
        if i >= self.flows.len() {
            self.flows.resize_with(i + 1, || None);
        }
        self.flows[i] = Some(purpose);
    }

    /// Forgets flow `fid`, returning why it existed.
    fn untrack_flow(&mut self, fid: FlowId) -> Option<FlowPurpose> {
        self.flows.get_mut(fid.0 as usize).and_then(Option::take)
    }

    /// A flow with the data server on one end: no relay, the RPC
    /// overhead as connection setup.
    fn server_flow_spec(&self, src: HostId, dst: HostId, bytes: u64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            via: vec![],
            bytes,
            setup_s: RPC_OVERHEAD_S,
        }
    }

    /// Downloads `bytes` of an input (one swarm `chunk`, or the whole
    /// file) from the data server. `fallback_for` names the file when
    /// this is the fall-back after failed peer attempts ("after n
    /// failed attempts, the user resorts to downloading the file from
    /// the server"), which is counted and journaled as such.
    pub(super) fn start_server_download(
        &mut self,
        slot: InputSlot,
        bytes: u64,
        chunk: Option<u32>,
        fallback_for: Option<&str>,
    ) {
        if let Some(name) = fallback_for {
            self.eobs.server_fallbacks.inc();
            self.obs
                .journal
                .record_with(self.sim.now().as_micros(), || EventKind::PeerFallback {
                    client: slot.client.0,
                    file: name.into(),
                });
        }
        let dst = self.clients[slot.client.0 as usize].host;
        let flow = InputFlow {
            slot,
            from_peer: None,
            chunk,
            fallback: fallback_for.is_some(),
            sibling: false,
        };
        self.start_input_flow(self.server_flow_spec(self.server_host, dst, bytes), flow);
    }

    /// A reducer that is itself a holder of the file reads it from
    /// local disk — no transfer at all, modelled as a zero-byte
    /// loopback flow so completion runs through the one flow path.
    pub(super) fn start_local_read(&mut self, slot: InputSlot, chunk: Option<u32>) {
        let host = self.clients[slot.client.0 as usize].host;
        let flow = InputFlow {
            slot,
            from_peer: Some(slot.client),
            chunk,
            fallback: false,
            sibling: false,
        };
        self.start_input_flow(FlowSpec::simple(host, host, 0), flow);
    }

    /// One connection attempt to the serving peer `src`, in the fixed
    /// draw order every strategy shares: transient-fault draw, NAT
    /// traversal, relay pick. On success the flow is started. On
    /// failure the attempt is counted as a peer failure and `false` is
    /// returned — retry bookkeeping is the caller's.
    pub(super) fn try_peer_flow(
        &mut self,
        slot: InputSlot,
        src: ClientId,
        bytes: u64,
        chunk: Option<u32>,
        sibling: bool,
    ) -> bool {
        let cid = slot.client;
        // Transient transfer fault?
        let fails = self
            .fault
            .peer_attempt_fails(&mut self.hot[cid.0 as usize].rng);
        if fails {
            self.count_peer_failure();
            return false;
        }
        // NAT traversal.
        let (req_nat, srv_nat) = (
            self.clients[cid.0 as usize].profile.nat,
            self.clients[src.0 as usize].profile.nat,
        );
        let rng = &mut self.hot[cid.0 as usize].rng;
        let outcome = connect(req_nat, srv_nat, &self.traversal, rng);
        match outcome.map(|o| o.path) {
            Some(Path::Direct) => &self.eobs.nat_direct,
            Some(Path::Reversal) => &self.eobs.nat_reversal,
            Some(Path::HolePunch) => &self.eobs.nat_hole_punch,
            Some(Path::Relay) => &self.eobs.nat_relay,
            None => &self.eobs.nat_failed,
        }
        .inc();
        let Some(outcome) = outcome else {
            self.count_peer_failure();
            return false;
        };
        let via = if outcome.path == Path::Relay {
            vec![self.pick_relay_host(cid)]
        } else {
            vec![]
        };
        let spec = FlowSpec {
            src: self.clients[src.0 as usize].host,
            dst: self.clients[cid.0 as usize].host,
            via,
            bytes,
            setup_s: outcome.setup_s,
        };
        let flow = InputFlow {
            slot,
            from_peer: Some(src),
            chunk,
            fallback: false,
            sibling,
        };
        self.start_input_flow(spec, flow);
        true
    }

    pub(super) fn count_peer_failure(&mut self) {
        self.eobs.peer_failures.inc();
    }

    /// Re-enters [`Engine::start_input_download`] after `delay_s`.
    pub(super) fn schedule_peer_retry(&mut self, slot: InputSlot, delay_s: f64) {
        self.sim.schedule_in(
            SimDuration::from_secs_f64(delay_s),
            Ev::PeerRetry(slot.client, slot.rid, slot.idx),
        );
    }

    /// The chosen source is at its serving-connection threshold. Busy
    /// is not a failure — retry without consuming budget.
    pub(super) fn defer_busy(&mut self, slot: InputSlot) {
        self.eobs.busy_deferrals.inc();
        self.schedule_peer_retry(slot, SERVING_BUSY_RETRY_S);
    }

    /// Chooses the relay host for a NAT-relayed transfer.
    fn pick_relay_host(&mut self, cid: ClientId) -> HostId {
        match &self.relay {
            RelayChoice::Server => self.server_host,
            RelayChoice::Supernodes(nodes) => {
                let alive: Vec<HostId> = nodes
                    .iter()
                    .filter(|n| !self.hot[n.0 as usize].dropped)
                    .map(|n| self.clients[n.0 as usize].host)
                    .collect();
                if alive.is_empty() {
                    self.server_host
                } else {
                    alive[self.hot[cid.0 as usize].rng.pick(alive.len())]
                }
            }
        }
    }

    /// Uploads a finished task's output to the data server.
    pub(super) fn start_output_upload(&mut self, cid: ClientId, rid: ResultId, bytes: u64) {
        let spec =
            self.server_flow_spec(self.clients[cid.0 as usize].host, self.server_host, bytes);
        let fid = self.net.start_flow(self.sim.now(), spec);
        self.track_flow(fid, FlowPurpose::OutputUpload { client: cid, rid });
    }

    /// The network reported progress: settle every completed flow.
    pub(super) fn on_net_wake(&mut self) {
        let completions = self.net.advance(self.sim.now());
        for comp in completions {
            let bytes = comp.spec.bytes;
            match self.untrack_flow(comp.id) {
                Some(FlowPurpose::InputDownload(f)) => self.finish_input_download(f, bytes),
                Some(FlowPurpose::OutputUpload { client, rid }) => {
                    self.finish_output_upload(client, rid, bytes)
                }
                None => {}
            }
        }
    }

    fn finish_input_download(&mut self, flow: InputFlow, bytes: u64) {
        let InputFlow {
            slot,
            from_peer,
            chunk,
            fallback,
            sibling,
        } = flow;
        let InputSlot { client, rid, .. } = slot;
        let now = self.sim.now();
        if let Some(peer) = from_peer {
            let p = &mut self.clients[peer.0 as usize];
            p.serving_now = p.serving_now.saturating_sub(1);
        } else {
            self.eobs.bytes_via_server.add(bytes);
        }
        // Shuffle byte accounting (obs only): peer-sourced
        // transfers and post-failure server fallbacks.
        if fallback {
            self.fobs.bytes_server_fallback.add(bytes);
        } else if from_peer.is_some() {
            self.fobs.bytes_p2p.add(bytes);
            // Every peer-sourced chunk counts as swarmed —
            // sibling seeds and validated holders alike.
            debug_assert!(!sibling || chunk.is_some());
            if chunk.is_some() {
                self.fobs.chunks_swarmed.inc();
            }
        }
        if self.hot[client.0 as usize].dropped {
            return;
        }
        // A swarm chunk: update the transfer state machine;
        // the input is pending until its last chunk lands.
        if let Some(k) = chunk {
            let Some(t) = self.swarm.get_mut(&slot.swarm_key()) else {
                return; // task gone (deadline hit, etc.)
            };
            let src = from_peer.map(|p| p.0).unwrap_or(SERVER_SEED);
            let done_all = t.complete(k, Some(src));
            let (fname, n_chunks) = (t.name.clone(), t.plan.n_chunks);
            // The downloader now seeds this chunk.
            self.swarm_index.add_seed(&fname, k, n_chunks, client.0);
            if !done_all {
                self.start_input_download(slot);
                return;
            }
        }
        let c = &mut self.clients[client.0 as usize];
        let mut became_ready = None;
        if let Some(t) = c.task_mut(rid) {
            t.downloads_pending = t.downloads_pending.saturating_sub(1);
            if t.downloads_pending == 0 && t.state == TaskState::Downloading {
                t.state = TaskState::Queued;
                t.dl_done_at = Some(now);
                became_ready = Some(t.assigned_at);
            }
        }
        if let Some(assigned_at) = became_ready {
            // All inputs are in: swarm bookkeeping for this
            // task is finished.
            self.swarm.retain(|k, _| !(k.0 == client.0 && k.1 == rid.0));
            self.obs.journal.span(
                Actor::Node(client.0),
                Mark::Download,
                Detail::Result(rid.0),
                assigned_at.as_micros(),
                now.as_micros(),
            );
            self.clients[client.0 as usize].run_queue.push_back(rid);
            self.try_start_tasks(client);
        }
    }

    fn finish_output_upload(&mut self, client: ClientId, rid: ResultId, bytes: u64) {
        let now = self.sim.now();
        self.eobs.bytes_via_server.add(bytes);
        if self.hot[client.0 as usize].dropped {
            return;
        }
        let c = &mut self.clients[client.0 as usize];
        if let Some(t) = c.task_mut(rid) {
            t.state = TaskState::Uploading; // terminal client-side
            let (fp, err) = (t.fingerprint, t.errored);
            let start = t.exec_done_at.unwrap_or(now);
            c.ready_to_report.push((rid, fp, err));
            self.obs.journal.span(
                Actor::Node(client.0),
                Mark::Upload,
                Detail::Result(rid.0),
                start.as_micros(),
                now.as_micros(),
            );
        }
        self.result_ready(client);
    }

    /// Aborts every in-flight flow to or from the dropped client `cid`,
    /// in flow-id order. A surviving downloader whose source vanished
    /// retries against another peer.
    pub(super) fn abort_flows_of(&mut self, cid: ClientId) {
        let involved: Vec<FlowId> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, p)| match p {
                Some(FlowPurpose::InputDownload(f)) => {
                    f.slot.client == cid || f.from_peer == Some(cid)
                }
                Some(FlowPurpose::OutputUpload { client, .. }) => *client == cid,
                None => false,
            })
            .map(|(i, _)| FlowId(i as u64))
            .collect();
        let now = self.sim.now();
        for fid in involved {
            let purpose = self.untrack_flow(fid);
            self.net.abort_flow(now, fid);
            let Some(FlowPurpose::InputDownload(InputFlow {
                from_peer: Some(peer),
                slot,
                chunk,
                ..
            })) = purpose
            else {
                continue;
            };
            let p = &mut self.clients[peer.0 as usize];
            p.serving_now = p.serving_now.saturating_sub(1);
            // The downloading side (if it wasn't the dropped one)
            // retries against another peer.
            if slot.client != cid && !self.hot[slot.client.0 as usize].dropped {
                self.count_peer_failure();
                if let Some(k) = chunk {
                    // Swarm chunk: return it to the pool and repump.
                    if let Some(t) = self.swarm.get_mut(&slot.swarm_key()) {
                        t.fail(k, Some(peer.0));
                    }
                } else if let Some(t) = self.clients[slot.client.0 as usize].task_mut(slot.rid) {
                    t.attempts[slot.idx] += 1;
                }
                self.schedule_peer_retry(slot, PEER_RETRY_DELAY_S);
            }
        }
    }
}
