//! The middleware engine: server daemons + client state machines wired
//! to the discrete-event kernel and the network model.
//!
//! One [`Engine`] simulates one BOINC project: a server host (scheduler,
//! data server, transitioner, validator, feeder) plus N volunteer
//! clients. Everything follows the paper's **pull model** — every
//! interaction starts with a client RPC; the server never contacts a
//! client.
//!
//! Project-specific behaviour (the MapReduce orchestration of vmr-core)
//! plugs in through the [`Policy`] trait, whose hooks fire on work-unit
//! validation, task execution, report arrival, and custom events.

use crate::backoff::Backoff;
use crate::config::ProjectConfig;
use crate::db::Db;
use crate::fault::{Corruption, FaultIndex, FaultPlan};
use crate::host::{HostProfile, ValidationCounts};
use crate::sched::{pick_results, WorkRequest};
use crate::transition::{transition_wu, Transition};
use crate::types::{ClientId, FileSource, OutputFingerprint, ResultId, WuId};
use crate::workunit::{ResultOutcome, ResultState, WorkUnitSpec};
use std::collections::{HashMap, VecDeque};
use vmr_desim::{EventId, RngStream, SimDuration, SimTime, Simulation, Tally};
use vmr_durable::{DurabilityPlan, Journal, Sections};
use vmr_netsim::{
    connect, AggregateNetwork, FlowId, FlowSpec, HostId, HostLink, Path, Priority, Topology,
    TraversalPolicy, TraversalStats,
};
use vmr_obs::EventKind;
use vmr_shuffle::{
    FetchObs, ShuffleStrategy, StrategyKind, SwarmIndex, SwarmSource, SwarmTransfer,
};
use vmr_trust::{Outcome as TrustOutcome, ReplicationDecision, ReplicationPolicy, TrustLedger};

/// Sentinel "source id" for swarm chunks seeded by the data server
/// (the server is not a client, so it has no `ClientId`).
const SERVER_SEED: u32 = u32::MAX;

/// Events driving the middleware simulation.
#[derive(Debug)]
pub enum Ev {
    /// The network has something to report (flow completion/setup end).
    NetWake,
    /// A client's scheduled RPC instant arrived.
    ClientWake(ClientId),
    /// A task finished executing on a client.
    ExecDone(ClientId, ResultId),
    /// A result's report deadline may have passed.
    DeadlineCheck(ResultId),
    /// Periodic server daemon pass (feeder refill).
    DaemonTick,
    /// Retry a peer download: (client, result, input index).
    PeerRetry(ClientId, ResultId, usize),
    /// A client permanently disappears (churn injection).
    Dropout(ClientId),
    /// The host's owner starts using the machine: execution pauses.
    Suspend(ClientId),
    /// The host becomes idle again: execution resumes.
    Resume(ClientId),
    /// Policy-defined event.
    Custom(u64),
}

/// Why a network flow exists.
#[derive(Debug, Clone)]
enum FlowPurpose {
    InputDownload {
        client: ClientId,
        rid: ResultId,
        input_idx: usize,
        from_peer: Option<ClientId>,
        /// Swarm chunk index; `None` = whole-file flow.
        chunk: Option<u32>,
        /// Server flow taken after peer attempts failed (shuffle
        /// fallback, as opposed to a regular data-server input).
        fallback: bool,
        /// Source is a sibling seed (a reducer re-serving a completed
        /// chunk), not a validated holder.
        sibling: bool,
    },
    OutputUpload {
        client: ClientId,
        rid: ResultId,
    },
}

/// Client-side task lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Downloading,
    Queued,
    Running,
    Uploading,
}

#[derive(Debug)]
struct TaskProgress {
    state: TaskState,
    downloads_pending: usize,
    /// Peer-download attempts per input index.
    attempts: Vec<u32>,
    assigned_at: SimTime,
    dl_done_at: Option<SimTime>,
    exec_done_at: Option<SimTime>,
    /// Pending ExecDone event while running (cancelled on suspend).
    exec_ev: Option<EventId>,
    /// When the current execution burst started.
    exec_started: Option<SimTime>,
    /// Compute time still owed when suspended mid-run.
    exec_remaining: Option<SimDuration>,
    fingerprint: Option<OutputFingerprint>,
    errored: bool,
}

/// A file a client is willing to serve to peers (BOINC-MR map outputs).
#[derive(Debug, Clone)]
pub struct ServedFile {
    /// Size served to each downloader.
    pub bytes: u64,
    /// Serving window end; `None` = no timeout.
    pub until: Option<SimTime>,
}

struct Client {
    host: HostId,
    profile: HostProfile,
    rng: RngStream,
    tasks: HashMap<ResultId, TaskProgress>,
    run_queue: VecDeque<ResultId>,
    running: Vec<ResultId>,
    ready_to_report: Vec<(ResultId, Option<OutputFingerprint>, bool)>, // (rid, fp, errored)
    backoff: Backoff,
    next_rpc_at: SimTime,
    wake: Option<EventId>,
    served: HashMap<String, ServedFile>,
    serving_now: u32,
    dropped: bool,
    suspended: bool,
}

/// Aggregate counters the experiment harness reads after a run.
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    /// Scheduler RPCs served.
    pub rpcs: u64,
    /// RPCs that requested work and got none (trigger backoff).
    pub empty_replies: u64,
    /// Results granted to clients.
    pub grants: u64,
    /// Reports received.
    pub reports: u64,
    /// Upload-finished → report-accepted gap, seconds (the §IV.B delay).
    pub report_delay: Tally,
    /// Peer download attempts that failed (connection/fault).
    pub peer_failures: u64,
    /// Inputs that fell back to the data server after peer retries.
    pub server_fallbacks: u64,
    /// Peer download attempts deferred because the serving peer was at
    /// its connection cap.
    pub busy_deferrals: u64,
    /// NAT traversal outcomes for peer connections.
    pub traversal: TraversalStats,
    /// Bytes uploaded to the server (all flows into the server host).
    pub bytes_via_server: f64,
}

/// Project-specific orchestration hooks (implemented by vmr-core).
#[allow(unused_variables)]
pub trait Policy {
    /// A work unit reached quorum. `agreeing` lists the clients whose
    /// outputs matched the canonical fingerprint (they hold the data).
    fn on_wu_validated(&mut self, eng: &mut Engine, wu: WuId, agreeing: &[ClientId]) {}
    /// A work unit exhausted its retry budget.
    fn on_wu_failed(&mut self, eng: &mut Engine, wu: WuId) {}
    /// The scheduler handed `rid` to `client` (task assignment — phase
    /// starts are timestamped from this hook).
    fn on_task_granted(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {}
    /// A client finished *executing* a task (before upload/report).
    fn on_task_executed(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {}
    /// The server accepted a report for `rid`.
    fn on_result_reported(&mut self, eng: &mut Engine, rid: ResultId) {}
    /// A custom event fired.
    fn on_custom(&mut self, eng: &mut Engine, tag: u64) {}
    /// Contribute extra named sections to a durability snapshot
    /// (vmr-core serializes its JobTracker here). Sections must be
    /// canonical: equal policy states must append equal bytes.
    fn durable_sections(&self, out: &mut Vec<(String, Vec<u8>)>) {}
}

/// A no-op policy: plain BOINC with no project hooks.
pub struct NullPolicy;
impl Policy for NullPolicy {}

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

/// The BOINC-like middleware simulation.
pub struct Engine {
    sim: Simulation<Ev>,
    net: AggregateNetwork,
    /// The project database (public: policies inspect it freely).
    pub db: Db,
    /// Configuration knobs.
    pub cfg: ProjectConfig,
    /// Fault-injection plan.
    pub fault: FaultPlan,
    /// NAT traversal policy for inter-client connections.
    pub traversal: TraversalPolicy,
    /// Observability bundle: metrics registry, event journal (the
    /// Fig. 4 source — rebuild lanes with `Timeline::from_journal`),
    /// profiling scopes. Shared with the network engine and the sim.
    pub obs: vmr_obs::Obs,
    /// Aggregate counters.
    pub stats: EngineStats,
    /// Credit / reliability ledger (BOINC's volunteer incentive).
    pub credit: crate::credit::CreditLedger,
    /// Assimilator: ordered sink of validated canonical results.
    pub assimilator: crate::assimilate::Assimilator,
    /// Relay-node selection for NAT-relayed transfers.
    pub relay: RelayChoice,
    /// Host reputation ledger driving adaptive replication. Observes
    /// validation outcomes only when `cfg.trust.enabled`; its WAL
    /// section is always part of snapshots (a pristine ledger encodes
    /// deterministically).
    pub trust: TrustLedger,
    server_host: HostId,
    clients: Vec<Client>,
    flows: HashMap<FlowId, FlowPurpose>,
    /// Pending NetWake event and the time it targets. The time is kept
    /// so re-arming at the same instant preserves the original event
    /// (and its queue tie-break rank) instead of cancel+reschedule —
    /// required for stepped/resumed runs to match continuous ones.
    net_wake: Option<(EventId, SimTime)>,
    feeder: crate::sched::Feeder,
    /// Worker pool for daemon passes, sized from `cfg.shard`.
    pool: crate::shard::WorkerPool,
    rng: RngStream,
    /// Dedicated stream for spot-check draws: it is consumed only for
    /// trusted hosts with trust enabled, so disabling trust leaves
    /// every other stream's draw sequence untouched (bit-identical
    /// baseline runs).
    trust_rng: RngStream,
    /// Per-client validation outcome tallies, kept even when the trust
    /// subsystem is disabled (satellite observability).
    host_outcomes: Vec<ValidationCounts>,
    dropouts_armed: bool,
    /// Compiled fault lookups, built from `fault` at run start.
    fidx: FaultIndex,
    /// Write-ahead log handle (disabled unless `attach_durable` ran).
    durable: Journal,
    eobs: EngineObs,
    /// Shuffle strategy object built from `cfg.shuffle` — owns the
    /// *decisions* of the transfer path (source pick, chunking, coded
    /// planning); all mechanics stay in this file so the Baseline
    /// strategy is bit-identical to the pre-strategy path.
    shuffle: Box<dyn ShuffleStrategy + Send + Sync>,
    /// Per-chunk sibling seeds of swarmed files.
    swarm_index: SwarmIndex,
    /// In-progress swarmed transfers, keyed (client, result, input).
    swarm: HashMap<(u32, u32, u32), SwarmTransfer>,
    /// Pre-resolved `shuffle.*` counters.
    fobs: FetchObs,
}

/// Pre-resolved metric handles for the scheduler hot paths. These
/// mirror the cumulative [`EngineStats`] fields into the shared
/// registry so one snapshot covers every crate; resolving them once at
/// construction keeps per-event cost to an atomic bump.
struct EngineObs {
    rpcs: vmr_obs::Counter,
    empty_replies: vmr_obs::Counter,
    grants: vmr_obs::Counter,
    reports: vmr_obs::Counter,
    peer_failures: vmr_obs::Counter,
    server_fallbacks: vmr_obs::Counter,
    busy_deferrals: vmr_obs::Counter,
    wu_validated: vmr_obs::Counter,
    wu_failed: vmr_obs::Counter,
    report_delay_s: vmr_obs::Histo,
    feeder_occupancy: vmr_obs::TimeGauge,
    transitioner_scope: vmr_obs::Scope,
    host_valid: vmr_obs::Counter,
    host_invalid: vmr_obs::Counter,
    host_error: vmr_obs::Counter,
    error_escapes: vmr_obs::Counter,
    trust_spot_checks: vmr_obs::Counter,
    trust_spot_check_failures: vmr_obs::Counter,
    trust_replication_saved: vmr_obs::Counter,
    trust_hosts_trusted: vmr_obs::TimeGauge,
}

impl EngineObs {
    fn attach(obs: &vmr_obs::Obs) -> Self {
        EngineObs {
            rpcs: obs.counter("vcore.rpcs"),
            empty_replies: obs.counter("vcore.empty_replies"),
            grants: obs.counter("vcore.grants"),
            reports: obs.counter("vcore.reports"),
            peer_failures: obs.counter("vcore.peer_failures"),
            server_fallbacks: obs.counter("vcore.server_fallbacks"),
            busy_deferrals: obs.counter("vcore.busy_deferrals"),
            wu_validated: obs.counter_labeled("vcore.wu_outcomes", &[("outcome", "validated")]),
            wu_failed: obs.counter_labeled("vcore.wu_outcomes", &[("outcome", "failed")]),
            report_delay_s: obs.histogram("vcore.report_delay_s"),
            feeder_occupancy: obs.time_gauge("vcore.feeder_occupancy"),
            transitioner_scope: obs.scope("vcore.transitioner_sweep"),
            host_valid: obs.counter_labeled("vcore.host_outcomes", &[("outcome", "valid")]),
            host_invalid: obs.counter_labeled("vcore.host_outcomes", &[("outcome", "invalid")]),
            host_error: obs.counter_labeled("vcore.host_outcomes", &[("outcome", "error")]),
            error_escapes: obs.counter("vcore.error_escapes"),
            trust_spot_checks: obs.counter("trust.spot_checks"),
            trust_spot_check_failures: obs.counter("trust.spot_check_failures"),
            trust_replication_saved: obs.counter("trust.replication_saved"),
            trust_hosts_trusted: obs.time_gauge("trust.hosts_trusted"),
        }
    }
}

impl Engine {
    /// Starts a fluent [`EngineBuilder`] — the single construction
    /// surface for engines: configuration, shard count, durability,
    /// synthetic populations and ad-hoc clients in one pass.
    pub fn builder(seed: u64) -> EngineBuilder {
        EngineBuilder::new(seed)
    }

    /// The engine's metric registry rendered in Prometheus exposition
    /// format — the same text the rtnet poll runtime serves on its
    /// `GET /metrics` endpoint, so simulated and real runs are scraped
    /// identically.
    pub fn metrics_text(&self) -> String {
        vmr_obs::render_prometheus(&self.obs.snapshot())
    }

    /// A one-shot human-readable dashboard of the engine's registry
    /// (counters, gauges, latency summaries).
    pub fn dashboard_text(&self) -> String {
        vmr_obs::render_dashboard(&self.obs.snapshot(), "vcore engine")
    }

    /// Builds an engine with a server host on `server_link`.
    #[deprecated(note = "use Engine::builder(seed).config(cfg).server_link(link).build()")]
    pub fn new(seed: u64, cfg: ProjectConfig, server_link: HostLink) -> Self {
        Engine::builder(seed)
            .config(cfg)
            .server_link(server_link)
            .build()
    }

    /// Convenience: an engine with a 100 Mbit server, like the testbed.
    #[deprecated(note = "use Engine::builder(seed).config(cfg).build()")]
    pub fn testbed(seed: u64, cfg: ProjectConfig) -> Self {
        Engine::builder(seed).config(cfg).build()
    }

    /// Assembles the engine over a fully built topology. The topology
    /// must be complete before the network engine is constructed (dense
    /// link indices embed the host count), which is exactly what the
    /// builder guarantees — [`Engine::add_client`] after the fact pays
    /// an O(hosts) network rebuild instead.
    fn from_parts(seed: u64, cfg: ProjectConfig, topo: Topology, server_host: HostId) -> Self {
        let mut sim = Simulation::new(seed);
        let rng = sim.fork_rng("engine");
        let trust_rng = sim.fork_rng("trust");
        let trust = TrustLedger::with_shards(cfg.trust.clone(), cfg.shard.n.max(1));
        let obs = vmr_obs::Obs::new();
        sim.attach_obs(&obs);
        let eobs = EngineObs::attach(&obs);
        let policy = cfg.scale_policy();
        let n_shards = cfg.shard.n.max(1);
        let pool = crate::shard::WorkerPool::from_config(&cfg.shard);
        let shuffle = cfg.shuffle.build();
        let fobs = FetchObs::attach(&obs);
        let mut eng = Engine {
            sim,
            net: AggregateNetwork::with_policy(topo, &obs, policy),
            db: Db::with_shards(n_shards),
            cfg,
            fault: FaultPlan::none(),
            traversal: TraversalPolicy::direct_only(),
            obs,
            stats: EngineStats::default(),
            credit: crate::credit::CreditLedger::with_shards(n_shards),
            assimilator: crate::assimilate::Assimilator::new(),
            relay: RelayChoice::default(),
            trust,
            server_host,
            clients: Vec::new(),
            flows: HashMap::new(),
            net_wake: None,
            feeder: crate::sched::Feeder::new(n_shards),
            pool,
            rng,
            trust_rng,
            host_outcomes: Vec::new(),
            dropouts_armed: false,
            fidx: FaultIndex::default(),
            durable: Journal::disabled(),
            eobs,
            shuffle,
            swarm_index: SwarmIndex::default(),
            swarm: HashMap::new(),
            fobs,
        };
        eng.sim.schedule_at(SimTime::ZERO, Ev::DaemonTick);
        eng
    }

    // ----- construction ---------------------------------------------------

    /// Adds a volunteer with the given profile and link. Returns its id.
    ///
    /// Prefer declaring clients on [`Engine::builder`]: adding one here
    /// rebuilds the network engine (topologies are sealed once routing
    /// starts), so an N-client loop costs O(N²).
    pub fn add_client(&mut self, profile: HostProfile, link: HostLink) -> ClientId {
        let host = self.net_add_host(link);
        self.push_client(profile, host)
    }

    /// Registers a client over an already-placed network host (the
    /// builder path: hosts go into the topology before the network
    /// engine exists, so no rebuild is needed).
    fn push_client(&mut self, profile: HostProfile, host: HostId) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        let rng = self.rng.fork(&format!("client-{}", id.0));
        let (bmin, bmax) = self.cfg.backoff_bounds();
        let mut c = Client {
            host,
            profile,
            rng,
            tasks: HashMap::new(),
            run_queue: VecDeque::new(),
            running: Vec::new(),
            ready_to_report: Vec::new(),
            backoff: Backoff::with_bounds(bmin, bmax),
            next_rpc_at: SimTime::ZERO,
            wake: None,
            served: HashMap::new(),
            serving_now: 0,
            dropped: false,
            suspended: false,
        };
        // Stagger initial contact to avoid a lockstep thundering herd.
        let stagger = SimDuration::from_secs_f64(c.rng.uniform_f64(0.0, 3.0));
        c.next_rpc_at = SimTime::ZERO + stagger;
        let ev = self.sim.schedule_at(c.next_rpc_at, Ev::ClientWake(id));
        c.wake = Some(ev);
        self.clients.push(c);
        self.host_outcomes.push(ValidationCounts::default());
        id
    }

    fn net_add_host(&mut self, link: HostLink) -> HostId {
        // The engine does not expose topology mutation; rebuild it.
        let mut topo = self.net.topology().clone();
        let id = topo.add_host(link);
        // Safe only before any flow exists (construction phase).
        assert_eq!(self.net.active_flows(), 0, "add clients before running");
        self.net = AggregateNetwork::with_policy(topo, &self.obs, self.cfg.scale_policy());
        id
    }

    /// Inserts a work unit; it becomes schedulable at the next daemon
    /// tick (feeder pass).
    pub fn insert_workunit(&mut self, spec: WorkUnitSpec) -> WuId {
        self.db.insert_workunit(spec, self.sim.now())
    }

    // ----- accessors -------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The server's network host id.
    pub fn server_host(&self) -> HostId {
        self.server_host
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// The network host of a client.
    pub fn client_host(&self, c: ClientId) -> HostId {
        self.clients[c.0 as usize].host
    }

    /// The profile of a client.
    pub fn client_profile(&self, c: ClientId) -> &HostProfile {
        &self.clients[c.0 as usize].profile
    }

    /// Has this client dropped out?
    pub fn client_dropped(&self, c: ClientId) -> bool {
        self.clients[c.0 as usize].dropped
    }

    /// Validation outcome tallies for a client. Maintained regardless
    /// of whether the trust subsystem is enabled, so operators can see
    /// the raw material a reputation system would consume.
    pub fn host_outcomes(&self, c: ClientId) -> ValidationCounts {
        self.host_outcomes[c.0 as usize]
    }

    /// Schedules a policy-defined event.
    pub fn schedule_custom(&mut self, delay: SimDuration, tag: u64) {
        self.sim.schedule_in(delay, Ev::Custom(tag));
    }

    /// Marks `name` as served by `client` for peers to download
    /// (BOINC-MR: a mapper starts serving its outputs after execution).
    pub fn register_served_file(
        &mut self,
        client: ClientId,
        name: impl Into<String>,
        bytes: u64,
        until: Option<SimTime>,
    ) {
        self.clients[client.0 as usize]
            .served
            .insert(name.into(), ServedFile { bytes, until });
    }

    /// Stops serving `name` from `client` (job finished). Sibling
    /// seeds of the file are dropped with it: once the job stops
    /// serving a map output, nobody swarms its chunks any more.
    pub fn unregister_served_file(&mut self, client: ClientId, name: &str) {
        self.clients[client.0 as usize].served.remove(name);
        self.swarm_index.drop_file(name);
    }

    /// Extends/reset the serving window of a file ("the map outputs'
    /// timeout is reset … and the file becomes available for upload").
    pub fn reset_serving_timeout(&mut self, client: ClientId, name: &str, until: Option<SimTime>) {
        if let Some(f) = self.clients[client.0 as usize].served.get_mut(name) {
            f.until = until;
        }
    }

    // ----- durability -------------------------------------------------------

    /// Attaches a write-ahead log: the engine owns the master handle
    /// and clones it into every journaled subsystem (project database,
    /// credit ledger, assimilator). Policies append through
    /// [`Engine::durable`]. Call before inserting work units so the
    /// genesis records land in the log.
    #[deprecated(note = "pass the journal to Engine::builder via .journal(j) or .durability(plan)")]
    pub fn attach_durable(&mut self, journal: Journal) {
        self.set_durable(journal);
    }

    /// [`Engine::attach_durable`] without the deprecation: the builder
    /// wires journals through here.
    fn set_durable(&mut self, journal: Journal) {
        journal.attach_obs(&self.obs);
        self.db.set_journal(journal.clone());
        self.credit.set_journal(journal.clone());
        self.assimilator.set_journal(journal.clone());
        self.trust.set_journal(journal.clone());
        self.durable = journal;
    }

    /// The engine's WAL handle (disabled unless `attach_durable` ran).
    pub fn durable(&self) -> &Journal {
        &self.durable
    }

    /// The shuffle strategy in effect — policies consult it for map
    /// placement and reduce-input fetch planning.
    pub fn shuffle_strategy(&self) -> &(dyn ShuffleStrategy + Send + Sync) {
        self.shuffle.as_ref()
    }

    /// Pre-resolved `shuffle.*` counters (policies account planned
    /// coded sends here; the engine accounts transfer bytes).
    pub fn shuffle_obs(&self) -> &FetchObs {
        &self.fobs
    }

    /// Canonical snapshot sections of the vcore-owned server state,
    /// plus whatever the policy contributes. Section order is fixed, so
    /// equal states produce byte-identical snapshots.
    fn snapshot_sections<P: Policy>(&self, policy: &P) -> Sections {
        Sections {
            entries: self.live_sections(policy),
        }
    }

    /// The vcore-owned snapshot sections (db, credit, assimilator) —
    /// the prefix [`Engine::live_sections`] emits before the policy and
    /// trust ledger add theirs.
    pub fn state_sections(&self) -> Vec<(String, Vec<u8>)> {
        use vmr_durable::section;
        vec![
            (section::NAMES[section::DB].into(), self.db.encode_state()),
            (
                section::NAMES[section::CREDIT].into(),
                self.credit.encode_state(),
            ),
            (
                section::NAMES[section::ASSIM].into(),
                self.assimilator.encode_state(),
            ),
        ]
    }

    /// Every snapshot section in canonical order: the vcore-owned
    /// trio, then whatever the policy contributes, then the trust
    /// ledger (always present — a pristine ledger still encodes its
    /// config deterministically). The recovery audit compares these
    /// against a recovered image byte-for-byte.
    pub fn live_sections<P: Policy>(&self, policy: &P) -> Vec<(String, Vec<u8>)> {
        use vmr_durable::section;
        let mut entries = self.state_sections();
        policy.durable_sections(&mut entries);
        entries.push((
            section::NAMES[section::TRUST].into(),
            self.trust.encode_state(),
        ));
        entries
    }

    // ----- main loop --------------------------------------------------------

    /// Runs until `stop` returns true, the event queue drains, or `horizon`
    /// passes. Returns the number of events processed.
    pub fn run_until<P: Policy>(
        &mut self,
        policy: &mut P,
        horizon: SimTime,
        mut stop: impl FnMut(&Engine) -> bool,
    ) -> u64 {
        let mut n = 0;
        self.arm_dropouts();
        self.arm_net_wake();
        // Construction-time records (WU inserts before the first run)
        // belong to a transaction of their own.
        self.durable.advance_to(self.sim.now().as_micros());
        self.durable.commit();
        loop {
            // A crashed journal models a dead server: stop consuming
            // events; whatever memory holds past this point is lost.
            if self.durable.crashed() {
                break;
            }
            if stop(self) {
                break;
            }
            if self.sim.peek_time().map(|t| t > horizon).unwrap_or(true) {
                break;
            }
            let ev = match self.sim.next_event() {
                Some(e) => e,
                None => break,
            };
            n += 1;
            self.dispatch(policy, ev.payload);
            // One dispatched event = one WAL transaction.
            self.durable.commit();
            self.arm_net_wake();
        }
        n
    }

    fn dispatch<P: Policy>(&mut self, policy: &mut P, ev: Ev) {
        self.durable.advance_to(self.sim.now().as_micros());
        match ev {
            Ev::NetWake => self.on_net_wake(policy),
            Ev::ClientWake(c) => self.client_rpc(policy, c),
            Ev::ExecDone(c, rid) => self.on_exec_done(policy, c, rid),
            Ev::DeadlineCheck(rid) => self.on_deadline(policy, rid),
            Ev::DaemonTick => self.on_daemon_tick(policy),
            Ev::PeerRetry(c, rid, idx) => self.start_input_download(c, rid, idx),
            Ev::Dropout(c) => self.on_dropout(c),
            Ev::Suspend(c) => self.on_suspend(c),
            Ev::Resume(c) => self.on_resume(c),
            Ev::Custom(tag) => policy.on_custom(self, tag),
        }
    }

    /// Schedules dropout events from the fault plan. Idempotent: runs
    /// once (dropouts are scheduled lazily at run start so callers can
    /// set `fault` after constructing the engine).
    fn arm_dropouts(&mut self) {
        if self.dropouts_armed {
            return;
        }
        // Rebuilt on every run entry (not behind the armed flag) so a
        // plan swapped between run segments is picked up, matching the
        // old scan-the-plan-live behavior.
        self.fidx = self.fault.index();
        if self.dropouts_armed {
            return;
        }
        self.dropouts_armed = true;
        for i in 0..self.clients.len() {
            let id = ClientId(i as u32);
            if let Some(after) = self.fidx.dropout_time(id) {
                self.sim.schedule_at(SimTime::ZERO + after, Ev::Dropout(id));
            }
            if let Some(av) = self.clients[i].profile.availability {
                let first_on = {
                    let c = &mut self.clients[i];
                    SimDuration::from_secs_f64(c.rng.exponential(av.on_mean_s))
                };
                self.sim.schedule_in(first_on, Ev::Suspend(id));
            }
        }
    }

    /// The owner takes the machine: pause execution and scheduler
    /// contact; in-flight transfers continue (BOINC keeps network
    /// activity in the background by default).
    fn on_suspend(&mut self, cid: ClientId) {
        let now = self.sim.now();
        if self.clients[cid.0 as usize].dropped || self.clients[cid.0 as usize].suspended {
            return;
        }
        self.clients[cid.0 as usize].suspended = true;
        let running: Vec<ResultId> = self.clients[cid.0 as usize].running.clone();
        for rid in running {
            if let Some(t) = self.clients[cid.0 as usize].tasks.get_mut(&rid) {
                if let (Some(ev), Some(started), Some(total)) =
                    (t.exec_ev.take(), t.exec_started, t.exec_remaining)
                {
                    self.sim.cancel(ev);
                    let done = now.saturating_since(started);
                    let left = total.saturating_sub(done);
                    // Restore into the slot the resume handler reads.
                    let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
                    t.exec_remaining = Some(left);
                }
            }
        }
        if let Some(ev) = self.clients[cid.0 as usize].wake.take() {
            self.sim.cancel(ev);
        }
        let off = {
            let av = self.clients[cid.0 as usize].profile.availability.unwrap();
            let c = &mut self.clients[cid.0 as usize];
            SimDuration::from_secs_f64(c.rng.exponential(av.off_mean_s).max(1.0))
        };
        self.obs
            .journal
            .point(self.client_name(cid), "suspend", "", now.as_micros());
        self.sim.schedule_in(off, Ev::Resume(cid));
    }

    /// The machine is idle again: resume paused executions and resume
    /// polling the scheduler.
    fn on_resume(&mut self, cid: ClientId) {
        let now = self.sim.now();
        if self.clients[cid.0 as usize].dropped {
            return;
        }
        self.clients[cid.0 as usize].suspended = false;
        let running: Vec<ResultId> = self.clients[cid.0 as usize].running.clone();
        for rid in running {
            let left = self.clients[cid.0 as usize]
                .tasks
                .get(&rid)
                .and_then(|t| t.exec_remaining);
            if let Some(left) = left {
                let ev = self.sim.schedule_in(left, Ev::ExecDone(cid, rid));
                let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
                t.exec_ev = Some(ev);
                t.exec_started = Some(now);
            }
        }
        self.obs
            .journal
            .point(self.client_name(cid), "resume", "", now.as_micros());
        let on = {
            let av = self.clients[cid.0 as usize].profile.availability.unwrap();
            let c = &mut self.clients[cid.0 as usize];
            SimDuration::from_secs_f64(c.rng.exponential(av.on_mean_s).max(1.0))
        };
        self.sim.schedule_in(on, Ev::Suspend(cid));
        self.clients[cid.0 as usize].next_rpc_at =
            now.max(self.clients[cid.0 as usize].next_rpc_at);
        self.maybe_contact_server(cid);
        self.try_start_tasks(cid);
    }

    fn arm_net_wake(&mut self) {
        let target = match self.net.next_event_time() {
            Some(t) if t < SimTime::MAX => Some(t.max(self.sim.now())),
            _ => None,
        };
        // Keep a pending wake aimed at the same instant: cancelling and
        // rescheduling would give it a fresh (younger) tie-break rank
        // among same-time events, so a run stepped in short run_until
        // segments could diverge from one continuous run.
        if let (Some((ev, armed_at)), Some(t)) = (self.net_wake, target) {
            if armed_at == t && self.sim.is_pending(ev) {
                return;
            }
        }
        if let Some((ev, _)) = self.net_wake.take() {
            self.sim.cancel(ev);
        }
        if let Some(t) = target {
            self.net_wake = Some((self.sim.schedule_at(t, Ev::NetWake), t));
        }
    }

    // ----- server daemons ---------------------------------------------------

    fn on_daemon_tick<P: Policy>(&mut self, policy: &mut P) {
        // Periodic snapshot (full or incremental — the journal picks
        // from its dirty bits), before the feeder refill so the
        // snapshot captures the same state replay would rebuild. A
        // `None` return means an incremental found nothing dirty and
        // was skipped entirely.
        if self.durable.snapshot_due() {
            let sections = self.snapshot_sections(policy);
            if let Some(bytes) = self.durable.write_snapshot(&sections) {
                let records = self.durable.records();
                self.obs
                    .journal
                    .record_with(self.sim.now().as_micros(), || EventKind::SnapshotTaken {
                        records,
                        bytes: bytes as u64,
                    });
            }
        }
        // Feeder refill: copy unsent results (FIFO) into the cache,
        // one id-ordered segment per shard (pool-parallel scan).
        self.feeder
            .refill(&self.db, self.cfg.feeder_slots, &self.pool);
        self.eobs
            .feeder_occupancy
            .set(self.sim.now().as_micros(), self.feeder.len() as f64);
        let period = SimDuration::from_secs_f64(self.cfg.server_daemon_period_s.max(0.1));
        self.sim.schedule_in(period, Ev::DaemonTick);
    }

    fn after_report_transition<P: Policy>(&mut self, policy: &mut P, wu: WuId) {
        let now = self.sim.now();
        let transition = {
            let _sweep = self.eobs.transitioner_scope.enter();
            transition_wu(&mut self.db, wu, now)
        };
        match transition {
            Transition::Validated {
                canonical,
                agreeing,
            } => {
                let clients: Vec<ClientId> = agreeing
                    .iter()
                    .filter_map(|&rid| self.db.result(rid).client)
                    .collect();
                // Credit: quorum members are granted; dissenting
                // successes are flagged.
                let dissenting: Vec<ClientId> = self
                    .db
                    .results_of(wu)
                    .iter()
                    .filter(|&&rid| {
                        let r = self.db.result(rid);
                        r.is_success() && r.fingerprint != Some(canonical)
                    })
                    .filter_map(|&rid| self.db.result(rid).client)
                    .collect();
                let flops = self.db.wu(wu).spec.flops;
                // Error escape: a wrong fingerprint became canonical
                // (colluders outvoted the honest hosts, or an
                // unreplicated result was wrong). Tracked always — the
                // fixed-quorum baseline rows need it too.
                if canonical != honest_fingerprint(&self.db.wu(wu).spec.name) {
                    self.eobs.error_escapes.inc();
                }
                // Per-host outcome tallies, kept even with trust off.
                for &c in &clients {
                    self.host_outcomes[c.0 as usize].valid += 1;
                    self.eobs.host_valid.inc();
                }
                for &c in &dissenting {
                    self.host_outcomes[c.0 as usize].invalid += 1;
                    self.eobs.host_invalid.inc();
                }
                if self.cfg.trust.enabled {
                    for &c in &dissenting {
                        // A trusted host caught dissenting is a failed
                        // spot-check: the whole point of keeping the
                        // occasional replicated WU for trusted hosts.
                        if self.trust.is_trusted(c.0) {
                            self.eobs.trust_spot_check_failures.inc();
                        }
                        self.trust.observe(c.0, TrustOutcome::Mismatch);
                    }
                    for &c in &clients {
                        self.trust.observe(c.0, TrustOutcome::Agree);
                    }
                    self.eobs
                        .trust_hosts_trusted
                        .set(now.as_micros(), self.trust.trusted_count() as f64);
                }
                // Credit: an unreplicated validation (trusted host,
                // quorum overridden to one) is granted pro-rata to the
                // host's reliability; full quorums grant as before.
                let unreplicated = self.db.wu(wu).effective_quorum() == 1 && clients.len() == 1;
                if self.cfg.trust.enabled && unreplicated {
                    let scale = self.trust.reliability(clients[0].0);
                    self.credit
                        .on_wu_validated_scaled(&clients, &dissenting, flops, scale);
                } else {
                    self.credit.on_wu_validated(&clients, &dissenting, flops);
                }
                self.assimilator.assimilate(crate::assimilate::Assimilated {
                    wu,
                    wu_name: self.db.wu(wu).spec.name.clone(),
                    app: self.db.wu(wu).spec.app.clone(),
                    canonical,
                    holders: clients.clone(),
                    at: now,
                });
                self.eobs.wu_validated.inc();
                self.obs
                    .journal
                    .record_with(now.as_micros(), || EventKind::WuTransition {
                        wu: wu.to_string(),
                        to: "validated".into(),
                    });
                self.obs
                    .journal
                    .point("server", "validated", wu.to_string(), now.as_micros());
                policy.on_wu_validated(self, wu, &clients);
            }
            Transition::Failed => {
                self.eobs.wu_failed.inc();
                self.obs
                    .journal
                    .record_with(now.as_micros(), || EventKind::WuTransition {
                        wu: wu.to_string(),
                        to: "failed".into(),
                    });
                self.obs
                    .journal
                    .point("server", "wu-failed", wu.to_string(), now.as_micros());
                policy.on_wu_failed(self, wu);
            }
            Transition::Retried { new_results } => {
                // New replicas become schedulable at the next feeder pass;
                // deadlines attach when they are sent.
                let _ = new_results;
            }
            Transition::None => {}
        }
    }

    // ----- client: scheduler RPC --------------------------------------------

    fn client_rpc<P: Policy>(&mut self, policy: &mut P, cid: ClientId) {
        let now = self.sim.now();
        {
            let c = &mut self.clients[cid.0 as usize];
            c.wake = None;
            if c.dropped || c.suspended {
                return;
            }
            if now < c.next_rpc_at {
                // Woken early (stale event); re-arm at the right time.
                let t = c.next_rpc_at;
                let ev = self.sim.schedule_at(t, Ev::ClientWake(cid));
                self.clients[cid.0 as usize].wake = Some(ev);
                return;
            }
        }
        self.stats.rpcs += 1;
        self.eobs.rpcs.inc();

        // 1. Deliver reports.
        let reports = std::mem::take(&mut self.clients[cid.0 as usize].ready_to_report);
        let mut reported_wus = Vec::new();
        for (rid, fp, errored) in reports {
            let outcome = if errored {
                ResultOutcome::Error
            } else {
                ResultOutcome::Success
            };
            if self.db.mark_reported(rid, outcome, fp, now) {
                self.stats.reports += 1;
                self.eobs.reports.inc();
                if errored {
                    self.credit.on_error(cid);
                    self.host_outcomes[cid.0 as usize].errors += 1;
                    self.eobs.host_error.inc();
                    if self.cfg.trust.enabled {
                        self.trust.observe(cid.0, TrustOutcome::Error);
                    }
                }
                // The §IV.B gap: upload finished at exec/upload time; the
                // server only *learns* of it now.
                if let Some(t) = self.clients[cid.0 as usize]
                    .tasks
                    .get(&rid)
                    .and_then(|t| t.exec_done_at)
                {
                    let delay_s = now.saturating_since(t).as_secs_f64();
                    self.stats.report_delay.record(delay_s);
                    self.eobs.report_delay_s.record(delay_s);
                }
                self.obs.journal.point(
                    self.client_name(cid),
                    "report",
                    rid.to_string(),
                    now.as_micros(),
                );
                reported_wus.push(self.db.result(rid).wu);
                policy.on_result_reported(self, rid);
            }
            self.clients[cid.0 as usize].tasks.remove(&rid);
        }
        for wu in reported_wus {
            self.after_report_transition(policy, wu);
        }

        // 2. Work request.
        let live = self.clients[cid.0 as usize].tasks.len() as u32;
        let mut slots_wanted = self.cfg.client_buffer_slots.saturating_sub(live);
        // Quarantine: unreliable hosts get no work (BOINC-style host
        // punishment driven by the validation ledger).
        if let Some(limit) = self.cfg.max_host_error_rate {
            if self.credit.account(cid).error_rate() > limit {
                slots_wanted = 0;
            }
        }
        let mut got_work = false;
        let mut n_granted = 0u32;
        if slots_wanted > 0 {
            let req = WorkRequest {
                client: cid,
                slots_wanted,
            };
            let picked = if self.cfg.locality_scheduling {
                // Prefer results whose inputs this client already serves
                // (it can read them from local disk instead of the
                // network). Stable sort keeps FIFO order within ties.
                let served = &self.clients[cid.0 as usize].served;
                let mut scored: Vec<(usize, ResultId)> = self
                    .feeder
                    .candidates()
                    .map(|rid| {
                        let score = self
                            .db
                            .inputs_of(rid)
                            .iter()
                            .filter(|f| served.contains_key(&f.name))
                            .count();
                        (score, rid)
                    })
                    .collect();
                scored.sort_by_key(|&(score, rid)| (std::cmp::Reverse(score), rid));
                pick_results(
                    &self.db,
                    scored.into_iter().map(|(_, rid)| rid),
                    req,
                    self.cfg.max_results_per_rpc,
                )
            } else {
                // The merged candidate stream is lazy: the grant fills
                // after a handful of results, so the feeder shards past
                // the cut-off are never scanned.
                pick_results(
                    &self.db,
                    self.feeder.candidates(),
                    req,
                    self.cfg.max_results_per_rpc,
                )
            };
            got_work = !picked.is_empty();
            n_granted = picked.len() as u32;
            for rid in picked {
                self.feeder.remove(rid);
                let deadline = now + self.db.wu(self.db.result(rid).wu).spec.delay_bound;
                self.db.mark_sent(rid, cid, now, deadline);
                self.stats.grants += 1;
                self.eobs.grants.inc();
                self.sim.schedule_at(deadline, Ev::DeadlineCheck(rid));
                self.adapt_replication(cid, rid);
                self.grant_task(cid, rid);
                policy.on_task_granted(self, cid, rid);
            }
        }

        let asked_and_empty = slots_wanted > 0 && !got_work;
        self.obs
            .journal
            .record_with(now.as_micros(), || EventKind::RpcServed {
                client: cid.0,
                granted: n_granted,
                empty: asked_and_empty,
            });

        // 3. Backoff bookkeeping.
        if slots_wanted > 0 && !got_work {
            self.stats.empty_replies += 1;
            self.eobs.empty_replies.inc();
            let delay = {
                let c = &mut self.clients[cid.0 as usize];
                let d = c.backoff.on_empty_reply(&mut c.rng);
                c.next_rpc_at = now + d;
                d
            };
            self.obs
                .journal
                .record_with(now.as_micros(), || EventKind::BackoffArmed {
                    client: cid.0,
                    delay_us: delay.as_micros(),
                });
            // A fully idle client re-polls at backoff expiry; a busy one
            // will naturally wake on task completion (and must still
            // respect next_rpc_at).
            self.schedule_rpc_wake(cid);
        } else if got_work {
            let c = &mut self.clients[cid.0 as usize];
            c.backoff.on_work_received();
            c.next_rpc_at = now;
        }
    }

    /// Adaptive replication: re-evaluates a WU's replication level at
    /// the moment a replica is handed to `cid` (the one point where the
    /// scheduler knows both the WU and the host).
    ///
    /// * Granting to an **untrusted** host always restores the spec
    ///   quorum, so a relaxed quorum can never be inherited by a retry
    ///   landing on an unknown host.
    /// * Granting the WU's **first live attempt** to a trusted host
    ///   drops the quorum to one and cancels the spare replicas —
    ///   unless a randomized spot-check keeps full replication to keep
    ///   trusted hosts honest.
    ///
    /// No-op (and no rng draws) when `cfg.trust.enabled` is false.
    fn adapt_replication(&mut self, cid: ClientId, rid: ResultId) {
        if !self.cfg.trust.enabled {
            return;
        }
        let wu = self.db.result(rid).wu;
        if !self.trust.is_trusted(cid.0) {
            // `set_quorum_override` is a no-op (no WAL record) when the
            // override is already clear.
            self.db.set_quorum_override(wu, None);
            return;
        }
        // Only the WU's first live attempt is eligible for relaxation:
        // every sibling replica must still be unsent (no reports,
        // retries or in-flight copies a quorum change could strand).
        let eligible = self
            .db
            .results_of(wu)
            .iter()
            .all(|&r| r == rid || self.db.result(r).state == ResultState::Unsent);
        if !eligible {
            return;
        }
        let decision = {
            let policy = ReplicationPolicy::new(self.cfg.trust.clone());
            let rng = &mut self.trust_rng;
            policy.decide(true, |p| rng.chance(p))
        };
        match decision {
            ReplicationDecision::Single => {
                let spares: Vec<ResultId> = self
                    .db
                    .results_of(wu)
                    .iter()
                    .copied()
                    .filter(|&r| r != rid)
                    .collect();
                for r in spares {
                    if self.db.cancel_unsent(r) {
                        self.feeder.remove(r);
                        self.eobs.trust_replication_saved.inc();
                    }
                }
                self.db.set_quorum_override(wu, Some(1));
            }
            ReplicationDecision::SpotCheck => {
                self.trust.record_spot_check(cid.0);
                self.eobs.trust_spot_checks.inc();
                self.db.set_quorum_override(wu, None);
            }
            ReplicationDecision::Full => {
                self.db.set_quorum_override(wu, None);
            }
        }
    }

    /// Schedules (or keeps) a ClientWake at `max(now, next_rpc_at)`.
    fn schedule_rpc_wake(&mut self, cid: ClientId) {
        let now = self.sim.now();
        let t = self.clients[cid.0 as usize].next_rpc_at.max(now);
        if let Some(ev) = self.clients[cid.0 as usize].wake {
            if self.sim.is_pending(ev) {
                // Keep the earlier of the two.
                self.sim.cancel(ev);
            }
        }
        let ev = self.sim.schedule_at(t, Ev::ClientWake(cid));
        self.clients[cid.0 as usize].wake = Some(ev);
    }

    /// A client state change that may warrant contacting the server:
    /// reports pending or free slots. Respects the backoff gate.
    fn maybe_contact_server(&mut self, cid: ClientId) {
        let c = &self.clients[cid.0 as usize];
        if c.dropped {
            return;
        }
        let wants =
            !c.ready_to_report.is_empty() || (c.tasks.len() as u32) < self.cfg.client_buffer_slots;
        if wants {
            self.schedule_rpc_wake(cid);
        }
    }

    // ----- client: task lifecycle --------------------------------------------

    fn grant_task(&mut self, cid: ClientId, rid: ResultId) {
        let now = self.sim.now();
        let inputs = self.db.inputs_of(rid).to_vec();
        let progress = TaskProgress {
            state: if inputs.is_empty() {
                TaskState::Queued
            } else {
                TaskState::Downloading
            },
            downloads_pending: inputs.len(),
            attempts: vec![0; inputs.len()],
            assigned_at: now,
            dl_done_at: None,
            exec_done_at: None,
            exec_ev: None,
            exec_started: None,
            exec_remaining: None,
            fingerprint: None,
            errored: false,
        };
        self.clients[cid.0 as usize].tasks.insert(rid, progress);
        if inputs.is_empty() {
            self.clients[cid.0 as usize].run_queue.push_back(rid);
            self.try_start_tasks(cid);
        } else {
            for idx in 0..inputs.len() {
                self.start_input_download(cid, rid, idx);
            }
        }
    }

    /// Starts (or retries) the download of one input file.
    fn start_input_download(&mut self, cid: ClientId, rid: ResultId, idx: usize) {
        let now = self.sim.now();
        if self.clients[cid.0 as usize].dropped {
            return;
        }
        if !self.clients[cid.0 as usize].tasks.contains_key(&rid) {
            return; // task gone (deadline hit, etc.)
        }
        let file = self.db.inputs_of(rid)[idx].clone();
        match &file.source {
            FileSource::DataServer => {
                let spec = FlowSpec {
                    src: self.server_host,
                    dst: self.clients[cid.0 as usize].host,
                    via: vec![],
                    bytes: file.bytes,
                    setup_s: self.cfg.rpc_overhead_s,
                    priority: Priority::Foreground,
                    rate_cap: None,
                };
                let fid = self.net.start_flow(now, spec);
                self.flows.insert(
                    fid,
                    FlowPurpose::InputDownload {
                        client: cid,
                        rid,
                        input_idx: idx,
                        from_peer: None,
                        chunk: None,
                        fallback: false,
                        sibling: false,
                    },
                );
            }
            FileSource::Peers(peers) => match self.shuffle.kind() {
                StrategyKind::Legacy => {
                    self.legacy_peer_download(cid, rid, idx, &file.name, file.bytes, peers.clone());
                }
                StrategyKind::Swarm => {
                    self.swarm_pump(cid, rid, idx, &file.name, file.bytes, peers.clone());
                }
                StrategyKind::Baseline | StrategyKind::Coded => {
                    self.start_peer_download(cid, rid, idx, &file.name, file.bytes, peers.clone());
                }
            },
        }
    }

    /// Whole-file pull from one source per attempt, the source chosen
    /// by the shuffle strategy ([`vmr_shuffle::Baseline`] reproduces
    /// the legacy rotation; Coded follows its planned order). All
    /// mechanics — fallback budget, local read, serving caps, fault
    /// and NAT draws — are the legacy path's, in the legacy order.
    fn start_peer_download(
        &mut self,
        cid: ClientId,
        rid: ResultId,
        idx: usize,
        name: &str,
        bytes: u64,
        peers: Vec<ClientId>,
    ) {
        let now = self.sim.now();
        let attempts = self.clients[cid.0 as usize].tasks[&rid].attempts[idx];

        // Fall back to the data server after the retry budget
        // ("after n failed attempts, the user resorts to downloading the
        // file from the server").
        if peers.is_empty() || attempts >= self.cfg.peer_retry_limit {
            self.stats.server_fallbacks += 1;
            self.eobs.server_fallbacks.inc();
            self.obs
                .journal
                .record_with(now.as_micros(), || EventKind::PeerFallback {
                    client: cid.0,
                    file: name.to_string(),
                });
            let spec = FlowSpec {
                src: self.server_host,
                dst: self.clients[cid.0 as usize].host,
                via: vec![],
                bytes,
                setup_s: self.cfg.rpc_overhead_s,
                priority: Priority::Foreground,
                rate_cap: None,
            };
            let fid = self.net.start_flow(now, spec);
            self.flows.insert(
                fid,
                FlowPurpose::InputDownload {
                    client: cid,
                    rid,
                    input_idx: idx,
                    from_peer: None,
                    chunk: None,
                    fallback: true,
                    sibling: false,
                },
            );
            return;
        }

        // A reducer that is itself a holder of the file reads it from
        // local disk — no transfer at all.
        if peers.contains(&cid)
            && self.clients[cid.0 as usize]
                .served
                .get(name)
                .map(|f| f.until.map(|u| now <= u).unwrap_or(true))
                .unwrap_or(false)
        {
            let host = self.clients[cid.0 as usize].host;
            let fid = self.net.start_flow(now, FlowSpec::simple(host, host, 0));
            self.flows.insert(
                fid,
                FlowPurpose::InputDownload {
                    client: cid,
                    rid,
                    input_idx: idx,
                    from_peer: Some(cid),
                    chunk: None,
                    fallback: false,
                    sibling: false,
                },
            );
            self.clients[cid.0 as usize].serving_now += 1;
            return;
        }

        // The strategy picks the source for this attempt.
        let peer = peers[self.shuffle.pick_source(peers.len(), attempts, cid.0)];
        let bump_and_retry = |eng: &mut Engine, delay: f64| {
            if let Some(t) = eng.clients[cid.0 as usize].tasks.get_mut(&rid) {
                t.attempts[idx] += 1;
            }
            eng.sim.schedule_in(
                SimDuration::from_secs_f64(delay),
                Ev::PeerRetry(cid, rid, idx),
            );
        };

        // Peer alive and still serving the file?
        let (peer_ok, window_expired) = {
            let p = &self.clients[peer.0 as usize];
            let window = p.served.get(name).map(|f| f.until);
            let ok = !p.dropped
                && window
                    .map(|until| until.map(|u| now <= u).unwrap_or(true))
                    .unwrap_or(false);
            let expired = !p.dropped
                && window
                    .map(|until| until.map(|u| now > u).unwrap_or(false))
                    .unwrap_or(false);
            (ok, expired)
        };
        if !peer_ok {
            self.stats.peer_failures += 1;
            self.eobs.peer_failures.inc();
            if window_expired {
                self.obs
                    .journal
                    .record_with(now.as_micros(), || EventKind::ServingExpiry {
                        client: peer.0,
                        file: name.to_string(),
                    });
            }
            bump_and_retry(self, self.cfg.peer_retry_delay_s);
            return;
        }
        // Serving-connection threshold on the mapper side.
        if self.clients[peer.0 as usize].serving_now >= self.cfg.max_serving_connections {
            self.stats.busy_deferrals += 1;
            self.eobs.busy_deferrals.inc();
            // Busy is not a failure — retry without consuming budget.
            self.sim.schedule_in(
                SimDuration::from_secs_f64(self.cfg.serving_busy_retry_s),
                Ev::PeerRetry(cid, rid, idx),
            );
            return;
        }
        // Transient transfer fault?
        let fails = {
            let c = &mut self.clients[cid.0 as usize];
            self.fault.peer_attempt_fails(&mut c.rng)
        };
        if fails {
            self.stats.peer_failures += 1;
            self.eobs.peer_failures.inc();
            bump_and_retry(self, self.cfg.peer_retry_delay_s);
            return;
        }
        // NAT traversal.
        let (req_nat, srv_nat) = (
            self.clients[cid.0 as usize].profile.nat,
            self.clients[peer.0 as usize].profile.nat,
        );
        let outcome = {
            let c = &mut self.clients[cid.0 as usize];
            connect(req_nat, srv_nat, &self.traversal, &mut c.rng)
        };
        self.stats.traversal.record(outcome);
        let outcome = match outcome {
            Some(o) => o,
            None => {
                self.stats.peer_failures += 1;
                self.eobs.peer_failures.inc();
                bump_and_retry(self, self.cfg.peer_retry_delay_s);
                return;
            }
        };
        let via = if outcome.path == Path::Relay {
            vec![self.pick_relay_host(cid)]
        } else {
            vec![]
        };
        let spec = FlowSpec {
            src: self.clients[peer.0 as usize].host,
            dst: self.clients[cid.0 as usize].host,
            via,
            bytes,
            setup_s: outcome.setup_s,
            priority: Priority::Foreground,
            rate_cap: None,
        };
        let fid = self.net.start_flow(now, spec);
        self.clients[peer.0 as usize].serving_now += 1;
        self.flows.insert(
            fid,
            FlowPurpose::InputDownload {
                client: cid,
                rid,
                input_idx: idx,
                from_peer: Some(peer),
                chunk: None,
                fallback: false,
                sibling: false,
            },
        );
    }

    /// The pre-strategy transfer path, preserved verbatim as an
    /// executable spec: differential tests (and the `SHUFFLE_SMOKE`
    /// byte-diff) run it via [`StrategyKind::Legacy`] to prove the
    /// strategy-driven path above is bit-identical under the default
    /// `Baseline` strategy. Do not "improve" this function — its value
    /// is being exactly the code the Baseline extraction started from.
    fn legacy_peer_download(
        &mut self,
        cid: ClientId,
        rid: ResultId,
        idx: usize,
        name: &str,
        bytes: u64,
        peers: Vec<ClientId>,
    ) {
        let now = self.sim.now();
        let attempts = self.clients[cid.0 as usize].tasks[&rid].attempts[idx];

        // Fall back to the data server after the retry budget
        // ("after n failed attempts, the user resorts to downloading the
        // file from the server").
        if peers.is_empty() || attempts >= self.cfg.peer_retry_limit {
            self.stats.server_fallbacks += 1;
            self.eobs.server_fallbacks.inc();
            self.obs
                .journal
                .record_with(now.as_micros(), || EventKind::PeerFallback {
                    client: cid.0,
                    file: name.to_string(),
                });
            let spec = FlowSpec {
                src: self.server_host,
                dst: self.clients[cid.0 as usize].host,
                via: vec![],
                bytes,
                setup_s: self.cfg.rpc_overhead_s,
                priority: Priority::Foreground,
                rate_cap: None,
            };
            let fid = self.net.start_flow(now, spec);
            self.flows.insert(
                fid,
                FlowPurpose::InputDownload {
                    client: cid,
                    rid,
                    input_idx: idx,
                    from_peer: None,
                    chunk: None,
                    fallback: true,
                    sibling: false,
                },
            );
            return;
        }

        // A reducer that is itself a holder of the file reads it from
        // local disk — no transfer at all.
        if peers.contains(&cid)
            && self.clients[cid.0 as usize]
                .served
                .get(name)
                .map(|f| f.until.map(|u| now <= u).unwrap_or(true))
                .unwrap_or(false)
        {
            let host = self.clients[cid.0 as usize].host;
            let fid = self.net.start_flow(now, FlowSpec::simple(host, host, 0));
            self.flows.insert(
                fid,
                FlowPurpose::InputDownload {
                    client: cid,
                    rid,
                    input_idx: idx,
                    from_peer: Some(cid),
                    chunk: None,
                    fallback: false,
                    sibling: false,
                },
            );
            self.clients[cid.0 as usize].serving_now += 1;
            return;
        }

        // Round-robin over holders, offset per client to spread load.
        let peer = peers[(attempts as usize + cid.0 as usize) % peers.len()];
        let bump_and_retry = |eng: &mut Engine, delay: f64| {
            if let Some(t) = eng.clients[cid.0 as usize].tasks.get_mut(&rid) {
                t.attempts[idx] += 1;
            }
            eng.sim.schedule_in(
                SimDuration::from_secs_f64(delay),
                Ev::PeerRetry(cid, rid, idx),
            );
        };

        // Peer alive and still serving the file?
        let (peer_ok, window_expired) = {
            let p = &self.clients[peer.0 as usize];
            let window = p.served.get(name).map(|f| f.until);
            let ok = !p.dropped
                && window
                    .map(|until| until.map(|u| now <= u).unwrap_or(true))
                    .unwrap_or(false);
            let expired = !p.dropped
                && window
                    .map(|until| until.map(|u| now > u).unwrap_or(false))
                    .unwrap_or(false);
            (ok, expired)
        };
        if !peer_ok {
            self.stats.peer_failures += 1;
            self.eobs.peer_failures.inc();
            if window_expired {
                self.obs
                    .journal
                    .record_with(now.as_micros(), || EventKind::ServingExpiry {
                        client: peer.0,
                        file: name.to_string(),
                    });
            }
            bump_and_retry(self, self.cfg.peer_retry_delay_s);
            return;
        }
        // Serving-connection threshold on the mapper side.
        if self.clients[peer.0 as usize].serving_now >= self.cfg.max_serving_connections {
            self.stats.busy_deferrals += 1;
            self.eobs.busy_deferrals.inc();
            // Busy is not a failure — retry without consuming budget.
            self.sim.schedule_in(
                SimDuration::from_secs_f64(self.cfg.serving_busy_retry_s),
                Ev::PeerRetry(cid, rid, idx),
            );
            return;
        }
        // Transient transfer fault?
        let fails = {
            let c = &mut self.clients[cid.0 as usize];
            self.fault.peer_attempt_fails(&mut c.rng)
        };
        if fails {
            self.stats.peer_failures += 1;
            self.eobs.peer_failures.inc();
            bump_and_retry(self, self.cfg.peer_retry_delay_s);
            return;
        }
        // NAT traversal.
        let (req_nat, srv_nat) = (
            self.clients[cid.0 as usize].profile.nat,
            self.clients[peer.0 as usize].profile.nat,
        );
        let outcome = {
            let c = &mut self.clients[cid.0 as usize];
            connect(req_nat, srv_nat, &self.traversal, &mut c.rng)
        };
        self.stats.traversal.record(outcome);
        let outcome = match outcome {
            Some(o) => o,
            None => {
                self.stats.peer_failures += 1;
                self.eobs.peer_failures.inc();
                bump_and_retry(self, self.cfg.peer_retry_delay_s);
                return;
            }
        };
        let via = if outcome.path == Path::Relay {
            vec![self.pick_relay_host(cid)]
        } else {
            vec![]
        };
        let spec = FlowSpec {
            src: self.clients[peer.0 as usize].host,
            dst: self.clients[cid.0 as usize].host,
            via,
            bytes,
            setup_s: outcome.setup_s,
            priority: Priority::Foreground,
            rate_cap: None,
        };
        let fid = self.net.start_flow(now, spec);
        self.clients[peer.0 as usize].serving_now += 1;
        self.flows.insert(
            fid,
            FlowPurpose::InputDownload {
                client: cid,
                rid,
                input_idx: idx,
                from_peer: Some(peer),
                chunk: None,
                fallback: false,
                sibling: false,
            },
        );
    }

    /// Swarm transfer driver: splits the input into fixed-size chunks
    /// and keeps up to `shuffle.max_parallel_chunks` chunk flows in
    /// flight, rarest-first, pulling from sibling seeds (reducers that
    /// already completed a chunk) and validated holders under
    /// per-source concurrency caps. A chunk whose retry budget is
    /// exhausted is seeded by the server — the seeder of last resort.
    /// Re-entered on every chunk completion and `PeerRetry` event.
    fn swarm_pump(
        &mut self,
        cid: ClientId,
        rid: ResultId,
        idx: usize,
        name: &str,
        bytes: u64,
        peers: Vec<ClientId>,
    ) {
        let now = self.sim.now();
        let key = (cid.0, rid.0, idx as u32);
        {
            let t = &self.clients[cid.0 as usize].tasks[&rid];
            if t.state != TaskState::Downloading {
                return; // stale retry after the task became ready
            }
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
                self.stats.server_fallbacks += 1;
                self.eobs.server_fallbacks.inc();
                self.obs
                    .journal
                    .record_with(now.as_micros(), || EventKind::PeerFallback {
                        client: cid.0,
                        file: name.to_string(),
                    });
                let spec = FlowSpec {
                    src: self.server_host,
                    dst: self.clients[cid.0 as usize].host,
                    via: vec![],
                    bytes: chunk_len,
                    setup_s: self.cfg.rpc_overhead_s,
                    priority: Priority::Foreground,
                    rate_cap: None,
                };
                let fid = self.net.start_flow(now, spec);
                self.flows.insert(
                    fid,
                    FlowPurpose::InputDownload {
                        client: cid,
                        rid,
                        input_idx: idx,
                        from_peer: None,
                        chunk: Some(chunk),
                        fallback: true,
                        sibling: false,
                    },
                );
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
                    let live = self.clients[cid.0 as usize]
                        .served
                        .get(name)
                        .map(|f| f.until.map(|u| now <= u).unwrap_or(true))
                        .unwrap_or(false);
                    if live {
                        pick = Some(s);
                        break;
                    }
                    continue;
                }
                let p = &self.clients[scid as usize];
                if p.dropped {
                    continue;
                }
                // Holders must be inside their serving window; sibling
                // seeds keep chunks for the life of the job.
                if matches!(s, SwarmSource::Holder(_)) {
                    let live = p
                        .served
                        .get(name)
                        .map(|f| f.until.map(|u| now <= u).unwrap_or(true))
                        .unwrap_or(false);
                    if !live {
                        continue;
                    }
                }
                if p.serving_now >= self.cfg.max_serving_connections
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
                    self.stats.busy_deferrals += 1;
                    self.eobs.busy_deferrals.inc();
                    self.sim.schedule_in(
                        SimDuration::from_secs_f64(self.cfg.serving_busy_retry_s),
                        Ev::PeerRetry(cid, rid, idx),
                    );
                } else {
                    self.stats.peer_failures += 1;
                    self.eobs.peer_failures.inc();
                    self.swarm.get_mut(&key).unwrap().bump_attempt(chunk);
                    self.sim.schedule_in(
                        SimDuration::from_secs_f64(self.cfg.peer_retry_delay_s),
                        Ev::PeerRetry(cid, rid, idx),
                    );
                }
                return;
            };

            let scid = src.cid();
            // Self-holder local read: a zero-byte loopback flow.
            if scid == cid.0 {
                let host = self.clients[cid.0 as usize].host;
                let fid = self.net.start_flow(now, FlowSpec::simple(host, host, 0));
                self.flows.insert(
                    fid,
                    FlowPurpose::InputDownload {
                        client: cid,
                        rid,
                        input_idx: idx,
                        from_peer: Some(cid),
                        chunk: Some(chunk),
                        fallback: false,
                        sibling: false,
                    },
                );
                self.clients[cid.0 as usize].serving_now += 1;
                self.swarm.get_mut(&key).unwrap().start(chunk, scid);
                continue;
            }
            // Transient transfer fault?
            let fails = {
                let c = &mut self.clients[cid.0 as usize];
                self.fault.peer_attempt_fails(&mut c.rng)
            };
            if fails {
                self.stats.peer_failures += 1;
                self.eobs.peer_failures.inc();
                self.swarm.get_mut(&key).unwrap().bump_attempt(chunk);
                self.sim.schedule_in(
                    SimDuration::from_secs_f64(self.cfg.peer_retry_delay_s),
                    Ev::PeerRetry(cid, rid, idx),
                );
                return;
            }
            // NAT traversal.
            let (req_nat, srv_nat) = (
                self.clients[cid.0 as usize].profile.nat,
                self.clients[scid as usize].profile.nat,
            );
            let outcome = {
                let c = &mut self.clients[cid.0 as usize];
                connect(req_nat, srv_nat, &self.traversal, &mut c.rng)
            };
            self.stats.traversal.record(outcome);
            let Some(outcome) = outcome else {
                self.stats.peer_failures += 1;
                self.eobs.peer_failures.inc();
                self.swarm.get_mut(&key).unwrap().bump_attempt(chunk);
                self.sim.schedule_in(
                    SimDuration::from_secs_f64(self.cfg.peer_retry_delay_s),
                    Ev::PeerRetry(cid, rid, idx),
                );
                return;
            };
            let via = if outcome.path == Path::Relay {
                vec![self.pick_relay_host(cid)]
            } else {
                vec![]
            };
            let spec = FlowSpec {
                src: self.clients[scid as usize].host,
                dst: self.clients[cid.0 as usize].host,
                via,
                bytes: chunk_len,
                setup_s: outcome.setup_s,
                priority: Priority::Foreground,
                rate_cap: None,
            };
            let fid = self.net.start_flow(now, spec);
            self.clients[scid as usize].serving_now += 1;
            self.flows.insert(
                fid,
                FlowPurpose::InputDownload {
                    client: cid,
                    rid,
                    input_idx: idx,
                    from_peer: Some(ClientId(scid)),
                    chunk: Some(chunk),
                    fallback: false,
                    sibling: matches!(src, SwarmSource::Sibling(_)),
                },
            );
            self.swarm.get_mut(&key).unwrap().start(chunk, scid);
        }
    }

    /// Chooses the relay host for a NAT-relayed transfer.
    fn pick_relay_host(&mut self, cid: ClientId) -> HostId {
        match &self.relay {
            RelayChoice::Server => self.server_host,
            RelayChoice::Supernodes(nodes) => {
                let alive: Vec<HostId> = nodes
                    .iter()
                    .filter(|n| !self.clients[n.0 as usize].dropped)
                    .map(|n| self.clients[n.0 as usize].host)
                    .collect();
                if alive.is_empty() {
                    self.server_host
                } else {
                    let idx = {
                        let c = &mut self.clients[cid.0 as usize];
                        c.rng.pick(alive.len())
                    };
                    alive[idx]
                }
            }
        }
    }

    fn on_net_wake<P: Policy>(&mut self, policy: &mut P) {
        let now = self.sim.now();
        let completions = self.net.advance(now);
        for comp in completions {
            let Some(purpose) = self.flows.remove(&comp.id) else {
                continue;
            };
            match purpose {
                FlowPurpose::InputDownload {
                    client,
                    rid,
                    input_idx,
                    from_peer,
                    chunk,
                    fallback,
                    sibling,
                } => {
                    if let Some(peer) = from_peer {
                        let p = &mut self.clients[peer.0 as usize];
                        p.serving_now = p.serving_now.saturating_sub(1);
                    } else {
                        self.stats.bytes_via_server += comp.spec.bytes as f64;
                    }
                    // Shuffle byte accounting (obs only): peer-sourced
                    // transfers and post-failure server fallbacks.
                    if fallback {
                        self.fobs.bytes_server_fallback.add(comp.spec.bytes);
                    } else if from_peer.is_some() {
                        self.fobs.bytes_p2p.add(comp.spec.bytes);
                        // Every peer-sourced chunk counts as swarmed —
                        // sibling seeds and validated holders alike.
                        debug_assert!(!sibling || chunk.is_some());
                        if chunk.is_some() {
                            self.fobs.chunks_swarmed.inc();
                        }
                    }
                    if self.clients[client.0 as usize].dropped {
                        continue;
                    }
                    // A swarm chunk: update the transfer state machine;
                    // the input is pending until its last chunk lands.
                    if let Some(k) = chunk {
                        let key = (client.0, rid.0, input_idx as u32);
                        let Some(t) = self.swarm.get_mut(&key) else {
                            continue; // task gone (deadline hit, etc.)
                        };
                        let src = from_peer.map(|p| p.0).unwrap_or(SERVER_SEED);
                        let done_all = t.complete(k, Some(src));
                        let (fname, n_chunks) = (t.name.clone(), t.plan.n_chunks);
                        // The downloader now seeds this chunk.
                        self.swarm_index.add_seed(&fname, k, n_chunks, client.0);
                        if !done_all {
                            self.start_input_download(client, rid, input_idx);
                            continue;
                        }
                    }
                    let name = self.client_name(client);
                    let c = &mut self.clients[client.0 as usize];
                    let mut became_ready = None;
                    if let Some(t) = c.tasks.get_mut(&rid) {
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
                            name,
                            "download",
                            rid.to_string(),
                            assigned_at.as_micros(),
                            now.as_micros(),
                        );
                        self.clients[client.0 as usize].run_queue.push_back(rid);
                        self.try_start_tasks(client);
                    }
                }
                FlowPurpose::OutputUpload { client, rid } => {
                    self.stats.bytes_via_server += comp.spec.bytes as f64;
                    let c = &mut self.clients[client.0 as usize];
                    if c.dropped {
                        continue;
                    }
                    if let Some(t) = c.tasks.get_mut(&rid) {
                        t.state = TaskState::Uploading; // terminal client-side
                        let (fp, err) = (t.fingerprint, t.errored);
                        let start = t.exec_done_at.unwrap_or(now);
                        c.ready_to_report.push((rid, fp, err));
                        self.obs.journal.span(
                            self.client_name(client),
                            "upload",
                            rid.to_string(),
                            start.as_micros(),
                            now.as_micros(),
                        );
                    }
                    self.maybe_contact_server(client);
                    if self.cfg.report_results_immediately {
                        // §IV.C mitigation: bypass the backoff gate.
                        self.clients[client.0 as usize].next_rpc_at = now;
                        self.schedule_rpc_wake(client);
                    }
                }
            }
        }
        let _ = policy;
    }

    fn try_start_tasks(&mut self, cid: ClientId) {
        let now = self.sim.now();
        loop {
            let c = &mut self.clients[cid.0 as usize];
            if c.dropped {
                return;
            }
            if c.running.len() >= c.profile.slots as usize {
                return;
            }
            let Some(rid) = c.run_queue.pop_front() else {
                return;
            };
            let Some(t) = c.tasks.get_mut(&rid) else {
                continue;
            };
            t.state = TaskState::Running;
            c.running.push(rid);
            let flops = self.db.wu(self.db.result(rid).wu).spec.flops;
            let jitter = {
                let j = self.cfg.compute_jitter;
                if j > 0.0 {
                    self.clients[cid.0 as usize]
                        .rng
                        .uniform_f64(1.0 - j, 1.0 + j)
                } else {
                    1.0
                }
            };
            let secs = self.clients[cid.0 as usize].profile.compute_seconds(flops) * jitter;
            let dur = SimDuration::from_secs_f64(secs);
            if self.clients[cid.0 as usize].suspended {
                // Owner is using the machine: the task is queued with
                // its full compute debt; it starts at resume.
                let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
                t.exec_started = Some(now);
                t.exec_remaining = Some(dur);
                continue;
            }
            let ev = self.sim.schedule_in(dur, Ev::ExecDone(cid, rid));
            let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
            t.exec_ev = Some(ev);
            t.exec_started = Some(now);
            t.exec_remaining = Some(dur);
        }
    }

    fn on_exec_done<P: Policy>(&mut self, policy: &mut P, cid: ClientId, rid: ResultId) {
        let now = self.sim.now();
        {
            let c = &mut self.clients[cid.0 as usize];
            if c.dropped {
                return;
            }
            c.running.retain(|&r| r != rid);
        }
        let exists = self.clients[cid.0 as usize].tasks.contains_key(&rid);
        if !exists {
            self.try_start_tasks(cid);
            return;
        }

        // Compute the output fingerprint (honest or corrupted).
        let wu = self.db.result(rid).wu;
        let honest = honest_fingerprint(&self.db.wu(wu).spec.name);
        let (errored, fp) = {
            let c = &mut self.clients[cid.0 as usize];
            if self.fault.task_errors_now(&mut c.rng) {
                (true, None)
            } else {
                match self.fidx.corruption_now(cid, now, &mut c.rng) {
                    Corruption::None => (false, Some(honest)),
                    Corruption::Random => (
                        false,
                        Some(OutputFingerprint(honest.0 ^ c.rng.next_u64() | 1)),
                    ),
                    // Colluders emit the clique's shared wrong answer —
                    // identical across members, so they can outvote an
                    // honest minority (or agree under spot-checks).
                    Corruption::Clique(tag) => (false, Some(clique_fingerprint(honest, tag))),
                }
            }
        };
        {
            let t = self.clients[cid.0 as usize].tasks.get_mut(&rid).unwrap();
            let start = t.dl_done_at.unwrap_or(t.assigned_at);
            t.exec_done_at = Some(now);
            t.fingerprint = fp;
            t.errored = errored;
            self.obs.journal.span(
                self.client_name(cid),
                "exec",
                rid.to_string(),
                start.as_micros(),
                now.as_micros(),
            );
        }
        policy.on_task_executed(self, cid, rid);

        // Upload outputs (or just queue the hash report).
        let spec = &self.db.wu(wu).spec;
        if spec.upload_outputs && spec.output_bytes > 0 && !errored {
            let flow = FlowSpec {
                src: self.clients[cid.0 as usize].host,
                dst: self.server_host,
                via: vec![],
                bytes: spec.output_bytes,
                setup_s: self.cfg.rpc_overhead_s,
                priority: Priority::Foreground,
                rate_cap: None,
            };
            let fid = self.net.start_flow(now, flow);
            self.flows
                .insert(fid, FlowPurpose::OutputUpload { client: cid, rid });
        } else {
            let c = &mut self.clients[cid.0 as usize];
            c.ready_to_report.push((rid, fp, errored));
            self.maybe_contact_server(cid);
            if self.cfg.report_results_immediately {
                self.clients[cid.0 as usize].next_rpc_at = now;
                self.schedule_rpc_wake(cid);
            }
        }
        self.try_start_tasks(cid);
    }

    fn on_deadline<P: Policy>(&mut self, policy: &mut P, rid: ResultId) {
        let now = self.sim.now();
        let r = self.db.result(rid);
        if r.state != ResultState::InProgress {
            return;
        }
        if r.report_deadline.map(|d| now >= d).unwrap_or(false) {
            let wu = r.wu;
            let client = r.client;
            self.db.mark_timed_out(rid, now);
            if let Some(c) = client {
                self.credit.on_error(c);
                self.host_outcomes[c.0 as usize].errors += 1;
                self.eobs.host_error.inc();
                if self.cfg.trust.enabled {
                    self.trust.observe(c.0, TrustOutcome::Error);
                }
            }
            if let Some(c) = client {
                let cl = &mut self.clients[c.0 as usize];
                cl.tasks.remove(&rid);
                cl.run_queue.retain(|&x| x != rid);
                cl.running.retain(|&x| x != rid);
                self.swarm.retain(|k, _| !(k.0 == c.0 && k.1 == rid.0));
            }
            self.after_report_transition(policy, wu);
        }
    }

    fn on_dropout(&mut self, cid: ClientId) {
        let c = &mut self.clients[cid.0 as usize];
        c.dropped = true;
        c.served.clear();
        c.run_queue.clear();
        c.running.clear();
        c.ready_to_report.clear();
        if let Some(ev) = c.wake.take() {
            self.sim.cancel(ev);
        }
        self.obs.journal.point(
            self.client_name(cid),
            "dropout",
            "",
            self.sim.now().as_micros(),
        );
        // In-flight flows to/from this client are aborted.
        let involved: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, p)| match p {
                FlowPurpose::InputDownload {
                    client, from_peer, ..
                } => *client == cid || *from_peer == Some(cid),
                FlowPurpose::OutputUpload { client, .. } => *client == cid,
            })
            .map(|(&f, _)| f)
            .collect();
        let now = self.sim.now();
        for fid in involved {
            if let Some(FlowPurpose::InputDownload {
                from_peer: Some(peer),
                client,
                rid,
                input_idx,
                chunk,
                ..
            }) = self.flows.remove(&fid)
            {
                self.net.abort_flow(now, fid);
                let p = &mut self.clients[peer.0 as usize];
                p.serving_now = p.serving_now.saturating_sub(1);
                // The downloading side (if it wasn't the dropped one)
                // retries against another peer.
                if client != cid && !self.clients[client.0 as usize].dropped {
                    self.stats.peer_failures += 1;
                    self.eobs.peer_failures.inc();
                    if let Some(k) = chunk {
                        // Swarm chunk: return it to the pool and repump.
                        let key = (client.0, rid.0, input_idx as u32);
                        if let Some(t) = self.swarm.get_mut(&key) {
                            t.fail(k, Some(peer.0));
                        }
                    } else if let Some(t) = self.clients[client.0 as usize].tasks.get_mut(&rid) {
                        t.attempts[input_idx] += 1;
                    }
                    self.sim.schedule_in(
                        SimDuration::from_secs_f64(self.cfg.peer_retry_delay_s),
                        Ev::PeerRetry(client, rid, input_idx),
                    );
                }
            } else {
                self.net.abort_flow(now, fid);
            }
        }
        // Swarm bookkeeping: the dropped host stops seeding, and its
        // own in-progress transfers die with it.
        self.swarm_index.drop_client(cid.0);
        self.swarm.retain(|k, _| k.0 != cid.0);
    }

    /// Lane name used in the timeline for a client.
    pub fn client_name(&self, c: ClientId) -> String {
        format!("node-{:02}", c.0)
    }
}

/// Why [`EngineBuilder::try_build`] failed.
#[derive(Debug)]
pub enum BuildError {
    /// Opening the durability plan's WAL file sink failed.
    WalSink(std::io::Error),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::WalSink(e) => write!(f, "WAL sink init failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::WalSink(e) => Some(e),
        }
    }
}

/// Fluent constructor for [`Engine`] — the one place an engine's
/// configuration, shard layout, durability, population and clients come
/// together:
///
/// ```ignore
/// let eng = Engine::builder(seed)
///     .config(cfg)
///     .shards(4)
///     .durability(DurabilityPlan::new().with_group_commit(64))
///     .population(PopulationSpec::internet(1_000, seed))
///     .build();
/// ```
///
/// Construction is O(hosts): the topology is assembled in full before
/// the network engine is created, unlike repeated
/// [`Engine::add_client`] calls which rebuild the network per client.
/// For a fixed seed the built engine is bit-identical to the legacy
/// `Engine::testbed` + `add_client`-loop + `attach_durable` sequence
/// (same RNG fork order, same event schedule).
pub struct EngineBuilder {
    seed: u64,
    cfg: ProjectConfig,
    server_link: HostLink,
    journal: Option<Journal>,
    plan: Option<DurabilityPlan>,
    population: Option<crate::population::PopulationSpec>,
    clients: Vec<(HostProfile, HostLink)>,
}

impl EngineBuilder {
    fn new(seed: u64) -> Self {
        EngineBuilder {
            seed,
            cfg: ProjectConfig::default(),
            // The Emulab-style testbed default: a 100 Mbit server.
            server_link: HostLink::symmetric_mbit(100.0, 0.000_5),
            journal: None,
            plan: None,
            population: None,
            clients: Vec::new(),
        }
    }

    /// Replaces the project configuration (default:
    /// [`ProjectConfig::default`]).
    pub fn config(mut self, cfg: ProjectConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the server-state shard count (overrides `cfg.shard.n`).
    /// `1` — the default — is the bit-identical sequential layout.
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.shard.n = n;
        self
    }

    /// Enables the shard worker pool for daemon passes (overrides
    /// `cfg.shard.parallel_daemons`).
    pub fn parallel_daemons(mut self, on: bool) -> Self {
        self.cfg.shard.parallel_daemons = on;
        self
    }

    /// Replaces the server's access link (default: symmetric 100 Mbit).
    pub fn server_link(mut self, link: HostLink) -> Self {
        self.server_link = link;
        self
    }

    /// Opens a write-ahead log from `plan` at build time and attaches
    /// it. Sink I/O failures surface from [`EngineBuilder::try_build`].
    /// Ignored when an explicit [`EngineBuilder::journal`] is also set.
    pub fn durability(mut self, plan: DurabilityPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Attaches an already-open journal (e.g. one shared with a
    /// recovery harness). Takes precedence over
    /// [`EngineBuilder::durability`].
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Adds a synthetic volunteer population: its ISP tiers, backbone
    /// and access links go straight into the engine topology (the
    /// server stays on the unconstrained core) and every generated host
    /// becomes a client with its generated profile. Population clients
    /// come first, before any [`EngineBuilder::client`] entries.
    pub fn population(mut self, spec: crate::population::PopulationSpec) -> Self {
        self.population = Some(spec);
        self
    }

    /// Adds one volunteer with the given profile and access link.
    pub fn client(mut self, profile: HostProfile, link: HostLink) -> Self {
        self.clients.push((profile, link));
        self
    }

    /// Adds volunteers in bulk, in iteration order.
    pub fn clients<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (HostProfile, HostLink)>,
    {
        self.clients.extend(it);
        self
    }

    /// Builds the engine, surfacing WAL-sink I/O errors.
    pub fn try_build(self) -> Result<Engine, BuildError> {
        let journal = match (self.journal, &self.plan) {
            (Some(j), _) => j,
            (None, Some(p)) => Journal::new(p).map_err(BuildError::WalSink)?,
            (None, None) => Journal::disabled(),
        };
        let mut topo = Topology::new();
        let server_host = topo.add_host(self.server_link);
        let mut placed: Vec<(HostProfile, HostId)> = Vec::new();
        if let Some(spec) = &self.population {
            for (host, g) in spec.generate_into(&mut topo) {
                placed.push((g.profile, host));
            }
        }
        for (profile, link) in self.clients {
            let host = topo.add_host(link);
            placed.push((profile, host));
        }
        let mut eng = Engine::from_parts(self.seed, self.cfg, topo, server_host);
        // Attach before any work units exist so genesis records land in
        // the log; a disabled journal makes every hook a no-op branch.
        eng.set_durable(journal);
        for (profile, host) in placed {
            eng.push_client(profile, host);
        }
        Ok(eng)
    }

    /// Builds the engine.
    ///
    /// # Panics
    /// If the durability plan's WAL sink cannot be opened — use
    /// [`EngineBuilder::try_build`] to handle that.
    pub fn build(self) -> Engine {
        match self.try_build() {
            Ok(eng) => eng,
            Err(e) => panic!("{e}"),
        }
    }
}

/// The honest output fingerprint of a work unit (FNV-1a of its name).
pub fn honest_fingerprint(wu_name: &str) -> OutputFingerprint {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in wu_name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    OutputFingerprint(h)
}

/// The wrong-but-agreed fingerprint a colluding clique emits for a WU:
/// derived from the honest fingerprint and the clique tag only, so
/// every member produces the same value without coordination. The
/// low bit is forced on, matching the random-corruption convention
/// (never equal to the honest output).
pub fn clique_fingerprint(honest: OutputFingerprint, tag: u64) -> OutputFingerprint {
    // splitmix64 finalizer decorrelates nearby tags.
    let mut z = tag.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    OutputFingerprint(honest.0 ^ z | 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FileRef;

    fn small_engine(n_clients: usize) -> Engine {
        Engine::builder(42)
            .clients((0..n_clients).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build()
    }

    fn wu_spec(name: &str, input_bytes: u64, output_bytes: u64) -> WorkUnitSpec {
        let mut s = WorkUnitSpec::basic(name, "app", 2e9); // ~1.3 s on pc3001
        if input_bytes > 0 {
            s.inputs = vec![FileRef::on_server(format!("{name}_in"), input_bytes)];
        }
        s.output_bytes = output_bytes;
        s
    }

    #[test]
    fn single_wu_validates_end_to_end() {
        let mut eng = small_engine(3);
        let wu = eng.insert_workunit(wu_spec("w0", 1_000_000, 100_000));
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert_eq!(
            eng.db.wu(wu).canonical,
            Some(honest_fingerprint("w0")),
            "canonical fingerprint is the honest one"
        );
        assert!(eng.stats.reports >= 2);
        assert!(eng.stats.grants >= 2);
        // Replicas must have landed on distinct clients.
        let holders: Vec<_> = eng
            .db
            .results_of(wu)
            .iter()
            .filter_map(|&r| eng.db.result(r).client)
            .collect();
        let mut dedup = holders.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(holders.len(), dedup.len());
    }

    #[test]
    fn ops_surface_renders_engine_registry() {
        let mut eng = small_engine(2);
        eng.insert_workunit(wu_spec("w0", 0, 1_000));
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
            e.db.all_wus_terminal()
        });
        let text = eng.metrics_text();
        let dash = eng.dashboard_text();
        assert!(dash.contains("vcore engine"), "dashboard carries its title");
        if cfg!(feature = "record") {
            assert!(
                text.contains("vcore_rpcs"),
                "scrape must expose the engine counters:\n{text}"
            );
            assert!(text.contains("# TYPE vcore_rpcs counter"));
        } else {
            assert!(!text.contains("vcore_rpcs"), "recorder compiled out");
        }
    }

    #[test]
    fn byzantine_minority_is_outvoted() {
        let mut eng = small_engine(4);
        eng.fault = FaultPlan {
            byzantine: vec![ClientId(0)],
            corruption_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut spec = wu_spec("w0", 0, 0);
        spec.target_nresults = 3;
        spec.min_quorum = 2;
        let wu = eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert_eq!(eng.db.wu(wu).canonical, Some(honest_fingerprint("w0")));
    }

    #[test]
    fn all_clients_byzantine_fails_wu() {
        // 5 clients so the retry replicas can actually be placed (the
        // one-replica-per-host rule would otherwise strand them unsent).
        let mut eng = small_engine(5);
        eng.fault = FaultPlan {
            byzantine: (0..5).map(ClientId).collect(),
            corruption_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut spec = wu_spec("w0", 0, 0);
        spec.max_total_results = 4;
        let wu = eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        // Either failed outright, or stuck inconclusive forever — with
        // corruption_prob 1.0 and random fingerprints, quorum is
        // (essentially) impossible, and budget 4 must exhaust.
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Failed);
    }

    #[test]
    fn empty_reply_triggers_backoff_growth() {
        let mut eng = small_engine(1);
        // No work at all: the lone client polls and backs off.
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(3600), |_| false);
        assert!(eng.stats.empty_replies >= 3);
        // RPC count is bounded by backoff growth: within an hour with a
        // 600 s cap the client cannot poll more than ~20 times.
        assert!(eng.stats.rpcs < 25, "rpcs={}", eng.stats.rpcs);
    }

    #[test]
    fn peer_download_via_served_file() {
        let mut eng = small_engine(2);
        // Client 1 serves a file; a WU downloads it from peers.
        eng.register_served_file(ClientId(1), "part0", 1_000_000, None);
        let mut spec = wu_spec("w0", 0, 0);
        spec.target_nresults = 1;
        spec.min_quorum = 1;
        spec.inputs = vec![FileRef {
            name: "part0".into(),
            bytes: 1_000_000,
            source: FileSource::Peers(vec![ClientId(1)]),
        }];
        let wu = eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert_eq!(eng.stats.server_fallbacks, 0);
        assert_eq!(eng.stats.peer_failures, 0);
    }

    #[test]
    fn missing_peer_file_falls_back_to_server() {
        let mut eng = small_engine(2);
        // No served file registered → every attempt fails → fallback.
        let mut spec = wu_spec("w0", 0, 0);
        spec.target_nresults = 1;
        spec.min_quorum = 1;
        spec.inputs = vec![FileRef {
            name: "missing".into(),
            bytes: 500_000,
            source: FileSource::Peers(vec![ClientId(1)]),
        }];
        let wu = eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert!(eng.stats.peer_failures >= eng.cfg.peer_retry_limit as u64);
        assert_eq!(eng.stats.server_fallbacks, 1);
    }

    #[test]
    fn dropout_before_report_times_out_and_retries() {
        let mut eng = small_engine(3);
        eng.fault = FaultPlan {
            dropouts: vec![(ClientId(0), SimDuration::from_secs(5))],
            ..FaultPlan::default()
        };
        // Make dropout matter: long compute so c0 holds a task at t=5.
        let mut spec = wu_spec("w0", 0, 0);
        spec.flops = 100.0 * 1.5e9; // ~100 s on pc3001
        spec.delay_bound = SimDuration::from_secs(300);
        let wu = eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert!(eng.client_dropped(ClientId(0)));
    }

    #[test]
    fn report_delay_measured_for_idle_tail() {
        // One client, one tiny WU (quorum 1): after finishing, the client
        // reports at its next RPC — delay should be recorded.
        let mut eng = small_engine(1);
        let mut spec = wu_spec("w0", 0, 0);
        spec.target_nresults = 1;
        spec.min_quorum = 1;
        eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.stats.report_delay.count(), 1);
    }

    #[test]
    fn availability_pauses_execution() {
        // Dedicated host vs a 50% duty-cycle volunteer, same 200 s task.
        let run = |avail: bool| {
            let mut prof = HostProfile::pc3001();
            if avail {
                prof = prof.with_availability(60.0, 60.0);
            }
            let mut eng = Engine::builder(123)
                .client(prof, HostLink::symmetric_mbit(100.0, 0.000_5))
                .build();
            let mut spec = wu_spec("w0", 0, 0);
            spec.flops = 200.0 * 1.5e9;
            spec.target_nresults = 1;
            spec.min_quorum = 1;
            eng.insert_workunit(spec);
            let mut policy = NullPolicy;
            eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
                e.db.all_wus_terminal()
            });
            assert!(eng.db.all_wus_terminal(), "avail={avail} did not finish");
            eng.db.wu(crate::types::WuId(0)).finished_at.unwrap()
        };
        let dedicated = run(false);
        let volunteer = run(true);
        assert!(
            volunteer > dedicated,
            "suspensions must stretch completion: {volunteer:?} <= {dedicated:?}"
        );
    }

    #[test]
    fn credit_granted_to_quorum_and_denied_to_byzantine() {
        let mut eng = small_engine(4);
        eng.fault = FaultPlan {
            byzantine: vec![ClientId(0)],
            corruption_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut spec = wu_spec("w0", 0, 0);
        spec.target_nresults = 3;
        spec.min_quorum = 2;
        eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
            e.db.all_wus_terminal()
        });
        let total = eng.credit.total_granted();
        assert!(total > 0.0, "quorum members must earn credit");
        let cheat = eng.credit.account(ClientId(0));
        assert_eq!(cheat.granted, 0.0, "byzantine host earns nothing");
        // The cheater either dissented (invalid) or wasn't picked at all.
        let board = eng.credit.leaderboard();
        assert!(board.iter().all(|(c, g)| *c != ClientId(0) || *g == 0.0));
    }

    #[test]
    fn quarantine_starves_unreliable_host() {
        let mut eng = small_engine(4);
        eng.cfg.max_host_error_rate = Some(0.5);
        eng.fault = FaultPlan {
            byzantine: vec![ClientId(0)],
            corruption_prob: 1.0,
            ..FaultPlan::default()
        };
        // Many quorum-2 WUs: the byzantine host keeps dissenting, its
        // error rate climbs, and the scheduler cuts it off.
        for i in 0..8 {
            let mut spec = wu_spec(&format!("w{i}"), 0, 0);
            spec.target_nresults = 3;
            spec.min_quorum = 2;
            eng.insert_workunit(spec);
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        let cheat = eng.credit.account(ClientId(0));
        assert!(
            cheat.invalid_results >= 1,
            "cheater must have dissented at least once"
        );
        assert!(
            cheat.error_rate() > 0.5,
            "ledger must reflect the cheating: {}",
            cheat.error_rate()
        );
        // After quarantine kicks in, honest hosts do (almost) all work:
        // the cheater's share of grants stays well below fair share.
        let cheat_tasks = cheat.valid_results + cheat.invalid_results;
        let honest_tasks: u64 = (1..4)
            .map(|c| {
                let a = eng.credit.account(ClientId(c));
                a.valid_results + a.invalid_results
            })
            .sum();
        assert!(
            cheat_tasks * 3 < honest_tasks,
            "quarantine should starve the cheater: {cheat_tasks} vs {honest_tasks}"
        );
    }

    #[test]
    fn locality_scheduling_prefers_local_candidate() {
        // Two WUs are available; the lone requesting client serves the
        // input of the *second* one. FIFO matchmaking grants the first;
        // locality matchmaking must grant the second (local data).
        fn in_progress(eng: &Engine, wu: WuId) -> bool {
            eng.db
                .results_of(wu)
                .iter()
                .any(|&r| eng.db.result(r).client.is_some())
        }
        let run = |locality: bool| -> WuId {
            let mut eng = small_engine(1);
            eng.cfg.locality_scheduling = locality;
            eng.cfg.client_buffer_slots = 1; // one grant per RPC
            eng.register_served_file(ClientId(0), "partB", 2_000_000, None);
            let mut a = wu_spec("wA", 0, 0);
            a.target_nresults = 1;
            a.min_quorum = 1;
            let mut b = wu_spec("wB", 0, 0);
            b.target_nresults = 1;
            b.min_quorum = 1;
            b.inputs = vec![crate::types::FileRef {
                name: "partB".into(),
                bytes: 2_000_000,
                source: FileSource::Peers(vec![ClientId(0)]),
            }];
            let wu_a = eng.insert_workunit(a);
            let wu_b = eng.insert_workunit(b);
            let mut policy = NullPolicy;
            // Stop at the first grant.
            eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
                e.stats.grants >= 1
            });
            [wu_a, wu_b]
                .into_iter()
                .find(|&wu| in_progress(&eng, wu))
                .expect("one WU must be granted")
        };
        assert_eq!(run(false), WuId(0), "FIFO grants the oldest WU");
        assert_eq!(run(true), WuId(1), "locality grants the WU with local data");
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut eng = Engine::builder(seed)
                .clients((0..5).map(|_| {
                    (
                        HostProfile::pc3001(),
                        HostLink::symmetric_mbit(100.0, 0.000_5),
                    )
                }))
                .build();
            for i in 0..4 {
                eng.insert_workunit(wu_spec(&format!("w{i}"), 500_000, 100_000));
            }
            let mut policy = NullPolicy;
            eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
                e.db.all_wus_terminal()
            });
            (
                eng.now(),
                eng.stats.rpcs,
                eng.stats.reports,
                eng.stats.grants,
            )
        };
        assert_eq!(run(7), run(7));
        // Different seeds: at least the run completes (values may differ).
        let _ = run(8);
    }

    /// The builder must reproduce the legacy `testbed` + `add_client`
    /// loop + `attach_durable` sequence bit for bit: same stats, same
    /// canonical state encodings, same WAL bytes.
    #[test]
    #[allow(deprecated)]
    fn builder_is_bit_identical_to_legacy_construction() {
        let link = || HostLink::symmetric_mbit(100.0, 0.000_5);
        let run = |use_builder: bool| {
            let plan = DurabilityPlan::new(0.0);
            let mut eng = if use_builder {
                Engine::builder(99)
                    .config(ProjectConfig::default())
                    .durability(plan)
                    .clients((0..4).map(|_| (HostProfile::pc3001(), link())))
                    .build()
            } else {
                let mut e = Engine::testbed(99, ProjectConfig::default());
                e.attach_durable(Journal::new(&plan).unwrap());
                for _ in 0..4 {
                    e.add_client(HostProfile::pc3001(), link());
                }
                e
            };
            for i in 0..4 {
                eng.insert_workunit(wu_spec(&format!("w{i}"), 300_000, 60_000));
            }
            let mut policy = NullPolicy;
            eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
                e.db.all_wus_terminal()
            });
            assert!(eng.db.all_wus_terminal());
            (
                eng.now(),
                eng.stats.rpcs,
                eng.stats.grants,
                eng.stats.reports,
                eng.db.encode_state(),
                eng.credit.encode_state(),
                eng.assimilator.encode_state(),
                eng.durable().log_bytes(),
            )
        };
        assert_eq!(run(true), run(false));
        // The same run, pinned: recorded through the legacy sequence.
        let (now, rpcs, grants, reports, db, credit, assim, wal) = run(true);
        let pin = |b: &[u8]| (b.len(), vmr_durable::crc::crc32(b));
        assert_eq!(
            (now.as_micros(), rpcs, grants, reports),
            (61_394_172, 12, 8, 8)
        );
        assert_eq!(pin(&db), (856, 2_718_603_776), "db state");
        assert_eq!(pin(&credit), (148, 408_817_123), "credit state");
        assert_eq!(pin(&assim), (184, 3_439_022_447), "assimilator state");
        assert_eq!(pin(&wal), (2141, 1_888_182_884), "WAL bytes");
    }

    /// `.population(spec)` puts the generated hosts behind their ISP
    /// tiers in the *engine's* topology and registers each as a client
    /// with its generated profile; the server stays on the core.
    #[test]
    fn builder_population_becomes_clients_behind_tiers() {
        let spec = crate::population::PopulationSpec::internet(64, 5);
        let standalone = spec.generate();
        let mut eng = Engine::builder(5).population(spec).build();
        assert_eq!(eng.n_clients(), 64);
        // One WU drives the full loop over the hierarchical network.
        let mut s = wu_spec("w0", 100_000, 10_000);
        s.target_nresults = 2;
        s.min_quorum = 2;
        s.delay_bound = SimDuration::from_secs(50_000);
        let wu = eng.insert_workunit(s);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(200_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        // Generated profiles carried over verbatim, tiers preserved.
        for (i, want) in standalone.hosts.iter().enumerate() {
            let c = ClientId(i as u32);
            assert_eq!(eng.client_profile(c).model, want.profile.model);
            assert_eq!(
                eng.client_profile(c).flops_per_sec.to_bits(),
                want.profile.flops_per_sec.to_bits()
            );
            assert_eq!(
                eng.net.topology().tier_of(eng.client_host(c)),
                Some(want.tier)
            );
        }
        assert_eq!(eng.net.topology().tier_of(eng.server_host()), None);
        assert!(eng.net.topology().is_hierarchical());
    }

    // ----- trust / adaptive replication -------------------------------------

    /// A trust config that trusts quickly and never spot-checks, so the
    /// adaptive path is deterministic in tests.
    fn eager_trust() -> vmr_trust::TrustConfig {
        let mut t = vmr_trust::TrustConfig::enabled();
        t.probation_results = 2;
        t.spot_check_rate = 0.0;
        t
    }

    fn trust_engine(n_clients: usize, trust: vmr_trust::TrustConfig) -> Engine {
        let cfg = ProjectConfig {
            trust,
            ..ProjectConfig::default()
        };
        Engine::builder(42)
            .config(cfg)
            .clients((0..n_clients).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build()
    }

    #[test]
    fn trusted_hosts_graduate_to_single_replication() {
        let mut eng = trust_engine(2, eager_trust());
        for i in 0..10 {
            eng.insert_workunit(wu_spec(&format!("w{i}"), 0, 0));
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        assert_eq!(eng.trust.trusted_count(), 2, "both hosts graduate");
        // Once trusted, later WUs validate from a single result.
        let relaxed = (0..10)
            .filter(|&i| eng.db.wu(WuId(i)).quorum_override == Some(1))
            .count();
        assert!(relaxed >= 4, "only {relaxed} WUs ran unreplicated");
        // Every WU still validated with the honest canonical output.
        for i in 0..10 {
            assert_eq!(
                eng.db.wu(WuId(i)).state,
                crate::workunit::WuState::Validated
            );
            assert_eq!(
                eng.db.wu(WuId(i)).canonical,
                Some(honest_fingerprint(&format!("w{i}")))
            );
        }
        // Redundant work was actually saved: fewer reports than the
        // 2-per-WU fixed-quorum baseline.
        assert!(
            eng.stats.reports < 20,
            "reports={} should be below 2/WU",
            eng.stats.reports
        );
    }

    #[test]
    fn spot_checks_keep_full_replication() {
        let mut t = eager_trust();
        t.spot_check_rate = 1.0; // every trusted grant is a spot-check
        let mut eng = trust_engine(2, t);
        for i in 0..8 {
            eng.insert_workunit(wu_spec(&format!("w{i}"), 0, 0));
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        assert_eq!(eng.trust.trusted_count(), 2);
        for i in 0..8 {
            assert_eq!(
                eng.db.wu(WuId(i)).quorum_override,
                None,
                "spot-checks must never relax the quorum"
            );
        }
        let checks: u64 = (0..2).map(|c| eng.trust.host(c).spot_checks).sum();
        assert!(checks > 0, "spot-checks must be recorded in the ledger");
        assert_eq!(eng.stats.reports, 16, "full 2-way replication kept");
    }

    #[test]
    fn dissent_revokes_trust() {
        // One host turns byzantine after building trust (a sleeper
        // waking mid-run). Spot-checks must catch it: without them an
        // unreplicated wrong result simply *becomes* canonical.
        let mut t = eager_trust();
        t.spot_check_rate = 0.5;
        let mut eng = trust_engine(3, t);
        eng.fault = FaultPlan::trust_poisoning(3, 0.34, 1.0, SimDuration::from_secs(30), 9);
        let member = (0..3)
            .map(ClientId)
            .find(|&c| {
                matches!(
                    eng.fault.index().corruption_now(
                        c,
                        SimTime::from_secs(31),
                        &mut RngStream::new(1)
                    ),
                    Corruption::Random
                )
            })
            .expect("one sleeper member");
        for i in 0..24 {
            let mut spec = wu_spec(&format!("w{i}"), 0, 0);
            spec.flops = 7.5e9; // ~5 s on pc3001: the run outlives the wake
            eng.insert_workunit(spec);
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(200_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        assert!(
            !eng.trust.is_trusted(member.0),
            "the sleeper must lose trust after defecting"
        );
        assert!(
            eng.host_outcomes(member).invalid > 0,
            "dissents must be tallied"
        );
    }

    #[test]
    fn host_outcome_tallies_without_trust() {
        // Trust disabled: the per-host validation ledger still fills.
        let mut eng = small_engine(3);
        eng.fault = FaultPlan {
            byzantine: vec![ClientId(0)],
            corruption_prob: 1.0,
            ..FaultPlan::default()
        };
        for i in 0..4 {
            let mut spec = wu_spec(&format!("w{i}"), 0, 0);
            spec.target_nresults = 3;
            spec.min_quorum = 2;
            eng.insert_workunit(spec);
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        let honest: u64 = (1..3).map(|c| eng.host_outcomes(ClientId(c)).valid).sum();
        assert!(honest > 0, "honest hosts tally valids");
        assert!(
            eng.host_outcomes(ClientId(0)).invalid > 0,
            "byzantine host tallies invalids"
        );
        assert_eq!(eng.trust.trusted_count(), 0, "ledger untouched when off");
    }

    #[test]
    fn trust_disabled_knobs_do_not_change_behavior() {
        // With `enabled: false`, the other trust knobs must not leak
        // into the run: stats and journaled state stay bit-identical
        // to the default config.
        let run = |trust: vmr_trust::TrustConfig| {
            let cfg = ProjectConfig {
                trust,
                ..ProjectConfig::default()
            };
            let mut eng = Engine::builder(7)
                .config(cfg)
                .clients((0..4).map(|_| {
                    (
                        HostProfile::pc3001(),
                        HostLink::symmetric_mbit(100.0, 0.000_5),
                    )
                }))
                .build();
            for i in 0..4 {
                eng.insert_workunit(wu_spec(&format!("w{i}"), 200_000, 50_000));
            }
            let mut policy = NullPolicy;
            eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
                e.db.all_wus_terminal()
            });
            (
                eng.now(),
                eng.stats.rpcs,
                eng.stats.grants,
                eng.stats.reports,
                eng.db.encode_state(),
                eng.credit.encode_state(),
            )
        };
        let weird = vmr_trust::TrustConfig {
            trust_threshold: 0.9,
            probation_results: 0,
            spot_check_rate: 1.0,
            ..Default::default()
        };
        assert!(!weird.enabled);
        assert_eq!(run(vmr_trust::TrustConfig::default()), run(weird));
    }

    #[test]
    fn colluding_clique_fingerprints_agree() {
        let honest = honest_fingerprint("w0");
        let a = clique_fingerprint(honest, 77);
        let b = clique_fingerprint(honest, 77);
        assert_eq!(a, b, "members derive the same wrong answer");
        assert_ne!(a, honest);
        assert_ne!(a, clique_fingerprint(honest, 78));
    }

    #[test]
    fn clique_quorum_escapes_validation() {
        // Both replicas land on clique members → their shared wrong
        // fingerprint reaches quorum and escapes as canonical.
        let mut eng = small_engine(2);
        eng.fault = FaultPlan::colluding_clique(2, 1.0, 5, 11);
        let wu = eng.insert_workunit(wu_spec("w0", 0, 0));
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert_eq!(
            eng.db.wu(wu).canonical,
            Some(clique_fingerprint(honest_fingerprint("w0"), 5)),
            "the clique's agreed-on wrong answer becomes canonical"
        );
    }
}
