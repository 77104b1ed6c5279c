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
//!
//! This module sequences events; the layers own mechanism. It keeps the
//! [`Engine`] struct, its accessors, the event loop and the server
//! daemon cadence. `client` is the volunteer state machine, `transfer`
//! starts and finishes every network flow, `fetch` decides where a
//! peer-held input is pulled from, `builder` is the construction
//! surface.

use crate::config::{ProjectConfig, FEEDER_SLOTS, SERVER_DAEMON_PERIOD_S};
use crate::db::Db;
use crate::fault::{FaultIndex, FaultPlan};
use crate::transition::{transition_wu, Transition};
use crate::types::{ClientId, OutputFingerprint, ResultId, WuId};
use crate::workunit::{ResultState, WorkUnitSpec};
use std::collections::BTreeMap;
use vmr_desim::{EventId, Fired, RngStream, SimDuration, SimTime, Simulation};
use vmr_durable::{Journal, SectionWriter, Sections};
use vmr_netsim::{HostId, Network, TraversalPolicy};
use vmr_obs::{Actor, Detail, EventKind, Mark, WuEnd};
use vmr_shuffle::{FetchObs, ShuffleStrategy, SwarmIndex, SwarmTransfer};
use vmr_trust::{Outcome as TrustOutcome, ReplicationDecision, ReplicationPolicy, TrustLedger};

mod builder;
mod client;
mod fetch;
mod transfer;

pub use builder::{BuildError, EngineBuilder};
pub use transfer::RelayChoice;

use client::{Client, ClientHot, IdleCalendar};
use transfer::{FlowPurpose, InputSlot};

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
    /// (vmr-core serializes its JobTracker here), encoded straight into
    /// the snapshot frame — so no call back into the journal from here.
    /// Sections must be canonical: equal policy states must append
    /// equal bytes.
    fn durable_sections(&self, out: &mut SectionWriter<'_>) {}
}

/// A no-op policy: plain BOINC with no project hooks.
pub struct NullPolicy;
impl Policy for NullPolicy {}

/// The BOINC-like middleware simulation.
pub struct Engine {
    sim: Simulation<Ev>,
    net: Network,
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
    /// Every run count lives here: `vcore.*` in its snapshot.
    pub obs: vmr_obs::Obs,
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
    /// Who serves which file to peers (BOINC-MR map outputs) and until
    /// when: per file name, its holders, each with its serving window
    /// end (`None` = no timeout). One entry per (file, client). Keyed
    /// by file so a finished job stops serving through each file's few
    /// holders, not through every client.
    served: BTreeMap<String, Vec<(ClientId, Option<SimTime>)>>,
    /// `hot[i]` belongs to `clients[i]`.
    hot: Vec<ClientHot>,
    /// The project's back-off bounds (each client keeps only its count
    /// of consecutive empty replies).
    backoff: crate::backoff::Backoff,
    /// Why each flow exists, indexed by `FlowId` (`None` once it
    /// completed or aborted).
    flows: Vec<Option<FlowPurpose>>,
    /// Pending NetWake event and the time it targets. The time is kept
    /// so re-arming at the same instant preserves the original event
    /// (and its queue tie-break rank) instead of cancel+reschedule —
    /// required for stepped/resumed runs to match continuous ones.
    net_wake: Option<(EventId, SimTime)>,
    feeder: crate::sched::Feeder,
    rng: RngStream,
    /// Dedicated stream for spot-check draws: it is consumed only for
    /// trusted hosts with trust enabled, so disabling trust leaves
    /// every other stream's draw sequence untouched (bit-identical
    /// baseline runs).
    trust_rng: RngStream,
    dropouts_armed: bool,
    /// Compiled fault lookups, built from `fault` at run start.
    fidx: FaultIndex,
    /// Write-ahead log handle (disabled unless the builder attached one).
    durable: Journal,
    eobs: EngineObs,
    /// Shuffle strategy object built from `cfg.shuffle` — owns the
    /// *decisions* of the transfer path (source pick, chunking, coded
    /// planning); all mechanics stay in the `transfer` module.
    shuffle: Box<dyn ShuffleStrategy + Send + Sync>,
    /// Per-chunk sibling seeds of swarmed files.
    swarm_index: SwarmIndex,
    /// In-progress swarmed transfers, keyed (client, result, input).
    swarm: BTreeMap<(u32, u32, u32), SwarmTransfer>,
    /// Pre-resolved `shuffle.*` counters.
    fobs: FetchObs,
    /// Idle clients' chains of empty RPCs, parked off the event queue
    /// while no feeder pass can give them work.
    idle: IdleCalendar,
}

/// Pre-resolved metric handles for the scheduler hot paths: the
/// engine's counts live in the shared registry, so one snapshot covers
/// every crate; resolving them once at construction keeps per-event
/// cost to an atomic bump.
struct EngineObs {
    rpcs: vmr_obs::Counter,
    empty_replies: vmr_obs::Counter,
    grants: vmr_obs::Counter,
    reports: vmr_obs::Counter,
    peer_failures: vmr_obs::Counter,
    server_fallbacks: vmr_obs::Counter,
    busy_deferrals: vmr_obs::Counter,
    /// Peer connect attempts by NAT traversal outcome.
    nat_direct: vmr_obs::Counter,
    nat_reversal: vmr_obs::Counter,
    nat_hole_punch: vmr_obs::Counter,
    nat_relay: vmr_obs::Counter,
    nat_failed: vmr_obs::Counter,
    /// Bytes of every flow into the server host (input fall-backs and
    /// output uploads).
    bytes_via_server: vmr_obs::Counter,
    wu_validated: vmr_obs::Counter,
    wu_failed: vmr_obs::Counter,
    report_delay_s: vmr_obs::Histo,
    feeder_occupancy: vmr_obs::TimeGauge,
    transitioner_scope: vmr_obs::Scope,
    client_wake_scope: vmr_obs::Scope,
    policy_scope: vmr_obs::Scope,
    swarm_pump_scope: vmr_obs::Scope,
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
            nat_direct: obs.counter_labeled("vcore.nat_connects", &[("outcome", "direct")]),
            nat_reversal: obs.counter_labeled("vcore.nat_connects", &[("outcome", "reversal")]),
            nat_hole_punch: obs.counter_labeled("vcore.nat_connects", &[("outcome", "hole_punch")]),
            nat_relay: obs.counter_labeled("vcore.nat_connects", &[("outcome", "relay")]),
            nat_failed: obs.counter_labeled("vcore.nat_connects", &[("outcome", "failed")]),
            bytes_via_server: obs.counter("vcore.bytes_via_server"),
            wu_validated: obs.counter_labeled("vcore.wu_outcomes", &[("outcome", "validated")]),
            wu_failed: obs.counter_labeled("vcore.wu_outcomes", &[("outcome", "failed")]),
            report_delay_s: obs.histogram("vcore.report_delay_s"),
            feeder_occupancy: obs.time_gauge("vcore.feeder_occupancy"),
            transitioner_scope: obs.scope("vcore.transitioner_sweep"),
            client_wake_scope: obs.scope("vcore.client_wake"),
            policy_scope: obs.scope("vcore.policy"),
            swarm_pump_scope: obs.scope("vcore.swarm_pump"),
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
    /// surface for engines: configuration, durability, synthetic
    /// populations and ad-hoc clients in one pass.
    pub fn builder(seed: u64) -> EngineBuilder {
        EngineBuilder::new(seed)
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

    /// Has this client dropped out?
    pub fn client_dropped(&self, c: ClientId) -> bool {
        self.hot[c.0 as usize].dropped
    }

    /// Schedules a policy-defined event.
    pub fn schedule_custom(&mut self, delay: SimDuration, tag: u64) {
        self.sim.schedule_in(delay, Ev::Custom(tag));
    }

    /// Marks `name` as served by `client` for peers to download until
    /// `until` (`None` = no timeout) — BOINC-MR: a mapper starts
    /// serving its outputs after execution. Registering a file the
    /// client already holds replaces its window.
    pub fn register_served_file(
        &mut self,
        client: ClientId,
        name: impl Into<String>,
        until: Option<SimTime>,
    ) {
        let holders = self.served.entry(name.into()).or_default();
        match holders.iter_mut().find(|(c, _)| *c == client) {
            Some(holder) => holder.1 = until,
            None => holders.push((client, until)),
        }
    }

    /// Stops serving `name` from every holder (job finished). Sibling
    /// seeds of the file are dropped with it: once the job stops
    /// serving a map output, nobody swarms its chunks any more.
    pub fn stop_serving_file(&mut self, name: &str) {
        self.served.remove(name);
        self.swarm_index.drop_file(name);
    }

    /// Extends/reset the serving window of a file on one holder ("the
    /// map outputs' timeout is reset … and the file becomes available
    /// for upload"). A no-op when `client` does not hold `name`.
    pub fn reset_serving_timeout(&mut self, client: ClientId, name: &str, until: Option<SimTime>) {
        let holder = self
            .served
            .get_mut(name)
            .and_then(|holders| holders.iter_mut().find(|(c, _)| *c == client));
        if let Some(holder) = holder {
            holder.1 = until;
        }
    }

    /// `client`'s serving window for `name`: `None` when it does not
    /// hold the file, `Some(None)` when the window never closes.
    fn serving_window(&self, client: ClientId, name: &str) -> Option<Option<SimTime>> {
        let holders = self.served.get(name)?;
        holders
            .iter()
            .find(|(c, _)| *c == client)
            .map(|&(_, until)| until)
    }

    /// Is `client` serving `name` to peers at `now` — registered, and
    /// inside its serving window (§III.C's mapper-side timeout)?
    pub fn serves(&self, client: ClientId, name: &str, now: SimTime) -> bool {
        self.serving_window(client, name)
            .is_some_and(|until| until.is_none_or(|u| now <= u))
    }

    /// Has `client` registered `name`, whether or not its serving
    /// window is still open?
    fn holds_served_file(&self, client: ClientId, name: &str) -> bool {
        self.serving_window(client, name).is_some()
    }

    /// Runs one [`Policy`] hook under the `vcore.policy` profiling
    /// scope, so job-phase work (reduce creation, teardown) is priced
    /// apart from the event that triggered it.
    fn in_policy(&mut self, hook: impl FnOnce(&mut Engine)) {
        // Profiling off (the default) pays one atomic load, as a
        // disarmed scope does, and not the handle clone below.
        if !self.obs.prof.is_enabled() {
            hook(self);
            return;
        }
        // Cloned: a guard borrowed from `self.eobs` could not live
        // across the `&mut self` the hook takes.
        let scope = self.eobs.policy_scope.clone();
        let _hook = scope.enter();
        hook(self);
    }

    /// The engine's WAL handle (disabled unless the builder attached one).
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

    /// The vcore-owned snapshot sections (db, credit, assimilator) —
    /// the prefix [`Engine::live_sections`] emits before the policy and
    /// trust ledger add theirs.
    pub fn state_sections(&self) -> Vec<(String, Vec<u8>)> {
        Sections::collect(|w| self.write_state_sections(w)).entries
    }

    fn write_state_sections(&self, w: &mut SectionWriter<'_>) {
        use vmr_durable::section;
        w.section(section::NAMES[section::DB], |e| {
            self.db.encode_state_into(e)
        });
        w.section(section::NAMES[section::CREDIT], |e| {
            self.credit.encode_state_into(e)
        });
        w.section(section::NAMES[section::ASSIM], |e| {
            self.assimilator.encode_state_into(e)
        });
    }

    /// Every snapshot section in canonical order: the vcore-owned
    /// trio, then whatever the policy contributes, then the trust
    /// ledger (always present — a pristine ledger still encodes its
    /// config deterministically). The recovery audit compares these
    /// against a recovered image byte-for-byte.
    pub fn live_sections<P: Policy>(&self, policy: &P) -> Vec<(String, Vec<u8>)> {
        Sections::collect(|w| self.write_live_sections(policy, w)).entries
    }

    /// [`Engine::live_sections`] as a snapshot frame takes them: each
    /// section encoded in place.
    fn write_live_sections<P: Policy>(&self, policy: &P, w: &mut SectionWriter<'_>) {
        use vmr_durable::section;
        self.write_state_sections(w);
        policy.durable_sections(w);
        w.section(section::NAMES[section::TRUST], |e| {
            self.trust.encode_state_into(e)
        });
    }

    // ----- main loop --------------------------------------------------------

    /// Runs until `stop` returns true, the event queue drains, or `horizon`
    /// passes. Returns the number of events dispatched.
    ///
    /// `stop` runs before **every** dispatched event, so it must be O(1):
    /// anything that walks a table turns the run into O(events × rows).
    /// The intended predicate is `|e| e.db.all_wus_terminal()`
    /// ([`Db::all_wus_terminal`]), a counter read, optionally combined
    /// with `e.now()` or a policy flag.
    ///
    /// With the event journal off, an idle client's empty RPCs in a
    /// daemon interval whose feeder pass found no work are not
    /// dispatched events: they run in bulk at the next tick (see
    /// `client::IdleCalendar`), so `stop` is not evaluated between them
    /// and the count returned leaves them out. Whatever the reason the
    /// run returns for — `stop`, the horizon or a crash — those wakes
    /// are settled first: every counter, every client's back-off state
    /// and [`Engine::now`] then read as if each had been dispatched. On
    /// the horizon that includes the wakes up to it, and the clock moves
    /// to the last event or wake at or before it. A `stop` that becomes
    /// true only through such a wake's counts (say, `vcore.rpcs`) is seen
    /// at the next dispatched event instead.
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
        if self.obs.journal.is_enabled() {
            // Switched on since chains parked: they record every RPC.
            self.release_all_parked();
        }
        // Cloned once per call: a guard borrowed from `self.eobs` could
        // not live across the `&mut self` dispatch it times.
        let wake_scope = self.eobs.client_wake_scope.clone();
        let mut on_horizon = false;
        loop {
            // A crashed journal models a dead server: stop consuming
            // events; whatever memory holds past this point is lost.
            if self.durable.crashed() {
                break;
            }
            if stop(self) {
                break;
            }
            let next = match self.durable.pending_crash_at_us() {
                Some(c) => self.next_dispatch_before_crash(SimTime::from_micros(c), horizon),
                None => self.sim.next_event_before(horizon),
            };
            let Some(ev) = next else {
                on_horizon = !self.durable.crashed();
                break;
            };
            n += 1;
            {
                let _wake = matches!(ev.payload, Ev::ClientWake(_)).then(|| wake_scope.enter());
                self.dispatch(policy, ev.payload);
            }
            // One dispatched event = one WAL transaction.
            self.durable.commit();
            self.arm_net_wake();
        }
        self.settle_parked(on_horizon.then_some(horizon));
        n
    }

    /// The next event at or before `horizon` while a time crash at `c`
    /// is pending. The crash fires at the first event at or after `c`,
    /// which may be a parked wake; then the crash is tripped there and
    /// there is no event.
    fn next_dispatch_before_crash(&mut self, c: SimTime, horizon: SimTime) -> Option<Fired<Ev>> {
        if c == SimTime::ZERO || c > horizon || !self.parked_wakes_pending() {
            return self.sim.next_event_before(horizon);
        }
        let just_before = |t: SimTime| SimTime::from_micros(t.as_micros() - 1);
        if let Some(ev) = self.sim.next_event_before(horizon.min(just_before(c))) {
            return Some(ev);
        }
        match self.first_parked_wake_from(c).filter(|&w| w <= horizon) {
            Some(w) => {
                let ev = self.sim.next_event_before(just_before(w));
                if ev.is_none() {
                    self.crash_on_parked_wake(w);
                }
                ev
            }
            None => self.sim.next_event_before(horizon),
        }
    }

    fn dispatch<P: Policy>(&mut self, policy: &mut P, ev: Ev) {
        self.durable.advance_to(self.sim.now().as_micros());
        match ev {
            Ev::NetWake => self.on_net_wake(),
            Ev::ClientWake(c) => self.client_rpc(policy, c),
            Ev::ExecDone(c, rid) => self.on_exec_done(policy, c, rid),
            Ev::DeadlineCheck(rid) => self.on_deadline(policy, rid),
            Ev::DaemonTick => self.on_daemon_tick(policy),
            Ev::PeerRetry(client, rid, idx) => {
                self.start_input_download(InputSlot { client, rid, idx })
            }
            Ev::Dropout(c) => self.on_dropout(c),
            Ev::Suspend(c) => self.on_suspend(c),
            Ev::Resume(c) => self.on_resume(c),
            Ev::Custom(tag) => self.in_policy(|eng| policy.on_custom(eng, tag)),
        }
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
        // Periodic snapshot, before the feeder refill so the snapshot
        // captures the same state replay would rebuild.
        if self.durable.snapshot_due() {
            // Section order is fixed, so equal states produce
            // byte-identical snapshots.
            let written = self
                .durable
                .write_snapshot_with(|w| self.write_live_sections(policy, w));
            if let Some(bytes) = written {
                let records = self.durable.records();
                self.obs
                    .journal
                    .record_with(self.sim.now().as_micros(), || EventKind::SnapshotTaken {
                        records,
                        bytes: bytes as u64,
                    });
            }
        }
        self.close_idle_interval();
        // Feeder refill: copy unsent results (FIFO) into the cache.
        self.feeder.refill(
            &self.db,
            FEEDER_SLOTS,
            &crate::sched::WorkerPool::sequential(),
        );
        self.eobs
            .feeder_occupancy
            .set(self.sim.now().as_micros(), self.feeder.len() as f64);
        self.open_idle_interval(!self.feeder.is_empty());
        let period = SimDuration::from_secs_f64(SERVER_DAEMON_PERIOD_S);
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
                // Population outcome totals, kept even with trust off
                // (the per-host tallies are the credit ledger's).
                self.eobs.host_valid.add(clients.len() as u64);
                self.eobs.host_invalid.add(dissenting.len() as u64);
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
                self.journal_wu_transition(wu, WuEnd::Validated);
                self.in_policy(|eng| policy.on_wu_validated(eng, wu, &clients));
            }
            Transition::Failed => {
                self.eobs.wu_failed.inc();
                self.journal_wu_transition(wu, WuEnd::Failed);
                self.in_policy(|eng| policy.on_wu_failed(eng, wu));
            }
            // Retried: the new replicas become schedulable at the next
            // feeder pass; deadlines attach when they are sent.
            Transition::Retried { .. } | Transition::None => {}
        }
    }

    /// Journals a work unit's terminal transition, as the typed event
    /// and as the `server`-lane timeline point.
    fn journal_wu_transition(&self, wu: WuId, to: WuEnd) {
        let now = self.sim.now().as_micros();
        let journal = &self.obs.journal;
        journal.record_with(now, || EventKind::WuTransition { wu: wu.0, to });
        let mark = match to {
            WuEnd::Validated => Mark::Validated,
            WuEnd::Failed => Mark::WuFailed,
        };
        journal.point(Actor::Server, mark, Detail::Wu(wu.0), now);
    }

    /// A result of `c` errored or timed out: the credit ledger, the
    /// outcome counters and (when enabled) the trust ledger all hear.
    fn note_host_error(&mut self, c: ClientId) {
        self.credit.on_error(c);
        self.eobs.host_error.inc();
        if self.cfg.trust.enabled {
            self.trust.observe(c.0, TrustOutcome::Error);
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
            let policy = ReplicationPolicy::new(self.cfg.trust);
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
    use crate::config::{CLIENT_BUFFER_SLOTS, PEER_RETRY_LIMIT};
    use crate::fault::Corruption;
    use crate::host::HostProfile;
    use crate::types::{FileRef, FileSource};
    use vmr_netsim::HostLink;

    /// `vcore.<name>` of `eng`'s registry.
    fn count(eng: &Engine, name: &str) -> u64 {
        eng.obs.snapshot().counter(&format!("vcore.{name}"))
    }

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
        assert!(count(&eng, "reports") >= 2);
        assert!(count(&eng, "grants") >= 2);
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
        assert!(count(&eng, "empty_replies") >= 3);
        // RPC count is bounded by backoff growth: within an hour with a
        // 600 s cap the client cannot poll more than ~20 times.
        assert!(count(&eng, "rpcs") < 25, "rpcs={}", count(&eng, "rpcs"));
    }

    /// The journal switch is read when a client parks and when a run
    /// starts: chains parked while it was off go back into the event
    /// queue once a run starts with it on, and from then on every RPC
    /// is journaled again.
    #[test]
    fn switching_the_journal_on_releases_parked_chains() {
        let split = SimTime::from_secs(2_000);
        let run = |off_first: bool| {
            let mut eng = small_engine(4);
            eng.insert_workunit(wu_spec("w0", 0, 0));
            eng.obs.journal.set_enabled(!off_first);
            eng.run_until(&mut NullPolicy, split, |_| false);
            let at_split = (eng.now(), count(&eng, "rpcs"));
            eng.obs.journal.set_enabled(true);
            eng.run_until(&mut NullPolicy, SimTime::from_secs(9_000), |_| false);
            let served_after_split = eng
                .obs
                .journal
                .events()
                .iter()
                .filter(|e| {
                    e.t_us > split.as_micros() && matches!(e.kind, EventKind::RpcServed { .. })
                })
                .count() as u64;
            assert_eq!(served_after_split, count(&eng, "rpcs") - at_split.1);
            (
                at_split,
                eng.now(),
                count(&eng, "rpcs"),
                count(&eng, "empty_replies"),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn peer_download_via_served_file() {
        let mut eng = small_engine(2);
        // Client 1 serves a file; a WU downloads it from peers.
        eng.register_served_file(ClientId(1), "part0", None);
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
        assert_eq!(count(&eng, "server_fallbacks"), 0);
        assert_eq!(count(&eng, "peer_failures"), 0);
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
        assert!(count(&eng, "peer_failures") >= PEER_RETRY_LIMIT as u64);
        assert_eq!(count(&eng, "server_fallbacks"), 1);
    }

    // ----- served-file registry ---------------------------------------------

    #[test]
    fn served_file_answers_for_each_holder_alone() {
        let mut eng = small_engine(3);
        let t = SimTime::from_secs;
        eng.register_served_file(ClientId(0), "f", Some(t(100)));
        eng.register_served_file(ClientId(1), "f", None);
        assert!(eng.serves(ClientId(0), "f", t(50)));
        assert!(eng.serves(ClientId(1), "f", t(50)));
        assert!(!eng.serves(ClientId(2), "f", t(50)), "a non-holder");
        assert!(!eng.serves(ClientId(0), "g", t(50)), "a file it never held");
        // Client 0's window closes; client 1's never does.
        assert!(!eng.serves(ClientId(0), "f", t(200)));
        assert!(eng.serves(ClientId(1), "f", t(200)));
    }

    #[test]
    fn a_closed_serving_window_is_not_served_but_stays_registered() {
        let mut eng = small_engine(1);
        let until = SimTime::from_secs(100);
        eng.register_served_file(ClientId(0), "f", Some(until));
        assert!(
            eng.serves(ClientId(0), "f", until),
            "served at its last instant"
        );
        let after = until + SimDuration::from_micros(1);
        assert!(!eng.serves(ClientId(0), "f", after));
        assert!(
            eng.holds_served_file(ClientId(0), "f"),
            "expired, not forgotten: a fetch from it journals ServingExpiry"
        );
    }

    #[test]
    fn fetch_from_a_closed_window_journals_serving_expiry() {
        let mut eng = small_engine(2);
        // Closed before anyone asks: every peer attempt finds it expired.
        eng.register_served_file(ClientId(1), "part0", Some(SimTime::ZERO));
        let mut spec = wu_spec("w0", 0, 0);
        spec.target_nresults = 1;
        spec.min_quorum = 1;
        spec.inputs = vec![FileRef {
            name: "part0".into(),
            bytes: 500_000,
            source: FileSource::Peers(vec![ClientId(1)]),
        }];
        let wu = eng.insert_workunit(spec);
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(eng.db.wu(wu).state, crate::workunit::WuState::Validated);
        assert_eq!(count(&eng, "server_fallbacks"), 1);
        let expiries = eng
            .obs
            .journal
            .events()
            .into_iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::ServingExpiry { client: 1, file } if &**file == "part0")
            })
            .count();
        assert_eq!(expiries as u64, count(&eng, "peer_failures"));
        let fallbacks = eng
            .obs
            .journal
            .events()
            .into_iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::PeerFallback { client: 0, file } if &**file == "part0")
            })
            .count();
        assert_eq!(fallbacks as u64, count(&eng, "server_fallbacks"));
    }

    #[test]
    fn re_registering_replaces_the_window() {
        let mut eng = small_engine(1);
        let t = SimTime::from_secs;
        eng.register_served_file(ClientId(0), "f", Some(t(10)));
        eng.register_served_file(ClientId(0), "f", Some(t(100)));
        assert!(eng.serves(ClientId(0), "f", t(50)));
        assert_eq!(eng.served["f"], vec![(ClientId(0), Some(t(100)))]);
    }

    #[test]
    fn reset_serving_timeout_moves_only_the_named_holder() {
        let mut eng = small_engine(3);
        let t = SimTime::from_secs;
        eng.register_served_file(ClientId(0), "f", Some(t(10)));
        eng.register_served_file(ClientId(1), "f", Some(t(10)));
        eng.reset_serving_timeout(ClientId(0), "f", Some(t(100)));
        assert!(eng.serves(ClientId(0), "f", t(50)));
        assert!(!eng.serves(ClientId(1), "f", t(50)));
        // A non-holder gains nothing: no entry, no file.
        eng.reset_serving_timeout(ClientId(2), "f", Some(t(100)));
        eng.reset_serving_timeout(ClientId(2), "g", Some(t(100)));
        assert!(!eng.holds_served_file(ClientId(2), "f"));
        assert_eq!(eng.served["f"].len(), 2);
        assert!(!eng.served.contains_key("g"));
    }

    #[test]
    fn dropout_forgets_only_that_client_in_every_file() {
        let mut eng = small_engine(2);
        for name in ["f", "g"] {
            eng.register_served_file(ClientId(0), name, None);
            eng.register_served_file(ClientId(1), name, None);
        }
        eng.register_served_file(ClientId(0), "h", None);
        eng.on_dropout(ClientId(0));
        let now = eng.now();
        for name in ["f", "g", "h"] {
            assert!(!eng.holds_served_file(ClientId(0), name), "{name}");
        }
        for name in ["f", "g"] {
            assert!(eng.serves(ClientId(1), name, now), "{name}");
        }
    }

    #[test]
    fn stop_serving_file_drops_every_holder_and_its_swarm_seeds() {
        let mut eng = small_engine(3);
        for c in 0..3 {
            eng.register_served_file(ClientId(c), "f", None);
        }
        eng.register_served_file(ClientId(0), "g", None);
        eng.swarm_index.add_seed("f", 0, 2, 1);
        eng.swarm_index.add_seed("g", 0, 2, 1);
        eng.stop_serving_file("f");
        let now = eng.now();
        assert!((0..3).all(|c| !eng.holds_served_file(ClientId(c), "f")));
        assert!(eng.swarm_index.seeds("f", 0).is_empty());
        assert!(eng.serves(ClientId(0), "g", now), "other files untouched");
        assert_eq!(eng.swarm_index.seeds("g", 0), &[1]);
        // The name is free again, e.g. for a later job's file.
        eng.register_served_file(ClientId(2), "f", None);
        assert!(eng.serves(ClientId(2), "f", now));
        assert!(!eng.serves(ClientId(0), "f", now));
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
        assert_eq!(
            eng.obs.snapshot().histogram("vcore.report_delay_s").count,
            1
        );
    }

    #[test]
    fn availability_pauses_execution() {
        // Dedicated host vs a 50% duty-cycle volunteer, same 200 s task.
        let run = |avail: bool| {
            let mut prof = HostProfile::pc3001();
            if avail {
                prof.availability = Some(crate::host::Availability {
                    on_mean_s: 60.0,
                    off_mean_s: 60.0,
                });
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
    fn locality_scheduling_prefers_local_candidate() {
        // Three WUs are available; the lone requesting client buffers
        // two tasks and serves the input of the *last* one. FIFO
        // matchmaking grants the two oldest; locality matchmaking must
        // grant the one with local data.
        fn in_progress(eng: &Engine, wu: WuId) -> bool {
            eng.db
                .results_of(wu)
                .iter()
                .any(|&r| eng.db.result(r).client.is_some())
        }
        let run = |locality: bool| -> bool {
            let mut eng = small_engine(1);
            eng.cfg.locality_scheduling = locality;
            eng.register_served_file(ClientId(0), "partB", None);
            for name in ["wA1", "wA2"] {
                let mut a = wu_spec(name, 0, 0);
                a.target_nresults = 1;
                a.min_quorum = 1;
                eng.insert_workunit(a);
            }
            let mut b = wu_spec("wB", 0, 0);
            b.target_nresults = 1;
            b.min_quorum = 1;
            b.inputs = vec![crate::types::FileRef {
                name: "partB".into(),
                bytes: 2_000_000,
                source: FileSource::Peers(vec![ClientId(0)]),
            }];
            let wu_b = eng.insert_workunit(b);
            let mut policy = NullPolicy;
            // Stop after the first granting RPC.
            eng.run_until(&mut policy, SimTime::from_secs(4000), |e| {
                count(e, "grants") >= 1
            });
            assert_eq!(count(&eng, "grants"), u64::from(CLIENT_BUFFER_SLOTS));
            in_progress(&eng, wu_b)
        };
        assert!(!run(false), "FIFO grants the two oldest WUs");
        assert!(run(true), "locality grants the WU with local data");
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
                count(&eng, "rpcs"),
                count(&eng, "reports"),
                count(&eng, "grants"),
            )
        };
        assert_eq!(run(7), run(7));
        // Different seeds: at least the run completes (values may differ).
        let _ = run(8);
    }

    /// A built engine's run, pinned: the values were recorded through
    /// the `testbed` + `add_client` loop + `attach_durable` sequence
    /// the builder replaced, at the last commit that had it — same
    /// counters, same canonical state encodings, same WAL bytes.
    #[test]
    fn builder_reproduces_recorded_legacy_construction() {
        let link = || HostLink::symmetric_mbit(100.0, 0.000_5);
        let mut eng = Engine::builder(99)
            .config(ProjectConfig::default())
            .durability(vmr_durable::DurabilityPlan::new(0.0))
            .clients((0..4).map(|_| (HostProfile::pc3001(), link())))
            .build();
        for i in 0..4 {
            eng.insert_workunit(wu_spec(&format!("w{i}"), 300_000, 60_000));
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(40_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        assert_eq!(
            (
                eng.now().as_micros(),
                count(&eng, "rpcs"),
                count(&eng, "grants"),
                count(&eng, "reports")
            ),
            (61_394_172, 12, 8, 8)
        );
        let pin = |b: &[u8]| (b.len(), vmr_durable::crc::crc32(b));
        assert_eq!(pin(&eng.db.encode_state()), (856, 2_718_603_776));
        assert_eq!(pin(&eng.credit.encode_state()), (148, 408_817_123));
        assert_eq!(pin(&eng.assimilator.encode_state()), (184, 3_439_022_447));
        assert_eq!(pin(&eng.durable().log_bytes()), (2141, 1_469_092_537));
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
            let client = &eng.clients[i];
            assert_eq!(client.profile.model, want.profile.model);
            assert_eq!(
                client.profile.flops_per_sec.to_bits(),
                want.profile.flops_per_sec.to_bits()
            );
            assert_eq!(eng.net.topology().tier_of(client.host), Some(want.tier));
        }
        assert_eq!(eng.net.topology().tier_of(eng.server_host()), None);
        assert!(eng.net.topology().is_hierarchical());
    }

    /// The builder streams the population instead of holding a copy;
    /// what it builds is still, bit for bit, what `generate` draws:
    /// every client's profile and access link, every tier and the
    /// backbone.
    #[test]
    fn builder_population_matches_generate_bit_for_bit() {
        let bits = |l: &HostLink| {
            let l = [l.up_bytes_per_sec, l.down_bytes_per_sec, l.latency_s];
            l.map(f64::to_bits)
        };
        for seed in [2, 17, 90_001] {
            let spec = crate::population::PopulationSpec::internet(1_000, seed);
            let want = spec.generate();
            let eng = Engine::builder(seed).population(spec).build();
            let topo = eng.net.topology();
            assert_eq!(eng.n_clients(), want.hosts.len());
            for (i, w) in want.hosts.iter().enumerate() {
                let (got, host) = (&eng.clients[i].profile, eng.clients[i].host);
                assert_eq!(got.model, w.profile.model);
                assert_eq!(
                    got.flops_per_sec.to_bits(),
                    w.profile.flops_per_sec.to_bits()
                );
                assert_eq!((got.slots, got.nat), (w.profile.slots, w.profile.nat));
                let av = |p: &HostProfile| {
                    (p.availability).map(|a| (a.on_mean_s.to_bits(), a.off_mean_s.to_bits()))
                };
                assert_eq!(av(got), av(&w.profile));
                assert_eq!(
                    bits(topo.link(host)),
                    bits(want.topo.link(HostId(i as u32)))
                );
                assert_eq!(topo.tier_of(host), Some(w.tier));
            }
            assert_eq!(topo.num_tiers(), want.topo.num_tiers());
            for t in 0..topo.num_tiers() as u32 {
                let (a, b) = (
                    topo.tier_link(vmr_netsim::TierId(t)),
                    want.topo.tier_link(vmr_netsim::TierId(t)),
                );
                let tier_bits = |l: &vmr_netsim::TierLink| {
                    [l.up_bytes_per_sec, l.down_bytes_per_sec, l.latency_s].map(f64::to_bits)
                };
                assert_eq!(tier_bits(a), tier_bits(b));
            }
            let backbone = |t: &vmr_netsim::Topology| t.capacity_at(t.backbone_index()).to_bits();
            assert_eq!(backbone(topo), backbone(&want.topo));
        }
    }

    // ----- trust / adaptive replication -------------------------------------

    fn trust_engine(n_clients: usize) -> Engine {
        let cfg = ProjectConfig {
            trust: vmr_trust::TrustConfig::enabled(),
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

    fn trust_count(eng: &Engine, name: &str) -> u64 {
        eng.obs.snapshot().counter(&format!("trust.{name}"))
    }

    #[test]
    fn trusted_hosts_graduate_to_single_replication() {
        const N: u32 = 20;
        let mut eng = trust_engine(2);
        for i in 0..N {
            eng.insert_workunit(wu_spec(&format!("w{i}"), 0, 0));
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        assert_eq!(eng.trust.trusted_count(), 2, "both hosts graduate");
        // Once trusted, later WUs validate from a single result.
        let relaxed = (0..N)
            .filter(|&i| eng.db.wu(WuId(i)).quorum_override == Some(1))
            .count() as u64;
        assert!(
            relaxed >= N as u64 / 2,
            "only {relaxed} WUs ran unreplicated"
        );
        assert_eq!(trust_count(&eng, "replication_saved"), relaxed);
        // Every WU still validated with the honest canonical output.
        for i in 0..N {
            assert_eq!(
                eng.db.wu(WuId(i)).state,
                crate::workunit::WuState::Validated
            );
            assert_eq!(
                eng.db.wu(WuId(i)).canonical,
                Some(honest_fingerprint(&format!("w{i}")))
            );
        }
        // Redundant work was actually saved: one report per relaxed WU,
        // two per replicated one.
        assert_eq!(count(&eng, "reports"), 2 * N as u64 - relaxed);
    }

    #[test]
    fn spot_checks_keep_full_replication() {
        const N: u32 = 120;
        let mut eng = trust_engine(2);
        for i in 0..N {
            eng.insert_workunit(wu_spec(&format!("w{i}"), 0, 0));
        }
        let mut policy = NullPolicy;
        eng.run_until(&mut policy, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(eng.db.all_wus_terminal());
        assert_eq!(eng.trust.trusted_count(), 2);
        let checks: u64 = (0..2).map(|c| eng.trust.host(c).spot_checks).sum();
        assert!(checks > 0, "spot-checks must be recorded in the ledger");
        assert_eq!(trust_count(&eng, "spot_checks"), checks);
        // A grant of a WU's first attempt to a trusted host either relaxes
        // it (one spare cancelled) or spot-checks it; every WU left at the
        // spec quorum — the spot-checked ones among them — ran both
        // replicas to a report.
        let relaxed = (0..N)
            .filter(|&i| eng.db.wu(WuId(i)).quorum_override == Some(1))
            .count() as u64;
        let full = N as u64 - relaxed;
        assert_eq!(trust_count(&eng, "replication_saved"), relaxed);
        assert!(full >= checks, "{full} full WUs, {checks} spot-checks");
        assert_eq!(
            count(&eng, "reports"),
            2 * full + relaxed,
            "spot-checks must never relax the quorum"
        );
    }

    #[test]
    fn dissent_revokes_trust() {
        // One host turns byzantine after building trust (a sleeper
        // waking mid-run). Spot-checks must catch it: without them an
        // unreplicated wrong result simply *becomes* canonical.
        let mut eng = trust_engine(3);
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
        // Enough post-wake grants to the sleeper that one of them draws a
        // spot-check at the 5 % rate.
        for i in 0..120 {
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
            trust_count(&eng, "spot_check_failures") > 0,
            "a trusted host must be caught dissenting"
        );
        assert!(
            !eng.trust.is_trusted(member.0),
            "the sleeper must lose trust after defecting"
        );
        assert!(eng.trust.host(member.0).mismatches > 0);
        assert!(
            eng.credit.account(member).invalid_results > 0,
            "dissents must be tallied"
        );
    }

    #[test]
    fn host_outcome_tallies_without_trust() {
        // Trust disabled: the per-host validation tallies still fill.
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
        let honest: u64 = (1..3)
            .map(|c| eng.credit.account(ClientId(c)).valid_results)
            .sum();
        assert!(honest > 0, "honest hosts tally valids");
        assert!(
            eng.credit.account(ClientId(0)).invalid_results > 0,
            "byzantine host tallies invalids"
        );
        assert_eq!(eng.trust.trusted_count(), 0, "ledger untouched when off");
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
