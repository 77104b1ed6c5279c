//! Engine construction: the fluent [`EngineBuilder`] and the assembly
//! steps behind it.

use super::{Engine, EngineObs, Ev, RelayChoice};
use crate::config::ProjectConfig;
use crate::db::Db;
use crate::fault::{FaultIndex, FaultPlan};
use crate::host::HostProfile;
use std::collections::BTreeMap;
use vmr_desim::{SimTime, Simulation};
use vmr_durable::{DurabilityPlan, Journal};
use vmr_netsim::{HostId, HostLink, Network, Topology, TraversalPolicy};
use vmr_shuffle::{FetchObs, SwarmIndex};
use vmr_trust::TrustLedger;

impl Engine {
    /// Assembles the engine over a fully built topology. The topology
    /// must be complete before the network engine is constructed (dense
    /// link indices embed the host count), which is exactly what the
    /// builder guarantees.
    fn from_parts(seed: u64, cfg: ProjectConfig, topo: Topology, server_host: HostId) -> Self {
        let mut sim = Simulation::new(seed);
        let rng = sim.fork_rng("engine");
        let trust_rng = sim.fork_rng("trust");
        let trust = TrustLedger::new(cfg.trust.clone());
        let obs = vmr_obs::Obs::new();
        sim.attach_obs(&obs);
        let eobs = EngineObs::attach(&obs);
        let shuffle = cfg.shuffle.build();
        let fobs = FetchObs::attach(&obs);
        let (backoff_min, backoff_max) = cfg.backoff_bounds();
        let backoff = crate::backoff::Backoff::with_bounds(backoff_min, backoff_max);
        let mut eng = Engine {
            sim,
            net: Network::with_obs(topo, &obs),
            db: Db::new(),
            cfg,
            fault: FaultPlan::none(),
            traversal: TraversalPolicy::direct_only(),
            obs,
            credit: crate::credit::CreditLedger::new(),
            assimilator: crate::assimilate::Assimilator::new(),
            relay: RelayChoice::default(),
            trust,
            server_host,
            clients: Vec::new(),
            served: BTreeMap::new(),
            hot: Vec::new(),
            backoff,
            flows: Vec::new(),
            net_wake: None,
            feeder: crate::sched::Feeder::default(),
            rng,
            trust_rng,
            dropouts_armed: false,
            fidx: FaultIndex::default(),
            durable: Journal::disabled(),
            eobs,
            shuffle,
            swarm_index: SwarmIndex::default(),
            swarm: BTreeMap::new(),
            fobs,
            idle: Default::default(),
        };
        eng.sim.schedule_at(SimTime::ZERO, Ev::DaemonTick);
        eng
    }

    /// Attaches a write-ahead log: the engine owns the master handle
    /// and clones it into every journaled subsystem (project database,
    /// credit ledger, assimilator, trust ledger). Policies append
    /// through [`Engine::durable`].
    fn set_durable(&mut self, journal: Journal) {
        journal.attach_obs(&self.obs);
        self.db.set_journal(journal.clone());
        self.credit.set_journal(journal.clone());
        self.assimilator.set_journal(journal.clone());
        self.trust.set_journal(journal.clone());
        self.durable = journal;
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
/// configuration, durability, population and clients come together:
///
/// ```ignore
/// let eng = Engine::builder(seed)
///     .config(cfg)
///     .durability(DurabilityPlan::new(300.0).with_sink("server.wal"))
///     .population(PopulationSpec::internet(1_000, seed))
///     .build();
/// ```
///
/// Construction is O(hosts): the topology is assembled in full before
/// the network engine is created.
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
    pub(super) fn new(seed: u64) -> Self {
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
        // The population goes into the topology now and streams its
        // hosts' profiles below: no per-host copy of it is held.
        let generated = (self.population.as_ref()).map(|spec| spec.generate_into(&mut topo));
        let first_added = topo.len() as u32;
        for (_, link) in &self.clients {
            topo.add_host(link.clone());
        }
        let mut eng = Engine::from_parts(self.seed, self.cfg, topo, server_host);
        // Attach before any work units exist so genesis records land in
        // the log; a disabled journal makes every hook a no-op branch.
        eng.set_durable(journal);
        let n_generated = generated.as_ref().map_or(0, ExactSizeIterator::len);
        eng.reserve_clients(n_generated + self.clients.len());
        // Construction is O(hosts) and priced at 100 000 of them: one
        // rng-label buffer serves every client.
        let placed = generated
            .into_iter()
            .flatten()
            .map(|(host, g)| (host, g.profile));
        let added = (self.clients.into_iter().zip(first_added..))
            .map(|((profile, _), host)| (HostId(host), profile));
        let mut label = String::new();
        for (host, profile) in placed.chain(added) {
            eng.push_client(profile, host, &mut label);
        }
        Ok(eng)
    }

    /// Builds the engine.
    ///
    /// # Panics
    /// If the durability plan's WAL sink cannot be opened — use
    /// [`EngineBuilder::try_build`] to handle that.
    pub fn build(self) -> Engine {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}
