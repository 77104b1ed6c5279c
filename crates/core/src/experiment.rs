//! The §IV experiment harness.
//!
//! Builds the paper's testbed in the simulator (N nodes on 100 Mbit
//! links, one project server), submits a word-count MapReduce job with
//! the Table I parameters, runs to completion, and reports phase
//! makespans — including the bracketed "slowest node discarded" values
//! the paper derives ("by examining the results obtained, it was not
//! unusual for a single node to hold up the entire computation").

use crate::config::{MitigationPlan, MrJobConfig, MrMode, SizingModel};
use crate::policy::MrPolicy;
use vmr_desim::{SimTime, Timeline};
use vmr_durable::{DurabilityPlan, Journal};
use vmr_netsim::{HostLink, NatMix, TraversalPolicy};
use vmr_vcore::{
    ClientId, Engine, FaultPlan, HostProfile, ProjectConfig, ResultState, TrustConfig, WuId,
};

/// How many of each testbed node type to instantiate (§IV.A's pc3001 /
/// pcr200 mix).
#[derive(Clone, Copy, Debug)]
pub struct NodeMix {
    /// Dell PowerEdge 2850 (3 GHz P4 Xeon) count.
    pub pc3001: usize,
    /// Dell PowerEdge r200 (quad Xeon X3220) count.
    pub pcr200: usize,
}

impl NodeMix {
    /// All nodes of the slower type.
    pub fn uniform(n: usize) -> Self {
        NodeMix {
            pc3001: n,
            pcr200: 0,
        }
    }

    /// Total node count.
    pub fn total(&self) -> usize {
        self.pc3001 + self.pcr200
    }
}

/// One experiment = one Table I cell (or ablation point).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// RNG seed (runs are bit-reproducible per seed).
    pub seed: u64,
    /// Volunteer population.
    pub nodes: NodeMix,
    /// Map work units.
    pub n_maps: usize,
    /// Reduce work units.
    pub n_reduces: usize,
    /// Transfer mode (BOINC vs BOINC-MR).
    pub mode: MrMode,
    /// Initial input size (paper: 1 GB).
    pub input_bytes: u64,
    /// Replication factor (paper: 2).
    pub replication: u32,
    /// Validation quorum (paper: 2).
    pub quorum: u32,
    /// Backoff cap in seconds (paper: 600; swept by ablation A1).
    pub backoff_max_s: u64,
    /// §IV.C mitigations.
    pub mitigation: MitigationPlan,
    /// Jobs submitted concurrently (1 = the paper's single-job runs;
    /// more = the "larger number of jobs at the same time" mitigation).
    pub concurrent_jobs: usize,
    /// Data/compute sizing model.
    pub sizing: SizingModel,
    /// NAT population (None = all public, the testbed situation).
    pub nat_mix: Option<NatMix>,
    /// Traversal policy for inter-client connections.
    pub traversal: TraversalPolicy,
    /// Fault injection.
    pub fault: FaultPlan,
    /// Report deadline per result, seconds (shorten for churn studies).
    pub delay_bound_s: f64,
    /// Promote this many volunteers to public supernode relays instead
    /// of relaying NATed transfers through the server (§III.D's
    /// "supernode-based P2P network"). They are forced to open NAT.
    pub supernode_relays: usize,
    /// Owner-usage availability applied to every volunteer (None = the
    /// dedicated Emulab machines of §IV.A).
    pub availability: Option<vmr_vcore::Availability>,
    /// Locality-aware matchmaking: prefer granting reduce tasks to
    /// volunteers that already hold some of the partitions.
    pub locality_scheduling: bool,
    /// Record the full timeline (Fig. 4); disable for big sweeps.
    pub record_timeline: bool,
    /// Server durability: WAL + snapshot cadence + optional crash point
    /// (disabled by default — the in-memory-only baseline).
    pub durable: DurabilityPlan,
    /// Host reputation / adaptive replication (disabled by default —
    /// the fixed-quorum baseline the paper uses).
    pub trust: TrustConfig,
    /// Map-output distribution strategy (Baseline = the paper's
    /// point-to-point pull with server fall-back).
    pub shuffle: vmr_vcore::ShuffleConfig,
}

/// Why an experiment configuration was rejected (or failed to start).
#[derive(Debug)]
pub enum ConfigError {
    /// The volunteer population is empty — nothing can run.
    NoNodes,
    /// More reduce work units than map work units: the partition model
    /// hands each reducer at least one map output, so this geometry is
    /// unsatisfiable.
    ReducesExceedMaps {
        /// Configured map count.
        maps: usize,
        /// Configured reduce count.
        reduces: usize,
    },
    /// Opening the durability plan's WAL file sink failed.
    WalSink(std::io::Error),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "experiment has zero volunteer nodes"),
            ConfigError::ReducesExceedMaps { maps, reduces } => write!(
                f,
                "n_reduces ({reduces}) exceeds n_maps ({maps}): every reducer needs map output"
            ),
            ConfigError::WalSink(e) => write!(f, "WAL sink init failed: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::WalSink(e) => Some(e),
            _ => None,
        }
    }
}

impl ExperimentConfig {
    /// One Table I cell: `nodes`, `n_maps` map WUs, `n_reduces` reduce
    /// WUs, with the paper's defaults for everything else.
    pub fn table1(nodes: usize, n_maps: usize, n_reduces: usize, mode: MrMode) -> Self {
        ExperimentConfig {
            seed: 0xB01C,
            nodes: NodeMix::uniform(nodes),
            n_maps,
            n_reduces,
            mode,
            input_bytes: 1 << 30,
            replication: 2,
            quorum: 2,
            backoff_max_s: 600,
            mitigation: MitigationPlan::default(),
            concurrent_jobs: 1,
            sizing: SizingModel::default(),
            nat_mix: None,
            traversal: TraversalPolicy::direct_only(),
            fault: FaultPlan::none(),
            delay_bound_s: 6.0 * 3600.0,
            supernode_relays: 0,
            availability: None,
            locality_scheduling: false,
            record_timeline: false,
            durable: DurabilityPlan::disabled(),
            trust: TrustConfig::default(),
            shuffle: vmr_vcore::ShuffleConfig::default(),
        }
    }

    /// Checks the configuration, returning the first problem found.
    /// [`run_experiment`] calls this before building anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes.total() == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.n_reduces > self.n_maps {
            return Err(ConfigError::ReducesExceedMaps {
                maps: self.n_maps,
                reduces: self.n_reduces,
            });
        }
        Ok(())
    }
}

/// Table I style numbers for one job.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Map phase seconds (first map assignment → map validation done).
    pub map_s: f64,
    /// Reduce phase seconds.
    pub reduce_s: f64,
    /// Total makespan seconds.
    pub total_s: f64,
    /// Map phase with the slowest node's reports discarded (the paper's
    /// bracketed italics), when a straggler existed.
    pub map_no_slowest_s: Option<f64>,
    /// Reduce phase without the slowest node.
    pub reduce_no_slowest_s: Option<f64>,
    /// Total without stragglers (both phase penalties removed).
    pub total_no_slowest_s: Option<f64>,
}

/// Everything an experiment run produces.
pub struct ExperimentOutcome {
    /// Per-job phase reports (one for the paper's runs).
    pub reports: Vec<PhaseReport>,
    /// Event timeline (populated when `record_timeline`), rebuilt from
    /// the engine's obs journal.
    pub timeline: Timeline,
    /// Observability bundle: metrics snapshot source (every engine
    /// count — `vcore.rpcs`, `vcore.nat_connects{outcome=relay}`,
    /// `vcore.bytes_via_server`, `vcore.report_delay_s`, …) and raw
    /// journal.
    pub obs: vmr_obs::Obs,
    /// Simulated end time.
    pub finished_at: SimTime,
    /// Whether every job completed (false = horizon hit / job failed /
    /// server crash).
    pub all_done: bool,
    /// WAL image at run end — including any uncommitted tail, what a
    /// crashed server's disk would hold (None when durability was
    /// off): the whole log without a file sink, the mirror file (as
    /// compacted) plus the unmirrored tail with one
    /// (`Journal::log_bytes`, which panics if that file cannot be read
    /// back). Feed to
    /// [`crate::recover::resume_experiment`].
    pub wal: Option<Vec<u8>>,
    /// True when the durability crash plan fired during the run.
    pub crashed: bool,
}

/// Event horizon of every experiment run: makespans are ~20 min; 50 h
/// catches pathologies.
pub(crate) fn horizon() -> SimTime {
    SimTime::from_secs(180_000)
}

/// Builds the testbed engine and policy with jobs submitted — the
/// shared front half of [`run_experiment`] and
/// [`crate::recover::resume_experiment`]. The journal must be attached
/// before work units are inserted so the genesis records land in the
/// log.
pub(crate) fn build_testbed(cfg: &ExperimentConfig, journal: Journal) -> (Engine, MrPolicy) {
    let pc = ProjectConfig {
        backoff_max_s: cfg.backoff_max_s,
        report_results_immediately: cfg.mitigation.immediate_report,
        locality_scheduling: cfg.locality_scheduling,
        trust: cfg.trust.clone(),
        shuffle: cfg.shuffle.clone(),
    };

    // Volunteers: the paper's 100 Mbit testbed links.
    let mut nat_rng = vmr_desim::RngStream::new(cfg.seed ^ 0x9a7);
    let volunteers: Vec<_> = (0..cfg.nodes.total())
        .map(|i| {
            let mut prof = if i < cfg.nodes.pc3001 {
                HostProfile::pc3001()
            } else {
                HostProfile::pcr200()
            };
            if let Some(mix) = &cfg.nat_mix {
                prof.nat = mix.draw(&mut nat_rng);
            }
            if i < cfg.supernode_relays {
                prof.nat = vmr_netsim::NatType::Open; // supernodes must be reachable
            }
            prof.availability = cfg.availability;
            (prof, HostLink::symmetric_mbit(100.0, 0.000_5))
        })
        .collect();
    let mut eng = Engine::builder(cfg.seed)
        .config(pc)
        .journal(journal)
        .clients(volunteers)
        .build();
    if !cfg.record_timeline {
        eng.obs.journal.set_enabled(false);
    }
    eng.traversal = cfg.traversal.clone();
    eng.fault = cfg.fault.clone();
    if cfg.supernode_relays > 0 {
        eng.relay = vmr_vcore::RelayChoice::Supernodes(
            (0..cfg.supernode_relays as u32).map(ClientId).collect(),
        );
    }

    let mut pol = MrPolicy::new();
    for _ in 0..cfg.concurrent_jobs.max(1) {
        let mut jc = MrJobConfig::paper_wordcount(cfg.n_maps, cfg.n_reduces, cfg.mode);
        jc.input_bytes = cfg.input_bytes;
        jc.replication = cfg.replication;
        jc.quorum = cfg.quorum;
        jc.sizing = cfg.sizing;
        jc.mitigation = cfg.mitigation;
        jc.delay_bound_s = cfg.delay_bound_s;
        pol.submit_job(&mut eng, jc);
    }
    (eng, pol)
}

/// Builds the outcome from a finished (or crashed) engine — the shared
/// back half of [`run_experiment`] and
/// [`crate::recover::resume_experiment`].
pub(crate) fn finish(eng: Engine, pol: MrPolicy) -> ExperimentOutcome {
    // Clean run end: give a mirror write that failed earlier one more
    // try, so the on-disk image matches the committed log. A crashed
    // journal refuses (the dead server cannot write), which is exactly
    // the image recovery should see.
    eng.durable().flush_sink();
    let reports = pol
        .tracker
        .jobs
        .iter()
        .map(|job| build_report(&eng, job))
        .collect();
    let crashed = eng.durable().crashed();
    let wal = if eng.durable().enabled() {
        Some(eng.durable().log_bytes())
    } else {
        None
    };
    ExperimentOutcome {
        reports,
        all_done: pol.all_done(),
        finished_at: eng.now(),
        timeline: Timeline::from_journal(&eng.obs.journal),
        obs: eng.obs.clone(),
        wal,
        crashed,
    }
}

/// Runs one experiment to completion (or to its configured crash).
///
/// Rejects invalid configurations ([`ExperimentConfig::validate`]) and
/// surfaces WAL-sink I/O failures instead of panicking.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<ExperimentOutcome, ConfigError> {
    cfg.validate()?;
    let journal = Journal::new(&cfg.durable).map_err(ConfigError::WalSink)?;
    let (mut eng, mut pol) = build_testbed(cfg, journal);
    eng.run_until(&mut pol, horizon(), |e| e.db.all_wus_terminal());
    Ok(finish(eng, pol))
}

/// Latest successful report time over `wus`, optionally excluding one
/// client's results, together with the client that produced it.
fn last_report(
    eng: &Engine,
    wus: &[WuId],
    exclude: Option<ClientId>,
) -> Option<(SimTime, ClientId)> {
    let mut best: Option<(SimTime, ClientId)> = None;
    for &wu in wus {
        for &rid in eng.db.results_of(wu) {
            let r = eng.db.result(rid);
            if r.state != ResultState::Over || !r.is_success() {
                continue;
            }
            let (Some(t), Some(c)) = (r.reported_at, r.client) else {
                continue;
            };
            if Some(c) == exclude {
                continue;
            }
            if best.map(|(bt, _)| t > bt).unwrap_or(true) {
                best = Some((t, c));
            }
        }
    }
    best
}

fn build_report(eng: &Engine, job: &crate::jobtracker::JobState) -> PhaseReport {
    let map_s = job.map_time().unwrap_or(f64::NAN);
    let reduce_s = job.reduce_time().unwrap_or(f64::NAN);
    let total_s = job.total_time().unwrap_or(f64::NAN);

    // The paper's bracketed values: "we discarded the results of the
    // slowest node of the experiment". Identify the node whose report
    // closes each phase; recompute the phase end without it.
    let derive = |wus: &[WuId], start: Option<SimTime>| -> Option<f64> {
        let start = start?;
        let (_, slowest) = last_report(eng, wus, None)?;
        let (t2, _) = last_report(eng, wus, Some(slowest))?;
        Some(t2.saturating_since(start).as_secs_f64())
    };
    let map_ns = derive(&job.map_wus, job.first_map_assign);
    let reduce_ns = derive(&job.reduce_wus, job.first_reduce_assign);
    // Meaningful only when the phase actually had a straggler: keep the
    // derived value when it saves more than 5% of the phase.
    let keep = |orig: f64, ns: Option<f64>| match ns {
        Some(v) if v < orig * 0.95 => Some(v),
        _ => None,
    };
    let map_no_slowest_s = keep(map_s, map_ns);
    let reduce_no_slowest_s = keep(reduce_s, reduce_ns);
    let total_no_slowest_s = match (map_no_slowest_s, reduce_no_slowest_s) {
        (None, None) => None,
        (m, r) => Some(total_s - (map_s - m.unwrap_or(map_s)) - (reduce_s - r.unwrap_or(reduce_s))),
    };
    PhaseReport {
        map_s,
        reduce_s,
        total_s,
        map_no_slowest_s,
        reduce_no_slowest_s,
        total_no_slowest_s,
    }
}

/// Formats a Table I row: `value [derived]` cells.
pub fn format_row(nodes: usize, n_maps: usize, n_reduces: usize, r: &PhaseReport) -> String {
    let cell = |v: f64, ns: Option<f64>| match ns {
        Some(d) => format!("{:>5.0} [{:>4.0}]", v, d),
        None => format!("{:>5.0}       ", v),
    };
    format!(
        "{nodes:>5} | {n_maps:>5} | {n_reduces:>4} | {} | {} | {}",
        cell(r.map_s, r.map_no_slowest_s),
        cell(r.reduce_s, r.reduce_no_slowest_s),
        cell(r.total_s, r.total_no_slowest_s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mode: MrMode) -> ExperimentConfig {
        let mut c = ExperimentConfig::table1(6, 4, 2, mode);
        c.input_bytes = 64 << 20; // 64 MB keeps unit tests quick
        c
    }

    #[test]
    fn small_experiment_completes_both_modes() {
        for mode in [MrMode::ServerRelay, MrMode::InterClient] {
            let out = run_experiment(&small(mode)).expect("valid experiment config");
            assert!(out.all_done, "{mode}: job did not finish");
            let r = &out.reports[0];
            assert!(r.map_s > 0.0);
            assert!(r.reduce_s > 0.0);
            assert!(r.total_s >= r.map_s + r.reduce_s);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_experiment(&small(MrMode::InterClient)).expect("valid experiment config");
        let b = run_experiment(&small(MrMode::InterClient)).expect("valid experiment config");
        assert_eq!(a.reports[0].total_s, b.reports[0].total_s);
        assert_eq!(
            a.obs.snapshot().counter("vcore.rpcs"),
            b.obs.snapshot().counter("vcore.rpcs")
        );
    }

    #[test]
    fn different_seeds_vary() {
        let mut c1 = small(MrMode::InterClient);
        let mut c2 = small(MrMode::InterClient);
        c1.seed = 1;
        c2.seed = 2;
        let a = run_experiment(&c1).expect("valid experiment config");
        let b = run_experiment(&c2).expect("valid experiment config");
        // Jitter and stagger should shift makespans at least slightly.
        assert_ne!(a.reports[0].total_s, b.reports[0].total_s);
    }

    #[test]
    fn interclient_reduce_not_slower_than_relay() {
        // The paper's headline: "the reduce step was the fastest (due to
        // the inter-client transfers)". With several reducers hammering
        // one server link, inter-client should win clearly.
        let mut relay_cfg = small(MrMode::ServerRelay);
        let mut p2p_cfg = small(MrMode::InterClient);
        for c in [&mut relay_cfg, &mut p2p_cfg] {
            c.input_bytes = 256 << 20;
            c.nodes = NodeMix::uniform(10);
            c.n_maps = 8;
            c.n_reduces = 4;
        }
        let relay = run_experiment(&relay_cfg).expect("valid experiment config");
        let p2p = run_experiment(&p2p_cfg).expect("valid experiment config");
        assert!(relay.all_done && p2p.all_done);
        assert!(
            p2p.reports[0].reduce_s < relay.reports[0].reduce_s,
            "p2p reduce {} should beat relay reduce {}",
            p2p.reports[0].reduce_s,
            relay.reports[0].reduce_s
        );
    }

    #[test]
    fn timeline_recorded_when_requested() {
        let mut c = small(MrMode::InterClient);
        c.record_timeline = true;
        let out = run_experiment(&c).expect("valid experiment config");
        assert!(!out.timeline.spans().is_empty());
        assert!(out
            .timeline
            .points()
            .iter()
            .any(|p| p.detail == vmr_obs::Detail::Phase(vmr_obs::PhaseMark::ReduceStart)));
    }

    #[test]
    fn format_row_shape() {
        let r = PhaseReport {
            map_s: 484.0,
            reduce_s: 337.0,
            total_s: 1121.0,
            map_no_slowest_s: Some(396.0),
            reduce_no_slowest_s: None,
            total_no_slowest_s: Some(1011.0),
        };
        let s = format_row(10, 10, 2, &r);
        assert!(s.contains("484"));
        assert!(s.contains("[ 396]"));
        assert!(s.contains("1121"));
    }
}
