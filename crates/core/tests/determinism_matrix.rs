//! A run is a function of its configuration and seed, for every
//! subsystem that makes decisions.
//!
//! Each row below switches on one source of decisions — a trust
//! ledger facing a colluding clique, a swarm shuffle losing transfers
//! and a host, the coded shuffle, owner suspend / resume, a journaled
//! run crashed mid-run and resumed from its WAL, and the 2 000-host
//! internet population behind every 100 000-host number in
//! EXPERIMENTS.md. Each row runs three times in one process and every
//! run must give the same [`Outcome`]; a journaled row must also write
//! the same WAL bytes. A fourth run under another seed must differ, so
//! the comparison cannot pass vacuously.

mod common;

use common::Outcome;
use vmr_core::{
    resume_experiment, run_experiment, ExperimentConfig, MrJobConfig, MrMode, MrPolicy,
    RecoveredServerState, ShuffleConfig,
};
use vmr_desim::{SimDuration, SimTime};
use vmr_durable::{CrashPlan, DurabilityPlan};
use vmr_netsim::HostLink;
use vmr_vcore::{
    ClientId, Engine, FaultPlan, HostProfile, PopulationSpec, Preset, ProjectConfig, TrustConfig,
};

/// Runs per seed, all in this process.
const REPEATS: usize = 3;

/// One run of a row: its outcome, and its WAL when the row journals.
type Run = (Outcome, Option<Vec<u8>>);

/// Runs `row` [`REPEATS`] times under one seed and once under another.
fn assert_repeats(row: fn(u64) -> Run) {
    let (first, first_wal) = row(21);
    for repeat in 1..REPEATS {
        let (again, wal) = row(21);
        assert_eq!(again, first, "run {repeat} differs from run 0");
        assert!(wal == first_wal, "run {repeat} wrote a different WAL");
    }
    assert_ne!(row(22).0.finished, first.finished, "the seed matters");
}

/// Ten testbed volunteers of `profile` on the paper's 100 Mbit links
/// run one word-count job of `maps` × `reduces` tasks over 24 MB until
/// every work unit is over.
fn testbed(
    seed: u64,
    cfg: ProjectConfig,
    profile: HostProfile,
    fault: FaultPlan,
    maps: usize,
    reduces: usize,
) -> Run {
    let mut eng = Engine::builder(seed)
        .config(cfg)
        .clients((0..10).map(|_| (profile.clone(), HostLink::symmetric_mbit(100.0, 0.000_5))))
        .build();
    eng.obs.journal.set_enabled(false);
    eng.fault = fault;
    let mut pol = MrPolicy::new();
    let mut job = MrJobConfig::paper_wordcount(maps, reduces, MrMode::InterClient);
    job.input_bytes = 24 << 20;
    pol.submit_job(&mut eng, job);
    let events = eng.run_until(&mut pol, SimTime::from_secs(180_000), |e| {
        e.db.all_wus_terminal()
    });
    assert!(eng.db.all_wus_terminal(), "the job's work units are over");
    (Outcome::of(&eng, events), None)
}

/// A third of the hosts return one shared wrong output; trust lets
/// hosts that earned it run unreplicated, audited by spot-checks.
fn trust_clique(seed: u64) -> Run {
    let cfg = ProjectConfig {
        trust: TrustConfig {
            probation_results: 1,
            spot_check_rate: 0.2,
            ..TrustConfig::enabled()
        },
        ..ProjectConfig::default()
    };
    let fault = FaultPlan::colluding_clique(10, 0.3, 7, seed);
    testbed(seed, cfg, HostProfile::pc3001(), fault, 12, 3)
}

/// Swarmed chunks from several seeds, one peer transfer in five failing,
/// and a host dropping out mid-shuffle while in four flows at once (the
/// case whose abort order once followed a hash map's).
fn swarm_flaky_dropout(seed: u64) -> Run {
    let cfg = ProjectConfig {
        shuffle: ShuffleConfig::swarm(),
        ..ProjectConfig::default()
    };
    let fault = FaultPlan {
        peer_transfer_failure_prob: 0.2,
        dropouts: vec![(ClientId(3), SimDuration::from_secs(115))],
        ..FaultPlan::none()
    };
    testbed(seed, cfg, HostProfile::pc3001(), fault, 10, 4)
}

/// Coded placement at redundancy 2.
fn coded(seed: u64) -> Run {
    let cfg = ProjectConfig {
        shuffle: ShuffleConfig::coded(2),
        ..ProjectConfig::default()
    };
    testbed(seed, cfg, HostProfile::pc3001(), FaultPlan::none(), 8, 4)
}

/// Every host's owner takes it back for a minute in every three.
fn suspend_resume(seed: u64) -> Run {
    let profile = HostProfile::pc3001().with_availability(120.0, 60.0);
    let cfg = ProjectConfig::default();
    testbed(seed, cfg, profile, FaultPlan::none(), 8, 2)
}

/// A journaled Table I run whose server dies halfway through, resumed
/// from the WAL it left.
fn crash_resume(seed: u64) -> Run {
    let mut cfg = ExperimentConfig::table1(5, 3, 2, MrMode::InterClient);
    cfg.seed = seed;
    cfg.input_bytes = 32 << 20;
    cfg.durable = DurabilityPlan::new(60.0).with_crash(CrashPlan::at_us(100_000_000));
    let dead = run_experiment(&cfg).expect("valid experiment config");
    assert!(dead.crashed && !dead.all_done, "the server dies mid-job");
    let out =
        resume_experiment(&cfg, dead.wal.as_ref().expect("journaled")).expect("the WAL resumes");
    assert!(out.all_done);
    let wal = out.wal.expect("journaled");
    let db = RecoveredServerState::from_log(&wal)
        .expect("the resumed run's WAL recovers")
        .db;
    let events = out.obs.snapshot().counter("desim.events_delivered");
    (
        Outcome::from_parts(&db, out.finished_at, events, &out.obs),
        Some(wal),
    )
}

/// The internet population at 2 000 hosts: generated ISP tiers behind
/// a shared backbone, owner suspend / resume on every host, run
/// for half an hour or until the job's last work unit is over.
fn internet(seed: u64) -> Run {
    let mut eng = Engine::builder(seed)
        .config(ProjectConfig::preset(Preset::Internet))
        .population(PopulationSpec::internet(2_000, seed))
        .build();
    eng.obs.journal.set_enabled(false);
    let mut pol = MrPolicy::new();
    let mut job = MrJobConfig::paper_wordcount(12, 3, MrMode::InterClient);
    job.input_bytes = 48 << 20;
    job.replication = 3;
    job.quorum = 2;
    pol.submit_job(&mut eng, job);
    let until = SimTime::from_secs(1_800);
    let events = eng.run_until(&mut pol, SimTime::from_secs(500_000), |e| {
        e.now() >= until && e.db.all_wus_terminal()
    });
    assert!(pol.all_done(), "the job finishes");
    assert!(events > 10_000, "{events} events");
    (Outcome::of(&eng, events), None)
}

/// The matrix: one test per row, named after what the row switches on.
macro_rules! matrix {
    ($($test:ident => $row:expr,)*) => {
        $(
            #[test]
            fn $test() {
                assert_repeats($row);
            }
        )*
    };
}

matrix! {
    trust_with_a_colluding_clique => trust_clique,
    swarm_with_flaky_transfers_and_a_dropout => swarm_flaky_dropout,
    coded_shuffle => coded,
    availability_suspend_and_resume => suspend_resume,
    journaled_run_crashed_and_resumed => crash_resume,
    internet_population_runs_repeat_per_seed => internet,
}
