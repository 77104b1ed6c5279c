//! Parked ≡ unparked.
//!
//! With the event journal off, an idle client's empty scheduler RPCs in
//! a daemon interval whose feeder pass found no work are not events:
//! the idle calendar runs them in bulk at the next tick, or puts them
//! back into the event queue when the interval has work. With the
//! journal on, every RPC is a dispatched event as before. The two must
//! be the same run: every work unit's completion instant, the end
//! clock, every counter but the kernel's event count and, for a run
//! with a write-ahead log, the log's bytes.
//!
//! The cases sample what changes an idle client's chain: fleets of 5 to
//! 300 testbed or internet hosts, owner suspend / resume on or off, one
//! dropout, back-off caps of 5, 30, 60 and 600 s, BOINC and BOINC-MR
//! jobs, and an idle hour after the job or none. A case is two full
//! runs, so the budget is a sixteenth of the runner's (16 cases by
//! default, 160 at `scripts/fences.sh`'s 10x); `PROPTEST_SEED` applies.

use proptest::prelude::*;
use proptest::test_runner::{Config, TestCaseError, TestRunner};
use vmr_core::{MrJobConfig, MrMode, MrPolicy};
use vmr_desim::{SimDuration, SimTime};
use vmr_durable::DurabilityPlan;
use vmr_netsim::HostLink;
use vmr_vcore::{
    Availability, ClientId, Engine, FaultPlan, HostProfile, PopulationSpec, Preset, ProjectConfig,
};

mod common;

use common::Outcome;

/// One sampled run configuration.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    hosts: usize,
    internet: bool,
    availability: bool,
    /// Which host drops out (modulo the fleet) and when.
    dropout: (u32, u64),
    backoff_max_s: u64,
    boinc_mr: bool,
    /// Simulated seconds the fleet runs for at least.
    fleet_s: u64,
    wal: bool,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (any::<u64>(), 5usize..=300, any::<bool>(), any::<bool>()),
        (any::<u32>(), 0u64..2_000),
        (0usize..4, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((seed, hosts, internet, availability), dropout, (cap, boinc_mr, idle_hour, wal))| {
                Case {
                    seed,
                    hosts,
                    internet,
                    availability,
                    dropout,
                    backoff_max_s: [5, 30, 60, 600][cap],
                    boinc_mr,
                    fleet_s: if idle_hour { 3_600 } else { 0 },
                    wal,
                }
            },
        )
}

/// Runs `case` with the event journal on or off: the outcome, and the
/// WAL when the case keeps one.
fn run(case: &Case, journal: bool) -> (Outcome, Option<Vec<u8>>) {
    let preset = if case.internet {
        Preset::Internet
    } else {
        Preset::Testbed
    };
    let cfg = ProjectConfig {
        backoff_max_s: case.backoff_max_s,
        ..ProjectConfig::preset(preset)
    };
    let mut builder = Engine::builder(case.seed).config(cfg);
    if case.wal {
        builder = builder.durability(DurabilityPlan::new(300.0));
    }
    if case.internet {
        let mut spec = PopulationSpec::internet(case.hosts, case.seed);
        if !case.availability {
            for class in &mut spec.classes {
                class.availability = None;
            }
        }
        builder = builder.population(spec);
    } else {
        let mut profile = HostProfile::pc3001();
        if case.availability {
            profile.availability = Some(Availability {
                on_mean_s: 600.0,
                off_mean_s: 300.0,
            });
        }
        let link = HostLink::symmetric_mbit(100.0, 0.000_5);
        builder = builder.clients((0..case.hosts).map(|_| (profile.clone(), link.clone())));
    }
    let mut eng = builder.build();
    eng.obs.journal.set_enabled(journal);
    let (victim, at_s) = case.dropout;
    eng.fault = FaultPlan {
        dropouts: vec![(
            ClientId(victim % case.hosts as u32),
            SimDuration::from_secs(at_s),
        )],
        ..FaultPlan::none()
    };
    let mut pol = MrPolicy::new();
    let mode = if case.boinc_mr {
        MrMode::InterClient
    } else {
        MrMode::ServerRelay
    };
    let mut job = MrJobConfig::paper_wordcount(6, 2, mode);
    job.input_bytes = 6 << 20;
    pol.submit_job(&mut eng, job);
    let until = SimTime::from_secs(case.fleet_s);
    let events = eng.run_until(&mut pol, SimTime::from_secs(20_000), |e| {
        e.now() >= until && e.db.all_wus_terminal()
    });
    let wal = eng.durable().enabled().then(|| eng.durable().log_bytes());
    (Outcome::of(&eng, events), wal)
}

/// The journal-off run of `case` is its journaled run.
fn parked_run_is_the_unparked_run(case: &Case) -> Result<(), TestCaseError> {
    let (unparked, unparked_wal) = run(case, true);
    let (parked, parked_wal) = run(case, false);
    prop_assert_eq!(parked.without_event_count(), unparked.without_event_count());
    prop_assert!(parked.events <= unparked.events);
    prop_assert!(parked_wal == unparked_wal, "the WALs differ");
    Ok(())
}

#[test]
fn parked_chains_run_as_their_unparked_twins() {
    let cases_budget = (Config::default().cases / 16).max(1);
    let mut runner = TestRunner::new(Config {
        cases: cases_budget,
    });
    runner
        .run(&cases(), |case| parked_run_is_the_unparked_run(&case))
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The determinism matrix's internet row: 2 000 generated hosts behind
/// ISP tiers with owner suspend / resume, a 12 × 3 job at replication 3
/// and quorum 2, and half an hour of fleet. Most of its RPCs park.
#[test]
fn internet_row_parks_as_it_runs() {
    let run = |journal: bool| {
        let seed = 21;
        let mut eng = Engine::builder(seed)
            .config(ProjectConfig::preset(Preset::Internet))
            .population(PopulationSpec::internet(2_000, seed))
            .build();
        eng.obs.journal.set_enabled(journal);
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
        Outcome::of(&eng, events)
    };
    let (unparked, parked) = (run(true), run(false));
    assert_eq!(parked.without_event_count(), unparked.without_event_count());
    assert!(
        2 * parked.events < unparked.events,
        "{} events parked, {} unparked",
        parked.events,
        unparked.events
    );
}
