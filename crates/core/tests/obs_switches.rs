//! Observability never perturbs a run.
//!
//! The recorder has two runtime switches, `Journal::set_enabled` and
//! `Obs::set_profiling`. Neither may change what the simulation
//! computes: the same seeded 40-host BOINC-MR job under the defaults,
//! with the journal off, and with the profiling scopes on must finish
//! every work unit at the same instant and count the same RPCs, flows
//! and shuffle bytes. What each switch does control is checked beside
//! it: the journal is empty only when disabled, the `prof.*_us`
//! histograms are fed only when profiling is on. The same holds under
//! the swarm shuffle, whose chunk pump has a scope of its own.

mod common;

use common::Outcome;
use vmr_core::{MrJobConfig, MrMode, MrPolicy, ShuffleConfig};
use vmr_desim::SimTime;
use vmr_netsim::HostLink;
use vmr_obs::{MetricValue, Obs};
use vmr_vcore::{Engine, HostProfile, ProjectConfig};

struct Run {
    outcome: Outcome,
    journal_events: usize,
    prof_samples: u64,
    /// Samples of the scope around the engine's `Policy` hook calls.
    policy_samples: u64,
    /// Samples of the scope around the swarm shuffle's chunk pump.
    swarm_pump_samples: u64,
}

fn run(shuffle: ShuffleConfig, switches: impl FnOnce(&Obs)) -> Run {
    let volunteer = |_| {
        (
            HostProfile::pc3001(),
            HostLink::symmetric_mbit(100.0, 0.000_5),
        )
    };
    let config = ProjectConfig {
        shuffle,
        ..ProjectConfig::default()
    };
    let mut eng = Engine::builder(11)
        .config(config)
        .clients((0..40).map(volunteer))
        .build();
    switches(&eng.obs);
    let mut pol = MrPolicy::new();
    pol.submit_job(
        &mut eng,
        MrJobConfig::paper_wordcount(20, 5, MrMode::InterClient),
    );
    let events = eng.run_until(&mut pol, SimTime::from_secs(180_000), |e| {
        e.db.all_wus_terminal()
    });
    assert!(pol.all_done(), "the job finishes");
    let samples = |prefix: &str| -> u64 {
        eng.obs
            .snapshot()
            .entries
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| match v {
                MetricValue::Histogram(h) => h.count,
                _ => 0,
            })
            .sum()
    };
    Run {
        outcome: Outcome::of(&eng, events),
        journal_events: eng.obs.journal.len(),
        prof_samples: samples("prof."),
        policy_samples: samples("prof.vcore.policy_us"),
        swarm_pump_samples: samples("prof.vcore.swarm_pump_us"),
    }
}

#[test]
fn journal_and_profiling_switches_leave_the_run_unchanged() {
    let defaults = run(ShuffleConfig::default(), |_| {});
    let journal_off = run(ShuffleConfig::default(), |obs| {
        obs.journal.set_enabled(false)
    });
    let profiling_on = run(ShuffleConfig::default(), |obs| obs.set_profiling(true));

    for prefix in ["vcore.", "netsim.", "shuffle."] {
        let counters = &defaults.outcome.counters;
        assert!(
            counters
                .iter()
                .any(|(k, n)| k.starts_with(prefix) && *n > 0),
            "no {prefix}* counter moved: the comparison below would be vacuous"
        );
    }
    // Completion instants, the makespan (`now`), the event count and
    // every counter in the registry.
    assert_eq!(journal_off.outcome, defaults.outcome, "journal off");
    assert_eq!(profiling_on.outcome, defaults.outcome, "profiling on");

    assert!(defaults.journal_events > 0);
    assert_eq!(journal_off.journal_events, 0);
    assert_eq!(profiling_on.journal_events, defaults.journal_events);

    assert_eq!(defaults.prof_samples, 0);
    assert_eq!(journal_off.prof_samples, 0);
    assert!(profiling_on.prof_samples > 0);
    // Policy hooks are priced on their own, not only inside the event
    // that called them.
    assert_eq!(defaults.policy_samples, 0);
    assert!(profiling_on.policy_samples > 0);
}

#[test]
fn profiling_prices_the_swarm_pump() {
    let defaults = run(ShuffleConfig::swarm(), |_| {});
    let profiling_on = run(ShuffleConfig::swarm(), |obs| obs.set_profiling(true));
    assert!(
        defaults
            .outcome
            .counters
            .iter()
            .any(|(k, n)| k == "shuffle.chunks_swarmed" && *n > 0),
        "the job must swarm its shuffle"
    );
    assert_eq!(profiling_on.outcome, defaults.outcome, "profiling on");
    assert_eq!(defaults.prof_samples, 0);
    assert_eq!(defaults.swarm_pump_samples, 0);
    assert!(profiling_on.swarm_pump_samples > 0);
}
