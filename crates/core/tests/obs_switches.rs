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
//! the swarm shuffle, whose chunk pump has a scope of its own. And the
//! journal a default run keeps agrees with the registry's counters.

mod common;

use common::Outcome;
use vmr_core::{MrJobConfig, MrMode, MrPolicy, ShuffleConfig};
use vmr_desim::SimTime;
use vmr_netsim::HostLink;
use vmr_obs::{Actor, Detail, Event, EventKind, Mark, MetricValue, Obs, WuEnd};
use vmr_vcore::{Engine, HostProfile, ProjectConfig};

struct Run {
    outcome: Outcome,
    journal_events: usize,
    /// What the journal retained, oldest first.
    journal: Vec<Event>,
    /// Events the journal's ring bound evicted.
    journal_dropped: u64,
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
        journal: eng.obs.journal.events(),
        journal_dropped: eng.obs.journal.dropped(),
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

/// The journal of the default run (its ring keeps every event) counts
/// what the registry counts: one `RpcServed` per RPC, one report point
/// per report, one `PeerFallback` per server fall-back, one
/// `WuTransition` per work-unit outcome; and every reported result has
/// exactly one exec span on its host's lane. (This run never falls back
/// to the server; vcore's serving-expiry test checks a non-zero
/// `PeerFallback` count.)
#[test]
fn journal_agrees_with_the_counters() {
    let run = run(ShuffleConfig::default(), |_| {});
    assert_eq!(run.journal_dropped, 0, "the ring kept every event");
    let counter = |name: &str| {
        let counters = &run.outcome.counters;
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, n)| *n)
    };
    let count =
        |f: &dyn Fn(&EventKind) -> bool| run.journal.iter().filter(|e| f(&e.kind)).count() as u64;

    let rpcs = count(&|k| matches!(k, EventKind::RpcServed { .. }));
    assert!(rpcs > 0);
    assert_eq!(rpcs, counter("vcore.rpcs"), "RpcServed events");

    let reports: Vec<(Actor, Detail)> = run
        .journal
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Point {
                actor,
                mark: Mark::Report,
                detail,
            } => Some((actor, detail)),
            _ => None,
        })
        .collect();
    assert!(!reports.is_empty());
    assert_eq!(
        reports.len() as u64,
        counter("vcore.reports"),
        "report points"
    );

    let fallbacks = count(&|k| matches!(k, EventKind::PeerFallback { .. }));
    assert_eq!(
        fallbacks,
        counter("vcore.server_fallbacks"),
        "PeerFallback events"
    );

    for (to, label) in [(WuEnd::Validated, "validated"), (WuEnd::Failed, "failed")] {
        let moved = count(&|k| matches!(k, EventKind::WuTransition { to: t, .. } if *t == to));
        let outcomes = counter(&format!("vcore.wu_outcomes{{outcome={label}}}"));
        assert_eq!(moved, outcomes, "WuTransition events to {label}");
    }
    assert!(counter("vcore.wu_outcomes{outcome=validated}") > 0);

    for (actor, result) in reports {
        assert!(matches!(actor, Actor::Node(_)), "reports sit on node lanes");
        assert!(
            matches!(result, Detail::Result(_)),
            "a report names its result"
        );
        let execs = count(&|k| {
            matches!(k, EventKind::Span { actor: a, mark: Mark::Exec, detail, .. }
                if *a == actor && *detail == result)
        });
        assert_eq!(execs, 1, "exec spans of {result} on {actor}'s lane");
    }
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
