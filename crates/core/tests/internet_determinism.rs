//! The internet population repeats per seed.
//!
//! Every 100 000-host number in EXPERIMENTS.md comes from
//! `Preset::Internet` + `PopulationSpec::internet`: generated ISP tiers,
//! the aggregate network engine, owner suspend / resume on every host,
//! and an event queue two orders of magnitude deeper than any golden
//! run's. This builds that stack at 2 000 hosts three times in one
//! process — each std `HashMap` in it gets a fresh `RandomState` per
//! instance, so in-process repeats expose iteration-order dependence —
//! and compares every work unit's completion instant and every counter.

mod common;

use common::Outcome;
use vmr_core::{MrJobConfig, MrMode, MrPolicy};
use vmr_desim::SimTime;
use vmr_vcore::{Engine, PopulationSpec, Preset, ProjectConfig};

/// One run: the fleet simulated for half an hour, or until the job's
/// last work unit is over if that takes longer.
fn run(seed: u64) -> Outcome {
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
    Outcome::of(&eng, events)
}

#[test]
fn internet_population_runs_repeat_per_seed() {
    let first = run(21);
    assert!(first.events > 10_000, "{} events", first.events);
    for repeat in 1..3 {
        assert_eq!(run(21), first, "run {repeat} differs from run 0");
    }
    assert_ne!(run(22).finished, first.finished, "the seed matters");
}
