//! A run cut into `run_until` slices must be the run.
//!
//! When a slice ends because the next event lies beyond its horizon,
//! the event queue has already settled that event as its head and moved
//! its base instant there — past the engine's clock. Whatever is then
//! scheduled at `now` lands before the base, and the queue re-files its
//! whole content (`vmr_desim::queue`, "Re-base"). This pins that path
//! at engine level against a run that never takes it: the same job, the
//! same extra work unit inserted at the same instant, once from inside
//! an event handler of a single `run_until` call and once from outside,
//! between two of a thousand slices.

mod common;

use common::Outcome;
use vmr_core::{MrJobConfig, MrMode, MrPolicy};
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::HostLink;
use vmr_vcore::{ClientId, Engine, HostProfile, Policy, ResultId, WorkUnitSpec, WuId};

/// When the extra work unit goes in: mid-job, and on an odd microsecond
/// so that no other event shares the instant (the two runs order
/// same-instant events around the insertion differently by design).
const INSERT_AT: SimTime = SimTime::from_micros(300_000_001);
const TAG_INSERT: u64 = 1;
const TAG_NOOP: u64 = 2;

fn extra_wu() -> WorkUnitSpec {
    WorkUnitSpec::basic("late_arrival", "plain", 3.0e10)
}

/// What an outside caller does between two slices.
fn insert_extra(eng: &mut Engine) {
    eng.insert_workunit(extra_wu());
    eng.schedule_custom(SimDuration::ZERO, TAG_NOOP);
}

/// `MrPolicy`, plus the insertion from inside the `TAG_INSERT` handler.
struct Inserting(MrPolicy);

impl Policy for Inserting {
    fn on_wu_validated(&mut self, eng: &mut Engine, wu: WuId, agreeing: &[ClientId]) {
        self.0.on_wu_validated(eng, wu, agreeing)
    }
    fn on_wu_failed(&mut self, eng: &mut Engine, wu: WuId) {
        self.0.on_wu_failed(eng, wu)
    }
    fn on_task_granted(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        self.0.on_task_granted(eng, client, rid)
    }
    fn on_task_executed(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        self.0.on_task_executed(eng, client, rid)
    }
    fn on_result_reported(&mut self, eng: &mut Engine, rid: ResultId) {
        self.0.on_result_reported(eng, rid)
    }
    fn on_custom(&mut self, eng: &mut Engine, tag: u64) {
        if tag == TAG_INSERT {
            insert_extra(eng);
        }
    }
}

fn build(seed: u64, journal: bool) -> (Engine, Inserting) {
    let volunteer = || {
        (
            HostProfile::pc3001(),
            HostLink::symmetric_mbit(100.0, 0.000_5),
        )
    };
    let mut eng = Engine::builder(seed)
        .clients((0..40).map(|_| volunteer()))
        .build();
    eng.obs.journal.set_enabled(journal);
    let mut pol = MrPolicy::new();
    let job = MrJobConfig::paper_wordcount(20, 5, MrMode::InterClient);
    pol.submit_job(&mut eng, job);
    (eng, Inserting(pol))
}

fn done(e: &Engine) -> bool {
    e.db.all_wus_terminal()
}

/// One `run_until` call, the insertion made from inside a handler.
fn continuous_run(journal: bool) -> Outcome {
    let (mut eng, mut pol) = build(5, journal);
    eng.schedule_custom(INSERT_AT.saturating_since(SimTime::ZERO), TAG_INSERT);
    let events = eng.run_until(&mut pol, SimTime::from_secs(180_000), done);
    assert!(eng.db.all_wus_terminal() && pol.0.all_done());
    assert_eq!(eng.db.n_wus(), 26, "20 maps, 5 reduces, the late arrival");
    Outcome::of(&eng, events)
}

/// Over a thousand slices, the insertion made between two of them: the
/// outcome, and the clock after every slice.
fn sliced_run(journal: bool) -> (Outcome, Vec<SimTime>) {
    let (mut eng, mut pol) = build(5, journal);
    // Same event count as above: a custom event at the instant, inert.
    eng.schedule_custom(INSERT_AT.saturating_since(SimTime::ZERO), TAG_NOOP);
    let step = SimDuration::from_micros(731_003);
    let mut horizon = SimTime::ZERO;
    let mut events = 0;
    let mut clocks = Vec::new();
    let mut inserted = false;
    while !done(&eng) {
        horizon += step;
        if !inserted && horizon >= INSERT_AT {
            events += eng.run_until(&mut pol, INSERT_AT, done);
            assert_eq!(
                eng.now(),
                INSERT_AT,
                "the marker was the slice's last event"
            );
            insert_extra(&mut eng);
            inserted = true;
        }
        events += eng.run_until(&mut pol, horizon, done);
        clocks.push(eng.now());
        assert!(clocks.len() < 100_000, "sliced run does not finish");
    }
    assert!(inserted && clocks.len() > 500, "{} slices", clocks.len());
    (Outcome::of(&eng, events), clocks)
}

#[test]
fn sliced_run_with_insertion_at_now_matches_continuous_run() {
    assert_eq!(sliced_run(true).0, continuous_run(true));
}

/// The same two runs with the event journal off, so that idle clients'
/// empty RPCs park off the event queue: every slice that ends on its
/// horizon settles the parked wakes up to it. Slicing must not show —
/// the sliced run is the continuous one — and neither may parking: the
/// clock after every slice and the outcome, bar the kernel's event
/// count, are those of the journaled runs.
#[test]
fn sliced_run_with_the_journal_off_matches_its_journaled_twin() {
    let (parked, parked_clocks) = sliced_run(false);
    assert_eq!(parked, continuous_run(false));
    let (unparked, unparked_clocks) = sliced_run(true);
    assert_eq!(parked_clocks, unparked_clocks, "the clock after each slice");
    assert_eq!(parked.without_event_count(), unparked.without_event_count());
    assert!(parked.events < unparked.events);
}
